"""Fairness demo: staggered MOCC flows sharing one bottleneck (§6.4).

Three flows with the same weight vector join a 12 Mbps bottleneck at
0 s, 15 s and 30 s; the demo prints each flow's per-5-second share and
the Jain fairness index, showing convergence toward a fair allocation.

Run:  python examples/fairness_demo.py
"""

import numpy as np

from repro.core.agent import MoccController
from repro.core.weights import BALANCE_WEIGHTS
from repro.eval.metrics import jain_index
from repro.eval.runner import EvalNetwork, run_competition
from repro.models import default_zoo


def main():
    agent = default_zoo().mocc_offline(quality="fast")
    network = EvalNetwork(bandwidth_mbps=12.0, one_way_ms=20.0, buffer_bdp=1.0)
    controllers = [MoccController(agent, BALANCE_WEIGHTS,
                                  initial_rate=network.bottleneck_pps / 4)
                   for _ in range(3)]
    print("Three same-weight MOCC flows, arrivals at 0/15/30 s...\n")
    records = run_competition(controllers, network, duration=60.0,
                              start_times=[0.0, 15.0, 30.0], seed=6)

    print(f"{'window':<10}" + "".join(f"flow{i:<7}" for i in range(3)) + "jain")
    for lo in np.arange(0.0, 60.0, 5.0):
        hi = lo + 5.0
        rates = []
        for record in records:
            acked = sum(s.acked for s in record.records if lo <= s.start < hi)
            rates.append(acked / 5.0)
        active = [r for r in rates if r > 1.0]
        jain = jain_index(active) if len(active) >= 2 else float("nan")
        cells = "".join(f"{r:<11.0f}" for r in rates)
        print(f"{int(lo):>2d}-{int(hi):<6d} {cells}{jain:.3f}")

    print("\nAs flows join, the earlier flows yield bandwidth; same-weight "
          "MOCC flows\nconverge toward an even share (Jain index -> 1).")


if __name__ == "__main__":
    main()
