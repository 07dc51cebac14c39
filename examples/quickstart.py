"""Quickstart: one MOCC model, three different application objectives.

Loads (or trains, on first run) the offline multi-objective model and
runs it on the same bottleneck under three weight vectors, showing how
a single model trades throughput against latency on demand -- the
paper's core claim.

Run:  python examples/quickstart.py
"""

from repro.core.agent import MoccController
from repro.core.weights import BALANCE_WEIGHTS, LATENCY_WEIGHTS, THROUGHPUT_WEIGHTS
from repro.eval.runner import EvalNetwork, run_scheme
from repro.models import default_zoo


def main():
    print("Loading the offline-trained MOCC model (trains on first run)...")
    agent = default_zoo().mocc_offline(quality="fast")

    network = EvalNetwork(bandwidth_mbps=20.0, one_way_ms=20.0, buffer_bdp=2.0)
    (link,) = network.topology().build(network.packet_bytes).all_links()
    print(f"\nBottleneck: {network.bandwidth_mbps} Mbps, "
          f"{network.one_way_ms} ms one-way, {link.queue_size}-packet buffer\n")

    print(f"{'objective':<28}{'utilization':>12}{'RTT ratio':>12}{'loss':>9}")
    for name, weights in [
            ("throughput  <0.8,0.1,0.1>", THROUGHPUT_WEIGHTS),
            ("balance     <.34,.33,.33>", BALANCE_WEIGHTS),
            ("latency     <0.1,0.8,0.1>", LATENCY_WEIGHTS)]:
        controller = MoccController(agent, weights,
                                    initial_rate=network.bottleneck_pps / 3)
        record = run_scheme(controller, network, duration=20.0, seed=1)
        print(f"{name:<28}{record.mean_utilization:>12.3f}"
              f"{record.latency_ratio:>12.3f}{record.loss_rate:>9.4f}")

    print("\nOne model, three behaviours: higher w_thr trades queueing delay "
          "for bandwidth;\nhigher w_lat keeps the bottleneck queue short.")


if __name__ == "__main__":
    main()
