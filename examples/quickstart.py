"""Quickstart: one MOCC model, three different application objectives.

Loads (or trains, on first run) the offline multi-objective model and
runs it on the same bottleneck under three weight vectors, then says
whether the rows show the paper's core claim: one model trading
throughput against latency on demand.

Run:  python examples/quickstart.py
"""

from repro.core.agent import MoccController
from repro.core.weights import BALANCE_WEIGHTS, LATENCY_WEIGHTS, THROUGHPUT_WEIGHTS
from repro.eval.runner import EvalNetwork, build_competition
from repro.models import default_zoo


def main():
    print("Loading the offline-trained MOCC model (trains on first run)...")
    agent = default_zoo().mocc_offline(quality="fast")

    network = EvalNetwork(bandwidth_mbps=20.0, one_way_ms=20.0, buffer_bdp=2.0)
    (link,) = network.topology().build(network.packet_bytes).all_links()
    print(f"\nBottleneck: {network.bandwidth_mbps} Mbps, "
          f"{network.one_way_ms} ms one-way, {link.queue_size}-packet buffer\n")

    print(f"{'objective':<28}{'utilization':>12}{'RTT ratio':>12}{'loss':>9}")
    rows = {}
    for name, weights in [
            ("throughput  <0.8,0.1,0.1>", THROUGHPUT_WEIGHTS),
            ("balance     <.34,.33,.33>", BALANCE_WEIGHTS),
            ("latency     <0.1,0.8,0.1>", LATENCY_WEIGHTS)]:
        controller = MoccController(agent, weights,
                                    initial_rate=network.bottleneck_pps / 3)
        (record,) = build_competition([controller], network, duration=20.0,
                                      seed=1).run_all()
        print(f"{name:<28}{record.mean_utilization:>12.3f}"
              f"{record.latency_ratio:>12.3f}{record.loss_rate:>9.4f}")
        rows[name.split()[0]] = (record.mean_utilization, record.latency_ratio)

    # Say what these rows show: the coarse `fast` model need not show
    # the paper's trade-off.
    thr, lat = rows["throughput"], rows["latency"]
    shown = thr[0] > lat[0] and thr[1] > lat[1]
    print(f"\nThe paper's claim: a higher w_thr buys bandwidth with queueing "
          f"delay.\nThis model {'shows' if shown else 'does not show'} it, "
          f"throughput vs latency weights: utilization {thr[0]:.3f} vs "
          f"{lat[0]:.3f},\nRTT ratio {thr[1]:.3f} vs {lat[1]:.3f}.")


if __name__ == "__main__":
    main()
