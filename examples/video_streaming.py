"""Application demo: video streaming over MOCC vs kernel heuristics.

Reproduces the Fig. 8 setup at example scale: an MPC-based ABR client
streams chunked video over each transport on a fluctuating link; the
transport that delivers more (and steadier) throughput earns more
top-quality chunks.

Run:  python examples/video_streaming.py
"""

from repro.apps.video import BITRATES_MBPS, VideoSession
from repro.baselines import BBR, Cubic, Vegas
from repro.core.agent import MoccController
from repro.core.weights import THROUGHPUT_WEIGHTS
from repro.eval.runner import EvalNetwork, build_competition
from repro.models import default_zoo
from repro.netsim.traces import RandomWalkTrace, mbps_to_pps


def main():
    agent = default_zoo().mocc_offline(quality="fast")
    network = EvalNetwork(
        bandwidth_mbps=8.0, one_way_ms=25.0, buffer_bdp=2.0,
        trace=RandomWalkTrace(mbps_to_pps(3.0), mbps_to_pps(8.0),
                              interval=2.0, step=0.25, horizon=120.0, seed=5))
    session = VideoSession()
    start = network.bottleneck_pps / 3

    print("Streaming 20 chunks over a 3-8 Mbps fluctuating link...\n")
    print(f"{'scheme':<8}{'thr Mbps':>10}{'mean quality':>14}"
          f"{'rebuffer s':>12}   chunks per level 0..5")
    for name, controller in [
            ("MOCC", MoccController(agent, THROUGHPUT_WEIGHTS, initial_rate=start)),
            ("CUBIC", Cubic()),
            ("BBR", BBR(initial_rate=start)),
            ("Vegas", Vegas())]:
        (record,) = build_competition([controller], network, duration=90.0,
                                      seed=3).run_all()
        result = session.stream(record, n_chunks=20)
        counts = " ".join(f"{c:2d}" for c in result.quality_counts())
        print(f"{name:<8}{result.mean_throughput_mbps:>10.2f}"
              f"{result.mean_quality:>14.2f}{result.rebuffer_seconds:>12.2f}"
              f"   [{counts}]")
    print(f"\nquality ladder (Mbps): {BITRATES_MBPS}")


if __name__ == "__main__":
    main()
