"""Fig. 1: the motivation experiments.

(a) Throughput timeline on a 20<->30 Mbps step link (OWD 20 ms, 0.02 %
    loss): learning-based CC tracks capacity better than CUBIC/Vegas.
(b) Throughput-latency 1-sigma ellipses: schemes trace a path from
    latency-optimised to throughput-optimised; MOCC spans a *range* by
    changing its weight vector.
(c) Re-training Aurora for a new objective takes a long time (the quick
    adaptation benches, Fig. 7, quantify MOCC's speedup against this).
"""

import numpy as np
from conftest import print_table, run_once

from repro.baselines import Cubic, Vegas
from repro.baselines.aurora import AuroraController
from repro.core.agent import MoccController
from repro.core.offline import train_single_objective
from repro.core.weights import LATENCY_WEIGHTS, THROUGHPUT_WEIGHTS
from repro.eval.gaussian import sigma_ellipse
from repro.eval.runner import EvalNetwork, run_scheme
from repro.netsim.traces import StepTrace
from repro.rl.parallel import EnvSpec
from repro.config import TRAINING_RANGES


def bench_fig1a_throughput_timeline(benchmark, aurora_throughput):
    """Fig. 1(a): 50 s on a 20<->30 Mbps square-wave bottleneck."""
    trace = StepTrace.from_mbps(20.0, 30.0, period=10.0)
    network = EvalNetwork(bandwidth_mbps=30.0, one_way_ms=20.0, buffer_bdp=1.0,
                          loss_rate=0.0002, trace=trace)

    def experiment():
        results = {}
        for name, ctrl in [
                ("CUBIC", Cubic()),
                ("Vegas", Vegas()),
                ("Aurora", AuroraController(aurora_throughput,
                                            initial_rate=network.bottleneck_pps / 2))]:
            record = run_scheme(ctrl, network, duration=50.0, seed=1)
            # 5-second throughput buckets (the paper's timeline).
            buckets = {}
            for s in record.records:
                buckets.setdefault(int(s.start // 5), []).append(s.throughput_mbps)
            timeline = [float(np.mean(buckets[k])) for k in sorted(buckets)]
            # Steady-state mean: drop the first 20 s (the RL agent ramps
            # from a cold start; the paper's runs are steady-state).
            steady = float(np.mean([s.throughput_mbps for s in record.records
                                    if s.start >= 20.0]))
            results[name] = (steady, timeline)
        return results

    results = run_once(benchmark, experiment)
    rows = [[name, mean] + [round(v, 1) for v in tl[:10]]
            for name, (mean, tl) in results.items()]
    print_table("Fig 1a: throughput on 20<->30 Mbps step link (cols: 5s buckets)",
                ["scheme", "steady-mean"] + [f"t{5*i}" for i in range(10)], rows)

    # Learning-based CC sustains higher steady-state throughput than the
    # delay heuristic under the varying link (the paper's Fig. 1a claim).
    assert results["Aurora"][0] > results["Vegas"][0] * 0.95
    assert results["Aurora"][0] > 0.6 * 25.0  # tracks a 20-30 Mbps link


def bench_fig1b_tradeoff_ellipses(benchmark, mocc_agent, aurora_throughput,
                                  aurora_latency):
    """Fig. 1(b): 1-sigma throughput/latency ellipses per scheme."""
    network = EvalNetwork(bandwidth_mbps=25.0, one_way_ms=20.0, buffer_bdp=2.0)

    def controllers():
        start = network.bottleneck_pps / 3
        return [
            ("CUBIC", Cubic()),
            ("Vegas", Vegas()),
            ("Aurora-thr", AuroraController(aurora_throughput, initial_rate=start)),
            ("Aurora-lat", AuroraController(aurora_latency, initial_rate=start)),
            ("MOCC-thr", MoccController(mocc_agent, THROUGHPUT_WEIGHTS,
                                        initial_rate=start)),
            ("MOCC-lat", MoccController(mocc_agent, LATENCY_WEIGHTS,
                                        initial_rate=start)),
        ]

    def experiment():
        samples = {name: [] for name, _ in controllers()}
        for seed in range(3):
            for name, ctrl in controllers():
                record = run_scheme(ctrl, network, duration=15.0, seed=seed + 1)
                rtt_ms = (record.mean_rtt or 0.0) * 1000.0
                samples[name].append((record.mean_throughput_mbps, rtt_ms))
        return {name: sigma_ellipse(np.array(pts)) for name, pts in samples.items()}

    ellipses = run_once(benchmark, experiment)
    rows = [[name, e.center[0], e.center[1], e.axes[0], e.axes[1]]
            for name, e in ellipses.items()]
    print_table("Fig 1b: 1-sigma ellipses (throughput Mbps vs RTT ms)",
                ["scheme", "thr_center", "rtt_center", "axis1", "axis2"], rows)

    # The MOCC range: the throughput-weighted variant delivers more
    # throughput, the latency-weighted variant lower delay.
    assert ellipses["MOCC-thr"].center[0] > ellipses["MOCC-lat"].center[0]
    assert ellipses["MOCC-lat"].center[1] < ellipses["MOCC-thr"].center[1]
    # Aurora variants sit at the extremes, as in the paper's figure.
    assert ellipses["Aurora-thr"].center[0] > ellipses["Aurora-lat"].center[0]


def bench_fig1c_retraining_cost(benchmark):
    """Fig. 1(c): training Aurora from scratch converges slowly."""
    spec = EnvSpec(ranges=TRAINING_RANGES, max_steps=64, seed=3)

    def experiment():
        _, trace = train_single_objective(spec, (0.45, 0.45, 0.10), 40, seed=3)
        return trace

    trace = run_once(benchmark, experiment)
    smooth = np.convolve(trace, np.ones(5) / 5, mode="valid")
    print_table("Fig 1c: Aurora from-scratch training reward (every 5 iters)",
                ["iteration", "mean episode reward"],
                [[i * 5, float(smooth[min(i * 5, len(smooth) - 1)])]
                 for i in range(len(smooth) // 5 + 1)])
    # Training is still climbing well into the run: the late rewards
    # dominate the early ones (slow from-scratch convergence).
    assert smooth[-1] > smooth[0]
