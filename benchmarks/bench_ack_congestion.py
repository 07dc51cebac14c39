"""Ack-path congestion on asymmetric dumbbells (reverse-path queueing).

The paper's evaluation (like the pre-PR engine) treats the reverse
direction as pure propagation, making ack compression physically
impossible.  With reverse paths wired to real queued links
(:func:`repro.netsim.topology.dumbbell_asymmetric`), a download's acks
share the skinny uplink with competing uploads -- the ADSL/cable/
satellite regime where latency objectives diverge hardest.

This benchmark runs the ``ack-congestion`` entry of the figure
registry, an :func:`~repro.eval.sweeps.ack_congestion_suite` grid:
heuristic download schemes against 0-2 CUBIC uploads, every cell
paired with its *pure-propagation twin* (same base RTT, no reverse
queueing), a second ``topologies`` entry, under steady and
periodically restarting upload sessions.

Headline shapes asserted:

* with the reverse link idle, wiring it is free: wired and twin cells
  agree to within a few percent (the ack wire-size is honest);
* with uploads present, the wired download RTT is measurably above its
  twin -- ack-path queueing the twin cannot see;
* downloads keep a usable share of the forward bottleneck even under
  ack congestion (delayed acks dominate; a buffer-dropped ack really
  is lost since PR 4, but cumulative-ack recovery and the retransmit
  timeout keep the sender's accounting whole).
"""

import numpy as np
from conftest import print_table, run_once

from repro.eval.sweeps import FIGURES
from repro.netsim.traces import mbps_to_pps


def bench_ack_congestion_grid(benchmark, runner):
    """Download RTT/throughput: wired reverse path vs. its twin."""
    outcome = run_once(benchmark,
                       lambda: runner.run(FIGURES["ack-congestion"]()))

    # cells[(scheme, load, wired, churn_label)] = download record
    cells = {}
    for result in outcome:
        scheme, load = result.scenario.lineup.rsplit("-rev", 1)
        # The twin's through path has no reverse links to queue on.
        wired = result.scenario.topology.path("through").reverse_links \
            is not None
        churn = (result.scenario.churn.label()
                 if result.scenario.churn is not None else "none")
        cells[(scheme, int(load), wired, churn)] = result.records[0]

    rows = [[scheme, load, "wired" if wired else "twin", churn,
             rec.mean_throughput_pps, rec.mean_rtt, rec.loss_rate]
            for (scheme, load, wired, churn), rec in sorted(
                cells.items(), key=lambda kv: (kv[0][0], kv[0][1],
                                               not kv[0][2], kv[0][3]))]
    print_table("Ack congestion: wired reverse path vs pure-propagation twin",
                ["scheme", "uploads", "reverse", "churn", "dl pps",
                 "dl rtt", "dl loss"], rows)

    forward_pps = mbps_to_pps(16.0)
    schemes, loads, _, churn_labels = (
        list(dict.fromkeys(key[i] for key in cells)) for i in range(4))
    for scheme in schemes:
        for churn in churn_labels:
            idle_wired = cells[(scheme, 0, True, churn)]
            idle_twin = cells[(scheme, 0, False, churn)]
            # An idle reverse link costs (almost) nothing to wire.
            assert idle_wired.mean_rtt <= idle_twin.mean_rtt * 1.10, \
                (scheme, churn)
            loaded = [(cells[(scheme, n, True, churn)],
                       cells[(scheme, n, False, churn)])
                      for n in loads if n > 0]
            # Ack-path queueing is visible on average across loads.
            wired_rtt = np.mean([w.mean_rtt for w, _ in loaded])
            twin_rtt = np.mean([t.mean_rtt for _, t in loaded])
            assert wired_rtt > twin_rtt * 1.1, (scheme, churn)
            for wired_rec, _ in loaded:
                # Delayed acks, not a collapse: the download still moves.
                share = wired_rec.mean_throughput_pps / forward_pps
                assert share > 0.05, (scheme, churn)
