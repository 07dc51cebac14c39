"""Parameter sweeps for the multi-objective performance study (Fig. 5).

Fig. 5 evaluates every scheme while varying one network parameter at a
time -- bandwidth (10-50 Mbps), one-way latency (10-200 ms), random
loss (0-10 %) and buffer size (500-5000 packets) -- reporting link
utilization for the throughput objective and latency ratio for the
latency objective.  The evaluation ranges deliberately exceed the
training ranges (Table 3) to probe robustness.

Sweeps are declared as :class:`~repro.eval.scenarios.ScenarioSuite`
grids (:func:`sweep_suite`) and run through a
:class:`~repro.eval.parallel.ParallelRunner`, so they shard across cores
and memoize per-scenario results; a Fig. 5 panel is the run's
``pivot("lineup", <axis column>, <metric>)``.

Beyond the paper's single-bottleneck grids, :func:`multihop_churn_suite`
declares parking-lot (multi-bottleneck) contention with churning cross
traffic over the ``topologies``/``churns`` axes, and
:func:`ack_congestion_suite` queues acks behind reverse-direction
uploads -- workload families the paper's evaluation omits.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.eval.runner import EvalNetwork
from repro.eval.scenarios import ChurnSchedule, FlowDef, ScenarioSuite
from repro.netsim.topology import dumbbell_asymmetric, parking_lot

__all__ = ["sweep_suite", "multihop_churn_suite", "multihop_bench_suites",
           "ack_congestion_suite",
           "FIG5_BANDWIDTHS", "FIG5_LATENCIES", "FIG5_LOSSES", "FIG5_BUFFERS",
           "FIG5_BENCH_SCHEMES", "FIG5_BENCH_SWEEPS", "FIG5_BENCH_BASE",
           "FIG5_BENCH_DURATION", "FIG5_BENCH_SEED",
           "MULTIHOP_BENCH_SCHEMES", "MULTIHOP_BENCH_HOPS",
           "MULTIHOP_BENCH_CHURNS", "MULTIHOP_BENCH_BANDWIDTH",
           "MULTIHOP_BENCH_DELAY_MS", "MULTIHOP_BENCH_DURATION",
           "MULTIHOP_BENCH_SEED",
           "ACK_BENCH_SCHEMES", "ACK_BENCH_BANDWIDTH",
           "ACK_BENCH_REVERSE_BANDWIDTH", "ACK_BENCH_DELAY_MS",
           "ACK_BENCH_REVERSE_LOADS", "ACK_BENCH_CHURNS",
           "ACK_BENCH_DURATION", "ACK_BENCH_SEED"]

#: The x-axes of Fig. 5 (subsampled where the paper's grid is dense).
FIG5_BANDWIDTHS = (10.0, 20.0, 30.0, 40.0, 50.0)
FIG5_LATENCIES = (10.0, 40.0, 70.0, 100.0, 130.0, 160.0, 200.0)
FIG5_LOSSES = (0.0, 0.01, 0.02, 0.03, 0.05, 0.08, 0.10)
FIG5_BUFFERS = (500, 1500, 2500, 3500, 5000)

#: The grid the Fig. 5 *benchmark* actually runs -- shared by
#: benchmarks/bench_fig5_sweeps.py and scripts/prewarm_cache.py so the
#: prewarmed cache fingerprints always match what the benchmark asks for.
FIG5_BENCH_SCHEMES = ("mocc", "cubic", "vegas", "bbr", "copa", "vivace",
                      "aurora-throughput")
FIG5_BENCH_SWEEPS = (
    ("bandwidth", (10.0, 20.0, 35.0, 50.0)),
    ("latency", (10.0, 70.0, 130.0, 200.0)),
    ("loss", (0.0, 0.02, 0.05, 0.10)),
    ("buffer", (500, 1500, 3000, 5000)),
)
FIG5_BENCH_BASE = EvalNetwork(bandwidth_mbps=20.0, one_way_ms=20.0, buffer_bdp=1.0)
FIG5_BENCH_DURATION = 12.0
FIG5_BENCH_SEED = 2

#: The grid benchmarks/bench_multihop_churn.py runs: heuristic through
#: schemes on 2- and 3-bottleneck parking lots with churning CUBIC
#: cross traffic (no trained models, so the grid is CI-friendly).
MULTIHOP_BENCH_SCHEMES = ("cubic", "bbr", "copa", "vivace")
MULTIHOP_BENCH_HOPS = (2, 3)
MULTIHOP_BENCH_CHURNS = (
    None,
    ChurnSchedule("staggered", gap=4.0, skip=1),
    ChurnSchedule("on-off", gap=4.0, on_time=6.0, skip=1),
)
MULTIHOP_BENCH_BANDWIDTH = 16.0
MULTIHOP_BENCH_DELAY_MS = 8.0
MULTIHOP_BENCH_DURATION = 14.0
MULTIHOP_BENCH_SEED = 3

#: The grid benchmarks/bench_ack_congestion.py runs: heuristic through
#: schemes on an asymmetric dumbbell whose ack path is a real queued
#: link, against 0..2 reverse-direction CUBIC uploads, each cell paired
#: with its pure-propagation twin via the ``reverse_paths`` axis.
ACK_BENCH_SCHEMES = ("cubic", "bbr", "copa", "vivace")
ACK_BENCH_BANDWIDTH = 16.0
ACK_BENCH_REVERSE_BANDWIDTH = 1.6
ACK_BENCH_DELAY_MS = 8.0
ACK_BENCH_REVERSE_LOADS = (0, 1, 2)
ACK_BENCH_CHURNS = (
    None,
    ChurnSchedule("on-off", gap=3.0, on_time=4.0, period=8.0, skip=1),
)
ACK_BENCH_DURATION = 14.0
ACK_BENCH_SEED = 4


def _flow_for(scheme: str, controller_kwargs: dict) -> FlowDef:
    key = scheme.lower()
    if key == "mocc":
        return FlowDef(scheme=scheme, agent=controller_kwargs.get("mocc_agent"),
                       weights=_as_weight_tuple(controller_kwargs.get("mocc_weights")))
    if key.startswith("aurora"):
        return FlowDef(scheme=scheme, agent=controller_kwargs.get("aurora_agent"))
    if key == "orca":
        return FlowDef(scheme=scheme, agent=controller_kwargs.get("orca_agent"))
    return FlowDef(scheme=scheme)


def _as_weight_tuple(weights):
    return None if weights is None else tuple(float(w) for w in np.asarray(weights))


def sweep_suite(schemes, parameter: str, values, base: EvalNetwork | None = None,
                duration: float = 20.0, seed: int = 0,
                controller_kwargs: dict | None = None,
                name: str | None = None) -> ScenarioSuite:
    """Declare the Fig. 5-style one-parameter sweep as a scenario grid.

    One single-flow line-up per scheme, in order (a repeated scheme
    gets its own ``<scheme>#k`` line-up), so a run's
    ``pivot("lineup", column, metric)`` is the panel: rows are
    the schemes, columns the swept ``column`` (``bandwidth_mbps``,
    ``rtt_ms`` -- round-trip, twice the one-way ``values`` --,
    ``loss`` or ``buffer``).
    """
    base = base or EvalNetwork()
    controller_kwargs = controller_kwargs or {}
    schemes = tuple(schemes)
    values = tuple(values)
    axes = {"bandwidths_mbps": (base.bandwidth_mbps,),
            "rtts_ms": (2.0 * base.one_way_ms,),
            "losses": (base.loss_rate,),
            "buffers": (float(base.buffer_bdp),)}
    if parameter == "bandwidth":
        axes["bandwidths_mbps"] = tuple(float(v) for v in values)
    elif parameter == "latency":
        # Sweep values are one-way delays (the paper's axis); the suite's
        # RTT axis is round-trip.
        axes["rtts_ms"] = tuple(2.0 * float(v) for v in values)
    elif parameter == "loss":
        axes["losses"] = tuple(float(v) for v in values)
    elif parameter == "buffer":
        axes["buffers"] = tuple(int(v) for v in values)
    else:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    # A sequence (not a dict) so duplicate scheme names each get their
    # own line-up, as the pre-suite loop ran them.
    lineups = tuple((_flow_for(scheme, controller_kwargs),)
                    for scheme in schemes)
    return ScenarioSuite(name=name or f"fig5-{parameter}", lineups=lineups,
                         duration=duration, seeds=(seed,),
                         packet_bytes=base.packet_bytes, **axes)


def multihop_churn_suite(schemes, hops: int = 3, churns=(None,),
                         bandwidth_mbps=MULTIHOP_BENCH_BANDWIDTH,
                         delay_ms=MULTIHOP_BENCH_DELAY_MS,
                         cross_scheme: str = "cubic",
                         duration: float = MULTIHOP_BENCH_DURATION,
                         seeds=(MULTIHOP_BENCH_SEED,),
                         controller_kwargs: dict | None = None,
                         trace: str | None = None,
                         name: str | None = None) -> ScenarioSuite:
    """Parking-lot contention with churning cross traffic as a grid.

    Each line-up is one ``scheme`` on the ``through`` path (all ``hops``
    bottlenecks) against one ``cross_scheme`` flow per hop; the
    ``churns`` axis drives cross-traffic arrival/departure schedules
    (``skip=1`` entries leave the through flow persistent).  Per-hop
    parameters accept scalars or length-``hops`` sequences, so uneven
    bottlenecks and per-hop traces (e.g. ``"leo-handover"``) drop in.
    """
    controller_kwargs = controller_kwargs or {}
    topo = parking_lot(hops, bandwidth_mbps=bandwidth_mbps, delay_ms=delay_ms,
                       trace=trace)
    lineups = {}
    for scheme in schemes:
        through = replace(_flow_for(scheme, controller_kwargs),
                          path="through", label=f"{scheme}-through")
        cross = tuple(FlowDef(cross_scheme, path=f"cross{i}", label=f"cross{i}")
                      for i in range(hops))
        lineups[f"{scheme}-through"] = (through,) + cross
    return ScenarioSuite(name=name or f"multihop{hops}", lineups=lineups,
                         topologies=(topo,), churns=tuple(churns),
                         duration=duration, seeds=tuple(seeds))


def ack_congestion_suite(schemes, bandwidth_mbps=ACK_BENCH_BANDWIDTH,
                         reverse_bandwidth_mbps=ACK_BENCH_REVERSE_BANDWIDTH,
                         delay_ms=ACK_BENCH_DELAY_MS,
                         reverse_loads=ACK_BENCH_REVERSE_LOADS,
                         reverse_scheme: str = "cubic",
                         churns=(None,),
                         duration: float = ACK_BENCH_DURATION,
                         seeds=(ACK_BENCH_SEED,),
                         controller_kwargs: dict | None = None,
                         name: str | None = None) -> ScenarioSuite:
    """Ack-path congestion on an asymmetric dumbbell as a grid.

    Each line-up is one ``scheme`` downloading over the ``through``
    path while ``n`` ``reverse_scheme`` uploads (one per entry of
    ``reverse_loads``) saturate the skinny reverse link the through
    flow's acks share.  The ``reverse_paths`` axis pairs every cell
    with its *pure-propagation twin* -- same base RTT, no reverse
    queueing -- so the cost of ack-path congestion is directly
    measurable (`rev=None` wired vs ``rev=...prop`` twin cells).
    ``churns`` (e.g. periodic on-off with ``skip=1``) drives upload
    session arrival/restart patterns around the persistent download.
    """
    controller_kwargs = controller_kwargs or {}
    topo = dumbbell_asymmetric(bandwidth_mbps=bandwidth_mbps,
                               delay_ms=delay_ms,
                               reverse_bandwidth_mbps=reverse_bandwidth_mbps)
    lineups = {}
    for scheme in schemes:
        for n in reverse_loads:
            through = replace(_flow_for(scheme, controller_kwargs),
                              path="through", label=f"{scheme}-dl")
            uploads = tuple(FlowDef(reverse_scheme, path="reverse",
                                    label=f"ul{i}") for i in range(n))
            lineups[f"{scheme}-rev{n}"] = (through,) + uploads
    twin = {"through": None, "reverse": None}
    return ScenarioSuite(name=name or "ack-congestion", lineups=lineups,
                         topologies=(topo,), reverse_paths=(None, twin),
                         churns=tuple(churns), duration=duration,
                         seeds=tuple(seeds))


def multihop_bench_suites(schemes=MULTIHOP_BENCH_SCHEMES,
                          hops=MULTIHOP_BENCH_HOPS,
                          churns=MULTIHOP_BENCH_CHURNS,
                          controller_kwargs: dict | None = None) -> list:
    """One suite per hop count -- the bench_multihop_churn.py grid.

    Split by hop count because each hop count is a different topology
    with its own ``cross{i}`` path set (a single topologies axis would
    leave 3-hop line-ups referencing paths a 2-hop spec lacks).
    """
    return [multihop_churn_suite(schemes, hops=h, churns=churns,
                                 controller_kwargs=controller_kwargs)
            for h in hops]
