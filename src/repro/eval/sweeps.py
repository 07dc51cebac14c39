"""The figure registry: every scenario figure's cells, and the grids
they are built from.

MOCC's evaluation has one shape -- schemes x application objectives x
network conditions -- so every scenario-based figure is a list of
:class:`~repro.eval.scenarios.Scenario` cells run through a
:class:`~repro.eval.parallel.ParallelRunner`, which shards them across
cores and serves re-runs from the result cache.  :data:`FIGURES` maps
each figure to a function of the trained models it needs (parameters
named ``mocc_agent``, ``aurora_throughput``, ``aurora_latency``,
``enhanced_aurora``) that returns its cells.  The benchmarks take their
cells from it, and ``scripts/prewarm_cache.py`` warms every entry
through :func:`figure_cells`.

Fig. 5 evaluates every scheme while varying one network parameter at
a time -- bandwidth, one-way latency, random loss and buffer size --
as :func:`sweep_suite` grids whose ``pivot("lineup", <axis column>,
<metric>)`` is a panel.  Beyond the paper's single-bottleneck grids,
:func:`multihop_churn_suite` declares parking-lot (multi-bottleneck)
contention with churning cross traffic over the ``topologies`` /
``churns`` axes, and :func:`ack_congestion_suite` queues acks behind
reverse-direction uploads -- workload families the paper's evaluation
omits.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from inspect import signature

import numpy as np

from repro.core.weights import (
    BALANCE_WEIGHTS,
    LATENCY_WEIGHTS,
    THROUGHPUT_WEIGHTS,
    sample_weight,
)
from repro.eval.runner import EvalNetwork
from repro.eval.scenarios import ChurnSchedule, FlowDef, Scenario, ScenarioSuite
from repro.netsim.rngstreams import stream_rng
from repro.netsim.topology import dumbbell_asymmetric, parking_lot
from repro.netsim.traces import RandomWalkTrace, StepTrace, mbps_to_pps

__all__ = ["FIGURES", "figure_cells", "fig16_cells", "sweep_suite",
           "multihop_churn_suite", "ack_congestion_suite"]


def _as_weight_tuple(weights) -> tuple:
    return tuple(float(w) for w in np.asarray(weights))


def sweep_suite(schemes, parameter: str, values, base: EvalNetwork | None = None,
                duration: float = 20.0, seed: int = 0) -> ScenarioSuite:
    """Declare the Fig. 5-style one-parameter sweep as a scenario grid.

    One single-flow line-up per scheme (a name or a
    :class:`~repro.eval.scenarios.FlowDef`), in order (a repeated scheme
    gets its own ``<scheme>#k`` line-up), so a run's
    ``pivot("lineup", column, metric)`` is the panel: rows are
    the schemes, columns the swept ``column`` (``bandwidth_mbps``,
    ``rtt_ms`` -- round-trip, twice the one-way ``values`` --,
    ``loss`` or ``buffer``).  The suite is named ``fig5-<parameter>``.
    """
    base = base or EvalNetwork()
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
    # own line-up.
    return ScenarioSuite(name=f"fig5-{parameter}", lineups=tuple(schemes),
                         duration=duration, seeds=(seed,),
                         packet_bytes=base.packet_bytes, **axes)


def multihop_churn_suite(schemes, hops: int = 3, churns=(None,),
                         bandwidth_mbps=16.0, delay_ms=8.0,
                         cross_scheme: str = "cubic",
                         duration: float = 14.0, seeds=(3,),
                         trace: str | None = None,
                         name: str | None = None) -> ScenarioSuite:
    """Parking-lot contention with churning cross traffic as a grid.

    Each line-up is one ``scheme`` (a name or a
    :class:`~repro.eval.scenarios.FlowDef`) on the ``through`` path (all
    ``hops`` bottlenecks) against one ``cross_scheme`` flow per hop; the
    ``churns`` axis drives cross-traffic arrival/departure schedules
    (``skip=1`` entries leave the through flow persistent).  Per-hop
    parameters accept scalars or length-``hops`` sequences, so uneven
    bottlenecks and per-hop traces (e.g. ``"leo-handover"``) drop in.
    """
    topo = parking_lot(hops, bandwidth_mbps=bandwidth_mbps, delay_ms=delay_ms,
                       trace=trace)
    lineups = {}
    for flow in map(FlowDef.coerce, schemes):
        through = replace(flow, path="through", label=f"{flow.scheme}-through")
        cross = tuple(FlowDef(cross_scheme, path=f"cross{i}", label=f"cross{i}")
                      for i in range(hops))
        lineups[through.label] = (through,) + cross
    return ScenarioSuite(name=name or f"multihop{hops}", lineups=lineups,
                         topologies=(topo,), churns=tuple(churns),
                         duration=duration, seeds=tuple(seeds))


def ack_congestion_suite(schemes, bandwidth_mbps=16.0,
                         reverse_bandwidth_mbps=1.6, delay_ms=8.0,
                         reverse_loads=(0, 1, 2),
                         reverse_scheme: str = "cubic",
                         churns=(None,), duration: float = 14.0, seeds=(4,),
                         name: str | None = None) -> ScenarioSuite:
    """Ack-path congestion on an asymmetric dumbbell as a grid.

    Each line-up is one ``scheme`` (a name or a
    :class:`~repro.eval.scenarios.FlowDef`) downloading over the ``through``
    path while ``n`` ``reverse_scheme`` uploads (one per entry of
    ``reverse_loads``) saturate the skinny reverse link the through
    flow's acks share.  A second ``topologies`` entry, made by
    :meth:`~repro.netsim.topology.TopologySpec.with_reverse_paths`,
    pairs every cell with its *pure-propagation twin* -- same base RTT,
    no reverse queueing -- so the cost of ack-path congestion is
    directly measurable (``topo=<name>`` wired vs
    ``topo=<name>-twin`` cells).
    ``churns`` (e.g. periodic on-off with ``skip=1``) drives upload
    session arrival/restart patterns around the persistent download.
    """
    topo = dumbbell_asymmetric(bandwidth_mbps=bandwidth_mbps,
                               delay_ms=delay_ms,
                               reverse_bandwidth_mbps=reverse_bandwidth_mbps)
    lineups = {}
    for flow in map(FlowDef.coerce, schemes):
        through = replace(flow, path="through", label=f"{flow.scheme}-dl")
        for n in reverse_loads:
            uploads = tuple(FlowDef(reverse_scheme, path="reverse",
                                    label=f"ul{i}") for i in range(n))
            lineups[f"{flow.scheme}-rev{n}"] = (through,) + uploads
    twin = topo.with_reverse_paths({"through": None, "reverse": None},
                                   name=f"{topo.name}-twin")
    return ScenarioSuite(name=name or "ack-congestion", lineups=lineups,
                         topologies=(topo, twin),
                         churns=tuple(churns), duration=duration,
                         seeds=tuple(seeds))


def _cells(name: str, network: EvalNetwork, lineups: dict, duration: float,
           seed: int) -> list[Scenario]:
    """One single-flow cell per ``{label: FlowDef}`` line-up on
    ``network``, named ``<name>/<label>``: for what a suite's axes
    cannot spell -- a trace object on the network, a seed per
    condition."""
    suite = name.split("/")[0]
    return [Scenario(name=f"{name}/{label}", network=network, flows=(flow,),
                     duration=duration, seed=seed, suite=suite, lineup=label)
            for label, flow in lineups.items()]


def _fig1a(aurora_throughput) -> list[Scenario]:
    """50 s on the 20<->30 Mbps step link; Aurora starts at half the
    link's nominal rate."""
    network = EvalNetwork(bandwidth_mbps=30.0, one_way_ms=20.0, buffer_bdp=1.0,
                          loss_rate=0.0002,
                          trace=StepTrace.from_mbps(20.0, 30.0, period=10.0))
    return _cells("fig1a", network, {
        "CUBIC": FlowDef("cubic"), "Vegas": FlowDef("vegas"),
        "Aurora": FlowDef("aurora", agent=aurora_throughput, rate_frac=0.5)},
        duration=50.0, seed=1)


def _fig1b(mocc_agent, aurora_throughput, aurora_latency) -> list[Scenario]:
    """Six schemes x three seeds on one 25 Mbps link: the ellipses."""
    def mocc(weights):
        return FlowDef("mocc", weights=_as_weight_tuple(weights), agent=mocc_agent)

    return ScenarioSuite(
        name="fig1b", lineups={
            "CUBIC": "cubic", "Vegas": "vegas",
            "Aurora-thr": FlowDef("aurora", agent=aurora_throughput),
            "Aurora-lat": FlowDef("aurora", agent=aurora_latency),
            "MOCC-thr": mocc(THROUGHPUT_WEIGHTS),
            "MOCC-lat": mocc(LATENCY_WEIGHTS)},
        bandwidths_mbps=(25.0,), rtts_ms=(40.0,), buffers=(2.0,),
        duration=15.0, seeds=(1, 2, 3)).expand()


def _fig5(weights, mocc_agent, aurora_throughput) -> list[Scenario]:
    """The four Fig. 5 sweeps under one objective's ``weights``."""
    base = EvalNetwork(bandwidth_mbps=20.0, one_way_ms=20.0, buffer_bdp=1.0)
    sweeps = (("bandwidth", (10.0, 20.0, 35.0, 50.0)),
              ("latency", (10.0, 70.0, 130.0, 200.0)),
              ("loss", (0.0, 0.02, 0.05, 0.10)),
              ("buffer", (500, 1500, 3000, 5000)))
    schemes = (FlowDef("mocc", weights=_as_weight_tuple(weights),
                       agent=mocc_agent),
               "cubic", "vegas", "bbr", "copa", "vivace",
               FlowDef("aurora-throughput", agent=aurora_throughput))
    return [cell for parameter, values in sweeps
            for cell in sweep_suite(schemes, parameter, values, base=base,
                                    duration=12.0, seed=2).expand()]


def _fig6(mocc_agent, aurora_throughput, enhanced_aurora) -> list[Scenario]:
    """12 sampled objectives x 4 conditions x 7 schemes (the paper runs
    100 x 10).  Every flow carries the objective its cell is scored
    against; heuristics and Aurora ignore it.  Enhanced Aurora runs the
    pre-trained ``(weights, agent)`` nearest the objective."""
    rng = stream_rng("eval.objectives", 7)
    objectives = [sample_weight(rng) for _ in range(12)]
    conditions = (
        EvalNetwork(bandwidth_mbps=12.0, one_way_ms=20.0, buffer_bdp=1.0),
        EvalNetwork(bandwidth_mbps=25.0, one_way_ms=60.0, buffer_bdp=2.0),
        EvalNetwork(bandwidth_mbps=18.0, one_way_ms=40.0, buffer_bdp=0.5,
                    loss_rate=0.01),
        EvalNetwork(bandwidth_mbps=35.0, one_way_ms=15.0, buffer_bdp=3.0),
    )
    cells = []
    for ci, network in enumerate(conditions):
        for oi, w in enumerate(objectives):
            weights = _as_weight_tuple(w)
            dists = [float(np.sum((ew - w) ** 2)) for ew, _ in enhanced_aurora]
            nearest = enhanced_aurora[int(np.argmin(dists))][1]
            lineups = {
                "MOCC": FlowDef("mocc", weights=weights, agent=mocc_agent),
                "Enhanced Aurora": FlowDef("aurora", weights=weights,
                                           agent=nearest),
                "Aurora": FlowDef("aurora", weights=weights,
                                  agent=aurora_throughput)}
            for scheme in ("CUBIC", "Vegas", "BBR", "Vivace"):
                lineups[scheme] = FlowDef(scheme.lower(), weights=weights)
            cells += _cells(f"fig6/c{ci}/o{oi}", network, lineups,
                            duration=10.0, seed=ci * 100 + oi)
    return cells


def _fig8(mocc_agent) -> list[Scenario]:
    """90 s of each transport on a 3-8 Mbps random-walk link."""
    network = EvalNetwork(
        bandwidth_mbps=8.0, one_way_ms=25.0, buffer_bdp=2.0,
        trace=RandomWalkTrace(mbps_to_pps(3.0), mbps_to_pps(8.0),
                              interval=2.0, step=0.25, horizon=120.0, seed=5))
    return _cells("fig8", network, {
        "MOCC": FlowDef("mocc", weights=_as_weight_tuple(THROUGHPUT_WEIGHTS),
                        agent=mocc_agent),
        "CUBIC": FlowDef("cubic"), "BBR": FlowDef("bbr"),
        "Vegas": FlowDef("vegas")}, duration=90.0, seed=3)


#: The fairness figures' MOCC weight variants.
_VARIANTS = {"MOCC-Throughput": THROUGHPUT_WEIGHTS,
             "MOCC-Balance": BALANCE_WEIGHTS,
             "MOCC-Latency": LATENCY_WEIGHTS}


def _mocc(agent, weights, seed, start=0.0, label=""):
    """One fairness-figure MOCC flow, starting at a quarter of its
    scenario's bottleneck rate."""
    return FlowDef("mocc", weights=_as_weight_tuple(weights), agent=agent,
                   seed=seed, start=start, rate_frac=0.25, label=label)


def _fig11(mocc_agent) -> list[Scenario]:
    """Three same-weight flows join a 12 Mbps link 15 s apart."""
    return ScenarioSuite(
        name="fig11",
        lineups={"3xBalance": tuple(
            _mocc(mocc_agent, BALANCE_WEIGHTS, seed=i, start=15.0 * i)
            for i in range(3))},
        bandwidths_mbps=(12.0,), rtts_ms=(40.0,), duration=60.0,
        seeds=(6,)).expand()


def _fig12(mocc_agent) -> list[Scenario]:
    """Three flows of each weight variant join 10 s apart."""
    return ScenarioSuite(
        name="fig12",
        lineups={name: tuple(_mocc(mocc_agent, weights, seed=i, start=10.0 * i)
                             for i in range(3))
                 for name, weights in _VARIANTS.items()},
        bandwidths_mbps=(12.0,), rtts_ms=(40.0,), duration=45.0,
        seeds=(7,)).expand()


def _fig13(mocc_agent) -> list[Scenario]:
    """Pairwise competition of the weight variants, plus CUBIC/Vegas."""
    pairs = {"Thr vs Bal": (THROUGHPUT_WEIGHTS, BALANCE_WEIGHTS),
             "Thr vs Lat": (THROUGHPUT_WEIGHTS, LATENCY_WEIGHTS),
             "Lat vs Bal": (LATENCY_WEIGHTS, BALANCE_WEIGHTS)}
    lineups = {name: (_mocc(mocc_agent, w1, seed=1), _mocc(mocc_agent, w2, seed=2))
               for name, (w1, w2) in pairs.items()}
    lineups["CUBIC vs Vegas"] = (FlowDef("cubic"), FlowDef("vegas"))
    return ScenarioSuite(name="fig13", lineups=lineups, bandwidths_mbps=(20.0,),
                         rtts_ms=(40.0,), duration=30.0, seeds=(8,)).expand()


def _fig14(mocc_agent) -> list[Scenario]:
    """A weight variant against MOCC-Balance across three RTTs."""
    return ScenarioSuite(
        name="fig14",
        lineups={name: (_mocc(mocc_agent, w, seed=1),
                        _mocc(mocc_agent, BALANCE_WEIGHTS, seed=2))
                 for name, w in [("w1 <.8,.1,.1>", THROUGHPUT_WEIGHTS),
                                 ("w5 <.1,.8,.1>", LATENCY_WEIGHTS)]},
        bandwidths_mbps=(20.0,), rtts_ms=(20.0, 40.0, 80.0), duration=25.0,
        seeds=(9,)).expand()


def _fig15(mocc_agent) -> list[Scenario]:
    """Each contender against one CUBIC flow across three RTTs."""
    lineups = {name: (_mocc(mocc_agent, w, seed=seed, label=name), FlowDef("cubic"))
               for seed, (name, w) in enumerate(_VARIANTS.items(), start=1)}
    for name in ("BBR", "Vegas"):
        lineups[name] = (FlowDef(name.lower(), rate_frac=0.25, label=name),
                         FlowDef("cubic"))
    return ScenarioSuite(name="fig15", lineups=lineups, bandwidths_mbps=(20.0,),
                         rtts_ms=(20.0, 60.0, 120.0), duration=25.0,
                         seeds=(10,)).expand()


def _multihop() -> list[Scenario]:
    """Heuristic through schemes on 2- and 3-bottleneck parking lots
    against steady, staggered and on-off CUBIC cross traffic.  One
    suite per hop count: each is a topology with its own ``cross{i}``
    paths."""
    churns = (None, ChurnSchedule("staggered", gap=4.0, skip=1),
              ChurnSchedule("on-off", gap=4.0, on_time=6.0, skip=1))
    return [cell for hops in (2, 3)
            for cell in multihop_churn_suite(("cubic", "bbr", "copa", "vivace"),
                                             hops=hops, churns=churns).expand()]


def _ack_congestion() -> list[Scenario]:
    """Heuristic downloads against 0-2 CUBIC uploads, steady and
    periodically restarting, each cell beside its propagation twin."""
    return ack_congestion_suite(
        ("cubic", "bbr", "copa", "vivace"),
        churns=(None, ChurnSchedule("on-off", gap=3.0, on_time=4.0,
                                    period=8.0, skip=1))).expand()


#: Figure name -> the function of its models that returns its cells.
FIGURES = {
    "fig1a": _fig1a, "fig1b": _fig1b,
    "fig5ad": partial(_fig5, THROUGHPUT_WEIGHTS),
    "fig5eh": partial(_fig5, LATENCY_WEIGHTS),
    "fig6": _fig6, "fig8": _fig8,
    "fig11": _fig11, "fig12": _fig12, "fig13": _fig13, "fig14": _fig14,
    "fig15": _fig15, "multihop-churn": _multihop,
    "ack-congestion": _ack_congestion,
}


def figure_cells(name: str, models: dict) -> list[Scenario]:
    """The cells of ``FIGURES[name]``, its models picked from
    ``models`` by parameter name."""
    entry = FIGURES[name]
    return entry(**{p: models[p] for p in signature(entry).parameters})


def fig16_cells(agent) -> list[Scenario]:
    """Fig. 16's evaluation of one trained ``agent``: six sampled
    objectives, 12 s each on a 4 Mbps link.  Not a registry entry: the
    bench trains its agents."""
    rng = stream_rng("eval.objectives", 16)
    network = EvalNetwork(bandwidth_mbps=4.0, one_way_ms=30.0, buffer_bdp=2.0)
    return [cell for i in range(6) for cell in _cells(
        f"fig16/o{i}", network,
        {"MOCC": FlowDef("mocc", weights=_as_weight_tuple(sample_weight(rng)),
                         agent=agent)},
        duration=12.0, seed=30 + i)]
