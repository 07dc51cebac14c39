"""Scenario builders and Hypothesis strategies shared by the tests.

* :func:`perf_scenarios` -- one of :data:`PERF_SHAPES` (single
  bottleneck, 2-hop parking lot, queued ack path) run by the heuristic
  :data:`PERF_SCHEMES`: model-free engine shapes, cold-start cheap.
* :func:`batched_grid_scenarios` -- a short ``wifi-walk`` grid whose
  per-cell set-up is comparable to its run time, the regime batched
  dispatch exists for.
* :func:`kill_schedules` -- sweeps for the kill-schedule property
  (``tests/test_sweep_kills.py``): cells drawn in any order from
  :data:`KILL_CELLS`, a worker count, a retry budget, and the batches
  whose worker is killed once each.
* :func:`faulted_cells` -- a cell and its faulted twin for the
  metamorphic relations (``tests/test_metamorphic.py``): topology x
  churn x seed x faulted link x fault specs, the specs drawn by
  :func:`late_faults` or :func:`zero_outage_flaps`.
* :func:`scaled_cells` -- a cell and its twin at twice the capacity
  and twice the packet size, for the scale-invariance relation.
* :func:`sliced_cells` -- a cell and the slices to step it in
  (``tests/test_batch.py``): topology x churn x seed x a cycle of
  ``step_events`` budgets and ``step_until`` widths.
* :func:`objective_points` -- point sets in two or three objectives for
  the Pareto properties (``tests/test_pareto.py``).
* :func:`flow_records` -- any ``FlowRecord`` the record codec stores,
  for the sealed-frame property (``tests/test_resilience.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np
from hypothesis import strategies as st

from repro.eval.parallel import ParallelRunner
from repro.eval.runner import EvalNetwork
from repro.eval.scenarios import ChurnSchedule, FlowDef, Scenario, ScenarioSuite
from repro.netsim.faults import (
    BlackoutWindow,
    GilbertElliottLoss,
    LinkFlapSchedule,
    RateBrownout,
)
from repro.netsim.network import ACK_BYTES, FlowRecord
from repro.netsim.sender import MonitorIntervalStats
from repro.netsim.topology import dumbbell_asymmetric, parking_lot

#: Heuristic schemes the perf shapes run (no trained models: they must
#: be cold-start cheap).
PERF_SCHEMES = ("cubic", "bbr", "copa", "vivace")
#: The three engine shapes: every scheme on one link; each scheme
#: across two shared hops against per-hop CUBIC cross traffic; each
#: scheme downloading against a CUBIC upload queued on its ack path.
PERF_SHAPES = ("single-bottleneck", "parking-lot", "ack-congestion")

_PERF_BANDWIDTH_MBPS = 16.0
_PERF_DELAY_MS = 8.0


def perf_scenarios(shape: str, duration: float = 10.0, seed: int = 0,
                   schemes=PERF_SCHEMES) -> list[Scenario]:
    """The concrete scenarios one of :data:`PERF_SHAPES` runs."""
    schemes = tuple(schemes)
    net = EvalNetwork(bandwidth_mbps=_PERF_BANDWIDTH_MBPS,
                      one_way_ms=_PERF_DELAY_MS)
    if shape == "single-bottleneck":
        return [Scenario(name=f"perf/single/{'+'.join(schemes)}", network=net,
                         flows=schemes, duration=duration, seed=seed,
                         suite="perf")]
    if shape == "parking-lot":
        topo = parking_lot(2, bandwidth_mbps=_PERF_BANDWIDTH_MBPS,
                           delay_ms=_PERF_DELAY_MS)
        return [Scenario(
            name=f"perf/lot/{scheme}", network=net,
            flows=(FlowDef(scheme, path="through", label=f"{scheme}-through"),
                   FlowDef("cubic", path="cross0", label="cross0"),
                   FlowDef("cubic", path="cross1", label="cross1")),
            topology=topo, duration=duration, seed=seed, suite="perf")
            for scheme in schemes]
    if shape == "ack-congestion":
        topo = dumbbell_asymmetric(
            bandwidth_mbps=_PERF_BANDWIDTH_MBPS, delay_ms=_PERF_DELAY_MS,
            reverse_bandwidth_mbps=_PERF_BANDWIDTH_MBPS / 10.0)
        return [Scenario(
            name=f"perf/ack/{scheme}", network=net,
            flows=(FlowDef(scheme, path="through", label=f"{scheme}-dl"),
                   FlowDef("cubic", path="reverse", label="ul0")),
            topology=topo, duration=duration, seed=seed, suite="perf")
            for scheme in schemes]
    raise ValueError(f"unknown perf shape {shape!r}; known: {PERF_SHAPES}")


def batched_grid_scenarios(cells: int = 16, duration: float = 0.25,
                           schemes=PERF_SCHEMES,
                           trace: str = "wifi-walk") -> list[Scenario]:
    """A short-duration grid: ``cells`` cells, seeds x ``schemes``.

    ``wifi-walk`` is the most construction-heavy registered trace,
    which is what the shared per-batch trace cache amortizes.
    """
    schemes = tuple(schemes)
    if cells % len(schemes):
        raise ValueError(f"cells ({cells}) must be a multiple of the "
                         f"scheme count ({len(schemes)})")
    suite = ScenarioSuite(name="perf-batched", lineups=list(schemes),
                          traces=(trace,),
                          seeds=tuple(range(cells // len(schemes))),
                          duration=duration)
    return suite.expand()


def _kill_cells() -> tuple[Scenario, ...]:
    """Short cells of every shape a kill can land in: faulted parking
    lots (flap + Gilbert-Elliott), queued-reverse dumbbells, a churned
    lossy link and a time-varying one, three seeds each."""
    lot = parking_lot(2, bandwidth_mbps=6.0, delay_ms=5.0)
    faults = {"hop0": (LinkFlapSchedule(period=0.15, down_time=0.02,
                                        start=0.05, jitter=0.01),
                       GilbertElliottLoss(p_enter_bad=0.02, p_exit_bad=0.3,
                                          loss_bad=0.4))}
    common = dict(duration=0.3, seeds=(0, 1, 2))
    suites = (
        ScenarioSuite(name="kill-lot", lineups={"lot": (
            FlowDef("cubic", path="through"),
            FlowDef("bbr", path="cross0"),
            FlowDef("cubic", path="cross1"))},
            topologies=(lot.with_faults(faults),), **common),
        ScenarioSuite(name="kill-ack", lineups={"dl+ul": (
            FlowDef("vivace", path="through"),
            FlowDef("cubic", path="reverse"))},
            topologies=(dumbbell_asymmetric(6.0, delay_ms=5.0,
                                            reverse_bandwidth_mbps=0.6),),
            **common),
        ScenarioSuite(name="kill-churn", lineups=[("copa", "cubic")],
                      bandwidths_mbps=(6.0,), rtts_ms=(10.0,), losses=(0.02,),
                      churns=(ChurnSchedule("on-off", gap=0.1, on_time=0.1,
                                            skip=1),), **common),
        ScenarioSuite(name="kill-trace", lineups=[("bbr",)],
                      bandwidths_mbps=(6.0,), rtts_ms=(10.0,),
                      traces=("wifi-walk",), **common),
    )
    return tuple(cell for suite in suites for cell in suite.expand())


#: What the kill-schedule property draws its sweeps from.
KILL_CELLS = _kill_cells()


@dataclass(frozen=True)
class KillSchedule:
    """One drawn sweep and where its workers die."""

    cells: tuple
    n_workers: int
    max_attempts: int
    #: The runner's batches, as positions into ``cells``.
    batches: tuple
    #: Indices into ``batches`` whose worker is killed, once each.
    killed: frozenset

    def killed_cells(self) -> list[int]:
        """Positions of the cells the kills land on, in sweep order."""
        return sorted(p for b in self.killed for p in self.batches[b])


@st.composite
def kill_schedules(draw) -> KillSchedule:
    """Cell order x batches killed once each x ``max_attempts`` in
    {1, 2, 4} x 2-3 workers.  Kills are drawn among the batches the
    runner will actually dispatch."""
    cells = tuple(draw(st.lists(st.sampled_from(KILL_CELLS), min_size=2,
                                max_size=len(KILL_CELLS),
                                unique_by=lambda cell: cell.name)))
    n_workers = draw(st.sampled_from((2, 3)))
    size = ParallelRunner(n_workers=n_workers,
                          use_cache=False)._pick_batch_size(len(cells))
    batches = tuple(tuple(range(start, min(start + size, len(cells))))
                    for start in range(0, len(cells), size))
    killed = draw(st.frozensets(st.sampled_from(range(len(batches))),
                                min_size=1, max_size=len(batches)))
    return KillSchedule(cells=cells, n_workers=n_workers,
                        max_attempts=draw(st.sampled_from((1, 2, 4))),
                        batches=batches, killed=killed)


#: Simulated seconds of a metamorphic-relation cell.
RELATION_DURATION = 1.0
_POLICIES = st.sampled_from(("queue", "drop"))


def _relation_lineups() -> tuple:
    """``(topology, flows)`` pairs: a flow on every path, so every link
    -- ``rev`` included -- carries data."""
    lots = tuple(
        (parking_lot(hops, bandwidth_mbps=6.0, delay_ms=5.0),
         (FlowDef("cubic", path="through"),
          *(FlowDef(("bbr", "cubic", "vivace")[i], path=f"cross{i}")
            for i in range(hops))))
        for hops in (2, 3))
    asymmetric = (dumbbell_asymmetric(6.0, delay_ms=5.0,
                                      reverse_bandwidth_mbps=0.6),
                  (FlowDef("vivace", path="through"),
                   FlowDef("cubic", path="reverse")))
    return (*lots, asymmetric)


#: What :func:`faulted_cells` draws a cell's topology and flows from.
RELATION_LINEUPS = _relation_lineups()
#: ...and its churn: none, staggered arrivals, periodic on-off sessions,
#: each leaving the first flow persistent.
RELATION_CHURNS = (None,
                   ChurnSchedule("staggered", gap=0.2, skip=1),
                   ChurnSchedule("on-off", gap=0.2, on_time=0.3, period=0.5,
                                 skip=1))


@dataclass(frozen=True)
class FaultedCell:
    """A cell, faults off, and the same cell with ``faults`` on its
    link ``link``."""

    clean: Scenario
    faulted: Scenario
    link: str
    faults: tuple


def faulted_cell(lineup: tuple, churn, seed: int, link: str,
                 faults: tuple) -> FaultedCell:
    """One of :data:`RELATION_LINEUPS` under ``churn``, clean and with
    ``faults`` on ``link``."""
    topology, flows = lineup
    common = dict(network=EvalNetwork(), flows=flows, churn=churn,
                  duration=RELATION_DURATION, seed=seed)
    name = (f"relation/{topology.name}/"
            f"{churn.label() if churn is not None else 'steady'}/s{seed}")
    return FaultedCell(
        clean=Scenario(name=name, topology=topology, **common),
        faulted=Scenario(name=f"{name}/faulted",
                         topology=topology.with_faults({link: faults}),
                         **common),
        link=link, faults=faults)


@st.composite
def faulted_cells(draw, faults) -> FaultedCell:
    """Topology x churn x seed x faulted link x a fault tuple drawn by
    the ``faults`` strategy."""
    lineup = draw(st.sampled_from(RELATION_LINEUPS))
    return faulted_cell(
        lineup, draw(st.sampled_from(RELATION_CHURNS)),
        draw(st.integers(0, 3)),
        draw(st.sampled_from([ld.name for ld in lineup[0].links])),
        draw(faults))


def late_faults(duration: float = RELATION_DURATION):
    """1-3 fault specs of any kind, none of which can act before
    ``duration``: every window opens at or after it, and a
    Gilbert-Elliott chain never enters its lossy state."""
    late = st.floats(0.0, 1.0).map(lambda after: duration + after)
    flap = st.builds(
        lambda start, period, down, jitter, policy: LinkFlapSchedule(
            period=period, down_time=down * period, start=start,
            jitter=jitter * period, policy=policy),
        late, st.floats(0.05, 0.5), st.floats(0.01, 0.5),
        st.sampled_from((0.0, 0.2)), _POLICIES)
    brownout = st.builds(RateBrownout, start=late,
                         duration=st.floats(0.01, 1.0),
                         factor=st.floats(0.1, 1.0))
    blackout = st.builds(BlackoutWindow, start=late,
                         duration=st.floats(0.01, 1.0), policy=_POLICIES)
    clean_chain = st.builds(GilbertElliottLoss, p_enter_bad=st.just(0.0),
                            p_exit_bad=st.floats(0.0, 1.0),
                            loss_bad=st.floats(0.0, 1.0))
    return st.lists(st.one_of(flap, brownout, blackout, clean_chain),
                    min_size=1, max_size=3).map(tuple)


def zero_outage_flaps():
    """One flap schedule whose outages last no time, started anywhere
    in the cell: either policy, with or without jitter."""
    return st.builds(
        lambda start, period, jitter, policy: (LinkFlapSchedule(
            period=period, down_time=0.0, start=start,
            jitter=jitter * period, policy=policy),),
        st.floats(0.0, RELATION_DURATION), st.floats(0.05, 0.5),
        st.sampled_from((0.0, 0.5)), _POLICIES)


@dataclass(frozen=True)
class ScaledCell:
    """A cell and its twin with every link's capacity, the packet size
    and the ack size doubled."""

    base: Scenario
    scaled: Scenario


def scaled_cell(lineup: tuple, churn, seed: int,
                duration: float = RELATION_DURATION) -> ScaledCell:
    """One of :data:`RELATION_LINEUPS` under ``churn``, at its own scale
    and doubled.  Vivace becomes Copa: Vivace's utility is defined in
    Mbps, so it is not scale-free."""
    topology, flows = lineup
    flows = tuple(replace(flow, scheme="copa") if flow.scheme == "vivace"
                  else flow for flow in flows)
    doubled = replace(
        topology,
        links=tuple(replace(ld, bandwidth_mbps=2 * ld.bandwidth_mbps)
                    for ld in topology.links),
        paths=tuple(replace(path, ack_bytes=2 * (path.ack_bytes or ACK_BYTES))
                    for path in topology.paths))
    network = EvalNetwork()
    common = dict(flows=flows, churn=churn, duration=duration, seed=seed)
    name = (f"scaled/{topology.name}/"
            f"{churn.label() if churn is not None else 'steady'}/s{seed}")
    return ScaledCell(
        base=Scenario(name=name, network=network, topology=topology,
                      **common),
        scaled=Scenario(name=f"{name}/x2", topology=doubled,
                        network=replace(network,
                                        packet_bytes=2 * network.packet_bytes),
                        **common))


@st.composite
def scaled_cells(draw) -> ScaledCell:
    """Topology x churn x seed, each cell with its doubled twin."""
    return scaled_cell(draw(st.sampled_from(RELATION_LINEUPS)),
                       draw(st.sampled_from(RELATION_CHURNS)),
                       draw(st.integers(0, 7)))


@dataclass(frozen=True)
class SlicedCell:
    """A cell and the slices that step it, repeated in turn until it is
    done: ``("events", n)`` is ``step_events(n)``, ``("until", w)`` is
    ``step_until(now + w)``."""

    cell: Scenario
    slices: tuple


def sliced_cell(lineup: tuple, churn, seed: int, slices: tuple) -> SlicedCell:
    """One of :data:`RELATION_LINEUPS` under ``churn``, cut by
    ``slices``."""
    topology, flows = lineup
    name = (f"sliced/{topology.name}/"
            f"{churn.label() if churn is not None else 'steady'}/s{seed}")
    return SlicedCell(
        cell=Scenario(name=name, network=EvalNetwork(), topology=topology,
                      flows=flows, churn=churn, duration=RELATION_DURATION,
                      seed=seed),
        slices=slices)


_SLICE = st.one_of(
    st.tuples(st.just("events"), st.integers(1, 300)),
    st.tuples(st.just("until"), st.floats(0.001, 0.4)))


@st.composite
def sliced_cells(draw) -> SlicedCell:
    """Topology x churn x seed, cut by 1-4 drawn slices with a
    one-event slice among them."""
    slices = draw(st.lists(_SLICE, min_size=1, max_size=4))
    slices.insert(draw(st.integers(0, len(slices))), ("events", 1))
    return sliced_cell(draw(st.sampled_from(RELATION_LINEUPS)),
                       draw(st.sampled_from(RELATION_CHURNS)),
                       draw(st.integers(0, 3)), tuple(slices))


#: One objective value: a small integer, so every box, union and
#: inclusion-exclusion sum is exact in floats; some lie below the
#: reference point 0.
OBJECTIVE = st.integers(-2, 8).map(float)


@st.composite
def objective_points(draw, max_size: int = 6) -> np.ndarray:
    """Up to ``max_size`` points in 2 or 3 objectives, duplicates
    allowed, as an ``(n, d)`` array."""
    dims = draw(st.sampled_from((2, 3)))
    points = draw(st.lists(st.tuples(*[OBJECTIVE] * dims), max_size=max_size))
    return np.array(points, dtype=np.float64).reshape(-1, dims)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
#: Per stored annotation, any value the type admits.
_ANY_VALUE = {int: st.integers(-2**63, 2**63 - 1), float: _ANY_FLOAT,
              float | None: st.none() | _ANY_FLOAT, str: st.text()}


def _any(cls, **given):
    """``cls`` with every field drawn from all its annotation admits,
    bar the strategies ``given`` by name."""
    hints = get_type_hints(cls)
    drawn = {f.name: _ANY_VALUE.get(hints[f.name]) for f in fields(cls)}
    return st.builds(cls, **{**drawn, **given})


def flow_records(max_mis: int = 5):
    """Any ``FlowRecord`` with 0 to ``max_mis`` monitor intervals: NaN,
    infinities, ``None`` RTTs and 64-bit ints included."""
    return _any(FlowRecord, records=st.lists(_any(MonitorIntervalStats),
                                             max_size=max_mis))
