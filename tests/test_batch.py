"""Step-able engine core + in-process batched multi-cell execution.

Three guarantees, layered:

* **Stepping is invisible.**  ``SimState.step_until`` / ``step_events``
  partition ``run()``'s event loop arbitrarily without moving a single
  float: handlers stamp ``sim.now`` from the popped event, so slice
  boundaries never leak into the dynamics, and a slice leaves every
  pending event in the heap -- pinned by single-stepping each fused
  branch and by a property over drawn cells and cuts.
* **Batching is invisible.**  ``BatchRunner`` builds N cells over
  shared frozen assets and runs them in turn in one process, so every
  cell's records are bit-identical to running it solo whatever the
  batch's composition or order -- pinned here across every perf shape
  and one mixed batch, and at the runner level by the serial ==
  process-parallel == batched identity grid and the kill-schedule
  property (``tests/test_sweep_kills.py``), whose sweeps come back as
  the serial digests in any cell order.
* **Failures stay per cell.**  A mid-batch ``ScenarioError`` surfaces
  the failing cell's name while its batch siblings complete (and
  cache).

``TestCellIsolation`` holds the cross-cell isolation contract: real
built cells' object graphs, for every registered trace, share no
mutable object -- and a planted shared generator or unfrozen trace is
named.  ``TestBatchRunner::test_cells_never_share_generators`` walks
the same graphs for generators: each is stored in exactly one
attribute, dict value or sequence slot, within a cell as across cells.
"""

import gc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

import repro.eval.batch as batch_module
import repro.eval.scenarios as scenarios_module
from repro.core.agent import MoccAgent
from repro.eval.batch import BatchRunner
from repro.eval.parallel import ParallelRunner, ScenarioError
from repro.eval.resilience import RetryPolicy, records_digest
from repro.eval.scenarios import (
    SCENARIO_CACHE_VERSION,
    ChurnSchedule,
    FlowDef,
    Scenario,
    ScenarioSuite,
    build_scenario_simulation,
)
from repro.eval.runner import EvalNetwork
from repro.netsim.faults import (FaultProcess, GilbertElliottLoss,
                                 LinkFlapSchedule, RateBrownout)
from repro.netsim.network import SimState, Simulation
from repro.netsim.topology import dumbbell, dumbbell_asymmetric, parking_lot
from repro.netsim.traces import (
    BandwidthTrace,
    freeze_trace,
    make_trace,
    trace_names,
)
from strategies import (
    PERF_SHAPES,
    RELATION_LINEUPS,
    batched_grid_scenarios,
    perf_scenarios,
    sliced_cell,
    sliced_cells,
)
from test_parallel_eval import cache_hits, cache_misses
from test_sweep_kills import run_sweep


def solo_run(scenario) -> tuple[str, int]:
    """Reference result: the cell alone, plain ``run_all``; its digest
    and event count."""
    sim = build_scenario_simulation(scenario)
    return records_digest(sim.run_all()), sim.events_processed


def _branch_cells():
    """One short cell per branch of the fused drain loop."""
    net = EvalNetwork(bandwidth_mbps=8.0, one_way_ms=8.0)
    common = dict(network=net, duration=1.0, seed=3)
    cubic_cross = (FlowDef("cubic", path="cross0"),
                   FlowDef("cubic", path="cross1"))
    flaky = dumbbell(bandwidth_mbps=8.0, delay_ms=8.0).with_faults({
        "hop0": (LinkFlapSchedule(period=0.4, down_time=0.05, start=0.2,
                                  policy="drop"),
                 GilbertElliottLoss(p_enter_bad=0.02, p_exit_bad=0.3))})
    return [
        # window + rate + inflight_cap senders, pure-propagation return
        Scenario(name="step/dumbbell", flows=("cubic", "vivace", "bbr"),
                 **common),
        # first hop hands over to EV_HOP; drops with links downstream
        Scenario(name="step/lot", flows=(FlowDef("bbr", path="through"),
                                         *cubic_cross),
                 topology=parking_lot(2, bandwidth_mbps=8.0, delay_ms=8.0),
                 **common),
        # queued reverse link: EV_RCV off the fast path, parked acks,
        # cumulative-ack recovery and RTOs
        Scenario(name="step/ack",
                 flows=(FlowDef("cubic", path="through"),
                        FlowDef("cubic", path="reverse")),
                 topology=dumbbell_asymmetric(
                     bandwidth_mbps=8.0, delay_ms=8.0,
                     reverse_bandwidth_mbps=0.8), **common),
        # random wire loss on the synchronous first hop
        Scenario(name="step/wire-loss", flows=("cubic", "copa"),
                 network=EvalNetwork(bandwidth_mbps=8.0, one_way_ms=8.0,
                                     loss_rate=0.03),
                 duration=1.0, seed=3),
        # faulted link: transmit()'s cold twin, "fault" drops
        Scenario(name="step/faults", flows=("cubic", "vivace"),
                 topology=flaky, **common),
        # stop_time lands mid-run: sends, ack clock and MI all gate on it
        Scenario(name="step/churn",
                 flows=(FlowDef("cubic"),
                        FlowDef("bbr", start=0.2, stop=0.55),
                        FlowDef("vivace", stop=0.7)), **common),
    ]


def _loop_state(sim):
    """Everything a slice boundary could have corrupted."""
    return (sim.events_processed, sim._seq, sim.now,
            [(link.delivered, link.dropped_buffer, link.dropped_random,
              link.dropped_fault, link.busy_until) for link in sim.links])


#: :func:`_branch_cells` by name.
BRANCH_CELLS = {cell.name: cell for cell in _branch_cells()}


def single_stepping_holds(cell, simulation_cls) -> None:
    """Every event its own slice, on ``simulation_cls``: the loop-local
    clock, sequence counter and held event are written back at each
    boundary on each branch."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios_module, "Simulation", simulation_cls)
        whole = build_scenario_simulation(cell)
        sim = build_scenario_simulation(cell)
    reference = records_digest(whole.run_all())
    state = sim.state
    while not state.done:
        due = state.peek_time()
        assert state.step_events(1) == 1
        assert sim.now == due
    state.step_until(None)  # nothing left; lands the clock
    assert _loop_state(sim) == _loop_state(whole)
    assert records_digest(sim.run_all()) == reference


class TestSimStateStepping:
    """The resumable core against the one-shot loop."""

    @pytest.mark.parametrize("name", BRANCH_CELLS)
    def test_single_stepping_every_fused_branch(self, name):
        single_stepping_holds(BRANCH_CELLS[name], Simulation)

    def test_empty_slices_process_and_move_nothing(self, scenario):
        sim = build_scenario_simulation(scenario)
        sim.state.step_until(0.3)
        before = _loop_state(sim), sim.state.peek_time(), len(sim._heap)
        assert sim.state.step_events(0) == 0
        assert sim.state.step_until(0.1) == 0  # horizon behind the clock
        assert (_loop_state(sim), sim.state.peek_time(),
                len(sim._heap)) == before

    @pytest.fixture(scope="class")
    def scenario(self):
        return perf_scenarios("single-bottleneck", duration=1.5)[0]

    @pytest.fixture(scope="class")
    def reference(self, scenario):
        sim = build_scenario_simulation(scenario)
        records = sim.run_all()
        return records_digest(records), sim.events_processed

    def test_raising_hook_leaves_loop_state_consistent(self, scenario):
        """An exception out of a controller hook mid-slice still writes
        the loop locals back: no pending event is ahead of ``_seq``."""
        sim = build_scenario_simulation(scenario)
        n = sim.state.step_until(0.3)

        def boom(flow, packet, now):
            raise RuntimeError("hook failed")

        sim.flows[0].on_ack_cb = boom
        with pytest.raises(RuntimeError, match="hook failed"):
            sim.state.step_until(None)
        assert sim.events_processed > n
        assert sim._seq >= max(item[1] for item in sim._heap)
        assert 0.3 <= sim.now < sim.duration

    def test_step_until_slices_are_bit_identical(self, scenario, reference):
        digest, events = reference
        sim = build_scenario_simulation(scenario)
        t = 0.0
        while not sim.state.done:
            t += 0.05
            sim.state.step_until(t)
        assert sim.state.done
        assert records_digest(sim.run_all()) == digest
        assert sim.events_processed == events

    def test_step_events_slices_are_bit_identical(self, scenario, reference):
        digest, events = reference
        sim = build_scenario_simulation(scenario)
        while sim.state.step_events(193):
            pass
        assert sim.state.done
        assert records_digest(sim.run_all()) == digest
        assert sim.events_processed == events

    def test_mixed_slicing_is_bit_identical(self, scenario, reference):
        digest, events = reference
        sim = build_scenario_simulation(scenario)
        sim.state.step_events(77)
        sim.state.step_until(0.4)
        sim.state.step_events(1)
        sim.state.step_until(None)  # the rest in one slice
        assert sim.state.done
        assert records_digest(sim.run_all()) == digest
        assert sim.events_processed == events

    def test_step_until_counts_and_clamps(self, scenario):
        sim = build_scenario_simulation(scenario)
        n = sim.state.step_until(0.25)
        assert n > 0 and sim.events_processed == n
        assert sim.now == 0.25  # idle clock lands on the horizon
        # Horizons past the duration clamp to it.
        sim.state.step_until(sim.duration + 100.0)
        assert sim.state.done and sim.now == sim.duration

    def test_peek_time_is_next_event(self, scenario):
        sim = build_scenario_simulation(scenario)
        first = sim.state.peek_time()
        assert first is not None and first >= 0.0
        sim.state.step_events(1)
        assert sim.state.peek_time() >= first

    def test_run_delegates_to_state(self, scenario):
        sim = build_scenario_simulation(scenario)
        assert isinstance(sim.state, SimState)
        sim.run(0.5)
        assert sim.now == 0.5
        assert not sim.state.done


def pending_keys(sim) -> list:
    """The ``(time, seq)`` keys of every pending event, sorted."""
    return sorted(item[:2] for item in sim._heap)


def slicing_holds(sliced, simulation_cls) -> None:
    """``sliced.cell`` stepped in ``sliced.slices`` on
    ``simulation_cls`` ends as its one-shot run does, and after every
    slice its pending events are those of a twin stepped one event at
    a time to the same count."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios_module, "Simulation", simulation_cls)
        whole, sim, twin = (build_scenario_simulation(sliced.cell)
                            for _ in range(3))
    reference = records_digest(whole.run_all()), whole.events_processed
    state, twin_state = sim.state, twin.state
    cuts = 0
    while not state.done:
        kind, size = sliced.slices[cuts % len(sliced.slices)]
        cuts += 1
        before = sim.events_processed, sim.now
        if kind == "events":
            state.step_events(size)
        else:
            state.step_until(sim.now + size)
        # A slice that moves neither would repeat forever.
        assert (sim.events_processed, sim.now) != before, (cuts, sim.now)
        while twin.events_processed < sim.events_processed:
            assert twin_state.step_events(1) == 1, (cuts, twin.now)
        assert pending_keys(sim) == pending_keys(twin), (cuts, sim.now)
    state.step_until(None)
    assert (records_digest(sim.run_all()), sim.events_processed) == reference


#: :func:`slicing_holds`' fixed example: the 2-hop lot, cut alternately
#: after one event and after 0.05 s.
SLICED_LOT = sliced_cell(RELATION_LINEUPS[0], None, 0,
                         (("events", 1), ("until", 0.05)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(sliced=sliced_cells())
def test_any_slicing_keeps_the_one_shot_run(sliced):
    slicing_holds(sliced, Simulation)


class TestPerfShapes:
    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="perf shape"):
            perf_scenarios("moebius-strip")

    def test_shapes_build_and_run(self):
        for shape in PERF_SHAPES:
            scenarios = perf_scenarios(shape, duration=0.5,
                                       schemes=("cubic",))
            sims = [build_scenario_simulation(s) for s in scenarios]
            for sim in sims:
                sim.run_all()
                assert sim.events_processed > 0


def _mixed_batch() -> list[Scenario]:
    """One cell per kind of thing a batch can hold: both shared-trace
    payload types, no trace, per-link fault streams, a build failure."""
    net = EvalNetwork(bandwidth_mbps=8.0, one_way_ms=8.0)
    common = dict(network=net, duration=0.5, seed=5)
    faulted = dumbbell(bandwidth_mbps=8.0, delay_ms=8.0).with_faults({
        "hop0": (RateBrownout(start=0.1, duration=0.2, factor=0.4),
                 LinkFlapSchedule(period=0.3, down_time=0.04, start=0.15))})
    return [
        Scenario(name="mixed/wifi", flows=("cubic", "bbr"),
                 trace="wifi-walk", **common),
        Scenario(name="mixed/leo", flows=("vivace",), trace="leo-handover",
                 **common),
        Scenario(name="mixed/constant", flows=("copa", "cubic"), **common),
        Scenario(name="mixed/broken", flows=("no-such-scheme",), **common),
        Scenario(name="mixed/faults", flows=("cubic", "vivace"),
                 topology=faulted, **common),
    ]


def _outcome(result) -> tuple:
    """What a cell produced, whoever ran it: a ``BatchCell`` or a
    ``ScenarioResult``."""
    digest = None if result.error else records_digest(result.records)
    return digest, result.events, result.error


class TestBatchRunner:
    """Batched cells == solo cells, bit for bit."""

    @pytest.mark.parametrize("shape", (*PERF_SHAPES, "mixed"))
    def test_batched_cells_match_solo_runs(self, shape, tmp_path):
        scenarios = (_mixed_batch() if shape == "mixed"
                     else perf_scenarios(shape, duration=0.5))
        cells = BatchRunner().run(scenarios)
        assert ([s.name for s, cell in zip(scenarios, cells) if cell.error]
                == ["mixed/broken"] * (shape == "mixed"))
        for scenario, cell in zip(scenarios, cells):
            # A cell that has run keeps its records and event count,
            # not its simulation.
            assert cell.sim is None
            if cell.error is None:
                assert cell.events > 0 and cell.elapsed > 0.0
                assert ((records_digest(cell.records), cell.events)
                        == solo_run(scenario))
            else:  # failed to build: nothing ran
                assert (cell.records, cell.events) == (None, 0)
        # A batch's composition cannot matter: order, neighbours and
        # the dispatch path leave every cell's outcome where it was.
        forwards = [_outcome(cell) for cell in cells]
        backwards = BatchRunner().run(scenarios[::-1])[::-1]
        assert [_outcome(cell) for cell in backwards] == forwards
        alone = [BatchRunner().run([s])[0] for s in scenarios]
        assert [_outcome(cell) for cell in alone] == forwards
        # Auto-sized batches: two cells each in process (uneven for
        # the mixed five), one per task through the pool, the pool with
        # a retry budget and the journalled pool.
        for n_workers, extra in (
                (1, {}), (2, {}),
                (2, {"retry": RetryPolicy(max_attempts=2)}),
                (2, {"checkpoint": tmp_path / "sweep.journal"})):
            result, _ = run_sweep(ParallelRunner(n_workers=n_workers,
                                                 use_cache=False, **extra),
                                  scenarios)
            assert [_outcome(r) for r in result] == forwards, extra

    def test_batched_grid_matches_solo_runs(self):
        scenarios = batched_grid_scenarios(cells=8, duration=0.25)
        cells = BatchRunner().run(scenarios)
        for scenario, cell in zip(scenarios, cells):
            assert cell.error is None
            assert records_digest(cell.records) == solo_run(scenario)[0]

    def test_cells_share_one_frozen_trace(self):
        scenarios = batched_grid_scenarios(cells=4, duration=0.25)
        cells = BatchRunner().build_cells(scenarios)
        traces = {id(link.trace) for cell in cells
                  for link in cell.sim.links if link.trace is not None}
        walks = [link.trace for cell in cells for link in cell.sim.links
                 if isinstance(getattr(link.trace, "values", None),
                               np.ndarray)]
        assert walks, "grid scenarios must use a named array-backed trace"
        # One shared instance across all cells...
        assert len({id(t) for t in walks}) == 1
        # ...frozen read-only before any cell saw it.
        assert not walks[0].values.flags.writeable
        with pytest.raises(ValueError):
            walks[0].values[0] = 1.0
        assert traces  # sanity: the walk set came from real links

    def test_cells_never_share_generators(self):
        """Every generator reachable from a built batch -- engine, link,
        fault -- is stored in exactly one place."""
        holders = generator_holders(_ownership_batch())
        assert shared_generators(holders) == []
        # Four cells' engine and hop-dither streams, a loss stream per
        # link (two lot hops, the lossy link, two wifi links) and the
        # faulted hop's two; a path without reverse links has none.
        assert Counter(name for names in holders.values()
                       for name in names) == {
            "Simulation.rng": 4, "Simulation._hop_rng": 4, "Link.rng": 5,
            "FaultProcess._flap_rng": 1, "FaultProcess._loss_rng": 1}

    # Planted defects, on the live build path: one generator stored
    # twice must fail the walker, naming both holders.

    def test_planted_hop_rng_alias_names_both_holders(self, monkeypatch):
        def planted(scenario, trace_cache):
            sim = build_scenario_simulation(scenario, trace_cache)
            sim._hop_rng = sim.rng
            return sim

        monkeypatch.setattr(batch_module, "build_scenario_simulation", planted)
        messages = " | ".join(shared_generators(
            generator_holders(_ownership_batch())))
        assert "Simulation._hop_rng, Simulation.rng" in messages

    def test_planted_fault_rng_alias_names_both_holders(self, monkeypatch):
        init = FaultProcess.__init__

        def planted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._loss_rng = self._flap_rng

        monkeypatch.setattr(FaultProcess, "__init__", planted)
        assert shared_generators(generator_holders(_ownership_batch())) == [
            "Generator held by FaultProcess._flap_rng, "
            "FaultProcess._loss_rng"]

    def test_mid_batch_failure_spares_siblings(self):
        good = perf_scenarios("single-bottleneck", duration=0.3)[0]
        bad = Scenario(name="perf/broken", network=EvalNetwork(),
                       flows=("no-such-scheme",), duration=0.3, suite="perf")
        cells = BatchRunner().run([good, bad, good])
        assert cells[1].error is not None
        assert "no-such-scheme" in cells[1].error
        assert cells[1].records is None
        for cell in (cells[0], cells[2]):
            assert cell.error is None
            assert records_digest(cell.records) == solo_run(good)[0]


#: Never traversed (and never reported): code/metadata objects shared
#: by construction, not by the batch layer.
_PRUNE_TYPES = (type, types.ModuleType, types.FunctionType,
                types.BuiltinFunctionType, types.CodeType,
                types.GetSetDescriptorType, types.MemberDescriptorType,
                types.MappingProxyType, property, staticmethod, classmethod)

#: Traversed but never reported: immutable values (or pure references
#: whose targets are themselves walked, like tuples and bound methods).
_INERT_TYPES = (str, bytes, bool, int, float, complex, type(None),
                frozenset, range, slice, tuple, types.MethodType,
                np.dtype, np.generic)


def _reachable(obj) -> dict:
    """``{id: object}`` for everything reachable from ``obj``."""
    seen: dict = {}
    stack = [obj]
    while stack:
        cur = stack.pop()
        if id(cur) in seen or isinstance(cur, _PRUNE_TYPES):
            continue
        seen[id(cur)] = cur
        stack.extend(gc.get_referents(cur))
    return seen


def _is_frozen_dataclass(obj) -> bool:
    params = getattr(type(obj), "__dataclass_params__", None)
    return params is not None and params.frozen


def _is_frozen_trace(obj) -> bool:
    """A trace with nothing left to mutate: array payloads read-only,
    no list payloads."""
    return isinstance(obj, BandwidthTrace) and not any(
        value.flags.writeable if isinstance(value, np.ndarray)
        else isinstance(value, list) for value in vars(obj).values())


def shared_mutables(states) -> list[str]:
    """One message per kind of mutable object reachable from >= 2 of
    ``states`` (anything rooting a cell's object graph works)."""
    graphs = [_reachable(state) for state in states]
    counts: dict = {}
    for graph in graphs:
        for obj_id in graph:
            counts[obj_id] = counts.get(obj_id, 0) + 1
    shared = [(next(g[obj_id] for g in graphs if obj_id in g), n)
              for obj_id, n in counts.items() if n >= 2]
    # A justified instance's attribute ``__dict__`` is the same asset,
    # not an independent sharing channel.
    exempt = {id(vars(obj)) for obj, _ in shared if hasattr(obj, "__dict__")
              and (_is_frozen_dataclass(obj) or _is_frozen_trace(obj))}
    messages = set()
    for obj, n in shared:
        if id(obj) in exempt or isinstance(obj, _INERT_TYPES) \
                or _is_frozen_dataclass(obj) or _is_frozen_trace(obj):
            continue
        if isinstance(obj, np.ndarray) and not obj.flags.writeable:
            continue
        kind = f"{type(obj).__module__}.{type(obj).__qualname__}"
        if isinstance(obj, (np.random.Generator, np.random.BitGenerator,
                            np.random.SeedSequence)):
            messages.add(f"{kind} is reachable from {n} cells; every "
                         f"generator must derive from its own cell's "
                         f"cell-indexed stream")
        else:
            messages.add(f"mutable {kind} is reachable from {n} cells")
    return sorted(messages)


def _ownership_batch() -> list:
    """Built (never run) cells holding every kind of generator owner:
    a faulted parking lot with an Orca cross flow, a lossy single link
    carrying MOCC and Aurora, and a wifi-walk pair."""
    net = EvalNetwork(bandwidth_mbps=8.0, one_way_ms=8.0)
    lot = parking_lot(2, bandwidth_mbps=8.0, delay_ms=8.0).with_faults({
        "hop0": (LinkFlapSchedule(period=0.3, down_time=0.04, start=0.1,
                                  jitter=0.02),
                 GilbertElliottLoss(p_enter_bad=0.02, p_exit_bad=0.3))})
    common = dict(network=net, duration=0.5, seed=5)
    scenarios = [
        Scenario(name="owners/lot", topology=lot,
                 flows=(FlowDef("cubic", path="through"),
                        FlowDef("orca", path="cross0",
                                agent=MoccAgent(weight_dim=0, seed=1)),
                        FlowDef("bbr", path="cross1")), **common),
        Scenario(name="owners/lossy",
                 flows=(FlowDef("mocc", weights=(0.6, 0.3, 0.1),
                                agent=MoccAgent(seed=2)),
                        FlowDef("aurora",
                                agent=MoccAgent(weight_dim=0, seed=3))),
                 network=EvalNetwork(bandwidth_mbps=8.0, one_way_ms=8.0,
                                     loss_rate=0.02),
                 duration=0.5, seed=5),
        *(Scenario(name=f"owners/wifi{seed}", flows=("cubic", "bbr"),
                   trace="wifi-walk", network=net, duration=0.5, seed=seed)
          for seed in (5, 6)),
    ]
    cells = BatchRunner().build_cells(scenarios)
    assert [cell.error for cell in cells] == [None] * len(scenarios)
    return [cell.sim for cell in cells]


def _slot_names(cls):
    for klass in cls.__mro__:
        slots = vars(klass).get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in ("__dict__", "__weakref__"):
                yield name


def generator_holders(roots) -> dict:
    """``{id: [holder, ...]}`` for every ``np.random.Generator``
    reachable from ``roots``: each attribute (``Type.attr``), dict value
    (``dict[key]``) or sequence slot (``Type[i]``) that stores it."""
    graph: dict = {}
    for root in roots:
        graph.update(_reachable(root))
    holders = {obj_id: [] for obj_id, obj in graph.items()
               if isinstance(obj, np.random.Generator)}
    # An instance's attribute dict is named through its instance.
    instance_dicts = {id(vars(obj)) for obj in graph.values()
                      if hasattr(obj, "__dict__")}
    for obj in graph.values():
        owner = type(obj).__qualname__
        if isinstance(obj, dict):
            if id(obj) in instance_dicts:
                continue
            stored = ((f"dict[{key!r}]", value) for key, value in obj.items())
        elif isinstance(obj, (list, tuple)):
            stored = ((f"{owner}[{i}]", value) for i, value in enumerate(obj))
        else:
            attrs = dict(vars(obj)) if hasattr(obj, "__dict__") else {}
            attrs.update((name, getattr(obj, name)) for name in
                         _slot_names(type(obj)) if hasattr(obj, name))
            stored = ((f"{owner}.{name}", value)
                      for name, value in attrs.items())
        for name, value in stored:
            if id(value) in holders:
                holders[id(value)].append(name)
    return holders


def shared_generators(holders) -> list[str]:
    """One message per generator not stored in exactly one place."""
    return sorted(f"Generator held by {', '.join(sorted(names))}"
                  for names in holders.values() if len(names) != 1)


class _FakeState:
    def __init__(self, **attrs):
        self.__dict__.update(attrs)
        self.own = {"per-cell": []}  # mutable but unshared


def _probe_scenarios(trace: str) -> list[Scenario]:
    """Two classical-scheme cells sharing one named trace: cheap to
    build (no zoo resolution, nothing is run) yet exercising the exact
    sharing path -- make_trace(cache=...) -- batches use."""
    return ScenarioSuite(
        name="isolation-probe", lineups=[("cubic", "bbr")],
        traces=(trace,), seeds=(0, 1), duration=0.05).expand()


def _probe_findings(trace: str) -> str:
    cells = BatchRunner().build_cells(_probe_scenarios(trace))
    assert [cell.error for cell in cells] == [None, None]
    return " | ".join(shared_mutables([cell.sim.state for cell in cells]))


def walker_accepts_frozen_shared_trace(freeze, trace: str) -> None:
    """The named trace, frozen by ``freeze``, may be shared by cells."""
    frozen = freeze(make_trace(trace))
    assert shared_mutables([_FakeState(trace=frozen),
                            _FakeState(trace=frozen)]) == []


class TestCellIsolation:
    """Batched cells share only frozen assets -- checked on the object
    graphs themselves; nothing declares what may be shared."""

    def test_walker_flags_shared_dict_and_generator(self):
        registry, rng = {"x": [1]}, np.random.default_rng(3)
        messages = " | ".join(shared_mutables(
            [_FakeState(shared=registry, rng=rng),
             _FakeState(shared=registry, rng=rng)]))
        assert "mutable builtins.dict is reachable from 2 cells" in messages
        assert "Generator is reachable from 2 cells" in messages
        assert "cell-indexed stream" in messages

    @pytest.mark.parametrize("trace", trace_names())
    def test_walker_accepts_frozen_shared_trace(self, trace):
        walker_accepts_frozen_shared_trace(freeze_trace, trace)

    @pytest.mark.parametrize("trace", trace_names())
    def test_built_cells_share_no_mutable_object(self, trace):
        assert _probe_findings(trace) == ""

    # Planted defects, on real cells: the batch layer's cell build is
    # wrapped so an outside-loop object reaches every cell.

    def test_planted_shared_generator_is_named(self, monkeypatch):
        rng = np.random.default_rng(3)

        def planted(scenario, trace_cache):
            sim = build_scenario_simulation(scenario, trace_cache)
            sim.rng = rng
            return sim

        monkeypatch.setattr(batch_module, "build_scenario_simulation", planted)
        assert "Generator is reachable from 2 cells" \
            in _probe_findings("wifi-walk")

    @pytest.mark.parametrize("trace", ("wifi-walk", "leo-handover"))
    def test_planted_unfrozen_trace_is_named(self, monkeypatch, trace):
        unfrozen = {trace: make_trace(trace)}  # memoized, never frozen
        monkeypatch.setattr(
            batch_module, "build_scenario_simulation",
            lambda scenario, _cache: build_scenario_simulation(scenario,
                                                               unfrozen))
        assert (f"{type(unfrozen[trace]).__qualname__} is reachable from "
                "2 cells") in _probe_findings(trace)

    def test_named_trace_keys_are_the_parents(self, monkeypatch):
        # Freezing turns a shared trace's lists into tuples; signing
        # builds its own instance and must never see that copy.  The
        # literal is this cell's key at the commit before the change,
        # the source digest (any edit under netsim/ moves it) held and
        # the cache version set to v13: the v12 -> v13 bump moves every
        # key and nothing else.
        monkeypatch.setattr(scenarios_module, "_CODE_DIGEST", "held")
        cell = _probe_scenarios("leo-handover")[0]
        BatchRunner().build_cells([cell])
        assert SCENARIO_CACHE_VERSION == "v13"
        assert cell.fingerprint() == ("b1b8d70d93421de83d75e335c7177654"
                                      "367a43c84924dc33bf9003423f3fc750")


def identity_suite() -> list[Scenario]:
    """Satellite grid: single-bottleneck, parking lot, and churn cells."""
    churn = ChurnSchedule("on-off", gap=0.5, on_time=1.0, period=1.5, skip=1)
    single = ScenarioSuite(
        name="batch-identity/single",
        lineups={"duo": ("cubic", "bbr")},
        churns=(None, churn), duration=2.0, seeds=(3,))
    lot = ScenarioSuite(
        name="batch-identity/lot",
        lineups={"lot": (FlowDef("copa", path="through", label="through"),
                         FlowDef("cubic", path="cross0", label="cross0"),
                         FlowDef("cubic", path="cross1", label="cross1"))},
        topologies=(parking_lot(2, bandwidth_mbps=10.0, delay_ms=5.0),),
        churns=(None, churn), duration=2.0, seeds=(3,))
    return single.expand() + lot.expand()


class TestRunnerDispatchIdentity:
    """Serial == process-parallel == batched, per cell, with per-cell
    accounting and failure isolation through the runner."""

    def test_three_dispatch_modes_agree(self):
        suite = identity_suite()
        # Four cells: one runner per cell in process, one cell per pool
        # task over two workers, and in-process batches of two.
        assert ParallelRunner(n_workers=2)._pick_batch_size(len(suite)) == 1
        assert ParallelRunner(n_workers=1)._pick_batch_size(len(suite)) == 2
        serial = [ParallelRunner(n_workers=1, use_cache=False).run([cell])
                  .results[0] for cell in suite]
        runs = {
            "serial": serial,
            "parallel": ParallelRunner(n_workers=2,
                                       use_cache=False).run(suite).results,
            "batched": ParallelRunner(n_workers=1,
                                      use_cache=False).run(suite).results,
        }
        digests = {
            mode: {r.scenario.name: records_digest(r.records)
                   for r in result}
            for mode, result in runs.items()
        }
        assert digests["serial"] == digests["parallel"] == digests["batched"]
        # Per-cell accounting flows through every dispatch mode.
        for result in runs.values():
            for r in result:
                assert r.events > 0 and r.elapsed > 0.0

    def test_result_rows_carry_events_and_wall(self):
        suite = identity_suite()
        result = ParallelRunner(n_workers=1, use_cache=False).run(suite)
        for row in result.table:
            assert row["events"] > 0
            assert row["wall_s"] > 0.0

    def test_cached_rows_report_zero_events(self, tmp_path):
        suite = identity_suite()
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        first = runner.run(suite)
        assert cache_misses(first) == len(first)
        second = runner.run(suite)
        assert cache_hits(second) == len(second)
        for row in second.table:
            assert row["events"] == 0 and row["wall_s"] == 0.0
        # Cache-served results are bit-identical to the executed ones.
        for a, b in zip(first, second):
            assert records_digest(a.records) == records_digest(b.records)

    def test_batched_failure_names_cell_and_caches_siblings(self, tmp_path):
        good = perf_scenarios("parking-lot", duration=0.3)
        bad = Scenario(name="perf/broken", network=EvalNetwork(),
                       flows=("no-such-scheme",), duration=0.3, suite="perf")
        # Five cells, in-process batches of two: the broken cell shares
        # its batch with good[2].
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        assert runner._pick_batch_size(5) == 2
        with pytest.raises(ScenarioError) as err:
            runner.run(good[:2] + [bad] + good[2:])
        assert err.value.scenario_name == "perf/broken"
        # Every healthy cell, its batch sibling included, completed and
        # cached: a re-run of them is pure hits.
        again = runner.run(good)
        assert cache_hits(again) == len(good)

    def test_auto_batch_size_bounds(self):
        runner = ParallelRunner(n_workers=2)
        assert runner._pick_batch_size(1) == 1
        assert runner._pick_batch_size(6) == 1
        assert runner._pick_batch_size(60) == 10
        assert runner._pick_batch_size(10_000) == runner.MAX_AUTO_BATCH


class TestBatchInterrupts:
    """Interrupts stay surgical.

    A deterministic cell exception is a per-cell error (siblings
    complete and cache); a KeyboardInterrupt is *not* a cell failure
    -- it propagates immediately instead of being recorded as an
    error -- and at the runner level the cells completed before the
    interrupt are already cached, so a resumed run only pays for what
    the interrupt cancelled.
    """

    def _cells(self, duration=0.4):
        return ScenarioSuite(
            name="interrupt", lineups=("cubic", "vegas", "bbr"),
            duration=duration).expand()

    def _interrupt_on_second_cell(self, monkeypatch):
        """Patch ``SimState`` so the second *distinct* state object to
        step raises KeyboardInterrupt (strong refs, so id-reuse after
        gc can never alias two states)."""
        original = SimState.step_until
        seen: list = []

        def interrupting(self, horizon):
            if not any(s is self for s in seen):
                seen.append(self)
                if len(seen) == 2:
                    raise KeyboardInterrupt
            return original(self, horizon)

        monkeypatch.setattr(SimState, "step_until", interrupting)
        return original

    def test_mid_batch_exception_spares_and_caches_siblings(self, tmp_path):
        good = self._cells()
        bad = Scenario(name="interrupt/broken",
                       network=EvalNetwork(), flows=("no-such-scheme",),
                       duration=0.4)
        # Four cells, in-process batches of two: [good0, bad], [good1,
        # good2].
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        with pytest.raises(ScenarioError) as err:
            runner.run([good[0], bad, good[1], good[2]])
        assert err.value.scenario_name == "interrupt/broken"
        # Every healthy cell, the broken one's batch sibling included,
        # completed and cached despite the failure.
        again = runner.run(good)
        assert cache_hits(again) == len(good)

    def test_keyboard_interrupt_is_not_a_cell_error(self, monkeypatch):
        scenarios = self._cells()
        self._interrupt_on_second_cell(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            BatchRunner().run(scenarios)

    def test_interrupted_sweep_keeps_completed_cells_cached(
            self, tmp_path, monkeypatch):
        scenarios = self._cells()
        original = self._interrupt_on_second_cell(monkeypatch)
        # Three cells, in-process batches of one.
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        with pytest.raises(KeyboardInterrupt):
            runner.run(scenarios)
        assert runner.cache.get(scenarios[0].fingerprint()) is not None
        assert runner.cache.get(scenarios[1].fingerprint()) is None
        # Resuming after the interrupt only pays for the cancelled tail.
        monkeypatch.setattr(SimState, "step_until", original)
        resumed = runner.run(scenarios)
        assert cache_hits(resumed) == 1 and cache_misses(resumed) == 2
