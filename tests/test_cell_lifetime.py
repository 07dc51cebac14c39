"""A finished cell is freed by reference counting.

A :class:`~repro.netsim.network.Simulation` holds no reference to
itself: its handler table is a module-level tuple of plain functions
and ``sim.state`` makes a fresh handle on access.  So the moment the
last reference to a cell goes, the cell -- heap of undelivered packets
and all -- is freed, without waiting for Python's cyclic collector;
``BatchRunner.run`` drops each cell's simulation once it has run.

Every check here runs with the collector off: after the last reference
is dropped, a ``weakref`` to each simulation is dead, and a
``gc.collect()`` under ``DEBUG_SAVEALL`` finds no cyclic garbage.  Each
workload runs once before the check, so a first use's imports and
memoised traces are not counted.
"""

import gc
import weakref
from collections import Counter
from pathlib import Path

import repro.eval.batch as batch
from repro.core.agent import MoccAgent
from repro.eval.scenarios import (
    ChurnSchedule,
    FlowDef,
    ScenarioSuite,
    build_scenario_simulation,
)
from repro.netsim import network
from repro.netsim.env import EnvSpec
from repro.netsim.faults import GilbertElliottLoss, LinkFlapSchedule
from repro.netsim.topology import dumbbell_asymmetric, parking_lot
from strategies import PERF_SHAPES, perf_scenarios
from test_engine_invariants import every_kind_simulation

#: The pinned learned-controller checkpoints the perf ledger runs.
ASSETS = Path(__file__).parent.parent / "benchmarks" / "ledger" / "assets"


def freed_by_refcounting(workload) -> None:
    """``workload()`` builds and runs simulations, drops them and
    returns a weakref to each; with the collector off every one must be
    dead, and a collection must find no cyclic garbage."""
    workload()
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        refs = workload()
        alive = sum(ref() is not None for ref in refs)
        gc.collect()
        garbage = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert refs
    assert (alive, dict(garbage.most_common(5))) == (0, {})


def _ran(sim) -> weakref.ref:
    sim.run_all()
    return weakref.ref(sim)


def cells_freed(scenarios) -> None:
    """Each of ``scenarios``, built and run alone, frees itself."""
    freed_by_refcounting(lambda: [_ran(build_scenario_simulation(s))
                                  for s in scenarios])


def every_kind_cell_freed(simulation_cls) -> None:
    """The every-kind scenario on ``simulation_cls`` frees itself."""
    freed_by_refcounting(
        lambda: [_ran(every_kind_simulation(simulation_cls))])


def test_every_kind_cell_is_freed():
    every_kind_cell_freed(network.Simulation)


def test_every_perf_shape_cell_is_freed():
    cells = [s for shape in PERF_SHAPES
             for s in perf_scenarios(shape, duration=1.0)]
    assert len(cells) == 9
    cells_freed(cells)


def test_faulted_churned_and_ack_congested_cells_are_freed():
    lot = parking_lot(2, bandwidth_mbps=6.0, delay_ms=5.0)
    through = {"lot": (FlowDef("cubic", path="through"),
                       FlowDef("bbr", path="cross0"),
                       FlowDef("copa", path="cross1"))}
    faults = {"hop0": (LinkFlapSchedule(period=0.3, down_time=0.05,
                                        start=0.1, jitter=0.02),
                       GilbertElliottLoss(p_enter_bad=0.02, p_exit_bad=0.3,
                                          loss_bad=0.4))}
    suites = (
        ScenarioSuite(name="freed-faulted", lineups=through,
                      topologies=(lot.with_faults(faults),), duration=1.0),
        ScenarioSuite(name="freed-churned", lineups=through,
                      topologies=(lot,),
                      churns=(ChurnSchedule("on-off", gap=0.2, on_time=0.3,
                                            period=0.5, skip=1),),
                      duration=1.5),
        ScenarioSuite(name="freed-ack", lineups={"dl+ul": (
            FlowDef("vivace", path="through"),
            FlowDef("cubic", path="reverse"))},
            topologies=(dumbbell_asymmetric(6.0, delay_ms=5.0,
                                            reverse_bandwidth_mbps=0.3),),
            duration=1.0),
    )
    cells_freed([cell for suite in suites for cell in suite.expand()])


def test_learned_cells_are_freed():
    agents = {name: MoccAgent.load(ASSETS / f"{name}_fast_seed0.npz")
              for name in ("mocc", "aurora_throughput")}
    cells_freed(ScenarioSuite(
        name="freed-learned",
        lineups={"mocc": (FlowDef("mocc", weights=(0.5, 0.3, 0.2),
                                  agent=agents["mocc"]),),
                 "aurora": (FlowDef("aurora-throughput",
                                    agent=agents["aurora_throughput"]),)},
        bandwidths_mbps=(6.0,), duration=1.0).expand())


def test_env_episodes_are_freed():
    """``reset`` frees the previous episode's simulation on the spot."""

    def episodes():
        env = EnvSpec(max_steps=15).build(3)
        refs = []
        for _ in range(3):
            env.reset((1 / 3, 1 / 3, 1 / 3))
            if refs:
                assert refs[-1]() is None
            refs.append(weakref.ref(env._sim))
            done = False
            while not done:
                done = env.step(0.5)[4]
        return refs

    freed_by_refcounting(episodes)


def test_a_batch_drops_each_cell_once_it_has_run(monkeypatch):
    """The cells ``run`` returns are still held; their simulations are
    already gone."""
    refs = []

    def recording(scenario, trace_cache=None):
        sim = build_scenario_simulation(scenario, trace_cache)
        refs.append(weakref.ref(sim))
        return sim

    monkeypatch.setattr(batch, "build_scenario_simulation", recording)
    scenarios = perf_scenarios("parking-lot", duration=0.5)

    def batch_run():
        refs.clear()
        cells = batch.BatchRunner().run(scenarios)
        assert [cell.sim for cell in cells] == [None] * len(scenarios)
        assert all(cell.records for cell in cells)
        assert [ref() for ref in refs] == [None] * len(scenarios)
        return list(refs)

    freed_by_refcounting(batch_run)
