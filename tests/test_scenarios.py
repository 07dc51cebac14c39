"""Tests for declarative scenarios, suites, and the trace registry."""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from dataclasses import field, make_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import simplex_grid
from repro.core.agent import MoccAgent
from repro.config import DEFAULT_TRAINING
from repro.eval.resilience import records_digest
from repro.eval.runner import EvalNetwork, build_competition, scheme_factory
from repro.eval.scenarios import (
    _digest_files,
    _simulation_code_digest,
    ChurnSchedule,
    FlowDef,
    Scenario,
    ScenarioSuite,
    build_scenario_simulation,
    fingerprint_cells,
)
from repro.netsim.faults import (
    BlackoutWindow,
    GilbertElliottLoss,
    LinkFlapSchedule,
    RateBrownout,
)
from repro.netsim.signing import UNSIGNED, Signer
from repro.netsim.topology import (
    LinkDef,
    PathDef,
    TopologySpec,
    dumbbell,
    dumbbell_asymmetric,
    parking_lot,
)
from repro.netsim.traces import (
    ConstantTrace,
    StepTrace,
    make_trace,
    register_trace,
    trace_names,
)
from repro.netsim import traces as traces_module

NET = EvalNetwork(bandwidth_mbps=8.0, one_way_ms=10.0, buffer_bdp=1.0)
#: The pinned learned-controller checkpoints the perf ledger runs.
ASSETS = Path(__file__).parent.parent / "benchmarks" / "ledger" / "assets"


def reregister_trace(name, factory):
    """Register ``factory`` under ``name``, replacing any earlier one."""
    traces_module._TRACE_REGISTRY.pop(name, None)
    register_trace(name, factory)


class TestTraceRegistry:
    def test_builtin_traces_registered(self):
        assert "fig1-step" in trace_names()
        assert isinstance(make_trace("fig1-step"), StepTrace)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown trace"):
            make_trace("no-such-trace")

    def test_duplicate_registration_guard(self):
        register_trace("test-dup", lambda: ConstantTrace(100.0))
        with pytest.raises(ValueError, match="already registered"):
            register_trace("test-dup", lambda: ConstantTrace(200.0))
        reregister_trace("test-dup", lambda: ConstantTrace(300.0))
        assert make_trace("test-dup").pps == 300.0

    def test_factories_return_fresh_instances(self):
        assert make_trace("fig1-step") is not make_trace("fig1-step")


class TestFlowDef:
    def test_coerce_str(self):
        flow = FlowDef.coerce("cubic")
        assert flow.scheme == "cubic" and flow.display_label() == "cubic"

    def test_coerce_passthrough_and_error(self):
        flow = FlowDef("bbr", label="probe")
        assert FlowDef.coerce(flow) is flow
        with pytest.raises(TypeError):
            FlowDef.coerce(42)


class TestScenario:
    def test_named_trace_builds_network(self):
        scenario = Scenario(name="t", network=NET, flows=("cubic",),
                            trace="fig1-step", duration=2.0)
        (link,) = build_scenario_simulation(scenario).links
        assert isinstance(link.trace, StepTrace)
        assert scenario.network.trace is None  # original untouched

    def test_trace_conflict_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            Scenario(name="t", flows=("cubic",), trace="fig1-step",
                     network=EvalNetwork(trace=ConstantTrace(100.0)))

    def test_fingerprint_ignores_name_and_suite(self):
        a = Scenario(name="a", suite="s1", network=NET, flows=("cubic",))
        b = Scenario(name="b", suite="s2", network=NET, flows=("cubic",))
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_sensitive_to_content(self):
        base = Scenario(name="x", network=NET, flows=("cubic",))
        prints = {
            base.fingerprint(),
            Scenario(name="x", network=NET, flows=("cubic",), seed=1).fingerprint(),
            Scenario(name="x", network=NET, flows=("cubic",), duration=9.0).fingerprint(),
            Scenario(name="x", network=NET, flows=("vegas",)).fingerprint(),
            Scenario(name="x", network=NET, flows=("cubic",),
                     trace="fig1-step").fingerprint(),
        }
        assert len(prints) == 5

    def test_fingerprint_tracks_named_trace_content(self):
        register_trace("fp-trace", lambda: ConstantTrace(100.0))
        scenario = Scenario(name="x", network=NET, flows=("cubic",),
                            trace="fp-trace")
        before = scenario.fingerprint()
        # Re-registering the same name with different content must
        # invalidate cached results for scenarios using it.
        reregister_trace("fp-trace", lambda: ConstantTrace(200.0))
        assert scenario.fingerprint() != before

    def test_live_agent_signatures_differ_by_parameters(self):
        a1 = MoccAgent(DEFAULT_TRAINING, seed=1)
        a2 = MoccAgent(DEFAULT_TRAINING, seed=2)
        fp = lambda agent: Scenario(
            name="x", network=NET, flows=(FlowDef(
                "mocc", weights=(0.5, 0.3, 0.2), agent=agent),)).fingerprint()
        assert fp(a1) == fp(a1)
        assert len({fp(a1), fp(a2), fp(None)}) == 3

    @pytest.mark.parametrize("scheme", ["mocc", "aurora", "orca"])
    def test_flow_seed_shapes_no_result(self, scheme):
        """Deployed policies draw nothing, so ``FlowDef.seed`` (kept for
        the frozen ledger) moves no bit of a learned flow."""
        agent = MoccAgent(DEFAULT_TRAINING, weight_dim=3 if scheme == "mocc"
                          else 0, seed=2)
        weights = (0.6, 0.3, 0.1) if scheme == "mocc" else None
        digests = {records_digest(build_scenario_simulation(Scenario(
            name="seeded", network=NET, duration=2.0, seed=3,
            flows=(FlowDef(scheme, weights=weights, agent=agent, seed=seed),),
        )).run_all()) for seed in (None, 7)}
        assert len(digests) == 1

    def test_run_matches_legacy_single_flow(self):
        scenario = Scenario(name="parity", network=NET, flows=("cubic",),
                            duration=4.0, seed=3)
        record = build_scenario_simulation(scenario).run_all()[0]
        (legacy,) = build_competition([scheme_factory("cubic", NET, seed=3)],
                                      NET, duration=4.0, seed=3).run_all()
        assert record.mean_throughput_pps == legacy.mean_throughput_pps
        assert record.mean_rtt == legacy.mean_rtt
        assert record.loss_rate == legacy.loss_rate

    def test_run_matches_legacy_competition(self):
        scenario = Scenario(
            name="parity2", network=NET,
            flows=(FlowDef("cubic", start=0.0), FlowDef("vegas", start=2.0)),
            duration=6.0, seed=5)
        records = build_scenario_simulation(scenario).run_all()
        legacy = build_competition(
            [scheme_factory("cubic", NET, seed=5), scheme_factory("vegas", NET, seed=5)],
            NET, duration=6.0, start_times=[0.0, 2.0], seed=5).run_all()
        for mine, theirs in zip(records, legacy):
            assert mine.mean_throughput_pps == theirs.mean_throughput_pps

    def test_rate_frac_overrides_initial_rate(self):
        scenario = Scenario(name="r", network=NET,
                            flows=(FlowDef("bbr", rate_frac=0.5),), duration=1.0)
        # Equivalent hand-built controller: BBR at half the bottleneck.
        record = build_scenario_simulation(scenario).run_all()[0]
        (legacy,) = build_competition([scheme_factory(
            "bbr", NET, seed=0, initial_rate=NET.bottleneck_pps / 2)],
            NET, duration=1.0, seed=0).run_all()
        assert record.mean_throughput_pps == legacy.mean_throughput_pps


class TestFingerprintCells:
    """The sweep-level entry point: shared sub-signatures are computed
    once per call, the keys are exactly the per-cell ones, and nothing
    outlives the call."""

    @staticmethod
    def _mixed_cells(trace: str, agent) -> list:
        base = dumbbell(bandwidth_mbps=8.0)
        traced = replace(base, name="traced", links=tuple(
            replace(ld, trace=trace) for ld in base.links))
        weights = (0.5, 0.3, 0.2)
        cells = ScenarioSuite(
            name="named", lineups=("cubic", ("bbr", "vegas")),
            traces=(None, trace, "fig1-step"), seeds=(0, 1),
            duration=1.0).expand()
        flap = {"hop0": LinkFlapSchedule(period=0.8, down_time=0.05)}
        cells += ScenarioSuite(
            name="topo", lineups=(("cubic", "bbr"),),
            topologies=(base, base.with_faults(flap, name="base-flap"),
                        traced, traced.with_faults(flap, name="traced-flap")),
            churns=(None, ChurnSchedule(gap=0.2)), duration=1.0).expand()
        cells += ScenarioSuite(
            name="agents", lineups={
                "none": (FlowDef("mocc", weights=weights),),
                "live": (FlowDef("mocc", weights=weights, agent=agent),
                         FlowDef("cubic", start=0.5))},
            traces=(None, trace), seeds=(0, 1), duration=1.0).expand()
        return cells

    def test_matches_per_cell_fingerprints_on_mixed_cells(self):
        register_trace("fpc-mixed", lambda: ConstantTrace(150.0))
        cells = self._mixed_cells("fpc-mixed",
                                  MoccAgent(DEFAULT_TRAINING, seed=3))
        keys = fingerprint_cells(cells)
        assert keys == [c.fingerprint() for c in cells]
        assert len(set(keys)) == len(cells)
        assert fingerprint_cells(iter(cells[:3])) == keys[:3]
        assert fingerprint_cells([]) == []

    def test_reregistered_trace_changes_keys_on_next_call(self):
        reregistered_trace_changes_keys()

    def test_in_place_agent_update_changes_keys_on_next_call(self):
        in_place_agent_update_changes_keys()

    @classmethod
    def _process_cells(cls) -> list:
        reregister_trace("fpc-proc", lambda: ConstantTrace(150.0))
        return cls._mixed_cells("fpc-proc",
                                MoccAgent(DEFAULT_TRAINING, seed=3))

    @staticmethod
    def _keys_digest(cells) -> str:
        keys = fingerprint_cells(cells)
        return hashlib.sha256("\n".join(keys).encode()).hexdigest()

    def test_keys_do_not_depend_on_the_process(self):
        # Cache reuse across runs needs keys that are a function of the
        # cell alone: not of hash randomisation, of object ids, or of
        # anything a signing pass leaves on the cells.
        cells = self._process_cells()
        assert len(cells) == 28
        pickled = [pickle.dumps(c) for c in cells]
        digest = self._keys_digest(cells)
        assert [pickle.dumps(c) for c in cells] == pickled
        here = Path(__file__).parent
        script = (f"import sys; sys.path.insert(0, {str(here)!r})\n"
                  "from test_scenarios import TestFingerprintCells as T\n"
                  "print(T._keys_digest(T._process_cells()))\n")
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, timeout=60,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": str(here.parent / "src")})
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == digest, f"PYTHONHASHSEED={seed}"


def reregistered_trace_changes_keys() -> None:
    """A signing pass keeps nothing: a trace re-registered between two
    calls changes the keys of exactly the cells that use it."""
    reregister_trace("fpc-rereg", lambda: ConstantTrace(100.0))
    cells = TestFingerprintCells._mixed_cells(
        "fpc-rereg", MoccAgent(DEFAULT_TRAINING, seed=3))
    before = fingerprint_cells(cells)
    reregister_trace("fpc-rereg", lambda: ConstantTrace(200.0))
    after = fingerprint_cells(cells)
    uses = [c.trace == "fpc-rereg" or (
        c.topology is not None
        and any(ld.trace == "fpc-rereg" for ld in c.topology.links))
        for c in cells]
    assert any(uses) and not all(uses)
    assert [a != b for a, b in zip(after, before)] == uses


def in_place_agent_update_changes_keys() -> None:
    """A live agent adapted in place between two calls changes the keys
    of exactly the cells that hold it."""
    reregister_trace("fpc-adapt", lambda: ConstantTrace(100.0))
    agent = MoccAgent(DEFAULT_TRAINING, seed=3)
    cells = TestFingerprintCells._mixed_cells("fpc-adapt", agent)
    before = fingerprint_cells(cells)
    # Online adaptation writes parameters in place: same object,
    # different model.
    next(iter(agent.model.parameters().values())).value += 1.0
    after = fingerprint_cells(cells)
    uses = [any(f.agent is agent for f in c.flows) for c in cells]
    assert any(uses) and not all(uses)
    assert [a != b for a, b in zip(after, before)] == uses


def pinned_cells() -> list:
    """The mixed cells, a Fig. 6-style MOCC traversal (ten weight
    vectors plus Aurora, over 3 bandwidths x 2 RTTs) and a 256-cell
    wifi-walk grid: 350 cells."""
    reregister_trace("fpc-pin", lambda: ConstantTrace(150.0))
    cells = TestFingerprintCells._mixed_cells(
        "fpc-pin", MoccAgent(DEFAULT_TRAINING, seed=3))
    mocc = MoccAgent(DEFAULT_TRAINING, seed=4)
    lineups = {f"w{i}": (FlowDef("mocc", weights=tuple(map(float, w)),
                                 agent=mocc),)
               for i, w in enumerate(simplex_grid(6))}
    lineups["aurora"] = (FlowDef("aurora-throughput", agent=MoccAgent(
        DEFAULT_TRAINING, weight_dim=0, seed=5)),)
    cells += ScenarioSuite(name="pin-mocc", lineups=lineups,
                           bandwidths_mbps=(3.0, 6.0, 12.0),
                           rtts_ms=(20.0, 40.0), duration=3.0).expand()
    for scheme in ("cubic", "bbr", "copa", "vivace"):
        cells += ScenarioSuite(name=f"pin-grid/{scheme}", lineups=[scheme],
                               traces=("wifi-walk",), seeds=tuple(range(64)),
                               duration=0.25).expand()
    return cells


#: sha256 of the JSON signatures of :func:`pinned_cells`, one signing
#: pass per cell.  The code digest is not in a signature, so this moves
#: only when what a spec signs does.
PINNED_SIGNATURES = (
    "848d0116094f0e3fa261e12242eccda9fbc682e07db245d2b3bc954e220c67fe")


def signatures_are_pinned(signer_cls) -> None:
    """``signer_cls`` signs every pinned cell as the pin says."""
    cells = pinned_cells()
    assert len(cells) == 350
    body = json.dumps([signer_cls().sign(cell) for cell in cells])
    assert hashlib.sha256(body.encode()).hexdigest() == PINNED_SIGNATURES


def test_signatures_are_pinned():
    signatures_are_pinned(Signer)


_HOP = LinkDef("hop0")
_THROUGH = PathDef("through", ("hop0",))


def _on_link(fault) -> Scenario:
    topology = TopologySpec("t", (LinkDef("hop0", faults=(fault,)),),
                            (_THROUGH,))
    return Scenario(name="x", network=NET, flows=("cubic",),
                    topology=topology)


#: Every class a fingerprint signs, with how an instance of (a subclass
#: of) it is placed inside a scenario.
SIGNED_CLASSES = {
    Scenario: lambda cls, **extra: cls(
        name="x", network=NET, flows=("cubic",), **extra),
    EvalNetwork: lambda cls, **extra: Scenario(
        name="x", network=cls(bandwidth_mbps=8.0, **extra), flows=("cubic",)),
    FlowDef: lambda cls, **extra: Scenario(
        name="x", network=NET, flows=(cls("cubic", **extra),)),
    LinkDef: lambda cls, **extra: Scenario(
        name="x", network=NET, flows=("cubic",), topology=TopologySpec(
            "t", (cls("hop0", **extra),), (_THROUGH,))),
    PathDef: lambda cls, **extra: Scenario(
        name="x", network=NET, flows=("cubic",), topology=TopologySpec(
            "t", (_HOP,), (cls("through", ("hop0",), **extra),))),
    TopologySpec: lambda cls, **extra: Scenario(
        name="x", network=NET, flows=("cubic",),
        topology=cls("t", (_HOP,), (_THROUGH,), **extra)),
    LinkFlapSchedule: lambda cls, **extra: _on_link(
        cls(period=1.0, down_time=0.1, **extra)),
    GilbertElliottLoss: lambda cls, **extra: _on_link(
        cls(p_enter_bad=0.1, p_exit_bad=0.5, **extra)),
    RateBrownout: lambda cls, **extra: _on_link(
        cls(start=0.0, duration=1.0, factor=0.5, **extra)),
    BlackoutWindow: lambda cls, **extra: _on_link(
        cls(start=0.0, duration=1.0, **extra)),
}


def _with_extra_field(cls, **field_kwargs):
    """A subclass declaring one more field -- and nothing else: no
    signature method, no list entry, no signing code."""
    return make_dataclass(
        f"Extra{cls.__name__}",
        [("extra", int, field(default=0, **field_kwargs))],
        bases=(cls,), frozen=True)


class TestFieldDrivenSignatures:
    """Every field reaches the key by construction: the defect the
    deleted coverage rules policed from outside, planted directly."""

    @pytest.mark.parametrize("cls", SIGNED_CLASSES, ids=lambda c: c.__name__)
    def test_new_field_on_a_subclass_changes_the_fingerprint(self, cls):
        place, sub = SIGNED_CLASSES[cls], _with_extra_field(cls)
        assert place(sub, extra=1).fingerprint() \
            != place(sub, extra=2).fingerprint()
        assert place(sub, extra=1).fingerprint() \
            == place(sub, extra=1).fingerprint()

    @pytest.mark.parametrize("cls", SIGNED_CLASSES, ids=lambda c: c.__name__)
    def test_opted_out_field_does_not(self, cls):
        place = SIGNED_CLASSES[cls]
        sub = _with_extra_field(cls, metadata=UNSIGNED)
        assert place(sub, extra=1).fingerprint() \
            == place(sub, extra=2).fingerprint()

    def test_new_network_field_stays_hashed_under_a_topology(self):
        """Only the axes a topology is declared to supersede leave the
        key; a field added to EvalNetwork later does not."""
        sub = _with_extra_field(EvalNetwork)
        fp = lambda **kw: Scenario(
            name="x", network=sub(**kw), flows=("cubic",),
            topology=parking_lot(2)).fingerprint()
        assert fp(extra=1) != fp(extra=2)
        assert fp(extra=1) == fp(extra=1, bandwidth_mbps=40.0)

    def test_omitting_an_unknown_field_is_an_error(self):
        with pytest.raises(ValueError, match="no field"):
            Signer().sign(NET, omit=("bandwidth",))

    def test_value_without_a_form_is_refused_not_guessed(self):
        sub = make_dataclass("Odd", [("knob", object, field(default=None))],
                             bases=(EvalNetwork,), frozen=True)
        with pytest.raises(TypeError, match="canonical"):
            Signer().sign(sub(knob={"a": 1}))

    def test_shared_spec_is_signed_once_per_pass(self):
        signer, topology = Signer(), parking_lot(2)
        assert signer.sign(topology) is signer.sign(topology)
        assert signer.sign(topology) == Signer().sign(parking_lot(2))


class TestChurnSchedule:
    def test_staggered_windows(self):
        churn = ChurnSchedule("staggered", gap=3.0, offset=1.0)
        assert churn.windows(3, 20.0) == [(1.0, float("inf")),
                                          (4.0, float("inf")),
                                          (7.0, float("inf"))]

    def test_departures_windows(self):
        churn = ChurnSchedule("departures", gap=5.0)
        assert churn.windows(2, 20.0) == [(0.0, 20.0), (0.0, 15.0)]

    def test_on_off_windows_default_on_time(self):
        churn = ChurnSchedule("on-off", gap=4.0)
        assert churn.windows(2, 20.0) == [(0.0, 4.0), (4.0, 8.0)]

    def test_skip_leaves_leading_flows_alone(self):
        churn = ChurnSchedule("on-off", gap=4.0, on_time=6.0, skip=1)
        flows = (FlowDef("bbr"), FlowDef("cubic"), FlowDef("cubic"))
        out = churn.apply(flows, 20.0)
        assert out[0] == flows[0]
        assert (out[1].start, out[1].stop) == (0.0, 6.0)
        assert (out[2].start, out[2].stop) == (4.0, 10.0)

    def test_scenario_applies_churn_to_flows(self):
        scenario = Scenario(name="c", network=NET,
                            flows=("cubic", "cubic"), duration=10.0,
                            churn=ChurnSchedule("staggered", gap=2.0))
        assert [f.start for f in scenario.flows] == [0.0, 2.0]

    def test_invalid_kind_and_params(self):
        with pytest.raises(ValueError, match="unknown churn kind"):
            ChurnSchedule("bursty")
        with pytest.raises(ValueError):
            ChurnSchedule(gap=-1.0)
        with pytest.raises(ValueError):
            ChurnSchedule("on-off", on_time=0.0)

    def test_label_is_stable(self):
        assert ChurnSchedule("on-off", gap=3.0, on_time=4.0, skip=1).label() \
            == "on-off-g3-on4-s1"
        assert ChurnSchedule("on-off", gap=3.0, on_time=2.0,
                             period=8.0).label() == "on-off-g3-on2-p8"


class TestPeriodicChurn:
    def test_periodic_windows_repeat_until_duration(self):
        churn = ChurnSchedule("on-off", gap=2.0, on_time=1.5, period=5.0)
        wins = churn.all_windows(2, 12.0)
        assert wins[0] == [(0.0, 1.5), (5.0, 6.5), (10.0, 11.5)]
        assert wins[1] == [(2.0, 3.5), (7.0, 8.5)]
        # windows() keeps its single-window contract: the first repeat.
        assert churn.windows(2, 12.0) == [(0.0, 1.5), (2.0, 3.5)]

    def test_apply_expands_repeats_into_fresh_sessions(self):
        churn = ChurnSchedule("on-off", gap=1.0, offset=1.0, on_time=2.0,
                              period=6.0, skip=1)
        flows = (FlowDef("bbr", label="dl"), FlowDef("cubic", label="ul"))
        out = churn.apply(flows, 14.0)
        assert out[0] == flows[0]  # skipped flow untouched
        churned = out[1:]
        assert [(f.start, f.stop) for f in churned] == \
            [(1.0, 3.0), (7.0, 9.0), (13.0, 15.0)]
        assert [f.display_label() for f in churned] == ["ul", "ul~r1", "ul~r2"]
        assert all(f.scheme == "cubic" for f in churned)

    def test_non_periodic_apply_shape_unchanged(self):
        churn = ChurnSchedule("on-off", gap=2.0, on_time=3.0)
        flows = (FlowDef("cubic"), FlowDef("cubic"))
        assert len(churn.apply(flows, 10.0)) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="only applies to on-off"):
            ChurnSchedule("staggered", period=5.0)
        with pytest.raises(ValueError, match="period must be positive"):
            ChurnSchedule("on-off", period=0.0)
        with pytest.raises(ValueError, match="exceed period"):
            ChurnSchedule("on-off", period=2.0, on_time=3.0)

    def test_scenario_runs_repeating_sessions(self):
        scenario = Scenario(
            name="rep", network=NET, flows=("bbr", "cubic"), duration=10.0,
            churn=ChurnSchedule("on-off", gap=0.0, on_time=2.0, period=4.0,
                                skip=1))
        # bbr persists; cubic gets sessions [0,2), [4,6), [8,10).
        assert len(scenario.flows) == 4
        records = build_scenario_simulation(scenario).run_all()
        assert len(records) == 4
        session = records[2]  # cubic's second session
        assert session.records[0].start >= 4.0
        assert all(s.end <= 10.0 for s in session.records)
        assert session.mean_throughput_pps > 0


class TestTopologyScenarios:
    def test_flow_path_requires_topology(self):
        with pytest.raises(ValueError, match="need a topology"):
            Scenario(name="t", network=NET,
                     flows=(FlowDef("cubic", path="through"),))

    def test_unknown_path_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown path"):
            Scenario(name="t", network=NET, topology=parking_lot(2),
                     flows=(FlowDef("cubic", path="cross9"),))

    def test_topology_and_trace_conflict(self):
        with pytest.raises(ValueError, match="their own traces"):
            Scenario(name="t", network=NET, topology=dumbbell(),
                     flows=("cubic",), trace="fig1-step")

    def test_dumbbell_topology_matches_single_link_network(self):
        """A single-link cell and the dumbbell spelling out its network
        give the same bits: every record and the event count, over wire
        loss x BDP and packet buffers x every named trace x heuristic
        line-ups x seeds, plus a learned MOCC and Aurora cell starting
        at a fraction of capacity."""
        cells = ScenarioSuite(
            name="parity", lineups={"duo": ("cubic", "bbr"),
                                    "trio": ("copa", "vivace", "vegas")},
            bandwidths_mbps=(8.0,), losses=(0.0, 0.02), buffers=(1.5, 12),
            traces=(None,) + trace_names(), seeds=(3, 4),
            duration=1.0).expand()
        agents = {name: MoccAgent.load(ASSETS / f"{name}_fast_seed0.npz")
                  for name in ("mocc", "aurora_throughput")}
        cells += ScenarioSuite(
            name="parity-learned",
            lineups={"mocc": (FlowDef("mocc", weights=(0.5, 0.3, 0.2),
                                      agent=agents["mocc"], rate_frac=0.6),),
                     "aurora": (FlowDef("aurora-throughput",
                                        agent=agents["aurora_throughput"],
                                        rate_frac=0.6),)},
            bandwidths_mbps=(6.0,), duration=2.0, seeds=(5,)).expand()
        for cell in cells:
            net = cell.network
            twin = replace(cell, trace=None, topology=dumbbell(
                net.bandwidth_mbps, net.one_way_ms, net.buffer_bdp,
                net.queue_packets, net.loss_rate, cell.trace))
            # The single-link cell runs on exactly this spec.
            assert net.topology(cell.trace) == twin.topology, cell.name
            runs = [build_scenario_simulation(c) for c in (cell, twin)]
            single, spec = [(records_digest(sim.run_all()),
                             sim.events_processed) for sim in runs]
            assert single == spec, cell.name

    def test_fingerprint_sensitive_to_topology_content(self):
        base = Scenario(name="x", network=NET, flows=("cubic",),
                        topology=parking_lot(2))
        prints = {
            base.fingerprint(),
            Scenario(name="x", network=NET, flows=("cubic",),
                     topology=parking_lot(3)).fingerprint(),
            Scenario(name="x", network=NET, flows=("cubic",),
                     topology=parking_lot(2, bandwidth_mbps=9.0)).fingerprint(),
            Scenario(name="x", network=NET, flows=("cubic",),
                     topology=parking_lot(2, delay_ms=5.0)).fingerprint(),
            Scenario(name="x", network=NET, flows=("cubic",),
                     topology=parking_lot(2, trace="fig1-step")).fingerprint(),
            Scenario(name="x", network=NET,
                     flows=(FlowDef("cubic", path="cross0"),),
                     topology=parking_lot(2)).fingerprint(),
        }
        assert len(prints) == 6

    def test_fingerprint_ignores_topology_rename(self):
        a = parking_lot(2)
        b = parking_lot(2, name="same-shape-other-name")
        fp = lambda t: Scenario(name="x", network=NET, flows=("cubic",),
                                topology=t).fingerprint()
        assert fp(a) == fp(b)

    def test_fingerprint_sensitive_to_churn_schedule(self):
        fp = lambda churn: Scenario(
            name="x", network=NET, flows=("cubic", "cubic"), duration=10.0,
            churn=churn).fingerprint()
        assert len({fp(None),
                    fp(ChurnSchedule("staggered", gap=2.0)),
                    fp(ChurnSchedule("staggered", gap=3.0)),
                    fp(ChurnSchedule("on-off", gap=2.0))}) == 4

    def test_fingerprint_ignores_superseded_network_axes(self):
        """With a topology, the single-link bandwidth axis is inert and
        must not fork cache entries."""
        other = EvalNetwork(bandwidth_mbps=40.0, one_way_ms=5.0)
        fp = lambda net: Scenario(name="x", network=net, flows=("cubic",),
                                  topology=parking_lot(2)).fingerprint()
        assert fp(NET) == fp(other)

    def test_parking_lot_run_produces_per_path_records(self):
        scenario = Scenario(
            name="pl", network=NET, topology=parking_lot(2, bandwidth_mbps=8.0),
            flows=(FlowDef("bbr", path="through"),
                   FlowDef("cubic", path="cross0"),
                   FlowDef("cubic", path="cross1")),
            duration=4.0, seed=1)
        records = build_scenario_simulation(scenario).run_all()
        assert len(records) == 3
        # through crosses two 10 ms hops; cross flows see one.
        assert records[0].base_rtt == pytest.approx(0.04)
        assert records[1].base_rtt == pytest.approx(0.02)
        assert all(r.mean_throughput_pps > 0 for r in records)


def trace_axis_under_a_topology_rejected(suite_cls) -> None:
    """A spec's links carry their own traces: a named trace beside
    it used to be dropped, leaving differently named cells with one
    fingerprint and one result."""
    for traces, topologies in (((None, "wifi-walk"), (parking_lot(2),)),
                               (("fig1-step",), (None, dumbbell()))):
        with pytest.raises(ValueError, match="traces axis"):
            suite_cls(name="ts", lineups=("cubic",), traces=traces,
                      topologies=topologies)
    # Either axis alone, or a constant link beside a spec, is fine.
    suite_cls(name="ok", lineups=("cubic",), traces=(None,),
              topologies=(None, parking_lot(2)))


class TestScenarioSuite:
    def test_grid_size_and_names(self):
        suite = ScenarioSuite(name="grid", lineups=("cubic", "vegas"),
                              bandwidths_mbps=(5.0, 10.0), losses=(0.0, 0.01),
                              seeds=(0, 1), duration=1.0)
        scenarios = suite.expand()
        assert len(scenarios) == len(suite) == 16
        assert len({s.name for s in scenarios}) == 16
        assert all(s.suite == "grid" for s in scenarios)
        # Singleton axes are not in the name; varying ones are.
        assert "rtt=" not in scenarios[0].name
        assert "bw=" in scenarios[0].name and "seed=" in scenarios[0].name

    def test_rtt_axis_is_round_trip(self):
        suite = ScenarioSuite(name="r", lineups=("cubic",), rtts_ms=(50.0,))
        assert suite.expand()[0].network.one_way_ms == 25.0

    def test_buffer_axis_semantics(self):
        suite = ScenarioSuite(name="b", lineups=("cubic",), buffers=(2.0, 1500))
        bdp, pkts = suite.expand()
        assert bdp.network.buffer_bdp == 2.0 and bdp.network.queue_packets is None
        assert pkts.network.queue_packets == 1500

    def test_cells_of_one_condition_share_their_network(self):
        # One network object per (bw, rtt, loss, buf): a signing pass
        # signs it once.  1 packet and 1.0 BDP stay two conditions.
        cells = ScenarioSuite(name="n", lineups=("cubic", "vegas"),
                              bandwidths_mbps=(8.0, 12.0), buffers=(1.0, 1),
                              seeds=(0, 1)).expand()
        assert len({id(c.network) for c in cells}) == 4
        assert len({c.network for c in cells}) == 4

    def test_buffer_axis_accepts_numpy_integers(self):
        suite = ScenarioSuite(name="b", lineups=("cubic",),
                              buffers=tuple(np.array([500, 1500])))
        for scenario in suite.expand():
            assert scenario.network.queue_packets in (500, 1500)

    def test_expand_records_lineup_label(self):
        suite = ScenarioSuite(name="l", lineups={"probe": ("cubic", "vegas")},
                              rtts_ms=(20.0, 40.0))
        assert all(s.lineup == "probe" for s in suite.expand())

    def test_multiflow_lineups_and_labels(self):
        suite = ScenarioSuite(
            name="duo",
            lineups={"pair": (FlowDef("cubic"), FlowDef("vegas", start=3.0))},
            duration=1.0)
        scenario = suite.expand()[0]
        assert scenario.name == "duo/pair"
        assert [f.scheme for f in scenario.flows] == ["cubic", "vegas"]
        assert scenario.flows[1].start == 3.0

    def test_duplicate_labels_disambiguated(self):
        suite = ScenarioSuite(name="dup", lineups=("cubic", "cubic"))
        names = [s.name for s in suite.expand()]
        assert len(set(names)) == 2

    def test_trace_axis(self):
        suite = ScenarioSuite(name="tr", lineups=("cubic",),
                              traces=(None, "fig1-step"))
        plain, stepped = suite.expand()
        assert plain.trace is None and stepped.trace == "fig1-step"
        (link,) = build_scenario_simulation(stepped).links
        assert isinstance(link.trace, StepTrace)

    def test_topology_axis(self):
        suite = ScenarioSuite(name="tp", lineups=("cubic",),
                              topologies=(None, dumbbell(), parking_lot(2)))
        plain, dumb, lot = suite.expand()
        assert len(suite) == 3
        assert plain.topology is None and "topo=None" in plain.name
        assert dumb.topology.name == "dumbbell"
        assert "topo=parking-lot2" in lot.name

    def test_churn_axis(self):
        suite = ScenarioSuite(
            name="ch", lineups={"duo": ("cubic", "cubic")},
            churns=(None, ChurnSchedule("staggered", gap=2.0)), duration=8.0)
        plain, churned = suite.expand()
        assert len(suite) == 2
        assert [f.start for f in plain.flows] == [0.0, 0.0]
        assert [f.start for f in churned.flows] == [0.0, 2.0]
        assert "churn=staggered-g2" in churned.name

    def test_trace_axis_under_a_topology_rejected(self):
        trace_axis_under_a_topology_rejected(ScenarioSuite)

    def test_fingerprint_sensitive_to_path_ack_bytes(self):
        def with_ack(ack):
            spec = dumbbell_asymmetric(16.0, ack_bytes=ack)
            return Scenario(name="x", network=NET, flows=("cubic",),
                            topology=spec).fingerprint()

        assert with_ack(None) != with_ack(600)
        assert with_ack(600) == with_ack(600)


class TestReversePathsAxis:
    """A wired topology and its pure-propagation twin as two
    ``topologies`` entries."""

    def suite(self, **kwargs):
        kwargs.setdefault("duration", 2.0)
        wired = dumbbell_asymmetric(16.0, delay_ms=8.0)
        twin = wired.with_reverse_paths({"through": None, "reverse": None},
                                        name="twin")
        return ScenarioSuite(
            name="rp", lineups={"dl": (FlowDef("cubic", path="through"),
                                       FlowDef("cubic", path="reverse"))},
            topologies=(wired, twin), **kwargs)

    def test_axis_expands_wired_and_twin_cells(self):
        suite = self.suite()
        assert len(suite) == 2
        wired, twin = suite.expand()
        assert wired.topology.path("through").reverse_links == ("rev",)
        assert twin.topology.path("through").reverse_links is None
        assert twin.topology.path("through").return_delay_ms == pytest.approx(8.0)
        assert wired.name == "rp/dl/topo=dumbbell-asym"
        assert twin.name == "rp/dl/topo=twin"

    def test_a_twin_left_with_its_wired_name_is_refused(self):
        wired = dumbbell_asymmetric(16.0, delay_ms=8.0)
        suite = ScenarioSuite(name="rp", lineups=("cubic",), topologies=(
            wired, wired.with_reverse_paths({"through": None})))
        with pytest.raises(ValueError, match="names two cells alike"):
            suite.expand()

    def test_fingerprint_sensitive_to_reverse_wiring(self):
        wired, twin = self.suite().expand()
        assert wired.fingerprint() != twin.fingerprint()

    def test_congested_reverse_raises_mean_rtt_vs_twin(self):
        """The acceptance shape: same propagation, same load -- the
        wired cell's download RTT is measurably higher because its acks
        queue behind the upload; the twin is blind to it."""
        wired, twin = self.suite(duration=5.0, seeds=(4,)).expand()
        rtt_wired = build_scenario_simulation(wired).run_all()[0].mean_rtt
        rtt_twin = build_scenario_simulation(twin).run_all()[0].mean_rtt
        assert rtt_wired > 1.3 * rtt_twin


class TestCodeDigest:
    """The code digest must agree across hosts: platform-independent
    file order, path-relative labels, LF-normalized content."""

    @staticmethod
    def _tree(tmp_path, files):
        root = tmp_path / "pkg"
        root.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, content in files:
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
            paths.append(path)
        return root, paths

    def test_order_independent(self, tmp_path):
        root, paths = self._tree(tmp_path, [("a.py", b"a = 1\n"),
                                            ("b.py", b"b = 2\n")])
        assert _digest_files(paths, root) == _digest_files(paths[::-1], root)

    def test_crlf_checkout_hashes_identically(self, tmp_path):
        root, (path,) = self._tree(tmp_path, [("a.py", b"x = 1\ny = 2\n")])
        lf = _digest_files([path], root)
        path.write_bytes(b"x = 1\r\ny = 2\r\n")
        assert _digest_files([path], root) == lf

    def test_sensitive_to_content_and_relative_path(self, tmp_path):
        root, (path,) = self._tree(tmp_path, [("a.py", b"x = 1\n")])
        base = _digest_files([path], root)
        path.write_bytes(b"x = 2\n")
        assert _digest_files([path], root) != base
        # same bytes under a different relative path is a different tree
        path.write_bytes(b"x = 1\n")
        root2, (path2,) = self._tree(tmp_path, [("sub/a.py", b"x = 1\n")])
        assert _digest_files([path2], root2) != base

    def test_same_basename_in_two_dirs_does_not_collide(self, tmp_path):
        root, paths = self._tree(tmp_path, [("one/__init__.py", b"v = 1\n"),
                                            ("two/__init__.py", b"v = 2\n")])
        swapped, others = self._tree(tmp_path / "swap",
                                     [("one/__init__.py", b"v = 2\n"),
                                      ("two/__init__.py", b"v = 1\n")])
        assert _digest_files(paths, root) != _digest_files(others, swapped)

    def test_live_digest_is_stable_and_short(self):
        assert _simulation_code_digest() == _simulation_code_digest()
        assert len(_simulation_code_digest()) == 16

    def test_the_deployed_policy_step_is_digested(self, monkeypatch):
        """The §5 library decides every learned cell's rates, so an
        edit to it must re-simulate."""
        import repro.core.library
        digested = []
        monkeypatch.setattr(repro.eval.scenarios, "_digest_files",
                            lambda files, root: digested.extend(files))
        _simulation_code_digest()
        assert Path(repro.core.library.__file__) in digested
