"""Golden-trace bit-identity for the optimized event engine.

PR 5 rebuilt the discrete-event hot path (integer dispatch,
allocation-free transit, flat-buffer MI statistics, block-drawn RNG)
under a hard guarantee: **the floats do not move**.  These tests pin
that guarantee to goldens generated from the *pre-optimization* engine
(see ``scripts/make_engine_goldens.py``): a seeded multi-flow,
multi-hop, wired-reverse grid is re-run on the current engine and
every scenario's full result rows (per-MI records included) must
digest-identically match.

The file also carries a frozen ``pre_refactor_single_hop`` block: the
digests the pre-PR-4 emit-time transit scheme (deleted in PR 13)
produced on the eight single-bottleneck cells.  The live engine must
still equal them -- the "single-bottleneck == pre-refactor engine"
guarantee, kept as a frozen check now that the old scheme is gone.

A ``learned_controllers`` block pins two single-flow cells driven by
seeded *untrained* policies (one preference-conditioned, one
``weight_dim=0``), recorded on the commit before the actor-only
inference path landed.  It gates the whole per-MI chain -- history
push and clamps, policy inference, Eq. 1 -- end to end.  Eq. 1 damps
an action by ``action_scale`` before adding it to 1, so a single
one-ulp action change is usually rounded away; a systematic one
(every MI nudged by an ulp) does move both digests.  The ``==``
differential tests in ``test_policy.py`` are the per-call one-ulp gate.

A ``trace_driven`` block pins cells that *cross capacity changes*: the
three blocks above run ``fig1-step`` (period 5 s) for 4.0 s and the
ledger runs ``wifi-walk`` (interval 0.5 s) for 0.25 s, so until PR 21
no pinned digest ever saw a time-varying link change rate.  Every
registered trace runs long enough to cross several of its boundaries,
under window, rate and mixed line-ups, with and without wire loss, plus
a two-hop lot (drops and hop dither read capacity at future cursors)
and a faulted trace-driven link.  Digest *and* event count are pinned;
the block was recorded on the commit before links cached a trace's
current segment.

The digest covers every float the result cache persists, serialized
via JSON ``repr`` (shortest round-trip -- exact for float64).  A
mismatch therefore means the engine's arithmetic changed, not a
formatting burp.

Cross-platform note: the simulator's statistics use numpy reductions
(pairwise-summation ``mean``, BLAS ``dot``) whose last-bit rounding is
stable on any one platform but can differ across exotic BLAS builds.
``REPRO_GOLDEN_RELAXED=1`` downgrades the digest assertion to a tight
numeric comparison of the per-flow summary statistics for such hosts.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core.agent import MoccAgent
from repro.eval.parallel import ParallelRunner
from repro.eval.resilience import records_digest
from repro.eval.scenarios import ChurnSchedule, FlowDef, ScenarioSuite
from repro.netsim.faults import LinkFlapSchedule, RateBrownout
from repro.netsim.topology import dumbbell, dumbbell_asymmetric, parking_lot

GOLDEN_PATH = Path(__file__).parent / "goldens" / "engine_golden.json"


def golden_suites() -> tuple:
    """The pinned grid: single-bottleneck x loss x trace, a churned
    parking lot, and a wired-reverse asymmetric dumbbell.  Heuristic
    schemes only (no model zoo), fixed seeds, short durations."""
    lot = parking_lot(2, bandwidth_mbps=12.0, delay_ms=6.0)
    asym = dumbbell_asymmetric(bandwidth_mbps=12.0, delay_ms=6.0,
                               reverse_bandwidth_mbps=1.2)
    single = ScenarioSuite(
        name="golden-single",
        lineups={"duo": ("cubic", "bbr"),
                 "trio": ("copa", "vivace", "vegas")},
        bandwidths_mbps=(8.0,), losses=(0.0, 0.02),
        traces=(None, "fig1-step"), duration=4.0, seeds=(11,))
    lot_suite = ScenarioSuite(
        name="golden-lot",
        lineups={f"{s}-through": (
            FlowDef(s, path="through", label=f"{s}-through"),
            FlowDef("cubic", path="cross0", label="cross0"),
            FlowDef("cubic", path="cross1", label="cross1"))
            for s in ("cubic", "bbr")},
        topologies=(lot,),
        churns=(None, ChurnSchedule("on-off", gap=1.0, on_time=1.5,
                                    period=2.5, skip=1)),
        duration=4.0, seeds=(11,))
    ack_suite = ScenarioSuite(
        name="golden-ack",
        lineups={f"{s}-dl": (
            FlowDef(s, path="through", label=f"{s}-dl"),
            FlowDef("cubic", path="reverse", label="ul0"))
            for s in ("cubic", "vivace")},
        topologies=(asym,), duration=4.0, seeds=(11,))
    return single, lot_suite, ack_suite


def _untrained_agent(weight_dim: int) -> MoccAgent:
    """``MoccAgent(seed=0)`` with its output head rescaled.

    The "small" output init keeps an untrained policy's actions ~1e-2,
    which Eq. 1 flattens to a constant sub-capacity rate: the history
    never leaves its neutral fill and ulp-level drift never reaches the
    pacing rate.  A head gain of -200 makes the flow ramp into
    congestion (queueing for MOCC, queueing and loss for Aurora), so
    every statistic -- and the clamps on them -- is exercised.
    """
    agent = MoccAgent(weight_dim=weight_dim, seed=0)
    agent.model.actor.layers[-1].W.value *= -200.0
    return agent


def learned_suites() -> tuple:
    """Policy inference in the loop, without the model zoo: MOCC at one
    weight vector and an Aurora-style ``weight_dim=0`` policy, both
    seeded and untrained (weights are a pure function of the seed)."""
    return (ScenarioSuite(
        name="golden-learned",
        lineups={"mocc": (FlowDef("mocc", weights=(0.5, 0.3, 0.2),
                                  agent=_untrained_agent(3)),),
                 "aurora": (FlowDef("aurora-throughput",
                                    agent=_untrained_agent(0)),)},
        bandwidths_mbps=(6.0,), duration=3.0, seeds=(11,)),)


#: Named trace -> seconds to run it: long enough to cross capacity
#: changes (wifi-walk steps every 0.5 s, cellular-walk every 1 s,
#: leo-handover at 0.8 / 15 / 15.8 s, fig1-step at 5 / 10 s).
TRACE_DRIVEN_DURATIONS = {"wifi-walk": 6.0, "cellular-walk": 8.0,
                          "leo-handover": 18.0, "fig1-step": 12.0}


def trace_driven_suites() -> tuple:
    """Time-varying links across their capacity changes: every named
    trace x {window; mixed; rate} line-up x wire loss, a two-hop
    trace-driven parking lot, and a trace-driven link under a brownout
    plus a queue-policy flap (the faulted transmit path)."""
    lineups = {"cubic": ("cubic",), "bbr+copa": ("bbr", "copa"),
               "vivace": ("vivace",)}
    named = tuple(ScenarioSuite(
        name=f"golden-trace-{trace}", lineups=lineups,
        bandwidths_mbps=(12.0,), losses=(0.0, 0.01), traces=(trace,),
        duration=duration, seeds=(11,))
        for trace, duration in TRACE_DRIVEN_DURATIONS.items())
    lot = ScenarioSuite(
        name="golden-trace-lot",
        lineups={"lot": (FlowDef("bbr", path="through", label="through"),
                         FlowDef("cubic", path="cross0", label="cross0"),
                         FlowDef("vivace", path="cross1", label="cross1"))},
        topologies=(parking_lot(2, bandwidth_mbps=12.0, delay_ms=6.0,
                                loss_rate=0.005, trace="wifi-walk"),),
        duration=6.0, seeds=(11,))
    faulted = ScenarioSuite(
        name="golden-trace-faulted", lineups={"duo": ("cubic", "vivace")},
        topologies=(dumbbell(bandwidth_mbps=12.0, delay_ms=6.0,
                             trace="wifi-walk").with_faults(
            {"hop0": (RateBrownout(start=0.8, duration=1.6, factor=0.4),
                      LinkFlapSchedule(period=1.3, down_time=0.12,
                                       start=0.4, policy="queue"))}),),
        duration=6.0, seeds=(11,))
    return named + (lot, faulted)


def compute_trace_driven() -> dict:
    """Digest and event count of every ``trace_driven_suites`` cell."""
    runner = ParallelRunner(n_workers=1, use_cache=False)
    return {result.scenario.name: {"digest": records_digest(result.records),
                                   "events": result.events}
            for suite in trace_driven_suites()
            for result in runner.run(suite)}


def compute_goldens(suites: tuple | None = None) -> dict:
    """Run a golden grid (default: the heuristic one); return
    per-scenario digests + summaries."""
    runner = ParallelRunner(n_workers=1, use_cache=False)
    scenarios = {}
    for suite in golden_suites() if suites is None else suites:
        for result in runner.run(suite):
            scenarios[result.scenario.name] = {
                "digest": records_digest(result.records),
                "summary": [[r.scheme, r.mean_throughput_pps, r.mean_rtt,
                             r.loss_rate] for r in result.records],
            }
    return scenarios


@pytest.fixture(scope="module")
def goldens() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file missing: {GOLDEN_PATH}; regenerate with "
                    f"scripts/make_engine_goldens.py")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def fresh() -> dict:
    return compute_goldens()


class TestGoldenTraces:
    def test_grid_shape_unchanged(self, goldens, fresh):
        assert sorted(fresh) == sorted(goldens["scenarios"]), \
            "golden grid changed; regenerate scripts/make_engine_goldens.py"

    def test_digest_identical_to_pre_optimization_engine(self, goldens, fresh):
        relaxed = os.environ.get("REPRO_GOLDEN_RELAXED") == "1"
        mismatched = []
        for name, entry in goldens["scenarios"].items():
            got = fresh[name]
            if got["digest"] != entry["digest"]:
                mismatched.append(name)
                if relaxed:
                    for want_row, got_row in zip(entry["summary"],
                                                 got["summary"]):
                        assert want_row[0] == got_row[0], name
                        for want, got_v in zip(want_row[1:], got_row[1:]):
                            if want is None or got_v is None:
                                assert want == got_v, (name, want_row)
                            else:
                                assert got_v == pytest.approx(
                                    want, rel=1e-9, abs=1e-12), (name,
                                                                 want_row)
        if not relaxed:
            assert not mismatched, (
                f"{len(mismatched)} scenario(s) diverged from the "
                f"pre-optimization goldens: {mismatched[:5]}")

    def test_single_hop_equals_pre_refactor_engine(self, goldens, fresh):
        frozen = goldens["pre_refactor_single_hop"]
        single = sorted(n for n in goldens["scenarios"]
                        if n.startswith("golden-single/"))
        assert sorted(frozen) == single and len(single) == 8
        for name, digest in frozen.items():
            assert goldens["scenarios"][name]["digest"] == digest, name
            if os.environ.get("REPRO_GOLDEN_RELAXED") != "1":
                assert fresh[name]["digest"] == digest, name

    @pytest.mark.skipif(os.environ.get("REPRO_GOLDEN_RELAXED") == "1",
                        reason="digest identity needs the reference BLAS")
    def test_learned_controllers_digest_identical(self, goldens):
        pinned = goldens["learned_controllers"]
        got = compute_goldens(learned_suites())
        assert sorted(got) == sorted(pinned) and len(pinned) == 2
        for name, entry in pinned.items():
            assert got[name]["digest"] == entry["digest"], (
                name, entry["summary"], got[name]["summary"])

    @pytest.mark.skipif(os.environ.get("REPRO_GOLDEN_RELAXED") == "1",
                        reason="digest identity needs the reference BLAS")
    def test_trace_driven_cells_cross_capacity_changes_unmoved(self, goldens):
        pinned = goldens["trace_driven"]
        got = compute_trace_driven()
        assert sorted(got) == sorted(pinned) and len(pinned) == 26
        moved = {name: (entry, got[name]) for name, entry in pinned.items()
                 if got[name] != entry}
        assert not moved, moved
