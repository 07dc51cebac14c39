"""Deterministic fault injection: specs, runtime, and replay identity.

Four layers of guarantees:

* **Specs validate and fingerprint.**  Bad fault parameters fail at
  construction; every fault knob reaches the topology signature, so a
  changed schedule is a changed cache key.
* **The fault runtime is a pure function of (schedule, seed, index).**
  Flap windows, brownout scaling, and Gilbert-Elliott chains replay
  exactly in a process built from the same three and are independent
  of query order.
* **Faults-off is bit-identical.**  A topology without faults builds
  links with ``fault is None`` -- the golden-trace suite pins the
  fast path itself.
* **Runs agree under faults.**  Every fault configuration replays to
  identical record digests, differs from its fault-free twin, and
  comes out identically through serial, process-pool, and batched
  dispatch.  That it also survives kills and resumes is the
  kill-schedule property's (``tests/test_sweep_kills.py``).
"""

import pytest

from repro.eval.parallel import ParallelRunner
from repro.eval.resilience import records_digest
from repro.eval.scenarios import ScenarioSuite
from repro.netsim.faults import (
    BlackoutWindow,
    FaultProcess,
    GilbertElliottLoss,
    LinkFlapSchedule,
    RateBrownout,
    coerce_faults,
)
from repro.netsim.signing import Signer
from repro.netsim.topology import dumbbell, parking_lot


FLAP = LinkFlapSchedule(period=0.8, down_time=0.05, start=0.3, jitter=0.02)
GE = GilbertElliottLoss(p_enter_bad=0.01, p_exit_bad=0.25, loss_bad=0.4)
BROWNOUT = RateBrownout(start=0.5, duration=0.6, factor=0.35)
BLACKOUT = BlackoutWindow(start=1.0, duration=0.08, policy="drop")


class TestFaultSpecs:
    """Validation and signature coverage of the declarative specs."""

    @pytest.mark.parametrize("bad", [
        lambda: LinkFlapSchedule(period=0.0, down_time=0.1),
        lambda: LinkFlapSchedule(period=1.0, down_time=-0.1),
        # down_time + jitter must leave the link some uptime per cycle
        lambda: LinkFlapSchedule(period=1.0, down_time=0.9, jitter=0.2),
        lambda: LinkFlapSchedule(period=1.0, down_time=0.5, policy="eject"),
        lambda: GilbertElliottLoss(p_enter_bad=1.5, p_exit_bad=0.5),
        lambda: GilbertElliottLoss(p_enter_bad=0.1, p_exit_bad=0.5,
                                   loss_bad=-0.1),
        lambda: RateBrownout(start=0.0, duration=1.0, factor=0.0),
        lambda: RateBrownout(start=0.0, duration=1.0, factor=1.5),
        lambda: RateBrownout(start=0.0, duration=-1.0, factor=0.5),
        lambda: BlackoutWindow(start=-1.0, duration=0.1),
        lambda: BlackoutWindow(start=0.0, duration=0.1, policy="warp"),
    ])
    def test_bad_specs_fail_at_construction(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_signature_covers_every_field(self):
        # Signatures are derived from dataclasses.fields(): the shape a
        # spec signs under names its class and every field it declares.
        for spec in (FLAP, GE, BROWNOUT, BLACKOUT):
            names = ",".join(spec.__dataclass_fields__)
            assert Signer().sign(spec)[0] == f"{type(spec).__name__}({names})"

    def test_signature_changes_with_any_knob(self):
        def fault_signature(specs):
            return Signer().value(specs)
        base = fault_signature((FLAP,))
        for changed in (
                LinkFlapSchedule(period=0.9, down_time=0.05, start=0.3,
                                 jitter=0.02),
                LinkFlapSchedule(period=0.8, down_time=0.06, start=0.3,
                                 jitter=0.02),
                LinkFlapSchedule(period=0.8, down_time=0.05, start=0.4,
                                 jitter=0.02),
                LinkFlapSchedule(period=0.8, down_time=0.05, start=0.3,
                                 jitter=0.03),
                LinkFlapSchedule(period=0.8, down_time=0.05, start=0.3,
                                 jitter=0.02, policy="drop")):
            assert fault_signature((changed,)) != base

    def test_coerce_faults_shapes(self):
        assert coerce_faults(None) == ()
        assert coerce_faults(FLAP) == (FLAP,)
        assert coerce_faults([FLAP, GE]) == (FLAP, GE)
        with pytest.raises(TypeError):
            coerce_faults("flap")

    def test_topology_with_faults_fingerprints(self):
        def sig(spec):
            return Signer().sign(spec)
        base = dumbbell(bandwidth_mbps=8.0)
        faulted = base.with_faults({"hop0": (FLAP, GE)})
        assert sig(base) != sig(faulted)
        # same schedule -> same signature; different schedule -> different
        assert sig(faulted) == sig(base.with_faults({"hop0": (FLAP, GE)}))
        assert sig(faulted) != sig(base.with_faults({"hop0": (FLAP,)}))
        # stripping back to fault-free restores the original signature
        assert sig(faulted.with_faults({"hop0": ()})) == sig(base)
        with pytest.raises(KeyError):
            base.with_faults({"no-such-link": FLAP})

    def test_faults_off_builds_unfaulted_links(self):
        topo = dumbbell(bandwidth_mbps=8.0).build(seed=3)
        assert all(link.fault is None for link in topo.links.values())
        faulted = dumbbell(bandwidth_mbps=8.0).with_faults(
            {"hop0": FLAP}).build(seed=3)
        assert faulted.links["hop0"].fault is not None


class TestFaultProcess:
    """The runtime: windows, scaling, and chain determinism."""

    def test_flap_windows_and_policy(self):
        proc = FaultProcess((LinkFlapSchedule(period=1.0, down_time=0.2,
                                              start=0.5),), seed=0, index=0)
        assert proc.outage_at(0.4) is None
        recovery, policy = proc.outage_at(0.55)
        assert recovery == pytest.approx(0.7)
        assert policy == "queue"
        assert proc.outage_at(0.75) is None
        recovery2, _ = proc.outage_at(1.6)  # second cycle
        assert recovery2 == pytest.approx(1.7)

    def test_blackout_drop_beats_queue(self):
        proc = FaultProcess(
            (BlackoutWindow(start=1.0, duration=0.5, policy="drop"),
             LinkFlapSchedule(period=10.0, down_time=2.0, start=0.5)),
            seed=0, index=0)
        recovery, policy = proc.outage_at(1.2)
        assert policy == "drop"
        assert recovery == pytest.approx(2.5)  # flap recovers later, wins

    def test_brownout_scale_is_static_and_bounded(self):
        proc = FaultProcess((BROWNOUT,), seed=0, index=0)
        assert proc.capacity_scale(0.4) == 1.0
        assert proc.capacity_scale(0.7) == pytest.approx(0.35)
        assert proc.capacity_scale(1.2) == 1.0

    def test_chain_replays_in_a_twin(self):
        twins = [FaultProcess((GE,), seed=7, index=2) for _ in range(2)]
        first, again = ([proc.wire_loss(0.01 * i) for i in range(400)]
                        for proc in twins)
        assert first == again
        assert any(first)  # loss_bad=0.4 must actually fire somewhere

    def test_flap_jitter_independent_of_loss_draws(self):
        # Flap windows are a pure function of (spec, cycle): draining
        # the GE chain between window queries must not move them.
        spec = LinkFlapSchedule(period=1.0, down_time=0.1, jitter=0.05)
        quiet = FaultProcess((spec, GE), seed=11, index=0)
        noisy = FaultProcess((spec, GE), seed=11, index=0)
        for i in range(300):
            noisy.wire_loss(0.001 * i)  # advance the loss stream only
        for t in (0.0, 0.95, 1.05, 2.02, 5.5, 9.97):
            assert quiet.outage_at(t) == noisy.outage_at(t)

    def test_streams_keyed_by_seed_and_index(self):
        a = FaultProcess((GE,), seed=1, index=0)
        b = FaultProcess((GE,), seed=2, index=0)
        c = FaultProcess((GE,), seed=1, index=1)
        draws = lambda p: [p.wire_loss(0.01 * i) for i in range(300)]
        base = draws(FaultProcess((GE,), seed=1, index=0))
        assert draws(a) == base
        assert draws(b) != base
        assert draws(c) != base


def faulted_suite(faults):
    topo = parking_lot(2, bandwidth_mbps=6.0, delay_ms=8.0)
    return ScenarioSuite(
        name="faults",
        lineups=[("cubic", "vivace")],
        topologies=(topo.with_faults(faults),),
        duration=4.0,
        seeds=(0,))


class TestReplayIdentityUnderFaults:
    """Two fresh runs agree, and differ from clean, across fault mixes."""

    CONFIGS = [
        {"hop0": (FLAP,)},
        {"hop0": (GE,)},
        {"hop0": (BROWNOUT,)},
        {"hop0": (BLACKOUT,)},
        {"hop0": (LinkFlapSchedule(period=0.7, down_time=0.06,
                                   policy="drop"),)},
        {"hop0": (FLAP, GE), "hop1": (BROWNOUT, BLACKOUT)},
    ]

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=lambda c: "+".join(
                                 f"{k}:{'+'.join(type(s).__name__ for s in v)}"
                                 for k, v in sorted(c.items())))
    def test_digests_match(self, config):
        def run(faults):
            result = ParallelRunner(n_workers=1, use_cache=False).run(
                faulted_suite(faults))
            return [(records_digest(r.records), r.events) for r in result]

        first = run(config)
        assert first == run(config)
        # a fault mix that never perturbs anything would vacuously pass:
        # the same lineup without faults must differ
        assert run({"hop0": ()}) != first


def cell_digests(results) -> dict:
    return {r.scenario.name: records_digest(r.records) for r in results}


class TestDispatchIdentityUnderFaults:
    """serial == process-pool == batched for a faulted grid."""

    def test_all_dispatch_paths_agree(self):
        lot = parking_lot(2, bandwidth_mbps=6.0)
        grid = ScenarioSuite(
            name="faults-dispatch",
            lineups=[("cubic", "bbr")],
            topologies=(lot, lot.with_faults({"hop0": (FLAP, GE)},
                                             name="faulted")),
            duration=3.0,
            seeds=(0, 1))
        cells = grid.expand()
        # Four cells: one runner per cell in process, one cell per pool
        # task over two workers, and in-process batches of two.
        assert ParallelRunner(n_workers=2)._pick_batch_size(len(cells)) == 1
        assert ParallelRunner(n_workers=1)._pick_batch_size(len(cells)) == 2
        serial = cell_digests(
            ParallelRunner(n_workers=1, use_cache=False).run([cell])
            .results[0] for cell in cells)
        pooled = cell_digests(
            ParallelRunner(n_workers=2, use_cache=False).run(grid))
        batched = cell_digests(
            ParallelRunner(n_workers=1, use_cache=False).run(grid))
        assert serial == pooled == batched
        assert len(serial) == 4  # topologies (2) x seeds (2)
