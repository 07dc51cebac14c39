"""Tests for the topology layer: live topologies, specs, builders, and
multi-bottleneck simulation semantics (per-flow paths and RTTs)."""

import numpy as np
import pytest

from repro.netsim.link import Link
from repro.netsim.network import FlowSpec, Simulation
from repro.netsim.sender import ExternalRateController
from repro.netsim.topology import (
    LinkDef,
    PathDef,
    Topology,
    TopologySpec,
    chain,
    dumbbell,
    dumbbell_asymmetric,
    parking_lot,
)
from repro.netsim.signing import Signer
from repro.netsim.traces import ConstantTrace, StepTrace


def make_link(pps=100.0, delay=0.02, queue=50, loss=0.0, seed=0, name=""):
    return Link(ConstantTrace(pps), delay=delay, queue_size=queue,
                loss_rate=loss, rng=np.random.default_rng(seed), name=name)


def path_over(*links):
    """A live topology whose one path traverses ``links`` in order;
    an unnamed link is named by its position."""
    named = {link.name or f"link{i}": link for i, link in enumerate(links)}
    return Topology(named, (PathDef("path", tuple(named)),))


def live_parking_lot(links):
    """Live links ``hop0``, ``hop1``, ... on :func:`parking_lot`'s paths."""
    return Topology({f"hop{i}": link for i, link in enumerate(links)},
                    parking_lot(len(links)).paths)


class TestLiveTopology:
    def test_single_path_wraps_link_list(self):
        links = [make_link(delay=0.01), make_link(delay=0.02)]
        topo = path_over(*links)
        path = topo.path()
        assert path.links == tuple(links)
        assert path.base_rtt == pytest.approx(0.06)
        assert path.return_delay == pytest.approx(0.03)

    def test_parking_lot_paths(self):
        links = [make_link(delay=0.01), make_link(delay=0.02)]
        topo = live_parking_lot(links)
        assert set(topo.paths) == {"through", "cross0", "cross1"}
        assert topo.default_path == "through"
        assert topo.path("cross1").links == (links[1],)
        assert topo.path("cross1").base_rtt == pytest.approx(0.04)
        assert topo.path("through").base_rtt == pytest.approx(0.06)

    def test_unknown_path_and_link_rejected(self):
        """The spec's reference check, on live links."""
        links = {"a": make_link()}
        with pytest.raises(ValueError, match="unknown link"):
            Topology(links, (PathDef("p", ("a", "b")),))
        with pytest.raises(ValueError, match="reverse path of 'p'"):
            Topology(links, (PathDef("p", ("a",), reverse_links=("zz",)),))
        with pytest.raises(ValueError, match="duplicate path names"):
            Topology(links, (PathDef("p", ("a",)), PathDef("p", ("a",))))
        with pytest.raises(ValueError, match="default path"):
            Topology(links, (PathDef("p", ("a",)),), default_path="q")
        topo = Topology(links, (PathDef("p", ("a",)),))
        with pytest.raises(KeyError, match="unknown path"):
            topo.path("q")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one link"):
            Topology({}, (PathDef("p", ("a",)),))
        with pytest.raises(ValueError, match="at least one path"):
            Topology({"a": make_link()}, ())

    def test_default_reverse_is_propagation_pseudo_link(self):
        topo = path_over(make_link(delay=0.01), make_link(delay=0.02))
        path = topo.path()
        assert path.reverse_links == ()
        assert path.return_delay == pytest.approx(0.03)

    def test_wired_reverse_path(self):
        links = {"fwd": make_link(delay=0.01, name="fwd"),
                 "rev": make_link(delay=0.03, name="rev")}
        topo = Topology(links, (PathDef("p", ("fwd",), reverse_links=("rev",)),))
        path = topo.path("p")
        assert path.reverse_links == (links["rev"],)
        # Return delay is the reverse links' propagation sum.
        assert path.return_delay == pytest.approx(0.03)
        assert path.base_rtt == pytest.approx(0.04)


def empty_path_rejected(pathdef_cls) -> None:
    """Not at build time, inside a sweep worker, once per cell."""
    with pytest.raises(ValueError, match="'p' traverses no links"):
        pathdef_cls("p", ())


class TestTopologySpec:
    def test_builders_shape(self):
        assert len(dumbbell().links) == 1
        c = chain(3, bandwidth_mbps=(10.0, 20.0, 30.0))
        assert [ld.bandwidth_mbps for ld in c.links] == [10.0, 20.0, 30.0]
        assert c.path().links == ("hop0", "hop1", "hop2")
        p = parking_lot(2)
        assert p.path_names() == ("through", "cross0", "cross1")
        assert p.default_path == "through"

    def test_per_hop_broadcast_length_checked(self):
        with pytest.raises(ValueError, match="2 entries for 3 hops"):
            chain(3, bandwidth_mbps=(10.0, 20.0))

    def test_parking_lot_needs_two_hops(self):
        with pytest.raises(ValueError):
            parking_lot(1)

    def test_duplicate_and_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate link names"):
            TopologySpec(name="t", links=(LinkDef("a"), LinkDef("a")),
                         paths=(PathDef("p", ("a",)),))
        with pytest.raises(ValueError, match="unknown"):
            TopologySpec(name="t", links=(LinkDef("a"),),
                         paths=(PathDef("p", ("a", "zz")),))
        with pytest.raises(ValueError, match="default path"):
            TopologySpec(name="t", links=(LinkDef("a"),),
                         paths=(PathDef("p", ("a",)),), default_path="q")

    def test_path_helpers(self):
        spec = parking_lot(2, bandwidth_mbps=(8.0, 16.0), delay_ms=(10.0, 5.0))
        assert spec.path_one_way_ms("through") == pytest.approx(15.0)
        assert spec.path_rtt_s("cross1") == pytest.approx(0.01)
        assert spec.path_bottleneck_mbps("through") == 8.0
        assert spec.path_bottleneck_mbps("cross1") == 16.0

    def test_build_is_deterministic_and_sized(self):
        spec = parking_lot(2, bandwidth_mbps=12.0, delay_ms=10.0,
                           loss_rate=0.1)
        a, b = spec.build(seed=5), spec.build(seed=5)
        assert list(a.links) == ["hop0", "hop1"]
        # BDP-relative buffer against the longest path through the link
        # (the 40 ms through-path RTT, not the hop's own 20 ms).
        pps = 12.0 * 1e6 / (1500 * 8)
        assert a.links["hop0"].queue_size == int(round(pps * 0.04))
        # Same seed, same loss RNG stream.
        draws_a = [a.links["hop0"].rng.random() for _ in range(5)]
        draws_b = [b.links["hop0"].rng.random() for _ in range(5)]
        assert draws_a == draws_b

    def test_build_resolves_named_traces(self):
        spec = dumbbell(trace="fig1-step")
        link = spec.build().links["hop0"]
        assert type(link.trace).__name__ == "StepTrace"

    def test_live_trace_on_a_link(self):
        """A live trace (an EvalNetwork's, on its one-link dumbbell)
        builds as it stands and signs by its content."""
        trace = StepTrace(100.0, 200.0, period=5.0)
        assert dumbbell(trace=trace).build().links["hop0"].trace is trace
        sign = lambda t: Signer().sign(dumbbell(trace=t))
        assert sign(StepTrace(100.0, 200.0, period=5.0)) == sign(trace)
        assert sign(StepTrace(100.0, 200.0, period=4.0)) != sign(trace)

    def test_queue_packets_overrides_bdp(self):
        spec = dumbbell(queue_packets=7)
        assert spec.build().links["hop0"].queue_size == 7

    def test_pathdef_reverse_validation(self):
        with pytest.raises(ValueError, match="not both"):
            PathDef("p", ("a",), return_delay_ms=5.0, reverse_links=("b",))
        with pytest.raises(ValueError, match="at least one link"):
            PathDef("p", ("a",), reverse_links=())
        with pytest.raises(ValueError, match="reverse path of 'p'"):
            TopologySpec(name="t", links=(LinkDef("a"),),
                         paths=(PathDef("p", ("a",), reverse_links=("zz",)),))

    def test_empty_path_rejected_at_construction(self):
        empty_path_rejected(PathDef)

    def test_pathdef_ack_bytes_builds_through(self):
        spec = TopologySpec(
            name="t", links=(LinkDef("a"),),
            paths=(PathDef("p", ("a",), ack_bytes=90), PathDef("q", ("a",))))
        topo = spec.build()
        assert topo.path("p").ack_bytes == 90
        assert topo.path("q").ack_bytes is None  # engine default
        for bad in (-1, 0):
            with pytest.raises(ValueError, match="positive"):
                PathDef("p", ("a",), ack_bytes=bad)

    def test_dumbbell_asymmetric_ack_bytes(self):
        spec = dumbbell_asymmetric(16.0, ack_bytes=200)
        assert spec.path("through").ack_bytes == 200
        assert spec.path("reverse").ack_bytes == 200
        assert dumbbell_asymmetric(16.0).path("through").ack_bytes is None

    def test_dumbbell_asymmetric_shape(self):
        spec = dumbbell_asymmetric(20.0, delay_ms=10.0)
        assert [ld.name for ld in spec.links] == ["fwd", "rev"]
        assert spec._link("rev").bandwidth_mbps == pytest.approx(2.0)
        assert spec.path("through").links == ("fwd",)
        assert spec.path("through").reverse_links == ("rev",)
        assert spec.path("reverse").reverse_links == ("fwd",)
        assert spec.default_path == "through"
        # Symmetric delays by default: 20 ms round trip either way.
        assert spec.path_rtt_s("through") == pytest.approx(0.02)
        assert spec.path_return_ms("through") == pytest.approx(10.0)

    def test_asymmetric_build_wires_reverse_links(self):
        topo = dumbbell_asymmetric(16.0, delay_ms=8.0,
                                   reverse_delay_ms=24.0).build()
        path = topo.path("through")
        assert path.reverse_links == (topo.links["rev"],)
        assert path.base_rtt == pytest.approx(0.032)

    def test_with_reverse_paths_wires_and_strips(self):
        spec = dumbbell_asymmetric(16.0, delay_ms=8.0, reverse_delay_ms=24.0)
        twin = spec.with_reverse_paths({"through": None, "reverse": None})
        # The twin keeps the same propagation RTT without queued links.
        assert twin.path("through").reverse_links is None
        assert twin.path("through").return_delay_ms == pytest.approx(24.0)
        assert twin.path_rtt_s("through") == pytest.approx(spec.path_rtt_s("through"))
        built = twin.build().path("through")
        assert built.reverse_links == ()
        # ...at the twin's return_delay_ms, not the forward delay.
        assert built.return_delay == pytest.approx(0.024)
        assert built.base_rtt == pytest.approx(0.032)
        # Re-wiring the twin round-trips to the original shape.
        rewired = twin.with_reverse_paths({"through": ("rev",)})
        assert rewired.path("through").reverse_links == ("rev",)
        with pytest.raises(KeyError, match="unknown path"):
            spec.with_reverse_paths({"nope": ("rev",)})


def stop_time_mi_accounting_holds(simulation_cls) -> None:
    """Regression: acks draining after stop_time must not be
    crammed into an MI clamped at stop_time.

    200 pps into a 50 pps link with a deep buffer, stopping at 1 s:
    ~150 packets are still queued at the stop and their acks arrive
    until ~4 s.  Pre-fix, the final MI ended at 1.0 s while
    counting those acks, inflating flow throughput ~4x above link
    capacity.
    """
    link = make_link(pps=50.0, delay=0.01, queue=10**6, seed=13)
    sim = simulation_cls(path_over(link),
                         [FlowSpec(ExternalRateController(200.0),
                                   stop_time=1.0)],
                         duration=8.0, seed=13)
    record = sim.run_all()[0]
    final = record.records[-1]
    assert final.end > 1.5  # extends to the true last ack
    assert final.throughput_pps <= 50.0 * 1.05
    assert record.mean_throughput_pps <= 50.0 * 1.05
    # Everything sent was eventually accounted.
    flow = sim.flows[0]
    assert flow.total_acked + flow.total_lost + flow.inflight == flow.total_sent


def loss_notices_charge_downstream_queues(simulation_cls) -> None:
    """Regression (fails on the pure-propagation engine): a buffer
    drop on hop 0 while hop 1 holds a deep queue must push the loss
    notice out by that queue's drain time, not bare propagation.

    80 pps into a 40 pps hop with a 2-packet buffer: half the
    packets buffer-drop on hop 0.  The survivors (40 pps) overload
    the 30 pps second hop, whose queue grows ~10 pkt/s.  Under pure
    propagation every notice lands exactly at ``send + q0 + d0 +
    d1 + return``; with occupancy charging, late notices trail that
    bound by the seconds of queue standing on hop 1.
    """
    a = make_link(pps=40.0, delay=0.01, queue=2, seed=20)
    b = make_link(pps=30.0, delay=0.05, queue=1000, seed=21)
    losses = []

    class Recorder(ExternalRateController):
        def on_loss(self, flow, packet, now):
            losses.append((now, packet))

    sim = simulation_cls(path_over(a, b), [FlowSpec(Recorder(80.0))],
                         duration=8.0, seed=22)
    sim.run_all()
    assert len(losses) > 50
    # Every drop here is a hop-0 buffer drop, so the old engine's
    # notice time is exactly reconstructable per packet.
    excess = [now - (p.send_time + p.queue_delay + a.delay + b.delay
                     + 0.06)
              for now, p in losses]
    assert min(excess) > 0.0  # at least hop-1 service is charged
    assert max(excess) > 0.5  # standing hop-1 queue dominates late notices


class TestSimulationOverTopology:
    def test_per_flow_base_rtt(self):
        links = [make_link(delay=0.01, seed=1), make_link(delay=0.02, seed=2)]
        topo = live_parking_lot(links)
        sim = Simulation(topo, [
            FlowSpec(ExternalRateController(50.0), path="through"),
            FlowSpec(ExternalRateController(50.0), path="cross1"),
        ], duration=2.0, seed=3)
        assert sim.flows[0].base_rtt == pytest.approx(0.06)
        assert sim.flows[1].base_rtt == pytest.approx(0.04)
        # Engine-level default-path RTT is the topology's default path.
        assert sim.base_rtt == pytest.approx(0.06)

    def test_unknown_flow_path_rejected(self):
        topo = path_over(make_link())
        with pytest.raises(KeyError, match="unknown path"):
            Simulation(topo, [FlowSpec(ExternalRateController(1.0),
                                       path="nope")], duration=1.0)

    def test_cross_traffic_only_contends_on_its_hop(self):
        """Cross flows on different hops do not share any queue."""
        links = [make_link(pps=100.0, delay=0.01, seed=4, name="a"),
                 make_link(pps=100.0, delay=0.01, seed=5, name="b")]
        topo = live_parking_lot(links)
        sim = Simulation(topo, [
            FlowSpec(ExternalRateController(90.0), path="cross0"),
            FlowSpec(ExternalRateController(90.0), path="cross1"),
        ], duration=10.0, seed=6)
        r0, r1 = sim.run_all()
        # Each flow has its 100 pps hop to itself: no loss, full rate.
        assert r0.loss_rate == 0.0 and r1.loss_rate == 0.0
        assert r0.mean_throughput_pps == pytest.approx(90.0, rel=0.05)
        assert r1.mean_throughput_pps == pytest.approx(90.0, rel=0.05)

    def test_through_flow_contends_on_every_hop(self):
        """A through flow shares each queue with that hop's cross flow."""
        links = [make_link(pps=100.0, delay=0.01, queue=20, seed=7),
                 make_link(pps=100.0, delay=0.01, queue=20, seed=8)]
        topo = live_parking_lot(links)
        sim = Simulation(topo, [
            FlowSpec(ExternalRateController(100.0), path="through"),
            FlowSpec(ExternalRateController(100.0), path="cross0"),
            FlowSpec(ExternalRateController(100.0), path="cross1"),
        ], duration=20.0, seed=9)
        through, c0, c1 = sim.run_all()
        # Every hop is overloaded (through + cross offer 200 pps at 100
        # pps capacity), so everyone sees loss and nobody exceeds a
        # fair-ish share; the through flow pays on both queues.
        assert through.loss_rate > 0.2
        assert through.mean_throughput_pps < 70.0
        total0 = through.mean_throughput_pps + c0.mean_throughput_pps
        assert total0 == pytest.approx(100.0, rel=0.1)

    def test_multihop_drop_notice_uses_path_timing(self):
        """Loss notices honour accumulated wire timing per path.

        One packet through two links; the second link random-drops it.
        The notice must reflect the true cursor: queue+service+delay of
        both links plus the return propagation -- not the old
        ``now + base_rtt + queue_delay`` shortcut (0.12 here).
        """
        a = make_link(pps=100.0, delay=0.01, queue=100, seed=10)
        b = make_link(pps=50.0, delay=0.05, queue=100, loss=1.0 - 1e-12,
                      seed=11)
        times = []

        class Recorder(ExternalRateController):
            def on_loss(self, flow, packet, now):
                times.append(now)

        # No hop dither: this is a unit test of the notice-cursor
        # arithmetic, not of the forwarding dither.
        sim = Simulation(path_over(a, b), [FlowSpec(Recorder(0.5))],
                         duration=1.0, seed=12)
        sim.hop_jitter = 0.0
        sim.run()
        # depart(a) = 0.01 service + 0.01 delay = 0.02;
        # depart(b) = 0.02 + 0.02 service + 0.05 delay = 0.09;
        # notice = 0.09 + return delay 0.06 = 0.15.
        assert times and times[0] == pytest.approx(0.15, abs=1e-9)

    def test_stop_time_mi_accounting_not_inflated(self):
        stop_time_mi_accounting_holds(Simulation)

    def test_loss_notice_charges_downstream_queue_occupancy(self):
        loss_notices_charge_downstream_queues(Simulation)


def asym_topology(rev_pps=50.0, wire=True):
    """A live asymmetric dumbbell: fast ``fwd``, skinny queued ``rev``."""
    links = {"fwd": make_link(pps=1000.0, delay=0.01, queue=200, name="fwd"),
             "rev": make_link(pps=rev_pps, delay=0.01, queue=200, name="rev")}
    return Topology(links, (
        PathDef("through", ("fwd",), reverse_links=("rev",) if wire else None),
        PathDef("up", ("rev",), reverse_links=("fwd",) if wire else None)))


class TestReversePathQueueing:
    def run_through(self, topo, upload_rate):
        specs = [FlowSpec(ExternalRateController(50.0), path="through",
                          keep_packets=True)]
        if upload_rate:
            specs.append(FlowSpec(ExternalRateController(upload_rate),
                                  path="up"))
        sim = Simulation(topo, specs, duration=6.0, seed=30)
        record = sim.run_all()[0]
        return record, sim.flows[0]

    def test_idle_reverse_link_is_almost_pure_propagation(self):
        # Allow forward + ack serialization (~1.5 ms here) but no queueing.
        record, flow = self.run_through(asym_topology(), upload_rate=0.0)
        assert record.mean_rtt == pytest.approx(flow.base_rtt, rel=0.10)
        assert all(p.ack_queue_delay == 0.0 for p in flow.packets
                   if p.ack_time is not None)

    def test_loaded_reverse_link_delays_acks(self):
        """Ack delay strictly exceeds pure propagation when the reverse
        link carries competing data -- the physically-impossible-before
        regime this PR opens."""
        # Uploads at 100 pps into the 50 pps reverse link: its queue is
        # permanently deep, and through-flow acks wait in it.
        record, flow = self.run_through(asym_topology(), upload_rate=100.0)
        acked = [p for p in flow.packets if p.ack_time is not None]
        assert acked and any(p.ack_queue_delay > 0.0 for p in acked)
        assert record.mean_rtt > 1.5 * flow.base_rtt
        # The inflation is *reverse-path* queueing: the forward link
        # (1000 pps vs a 50 pps sender) never queues.
        assert all(p.queue_delay == pytest.approx(0.0, abs=1e-6)
                   for p in acked)

    def test_pure_propagation_twin_unaffected_by_reverse_load(self):
        record_wired, _ = self.run_through(asym_topology(), upload_rate=100.0)
        record_twin, flow = self.run_through(asym_topology(wire=False),
                                             upload_rate=100.0)
        assert record_twin.mean_rtt == pytest.approx(flow.base_rtt, rel=0.10)
        assert record_wired.mean_rtt > 1.5 * record_twin.mean_rtt

    def test_ack_path_delay_shows_up_in_mean_rtt_only_when_wired(self):
        quiet, _ = self.run_through(asym_topology(), upload_rate=0.0)
        loaded, _ = self.run_through(asym_topology(), upload_rate=100.0)
        assert loaded.mean_rtt > quiet.mean_rtt + 0.01
