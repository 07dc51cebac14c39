"""Tests for the event-driven per-hop transit scheduler.

Two guarantees anchor the scheduler (the third, bit-identity of
single-hop shapes with the pre-refactor engine, is a frozen digest
check in ``tests/test_golden_traces.py``):

* **in-order arrivals** -- every link's ``transmit()`` offers are
  time-ordered across all flows and both directions;
* **honest shared-hop queueing** -- parking-lot results are identical
  serial vs. parallel.

Plus the satellites: real ack loss on queued reverse paths (cumulative
ack recovery and the retransmit-timeout fallback) and per-path ack
wire sizes.
"""

import numpy as np
import pytest

from repro.eval.parallel import ParallelRunner
from repro.eval.sweeps import multihop_churn_suite
from repro.netsim.link import Link
from repro.netsim.network import ACK_BYTES, FlowSpec, Simulation
from repro.netsim.packet import Packet
from repro.netsim.sender import ExternalRateController
from repro.netsim.topology import Topology
from repro.netsim.traces import ConstantTrace


def make_link(pps=100.0, delay=0.02, queue=50, loss=0.0, seed=0, name=""):
    return Link(ConstantTrace(pps), delay=delay, queue_size=queue,
                loss_rate=loss, rng=np.random.default_rng(seed), name=name)


def record_signature(record):
    """Full content of a FlowRecord, for exact equality checks."""
    return (record.scheme, record.mean_throughput_pps, record.mean_rtt,
            record.loss_rate, record.mean_utilization,
            tuple((s.start, s.end, s.sent, s.acked, s.lost, s.mean_rtt,
                   s.min_rtt, s.latency_gradient) for s in record.records))


def parking_lot_sim(duration=10.0, **kwargs):
    links = [make_link(pps=100.0, delay=0.01, queue=20, seed=1, name="a"),
             make_link(pps=100.0, delay=0.01, queue=20, seed=2, name="b")]
    topo = Topology.parking_lot(links)
    sim = Simulation(topo, [
        FlowSpec(ExternalRateController(90.0), path="through"),
        FlowSpec(ExternalRateController(60.0), path="cross0"),
        FlowSpec(ExternalRateController(60.0), path="cross1"),
    ], duration=duration, seed=3, **kwargs)
    return sim, links


class TestInOrderArrivals:
    """Every link sees a time-ordered transmit stream."""

    def test_event_engine_in_order_on_every_link(self):
        sim, links = parking_lot_sim()
        times = {id(l): [] for l in links}
        for link in links:
            original = link.transmit

            def spy(t, size=1.0, _orig=original, _log=times[id(link)]):
                _log.append(t)
                return _orig(t, size=size)

            link.transmit = spy
        sim.run_all()
        for link in links:
            offers = times[id(link)]
            assert len(offers) > 200
            assert all(t1 <= t2 for t1, t2 in zip(offers, offers[1:])), \
                f"link {link.name} saw out-of-order arrivals"
            assert link.reordered == 0

    def test_reverse_direction_in_order_too(self):
        """Wired reverse links also see time-ordered offers: acks are
        deferred per hop like data, not walked at rcv time."""
        links = {"fwd": make_link(pps=400.0, delay=0.01, queue=100, name="fwd"),
                 "mid": make_link(pps=120.0, delay=0.005, queue=40, name="mid"),
                 "rev": make_link(pps=60.0, delay=0.01, queue=40, name="rev")}
        topo = Topology(links, {"dl": ("fwd",), "up": ("rev", "mid")},
                        default_path="dl",
                        reverse_paths={"dl": ("rev",), "up": ("mid", "fwd")})
        sim = Simulation(topo, [
            FlowSpec(ExternalRateController(80.0), path="dl"),
            FlowSpec(ExternalRateController(50.0), path="up"),
        ], duration=8.0, seed=11)
        sim.run_all()
        assert all(l.reordered == 0 for l in links.values())


class TestSharedHopQueueing:
    def test_shared_hop_suite_serial_equals_parallel(self):
        """Two flows crossing one parking-lot hop see identical queue
        delays (and everything else) serial vs. parallel."""
        suite = multihop_churn_suite(("cubic", "bbr"), hops=2,
                                     bandwidth_mbps=16.0, delay_ms=8.0,
                                     duration=3.0, seeds=(5,))
        serial = ParallelRunner(n_workers=1, use_cache=False)
        parallel = ParallelRunner(n_workers=2, use_cache=False)
        flat_serial = [(r.scenario.name, record_signature(rec))
                       for r in serial.run(suite) for rec in r.records]
        flat_parallel = [(r.scenario.name, record_signature(rec))
                         for r in parallel.run(suite) for rec in r.records]
        assert flat_serial == flat_parallel


def ack_loss_topology(rev_queue=2, rev_pps=50.0, ack_bytes=None):
    """Fast forward link; skinny, shallow-buffered reverse link."""
    links = {"fwd": make_link(pps=1000.0, delay=0.01, queue=200, name="fwd"),
             "rev": make_link(pps=rev_pps, delay=0.01, queue=rev_queue,
                              name="rev")}
    ack = {} if ack_bytes is None else {"through": ack_bytes}
    return Topology(links, {"through": ("fwd",), "up": ("rev",)},
                    default_path="through",
                    reverse_paths={"through": ("rev",), "up": ("fwd",)},
                    ack_bytes=ack)


class TestAckLoss:
    """A reverse-path buffer drop now really drops the ack."""

    def run_through(self, topo, upload_rate=100.0, duration=8.0,
                    through_stop=float("inf")):
        specs = [FlowSpec(ExternalRateController(50.0), path="through",
                         keep_packets=True, stop_time=through_stop)]
        if upload_rate:
            specs.append(FlowSpec(ExternalRateController(upload_rate),
                                  path="up"))
        sim = Simulation(topo, specs, duration=duration, seed=21)
        records = sim.run_all()
        return records, sim.flows[0]

    def test_buffer_dropped_acks_are_recovered_or_timed_out(self):
        records, flow = self.run_through(ack_loss_topology())
        packets = [p for p in flow.packets]
        recovered = [p for p in packets if p.ack_recovered]
        timed_out = [p for p in packets if p.ack_dropped]
        # The overloaded shallow reverse buffer really eats acks...
        assert len(recovered) + len(timed_out) > 10
        # ...most are covered by later cumulative acks...
        assert recovered
        # ...and every packet is still accounted for exactly once.
        assert (flow.total_acked + flow.total_lost + flow.inflight
                == flow.total_sent)
        # Recovered acks carry the recovery moment, not their own
        # (never-completed) walk: RTT samples stay monotone per packet.
        for p in recovered:
            assert p.ack_time is not None and p.ack_time > p.send_time
        # Timed-out packets were counted as losses even though the
        # data itself was delivered.
        for p in timed_out:
            assert not p.dropped and p.ack_time is None
        assert flow.total_lost >= len(timed_out)

    def test_rto_fires_when_no_later_ack_arrives(self):
        """A sender that stops emitting cannot be rescued by a later
        cumulative ack: its trailing lost acks must surface as
        retransmit timeouts, not hang in flight forever."""
        records, flow = self.run_through(ack_loss_topology(rev_queue=0),
                                         duration=12.0, through_stop=4.0)
        assert flow.pending_acks == {}
        assert flow.inflight == 0
        assert any(p.ack_dropped for p in flow.packets)
        assert (flow.total_acked + flow.total_lost == flow.total_sent)

    def test_loss_notices_are_never_lost(self):
        """Forward drops must reach the sender as loss events even when
        the reverse buffer is overflowing (loss information is implied
        by every later cumulative ack, so notices convert to delay)."""
        links = {"fwd": make_link(pps=40.0, delay=0.01, queue=2, name="fwd"),
                 "rev": make_link(pps=50.0, delay=0.01, queue=0, name="rev")}
        topo = Topology(links, {"through": ("fwd",), "up": ("rev",)},
                        default_path="through",
                        reverse_paths={"through": ("rev",), "up": ("fwd",)})
        specs = [FlowSpec(ExternalRateController(80.0), path="through",
                          keep_packets=True),
                 FlowSpec(ExternalRateController(100.0), path="up")]
        sim = Simulation(topo, specs, duration=8.0, seed=22)
        sim.run_all()
        flow = sim.flows[0]
        forward_drops = [p for p in flow.packets if p.dropped]
        assert len(forward_drops) > 50
        # Every observed-by-now forward drop was delivered as a loss
        # (the remainder are still in flight at the horizon).
        assert flow.total_lost > 0.8 * len(forward_drops)

    def test_loss_notice_rescues_parked_acks(self):
        """A loss notice is cumulative feedback: it confirms delivery
        of everything below the gap, so a parked ack below the lost
        sequence recovers instead of waiting out its RTO."""
        topo = ack_loss_topology()
        sim = Simulation(topo, [FlowSpec(ExternalRateController(10.0),
                                         path="through")], duration=1.0)
        flow = sim.flows[0]
        parked = Packet(flow_id=0, seq=0, send_time=0.0)
        flow.note_sent(parked)
        flow.pending_acks[0] = parked
        lost = Packet(flow_id=0, seq=1, send_time=0.1, dropped=True)
        flow.note_sent(lost)
        sim.now = 0.5
        sim._handle_loss(flow, lost)
        assert parked.ack_recovered and parked.ack_time == 0.5
        assert flow.pending_acks == {}
        assert flow.total_acked == 1 and flow.total_lost == 1


class TestPerPathAckBytes:
    def test_default_matches_engine_constant(self):
        topo = ack_loss_topology()
        sim = Simulation(topo, [FlowSpec(ExternalRateController(10.0),
                                         path="through")], duration=1.0)
        assert sim.flows[0].ack_bytes == ACK_BYTES

    def test_path_override_reaches_flow(self):
        topo = ack_loss_topology(ack_bytes=600)
        sim = Simulation(topo, [FlowSpec(ExternalRateController(10.0),
                                         path="through")], duration=1.0)
        assert sim.flows[0].ack_bytes == 600
        assert sim.flows[0].ack_size == pytest.approx(0.4)

    def test_fat_acks_congest_the_reverse_link_sooner(self):
        """Same topology, same load: 600-byte acks must inflate RTT
        over 40-byte acks (15x the service demand per ack)."""
        def mean_rtt(ack_bytes):
            topo = ack_loss_topology(rev_queue=50, rev_pps=30.0,
                                     ack_bytes=ack_bytes)
            sim = Simulation(topo, [
                FlowSpec(ExternalRateController(50.0), path="through"),
                FlowSpec(ExternalRateController(20.0), path="up"),
            ], duration=8.0, seed=23)
            return sim.run_all()[0].mean_rtt

        assert mean_rtt(600) > 1.2 * mean_rtt(None)
