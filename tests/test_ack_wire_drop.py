"""Random (wire) drops of acks are real losses on the event engine.

PR 4 made *buffer*-dropped acks real (pending_acks + rto recovery) but
left random wire drops of acks delivered at normal timing -- the
ROADMAP gap this PR closes: a corrupted ack never reaches the sender
either, and a real stack recovers exactly the same way (a later
cumulative ack, or a spurious retransmit timeout).
"""

import numpy as np
import pytest

from repro.netsim.link import Link
from repro.netsim.network import FlowSpec, Simulation
from repro.netsim.sender import ExternalRateController
from repro.netsim.topology import PathDef, Topology
from repro.netsim.traces import ConstantTrace


def lossy_reverse_topology(rev_loss=0.3, rev_queue=500):
    """Fast, loss-free forward link; lossy but deep-buffered reverse
    link (wire drops only -- the buffer never overflows)."""
    links = {
        "fwd": Link(ConstantTrace(1000.0), delay=0.01, queue_size=200,
                    rng=np.random.default_rng(1), name="fwd"),
        "rev": Link(ConstantTrace(500.0), delay=0.01, queue_size=rev_queue,
                    loss_rate=rev_loss, rng=np.random.default_rng(2),
                    name="rev"),
    }
    return Topology(links, (PathDef("through", ("fwd",), reverse_links=("rev",)),
                            PathDef("up", ("rev",), reverse_links=("fwd",))))


def run_through(topo, duration=8.0, stop=float("inf"),
                simulation_cls=Simulation):
    sim = simulation_cls(topo, [FlowSpec(ExternalRateController(60.0),
                                     path="through", keep_packets=True,
                                     stop_time=stop)],
                     duration=duration, seed=33)
    sim.run_all()
    return sim.flows[0], sim


def wire_drops_park_and_recover(simulation_cls) -> None:
    flow, sim = run_through(lossy_reverse_topology(),
                            simulation_cls=simulation_cls)
    # The reverse buffer is deep: every reverse drop was a wire drop.
    rev = sim.topology.links["rev"]
    assert rev.dropped_random > 50
    assert rev.dropped_buffer == 0
    recovered = [p for p in flow.packets if p.ack_recovered]
    timed_out = [p for p in flow.packets if p.ack_dropped]
    # ~30% of acks are corrupted: most recover via later cumulative
    # acks, the trailing ones surface as retransmit timeouts.
    assert len(recovered) + len(timed_out) > 30
    assert recovered
    # Exact conservation: every packet accounted once.
    assert (flow.total_acked + flow.total_lost + flow.inflight
            == flow.total_sent)
    for p in recovered:
        assert p.ack_time is not None and p.ack_time > p.send_time
    for p in timed_out:
        assert not p.dropped and p.ack_time is None


class TestWireDroppedAcks:
    def test_wire_drops_park_and_recover(self):
        wire_drops_park_and_recover(Simulation)

    def test_trailing_wire_drops_surface_as_rto(self):
        """A sender that stops emitting cannot be rescued by later
        cumulative acks: trailing corrupted acks must time out instead
        of hanging in flight forever."""
        flow, _ = run_through(lossy_reverse_topology(rev_loss=0.5),
                              duration=12.0, stop=4.0)
        assert flow.pending_acks == {}
        assert flow.inflight == 0
        assert flow.total_acked + flow.total_lost == flow.total_sent

    def test_loss_notices_still_never_lost(self):
        """Forward drops must reach the sender as loss events even over
        a randomly-lossy reverse path (a notice rides every later
        cumulative ack, so corruption shows up as timing, not loss)."""
        topo = lossy_reverse_topology(rev_loss=0.3)
        # Squeeze the forward link so it drops (the trace setter keeps
        # the cached rate coherent; queue_size is read live).
        topo.links["fwd"].trace = ConstantTrace(40.0)
        topo.links["fwd"].queue_size = 2
        flow, _ = run_through(topo)
        forward_drops = [p for p in flow.packets if p.dropped]
        assert len(forward_drops) > 50
        assert flow.total_lost >= 0.8 * len(forward_drops)

    def test_wire_drops_inflate_measured_rtt(self):
        """A recovered ack carries the *recovery* moment (the next
        surviving cumulative ack), not its own would-be arrival, so a
        lossy ack path shows up in the sender's RTT signal even when
        cumulative recovery saves every packet."""
        lossy_flow, _ = run_through(lossy_reverse_topology())
        clean_flow, _ = run_through(lossy_reverse_topology(rev_loss=0.0))

        def mean_rtt(flow):
            rtts = [p.rtt for p in flow.packets if p.rtt is not None]
            return sum(rtts) / len(rtts)

        assert any(p.ack_recovered for p in lossy_flow.packets)
        assert not any(p.ack_recovered for p in clean_flow.packets)
        assert mean_rtt(lossy_flow) > 1.05 * mean_rtt(clean_flow)
