"""The engine invariants no lint rule checks are loud at run time.

The handler table, the five-field heap tuples, ``Packet``'s slots and
``Link.transmit``'s four-value result are enforced by the interpreter,
not by ``repro.analysis``.  Each case here plants one such defect in the
source of :mod:`repro.netsim.network`, execs the mutated module, and
runs its ``Simulation`` on one small scenario that reaches every event
kind: a two-hop forward path whose second hop drops, and a lossy,
deep-buffered reverse link whose wire-dropped acks are either recovered
by a later cumulative ack or time out after the flow stops.  A planted
defect must raise or change the run.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.netsim.network as network
from repro.netsim.link import Link
from repro.netsim.network import FlowSpec
from repro.netsim.sender import ExternalRateController
from repro.netsim.topology import PathDef, Topology
from repro.netsim.traces import ConstantTrace

SOURCE = Path(network.__file__).read_text()

#: ``id: (text in network.py, its planted replacement)``.
DEFECTS = {
    "rto-slot-dropped": (
        "self._handle_ack_rto, self._handle_mi)",
        "self._handle_mi)"),
    "loss-rto-swapped": (
        "None, None, self._handle_loss,\n"
        "            self._handle_ack_rto, self._handle_mi)",
        "None, None, self._handle_ack_rto,\n"
        "            self._handle_loss, self._handle_mi)"),
    "hop-slot-none": (
        "self._handle_start, None, self._advance_packet,",
        "self._handle_start, None, None,"),
    "push-4-tuple": (
        "heappush(self._heap, (time, seq, kind, flow, packet))",
        "heappush(self._heap, (time, seq, kind, flow))"),
    "reverse-loss-4-tuple": (
        "heappush(self._heap, (cursor, seq, EV_LOSS, flow, packet))",
        "heappush(self._heap, (cursor, seq, EV_LOSS, flow))"),
    "rto-literal-kind": (
        "self._push(self.now + rto, EV_RTO, flow, packet)",
        "self._push(self.now + rto, 5, flow, packet)"),
    "slot-typo-ack-dropped": (
        "packet.ack_dropped = True",
        "packet.ack_droped = True"),
    "slot-typo-ack-recovered": (
        "recovered.ack_recovered = True",
        "recovered.ack_recoverd = True"),
    "slot-typo-drop-kind": (
        "packet.drop_kind = drop_kind",
        "packet.drop_knd = drop_kind"),
    "forward-hop-3-unpack": (
        "delivered, drop_kind, depart, queue_delay = \\\n"
        "            flow.links[hop].transmit(self.now)",
        "delivered, drop_kind, depart = \\\n"
        "            flow.links[hop].transmit(self.now)"),
    "reverse-walk-3-unpack": (
        "delivered, drop_kind, depart, queue_delay = \\\n"
        "                link.transmit(self.now, size)",
        "delivered, drop_kind, depart = \\\n"
        "                link.transmit(self.now, size)"),
}


def engine(source: str):
    """The ``Simulation`` class of ``source`` run as the engine module."""
    namespace = {"__name__": network.__name__}
    exec(compile(source, network.__file__, "exec"), namespace)
    return namespace["Simulation"]


def every_kind_topology() -> Topology:
    links = {
        "a": Link(ConstantTrace(1000.0), delay=0.005, queue_size=200,
                  rng=np.random.default_rng(1), name="a"),
        "b": Link(ConstantTrace(40.0), delay=0.005, queue_size=2,
                  rng=np.random.default_rng(2), name="b"),
        "rev": Link(ConstantTrace(500.0), delay=0.01, queue_size=500,
                    loss_rate=0.3, rng=np.random.default_rng(3), name="rev"),
    }
    return Topology(links, (PathDef("through", ("a", "b"),
                                    reverse_links=("rev",)),))


def every_kind_simulation(simulation_cls):
    """The scenario, built (not run) on ``simulation_cls``."""
    return simulation_cls(
        every_kind_topology(),
        [FlowSpec(ExternalRateController(60.0), path="through",
                  keep_packets=True, stop_time=3.0)],
        duration=6.0, seed=7)


def run(simulation_cls):
    """Run the scenario on ``simulation_cls``; return the flow and the
    run's outcome, down to every packet's fate."""
    sim = every_kind_simulation(simulation_cls)
    sim.run_all()
    flow = sim.flows[0]
    outcome = (sim.events_processed, flow.total_sent, flow.total_acked,
               flow.total_lost, flow.inflight,
               [(p.ack_time, p.dropped, p.drop_kind, p.ack_dropped,
                 p.ack_recovered) for p in flow.packets])
    return flow, outcome


def test_scenario_reaches_every_defect_site():
    flow, outcome = run(engine(SOURCE))
    # Exec'ing the unmutated source is the engine itself...
    assert outcome == run(network.Simulation)[1]
    # ...and the run walks every path a defect sits on: hop events,
    # forward buffer drops, reverse loss notices, recovered acks and
    # retransmit timeouts.
    assert any(p.dropped and p.drop_kind == "buffer" for p in flow.packets)
    assert any(p.ack_recovered for p in flow.packets)
    assert any(p.ack_dropped for p in flow.packets)
    assert flow.total_lost > 0 and flow.pending_acks == {}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_planted_defect_raises_or_changes_the_run(defect):
    old, new = DEFECTS[defect]
    assert SOURCE.count(old) == 1, f"{defect}: its site moved; re-anchor it"
    mutant = engine(SOURCE.replace(old, new))
    try:
        _, outcome = run(mutant)
    except (AttributeError, IndexError, TypeError, ValueError):
        return
    assert outcome != run(network.Simulation)[1]
