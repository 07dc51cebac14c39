"""Packet conservation, checked from outside the engine at slice boundaries.

A packet a flow has sent and not yet seen acked or lost is in exactly
one place: a pending heap event carrying it (a forward hop, the
receiver's observation, the ack or loss notice walking back) or the
flow's ``pending_acks`` (an ack the reverse path dropped, waiting for
a later cumulative ack or its retransmit timeout).  So at every
``step_until`` boundary, for every flow::

    inflight == total_sent - total_acked - total_lost
             == (EV_HOP / EV_RCV / EV_ACK / EV_LOSS entries carrying it)
                + len(pending_acks)

The engine decrements ``inflight`` without clamping it at zero, so a
packet accounted twice shows here instead of being hidden.  The law is
checked on every golden and learned cell and on the every-kind
scenario of ``test_engine_invariants.py``, and each of three planted
accounting defects -- exec'd into the engine by one anchored
substitution, as there -- must break it.
"""

from collections import Counter

import pytest

import repro.netsim.network as network
from repro.eval.scenarios import build_scenario_simulation
from test_engine_invariants import SOURCE, engine, every_kind_simulation
from test_golden_traces import golden_suites, learned_suites

#: Seconds between checks: off every MI and trace grid on purpose.
SLICE_S = 0.37
#: Heap event kinds that carry one of the flow's in-flight packets.
CARRYING = (network.EV_HOP, network.EV_RCV, network.EV_ACK, network.EV_LOSS)

#: ``id: (text in network.py, its planted replacement)``.
DEFECTS = {
    "stale-rto-counted": (
        "        if flow.pending_acks.pop(packet.seq, None) is None:\n"
        "            return  # already recovered by a later cumulative ack\n",
        "        flow.pending_acks.pop(packet.seq, None)\n"),
    "recovered-ack-left-parked": (
        "recovered = flow.pending_acks.pop(seq)",
        "recovered = flow.pending_acks[seq]"),
    "loss-noted-twice": (
        "        self._recover_pending(flow, packet.seq)\n"
        "        flow.note_loss(packet, self.now)\n",
        "        self._recover_pending(flow, packet.seq)\n"
        "        flow.note_loss(packet, self.now)\n"
        "        flow.note_loss(packet, self.now)\n"),
}


def imbalances(sim) -> list[str]:
    """One message per flow whose three in-flight counts disagree."""
    carried = Counter(entry[3].flow_id for entry in sim._heap
                      if entry[2] in CARRYING)
    found = []
    for flow in sim.flows:
        ledger = flow.total_sent - flow.total_acked - flow.total_lost
        located = carried[flow.flow_id] + len(flow.pending_acks)
        if not flow.inflight == ledger == located:
            found.append(f"t={sim.now:.2f} flow {flow.flow_id}: inflight "
                         f"{flow.inflight}, sent-acked-lost {ledger}, "
                         f"in heap or parked {located}")
    return found


def checked_run(sim) -> tuple[int, list[str]]:
    """Step ``sim`` to its duration in ``SLICE_S`` slices, checking
    every flow at every boundary; returns (checks, violations)."""
    checks, found = 0, []
    horizon = 0.0
    while horizon < sim.duration:
        horizon += SLICE_S
        sim.state.step_until(horizon)
        checks += len(sim.flows)
        found += imbalances(sim)
    return checks, found


def test_golden_and_learned_cells_conserve_packets():
    cells = [cell for suite in golden_suites() + learned_suites()
             for cell in suite.expand()]
    assert len(cells) == 16
    checks, found = 0, []
    for cell in cells:
        cell_checks, cell_found = checked_run(build_scenario_simulation(cell))
        checks += cell_checks
        found += [f"{cell.name}: {message}" for message in cell_found]
    assert checks == 458
    assert found == []


def test_every_kind_scenario_conserves_packets():
    checks, found = checked_run(every_kind_simulation(network.Simulation))
    assert checks == 17 and found == []


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_planted_accounting_defect_breaks_conservation(defect):
    old, new = DEFECTS[defect]
    assert SOURCE.count(old) == 1, f"{defect}: its site moved; re-anchor it"
    _, found = checked_run(every_kind_simulation(engine(
        SOURCE.replace(old, new))))
    assert found, f"{defect} kept every packet accounted for"
