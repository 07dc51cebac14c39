"""Engine laws, checked from outside the engine at slice boundaries.

Each law reads the simulation between ``step_until`` slices -- never
inside ``_drain`` -- and compares it with the previous boundary:

* **Packet conservation.**  A packet a flow has sent and not yet seen
  acked or lost is in exactly one place: a pending heap event carrying
  it (a forward hop, the receiver's observation, the ack or loss notice
  walking back) or the flow's ``pending_acks`` (an ack the reverse path
  dropped, waiting for a later cumulative ack or its retransmit
  timeout).  So for every flow::

      inflight == total_sent - total_acked - total_lost
               == (EV_HOP / EV_RCV / EV_ACK / EV_LOSS entries carrying it)
                  + len(pending_acks)

  The engine decrements ``inflight`` without clamping it at zero, so a
  packet accounted twice shows here instead of being hidden.
* **Per-link FIFO.**  Every link is offered packets in time order: its
  ``reordered`` count stays 0 and its ``last_arrival`` never falls.
* **A monotone clock.**  ``sim.now`` never falls, and no pending heap
  event sits at or before the horizon just drained.
* **Bounded backlog.**  A link's ``busy_until`` never falls, and its
  ``backlog_at(now)`` stays in ``[0, queue_size + 1]``: the buffer plus
  the packet in service.  Today the law allows ``KNOWN_OVERFILL`` more.
  The drop-tail test in ``Link.transmit`` admits a packet while the
  backlog is below ``queue_size + 1`` and the packet's own service then
  adds up to one more, so the buffer holds up to ``queue_size + 1``
  *waiting* packets -- one more than the comment beside that test says
  (ROADMAP item 9).  ``test_backlog_within_its_buffer`` checks the
  intended bound on the cells that exceed it as a strict xfail, so the
  fix turns it green and ``KNOWN_OVERFILL`` must then go to 0.

The laws are checked on every golden and learned cell and on the
every-kind scenario of ``test_engine_invariants.py``, and each law's
planted defects -- exec'd into the engine by one anchored substitution,
as there -- must break it.
"""

from collections import Counter
from functools import partial

import pytest

import repro.netsim.network as network
from repro.eval.scenarios import build_scenario_simulation
from test_engine_invariants import SOURCE, engine, every_kind_simulation
from test_golden_traces import golden_suites, learned_suites

#: Seconds between checks: off every MI and trace grid on purpose.
SLICE_S = 0.37
#: Heap event kinds that carry one of the flow's in-flight packets.
CARRYING = (network.EV_HOP, network.EV_RCV, network.EV_ACK, network.EV_LOSS)


def snapshot(sim) -> tuple:
    """What the next boundary's laws compare against: the clock and,
    per link, ``(last_arrival, busy_until)``."""
    return sim.now, [(link.last_arrival, link.busy_until)
                     for link in sim.links]


def imbalances(sim, drained, before) -> list[str]:
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


def fifo_breaks(sim, drained, before) -> list[str]:
    """One message per link offered a packet out of time order."""
    _, links_before = before
    return [f"t={sim.now:.2f} link {link.name!r}: {link.reordered} "
            f"reordered, last arrival {last} -> {link.last_arrival}"
            for link, (last, _) in zip(sim.links, links_before)
            if link.reordered or link.last_arrival < last]


def clock_breaks(sim, drained, before) -> list[str]:
    """A clock that fell, or an event left at or before ``drained``."""
    now_before, _ = before
    found = []
    if sim.now < now_before:
        found.append(f"clock fell {now_before} -> {sim.now}")
    if sim._heap and sim._heap[0][0] <= drained:
        found.append(f"t={sim.now:.2f}: an event at {sim._heap[0][0]} is "
                     f"still pending after draining to {drained}")
    return found


#: Packets of backlog a link may hold past ``queue_size + 1`` until the
#: drop-tail off-by-one in ``Link.transmit`` (ROADMAP item 9) is fixed.
KNOWN_OVERFILL = 1
#: The checked cells whose backlog exceeds ``queue_size + 1`` today.
OVERFILLED = ("golden-single/duo/loss=0.0/trace=fig1-step",
              "golden-single/duo/loss=0.02/trace=fig1-step",
              "golden-single/trio/loss=0.0/trace=None",
              "golden-single/trio/loss=0.02/trace=None",
              "golden-lot/bbr-through/churn=on-off-g1-on1.5-p2.5-s1",
              "golden-ack/cubic-dl",
              "golden-ack/vivace-dl",
              "golden-learned/aurora")


def backlog_breaks(sim, drained, before,
                   overfill=KNOWN_OVERFILL) -> list[str]:
    """One message per link whose busy horizon fell or whose backlog
    left ``[0, queue_size + 1 + overfill]``."""
    _, links_before = before
    found = []
    for link, (_, busy) in zip(sim.links, links_before):
        backlog = link.backlog_at(sim.now)
        if (link.busy_until < busy
                or not 0.0 <= backlog <= link.queue_size + 1 + overfill):
            found.append(f"t={sim.now:.2f} link {link.name!r}: busy until "
                         f"{busy} -> {link.busy_until}, backlog {backlog:.3f} "
                         f"of {link.queue_size}")
    return found


LAWS = {"conservation": imbalances, "fifo": fifo_breaks,
        "clock": clock_breaks, "backlog": backlog_breaks}

#: ``id: (law it breaks, text in network.py, its planted replacement)``.
DEFECTS = {
    "stale-rto-counted": (
        "conservation",
        "        if flow.pending_acks.pop(packet.seq, None) is None:\n"
        "            return  # already recovered by a later cumulative ack\n",
        "        flow.pending_acks.pop(packet.seq, None)\n"),
    "recovered-ack-left-parked": (
        "conservation",
        "recovered = flow.pending_acks.pop(seq)",
        "recovered = flow.pending_acks[seq]"),
    "loss-noted-twice": (
        "conservation",
        "        self._recover_pending(flow, packet.seq)\n"
        "        flow.note_loss(packet, self.now)\n",
        "        self._recover_pending(flow, packet.seq)\n"
        "        flow.note_loss(packet, self.now)\n"
        "        flow.note_loss(packet, self.now)\n"),
    # A buffer drop re-offered to its link once the queue ahead of it
    # drains: an offer stamped in the future, so later arrivals come
    # in behind it.
    "drop-reoffered-at-drain": (
        "fifo",
        "cursor = self.now + queue_delay + links[hop].delay",
        "cursor = links[hop].transmit(self.now + queue_delay)[2]"),
    # "No cap" spelled as a negative budget, then tested with ``<``:
    # every slice drains nothing.
    "negative-budget-drains-nothing": (
        "clock",
        "while heap and processed != budget:",
        "while heap and processed < budget:"),
    # A later hop's service demand in bytes, not packet-equivalents.
    "hop-size-in-bytes": (
        "backlog",
        "flow.links[hop].transmit(self.now)",
        "flow.links[hop].transmit(self.now, packet.size_bytes)"),
}


def checked_run(sim, laws=tuple(LAWS.values())) -> tuple[int, list[str]]:
    """Step ``sim`` to its duration in ``SLICE_S`` slices, checking
    every law at every boundary; returns (boundaries, violations)."""
    boundaries, found = 0, []
    before = snapshot(sim)
    horizon = 0.0
    while horizon < sim.duration:
        horizon += SLICE_S
        sim.state.step_until(horizon)
        drained = min(horizon, sim.duration)
        boundaries += 1
        for law in laws:
            found += law(sim, drained, before)
        before = snapshot(sim)
    return boundaries, found


def test_golden_and_learned_cells_keep_every_law():
    cells = [cell for suite in golden_suites() + learned_suites()
             for cell in suite.expand()]
    assert len(cells) == 16
    boundaries, found = 0, []
    for cell in cells:
        cell_boundaries, cell_found = checked_run(
            build_scenario_simulation(cell))
        boundaries += cell_boundaries
        found += [f"{cell.name}: {message}" for message in cell_found]
    assert boundaries == 172
    assert found == []


def test_every_kind_scenario_keeps_every_law():
    boundaries, found = checked_run(every_kind_simulation(network.Simulation))
    assert boundaries == 17 and found == []
    # The unmutated source exec'd as the engine keeps them too.
    assert checked_run(every_kind_simulation(engine(SOURCE))) == (17, [])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Link.transmit admits queue_size + 1 waiting "
                          "packets (ROADMAP item 9)")
def test_backlog_within_its_buffer():
    cells = {cell.name: cell for suite in golden_suites() + learned_suites()
             for cell in suite.expand()}
    exact = (partial(backlog_breaks, overfill=0),)
    overfilled = [name for name in OVERFILLED
                  if checked_run(build_scenario_simulation(cells[name]),
                                 laws=exact)[1]]
    if checked_run(every_kind_simulation(network.Simulation), laws=exact)[1]:
        overfilled.append("every-kind")
    assert overfilled == []


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_planted_defect_breaks_its_law(defect):
    law, old, new = DEFECTS[defect]
    assert SOURCE.count(old) == 1, f"{defect}: its site moved; re-anchor it"
    _, found = checked_run(every_kind_simulation(engine(
        SOURCE.replace(old, new))), laws=(LAWS[law],))
    assert found, f"{defect} kept the {law} law"


def test_every_law_has_a_planted_defect():
    assert {law for law, _, _ in DEFECTS.values()} == set(LAWS)
