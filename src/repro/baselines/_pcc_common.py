"""The PCC family's shared round: micro-experiments and their accounting.

:class:`PCCController` runs the round both PCC senders share: the
``PLAN`` of perturbed trial intervals at ``rate*(1 +/- EPSILON)``, then
the base rate until the round's results are in, then one decision.
What the decision does with the trials -- Allegro's direction test,
Vivace's gradient step -- is each subclass's ``_decide``.

PCC's utility must be computed over the packets *sent during* each
trial interval: loss notifications arrive roughly one RTT after the
offending send, so attributing them to the interval in which they are
*observed* systematically charges an up-trial's losses to the following
down-trial and inverts the measured gradient.  The
:class:`TrialTracker` therefore matches every ack/loss back to the
trial whose time window contains the packet's send time, and only
releases a trial for utility evaluation once a grace period (~1 RTT)
has passed since the trial ended.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.packet import Packet
from repro.netsim.sender import Controller, Flow, MonitorIntervalStats

__all__ = ["PCCController", "Trial", "TrialTracker"]


@dataclass
class Trial:
    """One monitor interval sent at a perturbed trial rate."""

    sign: int              # +1 / -1 perturbation direction (0 = neutral)
    rate: float            # the trial's sending rate (pps)
    start: float
    end: float = float("inf")
    acked: int = 0
    lost: int = 0
    rtt_sum: float = 0.0
    round_id: int = 0

    @property
    def loss_rate(self) -> float:
        total = self.acked + self.lost
        return self.lost / total if total else 0.0

    @property
    def mean_rtt(self) -> float | None:
        return self.rtt_sum / self.acked if self.acked else None

    def goodput(self) -> float:
        """Delivered-rate estimate: trial rate discounted by loss."""
        return self.rate * (1.0 - self.loss_rate)


class TrialTracker:
    """Send-time attribution of acks/losses to trial windows."""

    def __init__(self):
        self._open: list[Trial] = []

    def begin(self, sign: int, rate: float, now: float, round_id: int) -> Trial:
        """Close the running trial (if any) and start a new one."""
        if self._open and self._open[-1].end == float("inf"):
            self._open[-1].end = now
        trial = Trial(sign=sign, rate=rate, start=now, round_id=round_id)
        self._open.append(trial)
        return trial

    def _find(self, send_time: float) -> Trial | None:
        for trial in self._open:
            if trial.start <= send_time < trial.end:
                return trial
        return None

    def on_ack(self, packet: Packet, now: float) -> None:
        trial = self._find(packet.send_time)
        if trial is not None:
            trial.acked += 1
            trial.rtt_sum += now - packet.send_time

    def on_loss(self, packet: Packet) -> None:
        trial = self._find(packet.send_time)
        if trial is not None:
            trial.lost += 1

    def pop_resolved(self, now: float, grace: float) -> list[Trial]:
        """Remove and return trials whose results are complete.

        A trial is resolved once ``grace`` seconds (~1 RTT, covering the
        ack/loss notification delay) have passed since it ended.
        """
        resolved = [t for t in self._open if t.end + grace <= now]
        if resolved:
            self._open = [t for t in self._open if t.end + grace > now]
        return resolved


class PCCController(Controller):
    """Sequential PCC rounds over send-time-attributed trials.

    Each round sends one monitor interval per ``PLAN`` entry at the
    base rate perturbed by that entry's sign, then holds the base rate
    until every trial of the round has resolved (a grace of 1.5 RTT
    after it ended), and hands the trials to :meth:`_decide`.
    """

    kind = "rate"

    #: Trial rate perturbation.
    EPSILON = 0.05
    #: Perturbation schedule within one decision round.
    PLAN = (+1, -1, -1, +1)

    def __init__(self, initial_rate: float):
        self.base_rate = float(initial_rate)
        self.min_rate = 1.0
        self._tracker = TrialTracker()
        self._position = 0            # index into PLAN, or len(PLAN) = waiting
        self._round = 0
        self._collected: list[Trial] = []

    # --- datapath events --------------------------------------------------

    def on_flow_start(self, flow: Flow, now: float) -> None:
        self._begin_interval(now)

    def on_ack(self, flow: Flow, packet: Packet, now: float) -> None:
        self._tracker.on_ack(packet, now)

    def on_loss(self, flow: Flow, packet: Packet, now: float) -> None:
        self._tracker.on_loss(packet)

    def on_mi(self, flow: Flow, stats: MonitorIntervalStats, now: float) -> None:
        grace = 1.5 * (flow.srtt if flow.srtt is not None else stats.base_rtt)
        for trial in self._tracker.pop_resolved(now, grace):
            if trial.round_id == self._round and trial.sign != 0:
                self._collected.append(trial)

        if self._position < len(self.PLAN):
            self._position += 1
        if self._position >= len(self.PLAN) and len(self._collected) >= len(self.PLAN):
            self._decide(self._collected)
            self._collected = []
            self._round += 1
            self._position = 0
        self._begin_interval(now)

    # --- decision logic ------------------------------------------------------

    def _current_sign(self) -> int:
        if self._position < len(self.PLAN):
            return self.PLAN[self._position]
        return 0  # waiting at the base rate for results

    def _begin_interval(self, now: float) -> None:
        self._tracker.begin(self._current_sign(), self.pacing_rate(now), now,
                            self._round)

    def _decide(self, trials: list[Trial]) -> None:
        """Move ``base_rate`` on one round's resolved, perturbed trials."""
        raise NotImplementedError

    # --- pacing ------------------------------------------------------------------

    def pacing_rate(self, now: float) -> float:
        sign = self._current_sign()
        return max(self.base_rate * (1.0 + sign * self.EPSILON), self.min_rate)
