"""PCC Allegro (Dong et al. 2015) -- micro-experiment rate control.

Allegro treats the network as a black box and runs randomised
controlled trials: each decision round sends at ``rate*(1+eps)`` for
two monitor intervals and ``rate*(1-eps)`` for two (interleaved), then
moves the base rate in whichever direction yielded higher empirical
utility.  Repeated moves in the same direction grow the step; a
reversal resets it.

Two fidelity points matter (both are how the real PCC sender works):

* results are attributed to trials by *send time* (see
  :mod:`repro.baselines._pcc_common`) -- loss notices arrive ~1 RTT
  late, and observation-time accounting would charge an up-trial's
  losses to the following down-trial, inverting the measured gradient;
* decisions are *sequential*: after the four trial intervals the sender
  stays at the base rate until the round's results are in, then decides
  and starts the next round.  Pipelining rounds lets several decisions
  fire on stale loss data and produces rate-crash cascades.

Utility is the original paper's sigmoid-gated form; the MOCC paper's
Table-1 summary (``T - delta*RTT``) is exposed separately as
:func:`repro.baselines.base.allegro_utility`.
"""

from __future__ import annotations

from repro.baselines._pcc_common import Trial, TrialTracker
from repro.baselines.base import allegro_sigmoid_utility
from repro.netsim.packet import Packet
from repro.netsim.sender import Controller, Flow, MonitorIntervalStats

__all__ = ["PCCAllegro"]


class PCCAllegro(Controller):
    """PCC Allegro rate control via sequential 4-MI micro-experiments."""

    kind = "rate"
    name = "PCC Allegro"

    #: Trial rate perturbation.
    EPSILON = 0.05
    #: Perturbation schedule within one decision round.
    PLAN = (+1, -1, -1, +1)

    def __init__(self, initial_rate: float = 20.0):
        self.base_rate = float(initial_rate)
        self.min_rate = 1.0
        self.step_fraction = 0.05
        self.max_step_multiplier = 4

        self._tracker = TrialTracker()
        self._position = 0            # index into PLAN, or len(PLAN) = waiting
        self._round = 0
        self._collected: list[Trial] = []
        self._consecutive = 0
        self._last_direction = 0

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
        sign = self._current_sign()
        rate = max(self.base_rate * (1.0 + sign * self.EPSILON), self.min_rate)
        self._tracker.begin(sign, rate, now, self._round)

    def _decide(self, trials: list[Trial]) -> None:
        up = [allegro_sigmoid_utility(t.rate, t.loss_rate) for t in trials if t.sign > 0]
        down = [allegro_sigmoid_utility(t.rate, t.loss_rate) for t in trials if t.sign < 0]
        if not up or not down:
            return
        up_mean = sum(up) / len(up)
        down_mean = sum(down) / len(down)
        if up_mean > down_mean:
            direction = +1
        elif down_mean > up_mean:
            direction = -1
        else:
            direction = 0

        if direction == 0:
            self._consecutive = 0
            self._last_direction = 0
            return
        if direction == self._last_direction:
            self._consecutive = min(self._consecutive + 1, self.max_step_multiplier)
        else:
            self._consecutive = 1
        self._last_direction = direction
        step = self.step_fraction * self._consecutive
        self.base_rate = max(self.base_rate * (1.0 + direction * step), self.min_rate)

    # --- pacing ------------------------------------------------------------------

    def pacing_rate(self, now: float) -> float:
        sign = self._current_sign()
        return max(self.base_rate * (1.0 + sign * self.EPSILON), self.min_rate)
