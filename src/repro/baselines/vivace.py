"""PCC Vivace (Dong et al. 2018) -- gradient-ascent rate control.

Vivace replaces Allegro's direction test with online (no-regret)
gradient ascent on a smoother utility

    u(x) = x^0.9 - b * x * (dRTT/dt)+ - c * x * L

Each decision round tests ``rate*(1+eps)`` and ``rate*(1-eps)`` for two
monitor intervals each (mirrored, like Allegro's plan), estimates the
utility gradient from the per-trial results, and steps the rate by
``theta * gradient`` with a confidence amplifier that grows while the
gradient sign persists and a bound on per-decision change.

Like :class:`~repro.baselines.allegro.PCCAllegro`, trials are
attributed by send time and decisions are sequential (the sender holds
the base rate until a round's results are in).  Rates inside the
utility are expressed in Mbps -- the units of the Vivace paper -- so
the published coefficients ``b`` and ``c`` keep their intended balance.
"""

from __future__ import annotations

from repro.baselines._pcc_common import Trial, TrialTracker
from repro.baselines.base import vivace_utility
from repro.netsim.packet import Packet
from repro.netsim.sender import Controller, Flow, MonitorIntervalStats
from repro.netsim.traces import pps_to_mbps

__all__ = ["PCCVivace"]


class PCCVivace(Controller):
    """PCC Vivace rate control via sequential utility-gradient rounds."""

    kind = "rate"
    name = "PCC Vivace"

    EPSILON = 0.05
    PLAN = (+1, -1, -1, +1)

    def __init__(self, initial_rate: float = 20.0, packet_bytes: int = 1500):
        self.base_rate = float(initial_rate)
        self.min_rate = 1.0
        self.theta = 1.0
        self.max_change_fraction = 0.25
        self.packet_bytes = packet_bytes

        self._tracker = TrialTracker()
        self._position = 0
        self._round = 0
        self._collected: list[Trial] = []
        self._confidence = 1.0
        self._last_sign = 0
        self._rtt_gradient = 0.0

    # --- datapath events --------------------------------------------------

    def on_flow_start(self, flow: Flow, now: float) -> None:
        self._begin_interval(now)

    def on_ack(self, flow: Flow, packet: Packet, now: float) -> None:
        self._tracker.on_ack(packet, now)

    def on_loss(self, flow: Flow, packet: Packet, now: float) -> None:
        self._tracker.on_loss(packet)

    def on_mi(self, flow: Flow, stats: MonitorIntervalStats, now: float) -> None:
        self._rtt_gradient = stats.latency_gradient
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
        return 0

    def _begin_interval(self, now: float) -> None:
        sign = self._current_sign()
        rate = max(self.base_rate * (1.0 + sign * self.EPSILON), self.min_rate)
        self._tracker.begin(sign, rate, now, self._round)

    def _utility(self, trial: Trial) -> float:
        return vivace_utility(pps_to_mbps(trial.rate, self.packet_bytes),
                              self._rtt_gradient, trial.loss_rate)

    def _decide(self, trials: list[Trial]) -> None:
        up = [self._utility(t) for t in trials if t.sign > 0]
        down = [self._utility(t) for t in trials if t.sign < 0]
        if not up or not down:
            return
        rate_mbps = pps_to_mbps(self.base_rate, self.packet_bytes)
        delta = 2.0 * self.EPSILON * rate_mbps
        if delta <= 0:
            return
        gradient = (sum(up) / len(up) - sum(down) / len(down)) / delta

        sign = 1 if gradient > 0 else (-1 if gradient < 0 else 0)
        if sign != 0 and sign == self._last_sign:
            self._confidence = min(self._confidence * 2.0, 1024.0)
        else:
            self._confidence = 1.0
        self._last_sign = sign

        change_mbps = self.theta * self._confidence * gradient
        change_pps = change_mbps * 1e6 / (self.packet_bytes * 8)
        bound = self.max_change_fraction * self.base_rate
        change_pps = max(min(change_pps, bound), -bound)
        self.base_rate = max(self.base_rate + change_pps, self.min_rate)

    # --- pacing ------------------------------------------------------------------

    def pacing_rate(self, now: float) -> float:
        sign = self._current_sign()
        return max(self.base_rate * (1.0 + sign * self.EPSILON), self.min_rate)
