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

from repro.baselines._pcc_common import PCCController, Trial
from repro.baselines.base import vivace_utility
from repro.netsim.sender import Flow, MonitorIntervalStats
from repro.netsim.traces import pps_to_mbps

__all__ = ["PCCVivace"]


class PCCVivace(PCCController):
    """PCC Vivace rate control via sequential utility-gradient rounds."""

    name = "PCC Vivace"

    def __init__(self, initial_rate: float = 20.0, packet_bytes: int = 1500):
        super().__init__(initial_rate)
        self.theta = 1.0
        self.max_change_fraction = 0.25
        self.packet_bytes = packet_bytes
        self._confidence = 1.0
        self._last_sign = 0
        self._rtt_gradient = 0.0

    def on_mi(self, flow: Flow, stats: MonitorIntervalStats, now: float) -> None:
        # The round's utilities read the latest interval's RTT gradient.
        self._rtt_gradient = stats.latency_gradient
        super().on_mi(flow, stats, now)

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
