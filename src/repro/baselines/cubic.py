"""TCP CUBIC (Ha, Rhee, Xu 2008) -- loss-based window control.

The congestion window grows along a cubic curve anchored at the window
size just before the last loss (``w_max``): concave while approaching
``w_max``, then convex while probing beyond it.  On loss the window is
reduced multiplicatively by ``beta`` (0.7) and a new epoch starts.  The
TCP-friendliness region and fast-convergence heuristic of the RFC are
included.

This is the paper's representative "loss-based heuristic": it fills the
bottleneck buffer, so it shows high utilization on deep buffers but
also high queueing delay (Fig. 5) -- exactly the behaviour the
reproduction should preserve.
"""

from __future__ import annotations

from repro.netsim.packet import Packet
from repro.netsim.sender import Controller, Flow

__all__ = ["Cubic"]


class Cubic(Controller):
    """TCP CUBIC congestion window control."""

    kind = "window"
    name = "CUBIC"

    #: Cubic scaling constant (packets/second^3), per the RFC.
    C = 0.4
    #: Multiplicative decrease factor.
    BETA = 0.7
    #: Reno AIMD slope of the TCP-friendly region,
    #: ``3 * (1 - BETA) / (1 + BETA)`` -- precomputed because on_ack
    #: runs once per delivered packet (same float as the inline
    #: expression it replaces).
    RENO_SLOPE = 3.0 * (1.0 - BETA) / (1.0 + BETA)

    def __init__(self):
        self._cwnd = 10.0
        self.min_cwnd = 2.0
        self.ssthresh = float("inf")
        self.w_max = 0.0
        self.epoch_start: float | None = None
        self.k = 0.0
        self.origin_cwnd = 0.0
        self._last_reduction = -float("inf")

    # --- window ---------------------------------------------------------

    def cwnd(self, now: float) -> float:
        return self._cwnd

    # --- events -----------------------------------------------------------

    def on_ack(self, flow: Flow, packet: Packet, now: float) -> None:
        if self._cwnd < self.ssthresh:
            self._cwnd += 1.0  # slow start
            return
        if self.epoch_start is None:
            self._begin_epoch(now)
        t = now - self.epoch_start
        rtt = flow.srtt or 0.0
        target = self.origin_cwnd + self.C * (t + rtt - self.k) ** 3
        # TCP-friendly region: emulate Reno's AIMD growth.
        reno = (self.w_max * self.BETA
                + self.RENO_SLOPE * (t / (rtt if rtt > 1e-3 else 1e-3)))
        if reno > target:
            target = reno
        cwnd = self._cwnd
        if target > cwnd:
            self._cwnd = cwnd + (target - cwnd) / cwnd
        else:
            self._cwnd = cwnd + 0.01 / cwnd  # minimal probing

    def on_loss(self, flow: Flow, packet: Packet, now: float) -> None:
        rtt = flow.srtt or 0.05
        if now - self._last_reduction < rtt:
            return  # at most one reduction per round trip
        self._last_reduction = now
        if self._cwnd < self.w_max:  # fast convergence
            self.w_max = self._cwnd * (1.0 + self.BETA) / 2.0
        else:
            self.w_max = self._cwnd
        self._cwnd = max(self._cwnd * self.BETA, self.min_cwnd)
        self.ssthresh = self._cwnd
        self.epoch_start = None

    # --- internals -------------------------------------------------------------

    def _begin_epoch(self, now: float) -> None:
        self.epoch_start = now
        self.origin_cwnd = self._cwnd
        if self.w_max > self._cwnd:
            self.k = ((self.w_max - self._cwnd) / self.C) ** (1.0 / 3.0)
        else:
            self.k = 0.0
