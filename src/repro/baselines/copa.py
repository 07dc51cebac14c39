"""Copa (Arun & Balakrishnan 2018) -- practical delay-based control.

Copa steers the congestion window so the sending rate tracks the target

    lambda* = 1 / (delta * d_q)

where ``d_q`` is the measured queueing delay and ``delta`` trades
throughput for delay (0.5 here, i.e. ~2 packets of standing queue at
equilibrium).  The implementation follows the paper's per-ack update:

* ``srtt_standing`` is the minimum RTT over a sliding window of the
  last ``srtt / 2`` seconds (filters ack jitter without forgetting the
  standing queue);
* per ack, the window moves by ``v / (delta * cwnd)`` toward the
  target rate ``cwnd / srtt_standing``;
* the velocity ``v`` doubles once per RTT while the direction is
  unchanged and resets to 1 on reversal -- this is what gives Copa fast
  convergence with small steady-state oscillations;
* slow start doubles the window each RTT until the rate first exceeds
  the target.

Copa is *window-based*: ack-clocking bounds the overshoot while the
(RTT-delayed) delay signal catches up.
"""

from __future__ import annotations

from collections import deque

from repro.netsim.packet import Packet
from repro.netsim.sender import Controller, Flow, MonitorIntervalStats

__all__ = ["Copa"]


class Copa(Controller):
    """Copa congestion-window control (per-ack, faithful to the paper)."""

    kind = "window"
    name = "Copa"

    def __init__(self):
        self.delta = 0.5
        self._cwnd = 10.0
        self.min_cwnd = 2.0
        self.max_velocity = 16.0
        self._velocity = 1.0
        self._direction = 0
        self._last_double = 0.0
        self.slow_start = True
        #: Monotonic min-deque over the srtt/2 sliding window: rtts
        #: strictly increase left to right, so ``srtt_standing`` reads
        #: the front instead of scanning every in-window ack (the scan
        #: was O(acks-per-srtt) *per ack* -- quadratic in rate).  The
        #: windowed minimum it yields is exactly the scan's value; see
        #: ``on_ack`` for the dominated-sample argument.
        self._rtt_window: deque[tuple[float, float]] = deque()
        self._last_ss_double = 0.0

    def cwnd(self, now: float) -> float:
        return self._cwnd

    # --- measurement -------------------------------------------------------

    def _srtt_standing(self, flow: Flow, now: float) -> float | None:
        """Min RTT over the last srtt/2 seconds of samples."""
        srtt = flow.srtt
        if srtt is None:
            return None
        horizon = now - srtt / 2.0
        window = self._rtt_window
        while window and window[0][0] < horizon:
            window.popleft()
        if not window:
            return srtt
        return window[0][1]

    # --- per-ack control law ---------------------------------------------------

    def on_ack(self, flow: Flow, packet: Packet, now: float) -> None:
        rtt = now - packet.send_time
        # Monotonic-deque append: a sample that is older and no smaller
        # than the new rtt can never again be the window minimum (the
        # new sample outlives it at a smaller-or-equal value), so it is
        # dropped now instead of rescanned per ack.  The newest sample
        # always survives, keeping window-emptiness -- and therefore
        # the ``srtt`` fallback -- identical to the full-window deque.
        window = self._rtt_window
        while window and window[-1][1] >= rtt:
            window.pop()
        window.append((now, rtt))
        srtt = flow.srtt
        min_rtt = flow.min_rtt_seen
        if srtt is None or min_rtt is None:
            return
        standing = self._srtt_standing(flow, now)
        if standing is None:
            return

        queueing = max(standing - min_rtt, 0.0)
        if queueing < 1e-6:
            target_rate = float("inf")
        else:
            target_rate = 1.0 / (self.delta * queueing)
        current_rate = self._cwnd / standing

        if self.slow_start:
            # Exit as soon as a standing queue appears (before the rate
            # overshoots past the target and dumps a buffer of packets).
            if target_rate <= current_rate or queueing > 0.1 * min_rtt:
                self.slow_start = False
            elif now - self._last_ss_double >= srtt:
                self._cwnd *= 2.0
                self._last_ss_double = now
            if self.slow_start:
                return

        direction = 1 if target_rate > current_rate else -1
        if direction != self._direction:
            self._velocity = 1.0
            self._direction = direction
            self._last_double = now
        elif now - self._last_double >= srtt:
            self._velocity = min(self._velocity * 2.0, self.max_velocity)
            self._last_double = now

        # v/(delta*cwnd) per ack, but never more than one packet: the
        # raw step diverges at small cwnd and the measurement lag (~1
        # RTT) would turn that into violent cwnd oscillation.
        step = min(self._velocity / (self.delta * max(self._cwnd, 1.0)), 1.0)
        self._cwnd = max(self._cwnd + direction * step, self.min_cwnd)

    def on_loss(self, flow: Flow, packet: Packet, now: float) -> None:
        # Copa's default mode is delay-driven, but buffer losses mean
        # the queue estimate lagged badly; apply a gentle brake (the
        # paper's TCP-competitive mode reacts to loss similarly).
        self.slow_start = False
        self._cwnd = max(self._cwnd * 0.9, self.min_cwnd)

    def on_mi(self, flow: Flow, stats: MonitorIntervalStats, now: float) -> None:
        """No per-interval logic; Copa is fully ack-driven."""
