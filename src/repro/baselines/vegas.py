"""TCP Vegas (Brakmo & Peterson 1994) -- delay-based window control.

Vegas compares the *expected* throughput (``cwnd / base_rtt``) with the
*actual* throughput (``cwnd / rtt``) and interprets the difference --
the number of packets parked in the bottleneck queue -- as the
congestion signal.  The window is nudged to keep that backlog between
``alpha`` and ``beta`` packets, which keeps queues (and therefore
latency) very small at the cost of utilization when competing with
loss-based flows or over lossy links.
"""

from __future__ import annotations

from repro.netsim.packet import Packet
from repro.netsim.sender import Controller, Flow, MonitorIntervalStats

__all__ = ["Vegas"]


class Vegas(Controller):
    """TCP Vegas congestion window control."""

    kind = "window"
    name = "Vegas"

    def __init__(self):
        #: The backlog band (packets) the window is steered into, and
        #: the backlog that ends slow start.
        self.alpha = 2.0
        self.beta = 4.0
        self.gamma = 1.0
        self._cwnd = 10.0
        self.min_cwnd = 2.0
        self.slow_start = True

    def cwnd(self, now: float) -> float:
        return self._cwnd

    def _backlog(self, flow: Flow, rtt: float) -> float:
        """Estimated packets queued at the bottleneck (the diff)."""
        base = flow.min_rtt_seen
        if base is None or rtt <= 0:
            return 0.0
        expected = self._cwnd / base
        actual = self._cwnd / rtt
        return (expected - actual) * base

    def on_mi(self, flow: Flow, stats: MonitorIntervalStats, now: float) -> None:
        # Vegas updates once per RTT; the monitor interval approximates it.
        rtt = stats.mean_rtt if stats.mean_rtt is not None else flow.srtt
        if rtt is None:
            return
        diff = self._backlog(flow, rtt)
        if self.slow_start:
            if diff > self.gamma:
                self.slow_start = False
                self._cwnd = max(self._cwnd - diff, self.min_cwnd)
            else:
                self._cwnd += 1.0  # doubling every other RTT, approximated
            return
        if diff < self.alpha:
            self._cwnd += 1.0
        elif diff > self.beta:
            self._cwnd = max(self._cwnd - 1.0, self.min_cwnd)

    def on_loss(self, flow: Flow, packet: Packet, now: float) -> None:
        self.slow_start = False
        self._cwnd = max(self._cwnd / 2.0, self.min_cwnd)
