"""User-space (UDT-style) datapath shim.

UDT is a user-space UDP transport; integrating MOCC with it puts the
library's control loop directly in the per-interval datapath: every
monitor interval the shim reports the latest status and immediately
asks for a new sending rate, so one model inference runs per interval
-- the reason user-space MOCC's CPU overhead matches Aurora's in
Fig. 17.
"""

from __future__ import annotations

from repro.core.library import MOCC, NetworkStatus
from repro.netsim.sender import Controller, Flow, MonitorIntervalStats

__all__ = ["UdtShim"]


class UdtShim(Controller):
    """Per-interval MOCC control loop (user-space deployment)."""

    kind = "rate"
    name = "MOCC-UDT"

    def __init__(self, library: MOCC, weights):
        self.library = library
        self.library.register(weights)
        self.rate = library.rate

    def on_mi(self, flow: Flow, stats: MonitorIntervalStats, now: float) -> None:
        status = NetworkStatus(sent=stats.sent, acked=stats.acked, lost=stats.lost,
                               mean_rtt=stats.mean_rtt,
                               latency_gradient=stats.latency_gradient,
                               duration=stats.duration)
        self.library.report_status(status)
        self.rate = self.library.get_sending_rate()

    def pacing_rate(self, now: float) -> float:
        return self.rate
