"""Kernel-space (CCP-style) datapath shim.

CCP ("Congestion Control Plane", Narayan et al. 2018) restructures
endpoint congestion control: the datapath (e.g. the Linux kernel stack)
executes a tiny fold function over per-packet events and reports
*aggregated* measurements to an off-datapath agent at a coarse cadence.
The agent -- here, the MOCC library -- is therefore consulted once per
``batch`` monitor intervals instead of every interval, which is why
kernel-space MOCC's CPU overhead is close to Orca/CUBIC in Fig. 17.

Between reports the datapath keeps sending at the last rate the agent
installed, exactly as a CCP datapath program would.  A report folds the
batch into one interval: counts and durations add up, and the mean RTT
and the RTT slope are acked-weighted means over the batch.
"""

from __future__ import annotations

from repro.core.library import MOCC, NetworkStatus
from repro.netsim.sender import Controller, Flow, MonitorIntervalStats

__all__ = ["CcpShim"]


class CcpShim(Controller):
    """Batched MOCC control loop (kernel-space deployment)."""

    kind = "rate"
    name = "MOCC-Kernel"

    def __init__(self, library: MOCC, weights, batch: int = 4):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.library = library
        self.library.register(weights)
        self.rate = library.rate
        self.batch = batch
        self._pending: list[MonitorIntervalStats] = []

    def on_mi(self, flow: Flow, stats: MonitorIntervalStats, now: float) -> None:
        self._pending.append(stats)
        if len(self._pending) < self.batch:
            return
        # Aggregate the batch the way a CCP fold function would.
        sent = sum(s.sent for s in self._pending)
        acked = sum(s.acked for s in self._pending)
        lost = sum(s.lost for s in self._pending)
        duration = sum(s.duration for s in self._pending)
        rtts = [(s.mean_rtt, s.latency_gradient, s.acked)
                for s in self._pending if s.mean_rtt is not None]
        if rtts:
            total_acked = sum(a for _, _, a in rtts)
            if total_acked:
                mean_rtt = sum(r * a for r, _, a in rtts) / total_acked
                gradient = sum(g * a for _, g, a in rtts) / total_acked
            else:
                mean_rtt, gradient, _ = rtts[-1]
        else:
            mean_rtt, gradient = None, 0.0
        self._pending = []
        self.library.report_status(NetworkStatus(
            sent=sent, acked=acked, lost=lost, mean_rtt=mean_rtt,
            latency_gradient=gradient, duration=duration))
        self.rate = self.library.get_sending_rate()

    def pacing_rate(self, now: float) -> float:
        return self.rate
