"""Real-time communications workload (Fig. 9).

The paper's RTC experiment (a Salsify-style conference call) measures
*inter-packet delay*: the spacing between consecutive packet arrivals
at the receiver.  A transport that keeps queues short and its rate
smooth delivers packets at an even, small spacing; bufferbloat or rate
oscillation shows up directly as large or bursty gaps.

The workload runs a congestion-controlled flow with per-packet
recording enabled and computes the arrival-gap statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.runner import EvalNetwork
from repro.netsim.network import FlowSpec, Simulation
from repro.netsim.rngstreams import link_seed
from repro.netsim.sender import Controller

__all__ = ["RtcResult", "run_rtc"]


@dataclass
class RtcResult:
    """Inter-packet delay statistics of one RTC run."""

    mean_gap_ms: float
    p95_gap_ms: float
    jitter_ms: float          # std of arrival gaps
    mean_rtt_ms: float
    loss_rate: float
    delivered: int

    def summary(self) -> str:
        return (f"inter-packet delay {self.mean_gap_ms:.2f} ms "
                f"(p95 {self.p95_gap_ms:.2f}, jitter {self.jitter_ms:.2f}), "
                f"RTT {self.mean_rtt_ms:.1f} ms, loss {self.loss_rate:.2%}")


def run_rtc(controller: Controller, network: EvalNetwork, duration: float = 30.0,
            seed: int = 0) -> RtcResult:
    """Run an RTC-like flow and measure receiver-side packet spacing."""
    topology = network.topology().build(network.packet_bytes,
                                        seed=link_seed(seed))
    spec = FlowSpec(controller=controller, packet_bytes=network.packet_bytes,
                    keep_packets=True)
    sim = Simulation(topology, [spec], duration=duration, seed=seed)
    record = sim.run_all()[0]
    flow = sim.flows[0]

    arrivals = np.array(sorted(p.arrival_time for p in flow.packets
                               if p.arrival_time is not None))
    if len(arrivals) < 2:
        return RtcResult(float("inf"), float("inf"), float("inf"),
                         float("inf"), record.loss_rate, len(arrivals))
    gaps_ms = np.diff(arrivals) * 1000.0
    mean_rtt = record.mean_rtt if record.mean_rtt is not None else float("inf")
    return RtcResult(
        mean_gap_ms=float(gaps_ms.mean()),
        p95_gap_ms=float(np.percentile(gaps_ms, 95)),
        jitter_ms=float(gaps_ms.std()),
        mean_rtt_ms=mean_rtt * 1000.0,
        loss_rate=record.loss_rate,
        delivered=len(arrivals),
    )
