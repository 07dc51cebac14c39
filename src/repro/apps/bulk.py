"""Bulk data transfer workload (Fig. 10).

The paper transfers a 100 MB file 50 times over a link with 0.5 %
random loss (emulating background-traffic interference) and reports
the mean and standard deviation of flow completion time (FCT).

The reproduction measures the same thing: the simulation runs until
the flow has delivered the requested number of packets, and the FCT is
the time of the ack that completes the file.  File size defaults to a
scaled-down value so a 50-repeat benchmark remains fast; the FCT
*ordering* across schemes is what Fig. 10 compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.runner import EvalNetwork
from repro.netsim.network import FlowSpec, Simulation

__all__ = ["BulkResult", "run_bulk_transfers"]


@dataclass
class BulkResult:
    """FCT statistics over repeated transfers."""

    fct_seconds: np.ndarray
    file_mbytes: float

    @property
    def mean_fct(self) -> float:
        return float(np.mean(self.fct_seconds))

    @property
    def std_fct(self) -> float:
        return float(np.std(self.fct_seconds))

    def summary(self) -> str:
        return (f"{self.file_mbytes:.1f} MB: mean FCT {self.mean_fct:.3f}s "
                f"+- {self.std_fct:.3f}s over {len(self.fct_seconds)} transfers")


def _single_transfer(controller_factory, network: EvalNetwork,
                     file_packets: int, seed: int) -> float:
    """Run one transfer to completion; return the FCT in seconds."""
    topology = network.topology().build(network.packet_bytes,
                                        seed=seed * 131 + 7)
    controller = controller_factory()
    spec = FlowSpec(controller=controller, packet_bytes=network.packet_bytes)
    # Generous horizon: 20x the ideal transfer time plus slow-start room.
    ideal = file_packets / network.bottleneck_pps
    horizon = 20.0 * ideal + 30.0
    sim = Simulation(topology, [spec], duration=horizon, seed=seed)
    flow = sim.flows[0]
    state = sim.state
    # One event at a time, so the clock stops on the ack that completes
    # the file: that ack's time is the FCT.
    while flow.total_acked < file_packets:
        if not state.step_events(1):
            return float("inf")
    return sim.now


def run_bulk_transfers(controller_factory, network: EvalNetwork | None = None,
                       file_mbytes: float = 4.0, repeats: int = 10,
                       seed: int = 0) -> BulkResult:
    """Repeatedly transfer a file; collect FCT statistics.

    ``controller_factory`` builds a *fresh* controller per transfer
    (congestion state must not leak between repeats).  The default
    network follows the paper: a clean switch path with 0.5 % random
    loss emulating background interference.
    """
    if network is None:
        network = EvalNetwork(bandwidth_mbps=20.0, one_way_ms=5.0,
                              buffer_bdp=2.0, loss_rate=0.005)
    packet_bits = network.packet_bytes * 8
    file_packets = int(np.ceil(file_mbytes * 8e6 / packet_bits))
    fcts = [_single_transfer(controller_factory, network, file_packets, seed + i)
            for i in range(repeats)]
    return BulkResult(fct_seconds=np.asarray(fcts), file_mbytes=file_mbytes)
