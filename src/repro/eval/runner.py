"""Run congestion-control schemes on simulated networks.

:class:`EvalNetwork` describes the evaluation topology (one bottleneck
link, Pantheon-style); :func:`scheme_factory` sizes a named scheme's
controller for it, and :func:`build_competition` wires live controllers
sharing its bottleneck into an unrun :class:`Simulation`.  Figures run
as scenario cells (:mod:`repro.eval.sweeps`), not through this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import (
    AuroraController,
    BBR,
    Copa,
    Cubic,
    Orca,
    PCCAllegro,
    PCCVivace,
    Vegas,
)
from repro.core.agent import MoccAgent, MoccController
from repro.netsim.network import FlowSpec, Simulation
from repro.netsim.rngstreams import link_seed
from repro.netsim.signing import canonical
from repro.netsim.topology import TopologySpec, dumbbell
from repro.netsim.traces import BandwidthTrace, mbps_to_pps, trace_form

__all__ = ["EvalNetwork", "scheme_factory", "build_competition"]


@dataclass(frozen=True)
class EvalNetwork:
    """A single-bottleneck evaluation network.

    ``buffer_bdp`` sizes the queue in bandwidth-delay products unless
    ``queue_packets`` is given explicitly.  ``trace`` (optional)
    overrides the constant bandwidth.  The network is simulated as its
    one-link :meth:`topology`.
    """

    bandwidth_mbps: float = 20.0
    one_way_ms: float = 20.0
    buffer_bdp: float = 1.0
    queue_packets: int | None = None
    loss_rate: float = 0.0
    packet_bytes: int = 1500
    trace: BandwidthTrace | None = field(default=None,
                                         metadata=canonical(trace_form))

    @property
    def bottleneck_pps(self) -> float:
        return mbps_to_pps(self.bandwidth_mbps, self.packet_bytes)

    @property
    def base_rtt(self) -> float:
        return 2.0 * self.one_way_ms / 1000.0

    def topology(self, trace: str | None = None) -> TopologySpec:
        """This network as a one-link :func:`~repro.netsim.topology.dumbbell`,
        field for field; ``trace`` names a registered trace to put on
        the link in place of :attr:`trace` (a scenario-level trace)."""
        return dumbbell(self.bandwidth_mbps, self.one_way_ms, self.buffer_bdp,
                        self.queue_packets, self.loss_rate,
                        self.trace if trace is None else trace)


def scheme_factory(name: str, network: EvalNetwork, seed: int = 0,
                   mocc_agent: MoccAgent | None = None, mocc_weights=None,
                   aurora_agent: MoccAgent | None = None,
                   orca_agent: MoccAgent | None = None,
                   initial_rate: float | None = None):
    """Build a controller for ``name``, sized sensibly for the network.

    Heuristic schemes need no models; ``mocc``/``aurora``/``orca`` take
    the corresponding pre-trained agents, handed in live.
    Initial rates start at roughly a third of the bottleneck, as a real
    deployment's slow-start handoff would; ``initial_rate`` (pps)
    overrides that for rate-based schemes.  ``seed`` shapes no result:
    no controller draws a random number.  It is kept because the frozen
    perf ledger passes it.
    """
    pps = network.bottleneck_pps
    start_rate = max(pps / 3.0, 2.0) if initial_rate is None else float(initial_rate)
    key = name.lower()
    if key == "cubic":
        return Cubic()
    if key == "vegas":
        return Vegas()
    if key == "bbr":
        return BBR(initial_rate=start_rate)
    if key == "copa":
        return Copa()
    if key in ("allegro", "pcc allegro"):
        return PCCAllegro(initial_rate=start_rate)
    if key in ("vivace", "pcc vivace"):
        return PCCVivace(initial_rate=start_rate, packet_bytes=network.packet_bytes)
    if key == "mocc":
        if mocc_agent is None or mocc_weights is None:
            raise ValueError("MOCC needs mocc_agent and mocc_weights")
        return MoccController(mocc_agent, mocc_weights, initial_rate=start_rate)
    if key.startswith("aurora"):
        if aurora_agent is None:
            raise ValueError("Aurora needs a pre-trained aurora_agent")
        flavor = key.split("-", 1)[1] if "-" in key else None
        return AuroraController(aurora_agent, initial_rate=start_rate,
                                flavor=flavor)
    if key == "orca":
        return Orca(agent=orca_agent)
    raise ValueError(f"unknown scheme {name!r}")


def build_competition(controllers, network: EvalNetwork, duration: float = 60.0,
                      start_times=None, stop_times=None, seed: int = 0,
                      mi_duration: float | None = None) -> Simulation:
    """Wire several controllers sharing the bottleneck into a Simulation.

    The seeding and sizing of the standard evaluation path, for
    callers that bring their own controller objects (a profiling
    proxy, a datapath shim) or drive the live :class:`Simulation`;
    ``run_all()`` returns one :class:`FlowRecord` per controller.
    """
    n = len(controllers)
    start_times = start_times or [0.0] * n
    stop_times = stop_times or [float("inf")] * n
    topology = network.topology().build(network.packet_bytes,
                                        seed=link_seed(seed))
    specs = [FlowSpec(controller=c, packet_bytes=network.packet_bytes,
                      start_time=t0, stop_time=t1, mi_duration=mi_duration)
             for c, t0, t1 in zip(controllers, start_times, stop_times)]
    return Simulation(topology, specs, duration=duration, seed=seed)
