"""Run congestion-control schemes on simulated networks.

:class:`EvalNetwork` describes the evaluation topology (one bottleneck
link, Pantheon-style); :func:`run_scheme` runs a single flow of a named
scheme on it and returns the aggregate :class:`FlowRecord`;
:func:`run_competition` runs several (possibly different) controllers
sharing the bottleneck -- the fairness/friendliness setups of §6.4.
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
from repro.netsim.link import Link
from repro.netsim.network import FlowRecord, FlowSpec, Simulation
from repro.netsim.rngstreams import stream_rng
from repro.netsim.signing import canonical
from repro.netsim.topology import MIN_QUEUE_PACKETS
from repro.netsim.traces import (BandwidthTrace, ConstantTrace, mbps_to_pps,
                                 trace_form)

__all__ = ["EvalNetwork", "scheme_factory", "build_competition", "run_scheme",
           "run_competition"]


@dataclass(frozen=True)
class EvalNetwork:
    """A single-bottleneck evaluation network.

    ``buffer_bdp`` sizes the queue in bandwidth-delay products unless
    ``queue_packets`` is given explicitly.  ``trace`` (optional)
    overrides the constant bandwidth.
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

    def queue_size(self) -> int:
        if self.queue_packets is not None:
            return self.queue_packets
        bdp = self.bottleneck_pps * self.base_rtt
        return max(int(round(self.buffer_bdp * bdp)), MIN_QUEUE_PACKETS)

    def build_link(self, seed: int = 0) -> Link:
        trace = self.trace or ConstantTrace(self.bottleneck_pps)
        return Link(trace=trace, delay=self.one_way_ms / 1000.0,
                    queue_size=self.queue_size(), loss_rate=self.loss_rate,
                    rng=stream_rng("eval.link-loss", seed))


def scheme_factory(name: str, network: EvalNetwork, seed: int = 0,
                   mocc_agent: MoccAgent | None = None, mocc_weights=None,
                   aurora_agent: MoccAgent | None = None,
                   orca_agent: MoccAgent | None = None,
                   initial_rate: float | None = None):
    """Build a controller for ``name``, sized sensibly for the network.

    Heuristic schemes need no models; ``mocc``/``aurora``/``orca`` take
    the corresponding pre-trained agents (see :mod:`repro.models.zoo`).
    Initial rates start at roughly a third of the bottleneck, as a real
    deployment's slow-start handoff would; ``initial_rate`` (pps)
    overrides that for rate-based schemes.
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
        return MoccController(mocc_agent, mocc_weights, initial_rate=start_rate, seed=seed)
    if key.startswith("aurora"):
        if aurora_agent is None:
            raise ValueError("Aurora needs a pre-trained aurora_agent")
        flavor = key.split("-", 1)[1] if "-" in key else None
        return AuroraController(aurora_agent, initial_rate=start_rate, seed=seed,
                                flavor=flavor)
    if key == "orca":
        return Orca(agent=orca_agent, seed=seed)
    raise ValueError(f"unknown scheme {name!r}")


def run_scheme(controller, network: EvalNetwork, duration: float = 30.0,
               seed: int = 0, mi_duration: float | None = None) -> FlowRecord:
    """Run one flow of ``controller`` over ``network``; return aggregates."""
    link = network.build_link(seed=seed * 31 + 17)
    spec = FlowSpec(controller=controller, packet_bytes=network.packet_bytes,
                    mi_duration=mi_duration)
    sim = Simulation(link, [spec], duration=duration, seed=seed)
    return sim.run_all()[0]


def build_competition(controllers, network: EvalNetwork, duration: float = 60.0,
                      start_times=None, stop_times=None, seed: int = 0,
                      mi_duration: float | None = None) -> Simulation:
    """Wire several controllers sharing the bottleneck into a Simulation.

    The construction half of :func:`run_competition`, split out so
    callers that need the live :class:`Simulation` -- incremental
    ``run(until=...)`` drivers -- reuse the exact seeding and sizing of
    the standard evaluation path.
    """
    n = len(controllers)
    start_times = start_times or [0.0] * n
    stop_times = stop_times or [float("inf")] * n
    link = network.build_link(seed=seed * 31 + 17)
    specs = [FlowSpec(controller=c, packet_bytes=network.packet_bytes,
                      start_time=t0, stop_time=t1, mi_duration=mi_duration)
             for c, t0, t1 in zip(controllers, start_times, stop_times)]
    return Simulation(link, specs, duration=duration, seed=seed)


def run_competition(controllers, network: EvalNetwork, duration: float = 60.0,
                    start_times=None, stop_times=None, seed: int = 0,
                    mi_duration: float | None = None) -> list[FlowRecord]:
    """Run several controllers sharing the bottleneck (dumbbell setup).

    ``start_times``/``stop_times`` allow the staggered-flow arrivals of
    the fairness experiment (Fig. 11).
    """
    sim = build_competition(controllers, network, duration=duration,
                            start_times=start_times, stop_times=stop_times,
                            seed=seed, mi_duration=mi_duration)
    return sim.run_all()
