"""Discrete-event packet-level network simulator.

This package is the reproduction of the training/evaluation substrate
the paper builds on OpenAI Gym + Aurora's simulator (§5): Internet-like
bottleneck links with configurable bandwidth (optionally time-varying
via traces), one-way propagation delay, a finite drop-tail FIFO queue,
and Bernoulli random loss.

Layers, bottom-up:

* :mod:`repro.netsim.rngstreams` -- the RNG census: one table maps
  each stream name to its seed space and entropy function, checked
  for overlaps by value at import; :func:`stream_rng` mints from it.
* :mod:`repro.netsim.signing` -- field-driven content signatures: the
  one helper every cache-keyed spec is signed through.
* :mod:`repro.netsim.traces` -- bandwidth processes (constant, step,
  random-walk, piecewise).
* :mod:`repro.netsim.packet` -- packet records.
* :mod:`repro.netsim.faults` -- declarative per-link fault schedules
  (flaps, Gilbert-Elliott bursty loss, brownouts, blackouts) and their
  deterministic runtime (:class:`FaultProcess`).
* :mod:`repro.netsim.link` -- the bottleneck link model.
* :mod:`repro.netsim.sender` -- rate-paced and window (ack-clocked)
  senders, monitor-interval statistics.
* :mod:`repro.netsim.topology` -- named links + per-flow paths with
  reverse-link routing (dumbbell, N-hop chain, parking lot, asymmetric
  dumbbell) and their declarative, fingerprintable specs.
* :mod:`repro.netsim.network` -- the event-driven simulation engine
  routing any number of flows over a topology.
* :mod:`repro.netsim.history` -- the eta-length statistics history that
  forms the RL state (§4.1).
* :mod:`repro.netsim.env` -- gym-style environments:
  :class:`CongestionControlEnv` (raw) and :class:`MoccEnv`
  (preference-aware state + dynamic reward, Eq. 2).
"""

from repro.netsim.rngstreams import STREAMS, stream_rng
from repro.netsim.signing import UNSIGNED, Signer, canonical
from repro.netsim.traces import (
    BandwidthTrace,
    ConstantTrace,
    PiecewiseTrace,
    RandomWalkTrace,
    StepTrace,
    mbps_to_pps,
    pps_to_mbps,
)
from repro.netsim.packet import Packet
from repro.netsim.faults import (
    BlackoutWindow,
    FaultProcess,
    GilbertElliottLoss,
    LinkFlapSchedule,
    RateBrownout,
)
from repro.netsim.link import Link, PropagationLink
from repro.netsim.sender import MonitorIntervalStats, Flow
from repro.netsim.topology import (
    LinkDef,
    Path,
    PathDef,
    Topology,
    TopologySpec,
    chain,
    dumbbell,
    dumbbell_asymmetric,
    parking_lot,
)
from repro.netsim.network import Simulation, FlowSpec, FlowRecord
from repro.netsim.history import StatHistory
from repro.netsim.env import CongestionControlEnv, MoccEnv, RewardComponents

__all__ = [
    "STREAMS",
    "stream_rng",
    "UNSIGNED",
    "Signer",
    "canonical",
    "BandwidthTrace",
    "ConstantTrace",
    "StepTrace",
    "RandomWalkTrace",
    "PiecewiseTrace",
    "mbps_to_pps",
    "pps_to_mbps",
    "Packet",
    "BlackoutWindow",
    "FaultProcess",
    "GilbertElliottLoss",
    "LinkFlapSchedule",
    "RateBrownout",
    "Link",
    "PropagationLink",
    "MonitorIntervalStats",
    "Flow",
    "Path",
    "Topology",
    "LinkDef",
    "PathDef",
    "TopologySpec",
    "chain",
    "dumbbell",
    "dumbbell_asymmetric",
    "parking_lot",
    "Simulation",
    "FlowSpec",
    "FlowRecord",
    "StatHistory",
    "CongestionControlEnv",
    "MoccEnv",
    "RewardComponents",
]
