"""Declarative evaluation scenarios and scenario grids.

The paper's evaluation (Figs. 5-19) is a large matrix of network
conditions x objectives x competing schemes, so experiments *declare*
what to run (every figure's cells are in the registry,
:data:`repro.eval.sweeps.FIGURES`):

* :class:`FlowDef` -- one flow: scheme name, objective weights, a
  live agent (pickled into pool workers with its cell), start/stop
  times, and (for
  multi-bottleneck topologies) the named path it traverses;
* :class:`ChurnSchedule` -- declarative flow churn: staggered
  arrivals/departures and on/off windows rewritten onto a line-up's
  ``start``/``stop`` fields;
* :class:`Scenario` -- a concrete experiment: network (or a
  :class:`~repro.netsim.topology.TopologySpec`) + optional named trace
  + flow line-up + duration + seed, with a content
  :meth:`Scenario.fingerprint` for result caching;
* :class:`ScenarioSuite` -- a named grid over bandwidth, RTT, loss,
  buffer, trace, topology, churn and scheme line-ups whose
  :meth:`ScenarioSuite.expand` yields the concrete scenarios.

:mod:`repro.eval.parallel` executes suites across OS processes and
memoizes finished scenarios on disk keyed by the fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from repro.eval.runner import EvalNetwork, scheme_factory
from repro.netsim.faults import coerce_faults
from repro.netsim.network import FlowSpec, Simulation
from repro.netsim.rngstreams import link_seed
from repro.netsim.signing import UNSIGNED, Signer, canonical
from repro.netsim.topology import TopologySpec
from repro.netsim.traces import named_trace_form

__all__ = ["ChurnSchedule", "FlowDef", "Scenario", "ScenarioSuite",
           "build_scenario_simulation", "fingerprint_cells"]

#: Bumped whenever scenario execution changes in a way that invalidates
#: previously cached results, or the on-disk form of an entry changes.
#: v11: a stored record packs its monitor intervals as binary column
#: blocks (:func:`repro.eval.resilience.record_to_json`); results
#: themselves did not move.
#: v12: the packed block is stored as hex, not base64; results did not
#: move.
#: v13: an entry is one binary sealed frame
#: (:func:`repro.eval.resilience.seal`) holding a JSON header and the
#: raw blocks, not a JSON line; results did not move.
SCENARIO_CACHE_VERSION = "v13"


def _simulation_code_digest() -> str:
    """Digest of the source files that determine simulation results.

    Folded into every fingerprint so cached results go stale
    automatically when the simulator, the baselines, or the inference
    path change -- nobody has to remember to bump
    ``SCENARIO_CACHE_VERSION`` for behavioural PRs.  Conservative on
    purpose: a comment-only edit re-simulates, a silently wrong cached
    figure does not happen.
    """
    import repro.baselines
    import repro.core.agent
    import repro.netsim

    roots = [Path(repro.netsim.__file__).parent,
             Path(repro.baselines.__file__).parent]
    singles = [Path(repro.core.agent.__file__),
               Path(__file__).resolve().parent / "runner.py"]
    singles += [Path(repro.core.agent.__file__).parent.parent / "rl" / name
                for name in ("policy.py", "nn.py", "distributions.py")]
    files = [p for root in roots for p in sorted(root.glob("*.py"))] + singles
    package_root = Path(repro.netsim.__file__).resolve().parent.parent
    return _digest_files(files, package_root)


def _digest_files(files, root: Path) -> str:
    """sha256 digest of ``files``, identical on every host.

    Files are ordered and labelled by their POSIX-style path relative
    to ``root`` -- never by filesystem enumeration order or bare
    ``name`` (two ``__init__.py`` must not collide) -- and ``\\r\\n``
    is normalized to ``\\n`` so a CRLF-translating checkout does not
    masquerade as a behavioural change.
    """
    def key(path: Path) -> str:
        path = path.resolve()
        try:
            return path.relative_to(root).as_posix()
        except ValueError:
            return path.as_posix()

    digest = hashlib.sha256()
    for path in sorted(files, key=key):
        digest.update(key(path).encode())
        digest.update(path.read_bytes().replace(b"\r\n", b"\n"))
    return digest.hexdigest()[:16]


_CODE_DIGEST: str | None = None


def _code_digest() -> str:
    # Idempotent memo of a pure function of the on-disk sources: the
    # digest cannot change within a process, so the write is
    # observationally pure.
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        _CODE_DIGEST = _simulation_code_digest()
    return _CODE_DIGEST


def _weights_form(weights, _owner, _signer) -> list | None:
    """Signing form of an objective-weight vector: fixed-point text, so
    a tuple, a list and an array of the same weights share one key."""
    if weights is None:
        return None
    return [f"{float(w):.8f}" for w in weights]


def _agent_form(agent, _owner, signer):
    """Signing form of a flow's agent: its parameters, so
    differently-trained models never share cache entries."""
    if agent is None:
        return None
    # Digested once per pass, never across passes -- online adaptation
    # mutates models in place, and a stale digest would alias cache
    # entries.
    return signer.once(("live-agent", id(agent)), agent,
                       lambda: _parameter_digest(agent))


def _parameter_digest(agent) -> str:
    digest = hashlib.sha256()
    state = agent.model.state_dict()
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(state[name]))
    return "live:" + digest.hexdigest()[:16]


@dataclass(frozen=True)
class FlowDef:
    """One flow of a scenario.

    ``weights`` is the MOCC preference vector (ignored by heuristic
    schemes); ``agent`` is the live
    :class:`~repro.core.agent.MoccAgent` a learning-based scheme runs,
    signed by its parameters.  ``rate_frac`` overrides the initial
    sending rate as a fraction of the bottleneck capacity (of the
    flow's own path for topology scenarios); ``path`` names the
    topology path the flow traverses (topology scenarios only;
    ``None`` = the topology's default path).  ``seed`` shapes no
    result: deployed policies act on their mean and draw nothing, so no
    controller takes a seed.  It is kept, and signed, because the
    frozen perf ledger reads it.
    """

    scheme: str = field(metadata=canonical(
        lambda scheme, _owner, _signer: scheme.lower()))
    weights: tuple | None = field(default=None,
                                  metadata=canonical(_weights_form))
    agent: object | None = field(default=None,
                                 metadata=canonical(_agent_form))
    start: float = 0.0
    stop: float = float("inf")
    seed: int | None = None
    rate_frac: float | None = None
    # Display label: display_label() falls back to the signed scheme.
    label: str = field(default="", metadata=UNSIGNED)
    path: str | None = None

    def display_label(self) -> str:
        return self.label or self.scheme

    @staticmethod
    def coerce(flow) -> "FlowDef":
        if isinstance(flow, FlowDef):
            return flow
        if isinstance(flow, str):
            return FlowDef(scheme=flow)
        raise TypeError(f"cannot interpret {flow!r} as a flow")


@dataclass(frozen=True)
class ChurnSchedule:
    """Declarative flow churn: who is active when.

    Applied to a line-up at scenario construction, rewriting each
    flow's ``start``/``stop``.  Kinds:

    * ``"staggered"`` -- flow ``i`` arrives at ``offset + i*gap`` and
      stays (the Fig. 11 arrival pattern as a reusable axis);
    * ``"departures"`` -- every flow starts at ``offset``; flow ``i``
      leaves at ``duration - i*gap`` (later flows leave earlier);
    * ``"on-off"`` -- flow ``i`` is active in
      ``[offset + i*gap, offset + i*gap + on_time)`` (``on_time``
      defaults to ``gap``: back-to-back sessions).  With ``period``
      the window *repeats* every ``period`` seconds until the scenario
      ends: each repeat is a fresh session (its own flow, restarting
      from the controller's initial state, like a user re-opening a
      connection).  ``duty`` sizes the window as a fraction of
      ``period`` instead of ``on_time``.

    ``skip`` exempts the first ``skip`` flows of the line-up -- e.g. a
    persistent through flow on a parking lot while the cross traffic
    churns around it.
    """

    kind: str = "staggered"
    gap: float = 2.0
    offset: float = 0.0
    on_time: float | None = None
    skip: int = 0
    period: float | None = None
    duty: float | None = None

    def __post_init__(self):
        if self.kind not in ("staggered", "departures", "on-off"):
            raise ValueError(f"unknown churn kind {self.kind!r}")
        if self.gap < 0 or self.offset < 0 or self.skip < 0:
            raise ValueError("gap, offset and skip must be non-negative")
        if self.on_time is not None and self.on_time <= 0:
            raise ValueError("on_time must be positive")
        if self.period is not None or self.duty is not None:
            if self.kind != "on-off":
                raise ValueError("period/duty only apply to on-off churn")
        if self.period is not None and self.period <= 0:
            raise ValueError("period must be positive")
        if self.duty is not None:
            if self.period is None:
                raise ValueError("duty needs a period")
            if self.on_time is not None:
                raise ValueError("give either on_time or duty, not both")
            if not 0.0 < self.duty < 1.0:
                raise ValueError("duty must be in (0, 1)")
        if self.period is not None and self._on_duration() > self.period:
            raise ValueError("on_time must not exceed period "
                             "(windows would overlap themselves)")

    def _on_duration(self) -> float:
        if self.on_time is not None:
            return self.on_time
        if self.duty is not None:
            return self.duty * self.period
        return self.gap

    def label(self) -> str:
        bits = [self.kind, f"g{self.gap:g}"]
        if self.offset:
            bits.append(f"o{self.offset:g}")
        if self.on_time is not None:
            bits.append(f"on{self.on_time:g}")
        if self.period is not None:
            bits.append(f"p{self.period:g}")
        if self.duty is not None:
            bits.append(f"d{self.duty:g}")
        if self.skip:
            bits.append(f"s{self.skip}")
        return "-".join(bits)

    def windows(self, n: int, duration: float) -> list:
        """First ``(start, stop)`` window for each of ``n`` churned flows."""
        return [wins[0] for wins in self.all_windows(n, duration)]

    def all_windows(self, n: int, duration: float) -> list:
        """Every active window per churned flow (>= 1 each).

        Non-periodic schedules yield exactly one window per flow; an
        on-off schedule with ``period`` yields one per repeat whose
        start falls inside the run.
        """
        out = []
        for i in range(n):
            if self.kind == "staggered":
                starts, stop_after = [self.offset + i * self.gap], float("inf")
            elif self.kind == "departures":
                starts, stop_after = [self.offset], duration - i * self.gap
            else:  # on-off
                first = self.offset + i * self.gap
                stop_after = self._on_duration()
                starts = [first]
                if self.period is not None:
                    k = 1
                    while first + k * self.period < duration:
                        starts.append(first + k * self.period)
                        k += 1
            windows = []
            for start in starts:
                stop = (stop_after if self.kind != "on-off"
                        else start + stop_after)
                start = min(max(start, 0.0), duration)
                windows.append((start, max(stop, start)))
            out.append(windows)
        return out

    def apply(self, flows: tuple, duration: float) -> tuple:
        """Rewrite start/stop on every flow past the first ``skip``.

        A periodic on-off schedule expands each churned flow into one
        flow *per repeat window* (suffixed ``~r1``, ``~r2``, ... past
        the first), so every session restarts from controller initial
        state; without ``period`` the line-up shape is unchanged.
        """
        flows = tuple(flows)
        churned = flows[self.skip:]
        out = list(flows[:self.skip])
        for flow, windows in zip(churned, self.all_windows(len(churned),
                                                           duration)):
            for k, (start, stop) in enumerate(windows):
                clone = replace(flow, start=start, stop=stop)
                if k:
                    clone = replace(clone,
                                    label=f"{flow.display_label()}~r{k}")
                out.append(clone)
        return tuple(out)


#: The single-link axes of ``Scenario.network`` a topology supersedes:
#: its links carry their own capacity, delay, buffer, loss and trace.
#: What is *not* named here -- packet size, any field added later --
#: still shapes results under a topology and stays in the key.
_SUPERSEDED_BY_TOPOLOGY = ("bandwidth_mbps", "one_way_ms", "buffer_bdp",
                           "queue_packets", "loss_rate", "trace")


def _network_form(network, scenario, signer) -> list:
    """Signing form of ``Scenario.network``."""
    if scenario.topology is None:
        return signer.sign(network)
    return signer.sign(network, omit=_SUPERSEDED_BY_TOPOLOGY)


@dataclass(frozen=True)
class Scenario:
    """A concrete, picklable, fingerprintable experiment."""

    # Display name: renames keep their cache entries.
    name: str = field(metadata=UNSIGNED)
    network: EvalNetwork = field(metadata=canonical(_network_form))
    flows: tuple
    duration: float = 20.0
    seed: int = 0
    mi_duration: float | None = None
    #: Name of a registered trace (see :func:`repro.netsim.traces.register_trace`)
    #: applied on top of ``network``; keeps the scenario declarative.
    trace: str | None = field(default=None,
                              metadata=canonical(named_trace_form))
    #: Multi-bottleneck topology; when set it supersedes the
    #: single-link ``network`` (which still contributes packet size)
    #: and flows may name the paths they traverse.
    topology: TopologySpec | None = None
    #: Churn schedule applied to the flow line-up at construction.
    #: Unsigned: fully captured by the start/stop it writes onto the
    #: (signed) flows in ``__post_init__``.
    churn: ChurnSchedule | None = field(default=None, metadata=UNSIGNED)
    # Grouping label, never shapes results.
    suite: str = field(default="", metadata=UNSIGNED)
    #: Display label of the line-up this scenario came from (set by
    #: :meth:`ScenarioSuite.expand`); lets consumers key results
    #: structurally instead of parsing the scenario name.
    lineup: str = field(default="", metadata=UNSIGNED)

    def __post_init__(self):
        flows = tuple(FlowDef.coerce(f) for f in self.flows)
        if not flows:
            raise ValueError("a scenario needs at least one flow")
        if self.churn is not None:
            flows = self.churn.apply(flows, self.duration)
        object.__setattr__(self, "flows", flows)
        if self.trace is not None and self.network.trace is not None:
            raise ValueError("give either a named trace or network.trace, not both")
        if self.topology is not None:
            if self.trace is not None or self.network.trace is not None:
                raise ValueError(
                    "topology links carry their own traces; drop the "
                    "scenario-level trace")
            for flow in flows:
                if flow.path is not None:
                    self.topology.path(flow.path)  # raises on unknown path
        elif any(flow.path is not None for flow in flows):
            raise ValueError("flow paths need a topology")

    def fingerprint(self) -> str:
        """Content hash identifying the scenario's *results*: the
        one-cell case of :func:`fingerprint_cells`."""
        return fingerprint_cells([self])[0]


def fingerprint_cells(scenarios) -> list[str]:
    """Content hash identifying each scenario's *results*, in order.

    Every field of the scenario and of the specs it holds is hashed
    unless its declaration opts out (:mod:`repro.netsim.signing`):
    display names, suite and line-up labels, and the churn schedule
    (fully captured by the start/stop it wrote onto the flows) do, so
    renames keep their cache entries.  A named trace -- scenario-level
    or on a topology link -- is hashed by the *content* its registry
    factory currently produces, not the name, so re-registering a
    trace invalidates its cached results.  With a topology, the
    single-link network axes it supersedes leave the key.

    The cells of a sweep share most of what is expensive to sign, so
    one :class:`~repro.netsim.signing.Signer` pass covers the call:
    each distinct spec object, named trace and live agent is signed
    once.  Nothing is kept past the call -- a trace re-registered or a
    live agent adapted in place between two sweeps changes the keys of
    the second.
    """
    signer = Signer()
    code = _code_digest()
    fingerprints = []
    for scenario in scenarios:
        blob = json.dumps([SCENARIO_CACHE_VERSION, code,
                           signer.sign(scenario)]).encode()
        fingerprints.append(hashlib.sha256(blob).hexdigest())
    return fingerprints


def _controller_kwargs(flow: FlowDef) -> dict:
    key = flow.scheme.lower()
    if key == "mocc":
        return {"mocc_agent": flow.agent, "mocc_weights": flow.weights}
    if key.startswith("aurora"):
        return {"aurora_agent": flow.agent}
    if key == "orca":
        return {"orca_agent": flow.agent}
    return {}


def _build_controller(flow: FlowDef, network: EvalNetwork):
    """One sized controller for ``flow`` on a (possibly per-path) network."""
    initial_rate = None
    if flow.rate_frac is not None:
        initial_rate = flow.rate_frac * network.bottleneck_pps
    return scheme_factory(flow.scheme, network, initial_rate=initial_rate,
                          **_controller_kwargs(flow))


def build_scenario_simulation(scenario: Scenario,
                              trace_cache: dict | None = None) -> Simulation:
    """Wire one scenario into an unrun :class:`Simulation`.

    Controller sizing, topology seeding: its ``run_all()`` gives the
    records a :class:`~repro.eval.parallel.ParallelRunner` sweep
    produces for the cell.  Callers that need the live simulation (the
    batch runner, the perf ledger, stepping tests) drive ``run_all`` /
    ``state`` and read ``Simulation.events_processed`` on exactly the
    simulations the evaluation pipeline would run.

    A single-bottleneck cell runs on its network's one-link
    :meth:`~repro.eval.runner.EvalNetwork.topology`, carrying the
    scenario-level trace; controllers are sized per flow from the
    *path* the flow traverses (nominal bottleneck capacity and
    propagation delay).

    ``trace_cache`` is the batched-execution hook: cells built with a
    shared cache dict reuse (frozen, read-only) named-trace instances
    instead of re-running each registry factory per cell -- see
    :func:`repro.netsim.traces.make_trace`.
    """
    spec = scenario.topology or scenario.network.topology(scenario.trace)
    packet_bytes = scenario.network.packet_bytes
    topology = spec.build(packet_bytes=packet_bytes,
                          seed=link_seed(scenario.seed),
                          trace_cache=trace_cache)
    flow_specs = []
    for flow in scenario.flows:
        path = spec.path(flow.path)
        path_network = EvalNetwork(
            bandwidth_mbps=spec.path_bottleneck_mbps(path.name),
            one_way_ms=spec.path_one_way_ms(path.name),
            packet_bytes=packet_bytes)
        controller = _build_controller(flow, path_network)
        flow_specs.append(FlowSpec(
            controller=controller, start_time=flow.start, stop_time=flow.stop,
            packet_bytes=packet_bytes, mi_duration=scenario.mi_duration,
            path=flow.path))
    return Simulation(topology, flow_specs, duration=scenario.duration,
                      seed=scenario.seed)


def _coerce_lineups(lineups) -> tuple:
    """Normalise a line-up description to ``((label, (FlowDef, ...)), ...)``.

    Accepts a dict mapping labels to line-ups, or a sequence whose items
    are a scheme name, a :class:`FlowDef`, or a sequence of either.
    """
    if isinstance(lineups, dict):
        items = list(lineups.items())
    else:
        items = [(None, lineup) for lineup in lineups]
    out = []
    seen = set()
    for label, lineup in items:
        if isinstance(lineup, (str, FlowDef)):
            lineup = (lineup,)
        flows = tuple(FlowDef.coerce(f) for f in lineup)
        if label is None:
            label = "+".join(f.display_label() for f in flows)
        if label in seen:
            label = f"{label}#{sum(1 for l, _ in out if l.split('#')[0] == label)}"
        seen.add(label)
        out.append((label, flows))
    return tuple(out)


@dataclass(frozen=True)
class ScenarioSuite:
    """A named grid of scenarios: line-ups x network axes x seeds.

    Axis semantics:

    * ``bandwidths_mbps``, ``losses`` -- the bottleneck's capacity and
      random loss rate;
    * ``rtts_ms`` -- round-trip propagation delay (one-way is half);
    * ``buffers`` -- queue size; ``float`` entries are multiples of the
      BDP, ``int`` entries absolute packets (matching Fig. 5's axes);
    * ``traces`` -- names from the trace registry (``None`` = constant
      bandwidth); a named trace needs every ``topologies`` entry to be
      ``None`` (a spec's links carry their own traces);
    * ``topologies`` -- :class:`~repro.netsim.topology.TopologySpec`
      entries (``None`` = the single-bottleneck network built from the
      axes above; a spec supersedes bandwidth/RTT/loss/buffer for that
      cell);
    * ``reverse_paths`` -- ack-congestion axis: each entry is ``None``
      (the topology spec as declared) or a mapping of path name to an
      ordered tuple of reverse link names (wire real reverse-path
      queueing) or ``None`` (strip back to the pure-propagation twin at
      the same return propagation delay), applied to the cell's
      topology via :meth:`TopologySpec.with_reverse_paths` -- needs a
      non-``None`` topology;
    * ``faults`` -- ``None`` (fault-free, bit-identical to the golden
      traces) or a mapping of link name to a fault spec / tuple of
      fault specs from :mod:`repro.netsim.faults` (``None``/``()``
      strips a link back to fault-free), applied to the cell's
      topology via :meth:`TopologySpec.with_faults` -- needs a
      non-``None`` topology;
    * ``churns`` -- :class:`ChurnSchedule` entries rewriting the
      line-up's start/stop times (``None`` = the line-up's own times).

    ``expand()`` returns the cross product as concrete
    :class:`Scenario` objects with stable, human-readable names.
    """

    name: str
    lineups: tuple
    bandwidths_mbps: tuple = (20.0,)
    rtts_ms: tuple = (40.0,)
    losses: tuple = (0.0,)
    buffers: tuple = (1.0,)
    traces: tuple = (None,)
    topologies: tuple = (None,)
    reverse_paths: tuple = (None,)
    faults: tuple = (None,)
    churns: tuple = (None,)
    seeds: tuple = (0,)
    duration: float = 20.0
    mi_duration: float | None = None
    packet_bytes: int = 1500

    def __post_init__(self):
        object.__setattr__(self, "lineups", _coerce_lineups(self.lineups))
        for axis in ("bandwidths_mbps", "rtts_ms", "losses", "buffers",
                     "traces", "topologies", "reverse_paths", "faults",
                     "churns", "seeds"):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        if any(rev is not None for rev in self.reverse_paths) and \
                any(topo is None for topo in self.topologies):
            raise ValueError("the reverse_paths axis rewires topology "
                             "paths; every topologies entry must be a "
                             "TopologySpec")
        if any(flt is not None for flt in self.faults) and \
                any(topo is None for topo in self.topologies):
            raise ValueError("the faults axis attaches per-link fault "
                             "schedules; every topologies entry must be "
                             "a TopologySpec")
        if any(trace is not None for trace in self.traces) and \
                any(topo is not None for topo in self.topologies):
            raise ValueError("the traces axis sets the single link's "
                             "capacity; a TopologySpec's links carry their "
                             "own traces, so every topologies entry must "
                             "be None")

    def __len__(self) -> int:
        return (len(self.lineups) * len(self.bandwidths_mbps) * len(self.rtts_ms)
                * len(self.losses) * len(self.buffers) * len(self.traces)
                * len(self.topologies) * len(self.reverse_paths)
                * len(self.faults) * len(self.churns) * len(self.seeds))

    def _network(self, bandwidth, rtt, loss, buffer) -> EvalNetwork:
        is_packets = isinstance(buffer, (int, np.integer)) and not isinstance(buffer, bool)
        queue_packets = int(buffer) if is_packets else None
        buffer_bdp = float(buffer) if queue_packets is None else 1.0
        return EvalNetwork(bandwidth_mbps=float(bandwidth), one_way_ms=rtt / 2.0,
                           buffer_bdp=buffer_bdp, queue_packets=queue_packets,
                           loss_rate=float(loss), packet_bytes=self.packet_bytes)

    def expand(self) -> list[Scenario]:
        scenarios = []
        axes = [("bw", self.bandwidths_mbps), ("rtt", self.rtts_ms),
                ("loss", self.losses), ("buf", self.buffers),
                ("trace", self.traces), ("topo", self.topologies),
                ("rev", self.reverse_paths), ("faults", self.faults),
                ("churn", self.churns), ("seed", self.seeds)]
        varying = {label for label, values in axes if len(values) > 1}
        # One network per condition, shared by its cells: a signing
        # pass then signs it once, not once per cell.
        conditions = [(*c, self._network(*c)) for c in product(
            self.bandwidths_mbps, self.rtts_ms, self.losses, self.buffers)]
        for (label, flows), (bw, rtt, loss, buf, network), trace, topo, rev, \
                flt, churn, seed in product(
                self.lineups, conditions, self.traces, self.topologies,
                self.reverse_paths, self.faults, self.churns, self.seeds):
            if rev is not None:
                topo = topo.with_reverse_paths(rev)
            if flt is not None:
                topo = topo.with_faults(flt)
            parts = [label]
            values = {"bw": bw, "rtt": rtt, "loss": loss, "buf": buf,
                      "trace": trace,
                      "topo": topo.name if topo is not None else None,
                      "rev": _reverse_label(rev),
                      "faults": _faults_label(flt),
                      "churn": churn.label() if churn is not None else None,
                      "seed": seed}
            for axis in ("bw", "rtt", "loss", "buf", "trace", "topo",
                         "rev", "faults", "churn", "seed"):
                if axis in varying:
                    parts.append(f"{axis}={values[axis]}")
            scenarios.append(Scenario(
                name="/".join([self.name] + parts),
                network=network,
                flows=flows, duration=self.duration, seed=int(seed),
                mi_duration=self.mi_duration, trace=trace,
                topology=topo, churn=churn,
                suite=self.name, lineup=label))
        return scenarios


def _reverse_label(rev) -> str | None:
    """Stable display label for a ``reverse_paths`` axis entry."""
    if rev is None:
        return None
    return ",".join(
        f"{path}:{'+'.join(links) if links is not None else 'prop'}"
        for path, links in sorted(rev.items()))


def _faults_label(flt) -> str | None:
    """Stable display label for a ``faults`` axis entry."""
    if flt is None:
        return None
    parts = []
    for link_name, specs in sorted(flt.items()):
        specs = coerce_faults(specs)
        kinds = "+".join(type(s).__name__ for s in specs) if specs else "none"
        parts.append(f"{link_name}:{kinds}")
    return ",".join(parts)
