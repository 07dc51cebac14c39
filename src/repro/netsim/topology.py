"""Multi-link topologies: named links, per-flow paths, and builders.

The paper evaluates on single-bottleneck dumbbells, but online
adaptation is most stressed by paths with *several* queues (DeepCC's
multi-hop contention, the "parking lot" of the multi-path CC
literature).  This module generalises the simulation substrate from
"all flows share one link list" to a declarative topology:

* :class:`Topology` -- live named :class:`~repro.netsim.link.Link`
  objects plus named paths (ordered link subsets with a return delay);
  :class:`~repro.netsim.network.Simulation` consumes it directly, so
  different flows traverse different link subsets with per-flow base
  RTTs.
* :class:`LinkDef` / :class:`PathDef` / :class:`TopologySpec` -- the
  picklable, fingerprintable description scenario grids carry; a spec
  ``build()``s a fresh live topology per run (deterministic given the
  seed).
* :func:`dumbbell`, :func:`chain`, :func:`parking_lot`,
  :func:`dumbbell_asymmetric` -- builders for the standard shapes: one
  bottleneck, N bottlenecks in series, N bottlenecks in series with
  single-hop cross traffic, and a dumbbell whose reverse direction is
  its own (typically slower) queued link.

Every path carries an ordered *reverse* link list that acks and loss
notices physically transit hop by hop (see
:meth:`repro.netsim.network.Simulation._advance_packet`, the unified
per-hop scheduler for both directions).  Paths that do not wire one
get a :class:`~repro.netsim.link.PropagationLink` pseudo-link
reproducing the legacy scalar ``return_delay`` timing bit-for-bit;
wiring real links instead makes ack-path queueing, ack compression,
ack *loss*, and asymmetric satellite/cable routes emergent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.netsim.faults import FaultProcess, coerce_faults
from repro.netsim.link import Link, PropagationLink
from repro.netsim.rngstreams import stream_rng
from repro.netsim.signing import UNSIGNED, canonical
from repro.netsim.traces import (ConstantTrace, make_trace, mbps_to_pps,
                                 named_trace_form)

__all__ = ["Path", "Topology", "LinkDef", "PathDef", "TopologySpec",
           "dumbbell", "chain", "parking_lot", "dumbbell_asymmetric"]

#: Queue floor when sizing buffers from a BDP multiple (shared with
#: :meth:`repro.eval.runner.EvalNetwork.queue_size`, which must size
#: identically for the dumbbell-vs-single-link parity guarantee).
MIN_QUEUE_PACKETS = 4


@dataclass(frozen=True)
class Path:
    """A resolved forward route plus the resolved reverse route.

    ``reverse_links`` is never empty: paths without explicit reverse
    wiring carry a single pure-propagation
    :class:`~repro.netsim.link.PropagationLink` whose delay is the
    legacy ``return_delay``.  ``reverse_link_names`` is empty exactly
    in that pseudo-link case.
    """

    name: str
    link_names: tuple
    links: tuple
    #: One-way propagation delay of the ack path, seconds (sum of the
    #: reverse links' propagation delays).
    return_delay: float
    reverse_link_names: tuple = ()
    reverse_links: tuple = ()
    #: Wire size of this path's acknowledgements, bytes; ``None``
    #: falls back to the engine-wide
    #: :data:`repro.netsim.network.ACK_BYTES`.
    ack_bytes: int | None = None

    @property
    def forward_delay(self) -> float:
        return sum(link.delay for link in self.links)

    @property
    def base_rtt(self) -> float:
        """Round-trip propagation time (no queueing) along this path."""
        return self.forward_delay + self.return_delay


class Topology:
    """Named links and the named paths flows take across them.

    Parameters
    ----------
    links:
        Mapping of link name to :class:`Link` (insertion order is the
        canonical link order).
    paths:
        Mapping of path name to an ordered sequence of link names.
    default_path:
        Path used by flows that do not name one; defaults to the first
        path.
    return_delays:
        Optional per-path return propagation delay in seconds
        (asymmetric routes without reverse queueing).  Paths not listed
        are symmetric: the return delay equals the forward propagation
        delay.
    reverse_paths:
        Optional mapping of path name to an ordered sequence of link
        names the path's acks and loss notices traverse.  Listed paths
        get real reverse-direction queueing (their return delay is the
        reverse links' propagation sum); unlisted paths keep a
        pure-propagation pseudo-link.  A path cannot appear in both
        ``return_delays`` and ``reverse_paths``.
    ack_bytes:
        Optional per-path ack wire size in bytes, overriding the
        engine-wide :data:`repro.netsim.network.ACK_BYTES` for the
        listed paths.
    """

    def __init__(self, links: dict, paths: dict, default_path: str | None = None,
                 return_delays: dict | None = None,
                 reverse_paths: dict | None = None,
                 ack_bytes: dict | None = None):
        if not links:
            raise ValueError("a topology needs at least one link")
        if not paths:
            raise ValueError("a topology needs at least one path")
        self.links = dict(links)
        return_delays = return_delays or {}
        reverse_paths = reverse_paths or {}
        ack_bytes = ack_bytes or {}
        both = sorted(set(return_delays) & set(reverse_paths))
        if both:
            raise ValueError(f"path(s) {both} give both return_delays and "
                             f"reverse_paths; pick one")
        for label, mapping in (("return_delays", return_delays),
                               ("reverse_paths", reverse_paths),
                               ("ack_bytes", ack_bytes)):
            unknown = sorted(set(mapping) - set(paths))
            if unknown:
                raise KeyError(f"{label} names unknown path(s) {unknown}; "
                               f"known: {sorted(paths)}")
        for name, value in ack_bytes.items():
            if int(value) <= 0:
                raise ValueError(f"ack_bytes of path {name!r} must be "
                                 f"positive, got {value!r}")
        self.paths: dict[str, Path] = {}
        for name, link_names in paths.items():
            link_names = tuple(link_names)
            if not link_names:
                raise ValueError(f"path {name!r} traverses no links")
            missing = [ln for ln in link_names if ln not in self.links]
            if missing:
                raise KeyError(
                    f"path {name!r} references unknown link(s) {missing}; "
                    f"known: {sorted(self.links)}")
            path_links = tuple(self.links[ln] for ln in link_names)
            if name in reverse_paths:
                reverse_names = tuple(reverse_paths[name])
                if not reverse_names:
                    raise ValueError(f"reverse path of {name!r} traverses "
                                     f"no links")
                missing = [ln for ln in reverse_names if ln not in self.links]
                if missing:
                    raise KeyError(
                        f"reverse path of {name!r} references unknown "
                        f"link(s) {missing}; known: {sorted(self.links)}")
                reverse_links = tuple(self.links[ln] for ln in reverse_names)
                return_delay = sum(link.delay for link in reverse_links)
            else:
                reverse_names = ()
                return_delay = return_delays.get(
                    name, sum(link.delay for link in path_links))
                reverse_links = (PropagationLink(float(return_delay),
                                                 name=f"{name}:return"),)
            path_ack = ack_bytes.get(name)
            self.paths[name] = Path(name=name, link_names=link_names,
                                    links=path_links,
                                    return_delay=float(return_delay),
                                    reverse_link_names=reverse_names,
                                    reverse_links=reverse_links,
                                    ack_bytes=(None if path_ack is None
                                               else int(path_ack)))
        if default_path is None:
            default_path = next(iter(self.paths))
        if default_path not in self.paths:
            raise KeyError(f"default path {default_path!r} is not a path; "
                           f"known: {sorted(self.paths)}")
        self.default_path = default_path

    def path(self, name: str | None = None) -> Path:
        """Resolve a path by name (``None`` -> the default path)."""
        if name is None:
            name = self.default_path
        try:
            return self.paths[name]
        except KeyError:
            raise KeyError(f"unknown path {name!r}; "
                           f"known: {sorted(self.paths)}") from None

    def all_links(self) -> list[Link]:
        return list(self.links.values())

    def reset(self) -> None:
        """Clear queue state and counters on every link."""
        for link in self.links.values():
            link.reset()

    # --- constructors ------------------------------------------------------

    @classmethod
    def single_path(cls, links: list[Link], name: str = "path") -> "Topology":
        """The legacy shape: every flow traverses every link in order."""
        named = {link.name or f"link{i}": link for i, link in enumerate(links)}
        if len(named) != len(links):
            raise ValueError("duplicate link names")
        return cls(named, {name: tuple(named)})

    @classmethod
    def parking_lot(cls, links: list[Link]) -> "Topology":
        """N links in series: a ``through`` path plus per-hop ``crossN``."""
        named = {link.name or f"hop{i}": link for i, link in enumerate(links)}
        if len(named) != len(links):
            raise ValueError("duplicate link names")
        names = list(named)
        paths = {"through": tuple(names)}
        for i, link_name in enumerate(names):
            paths[f"cross{i}"] = (link_name,)
        return cls(named, paths, default_path="through")


# --- declarative layer -------------------------------------------------------


@dataclass(frozen=True)
class LinkDef:
    """Declarative description of one link.

    ``bandwidth_mbps`` is the constant capacity, and stays the *nominal*
    capacity for controller sizing and BDP-relative buffers when a named
    ``trace`` overrides the actual capacity process.  ``queue_packets``
    sizes the buffer absolutely; otherwise ``buffer_bdp`` multiples of
    the BDP of the longest path through this link are used.

    ``faults`` is a tuple of declarative fault specs (see
    :mod:`repro.netsim.faults`) attached to the built link as one
    :class:`~repro.netsim.faults.FaultProcess`; the empty default keeps
    the link on the fault-free fast path, bit-identical to the golden
    traces.
    """

    name: str
    bandwidth_mbps: float = 20.0
    delay_ms: float = 10.0
    buffer_bdp: float = 1.0
    queue_packets: int | None = None
    loss_rate: float = 0.0
    trace: str | None = field(default=None,
                              metadata=canonical(named_trace_form))
    faults: tuple = ()

    def __post_init__(self):
        # Accept a bare spec or any iterable; fingerprints and builds
        # must see one canonical tuple (mirrors PathDef's coercions).
        object.__setattr__(self, "faults", coerce_faults(self.faults))


@dataclass(frozen=True)
class PathDef:
    """Declarative path: ordered link names plus the reverse route.

    ``reverse_links`` names the links acks/loss notices traverse (real
    reverse-path queueing); ``return_delay_ms`` instead keeps the
    reverse direction pure propagation at the given delay.  Giving
    neither means a symmetric pure-propagation return.  Giving both is
    an error -- a wired reverse path's return delay *is* its links'
    propagation sum.

    ``ack_bytes`` sets this path's acknowledgement wire size, scaling
    the service acks demand from queued reverse links; ``None`` uses
    the engine-wide :data:`repro.netsim.network.ACK_BYTES` default.
    """

    name: str
    links: tuple
    return_delay_ms: float | None = None
    reverse_links: tuple | None = None
    ack_bytes: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        if self.ack_bytes is not None:
            # Coerce here so the spec, its fingerprint, and the built
            # topology all agree on one value (a float would fingerprint
            # raw but run truncated).
            object.__setattr__(self, "ack_bytes", int(self.ack_bytes))
            if self.ack_bytes <= 0:
                raise ValueError(f"path {self.name!r}: ack_bytes must be "
                                 f"positive, got {self.ack_bytes!r}")
        if self.reverse_links is not None:
            object.__setattr__(self, "reverse_links",
                               tuple(self.reverse_links))
            if not self.reverse_links:
                raise ValueError(
                    f"path {self.name!r}: reverse_links must name at least "
                    f"one link (omit it for a pure-propagation return)")
            if self.return_delay_ms is not None:
                raise ValueError(
                    f"path {self.name!r}: give either reverse_links or "
                    f"return_delay_ms, not both")


@dataclass(frozen=True)
class TopologySpec:
    """Picklable topology description consumed by scenario grids.

    ``build()`` produces a fresh live :class:`Topology` whose link RNGs
    derive deterministically from the given seed, so a scenario's
    results are reproducible and identical across serial and parallel
    execution.
    """

    # Display name: renames keep their cache entries.
    name: str = field(metadata=UNSIGNED)
    links: tuple
    paths: tuple
    default_path: str = ""

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "paths", tuple(self.paths))
        if not self.links:
            raise ValueError("a topology spec needs at least one link")
        if not self.paths:
            raise ValueError("a topology spec needs at least one path")
        link_names = [ld.name for ld in self.links]
        if len(set(link_names)) != len(link_names):
            raise ValueError(f"duplicate link names in {link_names}")
        path_names = [p.name for p in self.paths]
        if len(set(path_names)) != len(path_names):
            raise ValueError(f"duplicate path names in {path_names}")
        for p in self.paths:
            missing = [ln for ln in p.links if ln not in link_names]
            if missing:
                raise ValueError(f"path {p.name!r} references unknown "
                                 f"link(s) {missing}")
            if p.reverse_links is not None:
                missing = [ln for ln in p.reverse_links
                           if ln not in link_names]
                if missing:
                    raise ValueError(
                        f"reverse path of {p.name!r} references unknown "
                        f"link(s) {missing}")
        if self.default_path and self.default_path not in path_names:
            raise ValueError(f"default path {self.default_path!r} is not "
                             f"one of {path_names}")

    # --- lookups -----------------------------------------------------------

    def path(self, name: str | None = None) -> PathDef:
        if name is None:
            name = self.default_path or self.paths[0].name
        for p in self.paths:
            if p.name == name:
                return p
        raise KeyError(f"unknown path {name!r}; "
                       f"known: {[p.name for p in self.paths]}")

    def path_names(self) -> tuple:
        return tuple(p.name for p in self.paths)

    def _link(self, name: str) -> LinkDef:
        for ld in self.links:
            if ld.name == name:
                return ld
        raise KeyError(f"unknown link {name!r}")

    def path_one_way_ms(self, name: str | None = None) -> float:
        """Forward propagation delay of a path, milliseconds."""
        return sum(self._link(ln).delay_ms for ln in self.path(name).links)

    def path_return_ms(self, name: str | None = None) -> float:
        """Return-direction propagation delay of a path, milliseconds."""
        p = self.path(name)
        if p.reverse_links is not None:
            return sum(self._link(ln).delay_ms for ln in p.reverse_links)
        if p.return_delay_ms is not None:
            return p.return_delay_ms
        return self.path_one_way_ms(p.name)

    def path_rtt_s(self, name: str | None = None) -> float:
        """Round-trip propagation time of a path, seconds."""
        p = self.path(name)
        return (self.path_one_way_ms(p.name) + self.path_return_ms(p.name)) / 1000.0

    def path_bottleneck_mbps(self, name: str | None = None) -> float:
        """Nominal bottleneck capacity along a path (Mbps)."""
        return min(self._link(ln).bandwidth_mbps for ln in self.path(name).links)

    def path_loss_rate(self, name: str | None = None) -> float:
        """End-to-end random-loss probability along a path."""
        survival = 1.0
        for ln in self.path(name).links:
            survival *= 1.0 - self._link(ln).loss_rate
        return 1.0 - survival

    # --- realisation -------------------------------------------------------

    def _bdp_rtt_s(self, link_name: str) -> float:
        """RTT used for this link's BDP-relative buffer: the longest
        round-trip of any path traversing the link in either direction
        (falls back to the link's own round trip if no path uses it)."""
        rtts = [self.path_rtt_s(p.name) for p in self.paths
                if link_name in p.links
                or (p.reverse_links is not None and link_name in p.reverse_links)]
        if rtts:
            return max(rtts)
        return 2.0 * self._link(link_name).delay_ms / 1000.0

    def build(self, packet_bytes: int = 1500, seed: int = 0,
              trace_cache: dict | None = None) -> Topology:
        """Instantiate live links (deterministic RNGs) and paths.

        ``trace_cache`` memoizes named-trace construction across builds
        (frozen read-only instances; see
        :func:`repro.netsim.traces.make_trace`) -- batched multi-cell
        execution passes one cache for a whole batch.
        """
        links: dict[str, Link] = {}
        for i, ld in enumerate(self.links):
            pps = mbps_to_pps(ld.bandwidth_mbps, packet_bytes)
            trace = (make_trace(ld.trace, cache=trace_cache) if ld.trace
                     else ConstantTrace(pps))
            queue = ld.queue_packets
            if queue is None:
                bdp = pps * self._bdp_rtt_s(ld.name)
                queue = max(int(round(ld.buffer_bdp * bdp)), MIN_QUEUE_PACKETS)
            link = Link(
                trace=trace, delay=ld.delay_ms / 1000.0, queue_size=queue,
                loss_rate=ld.loss_rate,
                rng=stream_rng("link.loss", seed, i), name=ld.name)
            if ld.faults:
                # Keyed like link.loss by (seed, position) so identical
                # schedules replay bit-for-bit across serial, parallel,
                # and batched execution.
                link.fault = FaultProcess(ld.faults, seed=seed, index=i)
            links[ld.name] = link
        paths = {p.name: p.links for p in self.paths}
        return_delays = {p.name: p.return_delay_ms / 1000.0
                         for p in self.paths if p.return_delay_ms is not None}
        reverse_paths = {p.name: p.reverse_links for p in self.paths
                         if p.reverse_links is not None}
        ack_bytes = {p.name: p.ack_bytes for p in self.paths
                     if p.ack_bytes is not None}
        return Topology(links, paths,
                        default_path=self.default_path or self.paths[0].name,
                        return_delays=return_delays,
                        reverse_paths=reverse_paths,
                        ack_bytes=ack_bytes)

    def with_reverse_paths(self, reverse: dict,
                           name: str | None = None) -> "TopologySpec":
        """New spec with the given paths' reverse routing replaced.

        ``reverse`` maps path names to either an ordered tuple of link
        names (wire real reverse-path queueing) or ``None`` (strip the
        wiring back to a pure-propagation pseudo-link *with the same
        return propagation delay*, i.e. the scenario's queue-free
        twin).  This is what the :class:`~repro.eval.scenarios
        .ScenarioSuite` ``reverse_paths`` axis applies per grid cell.
        """
        known = {p.name for p in self.paths}
        unknown = sorted(set(reverse) - known)
        if unknown:
            raise KeyError(f"unknown path(s) {unknown}; known: {sorted(known)}")
        paths = []
        for p in self.paths:
            if p.name not in reverse:
                paths.append(p)
                continue
            value = reverse[p.name]
            if value is None:
                paths.append(replace(p, reverse_links=None,
                                     return_delay_ms=self.path_return_ms(p.name)))
            else:
                paths.append(replace(p, return_delay_ms=None,
                                     reverse_links=tuple(value)))
        return replace(self, paths=tuple(paths), name=name or self.name)

    def with_faults(self, faults: dict,
                    name: str | None = None) -> "TopologySpec":
        """New spec with the given links' fault schedules replaced.

        ``faults`` maps link names to a fault spec, an iterable of
        specs, or ``None``/``()`` (strip the link back to fault-free).
        This is what the :class:`~repro.eval.scenarios.ScenarioSuite`
        ``faults`` axis applies per grid cell.
        """
        known = {ld.name for ld in self.links}
        unknown = sorted(set(faults) - known)
        if unknown:
            raise KeyError(f"unknown link(s) {unknown}; known: {sorted(known)}")
        links = []
        for ld in self.links:
            if ld.name in faults:
                links.append(replace(ld, faults=coerce_faults(faults[ld.name])))
            else:
                links.append(ld)
        return replace(self, links=tuple(links), name=name or self.name)


def _per_hop(value, hops: int, label: str) -> list:
    """Broadcast a scalar (or validate a sequence) across ``hops``."""
    if isinstance(value, (list, tuple)):
        if len(value) != hops:
            raise ValueError(f"{label} has {len(value)} entries for "
                             f"{hops} hops")
        return list(value)
    return [value] * hops


def _hop_links(hops: int, bandwidth_mbps, delay_ms, buffer_bdp,
               queue_packets, loss_rate, trace) -> tuple:
    bws = _per_hop(bandwidth_mbps, hops, "bandwidth_mbps")
    delays = _per_hop(delay_ms, hops, "delay_ms")
    buffers = _per_hop(buffer_bdp, hops, "buffer_bdp")
    queues = _per_hop(queue_packets, hops, "queue_packets")
    losses = _per_hop(loss_rate, hops, "loss_rate")
    traces = _per_hop(trace, hops, "trace")
    return tuple(LinkDef(name=f"hop{i}", bandwidth_mbps=float(bws[i]),
                         delay_ms=float(delays[i]), buffer_bdp=float(buffers[i]),
                         queue_packets=queues[i], loss_rate=float(losses[i]),
                         trace=traces[i])
                 for i in range(hops))


def dumbbell(bandwidth_mbps: float = 20.0, delay_ms: float = 10.0,
             buffer_bdp: float = 1.0, queue_packets: int | None = None,
             loss_rate: float = 0.0, trace: str | None = None,
             name: str | None = None) -> TopologySpec:
    """One shared bottleneck -- the paper's evaluation shape."""
    links = _hop_links(1, bandwidth_mbps, delay_ms, buffer_bdp,
                       queue_packets, loss_rate, trace)
    return TopologySpec(name=name or "dumbbell", links=links,
                        paths=(PathDef("through", ("hop0",)),))


def chain(hops: int, bandwidth_mbps=20.0, delay_ms=10.0, buffer_bdp=1.0,
          queue_packets=None, loss_rate=0.0, trace=None,
          name: str | None = None) -> TopologySpec:
    """``hops`` bottlenecks in series; one path traverses them all.

    Per-hop parameters accept a scalar (broadcast) or a sequence of
    length ``hops``.
    """
    if hops < 1:
        raise ValueError("need at least one hop")
    links = _hop_links(hops, bandwidth_mbps, delay_ms, buffer_bdp,
                       queue_packets, loss_rate, trace)
    return TopologySpec(name=name or f"chain{hops}", links=links,
                        paths=(PathDef("through", tuple(ld.name for ld in links)),))


def parking_lot(hops: int, bandwidth_mbps=20.0, delay_ms=10.0, buffer_bdp=1.0,
                queue_packets=None, loss_rate=0.0, trace=None,
                name: str | None = None) -> TopologySpec:
    """The classic multi-bottleneck contention shape.

    A ``through`` path traverses all ``hops`` links; each hop ``i``
    additionally carries single-hop cross traffic on path ``cross{i}``.
    """
    if hops < 2:
        raise ValueError("a parking lot needs at least two hops")
    links = _hop_links(hops, bandwidth_mbps, delay_ms, buffer_bdp,
                       queue_packets, loss_rate, trace)
    paths = [PathDef("through", tuple(ld.name for ld in links))]
    paths += [PathDef(f"cross{i}", (links[i].name,)) for i in range(hops)]
    return TopologySpec(name=name or f"parking-lot{hops}", links=links,
                        paths=tuple(paths), default_path="through")


def dumbbell_asymmetric(bandwidth_mbps: float = 20.0, delay_ms: float = 10.0,
                        reverse_bandwidth_mbps: float | None = None,
                        reverse_delay_ms: float | None = None,
                        buffer_bdp: float = 1.0,
                        reverse_buffer_bdp: float | None = None,
                        queue_packets: int | None = None,
                        reverse_queue_packets: int | None = None,
                        loss_rate: float = 0.0, trace: str | None = None,
                        reverse_trace: str | None = None,
                        ack_bytes: int | None = None,
                        name: str | None = None) -> TopologySpec:
    """A dumbbell whose reverse direction is its own queued link.

    The ``through`` path sends data over ``fwd`` and its acks over
    ``rev``; the ``reverse`` path is the mirror image, so a flow placed
    on it congests the ack path of ``through`` traffic -- the
    ADSL/cable/satellite ack-compression shape.  ``reverse_bandwidth``
    defaults to a tenth of the forward capacity (the classic asymmetric
    access ratio) and ``reverse_delay`` to the forward delay.
    ``ack_bytes`` overrides both paths' ack wire size (stacks with fat
    ack frames congest the skinny uplink proportionally sooner).
    """
    if reverse_bandwidth_mbps is None:
        reverse_bandwidth_mbps = bandwidth_mbps / 10.0
    if reverse_delay_ms is None:
        reverse_delay_ms = delay_ms
    if reverse_buffer_bdp is None:
        reverse_buffer_bdp = buffer_bdp
    links = (
        LinkDef(name="fwd", bandwidth_mbps=float(bandwidth_mbps),
                delay_ms=float(delay_ms), buffer_bdp=float(buffer_bdp),
                queue_packets=queue_packets, loss_rate=float(loss_rate),
                trace=trace),
        LinkDef(name="rev", bandwidth_mbps=float(reverse_bandwidth_mbps),
                delay_ms=float(reverse_delay_ms),
                buffer_bdp=float(reverse_buffer_bdp),
                queue_packets=reverse_queue_packets,
                loss_rate=float(loss_rate), trace=reverse_trace),
    )
    paths = (PathDef("through", ("fwd",), reverse_links=("rev",),
                     ack_bytes=ack_bytes),
             PathDef("reverse", ("rev",), reverse_links=("fwd",),
                     ack_bytes=ack_bytes))
    return TopologySpec(name=name or "dumbbell-asym", links=links,
                        paths=paths, default_path="through")
