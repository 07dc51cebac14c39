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
have an empty list: their acks arrive one ``return_delay`` after the
receiver sees the packet, with no queue and no drop.  Wiring real links
instead makes ack-path queueing, ack compression, ack *loss*, and
asymmetric satellite/cable routes emergent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.netsim.faults import FaultProcess, coerce_faults
from repro.netsim.link import Link
from repro.netsim.rngstreams import stream_rng
from repro.netsim.signing import UNSIGNED, canonical
from repro.netsim.traces import (BandwidthTrace, ConstantTrace, make_trace,
                                 mbps_to_pps, named_trace_form, trace_form)

__all__ = ["Path", "Topology", "LinkDef", "PathDef", "TopologySpec",
           "dumbbell", "chain", "parking_lot", "dumbbell_asymmetric"]

#: Queue floor when sizing a buffer from a BDP multiple.
MIN_QUEUE_PACKETS = 4


@dataclass(frozen=True)
class Path:
    """A resolved forward route plus the resolved reverse route.

    ``reverse_links`` is empty for a path without explicit reverse
    wiring: its acks take ``return_delay`` of pure propagation.
    """

    name: str
    links: tuple
    #: One-way propagation delay of the ack path, seconds (sum of the
    #: reverse links' propagation delays, if any are wired).
    return_delay: float
    reverse_links: tuple
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


def _check_wiring(link_names: list, paths: tuple, default_path) -> None:
    """The reference rules a spec and a live topology share: at least
    one link and one path, unique names, every path (and reverse path)
    over known links, and a default path that is one of the paths
    (falsy: the first)."""
    if not link_names:
        raise ValueError("a topology needs at least one link")
    if not paths:
        raise ValueError("a topology needs at least one path")
    if len(set(link_names)) != len(link_names):
        raise ValueError(f"duplicate link names in {link_names}")
    path_names = [p.name for p in paths]
    if len(set(path_names)) != len(path_names):
        raise ValueError(f"duplicate path names in {path_names}")
    for p in paths:
        for label, names in (("path", p.links),
                             ("reverse path of", p.reverse_links or ())):
            missing = [ln for ln in names if ln not in link_names]
            if missing:
                raise ValueError(f"{label} {p.name!r} references unknown "
                                 f"link(s) {missing}; known: {link_names}")
    if default_path and default_path not in path_names:
        raise ValueError(f"default path {default_path!r} is not one of "
                         f"{path_names}")


class Topology:
    """Named live links and the named paths flows take across them.

    ``links`` maps link name to :class:`Link` (insertion order is the
    canonical link order); ``paths`` is a sequence of :class:`PathDef`
    over those names -- the same path vocabulary a
    :class:`TopologySpec` carries.  A path with ``reverse_links`` gets
    real reverse-direction queueing (its return delay is those links'
    propagation sum); any other path has no reverse links and returns
    by pure propagation at ``return_delay_ms``, or at its forward
    propagation delay.  ``default_path`` (flows that name none) defaults to the
    first path.
    """

    def __init__(self, links: dict, paths, default_path: str | None = None):
        self.links = dict(links)
        paths = tuple(paths)
        _check_wiring(list(self.links), paths, default_path)
        self.paths: dict[str, Path] = {p.name: self._resolve(p)
                                       for p in paths}
        self.default_path = default_path or paths[0].name

    def _resolve(self, p: "PathDef") -> Path:
        links = tuple(self.links[ln] for ln in p.links)
        reverse_links = tuple(self.links[ln] for ln in p.reverse_links or ())
        if reverse_links:
            return_delay = sum(link.delay for link in reverse_links)
        elif p.return_delay_ms is None:
            return_delay = sum(link.delay for link in links)
        else:
            return_delay = p.return_delay_ms / 1000.0
        return Path(name=p.name, links=links, return_delay=float(return_delay),
                    reverse_links=reverse_links, ack_bytes=p.ack_bytes)

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


# --- declarative layer -------------------------------------------------------


def _link_trace_form(trace, owner, signer) -> list | None:
    """Signing form of :attr:`LinkDef.trace`: a registered name by the
    content its factory produces, a live trace by its own content."""
    if isinstance(trace, str):
        return named_trace_form(trace, owner, signer)
    return trace_form(trace)


@dataclass(frozen=True)
class LinkDef:
    """Declarative description of one link.

    ``bandwidth_mbps`` is the constant capacity, and stays the *nominal*
    capacity for controller sizing and BDP-relative buffers when
    ``trace`` -- a registered trace name, or a live
    :class:`~repro.netsim.traces.BandwidthTrace` -- overrides the
    actual capacity process.  ``queue_packets`` sizes the buffer
    absolutely; otherwise ``buffer_bdp`` multiples of the BDP of the
    longest path through this link are used.

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
    trace: str | BandwidthTrace | None = field(
        default=None, metadata=canonical(_link_trace_form))
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

    A path checks its own fields here; which links exist is the
    topology's to check.
    """

    name: str
    links: tuple
    return_delay_ms: float | None = None
    reverse_links: tuple | None = None
    ack_bytes: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        if not self.links:
            raise ValueError(f"path {self.name!r} traverses no links")
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
        _check_wiring([ld.name for ld in self.links], self.paths,
                      self.default_path)

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

        The one place a simulated network is built: a single-bottleneck
        cell is its one-link :func:`dumbbell`.  ``trace_cache`` memoizes
        named-trace construction across builds (frozen read-only
        instances; see :func:`repro.netsim.traces.make_trace`) --
        batched multi-cell execution passes one cache for a whole batch.
        A live trace on a link is used as it stands.
        """
        links: dict[str, Link] = {}
        for i, ld in enumerate(self.links):
            pps = mbps_to_pps(ld.bandwidth_mbps, packet_bytes)
            if ld.trace is None:
                trace = ConstantTrace(pps)
            elif isinstance(ld.trace, str):
                trace = make_trace(ld.trace, cache=trace_cache)
            else:
                trace = ld.trace
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
        return Topology(links, self.paths, self.default_path)

    def with_reverse_paths(self, reverse: dict,
                           name: str | None = None) -> "TopologySpec":
        """New spec with the given paths' reverse routing replaced.

        ``reverse`` maps path names to either an ordered tuple of link
        names (wire real reverse-path queueing) or ``None`` (strip the
        wiring back to a pure-propagation return *with the same
        propagation delay*, i.e. the scenario's queue-free
        twin).  ``name`` names the new spec (default: this spec's);
        a suite that sweeps both needs a distinct one, since its cell
        names show ``topo=<name>``.
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
        ``name`` names the new spec as in :meth:`with_reverse_paths`.
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
             loss_rate: float = 0.0, trace: str | BandwidthTrace | None = None,
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
