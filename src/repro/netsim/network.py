"""The discrete-event simulation engine and flow topologies.

The engine advances a heap of timestamped events over the links of a
:class:`~repro.netsim.topology.Topology`.  Each flow follows a named
*path* (an ordered forward link subset plus an ordered reverse link
list its acks transit), so a single simulation can mix through traffic
and cross traffic over different link subsets in either direction --
single-bottleneck dumbbells (all the paper's experiments) are just the
one-link, one-path, propagation-return special case, and a plain
``Link`` or link list is still accepted and promoted to that shape.

Event kinds:

* ``send``  -- a flow attempts to emit its next packet;
* ``hop``   -- the packet arrives at its next link (forward data or a
  reverse-walking ack/loss notice) and is offered to that link's queue
  at the *current* simulator clock.  This is the unified per-hop
  scheduler: a packet transits its first hop synchronously when it
  enters a direction and every later hop as a deferred event at its
  true arrival time, so every shared link sees in-order arrivals from
  all flows in both directions;
* ``rcv``   -- the receiver observes the packet (or the gap a drop
  left) and its ack / loss notice starts walking the path's *reverse
  links* through the same per-hop scheduler;
* ``ack``   -- a delivered packet's acknowledgement reaches the sender,
  having transited the reverse links (queueing behind reverse cross
  traffic; pure propagation only on the default pseudo-link);
* ``loss``  -- the sender learns a packet was lost (about one path RTT
  after the drop, approximating duplicate-ack/timeout detection; the
  notice charges estimated queueing on the links past the drop and
  transits the reverse path like an ack);
* ``rto``   -- retransmit-timeout fallback for an acknowledgement that
  was dropped on a reverse link (buffer overflow or random wire drop
  alike): if no later cumulative ack reached the sender first, the
  packet is surfaced as a loss (the spurious-timeout behaviour of a
  real sender);
* ``mi``    -- a flow's monitor-interval boundary.

The engine supports incremental execution (``run(until=...)``) so the
gym-style environments can interleave RL decisions with simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.netsim.rngstreams import stream_rng
from repro.netsim.sender import ACK_BYTES, Controller, Flow, MonitorIntervalStats
from repro.netsim.topology import Topology

__all__ = ["FlowSpec", "FlowRecord", "SimState", "Simulation"]

#: Pacing-rate clamps (packets/second) applied when scheduling sends.
MIN_RATE_PPS = 0.5
#: Cap on rate relative to the path bottleneck's maximum capacity.
MAX_RATE_FACTOR = 8.0
#: Fallback monitor-interval duration when a path has zero delay.
MIN_MI_DURATION = 0.01
# ACK_BYTES (re-exported from repro.netsim.sender): default ack wire
# size in bytes -- scales the service an ack/loss notice demands from
# a queued reverse link relative to the flow's data packets.  A path
# can override it (``PathDef(ack_bytes=...)`` / :attr:`Path.ack_bytes`)
# for stacks with larger ack frames (SACK blocks, QUIC ack ranges,
# link-layer framing).
#: Retransmit-timeout multiple of the smoothed RTT used when an ack is
#: buffer-dropped on the reverse path and no later cumulative ack
#: recovers it -- the coarse ``RTO = srtt + 4*rttvar`` of a real stack
#: collapsed to one factor (the simulator does not track rttvar).
ACK_RTO_FACTOR = 3.0
#: Default per-hop forwarding dither, as a fraction of the next link's
#: packet service time, applied to *deferred* hop arrivals only (never
#: a direction's first hop, preserving single-hop bit-identity).
#: Equal-rate links in series otherwise phase-lock: an upstream queue
#: re-serializes its flow onto a deterministic service grid, and at a
#: full downstream queue the same flow then loses the race for every
#: freed buffer slot on exact float ties -- permanent starvation no
#: store-and-forward device exhibits, the per-hop analogue of the
#: pacing jitter ``_drain`` applies to rate-paced sends.
HOP_JITTER_FACTOR = 0.5

# Integer event kinds, indexing the per-simulation handler table (see
# ``Simulation._drain``).  Heap order never depends on them: the
# per-push sequence number breaks every time tie before a kind would be
# compared.
EV_START, EV_SEND, EV_HOP, EV_RCV, EV_ACK, EV_LOSS, EV_RTO, EV_MI = range(8)

#: How many uniform draws are prefetched per block from the pacing and
#: hop-dither generators.  Block draws are element-wise identical to
#: repeated scalar draws on the same ``numpy`` bitstream, and
#: ``tolist()`` makes them Python floats exactly, so batching changes
#: no result -- it only amortizes the per-call generator overhead.
RNG_BLOCK = 512


@dataclass
class FlowSpec:
    """Declarative description of one flow for :class:`Simulation`.

    ``path`` names the topology path the flow traverses; ``None`` uses
    the topology's default path (the whole link list for the legacy
    single-path constructor).
    """

    controller: Controller
    start_time: float = 0.0
    stop_time: float = float("inf")
    packet_bytes: int = 1500
    mi_duration: float | None = None
    keep_packets: bool = False
    path: str | None = None


@dataclass
class FlowRecord:
    """Aggregate results of one flow after a simulation run."""

    flow_id: int
    scheme: str
    mean_throughput_pps: float
    mean_throughput_mbps: float
    mean_utilization: float
    mean_rtt: float | None
    base_rtt: float
    loss_rate: float
    records: list[MonitorIntervalStats] = field(repr=False, default_factory=list)

    @property
    def latency_ratio(self) -> float:
        """Mean RTT over propagation RTT (>= 1.0 in a healthy run)."""
        if self.mean_rtt is None or self.base_rtt <= 0:
            return float("inf")
        return self.mean_rtt / self.base_rtt


class SimState:
    """Resumable stepping handle over one :class:`Simulation`.

    All mutable loop state (heap, sequence counter, clock, lifetime
    event count) lives on the simulation, and so does the one
    pop/dispatch loop, :meth:`Simulation._drain` (it draws the pacing
    jitter, so it sits with the generator's owner).  ``SimState`` is
    the slicing surface over it: advance a cell by time
    (:meth:`step_until`) or by event count (:meth:`step_events`).  The
    gym-style environments advance one monitor interval per
    ``run(until=)``; :mod:`repro.eval.batch` runs each cell in one
    full-width slice.

    Slicing is invisible: a slice boundary only decides *when* the
    next ``heappop`` happens, never what it returns, and every handler
    -- inline or on the table -- sees the popped event's own timestamp,
    so the horizon bump at the end of :meth:`step_until` can never
    leak into the dynamics.  ``tests/test_golden_traces.py`` and
    ``tests/test_batch.py`` (single-stepped cells == one-shot cells,
    on every fused branch) pin it.
    """

    __slots__ = ("sim",)

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim

    def peek_time(self) -> float | None:
        """Timestamp of the next pending event (``None`` once drained)."""
        heap = self.sim._heap
        return heap[0][0] if heap else None

    @property
    def done(self) -> bool:
        """True once no pending event lies within the cell's duration."""
        sim = self.sim
        heap = sim._heap
        return not heap or heap[0][0] > sim.duration

    def step_until(self, until: float | None = None) -> int:
        """Process every event with ``time <= until`` (clamped to the
        duration) and leave the clock on the horizon -- or where it
        was, for a horizon behind it.  Returns the number of events
        processed in this slice.
        """
        sim = self.sim
        horizon = sim.duration if until is None else min(until, sim.duration)
        processed = sim._drain(horizon, -1)
        sim.now = max(sim.now, horizon)
        return processed

    def step_events(self, n: int) -> int:
        """Process up to ``n`` events within the cell's duration.

        Unlike :meth:`step_until` the clock is *not* advanced past the
        last processed event, so a later slice resumes exactly where
        this one stopped; only draining the cell (or a final
        ``step_until``) lands the clock on the duration.
        """
        sim = self.sim
        return sim._drain(sim.duration, n if n > 0 else 0)


class Simulation:
    """Event-driven simulation of flows routed over a topology.

    Every packet walks its path link by link at its true per-hop
    arrival times (see the module docstring).
    """

    def __init__(self, links: Link | list[Link] | Topology, specs: list[FlowSpec],
                 duration: float, seed: int = 0, jitter: float = 0.02,
                 hop_jitter: float = HOP_JITTER_FACTOR):
        self.hop_jitter = float(hop_jitter)
        if isinstance(links, Topology):
            self.topology = links
        else:
            link_list = [links] if isinstance(links, Link) else list(links)
            if not link_list:
                raise ValueError("need at least one link")
            self.topology = Topology.single_path(link_list)
        self.links = self.topology.all_links()
        self.duration = float(duration)
        self.jitter = float(jitter)
        self.rng = stream_rng("sim.pacing", seed)
        #: Dedicated stream for per-hop forwarding dither: hop events
        #: must not consume ``self.rng``, or the send-pacing jitter
        #: sequence (and with it every single-hop race) would depend
        #: on how many hops other flows' packets cross.
        self._hop_rng = stream_rng("sim.hop-dither", seed)
        # Prefetched uniform blocks (see RNG_BLOCK).  Nothing outside
        # the engine reads these generators, so prefetching cannot
        # perturb any other stream.
        self._jitter_buf = None
        self._jitter_pos = 0
        self._hop_buf = None
        self._hop_pos = 0
        self.now = 0.0
        self._heap: list[tuple[float, int, int, int, Packet | None]] = []
        self._seq = 0
        #: Lifetime count of events popped and handled by
        #: :meth:`_drain` -- pinned per cell by the perf ledger's
        #: ``expected.json`` and the numerator of its ``netsim.events``
        #: / ``netsim.run_calops_per_event`` layer metrics.
        self.events_processed = 0
        # Handler table indexed by the EV_* event kinds; ``None`` marks
        # a kind :meth:`_drain` handles inline.
        self._handlers = (
            self._handle_start, None, self._advance_packet,
            None, None, self._handle_loss,
            self._handle_ack_rto, self._handle_mi)
        #: Resumable stepping handle (:meth:`run` delegates to it).
        self.state = SimState(self)

        #: Base RTT of the topology's default path -- the single-path
        #: quantity legacy callers (gym envs, single-flow runners) read.
        self.base_rtt = self.topology.path().base_rtt

        self.flows: list[Flow] = []
        for spec in specs:
            path = self.topology.path(spec.path)
            flow = Flow(
                flow_id=len(self.flows), controller=spec.controller,
                packet_bytes=spec.packet_bytes, start_time=spec.start_time,
                stop_time=min(spec.stop_time, duration),
                mi_duration=spec.mi_duration, keep_packets=spec.keep_packets)
            flow.path_name = path.name
            flow.links = path.links
            flow.n_links = len(path.links)
            flow.reverse_links = path.reverse_links
            flow.n_rev_links = len(path.reverse_links)
            # Single pure-propagation reverse pseudo-link (the default
            # return for every unwired path): the receive handler
            # inlines the whole reverse walk.
            flow.pure_return_delay = (
                path.reverse_links[0].pure_delay
                if len(path.reverse_links) == 1 else None)
            flow.base_rtt = path.base_rtt
            flow.return_delay = path.return_delay
            flow.set_ack_bytes(ACK_BYTES if path.ack_bytes is None
                               else path.ack_bytes)
            flow.init_hop_floors()
            flow.max_rate = MAX_RATE_FACTOR * min(
                link.trace.max_bandwidth() for link in path.links)
            if flow.mi_duration is None:
                flow.mi_duration = max(flow.base_rtt, MIN_MI_DURATION)
            self.flows.append(flow)
            self._push(spec.start_time, EV_START, flow, None)

    # --- event plumbing -----------------------------------------------------

    def _push(self, time: float, kind: int, flow: Flow, packet: Packet | None) -> None:
        # Heap entries carry the flow object itself: comparisons never
        # reach it (the unique ``seq`` breaks every time tie first), and
        # dispatch skips a list lookup per event.  The hottest sites
        # inline this body next to their heappush.
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (time, seq, kind, flow, packet))

    def run(self, until: float | None = None) -> None:
        """Process events up to ``until`` (default: the full duration).

        One full-width slice of :meth:`_drain`: ``run(t)`` and any
        sequence of ``step_until`` calls ending at ``t`` are
        bit-identical (see :class:`SimState`).
        """
        self.state.step_until(until)

    def run_all(self) -> list[FlowRecord]:
        """Run to completion and return per-flow summaries."""
        self.run()
        self._finalize()
        return [self.summary(flow.flow_id) for flow in self.flows]

    def _finalize(self) -> None:
        for flow in self.flows:
            end = min(flow.stop_time, self.duration)
            if flow.started and (flow.mi_sent or flow.mi_acked or flow.mi_lost):
                # Acks/losses for packets sent before the stop keep
                # arriving (and being accounted) after ``stop_time``;
                # close the final MI at the true last-event time so a
                # churned flow's throughput is not inflated by a span
                # clamped short of its contents.
                end = min(max(end, flow.last_event_time), self.duration)
                if end > flow.mi_start:
                    self._close_mi(flow, end)

    # --- the event loop ---------------------------------------------------------

    def _drain(self, horizon: float, budget: int) -> int:
        """Pop and handle events with ``time <= horizon``, at most
        ``budget`` of them (negative: no cap); returns how many.

        The one pop/dispatch loop.  ``EV_SEND``, ``EV_ACK`` and
        ``EV_RCV`` -- ~95 % of all events -- are handled right here
        instead of through a call (``None`` in ``self._handlers``);
        the rest dispatch through that table.  The clock and the push
        sequence counter are loop locals: controllers are handed
        ``now`` as an argument and nothing inline reads ``self.now``,
        so ``now`` is stored before, and ``seq`` stored before and
        re-read after, each out-of-line ``self.`` call that reads the
        clock or pushes; both land on the instance when the loop exits
        (``self.now`` on the last handled event, as
        :meth:`SimState.step_events` promises).  Heap keys, push order,
        RNG draw order and every float expression are those of the
        per-kind handlers this loop replaced.
        """
        heap = self._heap
        handlers = self._handlers
        jitter = self.jitter
        now = self.now
        seq = self._seq
        processed = 0
        try:
            while heap and processed != budget:
                # Pop first: pushing the lone overshooting event back
                # (key unchanged, so pop order is unaffected) beats
                # re-reading ``heap[0][0]`` on every iteration.
                item = heappop(heap)
                time, _, kind, flow, packet = item
                if time > horizon:
                    heappush(heap, item)
                    break
                now = time
                processed += 1
                if kind == EV_ACK:
                    if flow.pending_acks:
                        self.now = now
                        self._recover_pending(flow, packet.seq)
                    # Flow.note_ack, inlined.
                    flow.total_acked += 1
                    flow.mi_acked += 1
                    inflight = flow.inflight - 1
                    flow.inflight = inflight if inflight > 0 else 0
                    if now > flow.last_event_time:
                        flow.last_event_time = now
                    rtt = now - packet.send_time
                    flow.last_rtt = rtt
                    srtt = flow.srtt
                    flow.srtt = (rtt if srtt is None
                                 else 0.875 * srtt + 0.125 * rtt)
                    min_seen = flow.min_rtt_seen
                    if min_seen is None or rtt < min_seen:
                        flow.min_rtt_seen = rtt
                    flow._mi_times.append(now)
                    flow._mi_rtts.append(rtt)
                    if rtt < flow._mi_min_rtt:
                        flow._mi_min_rtt = rtt
                    cb = flow.on_ack_cb
                    if cb is not None:
                        cb(flow, packet, now)
                    # Ack clock (_clock_window + _send_now): a
                    # window flow sends as soon as the window opens.
                    if flow.is_window and not flow.stopped \
                            and flow.inflight < flow.cwnd_fn(now) \
                            and not flow.send_scheduled \
                            and now < flow.stop_time:
                        flow.send_scheduled = True
                        seq += 1
                        heappush(heap, (now, seq, EV_SEND, flow, None))
                elif kind == EV_SEND:
                    flow.send_scheduled = False
                    if flow.stopped or now >= flow.stop_time:
                        continue
                    window = flow.is_window
                    emit = True
                    if window:
                        cwnd = flow.cwnd_fn(now)
                        if flow.inflight >= cwnd:
                            continue  # re-armed by the next ack/loss
                    else:
                        # min(max(rate, MIN_RATE_PPS), flow.max_rate)
                        rate = flow.pacing_fn(now)
                        if MIN_RATE_PPS > rate:
                            rate = MIN_RATE_PPS
                        if flow.max_rate < rate:
                            rate = flow.max_rate
                        if flow.cap_fn is not None:
                            cap = flow.cap_fn(now)
                            emit = cap is None or flow.inflight < cap
                    if emit:
                        packet = Packet(flow.flow_id, flow.next_seq, now,
                                        flow.packet_bytes)
                        flow.next_seq += 1
                        # Flow.note_sent, inlined.
                        flow.total_sent += 1
                        flow.mi_sent += 1
                        flow.inflight += 1
                        if now > flow.last_event_time:
                            flow.last_event_time = now
                        if flow.keep_packets:
                            flow.packets.append(packet)
                        # Hop 0 is transited synchronously (its arrival
                        # time *is* the clock), later hops via EV_HOP.
                        delivered, drop_kind, depart, queue_delay = \
                            flow.links[0].transmit(now)
                        packet.queue_delay += queue_delay
                        if not delivered:
                            self.now = now
                            self._seq = seq
                            self._forward_drop(flow, packet, drop_kind,
                                               depart, queue_delay)
                            seq = self._seq
                        elif flow.n_links > 1:
                            packet.hop = 1
                            seq += 1
                            heappush(heap, (
                                self._dither_arrival(flow, packet, depart),
                                seq, EV_HOP, flow, packet))
                        else:
                            packet.hop = 1
                            packet.arrival_time = depart
                            seq += 1
                            heappush(heap, (depart, seq, EV_RCV, flow, packet))
                    if window:
                        if flow.inflight >= cwnd:
                            continue
                        # Pace the remaining window over one smoothed RTT.
                        srtt = flow.srtt or max(flow.base_rtt, MIN_MI_DURATION)
                        due = now + srtt / (1.0 if 1.0 > cwnd else cwnd)
                    else:
                        # Small pacing jitter: without it, equal-rate
                        # flows phase-lock (one flow's packet always
                        # reaches a full queue first and the other takes
                        # every drop) -- an artifact no real pacer has.
                        pos = self._jitter_pos
                        buf = self._jitter_buf
                        if buf is None or pos >= RNG_BLOCK:
                            buf = self._jitter_buf = \
                                self.rng.random(RNG_BLOCK).tolist()
                            pos = 0
                        self._jitter_pos = pos + 1
                        due = now + (1.0 / rate) * (
                            1.0 + jitter * (buf[pos] - 0.5))
                    # The flow is neither stopped nor send-scheduled
                    # here (checked / cleared above).
                    if due < flow.stop_time:
                        flow.send_scheduled = True
                        seq += 1
                        heappush(heap, (due if due > now else now, seq,
                                        EV_SEND, flow, None))
                elif kind == EV_RCV:
                    # The receiver observed the packet (or a drop's
                    # gap): its ack / loss notice walks the reverse
                    # links -- for the dominant shape, one
                    # pure-propagation pseudo-link, in one addition.
                    packet.reversing = True
                    pure = flow.pure_return_delay
                    if pure is None:
                        packet.hop = 0
                        self.now = now
                        self._seq = seq
                        self._advance_reverse(flow, packet)
                        seq = self._seq
                        continue
                    packet.hop = 1
                    cursor = now + pure
                    seq += 1
                    if packet.dropped:
                        heappush(heap, (cursor, seq, EV_LOSS, flow, packet))
                    else:
                        packet.ack_time = cursor
                        heappush(heap, (cursor, seq, EV_ACK, flow, packet))
                else:
                    self.now = now
                    self._seq = seq
                    handlers[kind](flow, packet)
                    seq = self._seq
        finally:
            # Also when a hook raises: whichever of the local and the
            # attribute is ahead is current, and keeping it means the
            # heap never sees a sequence number twice.
            if seq > self._seq:
                self._seq = seq
            self.now = now
            self.events_processed += processed
        return processed

    # --- event handlers -------------------------------------------------------

    def _handle_start(self, flow: Flow, packet: Packet | None = None) -> None:
        flow.started = True
        flow.mi_start = self.now
        flow.controller.on_flow_start(flow, self.now)
        self._push(self.now + flow.mi_duration, EV_MI, flow, None)
        self._send_now(flow)

    def _send_now(self, flow: Flow) -> None:
        """Schedule a send attempt at the current clock, at most once."""
        if flow.send_scheduled or flow.stopped or self.now >= flow.stop_time:
            return
        flow.send_scheduled = True
        self._push(self.now, EV_SEND, flow, None)

    # --- unified per-hop scheduler -------------------------------------------

    def _advance_packet(self, flow: Flow, packet: Packet) -> None:
        """Offer ``packet`` to its next link at the current clock.

        One code path walks both directions: forward data over
        ``flow.links`` and, once the receiver has observed the packet
        (``packet.reversing``), its ack / loss notice over
        ``flow.reverse_links`` at the flow's ack wire size.  Every
        ``link.transmit`` happens at the true arrival time, so a shared
        link's queue sees one time-ordered arrival stream from all
        flows.
        """
        if packet.reversing:
            self._advance_reverse(flow, packet)
            return
        hop = packet.hop
        delivered, drop_kind, depart, queue_delay = \
            flow.links[hop].transmit(self.now)
        packet.queue_delay += queue_delay
        if not delivered:
            self._forward_drop(flow, packet, drop_kind, depart, queue_delay)
            return
        hop += 1
        packet.hop = hop
        seq = self._seq + 1
        self._seq = seq
        if hop < flow.n_links:
            arrival = self._dither_arrival(flow, packet, depart)
            heappush(self._heap, (arrival, seq, EV_HOP, flow, packet))
        else:
            packet.arrival_time = depart
            heappush(self._heap, (depart, seq, EV_RCV, flow, packet))

    def _forward_drop(self, flow: Flow, packet: Packet, drop_kind: str,
                      depart: float, queue_delay: float) -> None:
        """``flow.links[packet.hop]`` just dropped ``packet`` at the
        current clock: schedule the receiver's observation of the gap.

        The receiver observes the gap roughly when the dropped packet
        would have arrived.  A random drop happens on the wire, so
        ``depart`` already carries the normal queue + service +
        propagation timing of the dropping link; a buffer drop never
        occupies the queue, so charge the timing a surviving packet
        just behind it would see.  The links past the drop charge their
        *current* queue occupancy plus service, not bare propagation --
        the gap is observed at the receiver only after the packets
        already queued downstream drain ahead of it.
        """
        packet.dropped = True
        packet.drop_kind = drop_kind
        hop = packet.hop
        links = flow.links
        if drop_kind == "random":
            cursor = depart
        else:
            cursor = self.now + queue_delay + links[hop].delay
        for l in links[hop + 1:]:
            cursor += (l.queue_delay_at(cursor)
                       + 1.0 / l.bandwidth_at(cursor) + l.delay)
        self._push(cursor, EV_RCV, flow, packet)

    def _dither_arrival(self, flow: Flow, packet: Packet, depart: float) -> float:
        """Forwarding dither for a deferred hop arrival.

        Adds up to ``hop_jitter`` of the next link's service time for
        this packet (store-and-forward processing variance; see
        :data:`HOP_JITTER_FACTOR` for the phase-locking artifact it
        prevents), clamped to the flow's latest scheduled arrival at
        that link so a flow's packets stay in FIFO order on every hop.
        Never applied to a direction's first hop or to the final
        receiver/sender arrival, so single-hop forward paths and
        pure-propagation returns keep their exact timing.
        """
        reversing = packet.reversing
        hop = packet.hop
        if self.hop_jitter > 0.0:
            links = flow.reverse_links if reversing else flow.links
            size = flow.ack_size if reversing else 1.0
            service = size / links[hop].bandwidth_at(depart)
            pos = self._hop_pos
            buf = self._hop_buf
            if buf is None or pos >= RNG_BLOCK:
                buf = self._hop_buf = self._hop_rng.random(RNG_BLOCK).tolist()
                pos = 0
            self._hop_pos = pos + 1
            depart += self.hop_jitter * buf[pos] * service
        floors = flow.rev_hop_floor if reversing else flow.fwd_hop_floor
        floor = floors[hop]
        if depart > floor:
            floors[hop] = depart
            return depart
        return floor

    def _advance_reverse(self, flow: Flow, packet: Packet) -> None:
        """One reverse hop of an ack / loss notice at the current clock.

        Acks occupy reverse queues and compete with reverse-direction
        data for service at their true wire size (``flow.ack_bytes``
        over the flow's packet size).  A *loss notice* is never lost --
        loss information is implied by every later cumulative ack, so a
        congested reverse hop shows up as delay: a buffer-dropped
        notice is delivered with the timing a packet just behind the
        drop would see, and a randomly (wire-)dropped notice with its
        normal timing.  A dropped *ack*, however, really is lost --
        whether the reverse buffer overflowed or the wire corrupted it
        (a real sender cannot tell the difference): the packet parks in
        ``flow.pending_acks`` until a later cumulative ack reaches the
        sender, with an ``"rto"`` event as the retransmit-timeout
        fallback.
        """
        reverse_links = flow.reverse_links
        hop = packet.hop
        link = reverse_links[hop]
        pure = link.pure_delay
        if pure is not None:
            # Zero-work fast path: a pure-propagation pseudo-link never
            # queues, drops, or counts -- the arrival is an addition.
            cursor = self.now + pure
        else:
            size = flow.ack_size
            delivered, drop_kind, depart, queue_delay = \
                link.transmit(self.now, size)
            packet.ack_queue_delay += queue_delay
            if not delivered and not packet.dropped:
                # Real ack loss (buffer overflow or wire drop alike):
                # sender recovery via cumulative ack or RTO.
                flow.pending_acks[packet.seq] = packet
                rto = ACK_RTO_FACTOR * max(flow.srtt or flow.base_rtt,
                                           MIN_MI_DURATION)
                self._push(self.now + rto, EV_RTO, flow, packet)
                return
            if delivered or drop_kind == "random":
                # A random drop's depart_time already carries the full
                # queue + service + propagation timing (loss notices
                # only -- a random-dropped ack parked above).
                cursor = depart
            else:
                # Buffer-dropped loss notice: delivered late.
                cursor = (self.now + queue_delay
                          + size / link.bandwidth_at(self.now) + link.delay)
        hop += 1
        packet.hop = hop
        if hop < flow.n_rev_links:
            self._push(self._dither_arrival(flow, packet, cursor),
                       EV_HOP, flow, packet)
            return
        seq = self._seq + 1
        self._seq = seq
        if packet.dropped:
            heappush(self._heap, (cursor, seq, EV_LOSS, flow, packet))
        else:
            packet.ack_time = cursor
            heappush(self._heap, (cursor, seq, EV_ACK, flow, packet))

    # --- receiver / sender-side handlers -------------------------------------

    def _recover_pending(self, flow: Flow, before_seq: int) -> None:
        """Cumulative feedback below ``before_seq`` reached the sender:
        any earlier delivered packet whose own ack was dropped on the
        reverse path is acknowledged now (its "rto" event becomes a
        stale no-op)."""
        if not flow.pending_acks:
            return
        for seq in sorted(s for s in flow.pending_acks if s < before_seq):
            recovered = flow.pending_acks.pop(seq)
            recovered.ack_time = self.now
            recovered.ack_recovered = True
            flow.note_ack(recovered, self.now)
            if flow.on_ack_cb is not None:
                flow.on_ack_cb(flow, recovered, self.now)

    def _handle_ack_rto(self, flow: Flow, packet: Packet) -> None:
        """Retransmit-timeout fallback for a buffer-dropped ack."""
        if flow.pending_acks.pop(packet.seq, None) is None:
            return  # already recovered by a later cumulative ack
        # No later ack arrived in time: the sender (wrongly but
        # honestly) concludes the packet was lost -- the spurious
        # timeout a real stack fires when the ack path eats its acks.
        packet.ack_dropped = True
        flow.note_loss(packet, self.now)
        if flow.on_loss_cb is not None:
            flow.on_loss_cb(flow, packet, self.now)
        self._clock_window(flow)

    def _handle_loss(self, flow: Flow, packet: Packet) -> None:
        # A loss notice is cumulative feedback too (a real dup-ack
        # carries the cumulative ack number): it confirms delivery of
        # everything below the gap, so it rescues earlier parked acks
        # just like a delivered ack does.
        self._recover_pending(flow, packet.seq)
        flow.note_loss(packet, self.now)
        if flow.on_loss_cb is not None:
            flow.on_loss_cb(flow, packet, self.now)
        self._clock_window(flow)

    def _clock_window(self, flow: Flow) -> None:
        """Ack-clocking: window flows send as soon as the window opens."""
        if flow.stopped or not flow.is_window:
            return
        if flow.inflight < flow.cwnd_fn(self.now):
            self._send_now(flow)

    def _handle_mi(self, flow: Flow, packet: Packet | None = None) -> None:
        if flow.stopped:
            return
        if self.now >= flow.stop_time:
            flow.stopped = True
            return
        self._close_mi(flow, self.now)
        self._push(self.now + flow.mi_duration, EV_MI, flow, None)

    def _close_mi(self, flow: Flow, now: float) -> None:
        # O(1) bottleneck capacity on constant-rate paths: every
        # constant link's mean_bandwidth over any interval *is* its
        # cached rate, so the min needs no trace sampling.  Read live
        # (not snapshotted at wiring) so replacing a link's trace
        # mid-experiment -- which the Link.trace setter keeps coherent
        # -- is honoured here too; any non-constant link falls back to
        # the midpoint-sampling estimate.
        capacity = float("inf")
        for link in flow.links:
            rate = link._const_rate
            if rate is None:
                capacity = self._bottleneck_capacity(flow, flow.mi_start, now)
                break
            if rate < capacity:
                capacity = rate
        rate = self._effective_rate(flow)
        stats = flow.finish_mi(now, capacity, flow.base_rtt, rate)
        flow.controller.on_mi(flow, stats, now)

    # --- helpers ----------------------------------------------------------------

    def _bottleneck_capacity(self, flow: Flow, t0: float, t1: float) -> float:
        return min(link.trace.mean_bandwidth(t0, t1, samples=9)
                   for link in flow.links)

    def _effective_rate(self, flow: Flow) -> float:
        controller = flow.controller
        if controller.kind == "rate":
            return controller.pacing_rate(self.now)
        srtt = flow.srtt or max(flow.base_rtt, MIN_MI_DURATION)
        return controller.cwnd(self.now) / srtt

    def summary(self, flow_id: int) -> FlowRecord:
        """Aggregate results for one flow."""
        flow = self.flows[flow_id]
        thr_pps = flow.mean_throughput_pps()
        return FlowRecord(
            flow_id=flow_id,
            scheme=flow.controller.name,
            mean_throughput_pps=thr_pps,
            mean_throughput_mbps=thr_pps * flow.packet_bytes * 8 / 1e6,
            mean_utilization=flow.mean_utilization(),
            mean_rtt=flow.mean_rtt(),
            base_rtt=flow.base_rtt,
            loss_rate=flow.overall_loss_rate(),
            records=list(flow.records),
        )
