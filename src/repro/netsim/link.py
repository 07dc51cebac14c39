"""Bottleneck link model: FIFO queue, drop-tail buffer, random loss.

The link is modelled as a single FIFO server whose service rate follows
a :class:`~repro.netsim.traces.BandwidthTrace`.  Rather than keeping an
explicit packet queue, the link tracks the time at which the server
will next be idle (``busy_until``); the backlog at time ``t`` is then
``(busy_until - t) * rate``, which is exact for piecewise-constant
rates within a busy period and is the same technique Aurora's simulator
uses.  Drop-tail behaviour falls out naturally: a packet arriving when
the backlog is at the buffer limit is discarded.

Random loss is an independent Bernoulli drop applied *after* queueing
(i.e. on the wire), matching the "random loss rate" knob of Table 3 and
Fig. 5(c).

``transmit()`` is the single hottest call of the event engine (once
per packet per hop, both directions), so it is allocation-free: the
outcome is a plain ``(delivered, drop_kind, depart_time, queue_delay)``
tuple rather than a result object, the service rate is read from the
link's cached trace segment -- the trace itself is called only when an
offer's time leaves the segment, never for a constant trace -- and the
drop threshold is precomputed.  :class:`PropagationLink` additionally
exposes ``pure_delay`` so the engine can skip the offer entirely on
pure-propagation pseudo-links.
"""

from __future__ import annotations

import math

import numpy as np

from repro.netsim.rngstreams import stream_rng
from repro.netsim.traces import BandwidthTrace, ConstantTrace

__all__ = ["Link", "PropagationLink"]


class Link:
    """A unidirectional bottleneck link.

    Parameters
    ----------
    trace:
        Capacity process in packets/second (a plain float is promoted to
        a :class:`ConstantTrace`).
    delay:
        One-way propagation delay in seconds (applied after the queue).
    queue_size:
        Buffer limit in packets (drop-tail).  ``0`` means no buffering:
        any packet arriving while the server is busy is dropped.
    loss_rate:
        Bernoulli random-loss probability.
    rng:
        Random generator for loss draws (shared with the simulation for
        reproducibility).
    name:
        Optional label used by :class:`~repro.netsim.topology.Topology`
        for path wiring and diagnostics.
    """

    #: One-way delay of a pure-propagation pseudo-link, or ``None`` for
    #: a real queued link.  The engine fast-paths ``pure_delay`` links
    #: (arrival = now + delay) without an offer -- see
    #: :class:`PropagationLink`, which is the only subclass setting it.
    pure_delay: float | None = None

    def __init__(self, trace: BandwidthTrace | float, delay: float,
                 queue_size: int, loss_rate: float = 0.0,
                 rng: np.random.Generator | None = None, name: str = ""):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if queue_size < 0:
            raise ValueError("queue_size must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.trace = trace  # property: also resets the cached segment
        self.delay = float(delay)
        self.queue_size = int(queue_size)
        self.loss_rate = float(loss_rate)
        # Fallback stream derived from the link *name*: two differently
        # named links no longer share one bitstream (the old shared
        # ``default_rng(0)`` made their loss draws identical).  Links
        # that need correlated or seed-controlled loss pass ``rng``
        # explicitly, as every builder in :mod:`repro.netsim.topology`
        # does.
        self.rng = rng if rng is not None else stream_rng("link.default",
                                                          name)
        self.name = name
        self.busy_until = 0.0
        #: Optional :class:`~repro.netsim.faults.FaultProcess` attached
        #: by the topology builder.  ``None`` (the default) keeps
        #: ``transmit()`` on the exact pre-fault fast path -- one
        #: attribute load and a ``None`` check, no float or RNG
        #: changes -- so faults-off runs stay bit-identical to the
        #: golden traces.
        self.fault = None
        # Counters for diagnostics/tests.
        self.delivered = 0
        self.dropped_buffer = 0
        self.dropped_random = 0
        self.dropped_fault = 0
        #: Timestamp of the most recent ``transmit()`` offer.  A FIFO
        #: server only sees time-ordered arrivals: every offer must be
        #: stamped no earlier than the one before it.  ``reordered``
        #: counts violations; the per-hop scheduler keeps it at zero on
        #: every link.
        self.last_arrival = float("-inf")
        self.reordered = 0

    @property
    def trace(self) -> BandwidthTrace:
        """Capacity process; assigning one resets the cached segment."""
        return self._trace

    @trace.setter
    def trace(self, trace: BandwidthTrace | float) -> None:
        if isinstance(trace, (int, float)):
            trace = ConstantTrace(float(trace))
        self._trace = trace
        #: ``(rate, start, end)`` from ``trace.segment_at``: the service
        #: rate of every offer timed in ``[start, end)``.  Kept here,
        #: per link, so a trace shared between cells stays stateless;
        #: reset here, so replacing the trace mid-experiment can never
        #: simulate a stale rate.
        self._segment = rate, start, end = trace.segment_at(0.0)
        #: The rate of a trace that is one unbounded segment, else
        #: ``None``: such a link never consults segment or trace again,
        #: and monitor intervals on it close without sampling.
        self._const_rate = (rate if start == -math.inf and end == math.inf
                            else None)

    # --- queue state ------------------------------------------------------

    def _rate_at(self, t: float) -> float:
        """Unfaulted service rate at ``t``: the cached segment's while
        ``t`` is inside it, else that of the trace's segment around
        ``t``, which becomes the cached one.  Times need not be
        monotone -- a drop's future cursor re-enters on the way back.
        """
        rate = self._const_rate
        if rate is None:
            rate, start, end = self._segment
            if not start <= t < end:
                self._segment = segment = self._trace.segment_at(t)
                rate = segment[0]
        return rate

    def bandwidth_at(self, t: float) -> float:
        """Instantaneous service rate (packets/second).

        Brownout faults scale the rate inside their windows; the scale
        is validated positive, so callers dividing by this never see
        zero.
        """
        rate = self._rate_at(t)
        fault = self.fault
        if fault is not None:
            rate *= fault.capacity_scale(t)
        return rate

    def queue_delay_at(self, t: float) -> float:
        """Waiting time a packet arriving at ``t`` would spend queued."""
        return max(0.0, self.busy_until - t)

    def backlog_at(self, t: float) -> float:
        """Approximate queue occupancy (packets) at time ``t``."""
        return self.queue_delay_at(t) * self.bandwidth_at(t)

    # --- transmission -----------------------------------------------------

    def transmit(self, t: float, size: float = 1.0) -> tuple:
        """Offer one packet to the link at time ``t``.

        ``size`` scales the service demand relative to a nominal data
        packet (1.0): acknowledgements transiting a reverse link pass
        their bytes-ratio (e.g. 40/1500) so they occupy the wire --
        and the backlog, measured in packet-equivalents -- in
        proportion to their actual size.

        Returns the tuple ``(delivered, drop_kind, depart_time,
        queue_delay)``; ``depart_time`` is the time the packet reaches
        the far end of the link (queue + service + propagation) when
        delivered.  For buffer drops ``depart_time`` is the moment of
        the drop (the packet never leaves); for random drops it is the
        time the packet would have arrived (the drop happens on the
        wire, so downstream loss detection sees the normal timing).
        """
        if self.fault is not None:
            return self._transmit_faulted(t, size)
        last = self.last_arrival
        if t < last - 1e-12:
            self.reordered += 1
        if t > last:
            self.last_arrival = t
        rate = self._const_rate
        if rate is None:
            # _rate_at's hit, inline: the per-packet call it would cost
            # is what the cached segment exists to remove.
            rate, start, end = self._segment
            if not start <= t < end:
                rate = self._rate_at(t)
        service = size / rate
        busy = self.busy_until
        queue_delay = busy - t
        if queue_delay < 0.0:
            queue_delay = 0.0
        # The buffer holds `queue_size` waiting packet-equivalents; the
        # packet in service occupies the server, not the buffer.
        if queue_delay * rate >= self.queue_size + 1.0 - 1e-9:
            self.dropped_buffer += 1
            return (False, "buffer", t, queue_delay)
        self.busy_until = (busy if busy > t else t) + service
        depart = t + queue_delay + service + self.delay
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.dropped_random += 1
            return (False, "random", depart, queue_delay)
        self.delivered += 1
        return (True, None, depart, queue_delay)

    def _transmit_faulted(self, t: float, size: float = 1.0) -> tuple:
        """The fault-aware twin of :meth:`transmit` (cold side path).

        Same contract and same float arithmetic where faults are
        inactive, plus three fault effects in order:

        * a ``drop``-policy outage discards the packet at ``t`` with
          ``drop_kind == "fault"`` (the engines' non-random drop
          branches handle the timing, exactly like a buffer drop);
        * a ``queue``-policy outage floors the busy horizon at the
          recovery time -- arrivals park behind it and replay on
          recovery -- while the drop-tail test measures backlog from
          the recovery time, so dead air doesn't count as queued
          packets;
        * brownouts scale the service rate; Gilbert-Elliott chains add
          a wire loss (reported as ``"random"`` so downstream loss
          timing and ack parking behave like the existing wire loss,
          but counted in ``dropped_fault``).
        """
        last = self.last_arrival
        if t < last - 1e-12:
            self.reordered += 1
        if t > last:
            self.last_arrival = t
        fault = self.fault
        busy = self.busy_until
        backlog_base = t
        outage = fault.outage_at(t)
        if outage is not None:
            recovery, policy = outage
            if policy == "drop":
                self.dropped_fault += 1
                wait = busy - t
                return (False, "fault", t, wait if wait > 0.0 else 0.0)
            if busy < recovery:
                busy = recovery
            backlog_base = recovery
        rate = self._rate_at(t)
        scale = fault.capacity_scale(t)
        if scale != 1.0:
            rate *= scale
        service = size / rate
        queue_delay = busy - t
        if queue_delay < 0.0:
            queue_delay = 0.0
        backlog_time = busy - backlog_base
        if backlog_time < 0.0:
            backlog_time = 0.0
        if backlog_time * rate >= self.queue_size + 1.0 - 1e-9:
            self.dropped_buffer += 1
            return (False, "buffer", t, queue_delay)
        self.busy_until = (busy if busy > t else t) + service
        depart = t + queue_delay + service + self.delay
        if fault.wire_loss(t):
            self.dropped_fault += 1
            return (False, "random", depart, queue_delay)
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.dropped_random += 1
            return (False, "random", depart, queue_delay)
        self.delivered += 1
        return (True, None, depart, queue_delay)

    def reset(self) -> None:
        """Clear queue state and counters."""
        self.busy_until = 0.0
        self.delivered = 0
        self.dropped_buffer = 0
        self.dropped_random = 0
        self.dropped_fault = 0
        self.last_arrival = float("-inf")
        self.reordered = 0
        if self.fault is not None:
            self.fault.reset()

    # --- convenience --------------------------------------------------------

    @property
    def base_rtt(self) -> float:
        """Round-trip propagation time across this link (no queueing)."""
        return 2.0 * self.delay

    def bdp_packets(self, t: float = 0.0) -> float:
        """Bandwidth-delay product in packets at time ``t``."""
        return self.bandwidth_at(t) * self.base_rtt


class PropagationLink(Link):
    """A pure-propagation pseudo-link: fixed delay, no queue, no drops.

    Topologies use one of these as the default *reverse* path so acks
    and loss notices transit the return direction through the same
    ``transmit()`` interface as data packets, while reproducing the
    legacy scalar-``return_delay`` timing exactly: every packet departs
    at ``t + delay``, bit-for-bit, regardless of load.  Wiring real
    :class:`Link` objects into a path's reverse list replaces this with
    emergent reverse-path queueing.

    ``pure_delay`` (the same delay, non-``None`` only here) lets the
    engine's per-hop scheduler compute that arrival arithmetic inline
    -- the zero-work fast path -- without the call; ``transmit()``
    stays for direct callers and keeps the identical contract.
    """

    def __init__(self, delay: float, name: str = ""):
        super().__init__(trace=ConstantTrace(1.0), delay=delay,
                         queue_size=0, name=name)
        self.pure_delay = self.delay

    def transmit(self, t: float, size: float = 1.0) -> tuple:
        # Stateless on purpose: infinite capacity, zero service time.
        return (True, None, t + self.delay, 0.0)

    def queue_delay_at(self, t: float) -> float:
        return 0.0
