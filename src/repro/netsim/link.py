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

``transmit()`` is the only way a packet enters a queue.  A link's
optional :class:`~repro.netsim.faults.FaultProcess` adds its outage,
brownout and bursty-loss steps inside that one method, so a faulted
link and a clean one share the drop-tail test, the busy-horizon update
and the wire draw.  A path with no reverse links has no link on its
return at all: the engine adds the path's return delay.

``transmit()`` is the single hottest call of the event engine (once
per packet per hop, both directions), so it is allocation-free: the
outcome is a plain ``(delivered, drop_kind, depart_time, queue_delay)``
tuple rather than a result object, and the service rate is read from
the link's cached trace segment -- the trace itself is called only
when an offer's time leaves the segment, never for a constant trace.
"""

from __future__ import annotations

import math

import numpy as np

from repro.netsim.rngstreams import RNG_BLOCK, stream_rng
from repro.netsim.traces import BandwidthTrace, ConstantTrace

__all__ = ["Link"]


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
        Random generator for loss draws, owned by this link alone:
        draws are prefetched in blocks, so a second consumer of the
        same generator would move them (and with them the drops).
    name:
        Optional label used by :class:`~repro.netsim.topology.Topology`
        for path wiring and diagnostics.
    """

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
        # that need seed-controlled loss pass their own ``rng``, as
        # every builder in :mod:`repro.netsim.topology` does.
        self.rng = rng if rng is not None else stream_rng("link.default",
                                                          name)
        #: Wire-loss uniforms prefetched from ``rng`` (see RNG_BLOCK),
        #: one buffer for every ``transmit``.  A draw is
        #: taken only while ``loss_rate > 0``, one per offer reaching
        #: the wire, so as long as nothing else draws from ``rng`` the
        #: sequence is that of scalar ``rng.random()``; a shared
        #: generator would have its draws moved by the prefetch.
        self._loss_buf = None
        self._loss_pos = RNG_BLOCK
        self.name = name
        self.busy_until = 0.0
        #: Optional :class:`~repro.netsim.faults.FaultProcess` attached
        #: by the topology builder.  ``None`` (the default) skips
        #: ``transmit()``'s three fault steps -- a ``None`` check each,
        #: no float or RNG changes -- so faults-off runs stay
        #: bit-identical to the golden traces.
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

        An attached :attr:`fault` process adds three steps, in order:

        * an outage: under the ``drop`` policy the packet is discarded
          at ``t`` with ``drop_kind == "fault"`` (the engine's
          non-random drop branches time it like a buffer drop); under
          ``queue`` the busy horizon is floored at the recovery time --
          arrivals park behind it and replay on recovery -- and the
          drop-tail backlog is measured from the recovery time, so dead
          air doesn't count as queued packets;
        * a brownout scales the service rate;
        * a Gilbert-Elliott chain adds a wire loss before the Bernoulli
          draw (reported as ``"random"``, so downstream loss timing and
          ack parking behave like the plain wire loss, but counted in
          ``dropped_fault``).

        With no fault active the steps change no float and draw nothing.
        """
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
        busy = self.busy_until
        backlog_base = t
        fault = self.fault
        if fault is not None:
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
            rate *= fault.capacity_scale(t)
        service = size / rate
        queue_delay = busy - t
        if queue_delay < 0.0:
            queue_delay = 0.0
        # The buffer holds `queue_size` waiting packet-equivalents; the
        # packet in service occupies the server, not the buffer.  A
        # negative backlog (an idle server) never reaches the limit.
        if (busy - backlog_base) * rate >= self.queue_size + 1.0 - 1e-9:
            self.dropped_buffer += 1
            return (False, "buffer", t, queue_delay)
        self.busy_until = (busy if busy > t else t) + service
        depart = t + queue_delay + service + self.delay
        if fault is not None and fault.wire_loss(t):
            self.dropped_fault += 1
            return (False, "random", depart, queue_delay)
        if self.loss_rate > 0.0 and self._wire_draw() < self.loss_rate:
            self.dropped_random += 1
            return (False, "random", depart, queue_delay)
        self.delivered += 1
        return (True, None, depart, queue_delay)

    def _wire_draw(self) -> float:
        """The next wire-loss uniform from ``rng``'s prefetched block."""
        pos = self._loss_pos
        if pos >= RNG_BLOCK:
            self._loss_buf = self.rng.random(RNG_BLOCK).tolist()
            pos = 0
        self._loss_pos = pos + 1
        return self._loss_buf[pos]
