"""Packet records for the discrete-event simulator."""

from __future__ import annotations

__all__ = ["Packet"]


class Packet:
    """One simulated data packet.

    Timestamps are in simulation seconds.  A packet either arrives at
    the receiver (``arrival_time`` set, ``dropped`` False) or is dropped
    in flight (``dropped`` True and ``drop_kind`` records whether the
    drop was a buffer overflow or random loss).

    Under the event-driven per-hop scheduler the packet itself is the
    transit cursor: ``hop`` indexes the next link of the active
    direction (``flow.links`` forward, ``flow.reverse_links`` once
    ``reversing`` is set) and advances as each hop event dequeues
    the packet at its true arrival time.

    A hand-rolled ``__slots__`` class rather than a dataclass: one
    packet is allocated per emitted packet on the engine's hottest
    path, and the engine constructs it with the four positional
    arguments the constructor takes.  Every other field starts at its
    in-flight value and is set by the engine as the packet moves.
    """

    __slots__ = ("flow_id", "seq", "send_time", "size_bytes", "arrival_time",
                 "ack_time", "dropped", "drop_kind", "queue_delay",
                 "ack_queue_delay", "hop", "reversing", "ack_dropped",
                 "ack_recovered")

    def __init__(self, flow_id: int, seq: int, send_time: float,
                 size_bytes: int = 1500):
        self.flow_id = flow_id
        self.seq = seq
        self.send_time = send_time
        self.size_bytes = size_bytes
        #: Receiver arrival time (``None`` while in flight or dropped).
        self.arrival_time = None
        self.ack_time = None
        self.dropped = False
        self.drop_kind = None  # "buffer" | "random"
        self.queue_delay = 0.0
        #: Queueing the acknowledgement saw on the reverse path (0.0 on
        #: a pure-propagation return).
        self.ack_queue_delay = 0.0
        #: Index of the next link to transit in the active direction.
        self.hop = 0
        #: The packet delivered (or its drop was observed) and its ack /
        #: loss notice is now walking the reverse links.
        self.reversing = False
        #: The acknowledgement itself was dropped on the reverse path
        #: and the sender recovered via retransmit timeout (counted as
        #: a loss) rather than a later cumulative ack.
        self.ack_dropped = False
        #: The acknowledgement was dropped on the reverse path but a
        #: later cumulative ack covered it (``ack_time`` is that
        #: recovery moment, not the lost ack's own would-be arrival).
        self.ack_recovered = False

    @property
    def rtt(self) -> float | None:
        """Round-trip time, if the packet was acknowledged."""
        if self.ack_time is None:
            return None
        return self.ack_time - self.send_time

    def __repr__(self) -> str:
        state = "dropped" if self.dropped else (
            "acked" if self.ack_time is not None else "inflight")
        return (f"Packet(flow_id={self.flow_id}, seq={self.seq}, "
                f"send_time={self.send_time}, {state})")
