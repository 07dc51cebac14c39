"""Flow state, sender models and monitor-interval statistics.

A *flow* is one end-to-end sender/receiver pair driven by a congestion
controller.  Two sender models are supported, covering every scheme the
paper evaluates:

* **rate-paced** senders emit packets at the controller's pacing rate
  (PCC, BBR, Copa, Aurora, Orca's RL half, MOCC);
* **window-based** senders are ack-clocked against a congestion window
  (CUBIC, Vegas), paced within an RTT to avoid artificial bursts.

Statistics are aggregated per *monitor interval* (MI), the sensing
granularity of learning-based CC (§4.1): packets sent/acked/lost, mean
RTT, and the three state features the paper feeds its model --

* sending ratio ``l_t``      = packets sent / packets acked,
* latency ratio ``p_t``      = mean RTT of this MI / min mean RTT seen,
* latency gradient ``q_t``   = d RTT / dt (regression slope over acks).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.netsim.packet import Packet

__all__ = ["Controller", "ExternalRateController", "MonitorIntervalStats", "Flow"]

#: Feature caps keep state inputs bounded when an MI sees no acks.
SEND_RATIO_CAP = 5.0
LATENCY_RATIO_CAP = 10.0

#: Default wire size of an acknowledgement, bytes (re-exported as
#: :data:`repro.netsim.network.ACK_BYTES`); a topology path can
#: override it per flow via ``PathDef(ack_bytes=...)``.
ACK_BYTES = 40


class Controller:
    """Interface between a flow and its congestion-control algorithm.

    Subclasses set ``kind`` to ``"rate"`` or ``"window"`` and implement
    the corresponding property (:meth:`pacing_rate` or :meth:`cwnd`).
    Event hooks default to no-ops so simple controllers stay simple.
    """

    #: "rate" (pacing) or "window" (ack-clocked cwnd).
    kind = "rate"
    #: Human-readable scheme name, used in experiment tables.
    name = "controller"

    def on_flow_start(self, flow: "Flow", now: float) -> None:
        """Called once when the flow starts."""

    def on_ack(self, flow: "Flow", packet: Packet, now: float) -> None:
        """Called for every acknowledged packet."""

    def on_loss(self, flow: "Flow", packet: Packet, now: float) -> None:
        """Called when the sender learns a packet was lost."""

    def on_mi(self, flow: "Flow", stats: "MonitorIntervalStats", now: float) -> None:
        """Called at each monitor-interval boundary."""

    def pacing_rate(self, now: float) -> float:
        """Current pacing rate in packets/second (rate-based only)."""
        raise NotImplementedError

    def cwnd(self, now: float) -> float:
        """Current congestion window in packets (window-based only)."""
        raise NotImplementedError

    def inflight_cap(self, now: float) -> float | None:
        """Optional inflight backstop for rate-based controllers.

        BBR-style schemes pace by rate but still bound the data in
        flight (e.g. 2x BDP); return ``None`` for no cap.
        """
        return None


class ExternalRateController(Controller):
    """Rate controller whose rate is set from outside the simulation.

    This is the bridge used by the gym-style environments: the RL agent
    computes a rate between simulation steps and writes it here.
    """

    kind = "rate"
    name = "external"

    def __init__(self, initial_rate: float):
        self.rate = float(initial_rate)

    def pacing_rate(self, now: float) -> float:
        return self.rate

    def set_rate(self, rate: float) -> None:
        self.rate = float(rate)


@dataclass
class MonitorIntervalStats:
    """Sender-observable statistics for one monitor interval."""

    flow_id: int
    start: float
    end: float
    sent: int
    acked: int
    lost: int
    mean_rtt: float | None
    min_rtt: float | None
    #: Regression slope of RTT over ack time within the MI (s/s).
    latency_gradient: float
    #: Mean bottleneck capacity over the MI, packets/second.
    capacity_pps: float
    #: Round-trip propagation delay of the path (no queueing), seconds.
    base_rtt: float
    #: Packet size used by the flow, bytes.
    packet_bytes: int
    #: Pacing rate / effective send rate at the end of the MI (pps).
    rate_pps: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def throughput_pps(self) -> float:
        """Delivered throughput (acknowledged packets over the MI)."""
        if self.duration <= 0:
            return 0.0
        return self.acked / self.duration

    @property
    def throughput_mbps(self) -> float:
        return self.throughput_pps * self.packet_bytes * 8 / 1e6

    @property
    def utilization(self) -> float:
        """Delivered throughput over capacity, clipped to [0, 1]."""
        if self.capacity_pps <= 0:
            return 0.0
        return min(self.throughput_pps / self.capacity_pps, 1.0)

    @property
    def loss_rate(self) -> float:
        """Fraction of sent packets known lost this MI."""
        total = self.lost + self.acked
        if total == 0:
            return 0.0
        return self.lost / total

    @property
    def latency_ratio_to_base(self) -> float:
        """Mean RTT over propagation RTT (the Fig. 5e-h metric)."""
        if self.mean_rtt is None or self.base_rtt <= 0:
            return LATENCY_RATIO_CAP
        return self.mean_rtt / self.base_rtt

    def send_ratio(self) -> float:
        """l_t = sent/acked, capped when nothing was acknowledged."""
        if self.acked == 0:
            return SEND_RATIO_CAP if self.sent > 0 else 1.0
        return min(self.sent / self.acked, SEND_RATIO_CAP)


class Flow:
    """Runtime state of one flow inside a simulation."""

    def __init__(self, flow_id: int, controller: Controller, packet_bytes: int = 1500,
                 start_time: float = 0.0, stop_time: float = float("inf"),
                 mi_duration: float | None = None, keep_packets: bool = False):
        self.flow_id = flow_id
        self.controller = controller
        #: Cached ``controller.kind == "window"`` -- read on every ack
        #: by the engine's ack-clocking check.
        self.is_window = controller.kind == "window"
        # Bound-method caches for the controller hooks the engine fires
        # per packet: one attribute walk here instead of two per event,
        # and hooks a controller never overrode stay ``None`` so the
        # engine skips the call outright (a no-op call and no call are
        # indistinguishable, so results are untouched).
        ctrl_type = type(controller)
        self.on_ack_cb = (controller.on_ack
                          if ctrl_type.on_ack is not Controller.on_ack
                          else None)
        self.on_loss_cb = (controller.on_loss
                           if ctrl_type.on_loss is not Controller.on_loss
                           else None)
        self.cwnd_fn = controller.cwnd if self.is_window else None
        self.pacing_fn = None if self.is_window else controller.pacing_rate
        self.cap_fn = (controller.inflight_cap
                       if not self.is_window and ctrl_type.inflight_cap
                       is not Controller.inflight_cap else None)
        self.packet_bytes = packet_bytes
        self.start_time = start_time
        self.stop_time = stop_time
        self.mi_duration = mi_duration  # None -> engine picks base RTT
        self.keep_packets = keep_packets

        # Sequence / inflight bookkeeping.
        self.next_seq = 0
        self.inflight = 0
        self.send_scheduled = False
        self.started = False
        self.stopped = False

        # Path assignment (set by the engine from the topology; the
        # defaults describe a standalone flow outside any simulation).
        self.path_name: str | None = None
        self.links: tuple = ()
        self.n_links = 0
        #: Ordered reverse links acks/loss notices transit (a single
        #: pure-propagation pseudo-link unless the topology wires a
        #: real reverse route).
        self.reverse_links: tuple = ()
        self.n_rev_links = 0
        #: Delay of the reverse direction when it is a single
        #: pure-propagation pseudo-link (``None`` when real reverse
        #: links are wired): the engine's inline ack fast path.
        self.pure_return_delay: float | None = None
        self.base_rtt = 0.0
        #: Propagation sum of the reverse links (no queueing).
        self.return_delay = 0.0
        self.max_rate = float("inf")
        #: Wire size of this flow's acknowledgements, bytes; the
        #: engine overrides it from the path's ``ack_bytes`` via
        #: :meth:`set_ack_bytes` when the topology sets one.
        self.ack_bytes = ACK_BYTES
        #: Service demand of one ack relative to a data packet,
        #: derived from ``ack_bytes`` (kept as a plain attribute -- it
        #: is read once per reverse hop event; update it through
        #: :meth:`set_ack_bytes`).
        self.ack_size = ACK_BYTES / packet_bytes
        #: Delivered packets whose acknowledgement was buffer-dropped
        #: on the reverse path, keyed by sequence number.  Acknowledged
        #: (and removed) when a later cumulative ack reaches the
        #: sender, or surfaced as a retransmit-timeout loss if none
        #: does (see ``Simulation._recover_pending`` / ``"rto"`` events).
        self.pending_acks: dict[int, Packet] = {}
        #: Latest scheduled arrival per hop and direction under the
        #: event-driven scheduler -- the monotonicity floors that keep
        #: this flow's dithered per-hop arrivals in FIFO order at every
        #: link (see ``Simulation._dither_arrival``).  Sized by
        #: :meth:`init_hop_floors` once the engine assigns the path.
        self.fwd_hop_floor: list[float] = []
        self.rev_hop_floor: list[float] = []

        #: Time of the last accounting event (send/ack/loss).  The final
        #: monitor interval closes at this time when acks straggle in
        #: after ``stop_time`` -- clamping to ``stop_time`` while still
        #: counting the late acks would inflate throughput/utilization
        #: for churned flows.
        self.last_event_time = start_time

        # Lifetime counters.
        self.total_sent = 0
        self.total_acked = 0
        self.total_lost = 0
        self.min_rtt_seen: float | None = None
        self.last_rtt: float | None = None
        self.srtt: float | None = None
        #: Online link-capacity estimate (max observed MI throughput, §4.1).
        self.max_throughput_seen: float = 0.0

        # Current-MI accumulators.  RTT samples stream into flat C
        # double arrays (time, rtt) instead of a list of tuples: one
        # unboxing append per ack, and closing an MI reduces zero-copy
        # ``np.frombuffer`` views of the same memory instead of
        # rebuilding numpy arrays from Python lists.  The min is
        # additionally tracked as a running scalar (order-independent,
        # so exact); the mean and the latency-gradient regression
        # deliberately stay numpy reductions over the buffer because
        # pairwise summation rounds differently from a scalar running
        # sum -- and MI statistics feed controller decisions, so the
        # golden-trace bit-identity guarantee
        # (tests/test_golden_traces.py) pins their floats.
        self.mi_start = start_time
        self.mi_sent = 0
        self.mi_acked = 0
        self.mi_lost = 0
        self._mi_times = array("d")
        self._mi_rtts = array("d")
        self._mi_min_rtt = float("inf")

        # History.
        self.records: list[MonitorIntervalStats] = []
        self.packets: list[Packet] = []
        self._min_mean_rtt: float | None = None

    def set_ack_bytes(self, ack_bytes: int) -> None:
        """Set the ack wire size, keeping ``ack_size`` consistent."""
        self.ack_bytes = ack_bytes
        self.ack_size = ack_bytes / self.packet_bytes

    def init_hop_floors(self) -> None:
        """(Re)initialise the per-hop arrival floors for the assigned path."""
        self.fwd_hop_floor = [0.0] * len(self.links)
        self.rev_hop_floor = [0.0] * len(self.reverse_links)

    @property
    def mi_rtt_samples(self) -> list[tuple[float, float]]:
        """Current-MI ``(ack_time, rtt)`` samples as a list (debug view).

        The engine streams samples into flat buffers; this property
        materialises them for tests and interactive inspection only --
        do not use it on a hot path.
        """
        return list(zip(self._mi_times, self._mi_rtts))

    # --- accounting hooks --------------------------------------------------
    # ``Simulation._drain`` carries ``note_sent`` and ``note_ack`` inline
    # on its per-packet path; the methods serve its cold callers (parked
    # ack recovery) and unit tests, and must change together with it.

    def note_sent(self, packet: Packet) -> None:
        self.total_sent += 1
        self.mi_sent += 1
        self.inflight += 1
        if packet.send_time > self.last_event_time:
            self.last_event_time = packet.send_time
        if self.keep_packets:
            self.packets.append(packet)

    def note_ack(self, packet: Packet, now: float) -> None:
        self.total_acked += 1
        self.mi_acked += 1
        inflight = self.inflight - 1
        self.inflight = inflight if inflight > 0 else 0
        if now > self.last_event_time:
            self.last_event_time = now
        rtt = now - packet.send_time
        self.last_rtt = rtt
        srtt = self.srtt
        self.srtt = rtt if srtt is None else 0.875 * srtt + 0.125 * rtt
        min_seen = self.min_rtt_seen
        if min_seen is None or rtt < min_seen:
            self.min_rtt_seen = rtt
        self._mi_times.append(now)
        self._mi_rtts.append(rtt)
        if rtt < self._mi_min_rtt:
            self._mi_min_rtt = rtt

    def note_loss(self, packet: Packet, now: float) -> None:
        self.total_lost += 1
        self.mi_lost += 1
        inflight = self.inflight - 1
        self.inflight = inflight if inflight > 0 else 0
        if now > self.last_event_time:
            self.last_event_time = now

    # --- monitor intervals ---------------------------------------------------

    def finish_mi(self, now: float, capacity_pps: float, base_rtt: float,
                  rate_pps: float) -> MonitorIntervalStats:
        """Close the current MI, appending and returning its statistics."""
        n = len(self._mi_rtts)
        if n:
            # Zero-copy float64 view of the streamed C array; then
            # np.add.reduce is the exact pairwise kernel ndarray.mean
            # wraps (umr_sum / count) minus the wrapper overhead, so
            # the quotient is bit-identical.
            rtts = np.frombuffer(self._mi_rtts)
            rtt_mean = np.add.reduce(rtts) / n
            mean_rtt: float | None = float(rtt_mean)
            min_rtt: float | None = self._mi_min_rtt
            gradient = (_rtt_slope_arrays(np.frombuffer(self._mi_times), rtts,
                                          rtt_mean)
                        if n > 1 else 0.0)
        else:
            mean_rtt = None
            min_rtt = None
            gradient = 0.0
        stats = MonitorIntervalStats(
            flow_id=self.flow_id, start=self.mi_start, end=now,
            sent=self.mi_sent, acked=self.mi_acked, lost=self.mi_lost,
            mean_rtt=mean_rtt, min_rtt=min_rtt, latency_gradient=gradient,
            capacity_pps=capacity_pps, base_rtt=base_rtt,
            packet_bytes=self.packet_bytes, rate_pps=rate_pps)
        if mean_rtt is not None:
            if self._min_mean_rtt is None or mean_rtt < self._min_mean_rtt:
                self._min_mean_rtt = mean_rtt
        if stats.duration > 0:
            self.max_throughput_seen = max(self.max_throughput_seen,
                                           stats.throughput_pps)
        self.records.append(stats)
        self.mi_start = now
        self.mi_sent = 0
        self.mi_acked = 0
        self.mi_lost = 0
        self._mi_times = array("d")
        self._mi_rtts = array("d")
        self._mi_min_rtt = float("inf")
        return stats

    def latency_ratio(self, stats: MonitorIntervalStats) -> float:
        """p_t = mean RTT of the MI over the best mean RTT seen so far."""
        if stats.mean_rtt is None or self._min_mean_rtt is None:
            return LATENCY_RATIO_CAP
        return min(stats.mean_rtt / self._min_mean_rtt, LATENCY_RATIO_CAP)

    # --- aggregates -----------------------------------------------------------

    def mean_throughput_pps(self) -> float:
        """Delivered throughput over the whole recorded run."""
        if not self.records:
            return 0.0
        total_acked = sum(r.acked for r in self.records)
        span = self.records[-1].end - self.records[0].start
        if span <= 0:
            return 0.0
        return total_acked / span

    def mean_utilization(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.utilization for r in self.records]))

    def mean_rtt(self) -> float | None:
        rtts = [r.mean_rtt for r in self.records if r.mean_rtt is not None]
        if not rtts:
            return None
        return float(np.mean(rtts))

    def overall_loss_rate(self) -> float:
        total = self.total_acked + self.total_lost
        if total == 0:
            return 0.0
        return self.total_lost / total


def _rtt_slope_arrays(times: np.ndarray, rtts: np.ndarray,
                      rtt_mean: float) -> float:
    """Least-squares slope of RTT vs. ack time over parallel arrays.

    ``rtt_mean`` is ``np.add.reduce(rtts) / n``, which the MI close
    already holds: ``x.mean()`` without the wrapper (same pairwise
    kernel, bit-identical quotient).
    """
    t_center = times - np.add.reduce(times) / times.shape[0]
    denom = float(np.dot(t_center, t_center))
    if denom <= 1e-12:
        return 0.0
    return float(np.dot(t_center, rtts - rtt_mean) / denom)


def _rtt_slope(samples: list[tuple[float, float]]) -> float:
    """Least-squares slope of RTT vs. ack time (the latency gradient).

    List-of-tuples convenience wrapper around :func:`_rtt_slope_arrays`
    (which is what the flow's streaming buffers feed directly).
    """
    if len(samples) < 2:
        return 0.0
    times = np.array([s[0] for s in samples])
    rtts = np.array([s[1] for s in samples])
    return _rtt_slope_arrays(times, rtts, np.add.reduce(rtts) / len(samples))
