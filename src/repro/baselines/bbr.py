"""BBR (Cardwell et al. 2016) -- model-based rate control, simplified.

BBR maintains an explicit model of the path: the bottleneck bandwidth
(windowed max of delivered rate) and the round-trip propagation time
(windowed min RTT).  The pacing rate is ``gain * btl_bw`` where the
gain follows the classic state machine:

* STARTUP: gain 2/ln2 (~2.89) doubling delivery each round until the
  bandwidth estimate stops growing (three rounds below +25 %);
* DRAIN: inverse gain to empty the queue the startup built;
* PROBE_BW: the steady-state 8-phase gain cycle
  ``[1.25, 0.75, 1, 1, 1, 1, 1, 1]``, advancing roughly once per RTT;
* PROBE_RTT: every 10 s the rate is cut for a couple of intervals so
  the min-RTT filter can refresh.

This reproduction drives the state machine from monitor-interval
statistics (the delivered throughput and RTT of each MI), which at MI
~= RTT matches BBR's per-round updates closely.
"""

from __future__ import annotations

from collections import deque

from repro.netsim.sender import Controller, Flow, MonitorIntervalStats

__all__ = ["BBR"]

STARTUP_GAIN = 2.885
DRAIN_GAIN = 1.0 / STARTUP_GAIN
PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


class BBR(Controller):
    """Simplified BBR pacing-rate control."""

    kind = "rate"
    name = "BBR"

    def __init__(self, initial_rate: float = 20.0):
        self.rate = float(initial_rate)
        self._bw_samples: deque[float] = deque(maxlen=10)
        #: The bandwidth filter's windowed max, kept by :meth:`on_mi`
        #: (the only writer of ``_bw_samples``) so the per-send
        #: ``inflight_cap`` reads it instead of re-scanning the window.
        self.btl_bw = 0.0
        #: Sliding-window-minimum structure for the rt_prop filter: a
        #: *monotonic deque* of ``(time, rtt)`` with rtts strictly
        #: increasing left to right.  Appending pops dominated samples
        #: (older AND no smaller -- they could never be the window min
        #: again), so the front IS the windowed minimum and every query
        #: is O(1) amortized.  The old full-scan ``min()`` over all
        #: in-window samples was the single hottest line of a BBR
        #: simulation (called per send via ``inflight_cap``); the value
        #: returned is exactly identical.
        self._rtt_samples: deque[tuple[float, float]] = deque()
        self.rtprop_window_s = 10.0
        self.probe_rtt_interval_s = 10.0

        self.state = "STARTUP"
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._drain_rounds = 0
        self._cycle_index = 0
        self._last_probe_rtt = 0.0
        self._probe_rtt_until = -1.0

    # --- filters ----------------------------------------------------------

    def _rt_prop(self, now: float) -> float | None:
        samples = self._rtt_samples
        horizon = now - self.rtprop_window_s
        while samples and samples[0][0] < horizon:
            samples.popleft()
        if not samples:
            return None
        return samples[0][1]

    # --- state machine ---------------------------------------------------------

    def on_mi(self, flow: Flow, stats: MonitorIntervalStats, now: float) -> None:
        if stats.acked > 0:
            self._bw_samples.append(stats.throughput_pps)
            self.btl_bw = max(self._bw_samples)
        if stats.min_rtt is not None:
            # Monotonic-deque append: drop samples that are both older
            # and >= the new rtt.  The newest sample always survives,
            # so the deque is empty exactly when the plain deque would
            # be (every sample aged out) and its front is exactly the
            # plain deque's windowed min -- the filter's behaviour is
            # bit-identical, just no longer O(window) per query.
            samples = self._rtt_samples
            rtt = stats.min_rtt
            while samples and samples[-1][1] >= rtt:
                samples.pop()
            samples.append((now, rtt))

        bw = self.btl_bw
        if bw <= 0:
            return

        if self.state == "STARTUP":
            if bw > self._full_bw * 1.25:
                self._full_bw = bw
                self._full_bw_rounds = 0
            else:
                self._full_bw_rounds += 1
            if self._full_bw_rounds >= 3:
                self.state = "DRAIN"
                self._drain_rounds = 0
            self.rate = STARTUP_GAIN * bw
        elif self.state == "DRAIN":
            self.rate = DRAIN_GAIN * bw
            self._drain_rounds += 1
            rt_prop = self._rt_prop(now)
            drained = (rt_prop is not None and stats.min_rtt is not None
                       and stats.min_rtt <= 1.25 * rt_prop)
            if drained or self._drain_rounds >= 8:
                self.state = "PROBE_BW"
                self._cycle_index = 0
                self._last_probe_rtt = now
        elif self.state == "PROBE_RTT":
            self.rate = 0.5 * bw
            if now >= self._probe_rtt_until:
                self.state = "PROBE_BW"
                self._cycle_index = 0
        else:  # PROBE_BW
            if now - self._last_probe_rtt >= self.probe_rtt_interval_s:
                self.state = "PROBE_RTT"
                self._probe_rtt_until = now + max(2 * stats.duration, 0.2)
                self._last_probe_rtt = now
                self.rate = 0.5 * bw
                return
            gain = PROBE_GAINS[self._cycle_index % len(PROBE_GAINS)]
            self._cycle_index += 1
            self.rate = gain * bw

    def pacing_rate(self, now: float) -> float:
        return max(self.rate, 1.0)

    def inflight_cap(self, now: float) -> float | None:
        """BBR's cwnd backstop: 2x the estimated BDP."""
        rt_prop = self._rt_prop(now)
        bw = self.btl_bw
        if rt_prop is None or bw <= 0:
            return None
        return max(2.0 * bw * rt_prop, 4.0)
