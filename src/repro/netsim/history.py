"""Fixed-length history of network statistics -- the RL state (§4.1).

The paper feeds the agent "a fixed-length history of network statistics
instead of the most recent one ... to capture the trends and changes of
network dynamics": ``g_(t,eta) = <g_{t-eta}, ..., g_t>`` where each
``g_t = <l_t, p_t, q_t>`` (sending ratio, latency ratio, latency
gradient).  History length ``eta = 10`` (Table 2).

**Deviation (documented in DESIGN.md):** a fourth statistic ``r_t`` --
the current pacing rate over the maximum throughput observed so far --
is appended to each vector.  The paper's three statistics are identical
at *every* sub-capacity operating point (send ratio 1, latency ratio 1,
gradient 0), so a policy cannot tell 10 % utilisation from 99 % and the
"hold the rate near capacity" optimum is unlearnable at small training
budgets.  The max-throughput normaliser is the paper's own online link
capacity estimator (§4.1), so ``r_t`` is sender-observable and
scale-free.

:meth:`StatHistory.push` is the one place these four features are
derived -- for the training env, the simulator's policy controllers,
Orca and the §5 library alike.  The history owns the two running
trackers they normalise by: the best (lowest) mean RTT of any pushed
interval, the base of ``p_t``, and the maximum delivered throughput,
the capacity estimate behind ``r_t``.  ``reset`` clears both, so a
history reset at flow start sees exactly the intervals of that flow.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.sender import LATENCY_RATIO_CAP

__all__ = ["StatHistory", "GRADIENT_SCALE", "RATE_RATIO_CAP", "SEND_RATIO_CAP"]

#: Cap on the send ratio; also its value for an MI that sent but saw
#: no acks.
SEND_RATIO_CAP = 5.0
#: Latency gradients are tiny (seconds of RTT change per second); scale
#: them so all features share a comparable numeric range.
GRADIENT_SCALE = 10.0
#: Cap on the rate / max-throughput feature.
RATE_RATIO_CAP = 4.0


def _clamp(x: float, lo: float, hi: float) -> float:
    """``float(np.clip(x, lo, hi))`` for scalars, bit for bit: NaN and
    -0.0 pass through, infinities land on the bounds."""
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


class StatHistory:
    """Sliding window of the last ``eta`` statistic vectors.

    One flat float64 buffer, oldest first, shifted in place on every
    push -- the per-MI path allocates nothing.
    """

    FEATURES = 4  # l_t, p_t, q_t, r_t

    def __init__(self, length: int):
        if length < 1:
            raise ValueError("history length must be >= 1")
        self.length = length
        #: The flattened state itself (what :meth:`vector` copies): the
        #: next push or reset overwrites it.  For a deployed flow it is
        #: the inference plan's observation row, re-pointed at each plan.
        self.buffer = np.empty(self.FEATURES * length)
        self.reset()

    def reset(self) -> None:
        """Fill with the neutral statistic <l=1, p=1, q=0, r=1> and
        forget both trackers."""
        self.buffer.reshape(self.length, self.FEATURES)[:] = (1.0, 1.0, 0.0, 1.0)
        #: Lowest mean RTT of any pushed interval (the base of ``p_t``).
        self.best_mean_rtt: float | None = None
        #: Highest delivered throughput of any pushed interval, pps --
        #: the online link-capacity estimate (§4.1) ``r_t`` divides by.
        self.max_throughput = 0.0

    def _append(self, send_ratio: float, latency_ratio: float,
                gradient: float, rate_ratio: float) -> None:
        buf = self.buffer
        buf[:-4] = buf[4:]
        buf[-4] = send_ratio
        buf[-3] = latency_ratio
        buf[-2] = gradient
        buf[-1] = rate_ratio

    def push(self, stats, rate: float) -> None:
        """Derive one interval's four features and append them.

        ``stats`` is a :class:`~repro.netsim.sender.MonitorIntervalStats`
        or a :class:`~repro.core.library.NetworkStatus`: only its
        ``sent``, ``acked``, ``mean_rtt``, ``latency_gradient`` and
        ``duration`` are read.  ``rate`` is the flow's sending rate as
        the interval closes, pps.
        """
        sent = stats.sent
        acked = stats.acked
        if acked == 0:
            send_ratio = SEND_RATIO_CAP if sent > 0 else 1.0
        else:
            send_ratio = min(sent / acked, SEND_RATIO_CAP)
        mean_rtt = stats.mean_rtt
        if mean_rtt is None:
            latency_ratio = LATENCY_RATIO_CAP
        else:
            best = self.best_mean_rtt
            if best is None or mean_rtt < best:
                self.best_mean_rtt = best = mean_rtt
            latency_ratio = min(mean_rtt / best, LATENCY_RATIO_CAP)
        duration = stats.duration
        if duration > 0:
            throughput = acked / duration
            if throughput > self.max_throughput:
                self.max_throughput = throughput
        max_thr = self.max_throughput
        if max_thr > 0:
            rate_ratio = _clamp(rate / max_thr, 0.0, RATE_RATIO_CAP)
        else:
            rate_ratio = 1.0
        self._append(send_ratio, latency_ratio,
                     _clamp(stats.latency_gradient * GRADIENT_SCALE, -10.0, 10.0),
                     rate_ratio)

    def vector(self) -> np.ndarray:
        """Flattened state: ``4 * eta`` floats, oldest first.

        An independent copy: environments and rollout buffers hold
        observations across later pushes.
        """
        return self.buffer.copy()

    @property
    def dim(self) -> int:
        return self.FEATURES * self.length
