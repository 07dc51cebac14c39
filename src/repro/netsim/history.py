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
"""

from __future__ import annotations

import numpy as np

from repro.netsim.sender import Flow, LATENCY_RATIO_CAP, MonitorIntervalStats

__all__ = ["StatHistory", "GRADIENT_SCALE", "RATE_RATIO_CAP"]

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
        self._buf = np.empty(self.FEATURES * length)
        self.reset()

    def reset(self) -> None:
        """Fill with the neutral statistic <l=1, p=1, q=0, r=1>."""
        self._buf.reshape(self.length, self.FEATURES)[:] = (1.0, 1.0, 0.0, 1.0)

    def _append(self, send_ratio: float, latency_ratio: float,
                gradient: float, rate_ratio: float) -> None:
        buf = self._buf
        buf[:-4] = buf[4:]
        buf[-4] = send_ratio
        buf[-3] = latency_ratio
        buf[-2] = gradient
        buf[-1] = rate_ratio

    def push(self, flow: Flow, stats: MonitorIntervalStats) -> None:
        """Append the statistics of one finished monitor interval."""
        max_thr = flow.max_throughput_seen
        if max_thr and max_thr > 0:
            rate_ratio = _clamp(stats.rate_pps / max_thr, 0.0, RATE_RATIO_CAP)
        else:
            rate_ratio = 1.0
        self._append(stats.send_ratio(), flow.latency_ratio(stats),
                     _clamp(stats.latency_gradient * GRADIENT_SCALE, -10.0, 10.0),
                     rate_ratio)

    def push_raw(self, send_ratio: float, latency_ratio: float, gradient: float,
                 rate_ratio: float = 1.0) -> None:
        """Append a raw statistic vector (used by tests and replayers)."""
        self._append(_clamp(send_ratio, 0.0, 10.0),
                     _clamp(latency_ratio, 0.0, LATENCY_RATIO_CAP),
                     _clamp(gradient, -10.0, 10.0),
                     _clamp(rate_ratio, 0.0, RATE_RATIO_CAP))

    def vector(self) -> np.ndarray:
        """Flattened state: ``4 * eta`` floats, oldest first.

        An independent copy: environments and rollout buffers hold
        observations across later pushes.
        """
        return self._buf.copy()

    @property
    def dim(self) -> int:
        return self.FEATURES * self.length
