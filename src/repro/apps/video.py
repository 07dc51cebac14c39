"""Adaptive-bitrate video streaming over a congestion-controlled flow.

Reproduces the Fig. 8 setup: a video server streams chunked video; the
transport's delivered throughput determines how fast chunks download;
an MPC-style ABR algorithm (as used by Pensieve's MPC baseline) picks
each chunk's quality level to maximise QoE -- bitrate reward minus
rebuffering and quality-switch penalties -- using a harmonic-mean
throughput predictor over a short horizon.

The transport and the ABR are layered exactly as in the real system:
first the congestion controller runs on the network (producing the
delivered-throughput timeline of Fig. 8 top), then the streaming
session consumes that timeline chunk by chunk (producing the
quality-level histogram of Fig. 8 bottom).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.netsim.network import FlowRecord

__all__ = ["BITRATES_MBPS", "VideoResult", "VideoSession"]

#: Pensieve's quality ladder (Mbps); level 5 is the best.
BITRATES_MBPS = (0.3, 0.75, 1.2, 1.85, 2.85, 4.3)


@dataclass
class VideoResult:
    """Outcome of one streaming session."""

    qualities: list[int]
    rebuffer_seconds: float
    #: Mean delivered throughput of the transport (Mbps).
    mean_throughput_mbps: float

    def quality_counts(self) -> np.ndarray:
        """Chunks per quality level (the Fig. 8 histogram)."""
        counts = np.zeros(len(BITRATES_MBPS), dtype=int)
        for q in self.qualities:
            counts[q] += 1
        return counts

    @property
    def mean_quality(self) -> float:
        return float(np.mean(self.qualities)) if self.qualities else 0.0


class VideoSession:
    """MPC ABR streaming over a transport's throughput timeline."""

    chunk_seconds = 4.0
    #: Chunks the MPC plans ahead.
    horizon = 3
    buffer_capacity_s = 30.0
    #: QoE penalties: per second of rebuffering and per level switched.
    rebuffer_penalty = 4.3
    switch_penalty = 1.0
    #: Past chunks the harmonic-mean throughput predictor averages.
    predictor_window = 5

    # --- throughput timeline -------------------------------------------------

    @staticmethod
    def _timeline(record: FlowRecord):
        """(end_time, cumulative delivered megabits) steps from MI stats."""
        times, cum = [], []
        total = 0.0
        for s in record.records:
            total += s.acked * s.packet_bytes * 8 / 1e6
            times.append(s.end)
            cum.append(total)
        return np.asarray(times), np.asarray(cum)

    def stream(self, record: FlowRecord, n_chunks: int = 30) -> VideoResult:
        """Stream ``n_chunks`` over the transport's delivered timeline."""
        times, cum = self._timeline(record)
        if len(times) == 0:
            return VideoResult([], 0.0, 0.0)

        def downloaded_until(start_megabits: float, need: float) -> float:
            """Wall time at which ``need`` megabits past ``start`` are in."""
            target = start_megabits + need
            idx = int(np.searchsorted(cum, target))
            if idx >= len(cum):
                return float(times[-1]) + 1e9  # starved: never completes
            if idx == 0:
                prev_t, prev_c = 0.0, 0.0
            else:
                prev_t, prev_c = times[idx - 1], cum[idx - 1]
            seg = cum[idx] - prev_c
            frac = 0.0 if seg <= 0 else (target - prev_c) / seg
            return float(prev_t + frac * (times[idx] - prev_t))

        qualities: list[int] = []
        recent_mbps: list[float] = []
        rebuffer = 0.0
        now = float(times[0])
        consumed = 0.0  # megabits already downloaded
        buffer_s = 0.0
        last_quality = 0

        for _ in range(n_chunks):
            quality = self._mpc_choice(recent_mbps, buffer_s, last_quality)
            need = BITRATES_MBPS[quality] * self.chunk_seconds
            done = downloaded_until(consumed, need)
            elapsed = max(done - now, 1e-9)
            if done > times[-1]:
                break  # transport starved; session ends early
            recent_mbps.append(need / elapsed)
            if len(recent_mbps) > self.predictor_window:
                recent_mbps.pop(0)

            # Buffer dynamics: drains while downloading, +chunk on arrival.
            if elapsed > buffer_s:
                rebuffer += elapsed - buffer_s
                buffer_s = 0.0
            else:
                buffer_s -= elapsed
            buffer_s = min(buffer_s + self.chunk_seconds, self.buffer_capacity_s)

            qualities.append(quality)
            last_quality = quality
            consumed += need
            now = done

        return VideoResult(qualities=qualities, rebuffer_seconds=rebuffer,
                           mean_throughput_mbps=record.mean_throughput_mbps)

    # --- MPC ----------------------------------------------------------------------

    def _predict_mbps(self, recent: list[float]) -> float:
        """Harmonic-mean predictor (robust to outliers, as in MPC)."""
        if not recent:
            return BITRATES_MBPS[0]
        inv = [1.0 / max(r, 1e-6) for r in recent]
        return len(inv) / sum(inv)

    def _mpc_choice(self, recent: list[float], buffer_s: float,
                    last_quality: int) -> int:
        """Pick the next quality maximising QoE over the horizon."""
        predicted = self._predict_mbps(recent)
        best_q, best_score = 0, -np.inf
        for plan in itertools.product(range(len(BITRATES_MBPS)), repeat=self.horizon):
            score = 0.0
            buf = buffer_s
            prev = last_quality
            for q in plan:
                download = BITRATES_MBPS[q] * self.chunk_seconds / max(predicted, 1e-6)
                rebuf = max(download - buf, 0.0)
                buf = max(buf - download, 0.0) + self.chunk_seconds
                score += (BITRATES_MBPS[q]
                          - self.rebuffer_penalty * rebuf
                          - self.switch_penalty * abs(BITRATES_MBPS[q] - BITRATES_MBPS[prev]))
                prev = q
            if score > best_score:
                best_score = score
                best_q = plan[0]
        return best_q
