"""Tests for the statistics history window (repro.netsim.history)."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.netsim.env import CongestionControlEnv
from repro.netsim.history import (GRADIENT_SCALE, RATE_RATIO_CAP, StatHistory,
                                  _clamp)
from repro.netsim.packet import Packet
from repro.netsim.sender import LATENCY_RATIO_CAP, ExternalRateController, Flow

#: Every (lo, hi) pair ``push``/``push_raw`` clamp to.
CLAMP_BOUNDS = ((0.0, 10.0), (0.0, LATENCY_RATIO_CAP), (-10.0, 10.0),
                (0.0, RATE_RATIO_CAP))
#: ... and the action bound ``CongestionControlEnv.step`` clamps to.
ACTION_BOUNDS = (-CongestionControlEnv.ACTION_CLIP, CongestionControlEnv.ACTION_CLIP)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestClampMatchesNpClip:
    """The scalar clamp replaced ``float(np.clip(x, lo, hi))`` on the
    per-MI path; it must agree on every double, bit for bit."""

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(float("nan"))
    @example(float("inf"))
    @example(float("-inf"))
    @example(-0.0)
    @example(0.0)
    @example(10.0)
    @example(-10.0)
    @example(RATE_RATIO_CAP)
    def test_bit_identical_to_np_clip(self, x):
        for lo, hi in CLAMP_BOUNDS + (ACTION_BOUNDS,):
            assert _bits(_clamp(x, lo, hi)) == _bits(float(np.clip(x, lo, hi))), \
                (x, lo, hi)

    @given(st.lists(st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 4),
                    min_size=1, max_size=8))
    def test_push_raw_window_equals_clipped_rows(self, rows):
        h = StatHistory(3)
        for row in rows:
            h.push_raw(*row)
        want = [1.0, 1.0, 0.0, 1.0] * 3
        for row in rows:
            want = want[4:] + [float(np.clip(x, lo, hi))
                               for x, (lo, hi) in zip(row, CLAMP_BOUNDS)]
        assert h.vector().tobytes() == np.array(want).tobytes()


class TestStatHistory:
    def test_dimension(self):
        assert StatHistory(10).dim == 40
        assert StatHistory(3).dim == 12

    def test_initial_fill_is_neutral(self):
        h = StatHistory(2)
        np.testing.assert_allclose(h.vector(), [1, 1, 0, 1, 1, 1, 0, 1])

    def test_push_raw_slides_window(self):
        h = StatHistory(2)
        h.push_raw(2.0, 3.0, 0.5, 1.5)
        vec = h.vector()
        np.testing.assert_allclose(vec[:4], [1, 1, 0, 1])     # old neutral
        np.testing.assert_allclose(vec[4:], [2, 3, 0.5, 1.5])  # newest last

    def test_push_raw_clips(self):
        h = StatHistory(1)
        h.push_raw(100.0, 100.0, -100.0, 100.0)
        vec = h.vector()
        assert vec[0] == 10.0
        assert vec[1] == 10.0
        assert vec[2] == -10.0
        assert vec[3] == RATE_RATIO_CAP

    def test_reset_restores_neutral(self):
        h = StatHistory(2)
        h.push_raw(5, 5, 5, 2)
        h.reset()
        np.testing.assert_allclose(h.vector(), [1, 1, 0, 1, 1, 1, 0, 1])

    def test_vector_is_independent_of_later_pushes(self):
        # MoccEnv / RolloutBuffer hold observations across steps.
        h = StatHistory(2)
        h.push_raw(2.0, 3.0, 0.5, 1.5)
        held = h.vector()
        snapshot = held.copy()
        h.push_raw(4.0, 5.0, -0.5, 0.5)
        h.reset()
        np.testing.assert_array_equal(held, snapshot)
        held[:] = 7.0
        np.testing.assert_allclose(h.vector(), [1, 1, 0, 1, 1, 1, 0, 1])

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            StatHistory(0)

    def test_push_from_flow_stats(self):
        flow = Flow(flow_id=0, controller=ExternalRateController(100.0))
        p = Packet(flow_id=0, seq=0, send_time=0.0)
        flow.note_sent(p)
        flow.note_ack(p, now=0.05)
        stats = flow.finish_mi(0.5, capacity_pps=100.0, base_rtt=0.04, rate_pps=80.0)
        h = StatHistory(1)
        h.push(flow, stats)
        vec = h.vector()
        assert vec[0] == pytest.approx(1.0)           # send ratio
        assert vec[1] == pytest.approx(1.0)           # latency ratio
        assert vec[2] == pytest.approx(0.0)           # gradient
        # rate ratio: 80 pps over max throughput (1 ack / 0.5 s = 2 pps),
        # clipped at the cap.
        assert vec[3] == RATE_RATIO_CAP

    def test_rate_ratio_uses_max_throughput(self):
        flow = Flow(flow_id=0, controller=ExternalRateController(100.0))
        for i in range(50):
            p = Packet(flow_id=0, seq=i, send_time=i * 0.01)
            flow.note_sent(p)
            flow.note_ack(p, now=i * 0.01 + 0.04)
        stats = flow.finish_mi(0.5, 100.0, 0.04, rate_pps=50.0)
        assert flow.max_throughput_seen == pytest.approx(100.0)
        h = StatHistory(1)
        h.push(flow, stats)
        assert h.vector()[3] == pytest.approx(0.5)  # 50 pps / 100 pps max

    def test_gradient_scaling(self):
        flow = Flow(flow_id=0, controller=ExternalRateController(100.0))
        for i in range(10):
            p = Packet(flow_id=0, seq=i, send_time=i * 0.05)
            flow.note_sent(p)
            flow.note_ack(p, now=i * 0.05 + 0.04 + 0.001 * i)  # rising RTT
        stats = flow.finish_mi(0.5, 100.0, 0.04, 100.0)
        h = StatHistory(1)
        h.push(flow, stats)
        expected = stats.latency_gradient * GRADIENT_SCALE
        assert h.vector()[2] == pytest.approx(expected, rel=1e-6)
