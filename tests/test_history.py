"""Tests for the statistics history window (repro.netsim.history)."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.netsim.env import MoccEnv
from repro.netsim.history import (GRADIENT_SCALE, RATE_RATIO_CAP, SEND_RATIO_CAP,
                                  StatHistory, _clamp)
from repro.netsim.packet import Packet
from repro.netsim.sender import LATENCY_RATIO_CAP, ExternalRateController, Flow

#: Every (lo, hi) pair ``push`` clamps to.
CLAMP_BOUNDS = ((0.0, RATE_RATIO_CAP), (-10.0, 10.0))
#: ... and the action bound ``MoccEnv.step`` clamps to.
ACTION_BOUNDS = (-MoccEnv.ACTION_CLIP, MoccEnv.ACTION_CLIP)


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


class TestStatHistory:
    def test_dimension(self):
        assert StatHistory(10).dim == 40
        assert StatHistory(3).dim == 12

    def test_initial_fill_is_neutral(self):
        h = StatHistory(2)
        np.testing.assert_allclose(h.vector(), [1, 1, 0, 1, 1, 1, 0, 1])

    def test_reset_restores_neutral(self):
        h = StatHistory(2)
        h._append(5, 5, 5, 2)
        h.reset()
        np.testing.assert_allclose(h.vector(), [1, 1, 0, 1, 1, 1, 0, 1])

    def test_vector_is_independent_of_later_pushes(self):
        # MoccEnv / RolloutBuffer hold observations across steps.
        h = StatHistory(2)
        h._append(2.0, 3.0, 0.5, 1.5)
        held = h.vector()
        snapshot = held.copy()
        h._append(4.0, 5.0, -0.5, 0.5)
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
        h.push(stats, stats.rate_pps)
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
        h = StatHistory(1)
        h.push(stats, stats.rate_pps)
        assert h.max_throughput == pytest.approx(100.0)
        assert h.vector()[3] == pytest.approx(0.5)  # 50 pps / 100 pps max

    def test_gradient_scaling(self):
        flow = Flow(flow_id=0, controller=ExternalRateController(100.0))
        for i in range(10):
            p = Packet(flow_id=0, seq=i, send_time=i * 0.05)
            flow.note_sent(p)
            flow.note_ack(p, now=i * 0.05 + 0.04 + 0.001 * i)  # rising RTT
        stats = flow.finish_mi(0.5, 100.0, 0.04, 100.0)
        h = StatHistory(1)
        h.push(stats, stats.rate_pps)
        expected = stats.latency_gradient * GRADIENT_SCALE
        assert h.vector()[2] == pytest.approx(expected, rel=1e-6)

    def test_reset_forgets_the_trackers(self):
        flow = make_flow()
        h = StatHistory(1)
        h.push(*mi(flow, 0.0, [0.05] * 10))
        h.reset()
        assert h.best_mean_rtt is None
        assert h.max_throughput == 0.0
        # A slower, longer-RTT interval is the new flow's best so far.
        h.push(*mi(flow, 0.5, [0.10]))
        assert h.vector().tolist() == [1.0, 1.0, 0.0, RATE_RATIO_CAP]


def make_flow() -> Flow:
    return Flow(flow_id=0, controller=ExternalRateController(100.0))


def mi(flow: Flow, t0: float, rtts, lost: int = 0, rate: float = 80.0):
    """Close one 0.5 s interval from ``t0`` that acks one packet per
    RTT in ``rtts`` and loses ``lost``; the ``push`` arguments for it."""
    for i, rtt in enumerate(rtts):
        p = Packet(flow_id=0, seq=i, send_time=t0 + 0.01 * i)
        flow.note_sent(p)
        flow.note_ack(p, now=t0 + 0.01 * i + rtt)
    for j in range(lost):
        p = Packet(flow_id=0, seq=100 + j, send_time=t0)
        flow.note_sent(p)
        flow.note_loss(p, now=t0 + 0.1)
    stats = flow.finish_mi(t0 + 0.5, 100.0, 0.04, rate)
    return stats, stats.rate_pps


def pushed_row(*intervals) -> list:
    """The newest row after pushing each ``(t0, rtts, lost)`` interval
    of one fresh flow."""
    flow, h = make_flow(), StatHistory(1)
    for t0, rtts, lost in intervals:
        h.push(*mi(flow, t0, rtts, lost))
    return h.vector().tolist()


class TestSendRatio:
    """l_t = sent/acked, capped when nothing was acknowledged."""

    def test_empty_mi_is_one(self):
        assert pushed_row((0.0, [], 0))[0] == 1.0

    def test_send_ratio_cap_when_no_acks(self):
        assert pushed_row((0.0, [], 1))[0] == SEND_RATIO_CAP

    def test_send_ratio_normal(self):
        # sent 4, acked 2
        assert pushed_row((0.0, [0.05, 0.05], 2))[0] == pytest.approx(2.0)


class TestLatencyRatio:
    """p_t = mean RTT of the MI over the best mean RTT pushed so far."""

    def test_first_interval_is_one(self):
        assert pushed_row((0.0, [0.05], 0))[1] == pytest.approx(1.0)

    def test_ratio_grows_with_latency(self):
        row = pushed_row((0.0, [0.05], 0), (0.5, [0.10], 0))
        assert row[1] == pytest.approx(2.0)

    def test_capped_when_unknown(self):
        assert pushed_row((0.0, [], 0))[1] == LATENCY_RATIO_CAP
