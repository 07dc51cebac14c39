"""Tests for flow accounting and monitor-interval statistics."""

import numpy as np
import pytest

from repro.netsim.packet import Packet
from repro.netsim.sender import ExternalRateController, Flow, MonitorIntervalStats


def _rtt_slope(samples: list[tuple[float, float]]) -> float:
    """Least-squares slope of RTT vs. ack time over ``(ack_time, rtt)``
    pairs, as the MI close computes it from its streamed samples."""
    flow = make_flow()
    for ack_time, rtt in samples:
        flow._mi_times.append(ack_time)
        flow._mi_rtts.append(rtt)
    return flow.finish_mi(2.0, 100.0, 0.04, 10.0).latency_gradient


def mi_rtt_samples(flow) -> list[tuple[float, float]]:
    """The current MI's ``(ack_time, rtt)`` samples, read from the
    flow's streaming buffers."""
    return list(zip(flow._mi_times, flow._mi_rtts))


def make_flow(**kwargs):
    return Flow(flow_id=0, controller=ExternalRateController(100.0), **kwargs)


def packet(seq=0, send_time=0.0):
    return Packet(flow_id=0, seq=seq, send_time=send_time)


class TestFlowAccounting:
    def test_sent_counts(self):
        flow = make_flow()
        flow.note_sent(packet(0))
        flow.note_sent(packet(1))
        assert flow.total_sent == 2
        assert flow.inflight == 2
        assert flow.mi_sent == 2

    def test_ack_updates_rtt(self):
        flow = make_flow()
        p = packet(0, send_time=1.0)
        flow.note_sent(p)
        flow.note_ack(p, now=1.05)
        assert flow.last_rtt == pytest.approx(0.05)
        assert flow.min_rtt_seen == pytest.approx(0.05)
        assert flow.inflight == 0

    def test_srtt_ewma(self):
        flow = make_flow()
        p1, p2 = packet(0, 0.0), packet(1, 0.0)
        flow.note_sent(p1)
        flow.note_sent(p2)
        flow.note_ack(p1, now=0.1)
        flow.note_ack(p2, now=0.2)
        assert flow.srtt == pytest.approx(0.875 * 0.1 + 0.125 * 0.2)

    def test_min_rtt_tracks_minimum(self):
        flow = make_flow()
        for i, rtt in enumerate([0.05, 0.03, 0.08]):
            p = packet(i, send_time=float(i))
            flow.note_sent(p)
            flow.note_ack(p, now=i + rtt)
        assert flow.min_rtt_seen == pytest.approx(0.03)

    def test_loss_decrements_inflight(self):
        flow = make_flow()
        p = packet(0)
        flow.note_sent(p)
        flow.note_loss(p, now=0.1)
        assert flow.inflight == 0
        assert flow.total_lost == 1


class TestMonitorInterval:
    def _run_mi(self, flow, rtts, lost=0, t0=0.0):
        for i, rtt in enumerate(rtts):
            p = packet(i, send_time=t0 + 0.01 * i)
            flow.note_sent(p)
            flow.note_ack(p, now=t0 + 0.01 * i + rtt)
        for j in range(lost):
            p = packet(100 + j, send_time=t0)
            flow.note_sent(p)
            flow.note_loss(p, now=t0 + 0.1)
        return flow.finish_mi(t0 + 0.5, capacity_pps=100.0, base_rtt=0.04,
                              rate_pps=80.0)

    def test_basic_stats(self):
        flow = make_flow()
        stats = self._run_mi(flow, [0.05, 0.05, 0.05])
        assert stats.sent == 3
        assert stats.acked == 3
        assert stats.lost == 0
        assert stats.mean_rtt == pytest.approx(0.05)

    def test_accumulators_reset_after_mi(self):
        flow = make_flow()
        self._run_mi(flow, [0.05])
        assert flow.mi_sent == 0
        assert flow.mi_acked == 0
        assert mi_rtt_samples(flow) == []

    def test_loss_rate(self):
        flow = make_flow()
        stats = self._run_mi(flow, [0.05, 0.05], lost=2)
        assert stats.loss_rate == pytest.approx(0.5)

    def test_throughput(self):
        flow = make_flow()
        stats = self._run_mi(flow, [0.05] * 10)
        assert stats.throughput_pps == pytest.approx(10 / 0.5)

    def test_utilization_clipped(self):
        stats = MonitorIntervalStats(flow_id=0, start=0, end=1, sent=500, acked=500,
                                     lost=0, mean_rtt=0.05, min_rtt=0.05,
                                     latency_gradient=0, capacity_pps=100.0,
                                     base_rtt=0.04, packet_bytes=1500, rate_pps=500)
        assert stats.utilization == 1.0

    def test_empty_mi(self):
        flow = make_flow()
        stats = flow.finish_mi(0.5, capacity_pps=100.0, base_rtt=0.04, rate_pps=10.0)
        assert stats.mean_rtt is None
        assert stats.latency_gradient == 0.0


class TestRttSlope:
    def test_flat(self):
        samples = [(0.0, 0.05), (1.0, 0.05), (2.0, 0.05)]
        assert _rtt_slope(samples) == pytest.approx(0.0)

    def test_linear_increase(self):
        samples = [(t, 0.05 + 0.01 * t) for t in np.linspace(0, 1, 10)]
        assert _rtt_slope(samples) == pytest.approx(0.01, rel=1e-6)

    def test_linear_decrease(self):
        samples = [(t, 0.05 - 0.02 * t) for t in np.linspace(0, 1, 10)]
        assert _rtt_slope(samples) == pytest.approx(-0.02, rel=1e-6)

    def test_single_sample_is_zero(self):
        assert _rtt_slope([(0.0, 0.05)]) == 0.0

    def test_simultaneous_samples(self):
        assert _rtt_slope([(1.0, 0.05), (1.0, 0.07)]) == 0.0


class TestAggregates:
    def test_mean_throughput_over_records(self):
        flow = make_flow()
        for k in range(3):
            for i in range(5):
                p = packet(k * 10 + i, send_time=k * 1.0)
                flow.note_sent(p)
                flow.note_ack(p, now=k * 1.0 + 0.05)
            flow.finish_mi((k + 1) * 1.0, 100.0, 0.04, 10.0)
        assert flow.mean_throughput_pps() == pytest.approx(15 / 3.0)

    def test_overall_loss_rate(self):
        flow = make_flow()
        p1, p2 = packet(0), packet(1)
        flow.note_sent(p1)
        flow.note_sent(p2)
        flow.note_ack(p1, 0.05)
        flow.note_loss(p2, 0.1)
        assert flow.overall_loss_rate() == pytest.approx(0.5)

    def test_empty_flow(self):
        flow = make_flow()
        assert flow.mean_throughput_pps() == 0.0
        assert flow.mean_rtt() is None
        assert flow.overall_loss_rate() == 0.0
