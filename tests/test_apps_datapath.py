"""Tests for the application workloads (§6.3) and the library's two
deployments (§5): consulted every interval (UDT) or per batch (CCP)."""

import numpy as np
import pytest

from repro.apps.bulk import run_bulk_transfers
from repro.apps.rtc import run_rtc
from repro.apps.video import BITRATES_MBPS, VideoSession
from repro.baselines import Cubic
from repro.config import DEFAULT_TRAINING
from repro.core.agent import MoccAgent, MoccController
from repro.eval.overhead import ProfilingController, measure_overhead
from repro.eval.runner import EvalNetwork, build_competition
from repro.netsim.network import FlowRecord
from repro.netsim.sender import ExternalRateController, MonitorIntervalStats

NET = EvalNetwork(bandwidth_mbps=4.0, one_way_ms=10.0, buffer_bdp=2.0)


def _throughput_record(mbps: float, duration: float = 60.0) -> FlowRecord:
    """Synthetic record delivering a constant rate."""
    pps = mbps * 1e6 / (1500 * 8)
    stats = []
    step = 1.0
    for t in np.arange(0, duration, step):
        stats.append(MonitorIntervalStats(
            flow_id=0, start=float(t), end=float(t + step),
            sent=int(pps * step), acked=int(pps * step), lost=0,
            mean_rtt=0.04, min_rtt=0.04, latency_gradient=0.0,
            capacity_pps=pps, base_rtt=0.04, packet_bytes=1500, rate_pps=pps))
    return FlowRecord(flow_id=0, scheme="synthetic", mean_throughput_pps=pps,
                      mean_throughput_mbps=mbps, mean_utilization=1.0,
                      mean_rtt=0.04, base_rtt=0.04, loss_rate=0.0, records=stats)


class TestVideo:
    def test_fast_link_gets_top_quality(self):
        session = VideoSession()
        result = session.stream(_throughput_record(10.0), n_chunks=10)
        assert result.mean_quality >= 4.0
        assert result.rebuffer_seconds < 1.0

    def test_slow_link_gets_low_quality(self):
        session = VideoSession()
        result = session.stream(_throughput_record(0.5), n_chunks=10)
        assert result.mean_quality <= 1.5

    def test_quality_monotone_in_bandwidth(self):
        session = VideoSession()
        slow = session.stream(_throughput_record(1.0), n_chunks=10).mean_quality
        fast = session.stream(_throughput_record(6.0), n_chunks=10).mean_quality
        assert fast > slow

    def test_quality_counts_sum(self):
        session = VideoSession()
        result = session.stream(_throughput_record(3.0), n_chunks=12)
        assert result.quality_counts().sum() == len(result.qualities)

    def test_empty_record(self):
        session = VideoSession()
        record = FlowRecord(flow_id=0, scheme="x", mean_throughput_pps=0,
                            mean_throughput_mbps=0, mean_utilization=0,
                            mean_rtt=None, base_rtt=0.04, loss_rate=0, records=[])
        result = session.stream(record)
        assert result.qualities == []

    def test_ladder_is_pensieve(self):
        assert BITRATES_MBPS == (0.3, 0.75, 1.2, 1.85, 2.85, 4.3)


class TestRtc:
    def test_saturating_flow_small_gaps(self):
        ctrl = ExternalRateController(NET.bottleneck_pps * 1.2)
        result = run_rtc(ctrl, NET, duration=5.0, seed=1)
        # Saturated bottleneck: spacing ~ 1/capacity = 3 ms.
        assert result.mean_gap_ms == pytest.approx(3.0, rel=0.2)
        assert result.delivered > 1000

    def test_underutilized_flow_larger_gaps(self):
        ctrl = ExternalRateController(NET.bottleneck_pps * 0.25)
        result = run_rtc(ctrl, NET, duration=5.0, seed=2)
        assert result.mean_gap_ms > 10.0

    def test_summary_string(self):
        ctrl = ExternalRateController(100.0)
        result = run_rtc(ctrl, NET, duration=3.0, seed=3)
        assert "inter-packet delay" in result.summary()


class TestBulk:
    def test_fct_close_to_ideal_at_full_rate(self):
        result = run_bulk_transfers(
            lambda: ExternalRateController(NET.bottleneck_pps * 1.5),
            NET, file_mbytes=0.5, repeats=2, seed=1)
        ideal = 0.5 * 8e6 / (NET.bandwidth_mbps * 1e6)
        assert result.mean_fct == pytest.approx(ideal, rel=0.5)

    def test_fct_is_the_completing_ack(self):
        """Fig. 10's FCT is when the last needed ack lands: off any
        0.05 s slice grid, and moved by the seed's wire losses."""
        net = EvalNetwork(bandwidth_mbps=20.0, one_way_ms=5.0,
                          buffer_bdp=2.0, loss_rate=0.005)
        fcts = run_bulk_transfers(
            lambda: ExternalRateController(net.bottleneck_pps * 0.8),
            net, file_mbytes=0.5, repeats=2, seed=8).fct_seconds / 0.05
        assert fcts[0] != fcts[1]
        assert np.all(np.abs(fcts - np.round(fcts)) > 1e-6)

    def test_slower_scheme_takes_longer(self):
        fast = run_bulk_transfers(
            lambda: ExternalRateController(NET.bottleneck_pps),
            NET, file_mbytes=0.5, repeats=2, seed=1)
        slow = run_bulk_transfers(
            lambda: ExternalRateController(NET.bottleneck_pps / 4),
            NET, file_mbytes=0.5, repeats=2, seed=1)
        assert slow.mean_fct > fast.mean_fct

    def test_summary(self):
        result = run_bulk_transfers(lambda: ExternalRateController(200.0),
                                    NET, file_mbytes=0.2, repeats=2, seed=2)
        assert "mean FCT" in result.summary()


class TestDatapathShims:
    """§5's UDT and CCP shims: the controller's two cadences."""

    def _ctrl(self, batch=1):
        return MoccController(MoccAgent(DEFAULT_TRAINING), [0.5, 0.3, 0.2],
                              initial_rate=NET.bottleneck_pps / 3, batch=batch)

    def test_udt_inference_every_mi(self):
        udt = self._ctrl()
        build_competition([udt], NET, duration=2.0, seed=1).run_all()
        # MI = base RTT = 20 ms -> ~100 intervals in 2 s.
        assert 80 <= udt.inference_count <= 110

    def test_ccp_batches_inferences(self):
        udt, ccp = self._ctrl(), self._ctrl(batch=4)
        build_competition([udt], NET, duration=2.0, seed=1).run_all()
        build_competition([ccp], NET, duration=2.0, seed=1).run_all()
        assert ccp.inference_count * 3 < udt.inference_count

    def test_ccp_invalid_batch(self):
        with pytest.raises(ValueError):
            self._ctrl(batch=0)

    def test_shims_keep_sending(self):
        (record,) = build_competition([self._ctrl(batch=4)], NET, duration=3.0,
                                     seed=2).run_all()
        assert record.mean_throughput_pps > 0


class TestOverhead:
    def test_profiling_controller_accumulates(self):
        profiled = ProfilingController(Cubic())
        build_competition([profiled], NET, duration=2.0, seed=1).run_all()
        assert profiled.calls > 0
        assert profiled.control_seconds > 0

    def test_measure_overhead_report(self):
        report = measure_overhead(Cubic(), NET, duration=2.0, seed=1)
        assert report.scheme == "CUBIC"
        assert report.control_us_per_sim_second > 0
        assert report.sim_seconds == 2.0

    def test_model_controller_costs_more_than_cubic(self):
        """Each side is the least of three interleaved wall-clock runs,
        so one stalled run cannot invert the comparison."""
        agent = MoccAgent(DEFAULT_TRAINING)
        mocc, cubic = [], []
        for _ in range(3):
            mocc.append(measure_overhead(
                MoccController(agent, [0.5, 0.3, 0.2], initial_rate=100.0),
                NET, duration=3.0, seed=1))
            cubic.append(measure_overhead(Cubic(), NET, duration=3.0, seed=1))
        assert all(report.inference_count > 0 for report in mocc)
        assert (min(r.control_us_per_sim_second for r in mocc)
                > min(r.control_us_per_sim_second for r in cubic))
