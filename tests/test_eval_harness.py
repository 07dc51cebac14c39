"""Tests for the evaluation harness: metrics, ellipses, CDF tables, sweeps."""

import numpy as np
import pytest

from repro.eval.cdf import format_cdf_table
from repro.eval.gaussian import sigma_ellipse
from repro.eval.metrics import (
    friendliness_ratio,
    jain_index,
    jain_index_series,
    reward_of_record,
)
from repro.eval.runner import EvalNetwork, run_competition, run_scheme, scheme_factory
from repro.netsim.network import FlowRecord
from repro.netsim.sender import ExternalRateController, MonitorIntervalStats


def _record(thr_pps=50.0, rtt=0.05, stats=None):
    return FlowRecord(flow_id=0, scheme="x", mean_throughput_pps=thr_pps,
                      mean_throughput_mbps=thr_pps * 1500 * 8 / 1e6,
                      mean_utilization=0.5, mean_rtt=rtt, base_rtt=0.04,
                      loss_rate=0.0, records=stats or [])


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([10.0, 10.0, 10.0]) == pytest.approx(1.0)

    def test_total_unfairness(self):
        assert jain_index([30.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_two_flow_known_value(self):
        # (1+3)^2 / (2*(1+9)) = 16/20
        assert jain_index([1.0, 3.0]) == pytest.approx(0.8)

    def test_empty(self):
        assert jain_index([]) == 1.0

    def test_scale_invariant(self):
        assert jain_index([1, 2, 3]) == pytest.approx(jain_index([10, 20, 30]))


class TestJainSeries:
    def _stats(self, start, acked):
        return MonitorIntervalStats(flow_id=0, start=start, end=start + 0.5,
                                    sent=acked, acked=acked, lost=0, mean_rtt=0.05,
                                    min_rtt=0.05, latency_gradient=0.0,
                                    capacity_pps=100.0, base_rtt=0.04,
                                    packet_bytes=1500, rate_pps=50.0)

    def test_series_windows(self):
        r1 = _record(stats=[self._stats(t, 10) for t in np.arange(0, 4, 0.5)])
        r2 = _record(stats=[self._stats(t, 10) for t in np.arange(0, 4, 0.5)])
        series = jain_index_series([r1, r2], interval=1.0)
        assert len(series) == 4
        np.testing.assert_allclose(series, 1.0)

    def test_skips_single_flow_windows(self):
        r1 = _record(stats=[self._stats(t, 10) for t in np.arange(0, 4, 0.5)])
        r2 = _record(stats=[self._stats(t, 10) for t in np.arange(2, 4, 0.5)])
        series = jain_index_series([r1, r2], interval=1.0)
        assert len(series) == 2  # only the overlap windows


class TestFriendliness:
    def test_ratio(self):
        assert friendliness_ratio(_record(30.0), _record(60.0)) == pytest.approx(0.5)

    def test_zero_cubic(self):
        assert friendliness_ratio(_record(30.0), _record(0.0)) == float("inf")


class TestRewardOfRecord:
    def test_weighted_components(self):
        stats = MonitorIntervalStats(flow_id=0, start=0, end=1, sent=50, acked=50,
                                     lost=0, mean_rtt=0.04, min_rtt=0.04,
                                     latency_gradient=0.0, capacity_pps=50.0,
                                     base_rtt=0.04, packet_bytes=1500, rate_pps=50.0)
        record = _record(stats=[stats])
        # Perfect interval: every component is 1 -> reward = sum(w) = 1.
        assert reward_of_record(record, [0.5, 0.3, 0.2]) == pytest.approx(1.0)


class TestSigmaEllipse:
    def test_center(self):
        rng = np.random.default_rng(0)
        pts = rng.normal([5.0, -2.0], [1.0, 0.5], size=(4000, 2))
        e = sigma_ellipse(pts)
        assert e.center[0] == pytest.approx(5.0, abs=0.1)
        assert e.center[1] == pytest.approx(-2.0, abs=0.1)

    def test_axes_match_std(self):
        rng = np.random.default_rng(1)
        pts = rng.normal([0, 0], [2.0, 0.5], size=(8000, 2))
        e = sigma_ellipse(pts)
        assert max(e.axes) == pytest.approx(2.0, rel=0.1)
        assert min(e.axes) == pytest.approx(0.5, rel=0.1)

    def test_single_point(self):
        e = sigma_ellipse(np.array([[3.0, 4.0]]))
        assert e.center == (3.0, 4.0)
        assert e.axes == (0.0, 0.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            sigma_ellipse(np.zeros((4, 3)))


class TestCdf:
    def test_format_table(self):
        table = format_cdf_table({"a": np.array([1.0, 2.0, 3.0])})
        assert "a" in table and "mean" in table


class TestRunnerIntegration:
    NET = EvalNetwork(bandwidth_mbps=4.0, one_way_ms=10.0, buffer_bdp=1.0)

    def test_run_scheme_heuristic(self):
        record = run_scheme(scheme_factory("cubic", self.NET), self.NET,
                            duration=5.0, seed=1)
        assert record.mean_utilization > 0.5

    def test_scheme_factory_all_heuristics(self):
        for name in ("cubic", "vegas", "bbr", "copa", "allegro", "vivace"):
            controller = scheme_factory(name, self.NET)
            assert controller.kind in ("rate", "window")

    def test_scheme_factory_unknown(self):
        with pytest.raises(ValueError):
            scheme_factory("reno", self.NET)

    def test_mocc_requires_agent(self):
        with pytest.raises(ValueError):
            scheme_factory("mocc", self.NET)

    def test_run_competition_staggered(self):
        controllers = [ExternalRateController(150.0), ExternalRateController(150.0)]
        records = run_competition(controllers, self.NET, duration=8.0,
                                  start_times=[0.0, 4.0], seed=2)
        assert records[0].mean_throughput_pps > 0
        assert records[1].records[0].start >= 4.0

    @staticmethod
    def queue_size(net):
        return net.topology().build(net.packet_bytes).links["hop0"].queue_size

    def test_network_queue_sizing(self):
        net = EvalNetwork(bandwidth_mbps=12.0, one_way_ms=20.0, buffer_bdp=1.0)
        # 1 BDP at 1000 pps, 40 ms RTT = 40 packets.
        assert self.queue_size(net) == 40

    def test_explicit_queue_overrides(self):
        net = EvalNetwork(queue_packets=123)
        assert self.queue_size(net) == 123
