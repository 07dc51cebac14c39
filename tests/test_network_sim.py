"""Integration tests for the discrete-event simulation engine."""

import numpy as np
import pytest

from repro.netsim.link import Link
from repro.netsim.network import FlowSpec, Simulation
from repro.netsim.sender import Controller, ExternalRateController
from repro.netsim.traces import ConstantTrace


def single_link(pps=100.0, delay=0.02, queue=50, loss=0.0, seed=0):
    return Link(ConstantTrace(pps), delay=delay, queue_size=queue,
                loss_rate=loss, rng=np.random.default_rng(seed))


class FixedWindow(Controller):
    kind = "window"
    name = "fixed-window"

    def __init__(self, cwnd):
        self._cwnd = cwnd

    def cwnd(self, now):
        return self._cwnd


class TestRateFlow:
    def test_conservation(self):
        """Every sent packet is eventually acked, lost, or in flight."""
        sim = Simulation(single_link(), [FlowSpec(ExternalRateController(80.0))],
                         duration=10.0, seed=1)
        sim.run_all()
        flow = sim.flows[0]
        assert flow.total_sent > 0
        assert flow.total_acked + flow.total_lost + flow.inflight == flow.total_sent

    def test_throughput_capped_by_link(self):
        sim = Simulation(single_link(pps=100.0),
                         [FlowSpec(ExternalRateController(500.0))],
                         duration=10.0, seed=2)
        record = sim.run_all()[0]
        assert record.mean_throughput_pps <= 100.0 * 1.05

    def test_under_capacity_no_loss_no_queue(self):
        sim = Simulation(single_link(pps=100.0),
                         [FlowSpec(ExternalRateController(50.0))],
                         duration=10.0, seed=3)
        record = sim.run_all()[0]
        assert record.loss_rate == 0.0
        assert record.mean_rtt == pytest.approx(0.04 + 0.01, abs=0.002)
        assert record.mean_throughput_pps == pytest.approx(50.0, rel=0.05)

    def test_overdrive_builds_queue_and_drops(self):
        sim = Simulation(single_link(pps=100.0, queue=20),
                         [FlowSpec(ExternalRateController(200.0))],
                         duration=10.0, seed=4)
        record = sim.run_all()[0]
        assert record.loss_rate > 0.3
        assert record.latency_ratio > 2.0

    def test_mi_records_cover_duration(self):
        sim = Simulation(single_link(), [FlowSpec(ExternalRateController(80.0),
                                                  mi_duration=0.1)],
                         duration=5.0, seed=5)
        record = sim.run_all()[0]
        assert len(record.records) == pytest.approx(50, abs=2)
        starts = [r.start for r in record.records]
        assert starts == sorted(starts)

    def test_random_loss_reflected(self):
        sim = Simulation(single_link(loss=0.1, queue=10**6),
                         [FlowSpec(ExternalRateController(80.0))],
                         duration=30.0, seed=6)
        record = sim.run_all()[0]
        assert record.loss_rate == pytest.approx(0.1, abs=0.03)


class TestWindowFlow:
    def test_inflight_respects_cwnd(self):
        ctrl = FixedWindow(cwnd=5)
        sim = Simulation(single_link(pps=100.0, queue=100), [FlowSpec(ctrl)],
                         duration=5.0, seed=7)
        # Run incrementally, checking the invariant as the sim advances.
        for t in np.arange(0.5, 5.0, 0.5):
            sim.run(until=float(t))
            assert sim.flows[0].inflight <= 5
        sim.run_all()

    def test_window_flow_delivers(self):
        ctrl = FixedWindow(cwnd=8)
        sim = Simulation(single_link(pps=100.0, delay=0.02), [FlowSpec(ctrl)],
                         duration=10.0, seed=8)
        record = sim.run_all()[0]
        # cwnd/RTT = 8/0.05 = 160 > capacity; link-limited at ~100.
        assert record.mean_throughput_pps == pytest.approx(100.0, rel=0.1)

    def test_small_window_self_clocked(self):
        ctrl = FixedWindow(cwnd=2)
        sim = Simulation(single_link(pps=1000.0, delay=0.05), [FlowSpec(ctrl)],
                         duration=10.0, seed=9)
        record = sim.run_all()[0]
        # Throughput ~ cwnd / base RTT.
        assert record.mean_throughput_pps == pytest.approx(2 / 0.1, rel=0.15)


class TestMultiFlow:
    def test_fair_share_identical_rate_flows(self):
        """Two identical paced flows split a bottleneck roughly evenly."""
        c1, c2 = ExternalRateController(100.0), ExternalRateController(100.0)
        sim = Simulation(single_link(pps=100.0, queue=30),
                         [FlowSpec(c1), FlowSpec(c2)], duration=40.0, seed=10)
        r1, r2 = sim.run_all()
        total = r1.mean_throughput_pps + r2.mean_throughput_pps
        assert total == pytest.approx(100.0, rel=0.1)
        # FIFO drop-tail with pacing jitter: roughly (not exactly) even.
        ratio = r1.mean_throughput_pps / r2.mean_throughput_pps
        assert 0.6 < ratio < 1.7

    def test_staggered_start_stop(self):
        c1, c2 = ExternalRateController(80.0), ExternalRateController(80.0)
        sim = Simulation(single_link(),
                         [FlowSpec(c1), FlowSpec(c2, start_time=5.0, stop_time=8.0)],
                         duration=10.0, seed=11)
        r1, r2 = sim.run_all()
        assert r2.records[0].start >= 5.0
        # MIs close on schedule until the stop; the final MI extends to
        # the last straggling ack (queue drain), never past the run.
        assert all(s.end <= 8.0 + 0.5 for s in r2.records[:-1])
        assert r2.records[-1].end <= 10.0
        assert r1.records[-1].end > 9.0

    def test_flow_ids_distinct(self):
        sim = Simulation(single_link(), [FlowSpec(ExternalRateController(10.0)),
                                         FlowSpec(ExternalRateController(10.0))],
                         duration=2.0, seed=12)
        records = sim.run_all()
        assert [r.flow_id for r in records] == [0, 1]


class TestEngineMechanics:
    def test_incremental_run_matches_full_run(self):
        def build():
            return Simulation(single_link(seed=13),
                              [FlowSpec(ExternalRateController(90.0))],
                              duration=5.0, seed=13)

        full = build()
        full.run_all()
        stepped = build()
        for t in np.arange(0.25, 5.01, 0.25):
            stepped.run(until=float(t))
        stepped._finalize()
        assert stepped.flows[0].total_acked == full.flows[0].total_acked
        assert stepped.flows[0].total_sent == full.flows[0].total_sent

    def test_same_seed_deterministic(self):
        def run_once():
            sim = Simulation(single_link(loss=0.05, seed=14),
                             [FlowSpec(ExternalRateController(90.0))],
                             duration=5.0, seed=14)
            record = sim.run_all()[0]
            return (record.mean_throughput_pps, record.loss_rate)

        assert run_once() == run_once()

    def test_rate_clamped_to_min(self):
        """A near-zero rate must not stall or divide by zero."""
        sim = Simulation(single_link(), [FlowSpec(ExternalRateController(1e-9))],
                         duration=3.0, seed=15)
        record = sim.run_all()[0]
        assert record is not None  # completed without error

    def test_needs_a_link(self):
        with pytest.raises(ValueError):
            Simulation([], [FlowSpec(ExternalRateController(1.0))], duration=1.0)

    def test_multi_link_path_base_rtt(self):
        links = [single_link(delay=0.01, seed=16), single_link(delay=0.02, seed=17)]
        sim = Simulation(links, [FlowSpec(ExternalRateController(50.0))],
                         duration=2.0, seed=16)
        assert sim.base_rtt == pytest.approx(0.06)
        record = sim.run_all()[0]
        assert record.mean_rtt >= 0.06

    def test_inflight_cap_respected(self):
        class CappedRate(ExternalRateController):
            def inflight_cap(self, now):
                return 3.0

        sim = Simulation(single_link(pps=100.0, delay=0.1, queue=1000),
                         [FlowSpec(CappedRate(1000.0))], duration=5.0, seed=18)
        for t in np.arange(0.2, 5.0, 0.2):
            sim.run(until=float(t))
            assert sim.flows[0].inflight <= 3


def tiny_sim():
    return Simulation(single_link(delay=0.01),
                      [FlowSpec(ExternalRateController(50.0))],
                      duration=1.0, seed=1)


class TestEventCounter:
    def test_counts_every_dispatched_event(self):
        sim = tiny_sim()
        assert sim.events_processed == 0
        sim.run_all()
        # ~50 pps for 1 s: sends + rcvs + acks + MIs -- hundreds of
        # heap events, and deterministic across identical sims.
        assert sim.events_processed > 100
        twin = tiny_sim()
        twin.run_all()
        assert twin.events_processed == sim.events_processed

    def test_incremental_runs_accumulate(self):
        stepped, whole = tiny_sim(), tiny_sim()
        for t in (0.25, 0.5, 0.75, 1.0):
            stepped.run(until=t)
        whole.run()
        assert stepped.events_processed == whole.events_processed
