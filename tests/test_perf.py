"""Tests for the engine-speed measurement subsystem (repro.eval.perf)."""

import numpy as np
import pytest

from repro.eval.parallel import ParallelRunner
from repro.eval.perf import (
    PERF_SHAPES,
    calibration_score,
    check_regression,
    engine_speed_report,
    measure_shape,
    perf_scenarios,
)
from repro.eval.scenarios import ScenarioSuite, build_scenario_simulation
from repro.netsim.link import Link
from repro.netsim.network import FlowSpec, Simulation
from repro.netsim.sender import ExternalRateController
from repro.netsim.traces import ConstantTrace


def tiny_sim(duration=1.0):
    link = Link(ConstantTrace(100.0), delay=0.01, queue_size=50,
                rng=np.random.default_rng(0))
    return Simulation(link, [FlowSpec(ExternalRateController(50.0))],
                      duration=duration, seed=1)


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


class TestPerfShapes:
    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="perf shape"):
            perf_scenarios("moebius-strip")

    def test_shapes_build_and_run(self):
        for shape in PERF_SHAPES:
            scenarios = perf_scenarios(shape, duration=0.5,
                                       schemes=("cubic",))
            sims = [build_scenario_simulation(s) for s in scenarios]
            for sim in sims:
                sim.run_all()
                assert sim.events_processed > 0

    def test_measure_shape_sample(self):
        sample = measure_shape("single-bottleneck", duration=0.5,
                               schemes=("cubic", "bbr"))
        assert sample.cells == 1
        assert sample.events > 0
        assert sample.wall_s > 0
        assert sample.events_per_sec == pytest.approx(
            sample.events / sample.wall_s)

    def test_repeats_keep_event_count(self):
        one = measure_shape("single-bottleneck", duration=0.5,
                            schemes=("cubic",), repeats=1)
        best = measure_shape("single-bottleneck", duration=0.5,
                             schemes=("cubic",), repeats=2)
        assert one.events == best.events  # deterministic simulations


class TestReportAndRegression:
    def test_report_structure(self):
        report = engine_speed_report(shapes=("single-bottleneck",),
                                     duration=0.5, schemes=("cubic",),
                                     pipeline=True)
        assert report["calibration_ops_per_sec"] > 0
        (entry,) = report["shapes"]
        assert entry["shape"] == "single-bottleneck"
        assert entry["events_per_sec"] > 0
        assert entry["events_per_calibration_op"] > 0
        assert report["pipeline_cells"] == 1
        assert report["pipeline_events_per_sec"] > 0

    def test_check_regression(self):
        base = {"shapes": [
            {"shape": "parking-lot", "events_per_calibration_op": 0.40},
            {"shape": "only-in-baseline", "events_per_calibration_op": 1.0}]}
        ok = {"shapes": [{"shape": "parking-lot",
                          "events_per_calibration_op": 0.35}]}
        bad = {"shapes": [{"shape": "parking-lot",
                           "events_per_calibration_op": 0.20}]}
        assert check_regression(ok, base) == []
        failures = check_regression(bad, base)
        assert len(failures) == 1 and "parking-lot" in failures[0]
        # 30% tolerance exactly at the floor passes.
        edge = {"shapes": [{"shape": "parking-lot",
                            "events_per_calibration_op": 0.28}]}
        assert check_regression(edge, base) == []

    def test_calibration_score_positive(self):
        assert calibration_score(iters=20_000) > 0


class TestSuiteEventsPerSec:
    def test_runner_surfaces_engine_speed(self, tmp_path):
        suite = ScenarioSuite(name="eps", lineups=("cubic",), duration=1.0)
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        first = runner.run(suite)
        assert first.total_events > 0
        assert first.events_per_sec > 0
        # A cache-served re-run simulated nothing.
        second = runner.run(suite)
        assert second.total_events == 0
        assert second.events_per_sec is None
