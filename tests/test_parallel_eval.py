"""Tests for the parallel scenario runner and its on-disk result cache."""

import numpy as np
import pytest

from repro.eval.metrics import jain_index_series
from repro.eval.parallel import (
    ParallelRunner,
    ResultCache,
    ResultTable,
    ScenarioError,
)
from repro.eval.resilience import seal, unseal
from repro.eval.scenarios import ChurnSchedule, FlowDef, Scenario, ScenarioSuite
from repro.eval.runner import EvalNetwork
from repro.netsim.topology import dumbbell_asymmetric, parking_lot
from repro.netsim.traces import ConstantTrace, register_trace

NET = EvalNetwork(bandwidth_mbps=8.0, one_way_ms=10.0, buffer_bdp=1.0)

#: 24 scenarios of heuristic schemes -- small enough for CI, large
#: enough to exercise sharding.
SUITE = ScenarioSuite(name="unit", lineups=("cubic", "vegas", "bbr"),
                      bandwidths_mbps=(6.0, 12.0), losses=(0.0, 0.01),
                      seeds=(0, 1), duration=1.5)


def _flat(outcome):
    return [(r.scenario.name, rec.mean_throughput_pps, rec.mean_rtt,
             rec.loss_rate)
            for r in outcome for rec in r.records]


class TestParallelRunner:
    def test_parallel_matches_serial(self, tmp_path):
        serial = ParallelRunner(n_workers=1, use_cache=False)
        parallel = ParallelRunner(n_workers=2, use_cache=False)
        assert _flat(serial.run(SUITE)) == _flat(parallel.run(SUITE))

    def test_cache_round_trip_and_speedup(self, tmp_path):
        runner = ParallelRunner(n_workers=2, cache_dir=tmp_path)
        first = runner.run(SUITE)
        assert first.cache_hits == 0 and first.cache_misses == len(first) == 24
        second = runner.run(SUITE)
        assert second.cache_hits == 24 and second.cache_misses == 0
        # The acceptance bar is >= 2x; in practice cache reads are
        # orders of magnitude faster than simulating.
        assert second.elapsed < first.elapsed / 2
        assert _flat(first) == _flat(second)

    def test_cached_records_preserve_monitor_intervals(self, tmp_path):
        scenario = Scenario(name="mi", network=NET, duration=4.0, seed=2,
                            flows=(FlowDef("cubic"), FlowDef("vegas", start=1.0)))
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        fresh = runner.run([scenario]).results[0].records
        cached = runner.run([scenario]).results[0].records
        assert len(cached[0].records) == len(fresh[0].records) > 0
        s_fresh, s_cached = fresh[0].records[3], cached[0].records[3]
        assert s_fresh == s_cached
        np.testing.assert_allclose(jain_index_series(cached),
                                   jain_index_series(fresh))

    def test_single_scenario_and_list_inputs(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        scenario = SUITE.expand()[0]
        assert len(runner.run(scenario)) == 1
        assert len(runner.run([scenario, scenario])) == 2

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        scenario = Scenario(name="c", network=NET, flows=("cubic",), duration=1.0)
        runner.run([scenario])
        path = runner.cache._path(scenario.fingerprint())
        path.write_text("{not json")
        outcome = runner.run([scenario])
        assert outcome.cache_misses == 1  # silently recomputed

    def test_version_mismatch_is_a_miss(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        scenario = Scenario(name="v", network=NET, flows=("cubic",), duration=1.0)
        runner.run([scenario])
        path = runner.cache._path(scenario.fingerprint())
        fields, records = unseal(path.read_bytes())
        path.write_bytes(seal({**fields, "version": "stale"}, records))
        assert runner.run([scenario]).cache_misses == 1

    def test_records_for(self, tmp_path):
        runner = ParallelRunner(n_workers=1, use_cache=False)
        outcome = runner.run(ScenarioSuite(name="rf", lineups=("cubic",),
                                           duration=1.0))
        assert outcome.records_for("rf/cubic")[0].scheme
        with pytest.raises(KeyError):
            outcome.records_for("nope")

    def test_cache_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        runner.run(ScenarioSuite(name="cc", lineups=("cubic", "vegas"),
                                 duration=1.0))
        assert cache.clear() == 2
        assert cache.clear() == 0


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


class TestSweepFingerprinting:
    def test_named_trace_built_once_per_name_per_run(self, tmp_path):
        """A noise-free count of the parent's fingerprinting work: one
        factory call per distinct trace name per ``run()``, whatever
        the cell count.  Cells build in the forked workers, whose calls
        land in their own copy of the counter."""
        calls = []

        def counted(name, pps):
            def factory():
                calls.append(name)
                return ConstantTrace(pps)
            return factory

        register_trace("count-a", counted("count-a", 500.0), overwrite=True)
        register_trace("count-b", counted("count-b", 700.0), overwrite=True)
        suite = ScenarioSuite(name="count", lineups=("cubic",),
                              traces=("count-a", "count-b"),
                              seeds=tuple(range(32)), duration=0.2)
        assert len(suite) == 64
        once_each = ["count-a", "count-b"]

        cached = ParallelRunner(n_workers=2, cache_dir=tmp_path / "cache")
        cold = cached.run(suite)
        assert cold.cache_misses == 64 and sorted(calls) == once_each
        calls.clear()
        warm = cached.run(suite)
        assert warm.cache_hits == 64 and sorted(calls) == once_each
        calls.clear()
        journaled = ParallelRunner(n_workers=2, use_cache=False,
                                   checkpoint=tmp_path / "sweep.jsonl")
        assert _flat(journaled.run(suite)) == _flat(cold)
        assert sorted(calls) == once_each


class TestCacheEviction:
    def _fill(self, cache, n):
        scenarios = ScenarioSuite(
            name="ev", lineups=("cubic",), duration=0.5,
            seeds=tuple(range(n))).expand()
        for i, s in enumerate(scenarios):
            cache.put(s.fingerprint(), s.name, [])
        return [s.fingerprint() for s in scenarios]

    def test_put_evicts_oldest_beyond_cap(self, tmp_path):
        import os
        cache = ResultCache(tmp_path, max_bytes=10**9)
        prints = self._fill(cache, 6)
        # Age the entries oldest-first, then shrink the cap to ~3 files.
        for i, fp in enumerate(prints):
            os.utime(cache._path(fp), (1000.0 + i, 1000.0 + i))
        size = cache._path(prints[0]).stat().st_size
        cache.max_bytes = 3 * size + size // 2
        cache.put("f" * 64, "extra", [])
        survivors = {p.stem for p in tmp_path.glob("*.json")}
        # The oldest-touched entries were evicted first.
        assert prints[0] not in survivors and prints[1] not in survivors
        assert ("f" * 64) in survivors

    def test_get_touches_mtime_lru(self, tmp_path):
        import os
        cache = ResultCache(tmp_path, max_bytes=10**9)
        prints = self._fill(cache, 4)
        for i, fp in enumerate(prints):
            os.utime(cache._path(fp), (1000.0 + i, 1000.0 + i))
        assert cache.get(prints[0]) is not None  # hit rejuvenates entry 0
        size = cache._path(prints[0]).stat().st_size
        removed = cache.prune(max_bytes=2 * size + size // 2)
        assert removed == 2
        survivors = {p.stem for p in tmp_path.glob("*.json")}
        assert prints[0] in survivors  # kept: recently used
        assert prints[1] not in survivors and prints[2] not in survivors

    def test_prune_noop_under_cap_and_unbounded(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10**9)
        self._fill(cache, 3)
        assert cache.prune() == 0
        cache.max_bytes = 0  # unbounded: eviction disabled
        assert cache.prune() == 0
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_runner_passes_cap_through(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path,
                                cache_max_bytes=123456)
        assert runner.cache.max_bytes == 123456


#: A parking-lot grid with churning cross traffic -- the
#: multi-bottleneck acceptance shape: >= 2 bottlenecks, staggered and
#: on-off arrival/departure schedules, all driven through suite axes.
MULTIHOP_SUITE = ScenarioSuite(
    name="mh",
    lineups={"bbr-through": (FlowDef("bbr", path="through"),
                             FlowDef("cubic", path="cross0", label="c0"),
                             FlowDef("cubic", path="cross1", label="c1"))},
    topologies=(parking_lot(2, bandwidth_mbps=10.0, delay_ms=8.0),),
    churns=(None, ChurnSchedule("staggered", gap=2.0, skip=1),
            ChurnSchedule("on-off", gap=2.0, on_time=3.0, skip=1)),
    seeds=(0, 1), duration=6.0)


class TestMultihopChurn:
    def test_parallel_matches_serial_bit_identical(self):
        serial = ParallelRunner(n_workers=1, use_cache=False)
        parallel = ParallelRunner(n_workers=2, use_cache=False)
        assert _flat(serial.run(MULTIHOP_SUITE)) == _flat(parallel.run(MULTIHOP_SUITE))

    def test_cache_round_trip(self, tmp_path):
        runner = ParallelRunner(n_workers=2, cache_dir=tmp_path)
        first = runner.run(MULTIHOP_SUITE)
        assert first.cache_misses == len(MULTIHOP_SUITE) == 6
        second = runner.run(MULTIHOP_SUITE)
        assert second.cache_hits == 6
        assert _flat(first) == _flat(second)

    def test_rows_expose_topology_path_and_churn(self):
        scenarios = [s for s in MULTIHOP_SUITE.expand() if s.seed == 0][:2]
        outcome = ParallelRunner(n_workers=1, use_cache=False).run(scenarios)
        rows = outcome.table.rows
        assert {r["topology"] for r in rows} == {"parking-lot2"}
        assert {r["path"] for r in rows} == {"through", "cross0", "cross1"}
        assert {r["churn"] for r in rows} == {None, "staggered-g2-s1"}

    def test_rows_report_path_axes_not_superseded_network(self):
        """Topology rows carry what the flow's path saw: the default
        path resolved by name, path bottleneck/RTT, no scalar buffer --
        not the inert single-link network axes."""
        scenario = Scenario(
            name="rp", network=EvalNetwork(bandwidth_mbps=99.0, one_way_ms=1.0),
            topology=parking_lot(2, bandwidth_mbps=(10.0, 16.0), delay_ms=8.0,
                                 loss_rate=(0.1, 0.0)),
            flows=(FlowDef("cubic"),                      # default path
                   FlowDef("cubic", path="cross1")),
            duration=1.0)
        rows = ParallelRunner(n_workers=1, use_cache=False).run(
            [scenario]).table.rows
        through, cross = rows
        assert through["path"] == "through"  # default path resolved
        assert through["bandwidth_mbps"] == 10.0 and cross["bandwidth_mbps"] == 16.0
        assert through["rtt_ms"] == pytest.approx(32.0)
        assert cross["rtt_ms"] == pytest.approx(16.0)
        assert through["loss"] == pytest.approx(0.1) and cross["loss"] == 0.0
        assert through["buffer"] is None
        assert not any(r["bandwidth_mbps"] == 99.0 for r in rows)

    def test_churn_windows_respected_in_records(self):
        outcome = ParallelRunner(n_workers=1, use_cache=False).run(
            MULTIHOP_SUITE)
        # The on-off cell: cross1 is only active in [2, 5).
        result = next(r for r in outcome
                      if r.scenario.churn is not None
                      and r.scenario.churn.kind == "on-off"
                      and r.scenario.seed == 0)
        cross1 = result.records[2]
        assert cross1.records[0].start >= 2.0
        assert all(s.end <= 6.0 for s in cross1.records)


#: The reverse-path acceptance grid: an asymmetric dumbbell where the
#: download's acks share the skinny uplink with CUBIC uploads that
#: restart periodically -- wired cells paired with their
#: pure-propagation twins, across two seeds.
REVERSE_SUITE = ScenarioSuite(
    name="rev",
    lineups={"dl+ul": (FlowDef("bbr", path="through", label="dl"),
                       FlowDef("cubic", path="reverse", label="ul"))},
    topologies=(dumbbell_asymmetric(12.0, delay_ms=8.0),),
    reverse_paths=(None, {"through": None, "reverse": None}),
    churns=(None, ChurnSchedule("on-off", gap=1.0, on_time=2.5, period=4.0,
                                skip=1)),
    seeds=(0, 1), duration=6.0)


class TestReversePathDeterminism:
    def test_parallel_matches_serial_bit_identical(self):
        serial = ParallelRunner(n_workers=1, use_cache=False)
        parallel = ParallelRunner(n_workers=2, use_cache=False)
        assert _flat(serial.run(REVERSE_SUITE)) == _flat(parallel.run(REVERSE_SUITE))

    def test_cache_round_trip(self, tmp_path):
        runner = ParallelRunner(n_workers=2, cache_dir=tmp_path)
        first = runner.run(REVERSE_SUITE)
        assert first.cache_misses == len(REVERSE_SUITE) == 8
        second = runner.run(REVERSE_SUITE)
        assert second.cache_hits == 8
        assert _flat(first) == _flat(second)

    def test_wired_cells_cost_rtt_twins_do_not(self):
        outcome = ParallelRunner(n_workers=2, use_cache=False).run(
            REVERSE_SUITE)
        wired, twin = [], []
        for result in outcome:
            dl_rtt = result.records[0].mean_rtt
            is_twin = "prop" in (result.scenario.name.split("rev=")[1]
                                 .split("/")[0])
            (twin if is_twin else wired).append(dl_rtt)
        assert min(wired) > max(twin)


def _failing_suite():
    return ScenarioSuite(name="bad", lineups=("cubic", "no-such-scheme",
                                              "vegas"), duration=1.0)


class TestFailureHandling:
    def test_serial_failure_names_the_scenario(self):
        runner = ParallelRunner(n_workers=1, use_cache=False)
        with pytest.raises(ScenarioError, match="bad/no-such-scheme"):
            runner.run(_failing_suite())

    def test_parallel_failure_names_the_scenario(self):
        runner = ParallelRunner(n_workers=2, use_cache=False)
        with pytest.raises(ScenarioError, match="no-such-scheme"):
            runner.run(_failing_suite())

    def test_non_abort_run_completes_and_caches_good_cells(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        with pytest.raises(ScenarioError):
            runner.run(_failing_suite())
        # Both healthy cells were executed and cached despite the
        # failure in the middle of the suite.
        good = [s for s in _failing_suite().expand()
                if s.lineup != "no-such-scheme"]
        assert all(runner.cache.get(s.fingerprint()) is not None
                   for s in good)

    def test_early_abort_serial_stops_at_first_failure(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path,
                                early_abort=True)
        with pytest.raises(ScenarioError, match="no-such-scheme"):
            runner.run(_failing_suite())
        # The cell *after* the failure never ran.
        vegas = next(s for s in _failing_suite().expand()
                     if s.lineup == "vegas")
        assert runner.cache.get(vegas.fingerprint()) is None

    def test_early_abort_parallel_raises(self):
        runner = ParallelRunner(n_workers=2, use_cache=False,
                                early_abort=True)
        with pytest.raises(ScenarioError):
            runner.run(_failing_suite())

    def test_cached_cells_unaffected_by_failures(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        good = ScenarioSuite(name="bad", lineups=("cubic", "vegas"),
                             duration=1.0)
        runner.run(good)
        with pytest.raises(ScenarioError):
            runner.run(_failing_suite())
        outcome = runner.run(good)
        assert outcome.cache_hits == 2


class TestSweepCompat:
    def test_sweep_schemes_accepts_duplicate_schemes(self):
        from repro.eval.sweeps import sweep_schemes
        result = sweep_schemes(("cubic", "cubic"), "bandwidth", (6.0,),
                               duration=1.0, seed=0)
        assert result.utilization.shape == (2, 1)
        # Same scheme, same seed: both line-ups simulate identically.
        np.testing.assert_allclose(result.utilization[0], result.utilization[1])


class TestResultTable:
    def _table(self):
        runner = ParallelRunner(n_workers=1, use_cache=False)
        return runner.run(ScenarioSuite(
            name="t", lineups=("cubic", "vegas"),
            bandwidths_mbps=(6.0, 12.0), duration=1.5)).table

    def test_rows_and_filter(self):
        table = self._table()
        assert len(table) == 4
        cubic = table.filter(scheme="cubic")
        assert len(cubic) == 2
        assert all(r["label"] == "cubic" for r in cubic)
        assert len(table.filter(scheme="cubic", bandwidth_mbps=6.0)) == 1

    def test_values_and_mean(self):
        table = self._table()
        assert table.values("utilization").shape == (4,)
        assert 0.0 <= table.mean("utilization", scheme="cubic") <= 1.0

    def test_pivot(self):
        rows, cols, matrix = self._table().pivot(
            "label", "bandwidth_mbps", "throughput_pps")
        assert rows == ["cubic", "vegas"] and cols == [6.0, 12.0]
        assert matrix.shape == (2, 2) and np.all(np.isfinite(matrix))

    def test_format_is_printable(self):
        text = self._table().format()
        assert "scenario" in text and "cubic" in text
