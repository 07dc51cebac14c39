"""Tests for the parallel scenario runner and its on-disk result cache."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

import repro.eval.resilience as resilience
from repro.eval.metrics import jain_index_series
from repro.eval.parallel import ParallelRunner, ScenarioError, SuiteResult
from repro.eval.resilience import ResultCache, seal, unseal
from repro.eval.scenarios import ChurnSchedule, FlowDef, Scenario, ScenarioSuite
from repro.eval.runner import EvalNetwork
from repro.eval.sweeps import ack_congestion_suite, sweep_suite
from repro.netsim.topology import dumbbell_asymmetric, parking_lot
from repro.netsim.traces import ConstantTrace

from test_scenarios import reregister_trace

NET = EvalNetwork(bandwidth_mbps=8.0, one_way_ms=10.0, buffer_bdp=1.0)

#: 24 scenarios of heuristic schemes -- small enough for CI, large
#: enough to exercise sharding.
SUITE = ScenarioSuite(name="unit", lineups=("cubic", "vegas", "bbr"),
                      bandwidths_mbps=(6.0, 12.0), losses=(0.0, 0.01),
                      seeds=(0, 1), duration=1.5)


def cache_hits(outcome) -> int:
    """Cells of a suite result served from the cache."""
    return sum(r.cached for r in outcome.results)


def cache_misses(outcome) -> int:
    """Cells of a suite result simulated afresh."""
    return sum(not r.cached for r in outcome.results)


def _flat(outcome):
    return [(r.scenario.name, rec.mean_throughput_pps, rec.mean_rtt,
             rec.loss_rate)
            for r in outcome for rec in r.records]


class TestParallelRunner:
    def test_parallel_matches_serial(self, tmp_path):
        serial = ParallelRunner(n_workers=1, use_cache=False)
        parallel = ParallelRunner(n_workers=2, use_cache=False)
        assert _flat(serial.run(SUITE)) == _flat(parallel.run(SUITE))

    def test_default_workers_follow_the_cpu_affinity(self, monkeypatch):
        # Pinned to one core (``taskset -c 0``) a default runner runs in
        # process instead of forking two workers onto that core.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert ParallelRunner(use_cache=False).n_workers == 1
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(12)))
        assert ParallelRunner(use_cache=False).n_workers == 8

    def test_cache_round_trip_and_speedup(self, tmp_path):
        runner = ParallelRunner(n_workers=2, cache_dir=tmp_path)
        first = runner.run(SUITE)
        assert cache_hits(first) == 0 and cache_misses(first) == len(first) == 24
        second = runner.run(SUITE)
        assert cache_hits(second) == 24 and cache_misses(second) == 0
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
        path = Path(runner.cache._path(scenario.fingerprint()))
        path.write_text("{not json")
        outcome = runner.run([scenario])
        assert cache_misses(outcome) == 1  # silently recomputed

    def test_version_mismatch_is_a_miss(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        scenario = Scenario(name="v", network=NET, flows=("cubic",), duration=1.0)
        runner.run([scenario])
        path = Path(runner.cache._path(scenario.fingerprint()))
        fields, records = unseal(path.read_bytes())
        path.write_bytes(seal({**fields, "version": "stale"}, records))
        assert cache_misses(runner.run([scenario])) == 1

    def test_cache_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        runner.run(ScenarioSuite(name="cc", lineups=("cubic", "vegas"),
                                 duration=1.0))
        assert cache.clear() == 2
        assert cache.clear() == 0


class TestSuiteTotalEvents:
    def test_runner_surfaces_engine_events(self, tmp_path):
        suite = ScenarioSuite(name="eps", lineups=("cubic",), duration=1.0)
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        first = runner.run(suite)
        assert first.total_events == first.results[0].events > 0
        # A cache-served re-run simulated nothing.
        second = runner.run(suite)
        assert second.total_events == 0


class TestSweepFingerprinting:
    def test_named_trace_built_once_per_name_per_run(self, tmp_path):
        """A noise-free count of the parent's fingerprinting work: one
        factory call per distinct trace name per ``run()``, whatever
        the cell count.  Cells build in the pool workers, forked again
        once the registry changed, whose calls land in their own copy
        of the counter."""
        calls = []

        def counted(name, pps):
            def factory():
                calls.append(name)
                return ConstantTrace(pps)
            return factory

        reregister_trace("count-a", counted("count-a", 500.0))
        reregister_trace("count-b", counted("count-b", 700.0))
        suite = ScenarioSuite(name="count", lineups=("cubic",),
                              traces=("count-a", "count-b"),
                              seeds=tuple(range(32)), duration=0.2)
        assert len(suite) == 64
        once_each = ["count-a", "count-b"]

        cached = ParallelRunner(n_workers=2, cache_dir=tmp_path / "cache")
        cold = cached.run(suite)
        assert cache_misses(cold) == 64 and sorted(calls) == once_each
        calls.clear()
        warm = cached.run(suite)
        assert cache_hits(warm) == 64 and sorted(calls) == once_each
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

    def test_put_evicts_oldest_beyond_cap(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        prints = self._fill(cache, 6)
        # Age the entries oldest-first, then shrink the cap to ~3 files.
        for i, fp in enumerate(prints):
            os.utime(cache._path(fp), (1000.0 + i, 1000.0 + i))
        size = os.stat(cache._path(prints[0])).st_size
        monkeypatch.setattr(resilience, "_CACHE_MAX_BYTES",
                            3 * size + size // 2)
        cache.put("f" * 64, "extra", [])
        survivors = {p.stem for p in tmp_path.glob("*.json")}
        # The oldest-touched entries were evicted first.
        assert prints[0] not in survivors and prints[1] not in survivors
        assert ("f" * 64) in survivors

    def test_get_touches_mtime_lru(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        prints = self._fill(cache, 4)
        for i, fp in enumerate(prints):
            os.utime(cache._path(fp), (1000.0 + i, 1000.0 + i))
        assert cache.get(prints[0]) is not None  # hit rejuvenates entry 0
        size = os.stat(cache._path(prints[0])).st_size
        monkeypatch.setattr(resilience, "_CACHE_MAX_BYTES",
                            2 * size + size // 2)
        removed = cache.prune()
        assert removed == 2
        survivors = {p.stem for p in tmp_path.glob("*.json")}
        assert prints[0] in survivors  # kept: recently used
        assert prints[1] not in survivors and prints[2] not in survivors

    def test_prune_noop_under_cap(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 3)
        assert cache.prune() == 0
        assert len(list(tmp_path.glob("*.json"))) == 3


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
        assert cache_misses(first) == len(MULTIHOP_SUITE) == 6
        second = runner.run(MULTIHOP_SUITE)
        assert cache_hits(second) == 6
        assert _flat(first) == _flat(second)

    def test_rows_expose_topology_path_and_churn(self):
        scenarios = [s for s in MULTIHOP_SUITE.expand() if s.seed == 0][:2]
        outcome = ParallelRunner(n_workers=1, use_cache=False).run(scenarios)
        rows = outcome.table
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
            [scenario]).table
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
_WIRED = dumbbell_asymmetric(12.0, delay_ms=8.0)
REVERSE_SUITE = ScenarioSuite(
    name="rev",
    lineups={"dl+ul": (FlowDef("bbr", path="through", label="dl"),
                       FlowDef("cubic", path="reverse", label="ul"))},
    topologies=(_WIRED, _WIRED.with_reverse_paths(
        {"through": None, "reverse": None}, name="twin")),
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
        assert cache_misses(first) == len(REVERSE_SUITE) == 8
        second = runner.run(REVERSE_SUITE)
        assert cache_hits(second) == 8
        assert _flat(first) == _flat(second)

    def test_wired_cells_cost_rtt_twins_do_not(self):
        outcome = ParallelRunner(n_workers=2, use_cache=False).run(
            REVERSE_SUITE)
        wired, twin = [], []
        for result in outcome:
            dl_rtt = result.records[0].mean_rtt
            is_twin = result.scenario.topology.path("through") \
                .reverse_links is None
            (twin if is_twin else wired).append(dl_rtt)
        assert min(wired) > max(twin)

    def test_ack_congestion_suite_wires_the_ack_path(self):
        """The bench_ack_congestion grid's builder: a download whose
        acks queue behind an upload pays RTT its twin does not."""
        suite = ack_congestion_suite(("cubic",), reverse_loads=(1,),
                                     duration=3.0)
        wired, twin = ParallelRunner(n_workers=1, use_cache=False).run(suite)
        assert wired.scenario.topology.path("through").reverse_links
        assert twin.scenario.topology.path("through").reverse_links is None
        assert "topo=dumbbell-asym-twin" in twin.scenario.name
        assert wired.records[0].mean_rtt > 1.1 * twin.records[0].mean_rtt


def _failing_suite(*more_lineups):
    return ScenarioSuite(name="bad", lineups=("cubic", "no-such-scheme",
                                              "vegas", *more_lineups),
                         duration=1.0)


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

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_poisoned_grid_runs_every_healthy_cell(self, n_workers,
                                                   tmp_path):
        suite = _failing_suite("no-such-scheme-either")
        runner = ParallelRunner(n_workers=n_workers, cache_dir=tmp_path)
        with pytest.raises(ScenarioError) as err:
            runner.run(suite)
        cells = suite.expand()
        healthy = [s for s in cells if not s.lineup.startswith("no-such")]
        assert len(healthy) == 2
        assert all(runner.cache.get(s.fingerprint()) is not None
                   for s in healthy)
        # The first failed cell in sweep order, and a count of the rest.
        assert err.value.scenario_name == "bad/no-such-scheme"
        assert "(+1 more failed cells)" in str(err.value)
        # The whole sweep: error rows for exactly the failed cells,
        # records for the rest.
        outcome = err.value.outcome
        assert [r.scenario.name for r in outcome] == [s.name for s in cells]
        assert [r.error is not None for r in outcome] == [
            False, True, False, True]
        for result in outcome:
            assert (result.records == []) == (result.error is not None)
        failed = [row for row in outcome.table if row["error"] is not None]
        assert len(failed) == 2 and all(
            row["throughput_mbps"] is None and row["utilization"] is None
            for row in failed)
        good = [row for row in outcome.table if row["error"] is None]
        assert len(good) == 2
        # Aggregates skip the failed cells' None metrics; a group with
        # nothing but failures is nan, not a TypeError.
        assert outcome.mean("utilization") == pytest.approx(
            (good[0]["utilization"] + good[1]["utilization"]) / 2)
        assert math.isnan(outcome.mean("utilization", lineup="no-such-scheme"))
        lineups, _, matrix = outcome.pivot("lineup", "suite", "utilization")
        assert lineups == ["cubic", "no-such-scheme", "vegas",
                           "no-such-scheme-either"]
        assert [math.isnan(v) for v in matrix[:, 0]] == [
            False, True, False, True]
        assert matrix[0, 0] == good[0]["utilization"]

    def test_cached_cells_unaffected_by_failures(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        good = ScenarioSuite(name="bad", lineups=("cubic", "vegas"),
                             duration=1.0)
        runner.run(good)
        with pytest.raises(ScenarioError):
            runner.run(_failing_suite())
        outcome = runner.run(good)
        assert cache_hits(outcome) == 2


class TestSweepCompat:
    def test_sweep_suite_accepts_duplicate_schemes(self):
        suite = sweep_suite(("cubic", "cubic"), "bandwidth", (6.0, 9.0),
                            duration=1.0, seed=0)
        outcome = ParallelRunner(n_workers=1, use_cache=False).run(suite)
        lineups, values, matrix = outcome.pivot("lineup", "bandwidth_mbps",
                                                "utilization")
        assert lineups == ["cubic", "cubic#1"] and values == [6.0, 9.0]
        # Same scheme, same seed: both line-ups simulate identically.
        np.testing.assert_array_equal(matrix[0], matrix[1])


def table_outcome():
    runner = ParallelRunner(n_workers=1, use_cache=False)
    return runner.run(ScenarioSuite(
        name="t", lineups=("cubic", "vegas"),
        bandwidths_mbps=(6.0, 12.0), duration=1.5))


def a_misspelled_key_raises(suite_result_cls) -> None:
    """A ``suite_result_cls`` holding a small run's results names a
    misspelled key instead of averaging to nan."""
    outcome = suite_result_cls(results=table_outcome().results)
    with pytest.raises(KeyError, match="lineupp"):
        outcome.mean("utilization", lineupp="cubic")
    with pytest.raises(KeyError, match="utilisation"):
        outcome.mean("utilisation")
    with pytest.raises(KeyError, match="lineupp"):
        outcome.pivot("lineupp", "bandwidth_mbps", "utilization")
    # A real column that no row matches is still nan.
    assert math.isnan(outcome.mean("utilization", lineup="bbr"))


class TestSuiteTable:
    def test_rows(self):
        table = table_outcome().table
        assert isinstance(table, list) and len(table) == 4
        assert [r["label"] for r in table] == ["cubic", "cubic",
                                               "vegas", "vegas"]

    def test_mean(self):
        outcome = table_outcome()
        cubic = [r["utilization"] for r in outcome.table
                 if r["scheme"] == "cubic" and r["bandwidth_mbps"] == 6.0]
        assert outcome.mean("utilization", scheme="cubic",
                            bandwidth_mbps=6.0) == cubic[0]
        assert 0.0 <= outcome.mean("utilization", scheme="cubic") <= 1.0

    def test_pivot(self):
        rows, cols, matrix = table_outcome().pivot(
            "label", "bandwidth_mbps", "throughput_pps")
        assert rows == ["cubic", "vegas"] and cols == [6.0, 12.0]
        assert matrix.shape == (2, 2) and np.all(np.isfinite(matrix))

    def test_a_misspelled_key_raises_instead_of_nan(self):
        a_misspelled_key_raises(SuiteResult)
