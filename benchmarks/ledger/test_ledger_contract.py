"""Contract tests of the ledger benchmark (tier-1; no workload runs).

They pin what later PRs must not move silently: the catalogue that
``BENCHMARK.json`` and the code share, the calibration yardstick, the
statistics every metric goes through, span self-time arithmetic, the
digest of a fixed record, and the "measured from outside" rule.
"""

from __future__ import annotations

import ast
import json
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from ledgerlib import calib  # noqa: E402
from ledgerlib.catalog import (  # noqa: E402
    END_TO_END,
    EXACT,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
)
from ledgerlib.spans import Span, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SOURCES = sorted(p for p in HERE.rglob("*.py") if p.name != Path(__file__).name)


class TestCatalogue:
    def test_names_units_and_counts(self):
        assert 2 <= len(WORKLOADS) <= 8
        assert 1 <= len(END_TO_END) <= 16
        assert 1 <= len(PER_LAYER) <= 128
        names = [x.name for x in WORKLOADS + END_TO_END + PER_LAYER]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name
        for metric in END_TO_END + PER_LAYER:
            assert UNIT.fullmatch(metric.unit), metric
            assert metric.better in ("higher", "lower"), metric
        for workload in WORKLOADS:
            assert "\n" not in workload.why and len(workload.why) <= 200

    def test_bounds(self):
        for metric in END_TO_END:
            assert 0 < metric.bound <= 0.25, metric
        assert all(m.bound is None for m in PER_LAYER)
        setup = {m.name: m for m in END_TO_END}["setup_s"]
        assert (setup.unit, setup.better) == ("s", "lower")
        assert setup.bound == max(m.bound for m in END_TO_END)

    def test_exact_counts_are_catalogued(self):
        assert EXACT <= {m.name for m in PER_LAYER}

    def test_benchmark_json_states_the_same_catalogue(self):
        assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"}
        assert BENCHMARK["paths"] == ["benchmarks/ledger"]
        assert BENCHMARK["command"] == ["python3", "benchmarks/ledger/run.py"]
        assert BENCHMARK["run_seconds"] == RUN_SECONDS
        assert BENCHMARK["workloads"] == [
            {"name": w.name, "why": w.why} for w in WORKLOADS]
        assert BENCHMARK["end_to_end"] == [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END]
        assert BENCHMARK["per_layer"] == [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER]

    def test_driver_budget(self):
        """4 + 22 x workloads runs must fit the driver's 3420 s with
        set-up: leave every run twice its measuring window."""
        runs = 4 + 22 * len(WORKLOADS)
        assert runs * 2 * RUN_SECONDS <= 3420


class TestCalibration:
    def test_yardstick_is_frozen(self):
        """Editing the loop rescales every number in BENCH_ledger.json."""
        assert calib.calibration_checksum() == 1499.5006661245748
        assert calib.CAL_OPS == 80_000

    def test_bracketing_normaliser(self):
        # 2 s at a mean of 1.5e6 calops/s is 3e6 calops.
        region = calib.Region(work=600.0, wall_s=2.0, cal_before=1.0e6,
                              cal_after=2.0e6)
        assert region.cal_rate == 1.5e6
        assert region.calops == 3.0e6
        assert calib.round_rates([[region]]) == [200.0]

    def test_rate_takes_each_piece_at_its_median(self):
        def piece(work, calops):
            return [calib.Region(work, c / 1e6, 1e6, 1e6) for c in calops]
        # One round of piece b caught a slow host (9e6): the median
        # ignores it, the per-round rates show it.
        regions = [piece(10.0, [1e6, 1e6, 1e6]), piece(30.0, [3e6, 9e6, 3e6])]
        assert calib.rate_per_mcalop(regions) == pytest.approx(10.0)
        assert calib.round_rates(regions) == pytest.approx([10.0, 4.0, 10.0])

    def test_quartiles_are_the_drivers(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
        summary = calib.summarize(values)
        q1, q2, q3 = statistics.quantiles(values, n=4)
        assert (summary.q1, summary.median, summary.q3) == (q1, q2, q3)
        assert summary.n == 7
        assert summary.spread == pytest.approx((q3 - q1) / q2)
        assert calib.quartiles([4.0]) == (4.0, 4.0, 4.0)

    def test_measure_brackets_every_piece(self):
        calls = []

        def piece(tag):
            def run():
                calls.append(tag)
                return 1.0, 0.001
            return run
        regions = calib.measure([piece("a"), piece("b")], seconds=0.0,
                                min_rounds=2)
        assert calls == ["a", "b", "a", "b"]
        assert [len(r) for r in regions] == [2, 2]
        # Neighbouring pieces share the sample between them.
        assert regions[0][0].cal_after == regions[1][0].cal_before
        assert regions[1][0].cal_after == regions[0][1].cal_before


    def test_parallel_yardstick_answers_and_stops_its_workers(self):
        yardstick = calib.ParallelYardstick(2, ops=2000)
        procs = list(yardstick._workers)
        try:
            samples = []
            rate = yardstick.sample()
            # bracketed() takes its samples from the yardstick it is given.
            timed = calib.bracketed(
                lambda: (None, 2.0),
                sample=lambda: samples.append(yardstick.sample()) or 1.0e6)
        finally:
            yardstick.close()
        assert rate > 0 and len(samples) == 2
        assert timed.calops == 2.0e6
        # close() has waited for every worker: each has an exit code.
        assert len(procs) == 2
        assert [proc.returncode for proc in procs] == [0, 0]


class TestSpans:
    def test_self_time_is_duration_minus_children(self):
        spans = [
            Span(0, "sweep", 0, None, 0.0, 10.0),
            Span(1, "cell", 1, 0, 1.0, 5.0),
            Span(2, "build", 1, 1, 1.0, 2.0),
            Span(3, "run", 1, 1, 2.0, 4.5),
            Span(4, "cell", 2, 0, 5.0, 9.0),
            Span(5, "run", 2, 4, 6.0, 9.0),
        ]
        totals = self_times(spans)
        assert totals == pytest.approx(
            {"sweep": 2.0, "cell": 0.5 + 1.0, "build": 1.0, "run": 2.5 + 3.0})
        assert sum(totals.values()) == pytest.approx(spans[0].duration)


class TestDigest:
    def test_fixed_record_digest_is_stable(self):
        from ledgerlib.verify import cell_digest
        from repro.netsim.network import FlowRecord
        from repro.netsim.sender import MonitorIntervalStats
        stats = MonitorIntervalStats(
            flow_id=0, start=0.0, end=0.05, sent=10, acked=9, lost=1,
            mean_rtt=0.0425, min_rtt=0.04, latency_gradient=0.125,
            capacity_pps=1000.0, base_rtt=0.04, packet_bytes=1500,
            rate_pps=200.0)
        record = FlowRecord(
            flow_id=0, scheme="cubic", mean_throughput_pps=180.0,
            mean_throughput_mbps=2.16, mean_utilization=0.18,
            mean_rtt=0.0425, base_rtt=0.04, loss_rate=0.1, records=[stats])
        assert cell_digest([record]) == "3b057df6420d93e8"
        assert cell_digest([record, record]) != cell_digest([record])


class TestMeasuredFromOutside:
    """The ledger must survive the engine collapse: no ``_private``
    name of ``repro``, no ``engine=``/``transit=`` argument."""

    @pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
    def test_no_private_imports_or_engine_arguments(self, path):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").startswith("repro"):
                private = [part for part in node.module.split(".")
                           if part.startswith("_")]
                private += [a.name for a in node.names
                            if a.name.startswith("_")]
                assert not private, f"{path.name}:{node.lineno} {private}"
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        assert "._" not in alias.name, alias.name
            if isinstance(node, ast.Call):
                passed = {k.arg for k in node.keywords}
                assert not passed & {"engine", "transit"}, (
                    f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                # Private attribute access is fine on the benchmark's
                # own objects (self/cls/super()), never on the program's.
                owner = node.value
                if isinstance(owner, ast.Call):
                    owner = owner.func
                assert node.attr.startswith("__") or (
                    isinstance(owner, ast.Name)
                    and owner.id in ("self", "cls", "super")), (
                    f"{path.name}:{node.lineno} .{node.attr}")
