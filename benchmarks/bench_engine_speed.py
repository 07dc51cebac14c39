"""Engine speed: events/sec + cells/sec across the standard perf shapes.

The repo's first perf-trajectory artifact (PR 5).  The discrete-event
hot path was rebuilt -- integer event dispatch through a handler table,
allocation-free tuple transits, streamed monitor-interval statistics,
block-drawn RNG, monotonic-deque filters in BBR/Copa -- under a
bit-identity guarantee (tests/test_golden_traces.py), and this
benchmark is what keeps the speed from silently rotting:

* measures every :data:`~repro.eval.perf.PERF_SHAPES` shape (warm,
  best-of-N) plus the full serial pipeline;
* measures the batched multi-cell dispatch shape (PR 8): a 16-cell
  short-duration grid through :class:`~repro.eval.parallel.ParallelRunner`
  under batch-per-worker vs cell-per-task dispatch, reporting cells/sec
  for both and the speedup (the checked-in baseline records >=1.5x);
* writes ``BENCH_engine.json`` (in ``BENCH_OUTPUT_DIR``, default the
  working directory) with raw events/sec, cells/sec, and
  machine-normalized events-per-calibration-op;
* compares the normalized numbers against the checked-in baseline
  ``benchmarks/BENCH_engine_baseline.json`` and fails on a >30%
  regression (``REPRO_PERF_SMOKE_SKIP=1`` skips the gate on known-noisy
  hosts; ``REPRO_PERF_TOLERANCE`` overrides the tolerance;
  ``REPRO_PERF_REPEATS`` overrides the best-of repeat count).

The baseline also carries the measured *pre-optimization* numbers
(``pre_pr``) so the speedup this PR bought stays on the record:
>=2x events/sec on the parking-lot (shared-hop) grid, ~2.3-2.7x on the
single-bottleneck and ack-congestion shapes.

Run as a script with ``--profile`` to skip the gates and instead write
per-shape cProfile summaries (top-20 by cumulative time) to
``BENCH_OUTPUT_DIR`` -- the starting point for any hot-path work.
"""

import os
from pathlib import Path

from repro.eval.perf import (
    check_regression,
    engine_speed_report,
    load_report,
    write_report,
)

BASELINE_PATH = Path(__file__).parent / "BENCH_engine_baseline.json"


def perf_repeats(default: int = 3) -> int:
    """Best-of repeat count: ``REPRO_PERF_REPEATS`` wins, then the
    older ``ENGINE_BENCH_REPEATS``, then ``default``."""
    raw = os.environ.get("REPRO_PERF_REPEATS",
                         os.environ.get("ENGINE_BENCH_REPEATS", ""))
    return int(raw) if raw else default


def bench_engine_speed(benchmark):
    """Measure the engine, write BENCH_engine.json, gate vs baseline."""
    from conftest import print_table, run_once

    duration = float(os.environ.get("ENGINE_BENCH_DURATION", "10.0"))
    repeats = perf_repeats()

    report = run_once(benchmark, lambda: engine_speed_report(
        duration=duration, repeats=repeats, pipeline=True, batched=True))

    rows = [[s["shape"], s["events"], s["events_per_sec"],
             s["cells_per_sec"], s["events_per_calibration_op"]]
            for s in report["shapes"]]
    print_table("Engine speed (events/sec; normalized = per calibration op)",
                ["shape", "events", "events/s", "cells/s", "normalized"],
                rows)
    print(f"pipeline: {report['pipeline_cells']} cells in "
          f"{report['pipeline_wall_s']}s -> "
          f"{report['pipeline_cells_per_sec']} cells/s, "
          f"{report['pipeline_events_per_sec']} events/s")
    b = report["batched"]
    print(f"batched dispatch: {b['cells']} cells x {b['duration']}s, "
          f"{b['n_workers']} workers: batch-per-worker "
          f"{b['batched_cells_per_sec']} cells/s vs cell-per-task "
          f"{b['per_cell_cells_per_sec']} cells/s -> {b['speedup']}x")

    for s in report["shapes"]:
        assert s["events"] > 0 and s["events_per_sec"] > 0, s
    assert report["pipeline_cells_per_sec"] > 0
    assert b["batched_cells_per_sec"] > 0 and b["per_cell_cells_per_sec"] > 0
    # The batching win itself (>= 1.5x measured at baseline time) is
    # gated against BENCH_engine_baseline.json by check_regression
    # below, tolerance-buffered like every other perf number.

    failures = []
    if BASELINE_PATH.exists():
        baseline = load_report(BASELINE_PATH)
        tolerance = float(os.environ.get("REPRO_PERF_TOLERANCE", "0.30"))
        failures = check_regression(report, baseline, tolerance=tolerance)
        report["baseline_check"] = {
            "baseline": str(BASELINE_PATH), "tolerance": tolerance,
            "failures": failures,
            "skipped": os.environ.get("REPRO_PERF_SMOKE_SKIP") == "1"}
        if "pre_pr" in baseline:
            report["pre_pr"] = baseline["pre_pr"]

    out = Path(os.environ.get("BENCH_OUTPUT_DIR", ".")) / "BENCH_engine.json"
    write_report(report, out)
    print(f"\nwrote {out}")

    if failures:
        if os.environ.get("REPRO_PERF_SMOKE_SKIP") == "1":
            print("PERF REGRESSION (gate skipped via REPRO_PERF_SMOKE_SKIP):")
            for f in failures:
                print(" ", f)
        else:
            raise AssertionError(
                "engine speed gate failed (checked-in baseline; "
                "set REPRO_PERF_SMOKE_SKIP=1 on known-noisy hosts):\n  "
                + "\n  ".join(failures))


def profile_shapes(duration: float = 5.0, out_dir=".", shapes=None) -> list:
    """cProfile every shape; write top-20 cumulative summaries.

    One ``BENCH_profile_<shape>.txt`` per shape, sorted by cumulative
    time -- what "where does the event loop spend its time" questions
    start from.  Construction happens outside the
    profiled window, like :func:`~repro.eval.perf.measure_shape`.
    """
    import cProfile
    import pstats

    from repro.eval.perf import PERF_SHAPES, perf_scenarios
    from repro.eval.scenarios import build_scenario_simulation

    out_dir = Path(out_dir)
    paths = []
    for shape in shapes or PERF_SHAPES:
        sims = [build_scenario_simulation(s)
                for s in perf_scenarios(shape, duration=duration)]
        prof = cProfile.Profile()
        prof.enable()
        for sim in sims:
            sim.run_all()
        prof.disable()
        path = out_dir / f"BENCH_profile_{shape}.txt"
        with path.open("w") as fh:
            fh.write(f"# shape={shape} duration={duration}s: top-20 by "
                     f"cumulative time\n")
            pstats.Stats(prof, stream=fh) \
                .sort_stats("cumulative").print_stats(20)
        paths.append(path)
        print(f"wrote {path}")
    return paths


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Engine-speed utilities (the benchmark itself runs "
                    "under pytest; see the module docstring).")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile every perf shape; write top-20 "
                             "cumulative summaries to BENCH_OUTPUT_DIR")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="simulated seconds per profiled cell")
    cli = parser.parse_args()
    if cli.profile:
        profile_shapes(duration=cli.duration,
                       out_dir=os.environ.get("BENCH_OUTPUT_DIR", "."))
    else:
        parser.error("nothing to do: pass --profile")
