"""One benchmark run: set up, measure (or trace), check, report."""

from __future__ import annotations

import os
import resource
import time
from contextlib import closing
from pathlib import Path

from ledgerlib import calib, verify
from ledgerlib.catalog import END_TO_END, PER_LAYER
from ledgerlib.jobs import JOBS
from ledgerlib.spans import Tracer

__all__ = ["SETUP_REPEATS", "TRACE_PATH", "run_single"]

#: Set-ups per run; ``setup_s`` is their median (plus the imports,
#: which a process pays once).
SETUP_REPEATS = 3
TRACE_PATH = verify.LEDGER_DIR / "trace.json"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest child
    (``ru_maxrss`` is kilobytes on Linux)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def set_up(job) -> calib.Timed:
    """One set-up: load the inputs, then one warm-up round bracketed
    piece by piece like the measured ones (a set-up timed as a single
    region of a second or two is normalised too coarsely to repeat)."""
    load = calib.bracketed(calib.clocked(job.setup))
    warm = calib.bracketed(*job.pieces, sample=job.sample)
    return calib.Timed([], load.wall_s + warm.wall_s,
                       load.calops + warm.calops)


def check_pinned(job, expected: verify.Expected) -> None:
    """Compare the job's reference outputs with ``expected.json``
    (seeds 0 and 1 only; other seeds rest on within-run identity)."""
    pinned = expected.lookup(job.cell_set, job.seed)
    if pinned is None:
        return
    bad = 0
    reference = job.reference_list()
    for got, want in zip(reference, pinned):
        # Cache-served outputs carry no event count to compare.
        same = got[0] == want[0] and got[1] in (None, want[1])
        bad += not same
    bad += abs(len(reference) - len(pinned))
    if bad:
        job.failed += bad
        note = expected.version_note()
        job.problem(f"{bad} outputs differ from expected.json for seed "
                    f"{job.seed}" + (f" -- {note}" if note else ""))


def run_single(workload: str, seed: int, seconds: float, trace: bool,
               import_timed) -> tuple[dict, dict]:
    """Run one workload once.

    ``import_timed`` is the bracketed timing of the process's imports.
    Returns ``(result, detail)``: the one-line result the driver reads
    and the fuller record the ledger keeps.
    """
    t_start = time.perf_counter()
    dropped = verify.scrub_environment()
    caches_before = verify.package_cache_state()
    expected = verify.Expected()
    with verify.run_tmpdir() as tmp, \
            closing(JOBS[workload](seed, tmp)) as job:
        setups = [set_up(job) for _ in range(SETUP_REPEATS)]
        check_pinned(job, expected)
        setup_calops = (import_timed.calops
                        + calib.summarize(s.calops for s in setups).median)
        setup_raw_s = (import_timed.wall_s
                       + calib.summarize(s.wall_s for s in setups).median)

        detail = {"workload": workload, "seed": seed, "trace": bool(trace),
                  "n_workers": job.n_workers, "nproc": os.cpu_count(),
                  "seconds": seconds, "env_dropped": dropped,
                  "versions": verify.runtime_versions()}
        if trace:
            tracer = Tracer()
            layer = {m.name: 0.0 for m in PER_LAYER}
            job.traced(tracer, layer)
            cal = [s.cal_rate for s in setups]
            tracer.write(TRACE_PATH, {"workload": workload, "seed": seed})
            detail["spans"] = len(tracer.spans)
        else:
            regions = calib.measure(job.pieces, seconds,
                                    sample=job.sample)
            in_run = calib.summarize(calib.round_rates(regions))
            cal = [r.cal_rate for piece in regions for r in piece]
            detail["rounds"] = dict(in_run.as_dict(), pieces=len(regions))

    if verify.package_cache_state() != caches_before:
        job.failed += 1
        job.problem("the run wrote into an in-package _cache directory")

    cal_summary = calib.summarize(cal)
    if trace:
        layer["bench.calibration_ops_per_s"] = cal_summary.median
        layer["bench.calibration_spread"] = cal_summary.spread
        layer["bench.setup_raw_s"] = setup_raw_s
        layer["bench.wall_s"] = time.perf_counter() - t_start
        values = layer
        catalogue = PER_LAYER
    else:
        values = {"ops_per_mcalop": calib.rate_per_mcalop(regions),
                  "peak_rss_mb": peak_rss_mb(),
                  "setup_s": setup_calops / calib.NOMINAL_CALOPS_PER_S}
        catalogue = END_TO_END
        detail["calibration_ops_per_s"] = cal_summary.as_dict()
        detail["setup_raw_s"] = setup_raw_s
    detail["problems"] = job.problems
    result = {
        "correct": job.failed == 0,
        "attempted": int(job.attempted),
        "failed": int(job.failed),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in catalogue},
    }
    return result, detail
