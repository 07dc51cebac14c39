"""The repo's benchmark: one entry point, two ways to call it.

Driver form -- one workload, one run, one JSON result on the last line::

    python3 benchmarks/ledger/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

Ledger form -- every workload, each run in a fresh process of the
driver form, with medians, quartiles and round counts printed per
metric and the set written to ``BENCH_ledger.json``::

    python3 benchmarks/ledger/run.py [--seed N] [--seconds S] [--runs K]
                                     [--trace] [--selfcheck] [--repin]

See README.md beside this file for the catalogue and how to read it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(HERE))

from ledgerlib import calib  # noqa: E402
from ledgerlib.catalog import (  # noqa: E402
    END_TO_END,
    EXACT,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
)

LEDGER_PATH = HERE / "BENCH_ledger.json"
DETAIL_PREFIX = "LEDGER-DETAIL "
#: A child run gets this long before the ledger gives up on it.
CHILD_TIMEOUT_S = 180


def import_program() -> None:
    """Everything a run imports, so set-up time can include it."""
    if not SRC.is_dir():
        raise ImportError(f"no program to benchmark: {SRC} is missing")
    # One process, one thread: numpy's BLAS otherwise starts a thread
    # per core and the PPO update's speed follows both cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import ledgerlib.harness  # noqa: F401  (pulls in numpy and repro)


def single_run(args) -> int:
    """Driver form: one workload, one run."""
    try:
        import_timed = calib.bracketed(calib.clocked(import_program))
    except ImportError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    from ledgerlib.harness import run_single
    result, detail = run_single(args.workload, args.seed, args.seconds,
                                bool(args.trace), import_timed)
    for problem in detail["problems"]:
        print(f"PROBLEM {problem}")
    for name, entry in result["metrics"].items():
        print(f"{args.workload:18s} {name:42s} "
              f"{entry['value']:14.6g} {entry['unit']}")
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(result))
    return 0  # failed ops are in the result; the ledger form exits on them


def child_run(workload: str, seed: int, seconds: float, trace: bool):
    """One driver-form run in a fresh process; ``(result, detail)``."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    detail = json.loads(lines[-2][len(DETAIL_PREFIX):])
    return json.loads(lines[-1]), detail


def run_set(args, label: str) -> dict:
    """Every workload: ``--runs`` untraced runs at consecutive seeds,
    plus one traced run when asked."""
    out = {}
    for workload in WORKLOADS:
        runs = [child_run(workload.name, args.seed + i, args.seconds, False)
                for i in range(args.runs)]
        entry = {"op": workload.op, "end_to_end": {}, "runs": []}
        for result, detail in runs:
            entry["runs"].append({
                "seed": detail["seed"], "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "rounds": detail["rounds"],
                "values": {k: v["value"]
                           for k, v in result["metrics"].items()},
                "problems": detail["problems"]})
        for metric in END_TO_END:
            summary = calib.summarize(
                r["metrics"][metric.name]["value"] for r, _ in runs)
            entry["end_to_end"][metric.name] = dict(
                summary.as_dict(), unit=metric.unit)
            rounds = entry["runs"][0]["rounds"]
            note = (f"rounds/run {rounds['n']}, in-run quartiles "
                    f"{rounds['q1']:.5g}..{rounds['q3']:.5g}"
                    if metric.name == "ops_per_mcalop" else "")
            print(f"[{label}] {workload.name:17s} {metric.name:15s} "
                  f"median {summary.median:11.5g} {metric.unit:9s} "
                  f"q1 {summary.q1:11.5g} q3 {summary.q3:11.5g} "
                  f"runs {summary.n}  {note}")
        attempted = sum(r["attempted"] for r in entry["runs"])
        entry["failed_share"] = (sum(r["failed"] for r in entry["runs"])
                                 / attempted)
        print(f"[{label}] {workload.name:17s} {'failed_share':15s} "
              f"       {entry['failed_share']:11.5g} of {attempted} "
              f"ops ({workload.op})")
        for run in entry["runs"]:
            for problem in run["problems"]:
                print(f"[{label}] PROBLEM {problem}")
        if args.trace:
            result, detail = child_run(workload.name, args.seed,
                                       args.seconds, True)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in result["metrics"].items()}
            entry["traced_correct"] = result["correct"]
            for problem in detail["problems"]:
                print(f"[{label}] PROBLEM {problem}")
            for metric in PER_LAYER:
                value = entry["per_layer"][metric.name]
                if value:
                    print(f"[{label}] {workload.name:17s} "
                          f"{metric.name:42s} {value:14.6g} {metric.unit}")
        out[workload.name] = entry
    return out


def set_failures(current: dict) -> list[str]:
    failures = []
    for name, entry in current.items():
        if entry["failed_share"] > 0:
            failures.append(f"{name}: failed_share "
                            f"{entry['failed_share']:.4f} > 0")
        if not entry.get("traced_correct", True):
            failures.append(f"{name}: traced run reported failures")
    return failures


def compare_sets(first: dict, second: dict) -> list[str]:
    """What ``--selfcheck`` refuses: an end-to-end metric of the second
    set worse than the first by more than its bound, a spread wider
    than the bound (judged from four runs up, as the driver does from
    ten), or an *exact* count that differs."""
    failures = []
    for name in first:
        for metric in END_TO_END:
            a = first[name]["end_to_end"][metric.name]
            b = second[name]["end_to_end"][metric.name]
            change = (b["median"] - a["median"]) / a["median"]
            worse = -change if metric.better == "higher" else change
            if worse > metric.bound:
                failures.append(
                    f"{name} {metric.name}: second set {worse:+.1%} worse "
                    f"than first (bound {metric.bound:.0%})")
            for label, row in (("first", a), ("second", b)):
                spread = (row["q3"] - row["q1"]) / row["median"]
                if (row["n"] >= 4 and metric.name != "setup_s"
                        and spread > metric.bound):
                    failures.append(
                        f"{name} {metric.name}: {label} set spread "
                        f"{spread:.1%} exceeds bound {metric.bound:.0%}")
        for metric_name in sorted(EXACT):
            a = first[name].get("per_layer", {}).get(metric_name)
            b = second[name].get("per_layer", {}).get(metric_name)
            if a != b:
                failures.append(f"{name} {metric_name}: exact count "
                                f"{a} != {b} between sets")
    return failures


def repin() -> int:
    """Rewrite expected.json for the pinned seeds (its own PR)."""
    import_program()
    from ledgerlib import verify
    from ledgerlib.jobs import JOBS
    sets: dict = {}
    # One job per cell set, the one that computes it most plainly.
    for workload in ("engine-heuristic", "mocc-cold", "grid-serial",
                     "train-offline"):
        for seed in verify.PINNED_SEEDS:
            with verify.run_tmpdir() as tmp, \
                    closing(JOBS[workload](seed, tmp)) as job:
                job.setup()
                for piece in job.pieces:
                    piece()
            sets.setdefault(job.cell_set, {})[str(seed)] = [
                list(output) for output in job.reference_list()]
            print(f"pinned {job.cell_set} seed {seed}: "
                  f"{len(job.reference)} outputs")
    verify.Expected().write(sets)
    return 0


def ledger(args) -> int:
    t0 = time.perf_counter()
    if args.selfcheck:
        args.trace = 1
    if args.runs is None:
        # One run says how fast; agreeing medians need a few.
        args.runs = 3 if args.selfcheck else 1
    sets = [run_set(args, "set 1")]
    failures = set_failures(sets[0])
    if args.selfcheck:
        sets.append(run_set(args, "set 2"))
        failures += set_failures(sets[1]) + compare_sets(*sets)
    payload = {"benchmark": "ledger", "seed": args.seed,
               "seconds": args.seconds, "runs_per_workload": args.runs,
               "selfcheck": bool(args.selfcheck),
               "wall_s": time.perf_counter() - t0,
               "failures": failures, "sets": sets}
    LEDGER_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {LEDGER_PATH.name} after {payload['wall_s']:.0f} s")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run this one workload once (driver form)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (0 default, 1 pinned hold-out)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics and trace.json")
    parser.add_argument("--runs", type=int,
                        help="ledger form: untraced runs per workload, at "
                             "seeds seed..seed+runs-1 (default 1; 3 under "
                             "--selfcheck)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets back to back; fail unless they agree")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite expected.json for seeds 0 and 1")
    args = parser.parse_args(argv)
    if args.repin:
        return repin()
    if args.workload:
        return single_run(args)
    return ledger(args)


if __name__ == "__main__":
    sys.exit(main())
