#!/usr/bin/env python3
"""Append one row to BENCH_trajectory.json from two files of ledger runs.

    python scripts/append_trajectory.py --pr 17 --workload engine-heuristic \\
        --metric ops_per_mcalop PARENT_FILE CHANGE_FILE

Each file holds one result line per run -- the last line
``benchmarks/ledger/run.py --workload W`` prints -- parent and change
in the same pair order, at least two pairs; a file holding a run that
is not ``correct`` or has ``failed`` ops is refused, naming its line.
The row keeps medians, quartiles
(``statistics.quantiles``) and how many pairs the change won; a tie
counts for neither side.  ``commit`` is HEAD: the parent the pairs were
measured against, since the PR's own commit does not exist yet.
``claimed`` is written ``false``; a PR whose ISSUE claims the gain
flips it by hand.
"""

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.json"


def read_runs(path, metric) -> tuple[list[float], str]:
    """``(values, unit)`` of ``metric`` over a file of result lines;
    ``SystemExit`` naming the first run that was not correct or had
    failed ops (its number could record a win for broken code), and
    for fewer than two runs (no quartiles)."""
    runs = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        result = json.loads(line)
        if result["correct"] is not True or result["failed"] > 0:
            raise SystemExit(
                f"{path}:{number}: correct={json.dumps(result['correct'])}, "
                f"failed={result['failed']}: a broken run is not a pair")
        runs.append(result["metrics"][metric])
    if len(runs) < 2:
        raise SystemExit(f"{path}: {len(runs)} run(s); quartiles need at "
                         f"least two pairs")
    return [run["value"] for run in runs], runs[0]["unit"]


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def make_row(pr, commit, workload, metric, parent_file, change_file) -> dict:
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in catalogue["end_to_end"]}[metric]
    parent, unit = read_runs(parent_file, metric)
    change, _ = read_runs(change_file, metric)
    if len(parent) != len(change):
        raise SystemExit(f"{len(parent)} parent runs but {len(change)} "
                         f"change runs: the files must pair up")
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {"pr": pr, "commit": commit, "workload": workload,
            "metric": metric, "unit": unit, "parent": summary(parent),
            "change": summary(change), "pairs": len(parent),
            "pairs_won": won, "claimed": False}


def dump_rows(rows) -> str:
    """One row per line, so an appended row is a one-line diff."""
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True)
    parser.add_argument("parent_file")
    parser.add_argument("change_file")
    args = parser.parse_args()
    head = subprocess.check_output(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True).strip()
    row = make_row(args.pr, head, args.workload, args.metric,
                   args.parent_file, args.change_file)
    TRAJECTORY.write_text(
        dump_rows(json.loads(TRAJECTORY.read_text()) + [row]))
    print(json.dumps(row))
