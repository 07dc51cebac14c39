"""Rebuild ``SCORE.json``: one whole tier-1 run per mutant, planted on disk.

    PYTHONPATH=src:tests python -m mutants.score [--jobs N] [MUTANT ...]

Each job copies the repository (sources, tests, benchmarks; no caches)
into a temporary directory.  Per mutant it writes the module with the
mutant planted, runs tier-1 on the copy -- without
``tests/test_mutants.py``, which would only report that the anchor is
gone -- and puts the pristine module back.  Every test that fails or
errors is a killer; its class is that of the first pattern in
:data:`CLASSES` it matches, else ``example``.  The mutant's class is
its strongest killer's (``digest`` < ``example`` < ``law``).  Mutants
not named on the command line keep their recorded killers; every class
is derived again.

A mutant may hang a test (a drain that never advances keeps a batch
stepping forever), so this module is also the runs' pytest plugin: a
test still running after :data:`TEST_LIMIT_S` fails with
``TimeoutError`` and the run goes on.
"""

import argparse
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from mutants import (
    ENTROPY_LAW,
    ENV_PARITY,
    EVERY_KIND,
    FLAT_ADAM,
    MUTANTS,
    RANK,
    SAMPLING_LAW,
    SLICING,
    mutated,
)

ROOT = Path(__file__).resolve().parents[2]
SCORE = Path(__file__).with_name("SCORE.json")
#: ``(pattern, class)``, first match wins; anything else is an example.
CLASSES = (
    # Stored digests, and runs compared with the unmutated code's.
    ("tests/test_golden_traces.py::*", "digest"),
    ("tests/test_training_goldens.py::*", "digest"),
    (EVERY_KIND, "digest"),
    (ENV_PARITY, "digest"),
    ("tests/test_collectors.py::test_rollouts_keep_their_digest*", "digest"),
    # Laws, oracles, properties and metamorphic relations.
    ("tests/test_conservation.py::*", "law"),
    ("tests/test_metamorphic.py::*", "law"),
    ("tests/test_mi_oracle.py::*", "law"),
    ("tests/test_sweep_kills.py::*", "law"),
    (SLICING, "law"),
    (SAMPLING_LAW, "law"),
    (FLAT_ADAM, "law"),
    (ENTROPY_LAW, "law"),
    ("tests/test_policy.py::TestInferencePlan::test_every_method_equals_"
     "forward_bit_for_bit[[]*", "law"),
)
IGNORE = shutil.ignore_patterns(".git", "_cache", "__pycache__", ".hypothesis",
                                ".pytest_cache", ".benchmarks", ".run")
#: Seconds one test may run under a mutant; the slowest tier-1 test
#: takes ~6 s.
TEST_LIMIT_S = 30


def classify(test: str) -> str:
    return next((cls for pattern, cls in CLASSES
                 if fnmatchcase(test, pattern)), "example")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {TEST_LIMIT_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)


def killers(copy: Path, mutant_id: str) -> list[str]:
    """Every test tier-1 fails or errors on ``copy`` with the mutant
    planted."""
    module = importlib.import_module(MUTANTS[mutant_id].module)
    path = copy / Path(module.__file__).relative_to(ROOT)
    pristine = path.read_text()
    path.write_text(mutated(mutant_id))
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "mutants.score", "--tb=no", "-rfE",
             "--ignore=tests/test_mutants.py"],
            cwd=copy, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(copy / "src"), str(copy / "tests")])})
    finally:
        path.write_text(pristine)
    return sorted({line.split(" ", 2)[1] for line in done.stdout.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))})


def run_jobs(ids: list[str], jobs: int) -> dict:
    def job(share: list[str]) -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "repo"
            shutil.copytree(ROOT, copy, ignore=IGNORE)
            found = {}
            for mutant_id in share:
                found[mutant_id] = killers(copy, mutant_id)
                print(f"{mutant_id}: {len(found[mutant_id])} killers",
                      flush=True)
            return found

    # Import every mutant's module before the threads do: two threads
    # importing one package at once can see it half initialised.
    for mutant_id in ids:
        importlib.import_module(MUTANTS[mutant_id].module)
    with ThreadPoolExecutor(jobs) as pool:
        shares = pool.map(job, [ids[i::jobs] for i in range(jobs)])
    return {k: v for share in shares for k, v in share.items()}


def score(found: dict) -> dict:
    """``SCORE.json``'s content from each mutant's killing tests."""
    mutants = {}
    for mutant_id in filter(found.__contains__, MUTANTS):
        killed_by = {test: classify(test) for test in found[mutant_id]}
        mutants[mutant_id] = {
            "class": max(killed_by.values(), key=RANK.index, default=None),
            "killed_by": killed_by}
    counts = {cls: sum(m["class"] == cls for m in mutants.values())
              for cls in RANK}
    return {"classes": counts, "mutants": mutants}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="mutants to re-run "
                        "(default: all)")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    found = {}
    if SCORE.exists():
        found = {k: list(v["killed_by"]) for k, v in
                 json.loads(SCORE.read_text())["mutants"].items()}
    found.update(run_jobs(args.ids or list(MUTANTS), args.jobs))
    SCORE.write_text(json.dumps(score(found), indent=1) + "\n")


if __name__ == "__main__":
    main()
