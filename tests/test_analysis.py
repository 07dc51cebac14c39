"""replint: the package is clean, and every check fires on its planted
fixture.

* the tier-1 gate -- the seven checks of :mod:`repro.analysis` find
  nothing in the ``repro`` package, in process and through the exact
  command the ledger's ``analysis`` probe runs;
* planted fixtures -- each ``tests/fixtures/replint/bad_*.py``, parsed
  (never imported) as a module of ``netsim/``, fires exactly its named
  check at the marked lines;
* scopes, the allow-list, and README's check count.
"""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import analysis
from repro.analysis import ALLOWED, CHECKS, analyze, check_source

FIXTURES = Path(__file__).parent / "fixtures" / "replint"
REPO = Path(__file__).parent.parent
BY_ID = {check.__name__.replace("_", "-"): check for check in CHECKS}

#: ``(check id, fixture, the lines it must flag, what its messages name)``.
PLANTED = [
    ("global-random", "bad_global_random.py", [8, 9, 10],
     ("random.seed", "np.random.rand")),
    ("wall-clock", "bad_wall_clock.py", [7, 8],  # not perf_counter
     ("time.time()", "datetime.now()")),
    ("unsorted-walk", "bad_unsorted_walk.py", [7, 9],  # not the sorted() walk
     ("os.listdir()", "<expr>.glob()")),
    ("set-iteration", "bad_set_iteration.py", [6, 8],  # not sorted(refs)
     ("hash order",)),
    ("rng-sole-constructor", "bad_sole_constructor.py", [9, 12, 16],
     ("np.random.default_rng(...)", "RandomState(...)")),
    ("rng-foreign-draw", "bad_foreign_draw.py", [10, 14, 19],
     ("self.link.rng.uniform", "link.rng.random",
      "link.fault._loss_rng.random")),  # any *rng name
    ("mutable-global-state", "bad_mutable_global.py", [9, 13],  # not the shadow
     ("'_CACHE'", "'_SEEN'")),
]
IDS = [row[0] for row in PLANTED]


def module_is_clean(path: str, source: str) -> None:
    """The zero-findings gate on one module: ``source`` standing at
    ``path`` inside the package."""
    relpath = Path(path).resolve().relative_to(analysis.ROOT).as_posix()
    findings = check_source(source, relpath)
    assert findings == [], "\n".join(map(str, findings))


def test_the_package_has_no_findings():
    findings, _ = analyze()
    assert findings == [], "\n".join(map(str, findings))


def ledger_command(src: Path) -> subprocess.CompletedProcess:
    """``python -m repro.analysis --format json`` over the package
    under ``src``, as the ledger's ``analysis`` probe runs it."""
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--format", "json"],
        capture_output=True, text=True, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(src)})


class TestLedgerCommand:
    def test_the_tree_exits_zero_and_counts_every_module(self):
        proc = ledger_command(REPO / "src")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        modules = list((REPO / "src" / "repro").rglob("*.py"))
        assert json.loads(proc.stdout)["summary"] == {"total": 0,
                                                      "files": len(modules)}

    def test_a_planted_finding_exits_one(self, tmp_path):
        shutil.copytree(REPO / "src" / "repro", tmp_path / "repro",
                        ignore=shutil.ignore_patterns("_cache", "__pycache__"))
        (tmp_path / "repro" / "netsim" / "planted.py").write_text(
            "import time\nSTAMP = time.time()\n")
        proc = ledger_command(tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["summary"]["total"] == 1
        assert [(f["path"], f["line"], f["rule"]) for f in payload["findings"]] \
            == [("netsim/planted.py", 2, "wall-clock")]


def test_scan_imports_neither_numpy_nor_the_analyzed_code():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from repro.analysis import analyze\n"
         "assert analyze()[0] == []\n"
         "print(sorted(m for m in ('numpy', 'repro.netsim')"
         " if m in sys.modules))\n"],
        capture_output=True, text=True, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_syntax_error_becomes_parse_error_finding():
    assert [(f.rule, f.line) for f in check_source("x = 1\ndef f(:\n",
                                                   "netsim/broken.py")] \
        == [("parse-error", 2)]


@pytest.mark.parametrize("check, fixture, lines, names", PLANTED, ids=IDS)
def test_planted_fixture_fires_only_its_check(check, fixture, lines, names):
    findings = check_source((FIXTURES / fixture).read_text(),
                            f"netsim/{fixture}")
    assert sorted((f.rule, f.line) for f in findings) \
        == [(check, n) for n in lines]
    messages = " | ".join(f.message for f in findings)
    assert [name for name in names if name not in messages] == []


def test_every_check_has_a_planted_fixture():
    assert sorted(BY_ID) == sorted(IDS)


def test_readme_check_count_matches_checks():
    sentence = re.search(r"(\d+) AST checks", (REPO / "README.md").read_text())
    assert sentence is not None, "README lost its check-count sentence"
    assert int(sentence[1]) == len(CHECKS)


@pytest.mark.parametrize("check, fixture, lines, names", PLANTED, ids=IDS)
def test_outside_the_simulation_packages_only_walks_are_checked(
        check, fixture, lines, names):
    findings = check_source((FIXTURES / fixture).read_text(),
                            f"rl/{fixture}")
    walks_only = {check} if check == "unsorted-walk" else set()
    assert {f.rule for f in findings} == walks_only


@pytest.mark.parametrize("relpath, fires", [
    ("netsim/link.py", True), ("eval/runner.py", True),
    ("baselines/orca.py", True),
    ("core/agent.py", True),  # every learned cell's controller
    ("core/library.py", True),  # the §5 library deciding its rates
    ("core/weights.py", False),  # no other file of core
    ("netsim/rngstreams.py", False), ("rl/ppo.py", False),
    ("core/offline.py", False)])
def test_generators_are_built_in_the_stream_table_only(relpath, fires):
    # A seedless generator is a construction like any other.
    source = ("import numpy as np\n"
              "from numpy.random import RandomState\n"
              "rng = np.random.default_rng()\n"
              "legacy = RandomState()\n")
    assert [f.line for f in check_source(source, relpath)] \
        == ([3, 4] if fires else [])


def test_set_names_do_not_leak_across_scopes():
    source = ("def a():\n"
              "    items = {1, 2}\n"
              "    return sorted(items)\n"
              "def b(items):\n"
              "    for x in items:\n"  # a list here; must not be flagged
              "        print(x)\n")
    assert check_source(source, "netsim/x.py") == []


@pytest.mark.parametrize("check, relpath, text", sorted(ALLOWED))
def test_every_allowed_finding_is_still_found(check, relpath, text):
    source = (analysis.ROOT / relpath).read_text()
    lines = source.splitlines()
    found = [f for f in BY_ID[check](ast.parse(source), relpath)
             if lines[f.line - 1].strip() == text]
    assert found, f"no {check} finding at {relpath}: {text!r}; " \
                  f"drop its ALLOWED entry"
