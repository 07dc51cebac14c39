"""replint self-tests: the repo is clean, and every rule fires.

Three layers:

* the tier-1 gate -- the full default rule set over the installed
  ``repro`` package yields **zero** findings;
* fixture-backed rule tests -- each rule family fires on its minimal
  known-bad example under ``tests/fixtures/replint/`` (parsed, never
  imported);
* mechanism tests -- suppressions, rule scoping, and the CLI's exit
  codes / JSON shape.
"""

import ast
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from repro.analysis import Analyzer, all_rules
from repro.analysis.core import default_root, parse_suppressions
from repro.analysis.report import render_sarif

FIXTURES = Path(__file__).parent / "fixtures" / "replint"
REPO = Path(__file__).parent.parent


def rules_by_id() -> dict:
    """``{rule_id: rule_instance}`` for the default rule set."""
    return {rule.id: rule for rule in all_rules()}


def run_rule(rule_id: str, fixture: str):
    """Run one AST rule directly on a fixture file (bypasses scoping)."""
    source = (FIXTURES / fixture).read_text()
    rule = rules_by_id()[rule_id]
    return rule.check(ast.parse(source), source, fixture)


@pytest.fixture(scope="session")
def repo_findings():
    """The one in-process whole-repo analyzer pass (~0.5 s), shared by
    the clean-repo gate and the clean-repo SARIF rendering;
    ``TestCli.test_repo_run_is_clean_json`` is the one subprocess pass,
    for the exit code."""
    return Analyzer().analyze()


class TestRepoClean:
    """The tier-1 gate: zero findings on the repo."""

    def test_default_analysis_is_clean(self, repo_findings):
        assert repo_findings == [], "\n".join(str(f) for f in repo_findings)

    def test_scan_imports_neither_numpy_nor_the_analyzed_code(self):
        # Pure AST: the CI replint job installs nothing.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from repro.analysis import Analyzer\n"
             "assert Analyzer().analyze() == []\n"
             "print(sorted(m for m in ('numpy', 'repro.netsim')"
             " if m in sys.modules))\n"],
            capture_output=True, text=True, cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_readme_rule_count_matches_registry(self):
        rules = all_rules()
        families = {rule.family for rule in rules}
        sentence = re.search(r"(\d+)\s+rules\s+in\s+(\d+)\s+families",
                             (REPO / "README.md").read_text())
        assert sentence is not None, "README lost its rule-count sentence"
        assert (int(sentence[1]), int(sentence[2])) == (len(rules),
                                                        len(families))


class TestDeterminismRules:
    def test_unseeded_rng_fires(self):
        # A seedless generator is a construction like any other, so the
        # sole-constructor rule flags it wherever it is built.
        source = ("import numpy as np\n"
                  "from numpy.random import RandomState\n"
                  "rng = np.random.default_rng()\n"
                  "legacy = RandomState()\n")
        rule = rules_by_id()["rng-sole-constructor"]
        findings = rule.check(ast.parse(source), source, "netsim/x.py")
        assert [f.line for f in findings] == [3, 4]
        assert "default_rng" in findings[0].message

    def test_wall_clock_fires(self):
        findings = run_rule("wall-clock", "bad_wall_clock.py")
        assert [f.line for f in findings] == [7, 8]  # perf_counter not flagged

    def test_global_random_fires(self):
        findings = run_rule("global-random", "bad_global_random.py")
        assert len(findings) == 3
        names = " ".join(f.message for f in findings)
        assert "random.seed" in names and "np.random.rand" in names

    def test_unsorted_walk_fires_and_sorted_is_ok(self):
        findings = run_rule("unsorted-walk", "bad_unsorted_walk.py")
        assert len(findings) == 2
        assert all(f.line != 10 for f in findings)  # the sorted() walk

    def test_set_iteration_fires_and_sorted_is_ok(self):
        findings = run_rule("set-iteration", "bad_set_iteration.py")
        assert [f.line for f in findings] == [6, 8]

    def test_set_names_do_not_leak_across_scopes(self):
        source = (
            "def a():\n"
            "    items = {1, 2}\n"
            "    return sorted(items)\n"
            "def b(items):\n"
            "    for x in items:\n"  # a list here; must not be flagged
            "        print(x)\n"
        )
        rule = rules_by_id()["set-iteration"]
        assert rule.check(ast.parse(source), source, "x.py") == []


class TestRngRule:
    def test_sole_constructor_fires_on_every_construction(self):
        findings = run_rule("rng-sole-constructor", "bad_sole_constructor.py")
        # __init__, the hot path and the legacy class; not stream_rng()
        assert sorted(f.line for f in findings) == [9, 12, 16]
        assert "RandomState(...)" in max(findings).message

    def test_sole_constructor_scope_is_simulation_minus_the_table(self):
        rule = rules_by_id()["rng-sole-constructor"]
        assert rule.applies_to("eval/runner.py")
        assert rule.applies_to("baselines/orca.py")
        assert rule.applies_to("netsim/link.py")
        assert rule.applies_to("core/agent.py")  # every learned cell's controller
        assert rule.applies_to("core/library.py")  # Fig. 17's §5 library
        assert rule.applies_to("datapath/udt.py")
        assert not rule.applies_to("netsim/rngstreams.py")
        assert not rule.applies_to("rl/ppo.py")
        assert not rule.applies_to("core/offline.py")


class TestDataflowRules:
    """Each new rule family fires on its known-bad fixture."""

    def test_foreign_draw_fires(self):
        findings = run_rule("rng-foreign-draw", "bad_foreign_draw.py")
        assert len(findings) == 3
        messages = " | ".join(f.message for f in findings)
        assert "link.rng.random" in messages
        assert "self.link.rng.uniform" in messages
        assert "link.fault._loss_rng.random" in messages  # any *rng name

    def test_mutable_global_fires_and_shadow_is_clean(self):
        findings = run_rule("mutable-global-state", "bad_mutable_global.py")
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "_CACHE" in messages and "_SEEN" in messages
        assert "local_shadow" not in messages


class TestSuppressionsAndBaseline:
    # (The findings baseline is gone; the class keeps its name so the
    # suppression tests keep their ids.)

    def test_inline_suppression_silences_finding(self):
        rule = rules_by_id()["rng-sole-constructor"]
        rule.packages = ()  # fixtures live outside the scoped packages
        analyzer = Analyzer(root=FIXTURES, rules=[rule])
        # the same defect fires without the disable comment...
        assert analyzer.analyze([FIXTURES / "bad_sole_constructor.py"])
        # ...and is silenced by it
        assert analyzer.analyze([FIXTURES / "suppressed.py"]) == []

    def test_parse_suppressions_shapes(self):
        per_line, file_wide = parse_suppressions(
            "x = 1  # replint: disable=rng-sole-constructor,wall-clock\n"
            "# replint: disable-file=set-iteration\n"
            "y = 2  # replint: disable=all\n")
        assert per_line[1] == {"rng-sole-constructor", "wall-clock"}
        assert per_line[3] == {"all"}
        assert file_wide == {"set-iteration"}

    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        analyzer = Analyzer(root=tmp_path, rules=all_rules())
        findings = analyzer.analyze()
        assert [f.rule for f in findings] == ["parse-error"]


def test_every_suppression_names_a_registered_rule():
    # Comment tokens only: docstrings quote the marker syntax.
    known = set(rules_by_id()) | {"all", "*"}
    root = default_root()
    stale = []
    for path in sorted(root.rglob("*.py")):
        with path.open("rb") as fh:
            comments = "\n".join(tok.string for tok in tokenize.tokenize(
                fh.readline) if tok.type == tokenize.COMMENT)
        per_line, file_wide = parse_suppressions(comments)
        stale += [f"{path.relative_to(root)}: {rule}" for rule in sorted(
            file_wide.union(*per_line.values()) - known)]
    assert stale == []


class TestAnalyzerScoping:
    def test_package_scoped_rule_skips_other_packages(self):
        rule = rules_by_id()["global-random"]
        assert rule.applies_to("netsim/link.py")
        assert rule.applies_to("eval/parallel.py")
        assert not rule.applies_to("rl/policy.py")


def _run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, cwd=cwd or REPO, env=env)


class TestCli:
    def test_repo_run_is_clean_json(self):
        proc = _run_cli("--format=json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []
        assert payload["summary"]["total"] == 0

    def test_findings_fail_with_exit_one(self):
        # unsorted-walk applies to every package, so it fires even
        # though the fixture tree is outside netsim/baselines/eval
        proc = _run_cli("--format=json",
                        str(FIXTURES / "bad_unsorted_walk.py"),
                        "--root", str(FIXTURES))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["summary"]["total"] == 2
        assert {f["rule"] for f in payload["findings"]} == {"unsorted-walk"}

    def test_list_rules_groups_by_family(self):
        proc = _run_cli("--list-rules")
        assert proc.returncode == 0
        for family in ("determinism", "rng", "global-state"):
            assert f"{family}:" in proc.stdout
        lines = proc.stdout.splitlines()
        assert sum(not line.startswith(" ") for line in lines) == 3
        assert sum(line.startswith(" ") for line in lines) == 7
        # rule lines are indented under their family header
        assert "\n  wall-clock" in proc.stdout
        assert "\n  rng-sole-constructor" in proc.stdout

    def test_script_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "replint.py"),
             "--list-rules"],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0
        assert "rng-sole-constructor" in proc.stdout


class TestSarif:
    """SARIF 2.1.0 output: structurally valid, one result per finding,
    suppressions excluded (no jsonschema dependency -- structural
    checks mirror what GitHub code scanning requires)."""

    @staticmethod
    def _validate(payload):
        assert payload["version"] == "2.1.0"
        assert payload["$schema"].endswith("sarif-2.1.0.json")
        assert len(payload["runs"]) == 1
        run = payload["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "replint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            assert result["message"]["text"]
            loc = result["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"]
            assert loc["region"]["startLine"] >= 1
            assert loc["region"]["startColumn"] >= 1
        return run

    def test_clean_repo_sarif_validates_with_empty_results(self, repo_findings):
        run = self._validate(json.loads(
            render_sarif(repo_findings, all_rules())))
        assert run["results"] == []
        # driver metadata still lists the full rule set
        ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert ids == set(rules_by_id())

    def test_one_result_per_finding_with_repo_relative_uris(self):
        proc = _run_cli("--format=sarif",
                        str(FIXTURES / "bad_unsorted_walk.py"),
                        "--root", str(FIXTURES))
        assert proc.returncode == 1
        run = self._validate(json.loads(proc.stdout))
        assert len(run["results"]) == 2
        for result in run["results"]:
            assert result["ruleId"] == "unsorted-walk"
            uri = result["locations"][0]["physicalLocation"][
                "artifactLocation"]["uri"]
            # --root two levels under the repo -> repo-relative prefix
            assert uri.endswith("replint/bad_unsorted_walk.py")

    def test_suppressed_findings_are_excluded(self):
        rule_path = str(FIXTURES / "suppressed.py")
        proc = _run_cli("--format=sarif", rule_path,
                        "--root", str(FIXTURES))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        run = self._validate(json.loads(proc.stdout))
        assert run["results"] == []


class TestFixturesStayBad:
    """Guard the fixtures themselves: every bad_* file must keep
    producing at least one finding for its rule (a fixture silently
    going clean would turn its rule test meaningless)."""

    CASES = [
        ("wall-clock", "bad_wall_clock.py"),
        ("global-random", "bad_global_random.py"),
        ("unsorted-walk", "bad_unsorted_walk.py"),
        ("set-iteration", "bad_set_iteration.py"),
        ("rng-sole-constructor", "bad_sole_constructor.py"),
        ("rng-foreign-draw", "bad_foreign_draw.py"),
        ("mutable-global-state", "bad_mutable_global.py"),
    ]

    @pytest.mark.parametrize("rule_id,fixture", CASES)
    def test_fixture_fires(self, rule_id, fixture):
        assert run_rule(rule_id, fixture), f"{fixture} no longer trips {rule_id}"

