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
from pathlib import Path

import pytest

from repro.analysis import Analyzer, all_rules, rules_by_id
from repro.analysis.core import parse_suppressions
from repro.analysis.report import render_sarif
from repro.analysis.rules_dataflow import EnvTaintRule
from repro.analysis.rules_engine import check_engine_source

FIXTURES = Path(__file__).parent / "fixtures" / "replint"
REPO = Path(__file__).parent.parent
SRC_ROOT = REPO / "src" / "repro"


def run_rule(rule_id: str, fixture: str):
    """Run one AST rule directly on a fixture file (bypasses scoping)."""
    source = (FIXTURES / fixture).read_text()
    rule = rules_by_id()[rule_id]
    return rule.check(ast.parse(source), source, fixture)


@pytest.fixture(scope="session")
def repo_findings():
    """The one in-process whole-repo analyzer pass (~2 s), shared by
    the clean-repo gate and the clean-repo SARIF rendering;
    ``TestCli.test_repo_run_is_clean_json`` is the one subprocess pass,
    for the exit code."""
    return Analyzer().analyze()


class TestRepoClean:
    """The tier-1 gate: zero findings on the repo."""

    def test_default_analysis_is_clean(self, repo_findings):
        assert repo_findings == [], "\n".join(str(f) for f in repo_findings)

    def test_real_engine_passes_event_table_check(self):
        source = (SRC_ROOT / "netsim" / "network.py").read_text()
        assert check_engine_source(source, "netsim/network.py") == []

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
        findings = run_rule("unseeded-rng", "bad_unseeded_rng.py")
        assert len(findings) == 1
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


class TestEngineRules:
    def test_event_table_fixture_yields_all_three_defects(self):
        source = (FIXTURES / "bad_engine_table.py").read_text()
        findings = check_engine_source(source, "bad_engine_table.py")
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 3
        assert "range(2)" in messages
        assert "2 handlers" in messages
        assert "EV_C" in messages

    def test_none_slot_without_inline_branch_is_flagged(self):
        source = (FIXTURES / "bad_engine_none_slot.py").read_text()
        findings = check_engine_source(source, "bad_engine_none_slot.py")
        # EV_A's None slot has its ``kind == EV_A`` branch; EV_B's has none.
        assert len(findings) == 1
        assert "EV_B is None" in findings[0].message

    def test_heap_push_fires(self):
        findings = run_rule("heap-push-arity", "bad_heap_push.py")
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "literal 0" in messages and "2-tuple" in messages

    def test_slots_fires_on_undeclared_self_and_packet_attrs(self):
        findings = run_rule("slots-attrs", "bad_slots.py")
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "Token.count" in messages
        assert "packet.retries" in messages  # packet.hop is a real slot

    def test_transmit_unpack_fires(self):
        findings = run_rule("transmit-unpack", "bad_transmit_unpack.py")
        assert [f.line for f in findings] == [5]
        assert "4-tuple" in findings[0].message


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
        assert not rule.applies_to("netsim/rngstreams.py")
        assert not rule.applies_to("rl/ppo.py")


class TestDataflowRules:
    """Each new rule family fires on its known-bad fixture."""

    def test_foreign_draw_fires(self):
        findings = run_rule("rng-foreign-draw", "bad_foreign_draw.py")
        assert len(findings) == 3
        messages = " | ".join(f.message for f in findings)
        assert "link.rng.random" in messages
        assert "self.link.rng.uniform" in messages
        assert "link.fault._loss_rng.random" in messages  # any *rng name

    def test_shared_drain_fires_and_single_owner_is_clean(self):
        findings = run_rule("rng-shared-drain", "bad_shared_drain.py")
        assert len(findings) == 3
        messages = " | ".join(sorted(f.message for f in findings))
        assert "passed to 2 consumers" in messages
        assert "also drawn from locally" in messages
        assert 20 in [f.line for f in findings]  # rng = fault._loss_rng
        # fine_single_consumer (line 24) must not be flagged
        assert all(f.line < 24 for f in findings)

    def test_mutable_global_fires_and_shadow_is_clean(self):
        findings = run_rule("mutable-global-state", "bad_mutable_global.py")
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "_CACHE" in messages and "_SEEN" in messages
        assert "local_shadow" not in messages

    def test_env_taint_fires_everywhere_but_config(self):
        analyzer = Analyzer(root=FIXTURES / "proj_env_bad",
                            rules=[EnvTaintRule()])
        findings = analyzer.analyze()
        # os.environ.get and the from-import, both planted in netsim/;
        # the same read in config.py is the one allowed place.
        assert {(f.path, f.line) for f in findings} == {
            ("netsim/engine.py", 4), ("netsim/engine.py", 8)}
        messages = " | ".join(f.message for f in findings)
        assert "os.environ outside config.py" in messages
        assert "from os import getenv outside config.py" in messages

    def test_signature_purity_fires_incl_one_level_callees(self):
        findings = run_rule("signature-purity",
                            "proj_sig_bad/eval/cachekeys.py")
        messages = " | ".join(f.message for f in findings)
        assert "stores into 'self'" in messages
        assert "stores into parameter 'registry'" in messages
        # the defect lives in the callee, attributed to the caller
        assert "_helper_digest() performs write I/O via print(), and " \
               "Spec.fingerprint() calls it" in messages


class TestSuppressionsAndBaseline:
    # (The findings baseline is gone; the class keeps its name so the
    # suppression tests keep their ids.)

    def test_inline_suppression_silences_finding(self):
        rule = rules_by_id()["unseeded-rng"]
        rule.packages = ()  # fixtures live outside the scoped packages
        analyzer = Analyzer(root=FIXTURES, rules=[rule])
        # the same defect fires without the disable comment...
        assert analyzer.analyze([FIXTURES / "bad_unseeded_rng.py"])
        # ...and is silenced by it
        assert analyzer.analyze([FIXTURES / "suppressed.py"]) == []

    def test_parse_suppressions_shapes(self):
        per_line, file_wide = parse_suppressions(
            "x = 1  # replint: disable=unseeded-rng,wall-clock\n"
            "# replint: disable-file=set-iteration\n"
            "y = 2  # replint: disable=all\n")
        assert per_line[1] == {"unseeded-rng", "wall-clock"}
        assert per_line[3] == {"all"}
        assert file_wide == {"set-iteration"}

    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        analyzer = Analyzer(root=tmp_path, rules=all_rules())
        findings = analyzer.analyze()
        assert [f.rule for f in findings] == ["parse-error"]


class TestAnalyzerScoping:
    def test_package_scoped_rule_skips_other_packages(self):
        rule = rules_by_id()["unseeded-rng"]
        assert rule.applies_to("netsim/link.py")
        assert rule.applies_to("eval/parallel.py")
        assert not rule.applies_to("rl/policy.py")

    def test_explicit_file_list_skips_unanchored_project_rules(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        other = pkg / "other.py"
        other.write_text("x = 1\n")
        analyzer = Analyzer(root=pkg, rules=all_rules())
        # project rules read fixed files of the whole tree; an explicit
        # list runs the per-file rules only
        assert analyzer.analyze([other]) == []


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
        # transmit-unpack applies to every package, so it fires even
        # though the fixture tree is outside netsim/baselines/eval
        proc = _run_cli("--format=json",
                        str(FIXTURES / "bad_transmit_unpack.py"),
                        "--root", str(FIXTURES))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["summary"]["total"] == 1
        assert payload["findings"][0]["rule"] == "transmit-unpack"

    def test_list_rules_groups_by_family(self):
        proc = _run_cli("--list-rules")
        assert proc.returncode == 0
        for family in ("determinism", "engine", "rng", "env-taint",
                       "global-state", "signature-purity"):
            assert f"{family}:" in proc.stdout
        lines = proc.stdout.splitlines()
        assert sum(not line.startswith(" ") for line in lines) == 6
        assert sum(line.startswith(" ") for line in lines) == 15
        # rule lines are indented under their family header
        assert "\n  unseeded-rng" in proc.stdout
        assert "\n  rng-sole-constructor" in proc.stdout

    def test_unknown_select_is_usage_error(self):
        proc = _run_cli("--select", "no-such-rule")
        assert proc.returncode == 2
        assert "no-such-rule" in proc.stderr

    def test_select_accepts_family_glob(self):
        proc = _run_cli("--select", "rng-*", "--list-rules")
        assert proc.returncode == 0
        listed = {line.split()[0] for line in proc.stdout.splitlines()
                  if line.startswith("  ")}
        assert listed == {"rng-foreign-draw", "rng-shared-drain",
                          "rng-sole-constructor"}

    def test_glob_matching_nothing_is_usage_error(self):
        proc = _run_cli("--select", "zzz-*")
        assert proc.returncode == 2
        assert "matches no rule id" in proc.stderr

    def test_ignore_glob_drops_family(self):
        proc = _run_cli("--ignore", "rng-*", "--list-rules")
        assert proc.returncode == 0
        assert "rng:" not in proc.stdout
        assert "unseeded-rng" in proc.stdout  # a glob on ids, not families

    def test_script_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "replint.py"),
             "--list-rules"],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0
        assert "unseeded-rng" in proc.stdout


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
        assert {"rng-sole-constructor", "env-taint",
                "signature-purity"} <= ids

    def test_one_result_per_finding_with_repo_relative_uris(self):
        proc = _run_cli("--format=sarif",
                        str(FIXTURES / "bad_transmit_unpack.py"),
                        "--root", str(FIXTURES))
        assert proc.returncode == 1
        run = self._validate(json.loads(proc.stdout))
        assert len(run["results"]) == 1
        result = run["results"][0]
        assert result["ruleId"] == "transmit-unpack"
        uri = result["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"]
        # --root two levels under the repo -> repo-relative prefix
        assert uri.endswith("replint/bad_transmit_unpack.py")

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
        ("unseeded-rng", "bad_unseeded_rng.py"),
        ("wall-clock", "bad_wall_clock.py"),
        ("global-random", "bad_global_random.py"),
        ("unsorted-walk", "bad_unsorted_walk.py"),
        ("set-iteration", "bad_set_iteration.py"),
        ("heap-push-arity", "bad_heap_push.py"),
        ("slots-attrs", "bad_slots.py"),
        ("transmit-unpack", "bad_transmit_unpack.py"),
        ("rng-sole-constructor", "bad_sole_constructor.py"),
        ("rng-foreign-draw", "bad_foreign_draw.py"),
        ("rng-shared-drain", "bad_shared_drain.py"),
        ("mutable-global-state", "bad_mutable_global.py"),
    ]

    @pytest.mark.parametrize("rule_id,fixture", CASES)
    def test_fixture_fires(self, rule_id, fixture):
        assert run_rule(rule_id, fixture), f"{fixture} no longer trips {rule_id}"

