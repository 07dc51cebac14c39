"""replint self-tests: the repo is clean, and every rule fires.

Three layers:

* the tier-1 gate -- the full default rule set over the installed
  ``repro`` package yields **zero** findings with the shipped (empty)
  baseline;
* fixture-backed rule tests -- each rule family fires on its minimal
  known-bad example under ``tests/fixtures/replint/`` (parsed, never
  imported);
* mechanism tests -- suppressions, the baseline, ``--changed-only``
  anchors, and the CLI's exit codes / JSON shape.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis import (Analyzer, Baseline, Finding, ProjectIndex,
                            all_rules, rules_by_id)
from repro.analysis.core import default_root, parse_suppressions
from repro.analysis.report import render_sarif
from repro.analysis.rules_batch import (
    BatchIsolationRule,
    BatchRngRule,
    BatchSharedMutableRule,
    check_batch_source,
    check_cell_isolation,
)
from repro.analysis.rules_dataflow import (ENV_ALLOWLIST, EnvTaintRule,
                                           RngStreamOwnershipRule,
                                           SignaturePurityRule)
from repro.analysis.rules_engine import check_engine_source
from repro.analysis.rules_faults import (
    FaultSignatureCoverageRule,
    FaultStreamDeclarationRule,
)
from repro.analysis.rules_fingerprint import (
    CoverageSpec,
    check_coverage,
    consumed_attrs,
    default_specs,
)
from repro.eval import scenarios

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
    """The tier-1 gate: zero findings on the repo, empty baseline."""

    def test_default_analysis_is_clean(self, repo_findings):
        assert repo_findings == [], "\n".join(str(f) for f in repo_findings)

    def test_shipped_baseline_is_empty(self):
        baseline = Baseline.load(REPO / ".replint-baseline.json")
        assert len(baseline) == 0

    def test_real_engine_passes_event_table_check(self):
        source = (SRC_ROOT / "netsim" / "network.py").read_text()
        assert check_engine_source(source, "netsim/network.py") == []

    def test_default_fingerprint_specs_are_clean(self):
        for spec in default_specs():
            assert check_coverage(spec) == [], spec.cls.__name__


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
    def test_adhoc_rng_fires_in_hot_path_not_init(self):
        findings = run_rule("adhoc-rng", "bad_adhoc_rng.py")
        assert len(findings) == 1
        assert "Controller.on_ack" in findings[0].message


class TestFingerprintCoverage:
    def test_fixture_dataclass_uncovered_field_is_flagged(self):
        spec_obj = importlib.util.spec_from_file_location(
            "replint_bad_fingerprint", FIXTURES / "bad_fingerprint.py")
        module = importlib.util.module_from_spec(spec_obj)
        spec_obj.loader.exec_module(module)
        spec = CoverageSpec(cls=module.BadSpec,
                            consumer=module.BadSpec.signature,
                            relpath="bad_fingerprint.py")
        findings = check_coverage(spec)
        assert len(findings) == 1
        assert "BadSpec.gamma" in findings[0].message

    def test_scenario_subclass_with_new_behavioural_field_is_flagged(self):
        """The drift regression the rule exists for: a new Scenario
        field that fingerprint_cells() does not consume must be caught."""
        @dataclass(frozen=True)
        class AqmScenario(scenarios.Scenario):
            aqm: str = "fifo"  # behavioural, but unknown to the fingerprint

        spec = CoverageSpec(cls=AqmScenario,
                            consumer=scenarios.fingerprint_cells,
                            relpath="eval/scenarios.py",
                            exclusions=(("name", "label"), ("suite", "label"),
                                        ("lineup", "label"),
                                        ("churn", "rewritten onto flows")))
        findings = check_coverage(spec)
        assert len(findings) == 1
        assert "aqm" in findings[0].message

    def test_stale_exclusion_entry_is_flagged(self):
        spec = CoverageSpec(cls=scenarios.FlowDef,
                            consumer=scenarios.FlowDef.signature,
                            relpath="eval/scenarios.py",
                            exclusions=(("label", "display"),
                                        ("ghost_field", "does not exist")))
        findings = check_coverage(spec)
        assert len(findings) == 1
        assert "ghost_field" in findings[0].message

    def test_consumed_attrs_sees_any_receiver(self):
        attrs = consumed_attrs(scenarios._topology_signature)
        assert {"links", "paths", "default_path", "bandwidth_mbps",
                "ack_bytes"} <= attrs


class TestProjectIndex:
    """The whole-program layer resolves the chains the dataflow rules
    depend on -- checked against the live package."""

    @pytest.fixture(scope="class")
    def index(self):
        return ProjectIndex(SRC_ROOT)

    def test_function_level_import_resolves(self, index):
        # AgentRef.resolve imports default_zoo *inside* the method; the
        # env-taint chain for REPRO_MODEL_CACHE depends on this edge.
        callers = index.transitive_callers("models.zoo:_default_cache_dir")
        assert "eval.scenarios:AgentRef.resolve" in callers
        assert "models.zoo:ModelZoo.__init__" in callers

    def test_class_constructor_edge(self, index):
        # default_zoo() calls ModelZoo(...) -> __init__
        assert "models.zoo:ModelZoo.__init__" in \
            index.callees["models.zoo:default_zoo"]

    def test_self_method_edge(self, index):
        # fingerprint() is the one-cell case of fingerprint_cells()
        assert "eval.scenarios:fingerprint_cells" in \
            index.callees["eval.scenarios:Scenario.fingerprint"]
        assert "eval.scenarios:_code_digest" in \
            index.callees["eval.scenarios:fingerprint_cells"]

    def test_cross_module_function_edge(self, index):
        # fingerprint_cells() -> make_trace() lives two packages away
        assert "netsim.traces:make_trace" in \
            index.callees["eval.scenarios:fingerprint_cells"]

    def test_enclosing_function_lookup(self, index):
        fn = index.functions["netsim.link:Link.transmit"]
        mid = (fn.node.lineno + fn.node.end_lineno) // 2
        found = index.enclosing_function("netsim/link.py", mid)
        assert found is not None
        assert found.qualname == "netsim.link:Link.transmit"


class TestDataflowRules:
    """Each new rule family fires on its known-bad fixture."""

    def test_foreign_draw_fires(self):
        findings = run_rule("rng-foreign-draw", "bad_foreign_draw.py")
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "link.rng.random" in messages
        assert "self.link.rng.uniform" in messages

    def test_shared_drain_fires_and_single_owner_is_clean(self):
        findings = run_rule("rng-shared-drain", "bad_shared_drain.py")
        assert len(findings) == 2
        messages = " | ".join(sorted(f.message for f in findings))
        assert "passed to 2 consumers" in messages
        assert "also drawn from locally" in messages
        # fine_single_consumer (line 19) must not be flagged
        assert all(f.line < 19 for f in findings)

    def test_mutable_global_fires_and_shadow_is_clean(self):
        findings = run_rule("mutable-global-state", "bad_mutable_global.py")
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "_CACHE" in messages and "_SEEN" in messages
        assert "local_shadow" not in messages

    def test_stream_ownership_fires_on_every_declaration_defect(self):
        findings = RngStreamOwnershipRule().check_project(
            FIXTURES / "proj_rng_bad")
        messages = " | ".join(f.message for f in findings)
        assert "np.random.default_rng(...) constructs an undeclared" \
            in messages
        assert "'z.undeclared'" in messages
        assert "non-literal stream name" in messages
        assert "both derive raw seeds" in messages            # a.raw/b.raw
        assert "can overlap in domain 'env'" in messages      # c.affine/d.raw
        assert "below 0x10000" in messages                    # e.salted salt
        assert "never minted" in messages                     # g.stale
        assert "remove the stale note" in messages            # g.stale's note

    def test_env_taint_follows_the_call_chain(self):
        findings = EnvTaintRule().check_project(FIXTURES / "proj_env_bad")
        messages = " | ".join(f.message for f in findings)
        # read in a sensitive module
        assert "'SIM_SPEED_HACK'" in messages
        # read in a neutral module reached from eval.scenarios
        assert "'PROJ_CACHE_DIR' (in models.store:cache_dir)" in messages
        # dynamic variable name
        assert "non-literal variable name" in messages
        # no path into simulation: must stay clean
        assert "REPORT_COLOR" not in messages

    def test_stale_env_allowlist_entries_are_findings(self):
        # The fixture tree reads none of the allowlisted variables, so
        # every entry must be reported stale -- the same mechanism that
        # keeps the real allowlist honest.
        findings = EnvTaintRule().check_project(FIXTURES / "proj_env_bad")
        stale = {f.message.split("'")[1] for f in findings
                 if "stale ENV_ALLOWLIST" in f.message}
        assert stale == set(ENV_ALLOWLIST)

    def test_signature_purity_fires_incl_one_level_callees(self):
        findings = SignaturePurityRule().check_project(
            FIXTURES / "proj_sig_bad")
        messages = " | ".join(f.message for f in findings)
        assert "stores into 'self'" in messages
        assert "reads the environment" in messages
        assert "stores into parameter 'registry'" in messages
        # the defect lives in the callee, attributed to the caller
        assert "_helper_digest() performs write I/O via print(), and " \
               "Spec.fingerprint() calls it" in messages


class TestIsolationRules:
    """The batched-execution cross-cell isolation family."""

    def test_shared_mutable_fires_and_reports_stale_entry(self):
        findings = BatchSharedMutableRule().check_project(
            FIXTURES / "proj_batch_bad")
        messages = " | ".join(f.message for f in findings)
        assert "'SHARED_REGISTRY' is created outside the per-cell loop" \
            in messages
        assert "stale SHARED_IMMUTABLE_ALLOWLIST entry 'ghost_cache'" \
            in messages

    def test_missing_allowlist_declaration_is_a_finding(self):
        source = ("def build(scenarios, cache):\n"
                  "    for s in scenarios:\n"
                  "        build_scenario_simulation(s, cache)\n")
        messages = " | ".join(f.message
                              for f in check_batch_source(source))
        assert "no module-level SHARED_IMMUTABLE_ALLOWLIST" in messages
        assert "'cache'" in messages  # the unlisted shared binding too

    def test_per_iteration_bindings_are_clean(self):
        source = ("SHARED_IMMUTABLE_ALLOWLIST = ()\n"
                  "def build(scenarios):\n"
                  "    for s in scenarios:\n"
                  "        cache = {}\n"  # fresh per cell: fine
                  "        sim = build_scenario_simulation(s, cache)\n")
        assert check_batch_source(source) == []

    def test_rng_rule_fires_on_mint_and_drain(self):
        source = (FIXTURES / "proj_batch_bad" / "eval" / "batch.py") \
            .read_text()
        findings = BatchRngRule().check(ast.parse(source), source,
                                        "eval/batch.py")
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "mints an RNG stream in the batch layer" in messages
        assert "draws from an RNG stream in the batch layer" in messages

    def test_live_batch_layer_passes_static_rules(self):
        assert BatchSharedMutableRule().check_project(SRC_ROOT) == []
        source = (SRC_ROOT / "eval" / "batch.py").read_text()
        assert BatchRngRule().check(ast.parse(source), source,
                                    "eval/batch.py") == []

    def test_isolation_walker_flags_shared_dict_and_generator(self):
        import numpy as np

        class FakeState:
            def __init__(self, shared, rng):
                self.shared = shared
                self.rng = rng

        registry = {"x": [1]}
        rng = np.random.default_rng(3)
        findings = check_cell_isolation(
            [FakeState(registry, rng), FakeState(registry, rng)])
        messages = " | ".join(f.message for f in findings)
        assert "mutable builtins.dict is reachable from 2 cells" in messages
        assert "Generator is reachable from 2 cells" in messages
        assert "cell-indexed stream" in messages

    def test_isolation_walker_accepts_frozen_shared_trace(self):
        from repro.netsim.traces import freeze_trace, make_trace

        class FakeState:
            def __init__(self, trace):
                self.trace = trace
                self.own = {"per-cell": []}  # mutable but unshared

        trace = freeze_trace(make_trace("wifi-walk"))
        findings = check_cell_isolation([FakeState(trace),
                                         FakeState(trace)])
        assert findings == []

    def test_live_two_cell_probe_is_clean(self):
        assert BatchIsolationRule().check_project(default_root()) == []

    def test_probe_skips_foreign_roots(self):
        # Fixture trees are covered by the static rules; the live probe
        # must not attribute installed-tree results to them.
        assert BatchIsolationRule().check_project(
            FIXTURES / "proj_batch_bad") == []


class TestSuppressionsAndBaseline:
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

    def test_baseline_roundtrip_and_split(self, tmp_path):
        f1 = Finding("a.py", 3, 0, "unseeded-rng", "msg one")
        f2 = Finding("b.py", 9, 4, "wall-clock", "msg two")
        path = tmp_path / "baseline.json"
        Baseline.write(path, [f1])
        kept, n_baselined = Baseline.load(path).split([f1, f2])
        assert kept == [f2] and n_baselined == 1
        # drifted line number, same (rule, path, message): still accepted
        moved = Finding("a.py", 99, 7, "unseeded-rng", "msg one")
        kept, n_baselined = Baseline.load(path).split([moved])
        assert kept == [] and n_baselined == 1

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

    def test_prefix_anchor_matches_any_file_under_directory(self):
        rule = rules_by_id()["rng-stream-ownership"]
        assert rule.anchors == ("netsim/",)
        assert rule.anchored_by({"netsim/link.py"})
        assert rule.anchored_by({"netsim/rngstreams.py", "rl/policy.py"})
        assert not rule.anchored_by({"eval/parallel.py"})
        # "netsim/" must not match a *file* named netsim elsewhere
        assert not rule.anchored_by({"rl/netsim.py"})

    def test_explicit_file_list_skips_unanchored_project_rules(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        other = pkg / "other.py"
        other.write_text("x = 1\n")
        analyzer = Analyzer(root=pkg, rules=all_rules())
        # fingerprint/event-table project rules are anchored on files
        # not in this list, so analyzing it must not import/introspect
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
        proc = _run_cli("--format=json", "--no-baseline",
                        str(FIXTURES / "bad_transmit_unpack.py"),
                        "--root", str(FIXTURES))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["summary"]["total"] == 1
        assert payload["findings"][0]["rule"] == "transmit-unpack"

    def test_list_rules_groups_by_family(self):
        proc = _run_cli("--list-rules")
        assert proc.returncode == 0
        for family in ("determinism", "fingerprint", "engine", "rng",
                       "rng-ownership", "env-taint", "global-state",
                       "signature-purity", "isolation"):
            assert f"{family}:" in proc.stdout
        # rule lines are indented under their family header
        assert "\n  unseeded-rng" in proc.stdout
        assert "\n  rng-stream-ownership" in proc.stdout
        assert "\n  batch-cell-isolation" in proc.stdout

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
                          "rng-stream-ownership"}

    def test_glob_matching_nothing_is_usage_error(self):
        proc = _run_cli("--select", "zzz-*")
        assert proc.returncode == 2
        assert "matches no rule id" in proc.stderr

    def test_ignore_glob_drops_family(self):
        proc = _run_cli("--ignore", "batch-*", "--list-rules")
        assert proc.returncode == 0
        assert "isolation:" not in proc.stdout

    def test_script_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "replint.py"),
             "--list-rules"],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0
        assert "unseeded-rng" in proc.stdout

    def test_changed_only_smoke(self):
        proc = _run_cli("--changed-only")
        # Exit 0 both when the worktree is clean ("no changed files")
        # and when changed files carry no findings.
        assert proc.returncode == 0, proc.stdout + proc.stderr


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
        assert {"rng-stream-ownership", "env-taint",
                "signature-purity"} <= ids

    def test_one_result_per_finding_with_repo_relative_uris(self):
        proc = _run_cli("--format=sarif", "--no-baseline",
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
        proc = _run_cli("--format=sarif", "--no-baseline", rule_path,
                        "--root", str(FIXTURES))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        run = self._validate(json.loads(proc.stdout))
        assert run["results"] == []


class TestChangedOnlyRegression:
    """Satellite regression: project-scope rules must run under
    --changed-only whenever an anchor file is in the git diff, and
    untracked files must count as changed."""

    @pytest.fixture()
    def temp_repo(self, tmp_path):
        (tmp_path / "src" / "pkg" / "netsim").mkdir(parents=True)
        root = tmp_path / "src" / "pkg"
        registry = root / "netsim" / "rngstreams.py"
        registry.write_text(
            "class StreamDef:\n"
            "    pass\n"
            "STREAMS = ()\n")
        engine = root / "netsim" / "engine.py"
        engine.write_text("x = 1\n")

        def git(*args):
            proc = subprocess.run(
                ["git", "-c", "user.email=t@t", "-c", "user.name=t",
                 *args], cwd=tmp_path, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return proc

        git("init", "-q")
        git("add", "-A")
        git("commit", "-qm", "seed")
        return tmp_path, root, engine

    def _replint(self, tmp_path, root, *args):
        return _run_cli("--changed-only", "--no-baseline",
                        "--select=rng-stream-ownership",
                        "--root", str(root), *args, cwd=tmp_path)

    def test_clean_worktree_analyzes_nothing(self, temp_repo):
        tmp_path, root, _ = temp_repo
        proc = self._replint(tmp_path, root)
        assert proc.returncode == 0
        assert "no changed files" in proc.stdout

    def test_modified_anchor_file_triggers_project_rule(self, temp_repo):
        tmp_path, root, engine = temp_repo
        engine.write_text(
            "import numpy as np\n"
            "def build(seed):\n"
            "    return np.random.default_rng(seed)\n")
        proc = self._replint(tmp_path, root)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "rng-stream-ownership" in proc.stdout

    def test_untracked_anchor_file_triggers_project_rule(self, temp_repo):
        # A brand-new file is invisible to `git diff HEAD` until staged;
        # the ls-files fallback must still pick it up.
        tmp_path, root, _ = temp_repo
        fresh = root / "netsim" / "fresh.py"
        fresh.write_text(
            "import numpy as np\n"
            "def mint(seed):\n"
            "    return np.random.default_rng(seed)\n")
        proc = self._replint(tmp_path, root)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "rng-stream-ownership" in proc.stdout
        assert "fresh.py" in proc.stdout

    def test_non_anchor_change_skips_project_rule(self, temp_repo):
        tmp_path, root, _ = temp_repo
        (root / "other.py").write_text("y = 2\n")
        proc = self._replint(tmp_path, root)
        assert proc.returncode == 0, proc.stdout + proc.stderr


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
        ("adhoc-rng", "bad_adhoc_rng.py"),
        ("rng-foreign-draw", "bad_foreign_draw.py"),
        ("rng-shared-drain", "bad_shared_drain.py"),
        ("mutable-global-state", "bad_mutable_global.py"),
    ]

    @pytest.mark.parametrize("rule_id,fixture", CASES)
    def test_fixture_fires(self, rule_id, fixture):
        assert run_rule(rule_id, fixture), f"{fixture} no longer trips {rule_id}"


class TestFaultResilienceRules:
    """The fault-injection rule family."""

    def test_fault_signature_coverage_fires(self):
        findings = FaultSignatureCoverageRule().check_project(
            FIXTURES / "proj_faults_bad")
        messages = " | ".join(f.message for f in findings)
        assert "field 'secret_knob' of fault spec LeakySpec is missing " \
               "from _signature_fields" in messages
        assert "stale _signature_fields entry 'ghost_field'" in messages
        assert "fault spec UnsignedSpec declares no _signature_fields" \
            in messages

    def test_fault_stream_declaration_fires(self):
        findings = FaultStreamDeclarationRule().check_project(
            FIXTURES / "proj_faults_bad")
        messages = " | ".join(f.message for f in findings)
        assert "'link.fault-undeclared' is minted here but not declared" \
            in messages
        assert "'link.fault-flap' must derive 'salted-indexed'" in messages
        assert "shares salt 0x464c4150 with stream 'link.loss'" in messages

    def test_family_is_clean_on_the_live_tree(self):
        for rule in (FaultSignatureCoverageRule(),
                     FaultStreamDeclarationRule()):
            assert rule.check_project(SRC_ROOT) == [], rule.id
