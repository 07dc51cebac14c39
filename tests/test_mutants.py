"""The defect corpus holds: every mutant is anchored, killed and scored.

``tests/mutants`` is the one table of planted defects and the one
loader.  Here every mutant's anchor matches once; the unmutated exec of
each module in the table passes every killer named for that module;
every mutant, planted through the loader and run in process, fails each
of its killers; ``SCORE.json`` scores the same mutants; and every
killer either names is a test pytest collects.

Two AST guards, in the style of ``test_imported_names.py``, keep that
loader the only one: no other call to the builtin ``exec`` under
``tests/``, and no test file binding a defect table or a module source
of its own.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import repro.core.online
import repro.eval.scenarios
import repro.rl.policy
from repro.netsim.history import StatHistory
from repro.netsim.sender import Flow

import test_ack_wire_drop
import test_analysis
import test_baselines
import test_batch
import test_cell_lifetime
import test_collectors
import test_config
import test_conservation
import test_core_mocc
import test_engine_invariants
import test_env
import test_library_features
import test_link
import test_metamorphic
import test_mi_oracle
import test_optim
import test_parallel_eval
import test_policy
import test_ppo
import test_resilience
import test_rngstreams
import test_scenarios
import test_topology
import test_traces
import test_training_pipeline
from mutants import (
    ANALYSIS_GATE,
    CCP_FOLD,
    CONTROLLER_PARITY,
    ENTROPY_LAW,
    ENV_LINK_PINS,
    ENV_PARITY,
    EQ2_ENV_REWARD,
    EQ2_LOSS,
    EQ2_WEIGHTS,
    EVERY_KIND,
    FLAT_ADAM,
    GAE_READ,
    LIBRARY_PARITY,
    LIFETIME,
    LOSS_DRAWS,
    LRU_TOUCH,
    MI_ORACLE,
    MUTANTS,
    NEXT_CALL_AGENT,
    NEXT_CALL_TRACE,
    ONE_BUFFER,
    ORCA_PARITY,
    RANK,
    RELATION_A,
    RELATION_C,
    REPLAY_ORDER,
    ROWS_LAW,
    SAMPLING_LAW,
    SIGNATURE_PIN,
    SINGLE_STEPPING,
    SLICING,
    STATS_LOGGED,
    VECTOR_DIGEST,
    law_killer,
    load,
    mutated,
    planted,
    unseal_killer,
)

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SCORE = json.loads((TESTS / "mutants" / "SCORE.json").read_text())


def signed_by(signer_cls, check) -> None:
    """``check()`` with ``fingerprint_cells`` signing through
    ``signer_cls``."""
    with mock.patch.object(repro.eval.scenarios, "Signer", signer_cls):
        check()


def planned_by(plan_cls, check) -> None:
    """``check()`` with every model resolving its plans through
    ``plan_cls``."""
    with mock.patch.object(repro.rl.policy, "InferencePlan", plan_cls):
        check()


def adapted_by(trainer_cls) -> None:
    """The replay-order check with ``OnlineAdapter`` iterating through
    ``trainer_cls``."""
    with mock.patch.object(repro.core.online, "OfflineTrainer", trainer_cls):
        test_training_pipeline.replay_drawn_between_rollouts(
            repro.core.online.OnlineAdapter)


#: Each killer's check, run on a namespace the loader returned: the
#: test hands its check the live symbol, this hands it the namespace's.
#: A check that collects rollouts runs on one core, where the segments
#: run in process: a pool worker imports its segment function by name,
#: never a namespace's planted one, and runs the code it was forked
#: with, which need not hold a patch made since.
KILLERS = {
    EVERY_KIND: lambda ns: test_engine_invariants.every_kind_run_holds(
        ns["Simulation"]),
    **{law_killer(law): lambda ns, law=law: test_conservation.every_kind_keeps(
        law, ns["Simulation"]) for law in test_conservation.LAWS},
    RELATION_A: lambda ns: test_metamorphic.late_brownout_holds(
        ns["Link"].transmit),
    RELATION_C: lambda ns: test_metamorphic.long_lot_scale_free(
        ns["Simulation"]),
    # The oracle's defects live in sender.py and history.py: each
    # namespace supplies its own class, the other comes unmutated.
    MI_ORACLE: lambda ns: test_mi_oracle.fixed_ramps_hold(
        ns.get("Flow", Flow), ns.get("StatHistory", StatHistory)),
    CCP_FOLD: lambda ns: test_library_features.batch_folds_to_one_interval(
        ns["MoccController"], 4),
    ENV_PARITY: lambda ns: test_env.episode_parity_holds(ns["MoccEnv"]),
    **{pin: lambda ns, seed=seed: test_rngstreams.env_episode_link_is_affine(
        ns["MoccEnv"], seed) for seed, pin in ENV_LINK_PINS.items()},
    EQ2_WEIGHTS: lambda ns: test_env.weighted_is_eq2(ns["RewardComponents"]),
    EQ2_ENV_REWARD: lambda ns: test_env.eq2_reward_holds(ns["EnvSpec"]),
    EQ2_LOSS: lambda ns: test_env.loss_penalty_holds(
        ns["components_from_stats"]),
    LIFETIME: lambda ns: test_cell_lifetime.every_kind_cell_freed(
        ns["Simulation"]),
    SINGLE_STEPPING: lambda ns: test_batch.single_stepping_holds(
        test_batch.BRANCH_CELLS["step/dumbbell"], ns["Simulation"]),
    SLICING: lambda ns: test_batch.slicing_holds(test_batch.SLICED_LOT,
                                                 ns["Simulation"]),
    "tests/test_core_mocc.py::TestAdaptationTrace::"
    "test_convergence_smoothing_recentered_on_window_end":
        lambda ns: test_core_mocc.convergence_recentered_on_window_end(
            ns["AdaptationTrace"]),
    "tests/test_core_mocc.py::TestAdaptationTrace::"
    "test_convergence_of_a_curve_that_starts_high":
        lambda ns: test_core_mocc.convergence_of_a_curve_that_starts_high(
            ns["AdaptationTrace"]),
    "tests/test_topology.py::TestSimulationOverTopology::"
    "test_stop_time_mi_accounting_not_inflated":
        lambda ns: test_topology.stop_time_mi_accounting_holds(
            ns["Simulation"]),
    "tests/test_topology.py::TestSimulationOverTopology::"
    "test_loss_notice_charges_downstream_queue_occupancy":
        lambda ns: test_topology.loss_notices_charge_downstream_queues(
            ns["Simulation"]),
    "tests/test_traces.py::TestStepTrace::test_mean_uses_true_midpoints":
        lambda ns: test_traces.mean_uses_true_midpoints(ns["StepTrace"]),
    "tests/test_ack_wire_drop.py::TestWireDroppedAcks::"
    "test_wire_drops_park_and_recover":
        lambda ns: test_ack_wire_drop.wire_drops_park_and_recover(
            ns["Simulation"]),
    "tests/test_policy.py::TestBackward::"
    "test_single_state_queries_leave_backward_caches_alone[3]":
        lambda ns: test_policy.single_state_queries_leave_backward_caches_alone(
            ns["PreferenceActorCritic"], 3),
    "tests/test_batch.py::TestCellIsolation::"
    "test_walker_accepts_frozen_shared_trace[leo-handover]":
        lambda ns: test_batch.walker_accepts_frozen_shared_trace(
            ns["freeze_trace"], "leo-handover"),
    "tests/test_rngstreams.py::TestLinkDefaultFallback::"
    "test_fallback_disjoint_from_legacy_shared_stream":
        lambda ns: test_rngstreams.fallback_disjoint_from_legacy_shared_stream(
            ns["Link"]),
    **{unseal_killer(bad): lambda ns, bad=bad: test_resilience.unseal_refuses(
        ns["unseal"], bad)
       for bad in test_resilience.TestChecksStayAtReadTime.BAD},
    "tests/test_parallel_eval.py::TestSuiteTable::"
    "test_a_misspelled_key_raises_instead_of_nan":
        lambda ns: test_parallel_eval.a_misspelled_key_raises(
            ns["SuiteResult"]),
    "tests/test_topology.py::TestTopologySpec::"
    "test_empty_path_rejected_at_construction":
        lambda ns: test_topology.empty_path_rejected(ns["PathDef"]),
    "tests/test_scenarios.py::TestScenarioSuite::"
    "test_trace_axis_under_a_topology_rejected":
        lambda ns: test_scenarios.trace_axis_under_a_topology_rejected(
            ns["ScenarioSuite"]),
    NEXT_CALL_TRACE: lambda ns: signed_by(
        ns["Signer"], test_scenarios.reregistered_trace_changes_keys),
    NEXT_CALL_AGENT: lambda ns: signed_by(
        ns["Signer"], test_scenarios.in_place_agent_update_changes_keys),
    SIGNATURE_PIN: lambda ns: test_scenarios.signatures_are_pinned(
        ns["Signer"]),
    LRU_TOUCH: lambda ns: test_resilience.a_hit_touches_its_entry(
        ns["ResultCache"]),
    STATS_LOGGED: lambda ns: test_training_pipeline.rows_carry_their_update_stats(
        ns["OfflineTrainer"]),
    REPLAY_ORDER: lambda ns: adapted_by(ns["OfflineTrainer"]),
    GAE_READ: test_ppo.update_reads_gamma_and_lambda,
    ENTROPY_LAW: lambda ns: test_config.entropy_decays(ns["entropy_coef"]),
    **{parity: lambda ns, weight_dim=weight_dim: planned_by(
        ns["InferencePlan"], lambda: test_core_mocc.rates_equal_act_path_over_a_flow(
            weight_dim)) for weight_dim, parity in CONTROLLER_PARITY.items()},
    LIBRARY_PARITY: lambda ns: planned_by(
        ns["InferencePlan"], test_core_mocc.library_matches_act_path),
    ONE_BUFFER: lambda ns: test_core_mocc.history_is_the_plan_row(ns["MOCC"]),
    ORCA_PARITY: lambda ns: planned_by(
        ns["InferencePlan"], test_baselines.orca_scale_equals_act_path),
    SAMPLING_LAW: lambda ns: test_collectors.on_one_core(
        lambda: test_collectors.sampling_law_holds(ns["SerialCollector"])),
    ROWS_LAW: lambda ns: planned_by(
        ns["InferencePlan"], lambda: test_policy.batched_plans_equal_forward(3)),
    VECTOR_DIGEST: lambda ns: test_collectors.on_one_core(lambda: planned_by(
        ns["InferencePlan"],
        lambda: test_collectors.test_rollouts_keep_their_digest("vector-3"))),
    ANALYSIS_GATE: lambda ns: test_analysis.module_is_clean(
        ns["__file__"], ns["__source__"]),
    LOSS_DRAWS: lambda ns: test_link.loss_draws_follow_the_stream(ns["Link"]),
    FLAT_ADAM: lambda ns: test_optim.flat_equals_loop(
        ns["Adam"], [(3,), (4, 5)], seed=0, steps=3, grad_scale=1.0,
        max_norm=5.0),
}

#: ``(module, killer)`` for every killer named for a module.
MODULE_KILLERS = sorted({(mutant.module, killer)
                         for mutant in MUTANTS.values()
                         for killer in mutant.killers})


@pytest.mark.parametrize("mutant_id", MUTANTS)
def test_anchor_matches_once(mutant_id):
    mutated(mutant_id)  # raises naming the mutant when it does not


@pytest.mark.parametrize("module, killer", MODULE_KILLERS,
                         ids=[f"{module.rsplit('.', 1)[1]}-"
                              f"{killer.rsplit('::', 1)[1]}"
                              for module, killer in MODULE_KILLERS])
def test_unmutated_exec_passes_the_killer(module, killer):
    KILLERS[killer](load(module))


@pytest.mark.parametrize("mutant_id", MUTANTS)
def test_mutant_fails_its_killers(mutant_id):
    namespace = planted(mutant_id)
    for killer in MUTANTS[mutant_id].killers:
        try:
            KILLERS[killer](namespace)
        except (Exception, pytest.fail.Exception):  # a check's own raises
            continue
        pytest.fail(f"{mutant_id} survives {killer}")


def test_score_holds_the_table():
    scored = SCORE["mutants"]
    assert list(scored) == list(MUTANTS)
    for mutant_id, mutant in MUTANTS.items():
        killed_by = scored[mutant_id]["killed_by"]
        # A whole tier-1 run fails every killer the table names...
        assert set(mutant.killers) <= set(killed_by), mutant_id
        # ...and the mutant's class is its strongest killer's.
        assert scored[mutant_id]["class"] == max(killed_by.values(),
                                                 key=RANK.index)
    assert SCORE["classes"] == {
        cls: sum(entry["class"] == cls for entry in scored.values())
        for cls in RANK}


def test_every_killer_is_a_collected_test():
    named = {killer for entry in SCORE["mutants"].values()
             for killer in entry["killed_by"]}
    named |= {killer for _, killer in MODULE_KILLERS}
    files = sorted({killer.split("::")[0] for killer in named})
    listing = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *files],
        cwd=ROOT, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])})
    collected = set(listing.stdout.splitlines())
    assert sorted(named - collected) == []


def calls_to_exec(tree: ast.AST) -> list[int]:
    """Line numbers of every call to the builtin ``exec``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "exec"]


def test_only_the_mutants_module_calls_exec():
    found = {str(path.relative_to(ROOT)): lines
             for path in sorted(TESTS.rglob("*.py"))
             if (lines := calls_to_exec(ast.parse(path.read_text())))}
    assert list(found) == ["tests/mutants/__init__.py"]
    assert len(found["tests/mutants/__init__.py"]) == 1


def test_no_test_file_binds_a_defect_table():
    """A module-level ``DEFECTS``, ``DEFECT`` or ``SOURCE`` is what a
    fifth copy of the planting machinery would start with."""
    found = []
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            found += [f"{path.name}:{node.lineno} {target.id}"
                      for target in targets if isinstance(target, ast.Name)
                      and target.id in ("DEFECTS", "DEFECT", "SOURCE")]
    assert found == []
