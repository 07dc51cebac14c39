"""The defect corpus: every planted bug, and the one way to plant it.

A mutant is one anchored text substitution in one ``repro`` module.
:func:`planted` applies it to the module's pristine source, execs the
result under the module's own ``__name__`` and ``__file__`` and returns
the namespace; each caller takes the symbol it swaps in
(``Simulation``, ``Flow``, ``Link``, ...).  Because
the substitution is always made on the pristine text, two mutants may
share an anchor and each is planted alone.

A mutant's *killers* are the tests that must fail under it, named as
pytest prints them.  ``tests/test_mutants.py`` runs each killer's check
in process on the planted namespace -- it must fail -- and on the
unmutated exec, which must pass.  ``SCORE.json`` holds what a whole
tier-1 run fails with each mutant planted on disk
(``python -m mutants.score``), and the class of its strongest killer:

* ``digest`` -- compares against a stored digest or the unmutated run;
* ``example`` -- one hand-picked input with an expected outcome;
* ``law`` -- a law, an oracle, a property or a metamorphic relation.

The historical mutants (``pr<N>-...``) are bugs this repo once had and
fixed, put back one at a time.
"""

import importlib
from pathlib import Path
from typing import NamedTuple

#: The kill classes, weakest first.
RANK = ("digest", "example", "law")
ENGINE = "repro.netsim.network"
EVERY_KIND = "tests/test_engine_invariants.py::test_every_kind_run_keeps_its_digest"
RELATION_A = ("tests/test_metamorphic.py::"
              "test_a_brownout_after_the_end_changes_nothing")
RELATION_C = ("tests/test_metamorphic.py::"
              "test_doubling_a_four_second_lot_changes_nothing")
MI_ORACLE = "tests/test_mi_oracle.py::test_fixed_ramps_follow_the_closed_form"
LIFETIME = "tests/test_cell_lifetime.py::test_every_kind_cell_is_freed"
SINGLE_STEPPING = ("tests/test_batch.py::TestSimStateStepping::"
                   "test_single_stepping_every_fused_branch[step/dumbbell]")
SLICING = "tests/test_batch.py::test_any_slicing_keeps_the_one_shot_run"
#: A kernel-space batch of four identical intervals against one.
CCP_FOLD = ("tests/test_library_features.py::"
            "test_ccp_batch_of_identical_intervals_is_one_udt_interval[4]")
ENV_PARITY = "tests/test_env.py::test_episodes_keep_their_digest"
#: Eq. 2: each weight on its own component, the env's reward written
#: out, and O_loss over every packet of the interval.
EQ2_WEIGHTS = "tests/test_env.py::TestRewardComponents::test_weighted"
EQ2_ENV_REWARD = "tests/test_env.py::TestMoccEnv::test_reward_is_weighted_components"
EQ2_LOSS = "tests/test_env.py::TestRewardComponents::test_loss_penalty"
#: The pin of a training episode's link stream, one per pinned seed.
ENV_LINK_PINS = {seed: ("tests/test_rngstreams.py::TestBitIdentity::"
                        f"test_env_episode_link_is_affine[{seed}]")
                 for seed in (1, 6, 77)}


def law_killer(law: str) -> str:
    """The every-kind scenario's check of one conservation-file law."""
    return ("tests/test_conservation.py::"
            f"test_every_kind_scenario_keeps_the_law[{law}]")


def unseal_killer(bad: str) -> str:
    """The check that ``unseal`` refuses one malformed frame."""
    return ("tests/test_resilience.py::TestChecksStayAtReadTime::"
            f"test_unseal_refuses[{bad}]")


#: The checks that a signing pass keeps nothing past its call.
NEXT_CALL_TRACE = ("tests/test_scenarios.py::TestFingerprintCells::"
                   "test_reregistered_trace_changes_keys_on_next_call")
NEXT_CALL_AGENT = ("tests/test_scenarios.py::TestFingerprintCells::"
                   "test_in_place_agent_update_changes_keys_on_next_call")
#: The pinned signatures of 350 cells, and a cache hit's LRU touch.
SIGNATURE_PIN = "tests/test_scenarios.py::test_signatures_are_pinned"
LRU_TOUCH = ("tests/test_resilience.py::TestRawEntryIO::"
             "test_a_hit_touches_its_entry")

#: The checks of the one PPO loop: what a log row holds, and when an
#: online iteration draws its replayed objective.
STATS_LOGGED = ("tests/test_training_pipeline.py::TestOfflineTrainer::"
                "test_every_row_carries_its_update_stats")
REPLAY_ORDER = ("tests/test_training_pipeline.py::TestOnlineAdapter::"
                "test_replay_drawn_between_rollouts")
#: The discount and GAE lambda a PPO update reads from Table 2's
#: constants, and the direction of the entropy schedule.
GAE_READ = "tests/test_ppo.py::TestTrainingRecipe::test_update_reads_gamma_and_lambda"
ENTROPY_LAW = "tests/test_config.py::TestEntropyDecay::test_monotone_decreasing"

#: The deployed policies against ``model.act``'s mean branch: the
#: simulator's rate controllers, the §5 library and Orca.
CONTROLLER_PARITY = {
    weight_dim: ("tests/test_core_mocc.py::TestInferencePath::"
                 f"test_rates_equal_act_path_over_a_flow[{weight_dim}]")
    for weight_dim in (3, 0)}
LIBRARY_PARITY = ("tests/test_core_mocc.py::TestInferencePath::"
                  "test_library_matches_act_path")
#: The §5 library's history is its plan's observation row.
ONE_BUFFER = ("tests/test_core_mocc.py::TestInferencePath::"
              "test_history_is_the_plan_row")
ORCA_PARITY = ("tests/test_baselines.py::TestRLBaselines::"
               "test_orca_scale_equals_act_path")

#: The sampling law of a collected rollout, and the flat Adam step
#: against the per-parameter loop.
SAMPLING_LAW = "tests/test_collectors.py::test_rollout_samples_by_the_law"
#: A batched plan against a batched ``forward``, and the pinned
#: rollouts of the three-env collector.
ROWS_LAW = ("tests/test_policy.py::TestInferencePlan::"
            "test_every_method_equals_forward_bit_for_bit[3]")
VECTOR_DIGEST = "tests/test_collectors.py::test_rollouts_keep_their_digest[vector-3]"
FLAT_ADAM = "tests/test_optim.py::test_flat_optimizers_equal_per_parameter_loop"
#: The zero-findings gate of the determinism analyzer, and the wire-loss
#: draws of a lossy link against the stream's scalar draws.
ANALYSIS_GATE = "tests/test_analysis.py::test_the_package_has_no_findings"
LOSS_DRAWS = ("tests/test_link.py::TestTransmit::"
              "test_wire_loss_draws_are_the_streams_scalar_draws")


class Mutant(NamedTuple):
    module: str
    old: str
    new: str
    killers: tuple


MUTANTS = {
    # Engine wiring the interpreter, not a lint rule, enforces: the
    # handler table, the five-field heap tuples, Packet's slots and
    # Link.transmit's four-value result.
    "rto-slot-dropped": Mutant(
        ENGINE,
        "Simulation._handle_ack_rto, Simulation._handle_mi)",
        "Simulation._handle_mi)",
        (EVERY_KIND,)),
    "loss-rto-swapped": Mutant(
        ENGINE,
        "None, None, Simulation._handle_loss,\n"
        "    Simulation._handle_ack_rto, Simulation._handle_mi)",
        "None, None, Simulation._handle_ack_rto,\n"
        "    Simulation._handle_loss, Simulation._handle_mi)",
        (EVERY_KIND,)),
    "hop-slot-none": Mutant(
        ENGINE,
        "Simulation._handle_start, None, Simulation._advance_packet,",
        "Simulation._handle_start, None, None,",
        (EVERY_KIND,)),
    "push-4-tuple": Mutant(
        ENGINE,
        "heappush(self._heap, (time, seq, kind, flow, packet))",
        "heappush(self._heap, (time, seq, kind, flow))",
        (EVERY_KIND,)),
    "reverse-loss-4-tuple": Mutant(
        ENGINE,
        "heappush(self._heap, (cursor, seq, EV_LOSS, flow, packet))",
        "heappush(self._heap, (cursor, seq, EV_LOSS, flow))",
        (EVERY_KIND,)),
    "rto-literal-kind": Mutant(
        ENGINE,
        "self._push(self.now + rto, EV_RTO, flow, packet)",
        "self._push(self.now + rto, 5, flow, packet)",
        (EVERY_KIND,)),
    "slot-typo-ack-dropped": Mutant(
        ENGINE,
        "packet.ack_dropped = True",
        "packet.ack_droped = True",
        (EVERY_KIND,)),
    "slot-typo-ack-recovered": Mutant(
        ENGINE,
        "recovered.ack_recovered = True",
        "recovered.ack_recoverd = True",
        (EVERY_KIND,)),
    "slot-typo-drop-kind": Mutant(
        ENGINE,
        "packet.drop_kind = drop_kind",
        "packet.drop_knd = drop_kind",
        (EVERY_KIND,)),
    "forward-hop-3-unpack": Mutant(
        ENGINE,
        "delivered, drop_kind, depart, queue_delay = \\\n"
        "            flow.links[hop].transmit(self.now)",
        "delivered, drop_kind, depart = \\\n"
        "            flow.links[hop].transmit(self.now)",
        (EVERY_KIND,)),
    "reverse-walk-3-unpack": Mutant(
        ENGINE,
        "delivered, drop_kind, depart, queue_delay = \\\n"
        "            link.transmit(self.now, size)",
        "delivered, drop_kind, depart = \\\n"
        "            link.transmit(self.now, size)",
        (EVERY_KIND,)),
    # A simulation that references itself is a cycle: a finished cell
    # waits for the cyclic collector instead of freeing itself.
    "engine-self-reference": Mutant(
        ENGINE,
        "        return SimState(self)",
        "        self._state = SimState(self)\n"
        "        return self._state",
        (LIFETIME,)),
    # One per engine law, each breaking the law it names.
    "stale-rto-counted": Mutant(
        ENGINE,
        "        if flow.pending_acks.pop(packet.seq, None) is None:\n"
        "            return  # already recovered by a later cumulative ack\n",
        "        flow.pending_acks.pop(packet.seq, None)\n",
        (law_killer("conservation"),)),
    "recovered-ack-left-parked": Mutant(
        ENGINE,
        "recovered = flow.pending_acks.pop(seq)",
        "recovered = flow.pending_acks[seq]",
        (law_killer("conservation"),)),
    "loss-noted-twice": Mutant(
        ENGINE,
        "        self._recover_pending(flow, packet.seq)\n"
        "        flow.note_loss(packet, self.now)\n",
        "        self._recover_pending(flow, packet.seq)\n"
        "        flow.note_loss(packet, self.now)\n"
        "        flow.note_loss(packet, self.now)\n",
        (law_killer("conservation"),)),
    # A buffer drop re-offered to its link once the queue ahead of it
    # drains: an offer stamped in the future, so later arrivals come in
    # behind it.
    "drop-reoffered-at-drain": Mutant(
        ENGINE,
        "cursor = self.now + queue_delay + links[hop].delay",
        "cursor = links[hop].transmit(self.now + queue_delay)[2]",
        (law_killer("fifo"),)),
    # "No cap" spelled as a negative budget, then tested with ``<``:
    # every slice drains nothing.
    "negative-budget-drains-nothing": Mutant(
        ENGINE,
        "while processed != budget:",
        "while processed < budget:",
        (law_killer("clock"),)),
    # The event a branch scheduled last waits in a loop local instead
    # of the heap: dropped when a step_events budget runs out, or
    # handled next without racing the heap's earliest event.
    "held-lost-at-slice-end": Mutant(
        ENGINE,
        "            if held is not None:\n"
        "                heappush(heap, held)\n"
        "            # Also when a hook raises",
        "            # Also when a hook raises",
        (SLICING, SINGLE_STEPPING)),
    "held-jumps-the-heap": Mutant(
        ENGINE,
        "item = heappushpop(heap, held)",
        "item = held",
        (law_killer("clock"),)),
    # A later hop's service demand in bytes, not packet-equivalents.
    "hop-size-in-bytes": Mutant(
        ENGINE,
        "flow.links[hop].transmit(self.now)",
        "flow.links[hop].transmit(self.now, packet.size_bytes)",
        (law_killer("backlog"), RELATION_C)),
    # The fault-only backlog step counts the arriving packet as queued,
    # so a link with a fault process, even an idle one, admits one
    # packet fewer than a link without.
    "faulted-drop-tail": Mutant(
        "repro.netsim.link",
        "                backlog_base = recovery\n",
        "                backlog_base = recovery\n"
        "            backlog_base -= 1.0 / rate\n",
        (RELATION_A,)),
    # The monitor-interval statistics against their closed form.
    "uncentred-ack-times": Mutant(
        "repro.netsim.sender",
        "                t_center = times - np.add.reduce(times) / n\n",
        "                t_center = times\n",
        (MI_ORACLE,)),
    "mean-over-n-plus-one": Mutant(
        "repro.netsim.sender",
        "rtt_mean = np.add.reduce(rtts) / n\n",
        "rtt_mean = np.add.reduce(rtts) / (n + 1)\n",
        (MI_ORACLE,)),
    "max-throughput-never-raised": Mutant(
        "repro.netsim.history",
        "                self.max_throughput = throughput\n",
        "                pass\n",
        (MI_ORACLE,)),
    # The deployed path's features against training's: a kernel-space
    # fold that reports no RTT slope.
    "udt-drops-the-slope": Mutant(
        "repro.core.agent",
        "gradient = sum(g * a for _, g, a in rtts) / total_acked",
        "gradient = 0.0",
        (CCP_FOLD,)),
    # A training episode's link seeded with the raw episode seed: its
    # wire loss is no longer the stream env.py once built by hand.
    "env-link-seeded-by-episode": Mutant(
        "repro.netsim.env",
        "7919 * episode.seed + 1",
        "episode.seed",
        (ENV_PARITY, *ENV_LINK_PINS.values())),
    # Eq. 2's reward: the latency term weighted by w_loss, and O_loss
    # counted against the acked packets alone.
    "reward-lat-loss-swapped": Mutant(
        "repro.netsim.env",
        "weights[1] * self.o_lat",
        "weights[2] * self.o_lat",
        (EQ2_WEIGHTS, EQ2_ENV_REWARD)),
    "o-loss-over-acked-only": Mutant(
        "repro.netsim.env",
        "total = stats.lost + stats.acked",
        "total = stats.acked",
        (EQ2_LOSS, ENV_PARITY)),
    # The record codec's read-time checks: a frame whose body goes on
    # after its last block, a block length nobody compares with its
    # row count.
    "frame-trailing-bytes-accepted": Mutant(
        "repro.eval.resilience",
        "    if at != len(frame):\n",
        "    if False:\n",
        (unseal_killer("trailing-byte"),)),
    "block-length-check-dropped": Mutant(
        "repro.eval.resilience",
        "if len(block) != _block_size(rows):",
        "if False and len(block) != _block_size(rows):",
        (unseal_killer("one-byte-short"),)),
    # Bugs this repo has fixed, planted back.
    "pr1-convergence-offset": Mutant(
        "repro.core.online",
        "offset = smooth - 1",
        "offset = 0",
        ("tests/test_core_mocc.py::TestAdaptationTrace::"
         "test_convergence_smoothing_recentered_on_window_end",)),
    "pr29-frac-max-threshold": Mutant(
        "repro.core.online",
        "r[0] + 0.99 * (r.max() - r[0])",
        "0.99 * r.max()",
        ("tests/test_core_mocc.py::TestAdaptationTrace::"
         "test_convergence_of_a_curve_that_starts_high",)),
    "pr2-final-mi-stop-clamped": Mutant(
        ENGINE,
        "                end = min(max(end, flow.last_event_time), "
        "self.duration)\n",
        "",
        ("tests/test_topology.py::TestSimulationOverTopology::"
         "test_stop_time_mi_accounting_not_inflated",)),
    "pr2-trace-mean-endpoints": Mutant(
        "repro.netsim.traces",
        "(t0 + (np.arange(samples) + 0.5) * width)",
        "np.linspace(t0, t1, samples)",
        ("tests/test_traces.py::TestStepTrace::test_mean_uses_true_midpoints",)),
    "pr2-loss-notice-no-queue": Mutant(
        ENGINE,
        "cursor = self.now + queue_delay + links[hop].delay",
        "cursor = self.now + links[hop].delay",
        ("tests/test_topology.py::TestSimulationOverTopology::"
         "test_loss_notice_charges_downstream_queue_occupancy",)),
    "pr3-downstream-queue-missing": Mutant(
        ENGINE,
        "cursor += (l.queue_delay_at(cursor)\n"
        "                       + 1.0 / l.bandwidth_at(cursor) + l.delay)",
        "cursor += l.delay",
        ("tests/test_topology.py::TestSimulationOverTopology::"
         "test_loss_notice_charges_downstream_queue_occupancy",)),
    "pr5-ack-wire-drop-not-parked": Mutant(
        ENGINE,
        "if not delivered and not packet.dropped:",
        'if drop_kind == "buffer" and not packet.dropped:',
        ("tests/test_ack_wire_drop.py::TestWireDroppedAcks::"
         "test_wire_drops_park_and_recover",)),
    # A one-off query through the caching forward (PR 19 had it in the
    # single-state value query, which is gone).
    "pr19-value-through-forward": Mutant(
        "repro.rl.policy",
        "        return self.plan(weights).act(obs, rng, deterministic)\n",
        "        mean, value = self.forward(obs, weights)\n"
        "        log_std = self.log_std.value\n"
        "        action = mean[0] if deterministic else DiagGaussian.sample(\n"
        "            mean, log_std, rng)[0]\n"
        "        log_prob = DiagGaussian.log_prob(action, mean, log_std)\n"
        "        return action, float(log_prob[0]), float(value[0])\n",
        ("tests/test_policy.py::TestBackward::"
         "test_single_state_queries_leave_backward_caches_alone[3]",)),
    "pr22-unfrozen-list": Mutant(
        "repro.netsim.traces",
        "setattr(trace, name, tuple(value))",
        "pass",
        ("tests/test_batch.py::TestCellIsolation::"
         "test_walker_accepts_frozen_shared_trace[leo-handover]",)),
    "pr23-stream-outside-census": Mutant(
        "repro.netsim.link",
        'stream_rng("link.default",\n'
        "                                                          name)",
        "np.random.default_rng(0)",
        ("tests/test_rngstreams.py::TestLinkDefaultFallback::"
         "test_fallback_disjoint_from_legacy_shared_stream",)),
    "pr27-none-bit-check-dropped": Mutant(
        "repro.eval.resilience",
        "if any(mask >> rows for mask in _gap_masks(block, rows)):",
        "if False:",
        (unseal_killer("none-bit-beyond-rows"),)),
    "pr28-filter-key-get": Mutant(
        "repro.eval.parallel",
        "if all(r[k] == v for k, v in equals.items())",
        "if all(r.get(k) == v for k, v in equals.items())",
        ("tests/test_parallel_eval.py::TestSuiteTable::"
         "test_a_misspelled_key_raises_instead_of_nan",)),
    "pr30-empty-pathdef": Mutant(
        "repro.netsim.topology",
        "        if not self.links:\n"
        '            raise ValueError(f"path {self.name!r} traverses no links")\n',
        "",
        ("tests/test_topology.py::TestTopologySpec::"
         "test_empty_path_rejected_at_construction",)),
    "pr30-trace-axis-beside-topology": Mutant(
        "repro.eval.scenarios",
        "if any(trace is not None for trace in self.traces) and",
        "if False and",
        ("tests/test_scenarios.py::TestScenarioSuite::"
         "test_trace_axis_under_a_topology_rejected",)),
    # One memo shared by every Signer: a key outlives its signing pass.
    "signer-memo-outlives-pass": Mutant(
        "repro.netsim.signing",
        "    def __init__(self):\n        self._memo: dict = {}\n",
        "    _memo: dict = {}\n",
        (NEXT_CALL_TRACE, NEXT_CALL_AGENT)),
    # The signing plan leaves out each class's last field, so cells
    # that differ only there share a key.
    "signer-plan-drops-last-field": Mutant(
        "repro.netsim.signing",
        "    return shape, tuple(plan)\n",
        "    return shape, tuple(plan[:-1])\n",
        (SIGNATURE_PIN,)),
    # A hit leaves its entry's mtime alone: eviction takes hot entries.
    "cache-hit-skips-lru-touch": Mutant(
        "repro.eval.resilience",
        "            os.utime(path)  # LRU touch: a hit keeps the entry young\n",
        "            pass\n",
        (LRU_TOUCH,)),
    # The log keeps a zeroed copy of each update's statistics.
    "ppo-stats-dropped": Mutant(
        "repro.core.offline",
        "        stats = self.ppo.update(buffers, boots)\n",
        "        self.ppo.update(buffers, boots)\n"
        "        stats = PPOStats(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)\n",
        (STATS_LOGGED,)),
    # The loop lists its objectives up front, so online adaptation
    # draws the replayed one before the new objective's rollout.
    "online-replay-drawn-first": Mutant(
        "repro.core.offline",
        "for w in objectives:",
        "for w in list(objectives):",
        (REPLAY_ORDER,)),
    # The update discounts advantages with gamma where lambda goes.
    "ppo-lambda-is-gamma": Mutant(
        "repro.rl.ppo",
        "b.compute(DISCOUNT_FACTOR, GAE_LAMBDA, v)",
        "b.compute(DISCOUNT_FACTOR, DISCOUNT_FACTOR, v)",
        (GAE_READ,)),
    # beta runs from 0.1 up to 1 instead of decaying from 1 to 0.1.
    "entropy-schedule-swapped": Mutant(
        "repro.config",
        "ENTROPY_START = 1.0\nENTROPY_END = 0.1\n",
        "ENTROPY_START = 0.1\nENTROPY_END = 1.0\n",
        (ENTROPY_LAW,)),
    # A deployed policy that samples its action instead of acting on
    # the actor's mean.
    "deployed-action-sampled": Mutant(
        "repro.rl.policy",
        "        return _run(self._actor, self._joint).item(0)\n",
        "        return float(DiagGaussian.sample(\n"
        "            _run(self._actor, self._joint), self._log_std.value,\n"
        "            np.random.default_rng(0))[0])\n",
        (*CONTROLLER_PARITY.values(), LIBRARY_PARITY, ORCA_PARITY)),
    # A re-register resolves the new plan but leaves the history on the
    # first plan's row: the actor reads a row nothing writes any more.
    "history-left-on-old-row": Mutant(
        "repro.core.library",
        "        self.history.buffer = plan.obs\n",
        "        if self._plan is None:\n"
        "            self.history.buffer = plan.obs\n",
        (ONE_BUFFER,)),
    # Every step of a rollout takes the block's first noise row.
    "rollout-noise-row-reused": Mutant(
        "repro.rl.parallel",
        "        actions = mean + scaled_noise[t]\n",
        "        actions = mean + scaled_noise[0]\n",
        (SAMPLING_LAW,)),
    # Each step's log-probability is scored against the previous
    # step's mean (the first step's against its own).
    "rollout-logprob-stale-mean": Mutant(
        "repro.rl.parallel",
        "        means[:, t] = mean\n",
        "        means[:, t] = mean if t == 0 else previous\n"
        "        previous = mean\n",
        (SAMPLING_LAW,)),
    # A batched plan fills only its first row's preference half; the
    # other rows see a zero embedding.
    "plan-pref-first-row-only": Mutant(
        "repro.rl.policy",
        "            joint[:, model.obs_dim:] = pref\n",
        "            joint[:1, model.obs_dim:] = pref[:1]\n",
        (VECTOR_DIGEST, ROWS_LAW)),
    # Adam's numerator and denominator share one scratch vector.
    "adam-scratch-aliased": Mutant(
        "repro.rl.optim",
        "        self._den = np.empty_like(params.value)\n",
        "        self._den = self._num\n",
        (FLAT_ADAM,)),
    # The wire-loss block hands every offer its first uniform.
    "link-loss-block-not-advanced": Mutant(
        "repro.netsim.link",
        "        self._loss_pos = pos + 1\n",
        "        self._loss_pos = pos\n",
        (LOSS_DRAWS,)),
    # One per family of the determinism analyzer's checks.  rng: the
    # model initialisation builds its own generator from the same
    # entropy, bit-identical and outside the stream table.
    "agent-init-rng-outside-census": Mutant(
        "repro.core.agent",
        'rng = stream_rng("agent.init", ',
        "rng = np.random.default_rng(",
        (ANALYSIS_GATE,)),
    # determinism: a bad reverse-path axis names its unknown paths in
    # set (hash) order, so the error text differs between processes.
    "unknown-paths-in-set-order": Mutant(
        "repro.netsim.topology",
        "        unknown = sorted(set(reverse) - known)\n",
        "        unknown = [name for name in set(reverse) - known]\n",
        (ANALYSIS_GATE,)),
    # global-state: minted generators memoized in the module's table,
    # so two cells of one seed in one process share a generator.
    "stream-rng-memoized-process-wide": Mutant(
        "repro.netsim.rngstreams",
        "    return np.random.default_rng(STREAMS[name][1](*material, **named))\n",
        "    return STREAMS.setdefault((name, *material), np.random.default_rng(\n"
        "        STREAMS[name][1](*material, **named)))\n",
        (ANALYSIS_GATE,)),
}


def source(module: str) -> str:
    """The pristine source of ``module``, read from disk."""
    return Path(importlib.import_module(module).__file__).read_text()


def mutated(mutant_id: str) -> str:
    """The module source with the mutant's one substitution made.

    The anchor check: the mutant's ``old`` text must occur exactly once
    in the pristine source."""
    module, old, new, _ = MUTANTS[mutant_id]
    text = source(module)
    if text.count(old) != 1:
        raise ValueError(f"{mutant_id}: its anchor occurs "
                         f"{text.count(old)} times in {module}; re-anchor it")
    return text.replace(old, new)


def load(module: str, text: str | None = None) -> dict:
    """Exec ``text`` (default: the pristine source) as ``module`` and
    return the namespace it defines, with the text under
    ``__source__`` for the checks that read source, not behaviour."""
    real = importlib.import_module(module)
    text = source(module) if text is None else text
    namespace = {"__name__": real.__name__, "__file__": real.__file__}
    exec(compile(text, real.__file__, "exec"), namespace)
    namespace["__source__"] = text
    return namespace


def planted(mutant_id: str) -> dict:
    """The namespace of the mutant's module with the mutant planted."""
    return load(MUTANTS[mutant_id].module, mutated(mutant_id))
