"""Fig. 7: quick adaptation to new applications (§6.2).

(a) MOCC adapts to an unseen objective via transfer from the offline
    model: higher initial reward and far fewer iterations to reach 99 %
    of the maximum reward gain than Aurora training from scratch
    (paper: 45 vs 639 iterations, 14.2x; 1.8x initial reward).
(b) While adapting, requirement replay (Eq. 6) preserves the old
    application's performance (paper: <5 % loss), whereas a
    single-objective model forgets it (916.1 -> 156.1).
"""

import numpy as np
from conftest import print_table, run_once

from repro.config import BOOTSTRAP_OBJECTIVES, DEFAULT_TRAINING, TRAINING_RANGES
from repro.core.online import AdaptationTrace, OnlineAdapter
from repro.core.offline import OfflineTrainer, train_single_objective
from repro.core.weights import THROUGHPUT_WEIGHTS
from repro.rl.collect import evaluate_policy
from repro.rl.parallel import EnvSpec

#: An objective not on the omega=36 landmark grid (unforeseen app).
NEW_OBJECTIVE = np.array([0.45, 0.44, 0.11])
SPEC = EnvSpec(ranges=TRAINING_RANGES, max_steps=96, seed=9)


def bench_fig7a_quick_adaptation(benchmark, mocc_agent):
    def experiment():
        agent = mocc_agent.clone()  # do not mutate the shared fixture
        adapter = OnlineAdapter(agent, SPEC, seed=9)
        adapter.seed_replay(BOOTSTRAP_OBJECTIVES)
        mocc_trace = adapter.adapt(NEW_OBJECTIVE, iterations=25, eval_every=0)
        _, scratch_trace = train_single_objective(SPEC, NEW_OBJECTIVE, 50, seed=9)
        return mocc_trace, scratch_trace

    mocc_trace, scratch_trace = run_once(benchmark, experiment)
    mocc_conv = mocc_trace.convergence_iteration(smooth=3)
    scratch = np.asarray(scratch_trace)
    # Same definition (and window re-centering) as the MOCC trace.
    scratch_conv = AdaptationTrace(
        rewards=list(scratch)).convergence_iteration(smooth=3)

    print_table(
        "Fig 7a: adapting to an unseen objective",
        ["metric", "MOCC (transfer)", "Aurora (scratch)"],
        [["initial reward", mocc_trace.rewards[0], float(scratch[0])],
         ["final reward", mocc_trace.rewards[-1], float(scratch[-1])],
         ["iterations to 99% gain", mocc_conv, scratch_conv],
         ["speedup", float(scratch_conv) / max(mocc_conv, 1), 1.0]])

    # Transfer from the offline correlation model starts far better and
    # converges in fewer iterations than training from scratch.
    assert mocc_trace.rewards[0] > 1.2 * scratch[0]
    assert mocc_conv <= scratch_conv


def bench_fig7b_no_forgetting(benchmark, mocc_agent, aurora_throughput):
    old_objective = THROUGHPUT_WEIGHTS

    def experiment():
        # MOCC with requirement replay (Eq. 6).
        agent = mocc_agent.clone()
        adapter = OnlineAdapter(agent, SPEC, seed=11)
        adapter.seed_replay([old_objective, *BOOTSTRAP_OBJECTIVES])
        trace = adapter.adapt(NEW_OBJECTIVE, iterations=16, eval_every=4,
                              old_weights=old_objective, use_replay=True)

        # Aurora: continue training its fixed model toward the new
        # objective; its behaviour on the old objective degrades freely.
        aurora = aurora_throughput.clone()
        trainer = OfflineTrainer(SPEC, DEFAULT_TRAINING, seed=11, agent=aurora)
        eval_env = SPEC.build(seed_offset=555)
        aurora_old = [evaluate_policy(eval_env, aurora.model, old_objective)]
        for it in range(16):
            trainer.iterate([NEW_OBJECTIVE], "aurora")
            if (it + 1) % 4 == 0:
                aurora_old.append(
                    evaluate_policy(eval_env, aurora.model, old_objective))
        return trace, aurora_old

    trace, aurora_old = run_once(benchmark, experiment)
    mocc_old = [v for _, v in trace.old_marks]
    print_table("Fig 7b: old-objective reward while adapting to the new one",
                ["snapshot", "MOCC (replay)", "Aurora"],
                [[i, mocc_old[min(i, len(mocc_old) - 1)],
                  aurora_old[min(i, len(aurora_old) - 1)]]
                 for i in range(max(len(mocc_old), len(aurora_old)))])
    retention = trace.old_objective_retention()
    aurora_retention = min(aurora_old) / max(aurora_old[0], 1e-9)
    print(f"retention: MOCC {retention:.2f}, Aurora {aurora_retention:.2f}")

    # Requirement replay preserves the old application's performance.
    assert retention > 0.6
    assert retention >= aurora_retention - 0.05
