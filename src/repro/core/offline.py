"""Two-phase offline training (§4.2).

Enumerating every possible objective is intractable (the preference
simplex is continuous), so MOCC trains on ``omega`` landmark objectives
in two phases:

1. **Bootstrapping** -- a small number of objectives (three, Appendix B)
   are trained to (near) convergence, producing a base model whose
   pivot policies are close to the convex coverage set.
2. **Fast traversing** -- the remaining ``omega - 3`` objectives are
   visited in the neighbourhood-sorted order (Algorithm 1), each for
   only a few PPO iterations, cycling until improvement flattens out.
   Because neighbouring objectives have close optimal policies, each
   visit starts from an almost-right model and needs very little work
   -- this is the transfer-learning speedup measured in Fig. 19.

For the paper's comparisons the module also provides *individual
training* (one single-objective model per objective, no transfer): the
Fig. 19 baseline, the "enhanced Aurora" of Fig. 6, and the from-scratch
Aurora adaptation curve of Fig. 7a.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.config import BOOTSTRAP_OBJECTIVES, DEFAULT_TRAINING, TRAINING_RANGES, TrainingConfig
from repro.core.agent import MoccAgent
from repro.core.sorting import neighborhood_sort
from repro.core.weights import simplex_grid, step_for_omega
from repro.rl.collect import evaluate_policy
from repro.rl.parallel import EnvSpec, SerialCollector
from repro.rl.ppo import PPOConfig, PPOTrainer

__all__ = ["ObjectiveLog", "OfflineResult", "OfflineTrainer",
           "train_single_objective", "train_individual"]


@dataclass
class ObjectiveLog:
    """One PPO iteration's record during offline training."""

    phase: str
    objective: tuple
    iteration: int
    mean_reward: float


@dataclass
class OfflineResult:
    """Output of :meth:`OfflineTrainer.train`."""

    agent: MoccAgent
    landmarks: np.ndarray
    traversal: list[int]
    log: list[ObjectiveLog] = field(repr=False)
    wall_time: float = 0.0
    total_iterations: int = 0


class OfflineTrainer:
    """Drives the two-phase offline training of a :class:`MoccAgent`."""

    def __init__(self, spec: EnvSpec | None = None,
                 config: TrainingConfig = DEFAULT_TRAINING, seed: int = 0):
        self.spec = spec or EnvSpec(ranges=TRAINING_RANGES, seed=seed)
        self.config = config
        self.agent = MoccAgent(config, seed=seed)
        self.ppo = PPOTrainer(self.agent.model,
                              PPOConfig.from_training_config(config),
                              rng=np.random.default_rng(seed + 1))
        self.collector = SerialCollector(self.spec)
        self.rng = np.random.default_rng(seed + 2)
        self.log: list[ObjectiveLog] = []
        self._iteration = 0

    # --- building blocks ---------------------------------------------------

    def train_objectives_jointly(self, objectives, iterations: int,
                                 phase: str = "joint") -> float:
        """PPO iterations over several objectives *simultaneously*.

        Each iteration collects one rollout per objective and performs a
        pooled update: minibatches mix samples whose states are similar
        but whose weight vectors (and therefore correct actions and
        values) differ, so the loss can only be reduced through the
        preference sub-network.  Training objectives in sequential
        blocks instead would let each block fit the current objective
        while ignoring the preference input -- and be overwritten by the
        next block (catastrophic interference).
        """
        objectives = [np.asarray(w, dtype=np.float64) for w in objectives]
        mean_reward = 0.0
        for _ in range(iterations):
            buffers, boots, rewards = [], [], []
            for w in objectives:
                bufs, bs, mr = self.collector.collect(
                    self.agent.model, w, self.config.steps_per_iteration, self.rng)
                buffers.extend(bufs)
                boots.extend(bs)
                rewards.append(mr)
            self.ppo.update(buffers, boots)
            self._iteration += 1
            mean_reward = float(np.mean(rewards))
            for w, r in zip(objectives, rewards):
                self.log.append(ObjectiveLog(phase, tuple(np.round(w, 6)),
                                             self._iteration, r))
        return mean_reward

    # --- the §4.2 procedure ----------------------------------------------------

    def train(self, omega: int = 36, bootstrap_iters: int = 30,
              traverse_iters: int = 2, cycles: int = 2,
              bootstraps=BOOTSTRAP_OBJECTIVES) -> OfflineResult:
        """Two-phase offline training over an ``omega``-landmark grid.

        **Bootstrapping** trains the three pivot objectives jointly for
        ``bootstrap_iters`` iterations; joint (mixed-minibatch) updates
        are what teach the preference sub-network to *separate*
        objectives (see :meth:`train_objectives_jointly`).

        **Fast traversing** then visits the remaining landmarks in the
        neighbourhood-sorted order (Algorithm 1), ``traverse_iters``
        iterations each per cycle ("we do not train an objective until
        convergence but only for a few steps", §4.2).  Every visit
        trains the landmark *jointly with all bootstrap anchors*: the
        landmark grid is dominated by latency/loss-leaning objectives
        whose individually-optimal policies are conservative, and
        visiting them alone drags the shared trunk toward an idle
        policy for every objective (the multi-objective analogue of
        catastrophic forgetting the paper counters with replay).
        """
        start = time.perf_counter()
        grid = simplex_grid(step_for_omega(omega))
        order = neighborhood_sort(grid, bootstraps)
        anchors = [np.asarray(b, dtype=np.float64) for b in bootstraps]

        self.train_objectives_jointly(anchors, bootstrap_iters, phase="bootstrap")

        bootstrap_set = {tuple(np.round(a, 6)) for a in anchors}
        for _ in range(cycles):
            for idx in order:
                w = grid[idx]
                if tuple(np.round(w, 6)) in bootstrap_set:
                    continue
                self.train_objectives_jointly([w, *anchors], traverse_iters,
                                              phase="traverse")

        return OfflineResult(
            agent=self.agent, landmarks=grid, traversal=order, log=list(self.log),
            wall_time=time.perf_counter() - start, total_iterations=self._iteration)

    def train_individual_style(self, omega: int = 36,
                               iters_per_objective: int = 30) -> OfflineResult:
        """Ablation: every landmark trained independently, no transfer.

        The model is still shared (so the comparison isolates the
        *schedule*, not the architecture), but each objective receives a
        full ``iters_per_objective`` budget with no neighbourhood
        ordering -- the "Individual Training" bar of Fig. 19.
        """
        start = time.perf_counter()
        grid = simplex_grid(step_for_omega(omega))
        for w in grid:
            self.train_objectives_jointly([w], iters_per_objective,
                                          phase="individual")
        return OfflineResult(
            agent=self.agent, landmarks=grid, traversal=list(range(len(grid))),
            log=list(self.log), wall_time=time.perf_counter() - start,
            total_iterations=self._iteration)


def train_single_objective(spec: EnvSpec, weights, iterations: int,
                           config: TrainingConfig = DEFAULT_TRAINING,
                           seed: int = 0, eval_every: int = 0
                           ) -> tuple[MoccAgent, list[float], list[tuple[int, float]]]:
    """Train a *single-objective* agent (no preference sub-network).

    This is the Aurora training procedure (Fig. 2a): the weight vector
    parameterises only the environment's reward.  Returns the agent,
    the per-iteration mean episode rewards, and (optionally) sparser
    deterministic evaluation marks every ``eval_every`` iterations.
    """
    weights = np.asarray(weights, dtype=np.float64)
    agent = MoccAgent(config, weight_dim=0, seed=seed)
    trainer = PPOTrainer(agent.model, PPOConfig.from_training_config(config),
                         rng=np.random.default_rng(seed + 1))
    collector = SerialCollector(spec)
    rng = np.random.default_rng(seed + 2)
    eval_env = spec.build(seed_offset=99_991)

    trace: list[float] = []
    marks: list[tuple[int, float]] = []
    for it in range(iterations):
        buffers, boots, mean_reward = collector.collect(
            agent.model, weights, config.steps_per_iteration, rng)
        trainer.update(buffers, boots)
        trace.append(mean_reward)
        if eval_every and (it % eval_every == 0 or it == iterations - 1):
            marks.append((it, evaluate_policy(eval_env, agent.model, weights)))
    return agent, trace, marks


def train_individual(spec: EnvSpec, objectives, iterations: int,
                     config: TrainingConfig = DEFAULT_TRAINING,
                     seed: int = 0) -> dict[tuple, MoccAgent]:
    """One independent single-objective model per objective.

    Used for the "enhanced Aurora" of Fig. 6 (10 pre-trained models)
    and the individual-training wall-clock baseline of Fig. 19.
    """
    models: dict[tuple, MoccAgent] = {}
    for i, w in enumerate(np.atleast_2d(np.asarray(objectives, dtype=np.float64))):
        agent, _, _ = train_single_objective(spec, w, iterations, config, seed=seed + i)
        models[tuple(np.round(w, 6))] = agent
    return models
