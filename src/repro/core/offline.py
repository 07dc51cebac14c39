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

Every kind of training is a sequence of :meth:`OfflineTrainer.iterate`
calls.  The procedure above is :func:`landmark_schedule`; individual
training (the Fig. 19 baseline), single-objective Aurora training
(:func:`train_single_objective`, Figs. 6 and 7a) and online adaptation
(:mod:`repro.core.online`) are other sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import (BOOTSTRAP_OBJECTIVES, DEFAULT_TRAINING, TRAINING_RANGES,
                          TrainingConfig)
from repro.core.agent import MoccAgent
from repro.core.sorting import neighborhood_sort
from repro.core.weights import simplex_grid, step_for_omega
from repro.rl.parallel import EnvSpec, SerialCollector
from repro.rl.ppo import PPOStats, PPOTrainer

__all__ = ["ObjectiveLog", "OfflineResult", "OfflineTrainer",
           "landmark_schedule", "train_single_objective"]


@dataclass
class ObjectiveLog:
    """One rollout's record, with the statistics of its PPO update."""

    phase: str
    objective: tuple
    iteration: int
    mean_reward: float
    stats: PPOStats


@dataclass
class OfflineResult:
    """Output of :meth:`OfflineTrainer.run`."""

    agent: MoccAgent
    log: list[ObjectiveLog] = field(repr=False)
    total_iterations: int = 0


def landmark_schedule(omega: int, bootstrap_iters: int, traverse_iters: int,
                      cycles: int) -> list[tuple[str, tuple]]:
    """The §4.2 procedure as one ``(phase, objectives)`` per PPO iteration.

    **Bootstrapping** trains the three pivot objectives of
    ``BOOTSTRAP_OBJECTIVES`` jointly for ``bootstrap_iters`` iterations;
    joint (mixed-minibatch) updates are what teach the preference
    sub-network to *separate* objectives (see
    :meth:`OfflineTrainer.iterate`).

    **Fast traversing** then visits the remaining landmarks of the
    ``omega``-point grid in the neighbourhood-sorted order (Algorithm
    1), ``traverse_iters`` iterations each per cycle ("we do not train
    an objective until convergence but only for a few steps", §4.2).
    Every visit trains the landmark *jointly with all pivots*: the
    landmark grid is dominated by latency/loss-leaning objectives whose
    individually-optimal policies are conservative, and visiting them
    alone drags the shared trunk toward an idle policy for every
    objective (the multi-objective analogue of catastrophic forgetting
    the paper counters with replay).
    """
    grid = simplex_grid(step_for_omega(omega))
    pivots = tuple(np.asarray(b, dtype=np.float64) for b in BOOTSTRAP_OBJECTIVES)
    pivot_set = {tuple(np.round(p, 6)) for p in pivots}
    cycle = [("traverse", (grid[i], *pivots))
             for i in neighborhood_sort(grid, BOOTSTRAP_OBJECTIVES)
             if tuple(np.round(grid[i], 6)) not in pivot_set
             for _ in range(traverse_iters)]
    return [("bootstrap", pivots)] * bootstrap_iters + cycle * cycles


class OfflineTrainer:
    """The one PPO training loop: an agent, its trainer and a collector."""

    def __init__(self, spec: EnvSpec | None = None,
                 config: TrainingConfig = DEFAULT_TRAINING, seed: int = 0,
                 agent: MoccAgent | None = None):
        self.spec = spec or EnvSpec(ranges=TRAINING_RANGES, seed=seed)
        self.config = config
        self.agent = agent if agent is not None else MoccAgent(config, seed=seed)
        self.ppo = PPOTrainer(self.agent.model, config,
                              rng=np.random.default_rng(seed + 1))
        self.collector = SerialCollector(self.spec)
        self.rng = np.random.default_rng(seed + 2)
        self.log: list[ObjectiveLog] = []

    def iterate(self, objectives, phase: str) -> list[float]:
        """One PPO iteration over several objectives *simultaneously*.

        The iteration collects one rollout per objective and performs a
        pooled update: minibatches mix samples whose states are similar
        but whose weight vectors (and therefore correct actions and
        values) differ, so the loss can only be reduced through the
        preference sub-network.  Training objectives in sequential
        blocks instead would let each block fit the current objective
        while ignoring the preference input -- and be overwritten by the
        next block (catastrophic interference).

        All of the iteration's rollouts are one ``collector.collect``
        call, so their episodes can run on every usable core at once.
        ``objectives`` is consumed lazily, one rollout at a time, so an
        objective may be drawn after the rollouts before it (online
        adaptation's replay).  Returns each rollout's mean episode
        reward, and logs one row each.
        """
        logged = []

        def logging_as_taken():
            for w in objectives:
                logged.append(tuple(np.round(np.asarray(w, dtype=np.float64), 6)))
                yield w

        buffers, boots, rewards = self.collector.collect(
            self.agent.model, logging_as_taken(),
            self.config.steps_per_iteration, self.rng)
        stats = self.ppo.update(buffers, boots)
        self.log.extend(ObjectiveLog(phase, w, self.ppo.iteration, reward, stats)
                        for w, reward in zip(logged, rewards))
        return rewards

    def run(self, schedule) -> OfflineResult:
        """One :meth:`iterate` per ``(phase, objectives)`` entry."""
        for phase, objectives in schedule:
            self.iterate(objectives, phase)
        return OfflineResult(self.agent, list(self.log), self.ppo.iteration)

    def train(self, omega: int, bootstrap_iters: int, traverse_iters: int,
              cycles: int) -> OfflineResult:
        """Two-phase offline training over an ``omega``-landmark grid
        (:func:`landmark_schedule`)."""
        return self.run(landmark_schedule(omega, bootstrap_iters,
                                          traverse_iters, cycles))

    def train_individual_style(self, omega: int,
                               iters_per_objective: int) -> OfflineResult:
        """Ablation: every landmark trained independently, no transfer.

        The model is still shared (so the comparison isolates the
        *schedule*, not the architecture), but each objective receives a
        full ``iters_per_objective`` budget with no neighbourhood
        ordering -- the "Individual Training" bar of Fig. 19.
        """
        return self.run([("individual", (w,))
                         for w in simplex_grid(step_for_omega(omega))
                         for _ in range(iters_per_objective)])


def train_single_objective(spec: EnvSpec, weights, iterations: int,
                           config: TrainingConfig = DEFAULT_TRAINING,
                           seed: int = 0) -> tuple[MoccAgent, list[float]]:
    """Train a *single-objective* agent (no preference sub-network).

    This is the Aurora training procedure (Fig. 2a): the weight vector
    parameterises only the environment's reward.  Returns the agent
    and the per-iteration mean episode rewards.
    """
    weights = np.asarray(weights, dtype=np.float64)
    trainer = OfflineTrainer(spec, config, seed,
                             agent=MoccAgent(config, weight_dim=0, seed=seed))
    trace: list[float] = []
    for _ in range(iterations):
        trace += trainer.iterate([weights], "single")
    return trainer.agent, trace
