"""The rollout loop: the two collectors, over environments built from
one :class:`~repro.netsim.env.EnvSpec` (re-exported here).

The paper accelerates MOCC's training with Ray/RLlib parallel
environments (§5, Fig. 19).  Offline, :class:`VectorCollector` steps
several simulator environments in lockstep and batches the policy
forward passes through one :class:`~repro.rl.policy.InferencePlan` row
per environment, which removes most Python-level NN overhead even on
one core.  :class:`SerialCollector` is the same loop over one
environment.  The vector collector's speed against the serial one is
the ledger's ``rl.parallel.vector_ratio`` and a row of
``benchmarks/bench_fig16_19_deepdive.py``'s Fig. 19 table.

Both collectors share one call signature::

    buffers, bootstraps, mean_episode_reward = collector.collect(
        model, weights, total_steps, rng)

and the trainers hand ``buffers`` and ``bootstraps`` straight to
:meth:`~repro.rl.ppo.PPOTrainer.update`.  Both MOCC
(preference-conditioned) and Aurora-style (single-objective) models
are served: for the latter, the weight vector still parameterises the
*environment's* reward but is not part of the model's state.

**Draw order.**  A rollout draws its exploration noise in one block,
``rng.standard_normal((steps_per_env, n_envs, act_dim))``, before its
first step.  The generator fills a block element by element in C
order, so the block holds exactly the numbers one
``standard_normal((n_envs, act_dim))`` per lockstep step would have
drawn -- provided nothing else draws from that generator during the
rollout, which nothing does: the environments own their streams and
the policy is frozen.  A step then costs the actor and critic passes,
one add (``mean + sigma * eps``, with ``sigma = exp(log_std)`` taken
once under the plan's frozen-policy contract) and the env steps; the
log-probabilities are scored after the loop, one
:meth:`~repro.rl.distributions.DiagGaussian.log_prob` per buffer over
its actions and the stored means.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.env import EnvSpec
from repro.rl.collect import resolve_objective
from repro.rl.distributions import DiagGaussian
from repro.rl.policy import PreferenceActorCritic
from repro.rl.rollout import RolloutBuffer

__all__ = ["EnvSpec", "SerialCollector", "VectorCollector"]


class VectorCollector:
    """Step N environments in lockstep with batched policy inference
    (the one rollout loop)."""

    def __init__(self, spec: EnvSpec, n_envs: int = 4):
        if n_envs < 1:
            raise ValueError("need at least one environment")
        self.spec = spec
        self.envs = [spec.build(seed_offset=1000 * (i + 1)) for i in range(n_envs)]

    def collect(self, model: PreferenceActorCritic, weights, steps: int,
                rng: np.random.Generator):
        """``steps`` on-policy transitions, ``steps / n_envs`` from each
        env, each starting a fresh episode.

        ``weights=None`` is accepted for unconditioned models (the envs
        then reward the balanced objective).
        """
        n = len(self.envs)
        if steps < n or steps % n:
            raise ValueError(f"steps={steps} is not a positive multiple "
                             f"of n_envs={n}")
        per_env = steps // n
        conditioned = model.weight_dim > 0
        weights = resolve_objective(weights, conditioned)

        # The model is frozen until the next PPO update: one plan serves
        # the whole rollout (its preference half is computed here), and
        # one block of noise, scaled by the frozen sigma, its steps.
        plan = model.plan(weights, rows=n)
        obs = np.stack([env.reset(weights)[0] for env in self.envs])
        buffers = [RolloutBuffer(self.envs[0].observation_dim, model.weight_dim,
                                 model.act_dim, per_env) for _ in range(n)]
        log_std = model.log_std.value
        scaled_noise = np.exp(log_std) * rng.standard_normal(
            (per_env, n, model.act_dim))
        means = np.empty((n, per_env, model.act_dim))
        episode_totals = [0.0] * n
        finished: list[float] = []

        for t in range(per_env):
            mean, value = plan.mean_value(obs)
            means[:, t] = mean
            actions = mean + scaled_noise[t]
            for i, env in enumerate(self.envs):
                next_obs, _, reward, _, done, _ = env.step(float(actions[i, 0]))
                buffers[i].add(obs[i], actions[i], 0.0, float(value[i]),
                               reward, done,
                               weights=weights if conditioned else None)
                episode_totals[i] += reward
                if done:
                    finished.append(episode_totals[i])
                    episode_totals[i] = 0.0
                    next_obs, _ = env.reset(weights)
                obs[i] = next_obs

        _, boot_values = plan.mean_value(obs)
        bootstraps = []
        for i, buffer in enumerate(buffers):
            buffer.log_probs[:] = DiagGaussian.log_prob(buffer.actions, means[i], log_std)
            bootstraps.append(0.0 if buffer.dones[-1] else float(boot_values[i]))
        if not finished:
            # No episode completed within per_env steps (the rollout, or
            # its n-way share, is shorter than an episode).  The partial
            # totals cover only per_env of the episode's steps, so
            # reporting them as episode rewards under-states the mean by
            # ~horizon/per_env and puts a sawtooth into OnlineAdapter's
            # reward traces; extrapolate the per-step reward to the
            # episode horizon instead.
            horizon = max(self.spec.max_steps, per_env)
            finished = [total * horizon / per_env for total in episode_totals]
        return buffers, bootstraps, float(np.mean(finished))

    def close(self) -> None:
        """Nothing to release."""


class SerialCollector(VectorCollector):
    """One environment, one rollout at a time (the baseline strategy)."""

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        self.envs = [spec.build()]
