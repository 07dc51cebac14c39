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
``benchmarks/bench_fig16_19_deepdive.py``'s Fig. 19 table.  Across
cores, one PPO iteration's rollouts are cut into episode *segments*
that run on the process pool (:mod:`repro.pool`), one worker per usable
core.

Both collectors share one call signature::

    buffers, bootstraps, mean_episode_reward = collector.collect(
        model, weights, total_steps, rng)

and the trainers hand ``buffers`` and ``bootstraps`` straight to
:meth:`~repro.rl.ppo.PPOTrainer.update`.  Given an iterable of
objectives instead of one, ``collect`` collects one rollout per
objective and returns their buffers and bootstraps flat, in order, and
a list of their mean episode rewards: a PPO iteration is one call.
Both MOCC (preference-conditioned) and Aurora-style (single-objective)
models are served: for the latter, the weight vector still
parameterises the *environment's* reward but is not part of the
model's state.

**Draw order.**  Everything a rollout draws, this process draws, in
the order a lockstep loop over the whole rollout would.  Objectives
are taken from their iterable one rollout at a time, so an objective
may be drawn from the trainer's generator after the rollouts before it
(online adaptation's replay).  A rollout draws each environment's
first episode (:meth:`~repro.netsim.env.MoccEnv.draw`), then its
exploration noise in one block,
``rng.standard_normal((steps_per_env, n_envs, act_dim))``, then each
later episode's draw, including the reset that ends a rollout on an
episode boundary, whose episode never runs.  The generator fills a
block element by element in C order, so the block holds exactly the
numbers one ``standard_normal((n_envs, act_dim))`` per lockstep step
would have drawn -- nothing else draws from that generator during the
rollout: the environments own their streams and the policy is frozen.

**Segments.**  Every environment of a collector starts its episodes
at the same steps, and an episode ends only at ``max_steps``, so a
rollout splits at its episode boundaries into segments: one episode
per environment, stepped in lockstep.  A segment is a function of the
frozen policy, the weights, its environments' draws and its rows of
the noise block alone; :func:`run_segment` runs one, with a plan of
one row per environment, the same whether it runs in this process or
in a pool worker.  A step costs the actor and critic passes, one add
(``mean + sigma * eps``, with ``sigma = exp(log_std)`` taken once
under the plan's frozen-policy contract) and the env steps.  The
segments' rows are then joined per environment, and the
log-probabilities scored after, one
:meth:`~repro.rl.distributions.DiagGaussian.log_prob` per buffer over
its actions and the stored means; bootstraps and mean episode rewards
are what the lockstep loop would have computed, episode totals taken
in the order the loop finished them.  The segments run here when only
one worker could run them (one usable core, one segment, or inside a
pool worker); a pool task carries a frozen copy of the model, pickled
once per call.
"""

from __future__ import annotations

import pickle
from contextlib import closing

import numpy as np

from repro.netsim.env import EnvSpec, checked_objective
from repro.pool import ResilientPool, usable_workers
from repro.rl.collect import resolve_objective
from repro.rl.distributions import DiagGaussian
from repro.rl.policy import PreferenceActorCritic
from repro.rl.rollout import RolloutBuffer

__all__ = ["EnvSpec", "SerialCollector", "VectorCollector", "run_segment"]


def run_segment(model: PreferenceActorCritic, spec: EnvSpec, weights,
                draws, scaled_noise: np.ndarray):
    """One episode per draw, stepped in lockstep for
    ``len(scaled_noise)`` steps under one plan row per draw.

    ``scaled_noise[t]`` is step ``t``'s ``(len(draws), act_dim)`` rows
    of the exploration noise, already scaled by ``exp(log_std)``.
    Returns each episode's :class:`~repro.rl.rollout.RolloutBuffer`
    (log-probabilities not yet scored), the actor's means as ``(n,
    steps, act_dim)``, each episode's reward total, and the critic's
    values of the last states (``None`` when the episodes ended).
    """
    n = len(draws)
    steps = len(scaled_noise)
    conditioned = model.weight_dim > 0
    plan = model.plan(weights, rows=n)
    envs = [spec.build() for _ in draws]
    obs = np.stack([env.start(weights, draw)[0]
                    for env, draw in zip(envs, draws)])
    buffers = [RolloutBuffer(envs[0].observation_dim, model.weight_dim,
                             model.act_dim, steps) for _ in range(n)]
    means = np.empty((n, steps, model.act_dim))
    totals = [0.0] * n
    for t in range(steps):
        mean, value = plan.mean_value(obs)
        means[:, t] = mean
        actions = mean + scaled_noise[t]
        for i, env in enumerate(envs):
            next_obs, _, reward, _, done, _ = env.step(float(actions[i, 0]))
            buffers[i].add(obs[i], actions[i], 0.0, float(value[i]),
                           reward, done,
                           weights=weights if conditioned else None)
            totals[i] += reward
            obs[i] = next_obs
    boot_values = None if done else plan.mean_value(obs)[1]
    return buffers, means, totals, boot_values


def _pooled_segment(task):
    """A pool worker's :func:`run_segment`: the model comes pickled."""
    frozen, *segment = task
    return run_segment(pickle.loads(frozen), *segment)


class VectorCollector:
    """Step N environments in lockstep with batched policy inference,
    one episode segment (:func:`run_segment`) at a time."""

    def __init__(self, spec: EnvSpec, n_envs: int = 4):
        if n_envs < 1:
            raise ValueError("need at least one environment")
        self.spec = spec
        self.envs = [spec.build(seed_offset=1000 * (i + 1)) for i in range(n_envs)]

    def collect(self, model: PreferenceActorCritic, weights, steps: int,
                rng: np.random.Generator):
        """``steps`` on-policy transitions per objective, ``steps /
        n_envs`` from each env, each starting a fresh episode.

        ``weights`` is one objective, and then the result is ``(buffers,
        bootstraps, mean_episode_reward)``; or an iterable of them,
        consumed one rollout at a time, and then it is every rollout's
        buffers and bootstraps, flat, and the list of their mean
        episode rewards.  ``weights=None``, one objective, is accepted
        for unconditioned models (the envs then reward the balanced
        objective).
        """
        n = len(self.envs)
        if steps < n or steps % n:
            raise ValueError(f"steps={steps} is not a positive multiple "
                             f"of n_envs={n}")
        per_env = steps // n
        episode = self.spec.max_steps
        conditioned = model.weight_dim > 0
        one = weights is None or np.ndim(weights) == 1
        log_std = model.log_std.value

        # Every draw, in the lockstep loop's order (see "Draw order").
        segments, rollouts = [], []
        for w in [weights] if one else weights:
            w = checked_objective(resolve_objective(w, conditioned))
            draws = [env.draw() for env in self.envs]
            scaled_noise = np.exp(log_std) * rng.standard_normal(
                (per_env, n, model.act_dim))
            first = len(segments)
            for start in range(0, per_env, episode):
                if start:
                    draws = [env.draw() for env in self.envs]
                segments.append((w, draws, scaled_noise[start:start + episode]))
            if per_env % episode == 0:
                for env in self.envs:
                    env.draw()  # the reset that ends the rollout
            rollouts.append(range(first, len(segments)))

        parts = self._run(model, segments)
        buffers, bootstraps, rewards = [], [], []
        for rollout in rollouts:
            bufs, boots, reward = self._joined(
                [parts[j] for j in rollout], per_env, log_std)
            buffers += bufs
            bootstraps += boots
            rewards.append(reward)
        if one:
            return buffers, bootstraps, rewards[0]
        return buffers, bootstraps, rewards

    def _run(self, model, segments) -> list:
        """Every segment's :func:`run_segment` result, in order: on the
        pool when more than one worker can run them, else here."""
        workers = min(usable_workers(), len(segments))
        if workers <= 1:
            return [run_segment(model, self.spec, *segment)
                    for segment in segments]
        frozen = pickle.dumps(model.clone())
        parts = [None] * len(segments)
        pool = ResilientPool(workers, _pooled_segment)
        # Longest first, so the rollouts' shorter last segments fill in
        # at the end.
        order = sorted(range(len(segments)), key=lambda j: -len(segments[j][2]))
        tasks = [(j, (frozen, self.spec, *segments[j]), None) for j in order]
        with closing(pool.execute(tasks)) as outcomes:
            for j, part, error in outcomes:
                if error is not None:
                    raise RuntimeError(f"rollout segment {j} failed: {error}")
                parts[j] = part
        return parts

    def _joined(self, parts, per_env: int, log_std: np.ndarray):
        """One rollout's buffers, bootstraps and mean episode reward
        from its segments, as the lockstep loop computes them."""
        buffers, bootstraps = [], []
        boot_values = parts[-1][3]
        for i in range(len(self.envs)):
            buffer = RolloutBuffer.joined([part[0][i] for part in parts])
            means = np.concatenate([part[1][i] for part in parts])
            buffer.log_probs[:] = DiagGaussian.log_prob(buffer.actions, means,
                                                        log_std)
            buffers.append(buffer)
            bootstraps.append(0.0 if boot_values is None
                              else float(boot_values[i]))
        # The loop finishes every env's episode at the same step, in env
        # order.
        finished = [total for part in parts if part[3] is None
                    for total in part[2]]
        if not finished:
            # No episode completed within per_env steps (the rollout, or
            # its n-way share, is shorter than an episode).  The partial
            # totals cover only per_env of the episode's steps, so
            # reporting them as episode rewards under-states the mean by
            # ~horizon/per_env and puts a sawtooth into OnlineAdapter's
            # reward traces; extrapolate the per-step reward to the
            # episode horizon instead.
            horizon = max(self.spec.max_steps, per_env)
            finished = [total * horizon / per_env for total in parts[0][2]]
        return buffers, bootstraps, float(np.mean(finished))

    def close(self) -> None:
        """Nothing to release."""


class SerialCollector(VectorCollector):
    """One environment, one rollout at a time (the baseline strategy)."""

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        self.envs = [spec.build()]
