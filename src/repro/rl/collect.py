"""Rollout collection: run a policy in a MoccEnv and fill a buffer.

This is the glue between the simulator (:mod:`repro.netsim.env`) and
the PPO trainer.  Both MOCC (preference-conditioned) and Aurora-style
(single-objective) agents are served: for the latter, the weight vector
still parameterises the *environment's* reward (the objective the agent
is being trained for) but is not part of the model's state.

**Draw order.**  A rollout draws its exploration noise in one block,
``rng.standard_normal((steps, act_dim))`` (the vector collector:
``(steps_per_env, n_envs, act_dim)``), before its first step.  The
generator fills a block element by element in C order, so the block
holds exactly the numbers one ``standard_normal((act_dim,))`` per step
(per batched step) would have drawn -- provided nothing else draws
from that generator during the rollout, which nothing does: the
environments own their streams and the policy is frozen.  A step then
costs the actor and critic passes, one add (``mean + sigma * eps``,
with ``sigma = exp(log_std)`` taken once under the plan's frozen-policy
contract) and the env step; the log-probabilities are scored after the
loop, one :meth:`~repro.rl.distributions.DiagGaussian.log_prob` over
the buffer's actions and the stored means.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.env import MoccEnv
from repro.rl.distributions import DiagGaussian
from repro.rl.policy import PreferenceActorCritic
from repro.rl.rollout import RolloutBuffer

__all__ = ["collect_rollout", "evaluate_policy", "resolve_objective"]

#: Default environment objective when a caller passes ``weights=None``
#: (only legal for unconditioned models): the balanced requirement.
BALANCED_OBJECTIVE = np.full(3, 1.0 / 3.0)


def resolve_objective(weights, conditioned: bool) -> np.ndarray:
    """Normalise a caller's weight argument to the env's objective vector.

    The environment always needs an objective for its reward, even when
    the *model* is unconditioned (``weight_dim == 0``); ``None`` then
    means the balanced objective.  Conditioned models must be given
    their preference explicitly.
    """
    if weights is None:
        if conditioned:
            raise ValueError("preference-conditioned model needs a weight vector")
        return BALANCED_OBJECTIVE.copy()
    return np.asarray(weights, dtype=np.float64)


def collect_rollout(env: MoccEnv, model: PreferenceActorCritic, weights,
                    steps: int, rng: np.random.Generator):
    """Collect ``steps`` on-policy transitions for the given objective.

    Starts a fresh episode and returns ``(buffer, bootstrap_value,
    mean_episode_reward)``.  ``weights=None`` is accepted for
    unconditioned models (the env then rewards the balanced objective).
    """
    conditioned = model.weight_dim > 0
    weights = resolve_objective(weights, conditioned)
    buffer = RolloutBuffer(env.observation_dim, model.weight_dim, model.act_dim, steps)
    # The model is frozen until the next PPO update: one plan serves
    # the whole rollout (its preference embedding is computed here),
    # and one block of noise, scaled by the frozen sigma, its steps.
    plan = model.plan(weights)
    log_std = model.log_std.value
    scaled_noise = np.exp(log_std) * rng.standard_normal((steps, model.act_dim))
    means = np.empty((steps, model.act_dim))
    obs, w_obs = env.reset(weights)

    episode_rewards: list[float] = []
    episode_total = 0.0
    done = False
    for t in range(steps):
        mean, value = plan.mean_value(obs)
        means[t] = mean
        action = mean + scaled_noise[t]
        next_obs, next_w, reward, _, done, _ = env.step(float(action[0]))
        # The log-probability is scored after the loop.
        buffer.add(obs, action, 0.0, value, reward, done,
                   weights=w_obs if conditioned else None)
        episode_total += reward
        if done:
            episode_rewards.append(episode_total)
            episode_total = 0.0
            obs, w_obs = env.reset(weights)
        else:
            obs, w_obs = next_obs, next_w

    buffer.log_probs[:] = DiagGaussian.log_prob(buffer.actions, means, log_std)
    bootstrap = 0.0 if done else plan.value(obs)
    if not episode_rewards:
        # No episode completed (the rollout is shorter than an episode):
        # extrapolate the per-step reward to the episode horizon rather
        # than reporting the partial total as a finished episode, so
        # reward traces stay comparable no matter how collection is
        # sharded across environments.
        horizon = getattr(getattr(env, "env", env), "max_steps", steps)
        episode_rewards.append(episode_total * max(horizon, steps) / steps)
    return buffer, bootstrap, float(np.mean(episode_rewards))


def evaluate_policy(env: MoccEnv, model: PreferenceActorCritic, weights) -> float:
    """Total reward of one deterministic episode on one objective.

    ``weights=None`` is accepted for unconditioned models.
    """
    weights = resolve_objective(weights, model.weight_dim > 0)
    plan = model.plan(weights)
    obs, _ = env.reset(weights)
    total = 0.0
    done = False
    while not done:
        obs, _, reward, _, done, _ = env.step(plan.action(obs))
        total += reward
    return float(total)
