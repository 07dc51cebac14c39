"""Rollout collection: run a policy in a MoccEnv and fill a buffer.

This is the glue between the simulator (:mod:`repro.netsim.env`) and
the PPO trainer.  Both MOCC (preference-conditioned) and Aurora-style
(single-objective) agents are served: for the latter, the weight vector
still parameterises the *environment's* reward (the objective the agent
is being trained for) but is not part of the model's state.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.env import MoccEnv
from repro.rl.policy import PreferenceActorCritic
from repro.rl.rollout import RolloutBuffer

__all__ = ["collect_rollout", "evaluate_policy", "run_policy_episode",
           "resolve_objective"]

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
                    steps: int, rng: np.random.Generator,
                    obs_state: tuple | None = None):
    """Collect ``steps`` on-policy transitions for the given objective.

    Returns ``(buffer, bootstrap_value, mean_episode_reward, carry)``.
    ``carry`` is the ``(obs, weights)`` pair to resume from (pass it back
    as ``obs_state`` to continue the same episode across iterations).
    ``weights=None`` is accepted for unconditioned models (the env then
    rewards the balanced objective).
    """
    conditioned = model.weight_dim > 0
    weights = resolve_objective(weights, conditioned)
    buffer = RolloutBuffer(env.observation_dim, model.weight_dim, model.act_dim, steps)
    # The model is frozen until the next PPO update: one plan serves
    # the whole rollout (its preference embedding is computed here).
    plan = model.plan(weights)

    if obs_state is None:
        obs, w_obs = env.reset(weights)
    else:
        obs, w_obs = obs_state

    episode_rewards: list[float] = []
    episode_total = 0.0
    done = False
    for _ in range(steps):
        action, log_prob, value = plan.act(obs, rng)
        next_obs, next_w, reward, _, done, _ = env.step(float(action[0]))
        buffer.add(obs, action, log_prob, value, reward, done,
                   weights=w_obs if conditioned else None)
        episode_total += reward
        if done:
            episode_rewards.append(episode_total)
            episode_total = 0.0
            obs, w_obs = env.reset(weights)
        else:
            obs, w_obs = next_obs, next_w

    bootstrap = 0.0 if done else plan.value(obs)
    if not episode_rewards:
        # No episode completed (the rollout is shorter than an episode,
        # e.g. after sharding across workers): extrapolate the per-step
        # reward to the episode horizon rather than reporting the
        # partial total as a finished episode, so reward traces stay
        # comparable no matter how collection is sharded.
        horizon = getattr(getattr(env, "env", env), "max_steps", steps)
        episode_rewards.append(episode_total * max(horizon, steps) / steps)
    return buffer, bootstrap, float(np.mean(episode_rewards)), (obs, w_obs)


def run_policy_episode(env: MoccEnv, model: PreferenceActorCritic, weights,
                       rng: np.random.Generator, deterministic: bool = True):
    """Run one full episode; return ``(total_reward, mean_components)``.

    ``mean_components`` is the per-step average of (O_thr, O_lat,
    O_loss) -- useful for utilization/latency reporting.
    ``weights=None`` is accepted for unconditioned models.
    """
    conditioned = model.weight_dim > 0
    weights = resolve_objective(weights, conditioned)
    plan = model.plan(weights)
    obs, _ = env.reset(weights)
    total = 0.0
    comps = np.zeros(3)
    steps = 0
    done = False
    while not done:
        obs, _, reward, components, done, _ = env.step(
            plan.action(obs, rng, deterministic))
        total += reward
        comps += components.as_array()
        steps += 1
    return total, comps / max(steps, 1)


def evaluate_policy(env: MoccEnv, model: PreferenceActorCritic, weights,
                    rng: np.random.Generator, episodes: int = 1,
                    deterministic: bool = True) -> float:
    """Mean episodic reward of a policy on one objective."""
    totals = [run_policy_episode(env, model, weights, rng, deterministic)[0]
              for _ in range(episodes)]
    return float(np.mean(totals))
