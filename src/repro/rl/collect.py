"""Policy evaluation, and the objective a rollout or episode rewards.

This is the glue between the simulator (:mod:`repro.netsim.env`) and a
frozen policy outside the rollout loop (which is
:class:`~repro.rl.parallel.VectorCollector`): one deterministic episode
through a flat :class:`~repro.rl.policy.InferencePlan`.  Both MOCC
(preference-conditioned) and Aurora-style (single-objective) models are
served: for the latter, the weight vector still parameterises the
*environment's* reward but is not part of the model's state.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.env import MoccEnv
from repro.rl.policy import PreferenceActorCritic

__all__ = ["evaluate_policy", "resolve_objective"]

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
        plan.obs[:] = obs
        obs, _, reward, _, done, _ = env.step(plan.action())
        total += reward
    return float(total)
