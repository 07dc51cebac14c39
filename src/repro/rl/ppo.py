"""Proximal Policy Optimization (Schulman et al., 2017) -- §4.2.

Implements the clipped surrogate objective the paper trains MOCC with
(Eq. 3), plus the entropy regularisation term (Eq. 5).  Its settings
are Table 2's constants in :mod:`repro.config`; only the minibatch size
comes from the :class:`~repro.config.TrainingConfig` it is given.  The
entropy coefficient is beta, decaying from 1 to 0.1 over 1000
iterations (§5, :func:`repro.config.entropy_coef`), times
``ENTROPY_SCALE``.

The gradient of the clipped surrogate w.r.t. the new policy's
log-probability is::

    d L / d logp = -A * ratio    where the unclipped branch is active
                 = 0             where clipping saturates the min()

For the diagonal-Gaussian policy the chain rule continues through the
distribution parameters (mean from the actor MLP, free log_std), which
:class:`repro.rl.distributions.DiagGaussian` provides in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import (CLIP_EPSILON, DEFAULT_TRAINING, DISCOUNT_FACTOR,
                          EPOCHS_PER_ITERATION, GAE_LAMBDA, LEARNING_RATE,
                          MAX_GRAD_NORM, VALUE_COEF, TrainingConfig,
                          entropy_coef)
from repro.rl.distributions import DiagGaussian
from repro.rl.optim import Adam, clip_grad_norm
from repro.rl.policy import PreferenceActorCritic
from repro.rl.rollout import RolloutBuffer

__all__ = ["PPOStats", "PPOTrainer"]


#: Multiplier on the paper's beta schedule (:func:`repro.config.entropy_coef`).
ENTROPY_SCALE = 0.01
#: Bounds on the Gaussian's log-std.  The entropy bonus exerts a
#: constant upward pull on log_std; with Adam's per-parameter step
#: normalisation that pull would otherwise win over long runs and blow
#: the exploration noise up.
LOG_STD_BOUNDS = (-2.5, 0.0)


@dataclass
class PPOStats:
    """Diagnostics from one :meth:`PPOTrainer.update` call.

    ``explained_variance`` is 1 - Var(R - V) / Var(R) over the pooled
    batch, ``V`` as recorded at rollout time; minibatches leave it NaN.
    """

    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float
    explained_variance: float = float("nan")


class PPOTrainer:
    """PPO-clip updates for a :class:`PreferenceActorCritic`.

    The trainer is environment-agnostic: callers fill one
    :class:`RolloutBuffer` per rollout however they like (one env, or
    several stepped in lockstep) and hand them to :meth:`update`.
    """

    def __init__(self, model: PreferenceActorCritic,
                 config: TrainingConfig = DEFAULT_TRAINING,
                 rng: np.random.Generator | None = None):
        self.model = model
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.optimizer = Adam(model.parameters(), lr=LEARNING_RATE)
        self.iteration = 0

    def update(self, buffer: RolloutBuffer | list[RolloutBuffer],
               bootstrap_value: float | list[float] = 0.0) -> PPOStats:
        """Run ``EPOCHS_PER_ITERATION`` epochs of minibatch PPO over the
        buffer contents.

        Accepts a single buffer or a list (one per rollout: a
        :class:`~repro.rl.parallel.VectorCollector`'s environments, or a
        new objective's and a replayed one's); with a list, returns and
        advantages are computed per
        buffer (each with its own bootstrap value) before the samples
        are pooled for minibatching, so trajectories never leak into
        each other.
        """
        buffers = [buffer] if isinstance(buffer, RolloutBuffer) else list(buffer)
        boots = ([bootstrap_value] * len(buffers)
                 if isinstance(bootstrap_value, (int, float)) else list(bootstrap_value))
        if len(boots) != len(buffers):
            raise ValueError("need one bootstrap value per buffer")
        parts = [b.batch() for b in buffers]
        obs = np.concatenate([p[0] for p in parts])
        weights = (None if parts[0][1] is None
                   else np.concatenate([p[1] for p in parts]))
        actions = np.concatenate([p[2] for p in parts])
        old_log_probs = np.concatenate([p[3] for p in parts])
        computed = [b.compute(DISCOUNT_FACTOR, GAE_LAMBDA, v)
                    for b, v in zip(buffers, boots)]
        returns = np.concatenate([c[0] for c in computed])
        advantages = np.concatenate([c[1] for c in computed])
        values = np.concatenate([p[4] for p in parts])
        spread = returns.var()
        explained = (float(1.0 - (returns - values).var() / spread)
                     if spread > 0 else float("nan"))
        # Pooled normalisation: objectives with near-constant rewards
        # contribute proportionally small advantages instead of having
        # their noise blown up to unit variance per buffer.
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        n = len(obs)
        size = self.config.minibatch_size
        beta = entropy_coef(self.iteration) * ENTROPY_SCALE

        stats = PPOStats(0.0, 0.0, 0.0, 0.0, 0.0, explained)
        batches = 0
        for _ in range(EPOCHS_PER_ITERATION):
            order = self.rng.permutation(n)
            for start in range(0, n, size):
                idx = order[start:start + size]
                mb_stats = self._update_minibatch(
                    obs[idx], None if weights is None else weights[idx],
                    actions[idx], old_log_probs[idx], returns[idx], advantages[idx], beta)
                stats.policy_loss += mb_stats.policy_loss
                stats.value_loss += mb_stats.value_loss
                stats.entropy += mb_stats.entropy
                stats.clip_fraction += mb_stats.clip_fraction
                stats.approx_kl += mb_stats.approx_kl
                batches += 1
        self.iteration += 1
        if batches:
            stats.policy_loss /= batches
            stats.value_loss /= batches
            stats.entropy /= batches
            stats.clip_fraction /= batches
            stats.approx_kl /= batches
        return stats

    # --- internals --------------------------------------------------------

    def _update_minibatch(self, obs, weights, actions, old_log_probs,
                          returns, advantages, beta) -> PPOStats:
        self.optimizer.zero_grad()
        stats = self._accumulate_gradients(
            obs, weights, actions, old_log_probs, returns, advantages, beta)
        clip_grad_norm(self.model.parameters(), MAX_GRAD_NORM)
        self.optimizer.step()
        self._clamp_log_std()
        return stats

    def _clamp_log_std(self) -> None:
        lo, hi = LOG_STD_BOUNDS
        np.clip(self.model.log_std.value, lo, hi, out=self.model.log_std.value)

    def _accumulate_gradients(self, obs, weights, actions, old_log_probs,
                              returns, advantages, beta) -> PPOStats:
        """Forward + backward for the PPO loss; grads are *accumulated*."""
        model = self.model
        n = len(obs)

        mean, value = model.forward(obs, weights)
        log_std = model.log_std.value
        new_log_probs = DiagGaussian.log_prob(actions, mean, log_std)

        ratio = np.exp(new_log_probs - old_log_probs)
        unclipped = ratio * advantages
        clipped = np.clip(ratio, 1.0 - CLIP_EPSILON, 1.0 + CLIP_EPSILON) * advantages
        surrogate = np.minimum(unclipped, clipped)
        policy_loss = -float(surrogate.mean())

        # d policy_loss / d logp: active only where the min() picked the
        # unclipped branch (ties included).
        active = unclipped <= clipped
        d_logp = np.where(active, -ratio * advantages, 0.0) / n

        d_mean_per, d_log_std_per = DiagGaussian.log_prob_grads(actions, mean, log_std)
        d_mean = d_mean_per * d_logp[:, None]
        d_log_std = (d_log_std_per * d_logp[:, None]).sum(axis=0)

        # Entropy bonus: loss -= beta * H; for a free log_std Gaussian,
        # dH/d log_std = 1 per dimension (state-independent).
        entropy = DiagGaussian.entropy(log_std)
        d_log_std -= beta * DiagGaussian.entropy_grad_log_std(log_std)

        # Value loss: 0.5 * c_v * mean((V - R)^2).
        value_err = value - returns
        value_loss = 0.5 * float(np.mean(value_err ** 2))
        d_value = VALUE_COEF * value_err / n

        model.backward(d_mean, d_value, d_log_std)

        clip_fraction = float(np.mean(np.abs(ratio - 1.0) > CLIP_EPSILON))
        approx_kl = float(np.mean(old_log_probs - new_log_probs))
        return PPOStats(policy_loss, value_loss, entropy, clip_fraction, approx_kl)

