"""Proximal Policy Optimization (Schulman et al., 2017) -- §4.2.

Implements the clipped surrogate objective the paper trains MOCC with
(Eq. 3), plus the entropy regularisation term (Eq. 5) whose coefficient
beta decays from 1 to 0.1 over 1000 iterations (§5).

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

from repro.config import TrainingConfig
from repro.rl.distributions import DiagGaussian
from repro.rl.optim import Adam, clip_grad_norm
from repro.rl.policy import PreferenceActorCritic
from repro.rl.rollout import RolloutBuffer

__all__ = ["PPOConfig", "PPOTrainer"]


@dataclass
class PPOConfig:
    """Optimisation hyperparameters (defaults follow paper Table 2/§5)."""

    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    learning_rate: float = 1e-3
    entropy_start: float = 1.0
    entropy_end: float = 0.1
    entropy_decay_iters: int = 1000
    entropy_scale: float = 0.01
    value_coef: float = 0.5
    epochs: int = 4
    minibatch_size: int = 64
    max_grad_norm: float = 5.0
    #: Bounds on the Gaussian's log-std.  The entropy bonus exerts a
    #: constant upward pull on log_std; with Adam's per-parameter step
    #: normalisation that pull would otherwise win over long runs and
    #: blow the exploration noise up.
    log_std_bounds: tuple = (-2.5, 0.0)

    @classmethod
    def from_training_config(cls, cfg: TrainingConfig) -> "PPOConfig":
        return cls(
            gamma=cfg.discount_factor,
            gae_lambda=cfg.gae_lambda,
            clip_epsilon=cfg.clip_epsilon,
            learning_rate=cfg.learning_rate,
            entropy_start=cfg.entropy_start,
            entropy_end=cfg.entropy_end,
            entropy_decay_iters=cfg.entropy_decay_iters,
            value_coef=cfg.value_coef,
            epochs=cfg.epochs_per_iteration,
            minibatch_size=cfg.minibatch_size,
            max_grad_norm=cfg.max_grad_norm,
        )

    def entropy_coef(self, iteration: int) -> float:
        """beta(iteration): linear decay 1 -> 0.1 over the first 1000 its."""
        if iteration >= self.entropy_decay_iters:
            base = self.entropy_end
        else:
            frac = iteration / float(self.entropy_decay_iters)
            base = self.entropy_start + frac * (self.entropy_end - self.entropy_start)
        return base * self.entropy_scale


@dataclass
class PPOStats:
    """Diagnostics from one :meth:`PPOTrainer.update` call."""

    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float


class PPOTrainer:
    """PPO-clip updates for a :class:`PreferenceActorCritic`.

    The trainer is environment-agnostic: callers fill a
    :class:`RolloutBuffer` however they like (single env, vectorized
    envs, multiprocessing workers) and hand it to :meth:`update`.
    """

    def __init__(self, model: PreferenceActorCritic, config: PPOConfig | None = None,
                 rng: np.random.Generator | None = None):
        self.model = model
        self.config = config or PPOConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        self.iteration = 0

    def update(self, buffer: RolloutBuffer | list[RolloutBuffer],
               bootstrap_value: float | list[float] = 0.0) -> PPOStats:
        """Run ``epochs`` of minibatch PPO over the buffer contents.

        Accepts a single buffer or a list (e.g. from parallel rollout
        workers); with a list, returns/advantages are computed per
        buffer (each with its own bootstrap value) before the samples
        are pooled for minibatching, so trajectories never leak into
        each other.
        """
        cfg = self.config
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
        computed = [b.compute(cfg.gamma, cfg.gae_lambda, v)
                    for b, v in zip(buffers, boots)]
        returns = np.concatenate([c[0] for c in computed])
        advantages = np.concatenate([c[1] for c in computed])
        # Pooled normalisation: objectives with near-constant rewards
        # contribute proportionally small advantages instead of having
        # their noise blown up to unit variance per buffer.
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        n = len(obs)
        beta = cfg.entropy_coef(self.iteration)

        stats = PPOStats(0.0, 0.0, 0.0, 0.0, 0.0)
        batches = 0
        for _ in range(cfg.epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, cfg.minibatch_size):
                idx = order[start:start + cfg.minibatch_size]
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

    def update_multi(self, buffers: list[RolloutBuffer]) -> list[PPOStats]:
        """Average-update over several buffers *in one step*.

        This realises the requirement-replay loss (Eq. 6): the gradient
        applied is the mean of the per-objective PPO gradients, i.e.
        ``L = (1/k) * sum_i L_CLIP+E(theta, w_i)``.  Each buffer is
        consumed with a single epoch over its full batch, gradients are
        accumulated across buffers, then one optimizer step is taken.
        """
        cfg = self.config
        beta = cfg.entropy_coef(self.iteration)
        scale = 1.0 / max(len(buffers), 1)
        batches = [b.batch() for b in buffers]
        computed = [b.compute(cfg.gamma, cfg.gae_lambda) for b in buffers]
        # Normalise advantages jointly across the objectives (see update()).
        pooled = np.concatenate([c[1] for c in computed])
        mean, std = pooled.mean(), pooled.std() + 1e-8
        computed = [(ret, (adv - mean) / std) for ret, adv in computed]
        all_stats: list[PPOStats] = []
        for _ in range(cfg.epochs):
            self.optimizer.zero_grad()
            epoch_stats = []
            for (obs, weights, actions, old_log_probs, _), (returns, advantages) in zip(
                    batches, computed):
                stats = self._accumulate_gradients(
                    obs, weights, actions, old_log_probs, returns, advantages, beta, scale)
                epoch_stats.append(stats)
            clip_grad_norm(self.model.parameters(), cfg.max_grad_norm)
            self.optimizer.step()
            self._clamp_log_std()
            all_stats = epoch_stats
        self.iteration += 1
        return all_stats

    # --- internals --------------------------------------------------------

    def _update_minibatch(self, obs, weights, actions, old_log_probs,
                          returns, advantages, beta) -> PPOStats:
        self.optimizer.zero_grad()
        stats = self._accumulate_gradients(
            obs, weights, actions, old_log_probs, returns, advantages, beta, 1.0)
        clip_grad_norm(self.model.parameters(), self.config.max_grad_norm)
        self.optimizer.step()
        self._clamp_log_std()
        return stats

    def _clamp_log_std(self) -> None:
        lo, hi = self.config.log_std_bounds
        np.clip(self.model.log_std.value, lo, hi, out=self.model.log_std.value)

    def _accumulate_gradients(self, obs, weights, actions, old_log_probs,
                              returns, advantages, beta, scale) -> PPOStats:
        """Forward + backward for the PPO loss; grads are *accumulated*."""
        cfg = self.config
        model = self.model
        n = len(obs)

        mean, value = model.forward(obs, weights)
        log_std = model.log_std.value
        new_log_probs = DiagGaussian.log_prob(actions, mean, log_std)

        ratio = np.exp(new_log_probs - old_log_probs)
        unclipped = ratio * advantages
        clipped = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * advantages
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
        d_value = cfg.value_coef * value_err / n

        model.backward(d_mean * scale, d_value * scale, d_log_std * scale)

        clip_fraction = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_epsilon))
        approx_kl = float(np.mean(old_log_probs - new_log_probs))
        return PPOStats(policy_loss, value_loss, entropy, clip_fraction, approx_kl)

