"""The action distribution of the policy networks.

MOCC's actor outputs the mean and standard deviation of a Gaussian over
the continuous rate-adjustment action (Fig. 2b/3).  The class is
stateless: it takes distribution parameters per call and returns values
plus the gradients PPO needs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DiagGaussian"]

_LOG_2PI = float(np.log(2.0 * np.pi))


class DiagGaussian:
    """Diagonal Gaussian over a continuous action vector.

    Parameterised by a state-dependent ``mean`` and a ``log_std`` (either
    state-dependent or a free parameter vector, as in stable-baselines
    PPO which the paper builds on).
    """

    @staticmethod
    def sample(mean: np.ndarray, log_std: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        std = np.exp(log_std)
        return mean + std * rng.standard_normal(mean.shape)

    @staticmethod
    def log_prob(actions: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
        """Per-sample log density, summed over action dimensions."""
        actions = np.atleast_2d(actions)
        mean = np.atleast_2d(mean)
        var = np.exp(2.0 * log_std)
        per_dim = -0.5 * ((actions - mean) ** 2 / var + 2.0 * log_std + _LOG_2PI)
        return per_dim.sum(axis=-1)

    @staticmethod
    def log_prob_grads(actions: np.ndarray, mean: np.ndarray, log_std: np.ndarray):
        """Gradients of log-prob w.r.t. ``mean`` and ``log_std``.

        Returns ``(d_mean, d_log_std)`` with the same shapes as the
        inputs; ``d_log_std`` is per-sample (not yet summed over the
        batch) so callers can weight each sample before reducing.
        """
        actions = np.atleast_2d(actions)
        mean = np.atleast_2d(mean)
        var = np.exp(2.0 * log_std)
        diff = actions - mean
        d_mean = diff / var
        d_log_std = diff ** 2 / var - 1.0
        return d_mean, d_log_std

    @staticmethod
    def entropy(log_std: np.ndarray) -> float:
        """Differential entropy, summed over action dimensions."""
        return float(np.sum(log_std + 0.5 * (_LOG_2PI + 1.0)))

    @staticmethod
    def entropy_grad_log_std(log_std: np.ndarray) -> np.ndarray:
        """d entropy / d log_std = 1 for every dimension."""
        return np.ones_like(log_std)

