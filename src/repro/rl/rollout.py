"""Trajectory storage, returns and advantage estimation.

The paper defines the advantage (Eq. 4) as the empirical discounted
return minus the critic's value estimate:

    A(g, w, a) = sum_t gamma^t r_t  -  V(g, w)

That estimator is implemented by :func:`discounted_returns`; the more
common GAE(lambda) variant is available too and is what the trainer uses
by default (``gae_lambda=1.0`` recovers the paper's formula exactly for
episodic rollouts).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RolloutBuffer", "discounted_returns", "gae_advantages"]


def discounted_returns(rewards: np.ndarray, dones: np.ndarray,
                       gamma: float) -> np.ndarray:
    """Discounted reward-to-go for each step, with nothing bootstrapped
    past the last one.

    ``dones[t]`` marks that the episode ended *after* step ``t``; the
    return does not leak across episode boundaries.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    returns = np.zeros_like(rewards)
    running = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        if dones[t]:
            running = 0.0
        running = rewards[t] + gamma * running
        returns[t] = running
    return returns


def gae_advantages(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                   gamma: float, lam: float, bootstrap_value: float = 0.0) -> np.ndarray:
    """Generalised advantage estimation (Schulman et al., 2016).

    With ``lam=1.0`` this equals ``discounted_returns - values`` --
    i.e. the paper's Eq. 4.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    advantages = np.zeros_like(rewards)
    next_value = float(bootstrap_value)
    running = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        if dones[t]:
            next_value = 0.0
            running = 0.0
        delta = rewards[t] + gamma * next_value - values[t]
        running = delta + gamma * lam * running
        advantages[t] = running
        next_value = values[t]
    return advantages


class RolloutBuffer:
    """Fixed-capacity on-policy trajectory store.

    Each step records the observation, the preference weight vector (if
    any), the action taken, the behaviour policy's log-probability, the
    critic value, the reward, and whether the episode terminated.
    """

    def __init__(self, obs_dim: int, weight_dim: int, act_dim: int, capacity: int):
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.weights = np.zeros((capacity, weight_dim)) if weight_dim > 0 else None
        self.actions = np.zeros((capacity, act_dim))
        self.log_probs = np.zeros(capacity)
        self.values = np.zeros(capacity)
        self.rewards = np.zeros(capacity)
        self.dones = np.zeros(capacity, dtype=bool)
        self.size = 0

    @classmethod
    def joined(cls, parts: list["RolloutBuffer"]) -> "RolloutBuffer":
        """The full buffers ``parts`` one after another, as one full
        buffer (the first part itself, when it is the only one)."""
        if len(parts) == 1:
            return parts[0]
        first = parts[0]
        whole = cls(first.obs.shape[1],
                    0 if first.weights is None else first.weights.shape[1],
                    first.actions.shape[1], sum(p.size for p in parts))
        for name in ("obs", "weights", "actions", "log_probs", "values",
                     "rewards", "dones"):
            if getattr(whole, name) is not None:
                np.concatenate([getattr(p, name) for p in parts],
                               out=getattr(whole, name))
        whole.size = whole.capacity
        return whole

    def add(self, obs, action, log_prob, value, reward, done, weights=None) -> None:
        if self.size >= self.capacity:
            raise RuntimeError("rollout buffer full")
        i = self.size
        self.obs[i] = obs
        if self.weights is not None:
            if weights is None:
                raise ValueError("buffer tracks weights; none given")
            self.weights[i] = weights
        self.actions[i] = action
        self.log_probs[i] = log_prob
        self.values[i] = value
        self.rewards[i] = reward
        self.dones[i] = done
        self.size += 1

    def compute(self, gamma: float, lam: float, bootstrap_value: float = 0.0):
        """Return ``(returns, advantages)`` over the filled portion.

        The advantages are raw.  The PPO trainer normalises over the
        *pooled* batch (several buffers may carry different objectives,
        and per-buffer normalisation would amplify the noise of a buffer
        whose rewards are nearly constant until it drowns the others'
        signal).
        """
        n = self.size
        advantages = gae_advantages(self.rewards[:n], self.values[:n], self.dones[:n],
                                    gamma, lam, bootstrap_value)
        return advantages + self.values[:n], advantages

    def batch(self):
        """Views over the filled portion (no copies)."""
        n = self.size
        weights = self.weights[:n] if self.weights is not None else None
        return (self.obs[:n], weights, self.actions[:n],
                self.log_probs[:n], self.values[:n])
