"""MOCC-DQN: the Q-learning ablation of Fig. 18.

The paper's deep-dive revisits the choice of PPO by implementing a
Q-learning version of MOCC.  Q-learning needs a discrete action space,
so the continuous Eq. 1 adjustment is binned; the paper's finding --
"Q-learning scales poorly with the continuous action space, causing
sub-optimal performance" (~3x lower reward) -- is exactly what the
coarse discretisation plus value-based training reproduces.

The Q-network mirrors the PPO model's structure, including the
preference sub-network, so the comparison isolates the learning
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netsim.env import MoccEnv, apply_action
from repro.rl.nn import MLP, Dense, Module, ParameterArena, Sequential, Tanh
from repro.rl.optim import Adam, clip_grad_norm

__all__ = ["QNetwork", "ReplayBuffer", "DQNConfig", "DQNTrainer", "action_bins"]


def action_bins(n_actions: int = 9, span: float = 2.0) -> np.ndarray:
    """Symmetric grid of discrete Eq. 1 adjustment values."""
    if n_actions < 2:
        raise ValueError("need at least two actions")
    return np.linspace(-span, span, n_actions)


class QNetwork(Module):
    """Preference-conditioned state-action value network."""

    def __init__(self, obs_dim: int, weight_dim: int, n_actions: int,
                 hidden_sizes: tuple[int, ...] = (64, 32), pref_hidden: int = 16,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.weight_dim = weight_dim
        self.n_actions = n_actions
        self.pref_hidden = pref_hidden if weight_dim > 0 else 0
        if weight_dim > 0:
            self.pref_net: Sequential | None = Sequential(
                Dense(weight_dim, pref_hidden, rng=rng), Tanh())
        else:
            self.pref_net = None
        self.trunk = MLP(obs_dim + self.pref_hidden, hidden_sizes, n_actions,
                         activation="tanh", rng=rng)
        self._params = ParameterArena.of(pref=self.pref_net, trunk=self.trunk)

    def parameters(self) -> ParameterArena:
        return self._params

    def forward(self, obs: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        if self.pref_net is not None:
            weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
            if weights.shape[0] == 1 and obs.shape[0] > 1:
                weights = np.repeat(weights, obs.shape[0], axis=0)
            pref = self.pref_net.forward(weights)
            obs = np.concatenate([obs, pref], axis=1)
        return self.trunk.forward(obs)

    def backward(self, d_q: np.ndarray) -> None:
        d_joint = self.trunk.backward(np.atleast_2d(d_q))
        if self.pref_net is not None:
            self.pref_net.backward(d_joint[:, self.obs_dim:])

    def clone(self) -> "QNetwork":
        hidden = tuple(layer.W.value.shape[1]
                       for layer in self.trunk.layers if isinstance(layer, Dense))[:-1]
        twin = QNetwork(self.obs_dim, self.weight_dim, self.n_actions,
                        hidden_sizes=hidden,
                        pref_hidden=self.pref_hidden if self.pref_hidden else 16)
        twin.load_state_dict(self.state_dict())
        return twin


class ReplayBuffer:
    """Uniform-sampling transition store."""

    def __init__(self, obs_dim: int, weight_dim: int, capacity: int = 20_000):
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.weights = np.zeros((capacity, weight_dim)) if weight_dim else None
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, obs_dim))
        self.dones = np.zeros(capacity, dtype=bool)
        self.size = 0
        self._cursor = 0

    def add(self, obs, action, reward, next_obs, done, weights=None) -> None:
        i = self._cursor
        self.obs[i] = obs
        if self.weights is not None:
            self.weights[i] = weights
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = done
        self._cursor = (self._cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.integers(0, self.size, size=batch_size)
        weights = self.weights[idx] if self.weights is not None else None
        return (self.obs[idx], weights, self.actions[idx], self.rewards[idx],
                self.next_obs[idx], self.dones[idx])


@dataclass
class DQNConfig:
    """Q-learning hyperparameters (matched to the PPO budget)."""

    n_actions: int = 9
    action_span: float = 2.0
    gamma: float = 0.99
    learning_rate: float = 1e-3
    batch_size: int = 64
    target_sync_steps: int = 200
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 5_000
    updates_per_iteration: int = 64
    warmup_transitions: int = 256
    max_grad_norm: float = 5.0


class DQNTrainer:
    """Train a preference-conditioned Q-network on MoccEnv rollouts."""

    def __init__(self, obs_dim: int, weight_dim: int = 3,
                 config: DQNConfig | None = None, seed: int = 0):
        self.config = config or DQNConfig()
        rng = np.random.default_rng(seed)
        self.q = QNetwork(obs_dim, weight_dim, self.config.n_actions, rng=rng)
        self.target = self.q.clone()
        self.bins = action_bins(self.config.n_actions, self.config.action_span)
        self.replay = ReplayBuffer(obs_dim, weight_dim)
        self.optimizer = Adam(self.q.parameters(), lr=self.config.learning_rate)
        self.rng = np.random.default_rng(seed + 1)
        self.env_steps = 0
        self.grad_steps = 0

    # --- acting ------------------------------------------------------------

    def epsilon(self) -> float:
        cfg = self.config
        frac = min(self.env_steps / max(cfg.epsilon_decay_steps, 1), 1.0)
        return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)

    def act_index(self, obs, weights, greedy: bool = False) -> int:
        if not greedy and self.rng.random() < self.epsilon():
            return int(self.rng.integers(self.config.n_actions))
        qvals = self.q.forward(obs, weights)
        return int(np.argmax(qvals[0]))

    def act_value(self, obs, weights, greedy: bool = True) -> float:
        """The Eq. 1 adjustment value the greedy policy picks."""
        return float(self.bins[self.act_index(obs, weights, greedy=greedy)])

    # --- training -------------------------------------------------------------

    def train_objective(self, env: MoccEnv, weights, steps: int) -> float:
        """Collect ``steps`` transitions and run gradient updates.

        Returns the mean episodic reward observed while collecting.
        """
        weights = np.asarray(weights, dtype=np.float64)
        obs, w_obs = env.reset(weights)
        episode_totals: list[float] = []
        total = 0.0
        for _ in range(steps):
            a_idx = self.act_index(obs, w_obs)
            next_obs, next_w, reward, _, done, _ = env.step(float(self.bins[a_idx]))
            self.replay.add(obs, a_idx, reward, next_obs, done, weights=w_obs)
            self.env_steps += 1
            total += reward
            if done:
                episode_totals.append(total)
                total = 0.0
                obs, w_obs = env.reset(weights)
            else:
                obs, w_obs = next_obs, next_w
        for _ in range(self.config.updates_per_iteration):
            self._update()
        if not episode_totals:
            episode_totals.append(total)
        return float(np.mean(episode_totals))

    def _update(self) -> None:
        cfg = self.config
        if self.replay.size < cfg.warmup_transitions:
            return
        obs, weights, actions, rewards, next_obs, dones = self.replay.sample(
            cfg.batch_size, self.rng)
        next_q = self.target.forward(next_obs, weights)
        targets = rewards + cfg.gamma * np.where(dones, 0.0, next_q.max(axis=1))

        qvals = self.q.forward(obs, weights)
        idx = np.arange(len(actions))
        errors = qvals[idx, actions] - targets
        d_q = np.zeros_like(qvals)
        d_q[idx, actions] = errors / len(actions)

        self.optimizer.zero_grad()
        self.q.backward(d_q)
        clip_grad_norm(self.q.parameters(), cfg.max_grad_norm)
        self.optimizer.step()
        self.grad_steps += 1
        if self.grad_steps % cfg.target_sync_steps == 0:
            self.target.load_state_dict(self.q.state_dict())
