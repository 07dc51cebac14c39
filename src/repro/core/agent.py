"""The MOCC agent and its simulator-facing rate controller.

:class:`MoccAgent` owns the preference-conditioned actor-critic model
(§4.1) plus the hyperparameters, and provides save/load so offline
training, online adaptation and evaluation can share checkpoints.

:class:`PolicyRateController` adapts any trained policy (MOCC's, or a
single-objective Aurora-style one) to the simulator's controller
interface: at each monitor interval it feeds the statistics history to
the network and applies Eq. 1 to its pacing rate.  This is the
"inference path" a real deployment runs -- the datapath shims in
:mod:`repro.datapath` wrap it with call-frequency accounting.

Inference is actor-only: a controller resolves an
:class:`~repro.rl.policy.InferencePlan` when its flow starts (the
preference embedding is computed once, there) and each interval costs
one no-grad actor forward -- no critic, no log-probability, no backward
caches.  Rollout collection resolves a plan per rollout the same way;
``model.act`` / :meth:`MoccAgent.act` build a one-shot plan per call
and are for one-off queries, not a loop.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.config import TrainingConfig, DEFAULT_TRAINING
from repro.netsim.env import apply_action
from repro.netsim.history import StatHistory
from repro.netsim.sender import Controller, Flow, MonitorIntervalStats
from repro.rl.policy import PreferenceActorCritic

#: Number of statistics per monitor interval in the state vector.
STATE_FEATURES = StatHistory.FEATURES

__all__ = ["MoccAgent", "PolicyRateController", "MoccController"]


class MoccAgent:
    """Preference-conditioned congestion-control agent."""

    def __init__(self, config: TrainingConfig = DEFAULT_TRAINING,
                 weight_dim: int = 3, seed: int | None = None):
        self.config = config
        self.weight_dim = weight_dim
        self.obs_dim = STATE_FEATURES * config.history_length
        rng = np.random.default_rng(config.seed if seed is None else seed)
        self.model = PreferenceActorCritic(
            obs_dim=self.obs_dim, weight_dim=weight_dim, act_dim=1,
            hidden_sizes=config.hidden_sizes, pref_hidden=config.preference_hidden,
            rng=rng)

    # --- acting ----------------------------------------------------------

    def act(self, obs: np.ndarray, weights, rng: np.random.Generator,
            deterministic: bool = True) -> float:
        """One action (the Eq. 1 adjustment scalar) for a state."""
        w = weights if self.weight_dim > 0 else None
        action, _, _ = self.model.act(obs, w, rng, deterministic=deterministic)
        return float(action[0])

    def next_rate(self, rate: float, obs: np.ndarray, weights,
                  rng: np.random.Generator, deterministic: bool = True) -> float:
        """Apply the policy's action to a current sending rate (Eq. 1)."""
        action = self.act(obs, weights, rng, deterministic=deterministic)
        return apply_action(rate, action, self.config.action_scale)

    # --- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialise model weights and architecture metadata (.npz)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        state = self.model.state_dict()
        meta = {
            "meta_obs_dim": np.array(self.obs_dim),
            "meta_weight_dim": np.array(self.weight_dim),
            "meta_hidden": np.array(self.config.hidden_sizes),
            "meta_pref_hidden": np.array(self.config.preference_hidden),
            "meta_history_length": np.array(self.config.history_length),
            "meta_action_scale": np.array(self.config.action_scale),
        }
        np.savez(path, **{f"param_{k}": v for k, v in state.items()}, **meta)

    @classmethod
    def load(cls, path: str | Path) -> "MoccAgent":
        """Restore an agent saved with :meth:`save`."""
        data = np.load(Path(path), allow_pickle=False)
        hidden = tuple(int(h) for h in data["meta_hidden"])
        config = DEFAULT_TRAINING.replace(
            hidden_sizes=hidden,
            preference_hidden=int(data["meta_pref_hidden"]),
            history_length=int(data["meta_history_length"]),
            action_scale=float(data["meta_action_scale"]),
        )
        agent = cls(config, weight_dim=int(data["meta_weight_dim"]))
        state = {k[len("param_"):]: data[k] for k in data.files if k.startswith("param_")}
        agent.model.load_state_dict(state)
        return agent

    def clone(self) -> "MoccAgent":
        twin = MoccAgent(self.config, weight_dim=self.weight_dim)
        twin.model.load_state_dict(self.model.state_dict())
        return twin


class PolicyRateController(Controller):
    """Run a frozen policy as a rate-based congestion controller.

    At every monitor interval the controller pushes the interval's
    statistics into its history window, queries the policy, and applies
    the Eq. 1 multiplicative adjustment to the pacing rate.

    The policy is frozen for the duration of a flow: the inference plan
    (and with it the preference embedding of ``weights``) is resolved at
    ``on_flow_start``, so a model reloaded or trained between flows is
    picked up by the next one.
    """

    kind = "rate"
    name = "policy"

    def __init__(self, model: PreferenceActorCritic, weights=None,
                 initial_rate: float = 100.0, action_scale: float = 0.025,
                 history_length: int = 10, deterministic: bool = True,
                 seed: int = 0):
        self.model = model
        self.weights = None if weights is None else np.asarray(weights, dtype=np.float64)
        if model.weight_dim > 0 and self.weights is None:
            raise ValueError("preference-conditioned model needs a weight vector")
        self.rate = float(initial_rate)
        self.action_scale = action_scale
        self.history = StatHistory(history_length)
        self._plan = model.plan(self.weights)
        self.deterministic = deterministic
        self.rng = np.random.default_rng(seed)
        #: Number of policy inferences performed (overhead accounting).
        self.inference_count = 0

    def on_flow_start(self, flow: Flow, now: float) -> None:
        self.history.reset()
        self._plan = self.model.plan(self.weights)

    def on_mi(self, flow: Flow, stats: MonitorIntervalStats, now: float) -> None:
        self.history.push(flow, stats)
        action = self._plan.action(self.history.vector(), self.rng,
                                   self.deterministic)
        self.inference_count += 1
        self.rate = apply_action(self.rate, action, self.action_scale)

    def pacing_rate(self, now: float) -> float:
        return self.rate


class MoccController(PolicyRateController):
    """A :class:`PolicyRateController` bound to a MOCC agent + weight."""

    name = "MOCC"

    def __init__(self, agent: MoccAgent, weights, initial_rate: float = 100.0,
                 deterministic: bool = True, seed: int = 0):
        super().__init__(agent.model, weights=weights, initial_rate=initial_rate,
                         action_scale=agent.config.action_scale,
                         history_length=agent.config.history_length,
                         deterministic=deterministic, seed=seed)
