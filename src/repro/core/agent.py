"""The MOCC agent and its simulator-facing rate controller.

:class:`MoccAgent` owns the preference-conditioned actor-critic model
(§4.1) plus the hyperparameters, and provides save/load so offline
training, online adaptation and evaluation can share checkpoints.

:class:`PolicyRateController` runs any trained policy (MOCC's, or a
single-objective Aurora-style one) under the simulator's controller
interface.  It is a datapath around the §5 library
(:class:`repro.core.library.MOCC`), which feeds the statistics history
to the network and applies Eq. 1: the controller registers the flow's
weights when the flow starts, reports each monitor interval -- or,
at a kernel-space cadence, each folded batch of intervals -- and paces
at the rate the library returns.  Both deployments of Fig. 17 are this
one controller at ``batch=1`` and ``batch=4``.

Rollout collection resolves an inference plan per rollout the same way
the library does per flow; ``model.act`` builds a one-shot plan per
call and is for one-off queries, not a loop.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.config import TrainingConfig, DEFAULT_TRAINING
from repro.core.library import MOCC, NetworkStatus
from repro.netsim.history import StatHistory
from repro.netsim.rngstreams import stream_rng
from repro.netsim.sender import Controller, Flow, MonitorIntervalStats
from repro.rl.policy import PreferenceActorCritic

#: Number of statistics per monitor interval in the state vector.
STATE_FEATURES = StatHistory.FEATURES

__all__ = ["MoccAgent", "PolicyRateController", "MoccController"]


class MoccAgent:
    """Preference-conditioned congestion-control agent."""

    def __init__(self, config: TrainingConfig = DEFAULT_TRAINING,
                 weight_dim: int = 3, seed: int = 0):
        self.config = config
        self.weight_dim = weight_dim
        self.obs_dim = STATE_FEATURES * config.history_length
        rng = stream_rng("agent.init", seed)
        self.model = PreferenceActorCritic(
            obs_dim=self.obs_dim, weight_dim=weight_dim, act_dim=1,
            hidden_sizes=config.hidden_sizes, pref_hidden=config.preference_hidden,
            rng=rng)

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
    """Run a frozen policy as a rate-based congestion controller: the
    simulator's datapath around one §5 library, which owns the history,
    the inference plan and Eq. 1.

    ``on_flow_start`` registers ``weights`` (``None`` for Aurora), so
    the policy is frozen for a flow and a model reloaded or trained
    between flows is picked up by the next one.  ``batch`` is the
    cadence: every monitor interval is reported as it is at 1 (the
    paper's user-space UDT integration); at ``k > 1`` the rate holds
    while ``k`` intervals collect, then they are reported as one
    :func:`fold` (a CCP datapath's report to the kernel-space agent).
    """

    kind = "rate"
    name = "policy"

    def __init__(self, agent: MoccAgent, weights, initial_rate: float,
                 batch: int = 1):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.library = MOCC(agent, initial_rate)
        self.library.register(weights)  # refuses a bad vector here
        self.rate = self.library.rate
        self.batch = batch
        self._pending: list[MonitorIntervalStats] = []

    @property
    def inference_count(self) -> int:
        """Number of policy inferences performed (overhead accounting)."""
        return self.library.inference_count

    def on_flow_start(self, flow: Flow, now: float) -> None:
        self.library.register(self.library.weights)

    def on_mi(self, flow: Flow, stats: MonitorIntervalStats, now: float) -> None:
        if self.batch > 1:
            pending = self._pending
            pending.append(stats)
            if len(pending) < self.batch:
                return
            self._pending = []
            stats = fold(pending)
        library = self.library
        library.report_status(stats)
        self.rate = library.get_sending_rate()

    def pacing_rate(self, now: float) -> float:
        return self.rate


def fold(intervals: list[MonitorIntervalStats]) -> NetworkStatus:
    """One report for a batch of intervals, made the way a CCP fold
    function makes it: counts and durations add up, and the mean RTT
    and the RTT slope are acked-weighted means over the batch."""
    rtts = [(s.mean_rtt, s.latency_gradient, s.acked)
            for s in intervals if s.mean_rtt is not None]
    total_acked = sum(a for _, _, a in rtts)
    if total_acked:
        mean_rtt = sum(r * a for r, _, a in rtts) / total_acked
        gradient = sum(g * a for _, g, a in rtts) / total_acked
    elif rtts:
        mean_rtt, gradient, _ = rtts[-1]
    else:
        mean_rtt, gradient = None, 0.0
    return NetworkStatus(
        sum(s.sent for s in intervals), sum(s.acked for s in intervals),
        sum(s.lost for s in intervals), mean_rtt, gradient,
        sum(s.duration for s in intervals))


class MoccController(PolicyRateController):
    """A :class:`PolicyRateController` bound to a MOCC agent + weight."""

    name = "MOCC"

    def __init__(self, agent: MoccAgent, weights, initial_rate: float = 100.0,
                 batch: int = 1):
        super().__init__(agent, weights, initial_rate, batch)
