"""Gym-style congestion-control environments.

Two layers, mirroring the paper's Fig. 2:

* :class:`CongestionControlEnv` is the single-objective substrate
  (Fig. 2a -- what Aurora trains on): state is the eta-history of
  network statistics, the action is the continuous rate adjustment of
  Eq. 1, and ``step`` returns the *raw reward components* so callers
  can apply any utility.
* :class:`MoccEnv` (Fig. 2b) augments the state with the application
  weight vector and computes the dynamic reward of Eq. 2:

      r_t = w_thr * O_thr + w_lat * O_lat + w_loss * O_loss

  with O_thr = throughput/capacity, O_lat = base RTT / measured RTT,
  O_loss = 1 - lost/total, all normalised to [0, 1].

Each episode runs on a bottleneck link whose parameters are either
fixed (evaluation) or drawn from Table-3 ranges (training).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import NetworkParams, NetworkRanges, TRAINING_RANGES
from repro.netsim.history import StatHistory, _clamp
from repro.netsim.link import Link
from repro.netsim.network import FlowSpec, Simulation
from repro.netsim.rngstreams import stream_rng
from repro.netsim.sender import ExternalRateController, MonitorIntervalStats
from repro.netsim.traces import BandwidthTrace, ConstantTrace, mbps_to_pps

__all__ = ["RewardComponents", "CongestionControlEnv", "MoccEnv", "apply_action"]


@dataclass(frozen=True)
class RewardComponents:
    """The three normalised performance measures of Eq. 2."""

    o_thr: float
    o_lat: float
    o_loss: float

    def weighted(self, weights) -> float:
        """Scalarise with a weight vector ``<w_thr, w_lat, w_loss>``."""
        return float(weights[0] * self.o_thr + weights[1] * self.o_lat
                     + weights[2] * self.o_loss)

    def as_array(self) -> np.ndarray:
        return np.array([self.o_thr, self.o_lat, self.o_loss])


def apply_action(rate: float, action: float, scale: float) -> float:
    """Eq. 1: multiplicative rate adjustment dampened by ``scale``.

    ``x_t = x_{t-1} * (1 + alpha*a)`` for ``a > 0`` and
    ``x_t = x_{t-1} / (1 - alpha*a)`` for ``a < 0``.
    """
    if action >= 0:
        return rate * (1.0 + scale * action)
    return rate / (1.0 - scale * action)


def components_from_stats(stats: MonitorIntervalStats) -> RewardComponents:
    """Compute O_thr, O_lat, O_loss for one monitor interval."""
    o_thr = stats.utilization
    if stats.mean_rtt is None or stats.mean_rtt <= 0:
        o_lat = 0.0
    else:
        o_lat = min(stats.base_rtt / stats.mean_rtt, 1.0)
    o_loss = 1.0 - stats.loss_rate
    return RewardComponents(o_thr=o_thr, o_lat=o_lat, o_loss=o_loss)


class CongestionControlEnv:
    """Single-flow bottleneck environment with a gym-like API.

    Parameters
    ----------
    params:
        Fixed network conditions; mutually exclusive with ``ranges``.
    ranges:
        If given, each ``reset()`` draws fresh conditions uniformly from
        these Table-3 ranges (the paper's randomised training).
    trace:
        Optional explicit bandwidth trace (overrides the bandwidth in
        ``params``); used by e.g. the Fig. 1a step-bandwidth experiment.
    history_length:
        eta, the number of statistic vectors in the state (Table 2: 10).
    action_scale:
        alpha in Eq. 1 (Table 2: 0.025).
    max_steps:
        Episode length in monitor intervals.
    mi_duration:
        Monitor-interval duration; defaults to the path's base RTT.
    """

    #: Action bound: sampled Gaussian actions are clipped to this range
    #: before Eq. 1 (keeps a single step's rate change bounded).
    ACTION_CLIP = 1e3

    def __init__(self, params: NetworkParams | None = None,
                 ranges: NetworkRanges | None = None,
                 trace: BandwidthTrace | None = None,
                 history_length: int = 10,
                 action_scale: float = 0.025,
                 max_steps: int = 400,
                 mi_duration: float | None = None,
                 packet_bytes: int = 1500,
                 queue_bdp_range: tuple[float, float] | None = None,
                 seed: int = 0):
        if params is None and ranges is None and trace is None:
            ranges = TRAINING_RANGES
        self.params = params
        self.ranges = ranges
        #: When set, the sampled queue size is re-drawn as a multiple of
        #: the episode's bandwidth-delay product.  Table 3's absolute
        #: range (up to 3000 packets at 1-5 Mbps) allows queues worth
        #: tens of seconds, where latency/loss penalties arrive too late
        #: to shape the policy within an episode; BDP-relative buffers
        #: keep the congestion signals observable while still covering
        #: shallow-to-bufferbloat regimes.
        self.queue_bdp_range = queue_bdp_range
        self.trace = trace
        self.history = StatHistory(history_length)
        self.action_scale = action_scale
        self.max_steps = max_steps
        self.mi_duration = mi_duration
        self.packet_bytes = packet_bytes
        self.rng = stream_rng("env.params", seed)

        self._sim: Simulation | None = None
        self._controller: ExternalRateController | None = None
        self._steps = 0
        self._episode_seed = seed

    # --- environment API -----------------------------------------------------

    @property
    def observation_dim(self) -> int:
        return self.history.dim

    def reset(self) -> np.ndarray:
        """Start a new episode; returns the initial state vector."""
        self._episode_seed += 1
        params = self._draw_params()
        trace = self.trace
        if trace is None:
            trace = ConstantTrace(mbps_to_pps(params.bandwidth_mbps, self.packet_bytes))
        queue = params.queue_packets
        if self.queue_bdp_range is not None:
            bdp = trace.bandwidth_at(0.0) * 2.0 * params.latency_ms / 1000.0
            lo, hi = self.queue_bdp_range
            # Log-uniform: shallow and bufferbloat-deep buffers are both
            # well represented, so overdriving is punished somewhere in
            # the training distribution.
            factor = float(np.exp(self.rng.uniform(np.log(lo), np.log(hi))))
            queue = max(int(round(bdp * factor)), 2)
        link = Link(trace=trace, delay=params.latency_ms / 1000.0,
                    queue_size=queue, loss_rate=params.loss_rate,
                    rng=stream_rng("env.episode-link", self._episode_seed))
        capacity = trace.bandwidth_at(0.0)
        initial_rate = capacity * float(self.rng.uniform(0.3, 1.5))
        self._controller = ExternalRateController(initial_rate)
        mi = self.mi_duration if self.mi_duration is not None else max(link.base_rtt, 0.01)
        horizon = mi * (self.max_steps + 2)
        spec = FlowSpec(controller=self._controller, mi_duration=mi,
                        packet_bytes=self.packet_bytes)
        self._sim = Simulation(link, [spec], duration=horizon,
                               seed=self._episode_seed)
        self._mi = mi
        self._steps = 0
        self._active_params = params
        self.history.reset()
        # Warm-up: run one MI at the initial rate so the first state
        # reflects real measurements rather than the neutral fill.
        self._sim.run(until=self._mi)
        if self._flow.records:
            self.history.push(self._flow, self._flow.records[-1])
        return self.history.vector()

    def step(self, action: float):
        """Apply Eq. 1, simulate one MI, return the transition.

        Returns ``(state, components, done, info)`` where ``components``
        is a :class:`RewardComponents` -- callers scalarise it with
        their own objective (fixed for Aurora, dynamic for MOCC).
        """
        sim, controller = self._sim, self._controller
        if sim is None or controller is None:
            raise RuntimeError("call reset() before step()")
        flow = sim.flows[0]
        action = _clamp(float(action), -self.ACTION_CLIP, self.ACTION_CLIP)
        controller.set_rate(apply_action(controller.rate, action, self.action_scale))

        target = sim.now + self._mi
        before = len(flow.records)
        sim.run(until=target)
        if len(flow.records) > before:
            stats = flow.records[-1]
        else:  # Degenerate MI (no events); synthesise an empty interval.
            stats = flow.finish_mi(target, self._link_capacity(), sim.base_rtt,
                                   controller.rate)
        components = components_from_stats(stats)
        self.history.push(flow, stats)
        self._steps += 1
        done = self._steps >= self.max_steps
        info = {"stats": stats, "rate_pps": controller.rate,
                "params": self._active_params}
        return self.history.vector(), components, done, info

    # --- helpers ----------------------------------------------------------------

    @property
    def _flow(self):
        return self._sim.flows[0]

    def _link_capacity(self) -> float:
        return self._sim.links[0].bandwidth_at(self._sim.now)

    def _draw_params(self) -> NetworkParams:
        if self.params is not None:
            return self.params
        if self.ranges is not None:
            return self.ranges.sample(self.rng)
        # Trace-only configuration: defaults for delay/queue/loss.
        return NetworkParams(bandwidth_mbps=0.0, latency_ms=20.0,
                             queue_packets=1000, loss_rate=0.0)


class MoccEnv:
    """Preference-aware wrapper: MOCC's state + dynamic reward (Fig. 2b).

    ``reset(weights)`` fixes the application requirement for the
    episode; ``step`` returns the scalar reward of Eq. 2 along with the
    network-state vector and the weight vector (the two state inputs of
    the preference-conditioned policy).
    """

    def __init__(self, env: CongestionControlEnv):
        self.env = env
        self.weights = np.array([1 / 3, 1 / 3, 1 / 3])

    @property
    def observation_dim(self) -> int:
        return self.env.observation_dim

    @property
    def weight_dim(self) -> int:
        return 3

    def reset(self, weights) -> tuple[np.ndarray, np.ndarray]:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (3,):
            raise ValueError("weight vector must have three components")
        if not np.isclose(w.sum(), 1.0, atol=1e-6):
            raise ValueError("weights must sum to 1")
        self.weights = w
        obs = self.env.reset()
        return obs, self.weights.copy()

    def step(self, action: float):
        """Returns ``(obs, weights, reward, components, done, info)``."""
        obs, components, done, info = self.env.step(action)
        reward = components.weighted(self.weights)
        return obs, self.weights.copy(), reward, components, done, info
