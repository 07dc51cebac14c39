"""The gym-style congestion-control environment.

One environment serves both of the paper's Fig. 2 settings: Aurora's
(Fig. 2a) is :class:`MoccEnv` with its reward weights held fixed, MOCC's
(Fig. 2b) feeds the weight vector to the policy as a second state
input.  The state is the eta-history of network statistics, the action
is the continuous rate adjustment of Eq. 1, and ``step`` returns both
the raw reward components and the dynamic reward of Eq. 2:

    r_t = w_thr * O_thr + w_lat * O_lat + w_loss * O_loss

with O_thr = throughput/capacity, O_lat = base RTT / measured RTT,
O_loss = 1 - lost/total, all normalised to [0, 1].

An :class:`EnvSpec` is the environment's one recipe.  Its ``ranges``
names the episode network: Table-3 :class:`~repro.config.NetworkRanges`
draw a fresh one per episode (training), a fixed
:class:`~repro.config.NetworkParams` -- optionally carrying a bandwidth
trace -- is every episode's (evaluation).  The link is a one-link
:func:`~repro.netsim.topology.dumbbell` cell built by
``TopologySpec.build`` -- the one network builder -- with link seed
``7919 * e + 1`` for episode seed ``e``, so its wire loss is the
``link.loss`` stream of that seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import (DEFAULT_TRAINING, NetworkParams, NetworkRanges,
                          TRAINING_RANGES)
from repro.netsim.history import StatHistory, _clamp
from repro.netsim.network import MIN_MI_DURATION, FlowSpec, Simulation
from repro.netsim.rngstreams import stream_rng
from repro.netsim.sender import ExternalRateController, MonitorIntervalStats
from repro.netsim.topology import dumbbell

__all__ = ["EnvSpec", "EpisodeDraw", "MoccEnv", "RewardComponents",
           "apply_action", "checked_objective", "sums_to_one"]


@dataclass(frozen=True)
class RewardComponents:
    """The three normalised performance measures of Eq. 2."""

    o_thr: float
    o_lat: float
    o_loss: float

    def weighted(self, weights) -> float:
        """Eq. 2, the dynamic reward: scalarise with a weight vector
        ``<w_thr, w_lat, w_loss>``."""
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
    """Compute O_thr, O_lat, O_loss for one monitor interval.

    ``o_thr`` is ``stats.utilization`` and ``o_loss`` is ``1 -
    stats.loss_rate``, computed inline with the same operations (this
    runs once per env step; the properties cost a call each).
    """
    duration = stats.end - stats.start
    capacity = stats.capacity_pps
    if capacity <= 0 or duration <= 0:
        o_thr = 0.0
    else:
        o_thr = min(stats.acked / duration / capacity, 1.0)
    mean_rtt = stats.mean_rtt
    if mean_rtt is None or mean_rtt <= 0:
        o_lat = 0.0
    else:
        o_lat = min(stats.base_rtt / mean_rtt, 1.0)
    total = stats.lost + stats.acked
    o_loss = 1.0 - stats.lost / total if total else 1.0
    return RewardComponents(o_thr, o_lat, o_loss)


@dataclass(frozen=True)
class EnvSpec:
    """Frozen recipe for building a :class:`MoccEnv`.

    A collector builds its environments from the spec, each with its
    own seed offset, so one spec describes a whole family of envs.

    ``ranges`` is the episode network: Table-3 ranges are sampled anew
    at every ``reset`` (the paper's randomised training), a fixed
    :class:`~repro.config.NetworkParams` samples to itself and draws
    nothing.  ``history_length`` is eta and ``action_scale`` alpha in
    Eq. 1, both Table 2's values from ``DEFAULT_TRAINING`` by default;
    ``max_steps`` is the episode length in monitor intervals.
    """

    ranges: NetworkRanges | NetworkParams = TRAINING_RANGES
    history_length: int = DEFAULT_TRAINING.history_length
    action_scale: float = DEFAULT_TRAINING.action_scale
    max_steps: int = 64
    seed: int = 0

    def build(self, seed_offset: int = 0) -> MoccEnv:
        return MoccEnv(self, self.seed + seed_offset)


def checked_objective(weights) -> np.ndarray:
    """``weights`` as an episode takes them: three float64 components
    summing to one."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (3,):
        raise ValueError("weight vector must have three components")
    if not sums_to_one(w):
        raise ValueError("weights must sum to 1")
    return w


def sums_to_one(w: np.ndarray) -> bool:
    """Whether ``w`` sums to one: what ``np.isclose(w.sum(), 1.0,
    atol=1e-6)`` accepts (``atol + rtol * 1.0``), on a plain float."""
    return abs(float(w.sum()) - 1.0) <= 1e-6 + 1e-5


@dataclass(frozen=True)
class EpisodeDraw:
    """What an env draws for one episode (:meth:`MoccEnv.draw`): its
    network, its seed, and the factor its initial rate is of the
    link's capacity."""

    params: NetworkParams
    seed: int
    rate_scale: float


class MoccEnv:
    """Single-flow bottleneck environment with a gym-like API.

    ``reset(weights)`` fixes the application requirement for the
    episode; ``step`` returns the scalar reward of Eq. 2 along with the
    network-state vector and the weight vector (the two state inputs of
    the preference-conditioned policy).  ``seed`` seeds the env's
    ``env.params`` stream and numbers its episodes.

    A reset is :meth:`draw`, which takes everything the episode needs
    from the env's stream, then :meth:`start`, which draws nothing: a
    collector draws its episodes here and may run them in another
    process, on another env of the same spec.
    """

    #: Action bound: sampled Gaussian actions are clipped to this range
    #: before Eq. 1 (keeps a single step's rate change bounded).
    ACTION_CLIP = 1e3

    def __init__(self, spec: EnvSpec, seed: int):
        self.spec = spec
        self.history = StatHistory(spec.history_length)
        self.rng = stream_rng("env.params", seed)

        self._sim: Simulation | None = None
        self._controller: ExternalRateController | None = None
        self._steps = 0
        self._episode_seed = seed

    @property
    def observation_dim(self) -> int:
        return self.history.dim

    def reset(self, weights) -> tuple[np.ndarray, np.ndarray]:
        """Start a new episode under ``weights``: this env's next
        :meth:`draw`, then :meth:`start`.  Returns the initial state
        vector and the weights."""
        return self.start(checked_objective(weights), self.draw())

    def draw(self) -> EpisodeDraw:
        """Everything a new episode takes from this env's stream, in
        the order a reset always drew it: the episode network, then the
        initial-rate factor; and the next episode seed."""
        self._episode_seed += 1
        params = self.spec.ranges.sample(self.rng)
        return EpisodeDraw(params, self._episode_seed,
                           float(self.rng.uniform(0.3, 1.5)))

    def start(self, weights: np.ndarray, episode: EpisodeDraw
              ) -> tuple[np.ndarray, np.ndarray]:
        """Start ``episode`` under ``weights`` (a
        :func:`checked_objective`), drawing nothing: an episode is a
        function of its draw and its weights alone, whichever env of
        the spec runs it.  Returns the initial state vector and the
        weights."""
        self.weights = weights
        # Eq. 2 on Python floats: the same products and sums as on the
        # array's float64 scalars, without building one per access.
        self._w = tuple(weights.tolist())

        params = episode.params
        # The queue is passed as drawn: Table 3 goes down to one packet,
        # below the builder's BDP floor.
        topology = dumbbell(params.bandwidth_mbps, params.latency_ms,
                            queue_packets=params.queue_packets,
                            loss_rate=params.loss_rate,
                            trace=params.trace).build(
                                seed=7919 * episode.seed + 1)
        capacity = topology.links["hop0"].bandwidth_at(0.0)
        initial_rate = capacity * episode.rate_scale
        self._controller = ExternalRateController(initial_rate)
        self._mi = max(topology.path().base_rtt, MIN_MI_DURATION)
        flow = FlowSpec(controller=self._controller, mi_duration=self._mi)
        self._sim = Simulation(topology, [flow],
                               duration=self._mi * (self.spec.max_steps + 2),
                               seed=episode.seed)
        self._steps = 0
        self.history.reset()
        # Warm-up: run one MI at the initial rate so the first state
        # reflects real measurements rather than the neutral fill.
        self._sim.run(until=self._mi)
        if records := self._sim.flows[0].records:
            stats = records[-1]
            self.history.push(stats, stats.rate_pps)
        return self.history.vector(), self.weights.copy()

    def step(self, action: float):
        """Apply Eq. 1 and simulate one MI.

        Returns ``(obs, weights, reward, components, done, info)``:
        ``components`` is the :class:`RewardComponents` of the interval
        and ``reward`` its Eq. 2 scalarisation under the episode's
        weights.
        """
        sim, controller = self._sim, self._controller
        if sim is None or controller is None:
            raise RuntimeError("call reset() before step()")
        flow = sim.flows[0]
        action = _clamp(float(action), -self.ACTION_CLIP, self.ACTION_CLIP)
        controller.set_rate(apply_action(controller.rate, action,
                                         self.spec.action_scale))

        target = sim.now + self._mi
        before = len(flow.records)
        sim.run(until=target)
        if len(flow.records) > before:
            stats = flow.records[-1]
        else:  # Degenerate MI (no events); synthesise an empty interval.
            stats = flow.finish_mi(target, sim.links[0].bandwidth_at(sim.now),
                                   sim.base_rtt, controller.rate)
        components = components_from_stats(stats)
        self.history.push(stats, stats.rate_pps)
        self._steps += 1
        done = self._steps >= self.spec.max_steps
        info = {"stats": stats, "rate_pps": controller.rate}
        return (self.history.vector(), self.weights.copy(),
                components.weighted(self._w), components, done, info)
