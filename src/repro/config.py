"""Configuration objects for the MOCC reproduction.

Two tables in the paper pin down the configuration surface:

* Table 2 lists the learning hyperparameters (discount factor, learning
  rate, action scale factor, history length, number of landmark
  objectives).
* Table 3 lists the network-parameter ranges used for training and the
  (deliberately wider) ranges used for testing.

Both are captured here as frozen dataclasses so every component of the
library draws its defaults from a single place.

This is also the one module that reads the process environment: two
variables, each the *location* of an on-disk cache (never its
content -- entries are keyed by fingerprint, so moving a cache cannot
change what a key returns).  The replint ``env-taint`` rule rejects
an ``os.environ`` read anywhere else in the package.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent


def result_cache_dir() -> Path:
    """Where finished scenario results are memoized:
    ``REPRO_RESULT_CACHE``, else ``eval/_cache`` inside the package."""
    return Path(os.environ.get("REPRO_RESULT_CACHE")
                or _PACKAGE / "eval" / "_cache")


def model_cache_dir() -> Path:
    """Where trained model checkpoints are kept:
    ``REPRO_MODEL_CACHE``, else ``models/_cache`` inside the package."""
    return Path(os.environ.get("REPRO_MODEL_CACHE")
                or _PACKAGE / "models" / "_cache")


@dataclass(frozen=True)
class TrainingConfig:
    """Learning hyperparameters (paper Table 2 plus PPO settings from §4.2/§5).

    Attributes mirror the paper's notation:

    * ``discount_factor`` -- gamma, discounting future rewards.
    * ``learning_rate`` -- Adam step size (the paper reuses the symbol
      epsilon for this; we avoid the clash by naming it explicitly).
    * ``action_scale`` -- alpha in Eq. 1, dampens rate oscillations.
    * ``history_length`` -- eta, number of past statistic vectors in the
      state.
    * ``num_landmarks`` -- omega, number of pre-trained landmark
      objectives (36 in the paper, simplex step 1/10).
    * ``clip_epsilon`` -- PPO clipping threshold (0.2, §5).
    * ``entropy_start`` / ``entropy_end`` / ``entropy_decay_iters`` --
      the entropy coefficient beta decays 1 -> 0.1 over 1000 iterations.
    """

    discount_factor: float = 0.99
    learning_rate: float = 1e-3
    action_scale: float = 0.025
    history_length: int = 10
    num_landmarks: int = 36
    clip_epsilon: float = 0.2
    entropy_start: float = 1.0
    entropy_end: float = 0.1
    entropy_decay_iters: int = 1000
    # Architecture (§5): two hidden layers of 64 and 32 units, tanh.
    hidden_sizes: tuple[int, ...] = (64, 32)
    preference_hidden: int = 16
    # Rollout/optimisation sizing (stable-baselines-style defaults, scaled
    # for a pure-Python simulator).
    steps_per_iteration: int = 256
    minibatch_size: int = 64
    epochs_per_iteration: int = 4
    gae_lambda: float = 0.95
    value_coef: float = 0.5
    max_grad_norm: float = 5.0
    seed: int = 0

    def entropy_coef(self, iteration: int) -> float:
        """Linearly decayed entropy coefficient for a given iteration."""
        if iteration >= self.entropy_decay_iters:
            return self.entropy_end
        frac = iteration / float(self.entropy_decay_iters)
        return self.entropy_start + frac * (self.entropy_end - self.entropy_start)

    def replace(self, **kwargs) -> "TrainingConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class NetworkRanges:
    """A range of network parameters (paper Table 3 rows).

    Bandwidth is in Mbps, latency is the one-way delay in milliseconds,
    queue size is in packets, and loss rate is a probability.
    """

    bandwidth_mbps: tuple[float, float]
    latency_ms: tuple[float, float]
    queue_packets: tuple[int, int]
    loss_rate: tuple[float, float]

    def sample(self, rng) -> "NetworkParams":
        """Draw one parameter set uniformly from the ranges."""
        return NetworkParams(
            bandwidth_mbps=float(rng.uniform(*self.bandwidth_mbps)),
            latency_ms=float(rng.uniform(*self.latency_ms)),
            queue_packets=int(rng.integers(self.queue_packets[0], self.queue_packets[1] + 1)),
            loss_rate=float(rng.uniform(*self.loss_rate)),
        )


@dataclass(frozen=True)
class NetworkParams:
    """A concrete network-condition point."""

    bandwidth_mbps: float
    latency_ms: float
    queue_packets: int
    loss_rate: float


#: Table 3, "Training" row: 1-5 Mbps, 10-50 ms, 0-3000 pkts, 0-3 % loss.
TRAINING_RANGES = NetworkRanges(
    bandwidth_mbps=(1.0, 5.0),
    latency_ms=(10.0, 50.0),
    queue_packets=(1, 3000),
    loss_rate=(0.0, 0.03),
)

#: Table 3, "Testing" row: 10-50 Mbps, 10-200 ms, 500-5000 pkts, 0-10 % loss.
TESTING_RANGES = NetworkRanges(
    bandwidth_mbps=(10.0, 50.0),
    latency_ms=(10.0, 200.0),
    queue_packets=(500, 5000),
    loss_rate=(0.0, 0.10),
)

#: Default hyperparameters (Table 2).
DEFAULT_TRAINING = TrainingConfig()

#: The three bootstrap landmark objectives from Appendix B.
BOOTSTRAP_OBJECTIVES = (
    (0.6, 0.3, 0.1),
    (0.1, 0.6, 0.3),
    (0.3, 0.1, 0.6),
)
