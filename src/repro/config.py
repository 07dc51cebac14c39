"""Configuration objects for the MOCC reproduction.

Two tables in the paper pin down the configuration surface:

* Table 2 lists the learning hyperparameters (discount factor, learning
  rate, action scale factor, history length, number of landmark
  objectives).
* Table 3 lists the network-parameter ranges used for training and the
  (deliberately wider) ranges used for testing.

Table 3's rows are frozen dataclasses.  The Table 2 and §5 values no
run turns are one block of module constants, with beta's schedule
(:func:`entropy_coef`) and omega (:data:`NUM_LANDMARKS`);
:class:`TrainingConfig` holds the six a run sets, and a tier-1 field
census (``tests/test_src_callers.py``) keeps it so.  Two PPO settings
live beside the loss in :mod:`repro.rl.ppo`: ``ENTROPY_SCALE`` (beta's
multiplier) and ``LOG_STD_BOUNDS`` (the clamp on the policy's log-std).

This is also the one module that reads the process environment: two
variables, each the *location* of an on-disk cache (never its
content -- entries are keyed by fingerprint, so moving a cache cannot
change what a key returns).  ``tests/test_config.py`` fails on an
``os.environ`` read anywhere else in the package.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.netsim.traces import BandwidthTrace

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


#: Table 2 and §5: gamma, Adam's step size (the paper's epsilon), the
#: PPO clip, and beta decaying 1 -> 0.1 over 1000 iterations.  The rest
#: are stable-baselines-style defaults scaled for a pure-Python
#: simulator.
DISCOUNT_FACTOR = 0.99
LEARNING_RATE = 1e-3
CLIP_EPSILON = 0.2
ENTROPY_START = 1.0
ENTROPY_END = 0.1
ENTROPY_DECAY_ITERS = 1000
EPOCHS_PER_ITERATION = 4
GAE_LAMBDA = 0.95
VALUE_COEF = 0.5
MAX_GRAD_NORM = 5.0


def entropy_coef(iteration: int) -> float:
    """beta at a given PPO iteration, decayed linearly."""
    if iteration >= ENTROPY_DECAY_ITERS:
        return ENTROPY_END
    frac = iteration / float(ENTROPY_DECAY_ITERS)
    return ENTROPY_START + frac * (ENTROPY_END - ENTROPY_START)


@dataclass(frozen=True)
class TrainingConfig:
    """The training values a run sets: Table 2's alpha
    (``action_scale``, Eq. 1) and eta (``history_length``, past
    statistic vectors in the state) and the architecture, which a
    checkpoint restores, and the rollout and minibatch sizes."""

    action_scale: float = 0.025
    history_length: int = 10
    # Architecture (§5): two hidden layers of 64 and 32 units, tanh.
    hidden_sizes: tuple[int, ...] = (64, 32)
    preference_hidden: int = 16
    steps_per_iteration: int = 256
    minibatch_size: int = 64

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
    """A concrete network-condition point.

    ``trace``, when given, is the link's bandwidth process in place of
    the constant ``bandwidth_mbps``.
    """

    bandwidth_mbps: float
    latency_ms: float
    queue_packets: int
    loss_rate: float
    trace: BandwidthTrace | None = None

    def sample(self, rng) -> "NetworkParams":
        """A fixed point is its own only draw: returns itself and leaves
        ``rng`` untouched."""
        return self


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

#: Table 2's omega: the number of landmark objectives offline training
#: visits (the interior simplex grid at step 1/10).
NUM_LANDMARKS = 36

#: The three bootstrap landmark objectives from Appendix B.
BOOTSTRAP_OBJECTIVES = (
    (0.6, 0.3, 0.1),
    (0.1, 0.6, 0.3),
    (0.3, 0.1, 0.6),
)
