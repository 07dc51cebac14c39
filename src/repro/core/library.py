"""The deployable MOCC library (§5).

"For better portability, we encapsulate all MOCC's functions into one
library" with three calls:

* ``register(w)``          -- declare the application's requirement;
* ``report_status(st)``    -- feed the latest networking status;
* ``get_sending_rate()``   -- obtain the rate for the next interval.

The library is datapath-agnostic: the UDT-style and CCP-style shims in
:mod:`repro.datapath` both drive this same object, as would any real
transport.  Status reports carry raw counters (sent/acked/lost packets,
mean RTT); the library derives the model's state features itself --
including the online capacity / base-latency estimates used by the
reward normalisation (§4.1) -- so callers never deal with RL internals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.agent import MoccAgent
from repro.core.objectives import OnlineEstimator
from repro.core.weights import validate_weights
from repro.netsim.env import apply_action
from repro.netsim.history import GRADIENT_SCALE, StatHistory
from repro.netsim.sender import LATENCY_RATIO_CAP, SEND_RATIO_CAP
from repro.rl.policy import InferencePlan

__all__ = ["NetworkStatus", "MOCC"]


@dataclass(frozen=True)
class NetworkStatus:
    """One interval's raw networking status (the ``st`` of §5).

    ``duration`` is the length of the reporting interval in seconds;
    ``mean_rtt`` is ``None`` when nothing was acknowledged.
    """

    sent: int
    acked: int
    lost: int
    mean_rtt: float | None
    duration: float


class MOCC:
    """Plug-and-play multi-objective congestion control (§5 API)."""

    def __init__(self, agent: MoccAgent, initial_rate: float = 100.0,
                 deterministic: bool = True, seed: int = 0):
        self.agent = agent
        self.history = StatHistory(agent.config.history_length)
        self.estimator = OnlineEstimator()
        self.rate = float(initial_rate)
        self.deterministic = deterministic
        self.rng = np.random.default_rng(seed)
        self.weights: np.ndarray | None = None
        self._min_mean_rtt: float | None = None
        self._prev_mean_rtt: float | None = None
        self._plan: InferencePlan | None = None  # resolved by register()
        #: Policy inference counter (used by the overhead study).
        self.inference_count = 0

    # --- the three §5 calls ----------------------------------------------

    def register(self, weights) -> None:
        """``Register(w)``: set the application requirement.

        Also resolves the actor-only inference plan (the preference
        embedding of ``w`` is computed once, here): the policy is frozen
        until the next ``register``.
        """
        self.weights = validate_weights(weights)
        self.history.reset()
        self._plan = self.agent.model.plan(self.weights)

    def report_status(self, status: NetworkStatus) -> None:
        """``ReportStatus(st)``: fold one interval's status into state."""
        if self._plan is None:
            raise RuntimeError("call register() before report_status()")
        if status.duration <= 0:
            raise ValueError("status duration must be positive")

        if status.acked == 0:
            send_ratio = SEND_RATIO_CAP if status.sent > 0 else 1.0
        else:
            send_ratio = min(status.sent / status.acked, SEND_RATIO_CAP)

        mean_rtt = status.mean_rtt
        if mean_rtt is not None:
            if self._min_mean_rtt is None or mean_rtt < self._min_mean_rtt:
                self._min_mean_rtt = mean_rtt
            latency_ratio = min(mean_rtt / self._min_mean_rtt, LATENCY_RATIO_CAP)
            if self._prev_mean_rtt is None:
                gradient = 0.0
            else:
                gradient = (mean_rtt - self._prev_mean_rtt) / status.duration
            self._prev_mean_rtt = mean_rtt
        else:
            latency_ratio = LATENCY_RATIO_CAP
            gradient = 0.0

        throughput = status.acked / status.duration
        self.estimator.update(throughput, mean_rtt)
        capacity = self.estimator.capacity
        rate_ratio = self.rate / capacity if capacity else 1.0
        self.history.push_raw(send_ratio, latency_ratio, gradient * GRADIENT_SCALE,
                              rate_ratio)

    def get_sending_rate(self) -> float:
        """``GetSendingRate()``: the rate for the next interval (pps)."""
        if self._plan is None:
            raise RuntimeError("call register() before get_sending_rate()")
        action = self._plan.action(self.history.vector(), self.rng,
                                   self.deterministic)
        self.inference_count += 1
        self.rate = apply_action(self.rate, action, self.agent.config.action_scale)
        return self.rate
