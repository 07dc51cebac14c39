"""The deployable MOCC library (§5).

"For better portability, we encapsulate all MOCC's functions into one
library" with three calls:

* ``register(w)``          -- declare the application's requirement;
* ``report_status(st)``    -- feed the latest networking status;
* ``get_sending_rate()``   -- obtain the rate for the next interval.

The library is datapath-agnostic: the UDT-style and CCP-style shims in
:mod:`repro.datapath` both drive this same object, as would any real
transport.  Status reports carry raw measurements (sent/acked/lost
packets, mean RTT, the in-interval RTT slope); ``report_status`` hands
them to :meth:`StatHistory.push <repro.netsim.history.StatHistory.push>`,
the same function that built every state the policy was trained on, so
callers never deal with RL internals and a deployed model sees the
features it learned from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.agent import MoccAgent
from repro.core.weights import validate_weights
from repro.netsim.env import apply_action
from repro.netsim.history import StatHistory
from repro.rl.policy import InferencePlan

__all__ = ["NetworkStatus", "MOCC"]


@dataclass(frozen=True)
class NetworkStatus:
    """One interval's raw networking status (the ``st`` of §5).

    ``duration`` is the length of the reporting interval in seconds;
    ``mean_rtt`` is ``None`` when nothing was acknowledged;
    ``latency_gradient`` is the least-squares slope of RTT over ack time
    within the interval (s/s), 0 with fewer than two acks.
    """

    sent: int
    acked: int
    lost: int
    mean_rtt: float | None
    latency_gradient: float
    duration: float


class MOCC:
    """Plug-and-play multi-objective congestion control (§5 API)."""

    def __init__(self, agent: MoccAgent, initial_rate: float = 100.0):
        self.agent = agent
        self.history = StatHistory(agent.config.history_length)
        self.rate = float(initial_rate)
        self.weights: np.ndarray | None = None
        self._plan: InferencePlan | None = None  # resolved by register()
        #: Policy inference counter (used by the overhead study).
        self.inference_count = 0

    # --- the three §5 calls ----------------------------------------------

    def register(self, weights) -> None:
        """``Register(w)``: set the application requirement.

        Also resolves the actor-only inference plan (the preference
        embedding of ``w`` is computed once, here): the policy is frozen
        until the next ``register``.  The history starts afresh: neutral
        fill, no RTT or throughput seen.
        """
        self.weights = validate_weights(weights)
        self.history.reset()
        self._plan = self.agent.model.plan(self.weights)

    def report_status(self, status: NetworkStatus) -> None:
        """``ReportStatus(st)``: append the interval's features, derived
        exactly as in training, against the rate the library last set."""
        if self._plan is None:
            raise RuntimeError("call register() before report_status()")
        if status.duration <= 0:
            raise ValueError("status duration must be positive")
        self.history.push(status, self.rate)

    def get_sending_rate(self) -> float:
        """``GetSendingRate()``: the rate for the next interval (pps)."""
        if self._plan is None:
            raise RuntimeError("call register() before get_sending_rate()")
        action = self._plan.action(self.history.buffer)
        self.inference_count += 1
        self.rate = apply_action(self.rate, action, self.agent.config.action_scale)
        return self.rate
