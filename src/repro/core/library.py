"""The deployable MOCC library (§5): the one deployed policy step.

"For better portability, we encapsulate all MOCC's functions into one
library" with three calls:

* ``register(w)``          -- declare the application's requirement;
* ``report_status(st)``    -- feed the latest networking status;
* ``get_sending_rate()``   -- obtain the rate for the next interval.

The history, the inference plan and Eq. 1 live here alone, and
``get_sending_rate`` is the only place a deployed rate changes.  The
simulator's learned controllers (MOCC, Aurora) are datapaths around it
(:class:`~repro.core.agent.PolicyRateController`).  Status reports
carry raw measurements (sent/acked/lost packets, mean RTT, the
in-interval RTT slope); ``report_status`` hands them to
:meth:`StatHistory.push <repro.netsim.history.StatHistory.push>`, the
same function that built every state the policy was trained on, so a
deployed model sees the features it learned from.

Inference is actor-only: ``register`` resolves an
:class:`~repro.rl.policy.InferencePlan` (the preference embedding is
computed once, there) and makes the history's buffer the plan's
observation row, so each consultation costs one no-grad actor forward
on the history buffer itself (no copy) -- no critic, no
log-probability, no backward caches.  A deployed policy acts on the
actor's mean: it draws no random number, so the library takes no seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.weights import validate_weights
from repro.netsim.env import apply_action
from repro.netsim.history import StatHistory
from repro.rl.policy import InferencePlan

if TYPE_CHECKING:
    from repro.core.agent import MoccAgent

__all__ = ["NetworkStatus", "MOCC"]


@dataclass(frozen=True)
class NetworkStatus:
    """One interval's raw networking status (the ``st`` of §5).

    ``duration`` is the length of the reporting interval in seconds;
    ``mean_rtt`` is ``None`` when nothing was acknowledged;
    ``latency_gradient`` is the least-squares slope of RTT over ack time
    within the interval (s/s), 0 with fewer than two acks.  A
    :class:`~repro.netsim.sender.MonitorIntervalStats` carries the same
    fields and may be reported as it is.
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
        self._action_scale = agent.config.action_scale
        self.weights: np.ndarray | None = None
        self._plan: InferencePlan | None = None  # resolved by register()
        #: Policy inference counter (used by the overhead study).
        self.inference_count = 0

    # --- the three §5 calls ----------------------------------------------

    def register(self, weights) -> None:
        """``Register(w)``: set the application requirement.

        ``None`` serves an unconditioned (Aurora) agent.  Also resolves
        the inference plan from the agent's current model: the policy
        is frozen until the next ``register``.  The history moves onto
        the new plan's observation row and starts afresh there: neutral
        fill, no RTT or throughput seen.
        """
        model = self.agent.model
        if weights is not None:
            weights = validate_weights(weights)
        elif model.weight_dim > 0:
            raise ValueError("preference-conditioned model needs a weight vector")
        self.weights = weights
        plan = model.plan(weights)
        self.history.buffer = plan.obs
        self.history.reset()
        self._plan = plan

    def report_status(self, status: NetworkStatus) -> None:
        """``ReportStatus(st)``: append the interval's features, derived
        exactly as in training, against the rate the library last set."""
        if self._plan is None:
            raise RuntimeError("call register() before report_status()")
        if status.duration <= 0:
            raise ValueError("status duration must be positive")
        self.history.push(status, self.rate)

    def get_sending_rate(self) -> float:
        """``GetSendingRate()``: the rate for the next interval (pps),
        Eq. 1 applied to the last one."""
        plan = self._plan
        if plan is None:
            raise RuntimeError("call register() before get_sending_rate()")
        action = plan.action()
        self.inference_count += 1
        self.rate = rate = apply_action(self.rate, action, self._action_scale)
        return rate
