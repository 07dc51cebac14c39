"""Simplified Orca (Abbasloo et al. 2020) -- "classic meets modern".

Orca layers a deep-RL agent *on top of* classic TCP: CUBIC runs in the
datapath at packet granularity while the RL agent, consulted at a much
coarser cadence, scales the congestion window up or down around
CUBIC's decision.  This two-level design is why Orca's CPU overhead is
low (the model runs rarely -- Fig. 17) and why its behaviour partially
tracks CUBIC's (e.g. under random loss, Fig. 5c).

This reproduction keeps exactly that structure: a :class:`Cubic`
substrate plus a multiplicative cwnd scale driven by a single-objective
policy every ``rl_interval`` monitor intervals.  Without a model the
controller degrades to pure CUBIC (scale pinned at 1), which is useful
for tests.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cubic import Cubic
from repro.core.agent import MoccAgent
from repro.netsim.env import apply_action
from repro.netsim.history import StatHistory
from repro.netsim.packet import Packet
from repro.netsim.sender import Controller, Flow, MonitorIntervalStats

__all__ = ["Orca"]

#: Step size of the RL multiplier's multiplicative update.
ACTION_SCALE = 0.2


class Orca(Controller):
    """CUBIC substrate supervised by an RL cwnd multiplier."""

    kind = "window"
    name = "Orca"

    #: Bounds on the RL multiplier, keeping the heuristic in charge.
    MIN_SCALE = 0.25
    MAX_SCALE = 4.0

    def __init__(self, agent: MoccAgent | None = None, rl_interval: int = 4):
        if agent is not None and agent.weight_dim != 0:
            raise ValueError("Orca uses a single-objective model (weight_dim=0)")
        self.cubic = Cubic()
        self.agent = agent
        self.rl_interval = max(int(rl_interval), 1)
        self.scale = 1.0
        self.history = StatHistory(agent.config.history_length if agent else 10)
        self._plan = None
        self._mi_count = 0
        #: Policy inference counter (overhead accounting, Fig. 17).
        self.inference_count = 0

    def cwnd(self, now: float) -> float:
        return max(self.cubic.cwnd(now) * self.scale, 1.0)

    # --- delegate the datapath events to CUBIC -----------------------------

    def on_flow_start(self, flow: Flow, now: float) -> None:
        if self.agent:
            self._plan = self.agent.model.plan()
            self.history.buffer = self._plan.obs
        self.history.reset()

    def on_ack(self, flow: Flow, packet: Packet, now: float) -> None:
        self.cubic.on_ack(flow, packet, now)

    def on_loss(self, flow: Flow, packet: Packet, now: float) -> None:
        self.cubic.on_loss(flow, packet, now)

    # --- the coarse RL supervision loop ----------------------------------------

    def on_mi(self, flow: Flow, stats: MonitorIntervalStats, now: float) -> None:
        self.history.push(stats, stats.rate_pps)
        self._mi_count += 1
        if self._plan is None or self._mi_count % self.rl_interval != 0:
            return
        action = self._plan.action()
        self.inference_count += 1
        self.scale = float(np.clip(
            apply_action(self.scale, action, ACTION_SCALE),
            self.MIN_SCALE, self.MAX_SCALE))
