"""Aurora (Jay et al. 2019) -- single-objective deep-RL congestion control.

Aurora is the paper's closest prior work (Fig. 2a): the same PPO
machinery and monitor-interval state as MOCC, but with a *fixed* reward
and no preference sub-network, so one trained model optimises exactly
one objective.  "Aurora-throughput" and "Aurora-latency" in the
evaluation are two separately-trained instances.

Training lives in :func:`repro.core.offline.train_single_objective`;
this module provides the inference-time controller.
"""

from __future__ import annotations

from repro.core.agent import MoccAgent, PolicyRateController

__all__ = ["AuroraController"]


class AuroraController(PolicyRateController):
    """Inference-time Aurora: a frozen single-objective policy."""

    name = "Aurora"

    def __init__(self, agent: MoccAgent, initial_rate: float = 100.0,
                 flavor: str | None = None):
        if agent.weight_dim != 0:
            raise ValueError("Aurora uses a single-objective model (weight_dim=0)")
        super().__init__(agent, None, initial_rate)
        if flavor:
            self.name = f"Aurora-{flavor}"
