"""The dynamic reward function (Eq. 2).

    r_t = w_thr * O_thr + w_lat * O_lat + w_loss * O_loss

with the three performance measures normalised to [0, 1]:

* ``O_thr  = measured throughput / link capacity``
* ``O_lat  = base link latency / measured latency``
* ``O_loss = 1 - lost packets / total packets``

In simulation the capacity and base latency are known: the env builds
each interval's components with
:func:`repro.netsim.env.components_from_stats`.
"""

from __future__ import annotations

from repro.netsim.env import RewardComponents

__all__ = ["dynamic_reward"]


def dynamic_reward(components: RewardComponents, weights) -> float:
    """Eq. 2: scalarise reward components with an application weight."""
    return components.weighted(weights)
