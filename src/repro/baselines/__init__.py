"""Baseline congestion-control algorithms the paper compares against.

Hand-crafted: TCP CUBIC, TCP Vegas, BBR, Copa.
Learning-based (non-RL): PCC Allegro, PCC Vivace.
Learning-based (RL): Aurora (single-objective PPO) and a simplified
Orca (CUBIC substrate supervised by an RL multiplier).

Each controller implements the :class:`repro.netsim.sender.Controller`
interface, so any scheme can drive any flow in any topology.
"""

from repro.baselines.base import (
    allegro_utility,
    aurora_utility,
    orca_utility,
    vivace_utility,
)
from repro.baselines.cubic import Cubic
from repro.baselines.vegas import Vegas
from repro.baselines.bbr import BBR
from repro.baselines.copa import Copa
from repro.baselines.allegro import PCCAllegro
from repro.baselines.vivace import PCCVivace
from repro.baselines.aurora import AuroraController
from repro.baselines.orca import Orca

__all__ = [
    "Cubic",
    "Vegas",
    "BBR",
    "Copa",
    "PCCAllegro",
    "PCCVivace",
    "AuroraController",
    "Orca",
    "aurora_utility",
    "vivace_utility",
    "allegro_utility",
    "orca_utility",
]
