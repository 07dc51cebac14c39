"""MOCC: the paper's primary contribution.

* :mod:`repro.core.weights` -- application requirement vectors and the
  landmark-objective simplex grids (§4.1, §4.2).
* :mod:`repro.core.sorting` -- the neighbourhood-based objective sorting
  algorithm (Appendix B, Algorithm 1).
* :mod:`repro.core.agent` -- the preference-conditioned MOCC agent and
  its rate controller for the simulator, a datapath around the library.
* :mod:`repro.core.offline` -- two-phase offline training (§4.2).
* :mod:`repro.core.online` -- online adaptation with requirement replay
  (§4.3).
* :mod:`repro.core.library` -- the deployable library API (§5):
  ``register`` / ``report_status`` / ``get_sending_rate``, the one
  policy step every deployed learned controller runs.
"""

from repro.core.weights import (
    BALANCE_WEIGHTS,
    LATENCY_WEIGHTS,
    THROUGHPUT_WEIGHTS,
    omega_for_step,
    project_to_simplex,
    sample_weight,
    simplex_grid,
    validate_weights,
)
from repro.core.sorting import neighborhood_sort, objective_graph
from repro.core.agent import MoccAgent, MoccController
from repro.core.offline import OfflineTrainer, OfflineResult
from repro.core.online import OnlineAdapter, RequirementReplay, AdaptationTrace
from repro.core.library import MOCC, NetworkStatus

__all__ = [
    "THROUGHPUT_WEIGHTS",
    "LATENCY_WEIGHTS",
    "BALANCE_WEIGHTS",
    "validate_weights",
    "simplex_grid",
    "omega_for_step",
    "sample_weight",
    "project_to_simplex",
    "objective_graph",
    "neighborhood_sort",
    "MoccAgent",
    "MoccController",
    "OfflineTrainer",
    "OfflineResult",
    "OnlineAdapter",
    "RequirementReplay",
    "AdaptationTrace",
    "MOCC",
    "NetworkStatus",
]
