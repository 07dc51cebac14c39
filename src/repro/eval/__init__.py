"""Evaluation harness: runners, metrics and figure-data generators.

Every table/figure in the paper's §6 is regenerated from these pieces:

* :mod:`repro.eval.runner` -- run one scheme on one network, collect
  :class:`FlowRecord` aggregates; run competing flows on shared links.
* :mod:`repro.eval.metrics` -- link utilization, latency ratio, Jain's
  fairness index, friendliness ratio, reward statistics.
* :mod:`repro.eval.scenarios` -- declarative scenarios and suite grids.
* :mod:`repro.eval.parallel` -- sharded suite execution + result cache.
* :mod:`repro.eval.sweeps` -- the Fig. 5 parameter sweeps, the
  multi-bottleneck + churn grids beyond the paper's evaluation, and
  the model-free engine-shape and batched-grid scenario builders.
* :mod:`repro.eval.gaussian` -- 1-sigma ellipses for Fig. 1(b).
* :mod:`repro.eval.cdf` -- empirical CDFs (Figs. 6, 12, 16, 18).
* :mod:`repro.eval.overhead` -- control-loop CPU cost (Fig. 17).
"""

from repro.eval.runner import (
    EvalNetwork,
    build_competition,
    run_competition,
    run_scheme,
    scheme_factory,
)
from repro.eval.scenarios import (
    AgentRef,
    ChurnSchedule,
    FlowDef,
    Scenario,
    ScenarioSuite,
    build_scenario_simulation,
    run_scenario,
    simulate_scenario,
)
from repro.eval.parallel import (
    ParallelRunner,
    ResultCache,
    ResultTable,
    ScenarioError,
    ScenarioResult,
    SuiteResult,
)
from repro.eval.metrics import (
    friendliness_ratio,
    jain_index,
    jain_index_series,
    reward_of_record,
)
from repro.eval.gaussian import sigma_ellipse
from repro.eval.cdf import empirical_cdf
from repro.eval.sweeps import (
    SweepResult,
    ack_congestion_suite,
    multihop_churn_suite,
    sweep_schemes,
)

__all__ = [
    "EvalNetwork",
    "run_scheme",
    "run_competition",
    "scheme_factory",
    "jain_index",
    "jain_index_series",
    "friendliness_ratio",
    "reward_of_record",
    "sigma_ellipse",
    "empirical_cdf",
    "SweepResult",
    "sweep_schemes",
    "multihop_churn_suite",
    "ack_congestion_suite",
    "AgentRef",
    "ChurnSchedule",
    "FlowDef",
    "Scenario",
    "ScenarioSuite",
    "run_scenario",
    "ParallelRunner",
    "ResultCache",
    "ResultTable",
    "ScenarioError",
    "ScenarioResult",
    "SuiteResult",
]
