"""Evaluation harness: runners, metrics and figure-data generators.

Every table/figure in the paper's §6 is regenerated from these pieces:

* :mod:`repro.eval.runner` -- run one scheme on one network, collect
  :class:`FlowRecord` aggregates; run competing flows on shared links.
* :mod:`repro.eval.metrics` -- link utilization, latency ratio, Jain's
  fairness index, friendliness ratio, reward statistics.
* :mod:`repro.eval.scenarios` -- declarative scenarios and suite grids.
* :mod:`repro.eval.parallel` -- sharded suite execution; a run returns
  one :class:`SuiteResult` (per-cell records plus a tidy table).
* :mod:`repro.eval.resilience` -- the worker pool, the sealed record
  codec, the on-disk result cache and the sweep journal.
* :mod:`repro.eval.sweeps` -- the Fig. 5 parameter sweeps and the
  multi-bottleneck + churn and ack-congestion grids beyond the
  paper's evaluation, all as scenario suites.
* :mod:`repro.eval.gaussian` -- 1-sigma ellipses for Fig. 1(b).
* :mod:`repro.eval.cdf` -- reward-percentile tables (Figs. 6, 12, 16,
  18).
* :mod:`repro.eval.overhead` -- control-loop CPU cost (Fig. 17).
* :mod:`repro.eval.pareto` -- Pareto fronts and exact hypervolume for
  the multi-objective scorecard.
"""

from repro.eval.runner import (
    EvalNetwork,
    build_competition,
    run_competition,
    run_scheme,
    scheme_factory,
)
from repro.eval.scenarios import (
    ChurnSchedule,
    FlowDef,
    Scenario,
    ScenarioSuite,
    build_scenario_simulation,
)
from repro.eval.parallel import (
    ParallelRunner,
    ScenarioError,
    ScenarioResult,
    SuiteResult,
)
from repro.eval.resilience import ResultCache
from repro.eval.metrics import (
    friendliness_ratio,
    jain_index,
    jain_index_series,
    reward_of_record,
)
from repro.eval.gaussian import sigma_ellipse
from repro.eval.sweeps import ack_congestion_suite, multihop_churn_suite

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
    "multihop_churn_suite",
    "ack_congestion_suite",
    "ChurnSchedule",
    "FlowDef",
    "Scenario",
    "ScenarioSuite",
    "ParallelRunner",
    "ResultCache",
    "ScenarioError",
    "ScenarioResult",
    "SuiteResult",
]
