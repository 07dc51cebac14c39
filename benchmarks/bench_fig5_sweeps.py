"""Fig. 5: multi-objective performance across network conditions.

Panels (a)-(d): bottleneck utilization for the throughput objective
(w = <0.8, 0.1, 0.1>) while varying bandwidth, one-way latency, random
loss, and buffer size.  Panels (e)-(h): latency ratio for the latency
objective (w = <0.1, 0.8, 0.1>) over the same sweeps.  Evaluation
ranges deliberately exceed the training ranges (Table 3).

The eight panels are the ``fig5ad`` and ``fig5eh`` entries of the
figure registry: four :func:`~repro.eval.sweeps.sweep_suite` grids
each, 7 schemes x 4 values, run as one sweep through the shared
parallel runner, so the cells shard across cores and re-runs come from
the result cache.  A panel is one grid's results pivoted by line-up
(one per scheme) against the swept column.
"""

from conftest import print_table, run_once

from repro.eval.parallel import SuiteResult
from repro.eval.sweeps import FIGURES

#: The result column each sweep varies (``rtt_ms`` is round-trip:
#: twice the one-way latency values).
COLUMNS = {"bandwidth": "bandwidth_mbps", "latency": "rtt_ms",
           "loss": "loss", "buffer": "buffer"}


def _run_sweeps(runner, figure, mocc_agent, aurora_agent):
    """``{parameter: SuiteResult}`` over every Fig. 5 sweep."""
    outcome = runner.run(FIGURES[figure](mocc_agent, aurora_agent))
    return {param: SuiteResult([r for r in outcome
                                if r.scenario.suite == f"fig5-{param}"])
            for param in COLUMNS}


def _print_panels(sweeps, metric):
    for param, sweep in sweeps.items():
        schemes, values, matrix = sweep.pivot("lineup", COLUMNS[param], metric)
        print_table(f"{metric} vs {param}", ["scheme", *values],
                    [[scheme, *row] for scheme, row in zip(schemes, matrix)])


def _panel(sweep, param, metric) -> dict:
    """``{scheme: its values across the sweep}``: one Fig. 5 panel."""
    schemes, _, matrix = sweep.pivot("lineup", COLUMNS[param], metric)
    return dict(zip(schemes, matrix))


def bench_fig5ad_utilization(benchmark, runner, mocc_agent, aurora_throughput):
    """Fig. 5(a-d): utilization sweeps, throughput objective."""

    def experiment():
        return _run_sweeps(runner, "fig5ad", mocc_agent, aurora_throughput)

    sweeps = run_once(benchmark, experiment)
    _print_panels(sweeps, "utilization")

    # The headline: MOCC competes with the best existing schemes on
    # utilization across conditions (within 15 % of the best baseline
    # on the in-distribution bandwidth sweep).
    bw = sweeps["bandwidth"]
    mocc_mean = bw.mean("utilization", lineup="mocc")
    best_other = max(bw.mean("utilization", lineup=s)
                     for s in _panel(bw, "bandwidth", "utilization")
                     if s != "mocc")
    assert mocc_mean > 0.7
    assert mocc_mean > best_other - 0.2
    # Loss robustness (Fig 5c): under 5-10 % random loss MOCC keeps far
    # more utilization than loss-based CUBIC.
    loss = _panel(sweeps["loss"], "loss", "utilization")
    assert loss["mocc"][-1] > 3 * loss["cubic"][-1]


def bench_fig5eh_latency(benchmark, runner, mocc_agent, aurora_throughput):
    """Fig. 5(e-h): latency-ratio sweeps, latency objective."""

    def experiment():
        return _run_sweeps(runner, "fig5eh", mocc_agent, aurora_throughput)

    sweeps = run_once(benchmark, experiment)
    _print_panels(sweeps, "latency_ratio")

    # Latency-weighted MOCC keeps queueing low: lower latency ratio
    # than CUBIC (which fills the buffer) and than BBR across sweeps
    # (the paper's up-to-18.8 % BBR claim, Fig. 5e).
    bw = sweeps["bandwidth"]
    assert (bw.mean("latency_ratio", lineup="mocc")
            < bw.mean("latency_ratio", lineup="cubic"))
    assert (bw.mean("latency_ratio", lineup="mocc")
            < bw.mean("latency_ratio", lineup="bbr"))
    lat = sweeps["latency"]
    assert (lat.mean("latency_ratio", lineup="mocc")
            < lat.mean("latency_ratio", lineup="cubic"))
