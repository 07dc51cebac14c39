"""Pre-train and cache every model the test/benchmark suite needs,
then pre-warm the scenario-result cache for every figure.

Scenario results are memoized by content fingerprint
(:meth:`repro.eval.scenarios.Scenario.fingerprint`), so warming the
cells of every entry of the figure registry
(:data:`repro.eval.sweeps.FIGURES`) means a later benchmark run is
served from the cache instead of re-simulating.
"""
import time

from repro.core.weights import RTC_WEIGHTS, project_to_simplex
from repro.eval.parallel import ParallelRunner
from repro.eval.sweeps import FIGURES, figure_cells
from repro.models import default_zoo


def prewarm_models(zoo):
    jobs = [
        ("mocc fast", lambda: zoo.mocc_offline(quality="fast")),
        ("aurora thr fast", lambda: zoo.aurora("throughput", quality="fast")),
        ("aurora lat fast", lambda: zoo.aurora("latency", quality="fast")),
        ("mocc full", lambda: zoo.mocc_offline(quality="full")),
        ("aurora thr full", lambda: zoo.aurora("throughput", quality="full")),
        ("aurora lat full", lambda: zoo.aurora("latency", quality="full")),
        ("aurora rtc fast", lambda: zoo.aurora_for(RTC_WEIGHTS, tag="rtc", quality="fast")),
        ("aurora bulk fast", lambda: zoo.aurora_for(
            project_to_simplex([1.0, 0.0, 0.0]), tag="bulk", quality="fast")),
        ("enhanced aurora fast", lambda: zoo.enhanced_aurora(10, quality="fast")),
    ]
    for name, job in jobs:
        t0 = time.time()
        job()
        print(f"[prewarm] {name}: {time.time() - t0:.1f}s", flush=True)


def prewarm_scenarios(zoo):
    """Run every figure's cells through the parallel runner, with the
    models the benchmarks' fixtures load."""
    runner = ParallelRunner()
    models = {"mocc_agent": zoo.mocc_offline(quality="full"),
              "aurora_throughput": zoo.aurora("throughput", quality="full"),
              "aurora_latency": zoo.aurora("latency", quality="full"),
              "enhanced_aurora": zoo.enhanced_aurora(10, quality="fast")}
    for name in FIGURES:
        t0 = time.time()
        outcome = runner.run(figure_cells(name, models))
        print(f"[prewarm] {name} ({len(outcome)} scenarios): "
              f"{time.time() - t0:.1f}s", flush=True)


def main():
    zoo = default_zoo()
    prewarm_models(zoo)
    prewarm_scenarios(zoo)


if __name__ == "__main__":
    main()
