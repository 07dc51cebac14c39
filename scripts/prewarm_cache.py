"""Pre-train and cache every model the test/benchmark suite needs,
then pre-warm the scenario-result cache for the heavyweight suites.

Scenario results are memoized by content fingerprint
(:meth:`repro.eval.scenarios.Scenario.fingerprint`), so warming the
exact grids the benchmarks declare means a later benchmark run is
served from the cache instead of re-simulating.
"""
import time

from repro.core.weights import (
    LATENCY_WEIGHTS,
    RTC_WEIGHTS,
    THROUGHPUT_WEIGHTS,
    project_to_simplex,
)
from repro.eval.parallel import ParallelRunner
from repro.eval.sweeps import (
    FIG5_BENCH_BASE,
    FIG5_BENCH_DURATION,
    FIG5_BENCH_SCHEMES,
    FIG5_BENCH_SEED,
    FIG5_BENCH_SWEEPS,
    sweep_suite,
)
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
    """Run the Fig. 5 sweep suites through the parallel runner."""
    runner = ParallelRunner()
    kwargs = {"mocc_agent": zoo.mocc_offline(quality="full"),
              "aurora_agent": zoo.aurora("throughput", quality="full")}
    for objective, weights in [("throughput", THROUGHPUT_WEIGHTS),
                               ("latency", LATENCY_WEIGHTS)]:
        for param, values in FIG5_BENCH_SWEEPS:
            t0 = time.time()
            outcome = runner.run(sweep_suite(
                FIG5_BENCH_SCHEMES, param, values, base=FIG5_BENCH_BASE,
                duration=FIG5_BENCH_DURATION, seed=FIG5_BENCH_SEED,
                controller_kwargs={**kwargs, "mocc_weights": weights}))
            print(f"[prewarm] fig5 {objective}/{param} "
                  f"({len(outcome)} scenarios): "
                  f"{time.time() - t0:.1f}s", flush=True)


def main():
    zoo = default_zoo()
    prewarm_models(zoo)
    prewarm_scenarios(zoo)


if __name__ == "__main__":
    main()
