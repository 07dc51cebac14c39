"""Engine-speed measurement: events/sec and cells/sec profiling helpers.

The ROADMAP's "as fast as the hardware allows" needs a number attached
to it.  This module defines the repo's canonical engine-speed metric --
**events/sec**, heap events dispatched by ``Simulation.run`` per second
of wall time (read from ``Simulation.events_processed``) -- and the
standard shapes it is measured on:

* ``single-bottleneck`` -- all heuristic schemes competing on one link
  (the paper's dumbbell, the baseline shape);
* ``parking-lot``      -- each scheme as a through flow across two
  shared hops against per-hop CUBIC cross traffic (the shared-hop grid
  whose honesty PR 4 bought; the shape the hot-path optimizations are
  gated on);
* ``ack-congestion``   -- each scheme downloading over an asymmetric
  dumbbell against a CUBIC upload queued on the ack path (wired
  reverse-link transit).

Every shape is measured through the *standard* scenario wiring
(:func:`~repro.eval.scenarios.build_scenario_simulation`), so the
numbers describe what evaluation sweeps actually pay.

Because absolute events/sec moves with the host, the report also
carries a :func:`calibration_score` -- a fixed pure-Python heap+float
loop timed on the same machine -- and a *normalized* events/sec
(events per calibration op).  CI regression gates compare normalized
numbers, which survive runner-hardware churn far better than raw ones
(``benchmarks/BENCH_engine_baseline.json`` is the checked-in baseline;
see :func:`check_regression`).
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.eval.parallel import ParallelRunner
from repro.eval.runner import EvalNetwork
from repro.eval.scenarios import (
    FlowDef,
    Scenario,
    ScenarioSuite,
    build_scenario_simulation,
)
from repro.netsim.topology import dumbbell_asymmetric, parking_lot

__all__ = ["PERF_SCHEMES", "PERF_SHAPES", "EngineSample", "perf_scenarios",
           "measure_shape", "calibration_score", "batched_grid_scenarios",
           "measure_batched", "engine_speed_report", "check_regression"]

#: Heuristic schemes the perf shapes run (no trained models: the
#: harness must be cold-start cheap and CI-friendly).
PERF_SCHEMES = ("cubic", "bbr", "copa", "vivace")
#: The canonical measurement shapes, in report order.
PERF_SHAPES = ("single-bottleneck", "parking-lot", "ack-congestion")

_PERF_BANDWIDTH_MBPS = 16.0
_PERF_DELAY_MS = 8.0


def perf_scenarios(shape: str, duration: float = 10.0, seed: int = 0,
                   schemes=PERF_SCHEMES) -> list[Scenario]:
    """The concrete scenarios one measurement shape runs."""
    schemes = tuple(schemes)
    net = EvalNetwork(bandwidth_mbps=_PERF_BANDWIDTH_MBPS,
                      one_way_ms=_PERF_DELAY_MS)
    if shape == "single-bottleneck":
        return [Scenario(name=f"perf/single/{'+'.join(schemes)}", network=net,
                         flows=schemes, duration=duration, seed=seed,
                         suite="perf")]
    if shape == "parking-lot":
        topo = parking_lot(2, bandwidth_mbps=_PERF_BANDWIDTH_MBPS,
                           delay_ms=_PERF_DELAY_MS)
        return [Scenario(
            name=f"perf/lot/{scheme}", network=net,
            flows=(FlowDef(scheme, path="through", label=f"{scheme}-through"),
                   FlowDef("cubic", path="cross0", label="cross0"),
                   FlowDef("cubic", path="cross1", label="cross1")),
            topology=topo, duration=duration, seed=seed, suite="perf")
            for scheme in schemes]
    if shape == "ack-congestion":
        topo = dumbbell_asymmetric(
            bandwidth_mbps=_PERF_BANDWIDTH_MBPS, delay_ms=_PERF_DELAY_MS,
            reverse_bandwidth_mbps=_PERF_BANDWIDTH_MBPS / 10.0)
        return [Scenario(
            name=f"perf/ack/{scheme}", network=net,
            flows=(FlowDef(scheme, path="through", label=f"{scheme}-dl"),
                   FlowDef("cubic", path="reverse", label="ul0")),
            topology=topo, duration=duration, seed=seed, suite="perf")
            for scheme in schemes]
    raise ValueError(f"unknown perf shape {shape!r}; known: {PERF_SHAPES}")


@dataclass
class EngineSample:
    """One timed measurement of a shape."""

    shape: str
    cells: int
    events: int
    wall_s: float

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def cells_per_sec(self) -> float:
        return self.cells / self.wall_s if self.wall_s > 0 else 0.0


def measure_shape(shape: str, duration: float = 10.0, seed: int = 0,
                  schemes=PERF_SCHEMES, repeats: int = 1) -> EngineSample:
    """Build a shape's simulations, time ``run_all``, count events.

    Construction (controller sizing, topology builds) happens *outside*
    the timed window: the metric is engine speed, not setup speed.
    With ``repeats > 1`` each round rebuilds and re-runs the identical
    simulations and the *fastest* round is reported (the
    pytest-benchmark convention: the minimum is the measurement least
    polluted by interpreter warm-up, allocator growth, and CPU
    frequency excursions).
    """
    best: EngineSample | None = None
    for _ in range(max(1, repeats)):
        scenarios = perf_scenarios(shape, duration=duration, seed=seed,
                                   schemes=schemes)
        sims = [build_scenario_simulation(s) for s in scenarios]
        t0 = time.perf_counter()
        for sim in sims:
            sim.run_all()
        wall = time.perf_counter() - t0
        events = sum(sim.events_processed for sim in sims)
        sample = EngineSample(shape=shape, cells=len(sims), events=events,
                              wall_s=wall)
        if best is None or sample.wall_s < best.wall_s:
            best = sample
    return best


def calibration_score(iters: int = 300_000, repeats: int = 3) -> float:
    """Machine-speed yardstick: ops/sec of a fixed heap+float loop.

    The loop imitates the engine's per-event profile (tuple heap push /
    pop plus float arithmetic) without touching any repo code, so the
    score moves with interpreter and hardware speed but *not* with
    engine changes.  Normalizing events/sec by this score makes perf
    baselines portable across CI runner generations.  Best-of-N, like
    :func:`measure_shape`, so the yardstick and the measurement share
    the same noise posture.
    """
    best = 0.0
    push, pop = heapq.heappush, heapq.heappop
    for _ in range(max(1, repeats)):
        heap: list = []
        x = 0.0
        t0 = time.perf_counter()
        for i in range(iters):
            push(heap, (x, i))
            x = (x + 1.000001) * 0.999999
            if i & 1:
                pop(heap)
        wall = time.perf_counter() - t0
        if wall > 0:
            best = max(best, iters / wall)
    return best


#: The batched-dispatch measurement grid: cells x duration chosen so
#: per-cell *setup* (named-trace build, controller sizing, pool task
#: dispatch) is comparable to per-cell run time -- the regime batched
#: execution exists for (short-horizon screening runs, successive-
#: halving first rungs).  ``wifi-walk`` is the most construction-heavy
#: registered trace, which is exactly what the shared per-batch trace
#: cache amortizes.
BATCH_GRID_CELLS = 16
BATCH_GRID_DURATION = 0.25
BATCH_GRID_TRACE = "wifi-walk"


def batched_grid_scenarios(cells: int = BATCH_GRID_CELLS,
                           duration: float = BATCH_GRID_DURATION,
                           schemes=PERF_SCHEMES,
                           trace: str = BATCH_GRID_TRACE) -> list[Scenario]:
    """The short-duration grid the batched-dispatch shape measures."""
    schemes = tuple(schemes)
    if cells % len(schemes):
        raise ValueError(f"cells ({cells}) must be a multiple of the "
                         f"scheme count ({len(schemes)})")
    suite = ScenarioSuite(name="perf-batched", lineups=list(schemes),
                          traces=(trace,),
                          seeds=tuple(range(cells // len(schemes))),
                          duration=duration)
    return suite.expand()


def measure_batched(cells: int = BATCH_GRID_CELLS,
                    duration: float = BATCH_GRID_DURATION,
                    n_workers: int = 2, repeats: int = 3,
                    schemes=PERF_SCHEMES) -> dict:
    """Time the grid under batch dispatch vs cell-per-task dispatch.

    Both modes run the *same* uncached :class:`ParallelRunner` pipeline
    at the same worker count; only the dispatch shape differs --
    ``batch_size=1`` (one pool task per cell, the pre-batching model)
    against one batch per worker.  Wall time is end to end (forks,
    construction, event loops, result aggregation): dispatch overhead
    is precisely what is being measured.  Best-of-``repeats`` per mode,
    like :func:`measure_shape`.
    """
    scenarios = batched_grid_scenarios(cells=cells, duration=duration,
                                       schemes=schemes)
    batch_size = -(-len(scenarios) // max(1, n_workers))
    modes = {"per_cell": 1, "batched": batch_size}
    # One throwaway batched pass warms traces/zoo/allocator so neither
    # timed mode is billed for cold start.
    ParallelRunner(n_workers=n_workers, use_cache=False,
                   batch_size=batch_size).run(scenarios)
    walls = {}
    for label, size in modes.items():
        runner = ParallelRunner(n_workers=n_workers, use_cache=False,
                                batch_size=size)
        best = None
        for _ in range(max(1, repeats)):
            wall = runner.run(scenarios).elapsed
            if best is None or wall < best:
                best = wall
        walls[label] = best
    per_cell_rate = cells / walls["per_cell"] if walls["per_cell"] > 0 else 0.0
    batched_rate = cells / walls["batched"] if walls["batched"] > 0 else 0.0
    return {
        "cells": int(cells),
        "duration": float(duration),
        "n_workers": int(n_workers),
        "batch_size": int(batch_size),
        "trace": BATCH_GRID_TRACE,
        "per_cell_wall_s": round(walls["per_cell"], 4),
        "batched_wall_s": round(walls["batched"], 4),
        "per_cell_cells_per_sec": round(per_cell_rate, 2),
        "batched_cells_per_sec": round(batched_rate, 2),
        "speedup": round(batched_rate / per_cell_rate, 3)
        if per_cell_rate > 0 else 0.0,
    }


def engine_speed_report(shapes=PERF_SHAPES, duration: float = 10.0,
                        seed: int = 0, schemes=PERF_SCHEMES, repeats: int = 1,
                        pipeline: bool = True, batched: bool = True) -> dict:
    """Measure every shape; return the BENCH_engine payload.

    ``pipeline=True`` additionally times the same scenarios end to end
    through a serial, uncached :class:`ParallelRunner` -- cells/sec of
    the full evaluation pipeline (fingerprinting, controller builds,
    result aggregation), the number sweep wall-clock scales with.

    ``batched=True`` adds the batched multi-cell dispatch shape
    (:func:`measure_batched`): the 16-cell short-duration grid under
    batch-per-worker vs cell-per-task dispatch, with the speedup and a
    calibration-normalized cells/sec that :func:`check_regression`
    gates against the baseline.
    """
    # Warm the interpreter (bytecode caches, allocator arenas, numpy
    # dispatch) outside any timed window so the first measured shape is
    # not billed for process cold start.
    measure_shape(shapes[0], duration=min(duration, 2.0), seed=seed,
                  schemes=schemes)
    calibration = calibration_score()
    samples = [measure_shape(shape, duration=duration, seed=seed,
                             schemes=schemes, repeats=repeats)
               for shape in shapes]
    report = {
        "benchmark": "engine_speed",
        "duration": float(duration),
        "seed": int(seed),
        "schemes": list(schemes),
        "repeats": int(repeats),
        "calibration_ops_per_sec": round(calibration, 1),
        "shapes": [dict(asdict(s),
                        events_per_sec=round(s.events_per_sec, 1),
                        cells_per_sec=round(s.cells_per_sec, 4),
                        events_per_calibration_op=round(
                            s.events_per_sec / calibration, 6))
                   for s in samples],
    }
    if pipeline:
        scenarios = [s for shape in shapes
                     for s in perf_scenarios(shape, duration=duration,
                                             seed=seed, schemes=schemes)]
        runner = ParallelRunner(n_workers=1, use_cache=False)
        outcome = runner.run(scenarios)
        report["pipeline_cells"] = len(outcome)
        report["pipeline_wall_s"] = round(outcome.elapsed, 3)
        report["pipeline_cells_per_sec"] = round(
            len(outcome) / outcome.elapsed, 4) if outcome.elapsed > 0 else 0.0
        eps = outcome.events_per_sec
        report["pipeline_events_per_sec"] = (round(eps, 1)
                                             if eps is not None else None)
    if batched:
        sample = measure_batched(repeats=max(1, repeats))
        sample["cells_per_calibration_op"] = round(
            sample["batched_cells_per_sec"] / calibration, 9)
        report["batched"] = sample
    return report


def check_regression(report: dict, baseline: dict,
                     tolerance: float = 0.30) -> list[str]:
    """Compare a fresh report against a checked-in baseline.

    Returns human-readable failure strings for every shape whose
    *normalized* events/sec (events per calibration op) fell more
    than ``tolerance`` below the baseline's; empty list means no
    regression.  Shapes present in only one report are ignored (grids
    may grow).

    When both reports carry the ``batched`` dispatch shape, its
    calibration-normalized cells/sec and its batched-over-per-cell
    speedup are gated the same way -- so a change that quietly erodes
    the batching win (say, per-batch setup creeping back in) fails CI
    just like an event-loop slowdown.
    """
    def normalized(payload: dict) -> dict:
        return {s["shape"]: s["events_per_calibration_op"]
                for s in payload.get("shapes", [])}

    fresh, base = normalized(report), normalized(baseline)
    failures = []
    for shape in sorted(set(fresh) & set(base)):
        floor = base[shape] * (1.0 - tolerance)
        if fresh[shape] < floor:
            failures.append(
                f"{shape}: normalized events/sec "
                f"{fresh[shape]:.6f} fell below {floor:.6f} "
                f"(baseline {base[shape]:.6f} - {tolerance:.0%})")
    fresh_b, base_b = report.get("batched"), baseline.get("batched")
    if fresh_b and base_b:
        gates = (("cells_per_calibration_op", "normalized batched cells/sec",
                  ".9f"),
                 ("speedup", "batched dispatch speedup", ".3f"))
        for key, label, fmt in gates:
            if key not in fresh_b or key not in base_b:
                continue
            floor = base_b[key] * (1.0 - tolerance)
            if fresh_b[key] < floor:
                failures.append(
                    f"batched: {label} {fresh_b[key]:{fmt}} fell below "
                    f"{floor:{fmt}} (baseline {base_b[key]:{fmt}} - "
                    f"{tolerance:.0%})")
    return failures


def write_report(report: dict, path: str | Path) -> Path:
    """Write a report as pretty JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def load_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
