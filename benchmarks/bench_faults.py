"""Fault-injection benchmark: scheme divergence + engine overhead.

The deterministic fault layer (``repro.netsim.faults``) exists to ask
"how do the schemes behave when the network misbehaves?" -- so this
benchmark runs the heuristic (cubic/bbr) and learning-based
(vivace/copa) line-ups across a fault grid (link flaps, Gilbert-
Elliott burst loss, and their mix on the shared hop) and asserts two
properties:

* **Divergence** -- every faulted cell's records differ from the
  clean cell's (same lineup, same seed): the schedules actually
  perturb the dynamics, they are not dead configuration.
* **Bounded overhead** -- the fault bookkeeping on the hot path
  (outage checks, capacity scaling, wire-loss draws) may not halve the
  engine: every faulted combo keeps >= ``OVERHEAD_FLOOR`` of its clean
  twin's events/sec.  Both sides of the ratio are measured in one
  process on one host, so it needs no calibration.

Prints per-combo events/sec, utilization, loss and the overhead ratios.
"""

from repro.eval.parallel import ParallelRunner
from repro.eval.resilience import records_digest
from repro.eval.scenarios import ScenarioSuite
from repro.netsim.faults import GilbertElliottLoss, LinkFlapSchedule
from repro.netsim.topology import parking_lot

#: Simulated seconds per cell.
DURATION = 4.0
#: Faulted events/sec over clean events/sec may not fall below this
#: (measured 0.69-0.96 across the six faulted combos).
OVERHEAD_FLOOR = 0.5

FLAP = LinkFlapSchedule(period=0.8, down_time=0.05, start=0.3, jitter=0.02)
GE = GilbertElliottLoss(p_enter_bad=0.01, p_exit_bad=0.25, loss_bad=0.4)

LINEUPS = {
    "heuristic": ("cubic", "bbr"),
    "learned": ("vivace", "copa"),
}
FAULT_GRID = {
    "clean": None,
    "flap": {"hop0": (FLAP,)},
    "ge-loss": {"hop0": (GE,)},
    "flap+ge": {"hop0": (FLAP, GE)},
}
SEEDS = (0, 1)


def _suite(lineup_name: str, fault_name: str) -> ScenarioSuite:
    return ScenarioSuite(
        name=f"bench-faults/{lineup_name}/{fault_name}",
        lineups={lineup_name: LINEUPS[lineup_name]},
        topologies=(parking_lot(2, bandwidth_mbps=6.0, delay_ms=8.0),),
        faults=(FAULT_GRID[fault_name],),
        duration=DURATION,
        seeds=SEEDS)


def fault_grid_report() -> dict:
    """Run the lineup x fault grid serially; ``{combo: entry}``.

    Serial execution (``n_workers=1``, cache off) so per-cell wall
    times measure the engine, not pool scheduling -- the overhead
    ratio compares like with like.
    """
    runner = ParallelRunner(n_workers=1, use_cache=False)
    combos = {}
    for lineup_name in LINEUPS:
        for fault_name in FAULT_GRID:
            outcome = runner.run(_suite(lineup_name, fault_name))
            events = sum(r.events for r in outcome)
            wall = sum(r.elapsed for r in outcome)
            combos[f"{lineup_name}/{fault_name}"] = {
                "cells": len(outcome),
                "events": events,
                "events_per_sec": round(events / wall, 1),
                "utilization": round(
                    outcome.table.mean("utilization"), 4),
                "loss_rate": round(outcome.table.mean("loss_rate"), 5),
                "digests": [records_digest(r.records) for r in outcome],
            }
    return combos


def bench_faults(benchmark):
    """Measure the fault grid, print it, check divergence and overhead."""
    from conftest import print_table, run_once

    combos = run_once(benchmark, fault_grid_report)

    print_table(
        "Fault grid (per lineup x schedule; serial, cache off)",
        ["combo", "cells", "events", "events/s", "utilization", "loss"],
        [[name, c["cells"], c["events"], c["events_per_sec"],
          c["utilization"], c["loss_rate"]]
         for name, c in combos.items()])

    overhead = {}
    for lineup_name in LINEUPS:
        clean = combos[f"{lineup_name}/clean"]
        for fault_name in FAULT_GRID:
            if fault_name == "clean":
                continue
            faulted = combos[f"{lineup_name}/{fault_name}"]
            # Divergence: a fault schedule that never perturbs the
            # dynamics is dead configuration.
            assert faulted["digests"] != clean["digests"], (
                f"{lineup_name}/{fault_name} produced bit-identical "
                f"records to the clean run: the schedule never fired")
            overhead[f"{lineup_name}/{fault_name}"] = round(
                faulted["events_per_sec"] / clean["events_per_sec"], 3)
    print("overhead (faulted events/s / clean events/s):",
          ", ".join(f"{k}={v}" for k, v in overhead.items()))

    slow = {k: v for k, v in overhead.items() if v < OVERHEAD_FLOOR}
    assert not slow, (
        f"fault bookkeeping slowed the engine below {OVERHEAD_FLOOR}x "
        f"the clean events/s: {slow}")
