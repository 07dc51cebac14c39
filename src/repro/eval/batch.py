"""In-process batched multi-cell execution.

A grid sweep's cells are independent simulations, but running each in
its own pool task pays per-cell dispatch and construction overhead
that dwarfs the event loop once durations shrink (short-horizon
screening runs, successive-halving first rungs).  ``BatchRunner``
builds N cells of a suite through the existing
:func:`~repro.eval.scenarios.build_scenario_simulation` split, then
runs them one after another inside one process: a batch is one pool
task, one pickle and one result message for N cells.

Cross-cell isolation contract
-----------------------------
Batched cells must behave exactly as if each ran alone in a fresh
process; the batch layer therefore shares only *immutable* assets:

* named traces -- built once per batch via ``make_trace(cache=...)``,
  frozen read-only before any cell sees them;
* the live agents the scenarios carry -- inference-only during
  evaluation.

Everything mutable -- links, controllers, flows, heaps, and every RNG
stream -- is constructed per cell by ``build_scenario_simulation``
from the cell's own scenario seed, so every generator is a row of the
:mod:`repro.netsim.rngstreams` table minted from that seed and no two
cells ever share one.  Nothing declares this:
``tests/test_batch.py`` walks real built cells' object graphs, for
every registered trace, asserting no mutable object is reachable from
two of them, and pins batched == solo digests.

Cell lifetime
-------------
``run`` builds every cell of the batch first, then runs them in turn.
Once a cell has run, the batch keeps only its records, its event count
and its wall time: ``BatchCell.sim`` is cleared, and since a
:class:`~repro.netsim.network.Simulation` holds no reference to
itself, the simulation and its heap of undelivered packets are freed
by reference counting right there, inside the cell's own ``elapsed``.
No finished cell waits for Python's cyclic collector, so a sweep does
not pay for collector passes over the cells it has finished.
``build_cells`` alone returns built, unrun simulations, for the
isolation tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.eval.scenarios import Scenario, build_scenario_simulation
from repro.netsim.network import FlowRecord, Simulation

__all__ = ["BatchCell", "BatchRunner"]

#: Width, in simulated seconds, of the slices the perf ledger's
#: ``netsim.slice_ratio`` probe cuts a cell into.  Nothing in ``src/``
#: slices a cell: a batch runs each one to completion in one call.
DEFAULT_SLICE_SECONDS = 0.25


@dataclass
class BatchCell:
    """One cell of a batch: its simulation and per-cell accounting.

    ``sim`` is the built simulation until the cell has run, then
    ``None`` (see "Cell lifetime" above); ``events`` is its
    ``events_processed``, filled in when the run ends.  ``elapsed`` is
    the cell's own wall time -- construction plus its run to
    completion -- so batched and per-process runs report comparable
    per-cell numbers.  A failed cell carries ``error`` (``"Type:
    detail"``, the same shape the pool workers report) and ``records
    is None``; sibling cells are unaffected.
    """

    scenario: Scenario
    sim: Simulation | None = None
    records: list[FlowRecord] | None = None
    elapsed: float = 0.0
    error: str | None = None
    events: int = 0


class BatchRunner:
    """Run many scenario cells inside one process, one after another.

    ``run`` never raises for a cell failure: each :class:`BatchCell`
    carries its own ``error`` so one bad cell cannot take down its
    siblings (the parent runner decides what a failure means for the
    suite).  Results are bit-identical to running every cell solo:
    cells share no mutable state.
    """

    def build_cells(self, scenarios: list[Scenario]) -> list[BatchCell]:
        """Construct every cell, sharing one frozen named-trace cache.

        Build failures are captured per cell, not raised.  Exposed for
        the isolation tests, which inspect built-but-unrun cells.
        """
        trace_cache: dict = {}
        cells = []
        for scenario in scenarios:
            cell = BatchCell(scenario)
            t0 = time.perf_counter()
            try:
                cell.sim = build_scenario_simulation(scenario, trace_cache)
            except Exception as exc:  # noqa: BLE001 -- reported per cell
                cell.error = f"{type(exc).__name__}: {exc}"
            cell.elapsed += time.perf_counter() - t0
            cells.append(cell)
        return cells

    def run(self, scenarios: list[Scenario]) -> list[BatchCell]:
        """Build every cell, then run each healthy one to completion,
        dropping its simulation once it has run."""
        cells = self.build_cells(scenarios)
        for cell in cells:
            if cell.error is not None:
                continue
            t0 = time.perf_counter()
            sim, cell.sim = cell.sim, None
            try:
                cell.records = sim.run_all()
            except Exception as exc:  # noqa: BLE001 -- isolate the cell
                cell.error = f"{type(exc).__name__}: {exc}"
            cell.events = sim.events_processed
            del sim  # the last reference: the simulation is freed here
            cell.elapsed += time.perf_counter() - t0
        return cells
