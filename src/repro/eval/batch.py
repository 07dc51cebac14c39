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
* the process-wide agent zoo -- resolved once (sorted order) before
  any cell is built; agents are inference-only during evaluation.

Everything mutable -- links, controllers, flows, heaps, and every RNG
stream -- is constructed per cell by ``build_scenario_simulation``
from the cell's own scenario seed, so every generator is a row of the
:mod:`repro.netsim.rngstreams` table minted from that seed and no two
cells ever share one.  Nothing declares this:
``tests/test_batch.py`` walks real built cells' object graphs, for
every registered trace, asserting no mutable object is reachable from
two of them, and pins batched == solo digests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.eval.scenarios import (
    AgentRef,
    Scenario,
    build_scenario_simulation,
)
from repro.netsim.network import FlowRecord, Simulation

__all__ = ["BatchCell", "BatchRunner", "warm_agent_refs"]

#: Width, in simulated seconds, of the slices the perf ledger's
#: ``netsim.slice_ratio`` probe cuts a cell into.  Nothing in ``src/``
#: slices a cell: a batch runs each one to completion in one call.
DEFAULT_SLICE_SECONDS = 0.25


def warm_agent_refs(scenarios: list[Scenario]) -> None:
    """Resolve every :class:`AgentRef` in ``scenarios``, sorted.

    Sorted so every host trains/loads missing zoo entries in the same
    order (set order varies with hash randomization).  Resolution goes
    through the process-wide zoo memo, so calling this again -- per
    batch, after the parent runner warmed the zoo its workers were
    forked from -- is a set of dict hits.
    """
    refs = {flow.agent for s in scenarios for flow in s.flows
            if isinstance(flow.agent, AgentRef)}
    for ref in sorted(refs, key=repr):
        ref.resolve()


@dataclass
class BatchCell:
    """One cell of a batch: its simulation and per-cell accounting.

    ``elapsed`` is the cell's own wall time -- construction plus its
    run to completion -- so batched and per-process runs report
    comparable per-cell numbers.  A failed cell carries ``error``
    (``"Type: detail"``, the same shape the pool workers report) and
    ``records is None``; sibling cells are unaffected.
    """

    scenario: Scenario
    sim: Simulation | None = None
    records: list[FlowRecord] | None = None
    elapsed: float = 0.0
    error: str | None = None

    @property
    def events(self) -> int:
        return self.sim.events_processed if self.sim is not None else 0


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
        warm_agent_refs(scenarios)
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
        """Build every cell, then run each healthy one to completion."""
        cells = self.build_cells(scenarios)
        for cell in cells:
            if cell.error is not None:
                continue
            t0 = time.perf_counter()
            try:
                cell.records = cell.sim.run_all()
            except Exception as exc:  # noqa: BLE001 -- isolate the cell
                cell.error = f"{type(exc).__name__}: {exc}"
            cell.elapsed += time.perf_counter() - t0
        return cells
