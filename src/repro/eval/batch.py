"""In-process batched multi-cell execution.

A grid sweep's cells are independent simulations, but running each in
its own pool task pays per-cell dispatch and construction overhead
that dwarfs the event loop once durations shrink (short-horizon
screening runs, successive-halving first rungs).  ``BatchRunner``
builds N cells of a suite through the existing
:func:`~repro.eval.scenarios.build_scenario_simulation` split and
interleaves their event loops inside one process, advancing each
cell's :class:`~repro.netsim.network.SimState` in round-robin time
slices until every cell drains.

Cross-cell isolation contract
-----------------------------
Interleaved cells must behave exactly as if each ran alone in a fresh
process; the batch layer therefore shares only *immutable* assets:

* named traces -- built once per batch via ``make_trace(cache=...)``,
  frozen read-only before any cell sees them;
* the process-wide agent zoo -- resolved once (sorted order) before
  any cell is built; agents are inference-only during evaluation.

Everything mutable -- links, controllers, flows, heaps, and every RNG
stream -- is constructed per cell by ``build_scenario_simulation``
from the cell's own scenario seed, so generators always trace to a
cell-indexed derivation through the :mod:`repro.netsim.rngstreams`
registry and no two cells ever share one.  The batch layer itself
never mints or drains a stream.  Two checks hold all of this:
``repro.analysis``'s static ``isolation`` rules read
:data:`SHARED_IMMUTABLE_ALLOWLIST` below, and ``tests/test_batch.py``
walks two built cells' object graphs asserting no unlisted mutable
object is reachable from both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.eval.scenarios import (
    AgentRef,
    Scenario,
    build_scenario_simulation,
)
from repro.netsim.network import FlowRecord, Simulation

__all__ = ["SHARED_IMMUTABLE_ALLOWLIST", "BatchCell", "BatchRunner",
           "warm_agent_refs"]

#: Justified shared-immutable allowlist: the only names through which
#: an object created outside the per-cell build loop may flow into a
#: cell.  Each entry is ``(binding_name, justification)``.  The replint
#: ``isolation`` family parses this tuple straight from the AST: the
#: ``batch-shared-mutable`` rule flags any outside-loop binding handed
#: to a cell build under a name not listed here, and the two-cell probe
#: in ``tests/test_batch.py`` independently verifies the objects those
#: names carry really are immutable at share time.
SHARED_IMMUTABLE_ALLOWLIST: tuple[tuple[str, str], ...] = (
    ("trace_cache",
     "named-trace instances are pure time->capacity functions, memoized "
     "and frozen read-only by make_trace(cache=...) before any cell "
     "sees them"),
)

#: Default interleave granularity, simulated seconds per slice.  Small
#: enough that cells of typical evaluation durations (2-30 s) swap
#: many times per run -- exercising resumability rather than degrading
#: to sequential execution -- while keeping per-slice bookkeeping
#: (two clock reads per cell) far below the event-loop cost.
DEFAULT_SLICE_SECONDS = 0.25


def warm_agent_refs(scenarios: list[Scenario]) -> None:
    """Resolve every :class:`AgentRef` in ``scenarios``, sorted.

    Sorted so every host trains/loads missing zoo entries in the same
    order (set order varies with hash randomization).  Resolution goes
    through the process-wide zoo memo, so calling this again -- e.g.
    per batch after a worker initializer already warmed the zoo -- is
    a cheap no-op.
    """
    refs = {flow.agent for s in scenarios for flow in s.flows
            if isinstance(flow.agent, AgentRef)}
    for ref in sorted(refs, key=repr):
        ref.resolve()


@dataclass
class BatchCell:
    """One cell of a batch: its simulation and per-cell accounting.

    ``elapsed`` is the cell's own wall time -- construction plus the
    sum of its interleave slices plus finalization -- so batched and
    per-process runs report comparable per-cell numbers.  A failed
    cell carries ``error`` (``"Type: detail"``, the same shape the
    pool workers report) and ``records is None``; sibling cells are
    unaffected.
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
    """Run many scenario cells inside one process, interleaved.

    ``run`` never raises for a cell failure: each :class:`BatchCell`
    carries its own ``error`` so one bad cell cannot take down its
    siblings (the parent runner decides what a failure means for the
    suite).  Results are bit-identical to running every cell solo --
    cells share no mutable state, and slicing a cell's event loop
    cannot reorder its heap (see :class:`~repro.netsim.network.SimState`).
    """

    def __init__(self, slice_seconds: float = DEFAULT_SLICE_SECONDS,
                 prewarm: bool = True):
        if slice_seconds <= 0:
            raise ValueError("slice_seconds must be positive")
        self.slice_seconds = float(slice_seconds)
        #: Pool workers whose initializer already warmed the zoo pass
        #: ``prewarm=False`` so batches skip even the no-op re-resolve.
        self.prewarm = bool(prewarm)

    def build_cells(self, scenarios: list[Scenario]) -> list[BatchCell]:
        """Construct every cell, sharing one frozen named-trace cache.

        Build failures are captured per cell, not raised.  Exposed for
        the isolation tests, which inspect built-but-unrun cells.
        """
        if self.prewarm:
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
        """Build, interleave to completion, finalize; one result per cell."""
        cells = self.build_cells(scenarios)
        live = [c for c in cells if c.error is None]
        horizon = 0.0
        step = self.slice_seconds
        while live:
            horizon += step
            still = []
            for cell in live:
                state = cell.sim.state
                t0 = time.perf_counter()
                try:
                    state.step_until(min(horizon, cell.sim.duration))
                except Exception as exc:  # noqa: BLE001 -- isolate the cell
                    cell.error = f"{type(exc).__name__}: {exc}"
                    cell.elapsed += time.perf_counter() - t0
                    continue
                cell.elapsed += time.perf_counter() - t0
                if state.done:
                    t0 = time.perf_counter()
                    try:
                        cell.records = cell.sim.run_all()
                    except Exception as exc:  # noqa: BLE001
                        cell.error = f"{type(exc).__name__}: {exc}"
                    cell.elapsed += time.perf_counter() - t0
                else:
                    still.append(cell)
            live = still
        return cells
