"""Sharded scenario execution with an incremental on-disk result cache.

Scenario sweeps are embarrassingly parallel (Pantheon-style: every
cell of the condition x scheme matrix is an independent simulation), so
:class:`ParallelRunner` shards the expanded scenarios of a
:class:`~repro.eval.scenarios.ScenarioSuite` across OS processes,
mirroring the picklable-spec idiom of :class:`repro.rl.parallel.EnvSpec`.

Completed scenarios are memoized on disk keyed by
:meth:`Scenario.fingerprint` in a
:class:`~repro.eval.resilience.ResultCache`, so re-runs only pay for
the cells that changed; a second run of an unchanged suite is pure
cache reads.  A run returns one :class:`SuiteResult`: the per-cell
results with their raw per-MI :class:`FlowRecord` streams for the
fairness/CDF analyses, and a tidy ``table`` (one row per flow per
scenario) that ``mean`` and ``pivot`` aggregate.

A sweep has one failure contract: a failing cell never stops it.
Every other cell runs, is cached and is journaled; then
:class:`ScenarioError` names the first failed cell in sweep order and
carries the whole sweep as its ``outcome`` -- failed cells as error
rows, the rest as records.
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.eval.batch import BatchRunner
from repro.eval.resilience import ResultCache, SweepCheckpoint
from repro.eval.scenarios import Scenario, ScenarioSuite, fingerprint_cells
from repro.netsim.network import FlowRecord
from repro.pool import ResilientPool, RetryPolicy, usable_workers

__all__ = ["ParallelRunner", "ScenarioError", "ScenarioResult", "SuiteResult"]


class ScenarioError(RuntimeError):
    """One or more scenarios failed inside a suite run.

    Raised after the rest of the sweep completed.  ``scenario_name``
    is the first failed cell in sweep order, so a 200-cell sweep's
    failure points at the offending cell, not just a worker traceback;
    ``outcome`` is the whole sweep's :class:`SuiteResult`, failed cells
    included as error rows.
    """

    def __init__(self, scenario_name: str, detail: str,
                 outcome: "SuiteResult"):
        self.scenario_name = scenario_name
        self.outcome = outcome
        super().__init__(f"scenario {scenario_name!r} failed: {detail}")


@dataclass
class ScenarioResult:
    """One executed (or cache-served, or failed) scenario."""

    scenario: Scenario
    records: list[FlowRecord]
    cached: bool = False
    elapsed: float = 0.0
    #: Heap events the simulation dispatched (0 for cache-served
    #: results -- no simulation ran).  Feeds the suite-level
    #: :attr:`SuiteResult.total_events`.
    events: int = 0
    #: Failure detail of a failed cell (see
    #: :attr:`ScenarioError.outcome`); ``None`` for healthy cells.
    #: Failed cells have no records -- their rows carry the condition
    #: columns plus this error, with metrics left ``None``.
    error: str | None = None

    def rows(self) -> list[dict]:
        net = self.scenario.network
        topo = self.scenario.topology
        rows = []
        if self.error is None:
            pairs = list(zip(self.scenario.flows, self.records))
        else:
            pairs = [(flow, None) for flow in self.scenario.flows]
        for i, (flow, record) in enumerate(pairs):
            if topo is None:
                path = flow.path
                bandwidth = net.bandwidth_mbps
                rtt_ms = 2.0 * net.one_way_ms
                loss = net.loss_rate
                buffer = (net.queue_packets if net.queue_packets is not None
                          else net.buffer_bdp)
            else:
                # The single-link axes are superseded; report what the
                # flow's *path* actually saw.  Buffers are per link
                # (no scalar truth), so that column stays empty.
                path = topo.path(flow.path).name
                bandwidth = topo.path_bottleneck_mbps(path)
                rtt_ms = 1000.0 * topo.path_rtt_s(path)
                loss = topo.path_loss_rate(path)
                buffer = None
            rows.append({
                "suite": self.scenario.suite,
                "scenario": self.scenario.name,
                "lineup": self.scenario.lineup,
                "flow": i,
                "label": flow.display_label(),
                "scheme": flow.scheme,
                "bandwidth_mbps": bandwidth,
                "rtt_ms": rtt_ms,
                "loss": loss,
                "buffer": buffer,
                "trace": self.scenario.trace,
                "topology": topo.name if topo is not None else None,
                "path": path,
                "churn": (self.scenario.churn.label()
                          if self.scenario.churn is not None else None),
                "seed": self.scenario.seed,
                "duration": self.scenario.duration,
                "throughput_pps": (record.mean_throughput_pps
                                   if record is not None else None),
                "throughput_mbps": (record.mean_throughput_mbps
                                    if record is not None else None),
                "utilization": (record.mean_utilization
                                if record is not None else None),
                "latency_ratio": (record.latency_ratio
                                  if record is not None else None),
                "loss_rate": (record.loss_rate
                              if record is not None else None),
                "cached": self.cached,
                "error": self.error,
                # Per-cell engine accounting (0/0.0 for cache-served
                # cells): lets batched and per-process runs be compared
                # cell by cell straight from the table.
                "events": self.events,
                "wall_s": self.elapsed,
            })
        return rows


@dataclass
class SuiteResult:
    """All scenario results of one runner invocation."""

    results: list[ScenarioResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def table(self) -> list[dict]:
        """Tidy rows, one plain dict per flow per scenario (see
        :meth:`ScenarioResult.rows`), built on each access."""
        return [row for result in self.results for row in result.rows()]

    def mean(self, column: str, **equals) -> float:
        """Mean of ``column`` over the rows matching every
        ``column=value`` filter.  Failed cells' ``None`` metrics are
        skipped, and nothing left to average is ``nan``; a column or
        filter key the rows do not carry is a ``KeyError``."""
        values = [r[column] for r in self.table
                  if all(r[k] == v for k, v in equals.items())
                  and r[column] is not None]
        return float(np.mean(values)) if values else float("nan")

    def pivot(self, index: str, columns: str, values: str) -> tuple:
        """``(row_labels, col_labels, matrix)`` -- means over duplicates.

        Failed cells' ``None`` values are skipped; a group with nothing
        left to average stays ``nan``.
        """
        rows = self.table
        row_labels = list(dict.fromkeys(r[index] for r in rows))
        col_labels = list(dict.fromkeys(r[columns] for r in rows))
        matrix = np.full((len(row_labels), len(col_labels)), np.nan)
        counts = np.zeros_like(matrix)
        for r in rows:
            if r[values] is None:
                continue
            i, j = row_labels.index(r[index]), col_labels.index(r[columns])
            if counts[i, j] == 0:
                matrix[i, j] = 0.0
            matrix[i, j] += r[values]
            counts[i, j] += 1
        with np.errstate(invalid="ignore"):
            matrix = np.where(counts > 0, matrix / np.maximum(counts, 1), np.nan)
        return row_labels, col_labels, matrix

    @property
    def total_events(self) -> int:
        """Heap events dispatched by the suite's *executed* cells."""
        return sum(r.events for r in self.results if not r.cached)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


def _execute_batch(cells: list[Scenario]):
    """One batch of cells -> per-cell ``(payload, error)`` pairs in
    batch order; the pool workers' entry point and the in-process
    arm's.

    The batch's cells are the task argument, so a long-lived worker
    runs the cells of this sweep, live agents as they are now included.
    Failures come back as strings instead of raised exceptions, so
    unpicklable exception objects never wedge the result pipe.  A
    failing cell never takes its batch siblings with it:
    ``BatchRunner`` isolates errors per cell.
    """
    return [(None, cell.error) if cell.error is not None
            else ((cell.records, cell.elapsed, cell.events), None)
            for cell in BatchRunner().run(cells)]


class ParallelRunner:
    """Execute scenario suites across processes with result memoization.

    ``n_workers <= 1`` runs in-process (the reference serial path);
    results are bit-identical either way because every scenario is a
    self-contained, seeded simulation.  The default is the cores this
    process may run on (:func:`repro.pool.usable_workers`), at most 8:
    one under ``taskset -c 0`` or inside a pool worker.  Pool workers
    outlive a ``run`` and the runner (see
    :class:`~repro.pool.ResilientPool`), and serve
    training rollouts too: each task carries its batch's cells, live
    agents pickled with them, so a worker always runs the sweep's cells
    as they are now.  Workers inherit only code, the chaos hook and the
    named-trace registry, and are forked again when either of the last
    two has changed.

    Pending cells are dispatched to workers in *batches* executed by
    :class:`~repro.eval.batch.BatchRunner` -- cells built over frozen
    per-batch assets, then run in turn -- rather than one pool task per
    cell, sized to still leave several tasks per worker for load
    balancing.  Cache semantics are unchanged: hits and misses,
    fingerprint keys, and result rows are all per cell.

    Whenever a cache or a checkpoint is active, ``run`` fingerprints
    the whole sweep once, up front, through
    :func:`~repro.eval.scenarios.fingerprint_cells`: the sub-signatures
    cells share (named-trace content, topology, agent parameters) are
    computed once per sweep instead of once per cell, and the keys are
    the per-cell ``Scenario.fingerprint()`` ones.  Nothing is memoised
    across sweeps -- a trace re-registered under the same name or a
    live agent adapted in place must change the keys of the next run.

    Out-of-process dispatch is always
    :class:`~repro.pool.ResilientPool`: a worker that
    crashes or blows its deadline is respawned and its batch re-run
    within the retry budget, then reported as failed cells -- a dead
    worker never hangs a sweep.  Re-running is safe because cells are
    pure seeded simulations.  The one dispatch decision: a lone batch
    with neither ``retry`` nor ``cell_timeout`` set stays in process
    (nothing to overlap), as does everything under ``n_workers <= 1``
    -- where a deadline cannot be enforced and a crash is not isolated.

    A failing cell never stops the sweep: every other cell completes
    -- and is cached and journaled -- and then :class:`ScenarioError`
    names the first failed cell in sweep order, with the whole sweep
    (failed cells as rows carrying an ``error`` column, metrics
    ``None``) as its ``outcome``.

    * ``retry=RetryPolicy(max_attempts=...)`` sets the attempt budget
      for transient failures (``None`` = the default ``RetryPolicy()``);
      ``cell_timeout=seconds`` sets a deadline of ``cell_timeout`` x
      cells in the batch (``None`` = none).  Either one also sends a
      lone batch through the pool.
    * ``checkpoint=path`` journals every completed cell to a
      :class:`~repro.eval.resilience.SweepCheckpoint`; re-running the
      same suite resumes from the completed cells with their original
      records, wall times, and event counts (row-for-row identical to
      an uninterrupted run).  The journal only ever affects *which
      cells execute*, never their results.
    """

    #: Auto batch sizing: leave at least this many batches per worker
    #: so one slow batch cannot idle the rest of the pool...
    AUTO_BATCHES_PER_WORKER = 3
    #: ...and never batch more cells than this: a batch builds all its
    #: cells before running any, so this bounds resident simulations
    #: per worker.
    MAX_AUTO_BATCH = 16

    def __init__(self, n_workers: int | None = None,
                 cache_dir: str | Path | None = None, use_cache: bool = True,
                 cell_timeout: float | None = None,
                 retry: RetryPolicy | None = None,
                 checkpoint: str | Path | None = None):
        if n_workers is None:
            n_workers = min(usable_workers(), 8)
        self.n_workers = int(n_workers)
        self.cache = ResultCache(cache_dir) if use_cache else None
        if cell_timeout is not None and float(cell_timeout) <= 0.0:
            raise ValueError("cell_timeout must be positive")
        self.cell_timeout = (None if cell_timeout is None
                             else float(cell_timeout))
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise TypeError("retry must be a RetryPolicy")
        self.retry = retry
        self.checkpoint_path = None if checkpoint is None else Path(checkpoint)

    def _pick_batch_size(self, n_pending: int) -> int:
        shards = max(1, self.n_workers) * self.AUTO_BATCHES_PER_WORKER
        return max(1, min(self.MAX_AUTO_BATCH, -(-n_pending // shards)))

    def run(self, suite) -> SuiteResult:
        """Run a :class:`ScenarioSuite`, scenario list, or single scenario."""
        if isinstance(suite, ScenarioSuite):
            scenarios = suite.expand()
        elif isinstance(suite, Scenario):
            scenarios = [suite]
        else:
            scenarios = list(suite)
        t0 = time.perf_counter()

        checkpoint: SweepCheckpoint | None = None
        restored: dict[int, tuple] = {}
        # One pass over the whole sweep, before anything is looked up:
        # the cells share their trace, topology and agent signatures.
        fingerprints: list[str | None] = (
            fingerprint_cells(scenarios)
            if self.cache or self.checkpoint_path is not None
            else [None] * len(scenarios))
        if self.checkpoint_path is not None:
            checkpoint = SweepCheckpoint(self.checkpoint_path)
            restored = checkpoint.resume(fingerprints)

        try:
            return self._run_cells(scenarios, fingerprints, restored,
                                   checkpoint, t0)
        finally:
            if checkpoint is not None:
                checkpoint.close()

    def _run_cells(self, scenarios, fingerprints, restored, checkpoint, t0):
        results: dict[int, ScenarioResult] = {}
        pending: list[tuple[int, Scenario, str | None]] = []
        for idx, scenario in enumerate(scenarios):
            if idx in restored:
                # Journaled by an earlier (interrupted) run: restore
                # the original records, wall time, and event count so
                # the resumed table is row-for-row what an
                # uninterrupted run would have produced.
                records, elapsed, events = restored[idx]
                results[idx] = ScenarioResult(scenario, records,
                                              elapsed=elapsed, events=events)
                continue
            fingerprint = fingerprints[idx]
            cached = self.cache.get(fingerprint) if self.cache else None
            if cached is not None:
                results[idx] = ScenarioResult(scenario, cached, cached=True)
            else:
                pending.append((idx, scenario, fingerprint))

        if pending:
            def record_result(position: int, payload, error: str | None):
                idx, scenario, fingerprint = pending[position]
                if error is not None:
                    results[idx] = ScenarioResult(scenario, [], error=error)
                    return
                records, elapsed, events = payload
                results[idx] = ScenarioResult(scenario, records,
                                              elapsed=elapsed, events=events)
                if self.cache:
                    self.cache.put(fingerprint, scenario.name, records)
                if checkpoint is not None:
                    checkpoint.record(idx, fingerprint, records,
                                      elapsed, events)

            batch_size = self._pick_batch_size(len(pending))
            batches = [list(range(start, min(start + batch_size,
                                             len(pending))))
                       for start in range(0, len(pending), batch_size)]
            cells = [[pending[p][1] for p in batch] for batch in batches]
            # A lone batch with no deadline or retry budget asked for
            # stays here (nothing to overlap); with one, it needs the
            # cell out of this process.
            if self.n_workers > 1 and (len(batches) > 1
                                       or self.retry is not None
                                       or self.cell_timeout is not None):
                self._dispatch(batches, cells, record_result)
            else:
                # Serial reference path: the workers' own entry point,
                # in process.
                for batch, batch_cells in zip(batches, cells):
                    for position, outcome in zip(
                            batch, _execute_batch(batch_cells)):
                        record_result(position, *outcome)

        outcome = SuiteResult(
            results=[results[idx] for idx in range(len(scenarios))],
            elapsed=time.perf_counter() - t0)
        failed = [r for r in outcome.results if r.error is not None]
        if failed:
            detail = failed[0].error
            if len(failed) > 1:
                detail += f" (+{len(failed) - 1} more failed cells)"
            raise ScenarioError(failed[0].scenario.name, detail, outcome)
        return outcome

    def _dispatch(self, batches: list[list[int]],
                  cells: list[list[Scenario]], record_result) -> None:
        """Run the batches on the pool, one task per batch: its index
        is the task id (the chaos hook's argument), its cells the task
        argument.

        The batch deadline scales with its size (``cell_timeout`` is
        per cell).  A batch whose retry budget is exhausted -- or that
        dies on a deterministic worker fault with retries disabled --
        reports every one of its cells as failed.
        """
        pool = ResilientPool(min(self.n_workers, len(batches)),
                             _execute_batch, retry=self.retry)
        tasks = []
        for index, batch_cells in enumerate(cells):
            timeout = (None if self.cell_timeout is None
                       else self.cell_timeout * len(batch_cells))
            tasks.append((index, batch_cells, timeout))
        # closing(): an exception out of record_result (a full disk,
        # an interrupt) ends the workers still running a task now, not
        # whenever the generator is collected.
        with closing(pool.execute(tasks)) as outcomes:
            for index, batch_results, error in outcomes:
                if batch_results is None:
                    for position in batches[index]:
                        record_result(position, None,
                                      error or "batch produced no result")
                else:
                    for position, outcome in zip(batches[index],
                                                 batch_results):
                        record_result(position, *outcome)
