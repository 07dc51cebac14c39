"""Sharded scenario execution with an incremental on-disk result cache.

Scenario sweeps are embarrassingly parallel (Pantheon-style: every
cell of the condition x scheme matrix is an independent simulation), so
:class:`ParallelRunner` shards the expanded scenarios of a
:class:`~repro.eval.scenarios.ScenarioSuite` across OS processes,
mirroring the picklable-spec idiom of :class:`repro.rl.parallel.EnvSpec`.

Completed scenarios are memoized on disk keyed by
:meth:`Scenario.fingerprint`, so re-runs only pay for the cells that
changed; a second run of an unchanged suite is pure cache reads.
Results aggregate into a tidy :class:`ResultTable` (one row per flow
per scenario) plus the raw per-MI :class:`FlowRecord` streams for the
fairness/CDF analyses.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import result_cache_dir
from repro.eval.batch import BatchRunner, warm_agent_refs
from repro.eval.resilience import (
    ResilientPool,
    RetryPolicy,
    SweepCheckpoint,
    seal,
    unseal,
)
from repro.eval.scenarios import (
    SCENARIO_CACHE_VERSION,
    Scenario,
    ScenarioSuite,
    fingerprint_cells,
)
from repro.netsim.network import FlowRecord

__all__ = ["ParallelRunner", "ResultCache", "ResultTable", "ScenarioError",
           "ScenarioResult", "SuiteResult"]


class ScenarioError(RuntimeError):
    """A scenario failed inside a suite run.

    Carries the scenario name so a 200-cell sweep's failure points at
    the offending cell, not just a worker traceback.
    """

    def __init__(self, scenario_name: str, detail: str = ""):
        self.scenario_name = scenario_name
        message = f"scenario {scenario_name!r} failed"
        if detail:
            message += f": {detail}"
        super().__init__(message)


#: Default size cap of the on-disk result cache, megabytes.  Long-lived
#: sweep machines accumulate entries across many suites; without a cap
#: the directory grows without bound.
DEFAULT_CACHE_MAX_MB = 2048.0


class ResultCache:
    """Fingerprint-keyed store of finished scenario results, one
    :func:`~repro.eval.resilience.seal`-ed ``<fingerprint>.json`` each.

    The default location is
    :func:`repro.config.result_cache_dir` (``repro/eval/_cache`` next
    to the model cache unless ``REPRO_RESULT_CACHE`` relocates it; CI
    points it at a workspace-local directory).

    The store is a size-capped LRU: ``get`` touches the entry's mtime,
    ``put`` evicts oldest-touched entries once the directory exceeds
    ``max_bytes`` (default :data:`DEFAULT_CACHE_MAX_MB`; ``0`` disables
    eviction).  ``prune()`` is the explicit entry point for maintenance
    jobs.
    """

    def __init__(self, cache_dir: str | Path | None = None,
                 max_bytes: int | None = None):
        self.cache_dir = Path(cache_dir or result_cache_dir())
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        if max_bytes is None:
            max_bytes = int(DEFAULT_CACHE_MAX_MB * 1e6)
        self.max_bytes = int(max_bytes)
        #: Running size estimate so put() only pays a directory scan
        #: when the cap is actually threatened (None = not yet known).
        self._approx_bytes: int | None = None

    def _path(self, fingerprint: str) -> Path:
        return self.cache_dir / f"{fingerprint}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so its cell is recomputed.

        The entry is renamed to ``<fingerprint>.quarantined`` -- out of
        the ``*.json`` namespace, so it is never read again and never
        counts against the size cap, but stays inspectable for
        debugging.  ``clear()`` removes quarantined files too.  Racing
        removals are fine: the outcome either way is a cache miss.
        """
        try:
            path.replace(path.with_suffix(".quarantined"))
        except OSError:
            pass

    def get(self, fingerprint: str) -> list[FlowRecord] | None:
        path = self._path(fingerprint)
        try:
            line = path.read_bytes()
        except OSError:
            return None  # absent or unreadable: a plain miss
        # An entry that is there but does not unseal (torn write, bit
        # rot, concurrent truncation) is quarantined so the cell is
        # recomputed instead of serving corrupt records.
        entry = unseal(line)
        if entry is None:
            self._quarantine(path)
            return None
        fields, records = entry
        if fields.get("version") != SCENARIO_CACHE_VERSION:
            return None  # stale format: put() will overwrite it
        try:
            os.utime(path)  # LRU touch: a hit keeps the entry young
        except OSError:
            pass
        return records

    def put(self, fingerprint: str, name: str, records: list[FlowRecord]) -> None:
        path = self._path(fingerprint)
        # Staged under this writer's pid: sweeps sharing the directory
        # may put the same cell at once, and each replace is atomic.
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        line = seal({"version": SCENARIO_CACHE_VERSION, "name": name},
                    records)
        tmp.write_bytes(line)
        try:
            tmp.replace(path)
        except FileNotFoundError:
            return  # a concurrent clear() took the staged file with it
        if self.max_bytes > 0:
            # Amortized eviction: keep a running size estimate and only
            # pay the full directory scan once it crosses the cap (an
            # overwrite counts its size twice, which merely prunes a
            # touch early -- prune() re-measures exactly).
            try:
                if self._approx_bytes is None:
                    total = 0
                    for p in sorted(self.cache_dir.glob("*.json")):
                        total += p.stat().st_size
                    self._approx_bytes = total
                else:
                    self._approx_bytes += len(line)
            except OSError:
                # A concurrent prune/clear raced the scan; the next
                # put() re-measures from scratch.
                self._approx_bytes = None
                return
            if self._approx_bytes > self.max_bytes:
                self.prune()

    def prune(self, max_bytes: int | None = None) -> int:
        """Evict least-recently-used entries above the size cap.

        Returns the number of entries removed.  ``max_bytes`` overrides
        the cache's configured cap for this call; a cap <= 0 means
        unbounded (nothing is evicted).
        """
        cap = self.max_bytes if max_bytes is None else int(max_bytes)
        if cap <= 0:
            return 0
        entries = []
        total = 0
        for path in sorted(self.cache_dir.glob("*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently removed
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        removed = 0
        for _, size, path in sorted(entries):
            if total <= cap:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        self._approx_bytes = total
        return removed

    def clear(self) -> int:
        """Delete all entries (quarantined ones and staging files a
        killed writer left included); returns how many were removed.
        Tolerates entries vanishing concurrently -- two racing
        ``clear()`` calls both succeed, splitting the count.
        """
        removed = 0
        doomed = (sorted(self.cache_dir.glob("*.json"))
                  + sorted(self.cache_dir.glob("*.quarantined"))
                  + sorted(self.cache_dir.glob("*.tmp")))
        for path in doomed:
            try:
                path.unlink()
            except OSError:
                continue  # concurrently removed
            removed += 1
        self._approx_bytes = 0
        return removed


@dataclass
class ScenarioResult:
    """One executed (or cache-served, or failed) scenario."""

    scenario: Scenario
    records: list[FlowRecord]
    cached: bool = False
    elapsed: float = 0.0
    #: Heap events the simulation dispatched (0 for cache-served
    #: results -- no simulation ran).  Feeds the suite-level
    #: :attr:`SuiteResult.events_per_sec`.
    events: int = 0
    #: Failure detail when the cell failed inside a budgeted run
    #: (``ParallelRunner(max_failures=...)``); ``None`` for healthy
    #: cells.  Failed cells have no records -- their rows carry the
    #: condition columns plus this error, with metrics left ``None``.
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


class ResultTable:
    """Tidy results: one row (a plain dict) per flow per scenario."""

    def __init__(self, rows: list[dict]):
        self.rows = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def filter(self, **equals) -> "ResultTable":
        """Rows matching all ``column=value`` constraints."""
        return ResultTable([r for r in self.rows
                            if all(r.get(k) == v for k, v in equals.items())])

    def values(self, column: str) -> np.ndarray:
        return np.asarray([r[column] for r in self.rows])

    def mean(self, column: str, **equals) -> float:
        """Mean of ``column`` over matching rows; failed cells' ``None``
        metrics are skipped, and nothing left to average is ``nan``."""
        table = self.filter(**equals) if equals else self
        values = [r[column] for r in table.rows if r[column] is not None]
        return float(np.mean(values)) if values else float("nan")

    def pivot(self, index: str, columns: str, values: str) -> tuple:
        """``(row_labels, col_labels, matrix)`` -- means over duplicates.

        Failed cells' ``None`` values are skipped; a group with nothing
        left to average stays ``nan``.
        """
        row_labels = list(dict.fromkeys(r[index] for r in self.rows))
        col_labels = list(dict.fromkeys(r[columns] for r in self.rows))
        matrix = np.full((len(row_labels), len(col_labels)), np.nan)
        counts = np.zeros_like(matrix)
        for r in self.rows:
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

    def format(self, columns: tuple = ("scenario", "label", "throughput_mbps",
                                       "utilization", "latency_ratio")) -> str:
        widths = [max(len(c), 10) for c in columns]
        lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
        for row in self.rows:
            cells = []
            for c, w in zip(columns, widths):
                value = row.get(c, "")
                text = f"{value:.3f}" if isinstance(value, float) else str(value)
                cells.append(text.ljust(w))
            lines.append("  ".join(cells))
        return "\n".join(lines)


@dataclass
class SuiteResult:
    """All scenario results of one runner invocation."""

    results: list[ScenarioResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def table(self) -> ResultTable:
        return ResultTable([row for result in self.results
                            for row in result.rows()])

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.results if not r.cached)

    @property
    def total_events(self) -> int:
        """Heap events dispatched by the suite's *executed* cells."""
        return sum(r.events for r in self.results if not r.cached)

    @property
    def events_per_sec(self) -> float | None:
        """Aggregate engine speed over executed cells, events per
        *simulation* second (per-cell measured wall, so the number is
        comparable between serial and sharded runs; ``None`` when the
        whole suite was cache-served)."""
        sim_wall = sum(r.elapsed for r in self.results if not r.cached)
        if sim_wall <= 0:
            return None
        return self.total_events / sim_wall

    def records_for(self, name: str) -> list[FlowRecord]:
        for result in self.results:
            if result.scenario.name == name:
                return result.records
        raise KeyError(f"no scenario named {name!r}")

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


#: Cell batches staged for the forked pool, as lists of positions into
#: the pending list.  Workers index into the parent's copy-on-write
#: memory instead of receiving pickled scenarios -- live agents
#: embedded in a FlowDef would otherwise be serialised through the IPC
#: pipe once per task.
_FORK_BATCHES: list[list[int]] = []
_FORK_SCENARIOS: list[Scenario] = []


def _execute_batch(batch_index: int):
    """One batch -> per-cell ``(position, payload, error)`` triples;
    the pool workers' entry point and the in-process arm's.

    Failures come back as strings instead of raised exceptions so the
    parent can decide (per its ``early_abort`` setting) whether one bad
    cell cancels the rest of the suite -- and so unpicklable exception
    objects never wedge the result pipe.  A failing cell never takes
    its batch siblings with it: ``BatchRunner`` isolates errors per
    cell.
    """
    positions = _FORK_BATCHES[batch_index]
    cells = BatchRunner().run([_FORK_SCENARIOS[p] for p in positions])
    return [(position, None, cell.error) if cell.error is not None
            else (position, (cell.records, cell.elapsed, cell.events), None)
            for position, cell in zip(positions, cells)]


class ParallelRunner:
    """Execute scenario suites across processes with result memoization.

    ``n_workers <= 1`` runs in-process (the reference serial path);
    results are bit-identical either way because every scenario is a
    self-contained, seeded simulation.  Workers are forked per ``run``
    call *after* agent references resolve in the parent, so children
    inherit the loaded models through copy-on-write memory instead of
    re-reading (or worse, re-training) them.

    Pending cells are dispatched to workers in *batches* executed by
    :class:`~repro.eval.batch.BatchRunner` -- cells built over frozen
    per-batch assets, then run in turn -- rather than one pool task per
    cell; ``batch_size=None`` picks a size that still leaves several
    tasks per worker for load balancing.  Cache semantics are
    unchanged: hits and misses, fingerprint keys, and result rows are
    all per cell.

    Whenever a cache or a checkpoint is active, ``run`` fingerprints
    the whole sweep once, up front, through
    :func:`~repro.eval.scenarios.fingerprint_cells`: the sub-signatures
    cells share (named-trace content, topology, agent parameters) are
    computed once per sweep instead of once per cell, and the keys are
    the per-cell ``Scenario.fingerprint()`` ones.  Nothing is memoised
    across sweeps -- a trace re-registered under the same name or a
    live agent adapted in place must change the keys of the next run.

    Out-of-process dispatch is always
    :class:`~repro.eval.resilience.ResilientPool`: a worker that
    crashes or blows its deadline is respawned and its batch re-run
    within the retry budget, then reported as failed cells -- a dead
    worker never hangs a sweep.  Re-running is safe because cells are
    pure seeded simulations.  The one dispatch decision: a lone batch
    with neither ``retry`` nor ``cell_timeout`` set stays in process
    (nothing to overlap), as does everything under ``n_workers <= 1``
    -- where a deadline cannot be enforced and a crash is not isolated.

    A failing scenario raises :class:`ScenarioError` naming the cell.
    With ``early_abort=True`` batching is disabled (cells dispatch
    one-per-task, exactly the pre-batching shape) so the first failure
    cancels outstanding shards immediately -- the pool is torn down,
    queued cells never start; otherwise the rest of the suite
    completes -- and is cached -- before the error is raised.
    ``max_failures`` trades that hard stop for a budget: up to that
    many failed cells are recorded as result rows carrying an
    ``error`` column (metrics ``None``) and the run succeeds; the
    failure past the budget aborts as before.

    * ``retry=RetryPolicy(...)`` sets the budget and backoff for
      transient failures (``None`` = the default ``RetryPolicy()``);
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
                 early_abort: bool = False,
                 cache_max_bytes: int | None = None,
                 batch_size: int | None = None,
                 max_failures: int | None = None,
                 cell_timeout: float | None = None,
                 retry: RetryPolicy | None = None,
                 checkpoint: str | Path | None = None):
        if n_workers is None:
            n_workers = max(1, min(mp.cpu_count(), 8))
        self.n_workers = int(n_workers)
        self.cache = (ResultCache(cache_dir, max_bytes=cache_max_bytes)
                      if use_cache else None)
        self.early_abort = bool(early_abort)
        if batch_size is not None and int(batch_size) < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = None if batch_size is None else int(batch_size)
        if max_failures is not None and int(max_failures) < 0:
            raise ValueError("max_failures must be >= 0")
        self.max_failures = (None if max_failures is None
                             else int(max_failures))
        if cell_timeout is not None and float(cell_timeout) <= 0.0:
            raise ValueError("cell_timeout must be positive")
        self.cell_timeout = (None if cell_timeout is None
                             else float(cell_timeout))
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise TypeError("retry must be a RetryPolicy")
        self.retry = retry
        self.checkpoint_path = None if checkpoint is None else Path(checkpoint)

    def _pick_batch_size(self, n_pending: int) -> int:
        if self.early_abort:
            return 1
        if self.batch_size is not None:
            return self.batch_size
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
            warm_agent_refs([s for _, s, _ in pending])
            failures: list[tuple[int, str, str]] = []

            def record_result(position: int, payload, error: str | None):
                idx, scenario, fingerprint = pending[position]
                if error is not None:
                    failures.append((position, scenario.name, error))
                    if self.early_abort:
                        # Raising out of the dispatch loop closes the
                        # pool, cancelling every shard not yet finished.
                        raise ScenarioError(scenario.name, error)
                    if (self.max_failures is not None
                            and len(failures) > self.max_failures):
                        raise ScenarioError(
                            scenario.name,
                            f"{error} (failure budget "
                            f"max_failures={self.max_failures} exhausted)")
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

            # Staged for both arms: forked workers index the parent's
            # copy-on-write memory instead of unpickling scenarios.
            global _FORK_BATCHES, _FORK_SCENARIOS
            _FORK_SCENARIOS = [s for _, s, _ in pending]
            _FORK_BATCHES = batches
            try:
                # A lone batch with no deadline or retry budget asked
                # for stays here (nothing to overlap); with one, it
                # needs the cell out of this process.
                if self.n_workers > 1 and (len(batches) > 1
                                           or self.retry is not None
                                           or self.cell_timeout is not None):
                    self._dispatch(batches, record_result)
                else:
                    # Serial reference path: the workers' own entry
                    # point, in process.
                    for index in range(len(batches)):
                        for outcome in _execute_batch(index):
                            record_result(*outcome)
            finally:
                _FORK_BATCHES = []
                _FORK_SCENARIOS = []

            if failures and self.max_failures is None:
                failures.sort()
                _, name, error = failures[0]
                detail = error if len(failures) == 1 else (
                    f"{error} (+{len(failures) - 1} more failed cells)")
                raise ScenarioError(name, detail)

        ordered = [results[idx] for idx in range(len(scenarios))]
        return SuiteResult(results=ordered, elapsed=time.perf_counter() - t0)

    def _dispatch(self, batches: list[list[int]], record_result) -> None:
        """Run the batches on the pool, one task per batch.

        The batch deadline scales with its size (``cell_timeout`` is
        per cell).  A batch whose retry budget is exhausted -- or that
        dies on a deterministic worker fault with retries disabled --
        reports every one of its cells as failed.
        """
        pool = ResilientPool(min(self.n_workers, len(batches)),
                             _execute_batch, retry=self.retry)
        tasks = []
        for index, batch in enumerate(batches):
            timeout = (None if self.cell_timeout is None
                       else self.cell_timeout * len(batch))
            tasks.append((index, index, timeout))
        # closing(): an abort raised by record_result tears the workers
        # down now, not whenever the generator is collected.
        with closing(pool.execute(tasks)) as outcomes:
            for index, batch_results, error in outcomes:
                if batch_results is None:
                    for position in batches[index]:
                        record_result(position, None,
                                      error or "batch produced no result")
                else:
                    for position, payload, cell_error in batch_results:
                        record_result(position, payload, cell_error)
