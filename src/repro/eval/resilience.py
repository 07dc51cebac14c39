"""Sweep runtime: the worker pool, the sealed record codec, the journal.

Production-scale sweeps die for reasons that have nothing to do with
the cells themselves: a worker process OOM-killed mid-batch, one cell
wedging on a pathological parameter corner, a corrupt cache entry, the
whole run preempted halfway through a 10^4-cell grid.  This module is
what :class:`~repro.eval.parallel.ParallelRunner` runs every
out-of-process sweep on, and it survives all four without compromising
the determinism contract:

* :func:`seal` / :func:`unseal` -- the one on-disk form of a record
  list.  Cache entries and journal lines are both sealed lines: a
  sha256 over the exact bytes stored, verified over the exact bytes
  read.  Inside the line a record is its aggregates plus its monitor
  intervals packed as binary column blocks (:func:`record_to_json`).
  Reading one back validates the block in full inside :func:`unseal`
  but builds its :class:`~repro.netsim.sender.MonitorIntervalStats`
  rows only when something first reads them, so a cache hit or a
  journal resume read for its aggregates never builds them.
  :func:`records_digest` is a cell's identity and does not depend on
  that form.
* :class:`RetryPolicy` -- how many attempts a task gets against
  *transient* failures (worker crashes, timeouts).  Deterministic cell
  failures -- an exception raised by the task function itself -- are
  never retried: a seeded simulation that failed once fails
  identically every time.
* :class:`ResilientPool` -- the process pool.  Fork-based, one duplex
  pipe per worker, so it knows which worker holds which task: a
  crashed or deadline-blown worker is terminated, respawned, and its
  task either requeued at once (within the retry budget) or reported
  as a failed result instead of wedging the sweep.
* :class:`SweepCheckpoint` -- an append-only journal of completed
  cells, one sealed line each, fingerprint-keyed so an interrupted
  grid resumes from exactly the cells it finished -- with the original
  records, wall time, and event counts, hence row-for-row identical
  digests to an uninterrupted run.
* :func:`set_chaos_hook` -- the deterministic fault-injection point
  the chaos tests use to kill a worker at a chosen batch (fork
  inheritance carries the hook into workers); the kill-schedule
  property in ``tests/test_sweep_kills.py`` draws where.

Retry safety is a contract on the pool's task function (see
:class:`ResilientPool`): the one the runner passes,
``repro.eval.parallel._execute_batch``, is a pure function of its
seeded scenarios writing to a fingerprint-keyed store, and the
kill-schedule property (killed-and-retried == serial digests) is its
proof.

All timeout arithmetic uses ``time.perf_counter()`` (monotonic,
wall-clock-rule clean) and never feeds simulation state -- elapsed
time is reporting, not physics.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import struct
import time
from binascii import a2b_base64, b2a_base64
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from itertools import chain
from multiprocessing.connection import wait as _connection_wait
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

from repro.eval.scenarios import SCENARIO_CACHE_VERSION
from repro.netsim.network import FlowRecord
from repro.netsim.sender import MonitorIntervalStats

__all__ = ["ResilientPool", "RetryPolicy", "SweepCheckpoint",
           "record_from_json", "record_to_json", "records_digest", "seal",
           "set_chaos_hook", "unseal"]

# --- record codec -------------------------------------------------------------
# Shared by the result cache, the checkpoint journal, and the digest
# helpers; lives here (not in repro.eval.parallel) so parallel can
# import the resilience layer without a cycle.
#
# What is stored comes from ``dataclasses.fields()`` and the
# annotations, never from a list kept by hand beside the dataclasses:
# a field added to either class is persisted, and one whose type has
# no stored form stops the import instead of being dropped on disk.

_HISTORY_TYPE = list[MonitorIntervalStats]


def _typed_fields(cls: type, storable: tuple) -> list[tuple]:
    """``[(field name, resolved annotation), ...]`` of a stored
    dataclass; ``TypeError`` for a field the codec has no form for."""
    hints = get_type_hints(cls)
    typed = [(f.name, hints[f.name]) for f in dataclass_fields(cls)]
    for name, hint in typed:
        if hint not in storable:
            raise TypeError(
                f"{cls.__name__}.{name}: {hint!r} has no stored form in "
                f"repro.eval.resilience (one of {storable})")
    return typed


_RECORD_TYPES = _typed_fields(
    FlowRecord, (int, float, str, float | None, _HISTORY_TYPE))
#: The aggregates of a ``FlowRecord``, stored as plain JSON values.
RECORD_FIELDS = tuple(name for name, hint in _RECORD_TYPES
                      if hint != _HISTORY_TYPE)
#: Its one monitor-interval history, stored as packed column blocks.
(_HISTORY,) = (name for name, hint in _RECORD_TYPES if hint == _HISTORY_TYPE)

_MI_TYPES = _typed_fields(MonitorIntervalStats, (int, float, float | None))
#: Per-monitor-interval fields, in constructor order.
MI_FIELDS = tuple(name for name, _ in _MI_TYPES)
_MI_ROW = attrgetter(*MI_FIELDS)
# Positions (in MI_FIELDS) of the columns in stored order: every
# ``int`` column, then every ``float`` one.  An optional column is a
# float column with a bitmap of its ``None`` rows after the blocks --
# presence is carried, so NaN is a value like any other.
_INT_AT = tuple(at for at, (_, hint) in enumerate(_MI_TYPES) if hint is int)
_FLOAT_AT = tuple(at for at, (_, hint) in enumerate(_MI_TYPES)
                  if hint is not int)
_OPTIONAL_AT = tuple(at for at, (_, hint) in enumerate(_MI_TYPES)
                     if hint == float | None)
_STORED_AT = _INT_AT + _FLOAT_AT


def _block_format(rows: int) -> str:
    return f"<{rows * len(_INT_AT)}q{rows * len(_FLOAT_AT)}d"


def record_to_json(record: FlowRecord) -> dict:
    """The stored form of a record: its aggregates as JSON values, its
    MI history as ``[rows, base64]`` of one little-endian binary block
    -- every ``int`` column as ``rows`` int64, then every ``float``
    column as ``rows`` float64, then per optional column a bitmap
    (``ceil(rows / 8)`` bytes, bit ``r`` of the little-endian number)
    of the rows that hold ``None``.  Values are stored as their
    annotated type; one that does not fit its column (a float or a
    65-bit int in an ``int`` one) raises.
    """
    stats = getattr(record, _HISTORY)
    if (type(record) is not FlowRecord
            or not {MonitorIntervalStats}.issuperset(map(type, stats))):
        # A subclass may carry fields this form would silently drop.
        raise TypeError("only FlowRecord / MonitorIntervalStats instances "
                        "themselves have a stored form, not subclasses")
    rows = len(stats)
    columns = (list(zip(*map(_MI_ROW, stats))) if stats
               else [()] * len(MI_FIELDS))
    gaps = b""
    for at in _OPTIONAL_AT:
        column = columns[at]
        mask = 0
        if None in column:
            mask = sum(1 << row for row, v in enumerate(column) if v is None)
            columns[at] = [0.0 if v is None else v for v in column]
        gaps += mask.to_bytes((rows + 7) // 8, "little")
    block = struct.pack(
        _block_format(rows),
        *chain.from_iterable(columns[at] for at in _STORED_AT))
    payload = {name: getattr(record, name) for name in RECORD_FIELDS}
    payload[_HISTORY] = [
        rows, b2a_base64(block + gaps, newline=False).decode("ascii")]
    return payload


def _gap_masks(block: bytes, rows: int) -> list[int]:
    """The ``None`` bitmap of each optional column, in ``_OPTIONAL_AT``
    order, from a block of ``rows`` rows."""
    gaps_at = 8 * rows * len(MI_FIELDS)
    size = (rows + 7) // 8
    return [int.from_bytes(block[gaps_at + k * size:gaps_at + (k + 1) * size],
                           "little")
            for k in range(len(_OPTIONAL_AT))]


class _PackedHistory(Sequence):
    """The MI history of a decoded record: its length from the stored
    row count, its :class:`MonitorIntervalStats` rows built from the
    packed block on first access.

    :func:`record_from_json` validates the block before it builds one,
    so unpacking cannot fail: it runs once, then the bytes go.  A cache
    hit whose consumer reads only aggregates (the sweep table, a
    journal resume) never unpacks.  Equal to a list of the same rows
    with either operand on the left, so a decoded ``FlowRecord`` equals
    the one that was encoded.  It fills the ``list``-annotated
    ``FlowRecord.records`` of a decoded record and offers the read-only
    part of the list surface; nothing appends to a decoded history.
    """

    __slots__ = ("_rows", "_block", "_stats")

    def __init__(self, rows: int, block: bytes):
        self._rows = rows
        self._block = block
        self._stats = None

    def _unpacked(self) -> list[MonitorIntervalStats]:
        if self._stats is None:
            rows, block = self._rows, self._block
            values = struct.unpack_from(_block_format(rows), block)
            columns: list = [None] * len(MI_FIELDS)
            for k, at in enumerate(_STORED_AT):
                columns[at] = values[k * rows:(k + 1) * rows]
            for at, mask in zip(_OPTIONAL_AT, _gap_masks(block, rows)):
                if mask:
                    column = columns[at] = list(columns[at])
                    while mask:
                        lowest = mask & -mask
                        column[lowest.bit_length() - 1] = None
                        mask ^= lowest
            self._stats = list(map(MonitorIntervalStats, *columns))
            self._block = None
        return self._stats

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, index):
        return self._unpacked()[index]

    def __iter__(self):
        return iter(self._unpacked())

    def __eq__(self, other):
        if isinstance(other, _PackedHistory):
            other = other._unpacked()
        if not isinstance(other, list):
            return NotImplemented
        return self._unpacked() == other

    def __repr__(self) -> str:
        return repr(self._unpacked())


def record_from_json(payload: dict) -> FlowRecord:
    """Exact inverse of :func:`record_to_json`; ``ValueError`` /
    ``KeyError`` / ``TypeError`` for anything it did not write.

    Every check runs here, so a bad entry fails inside :func:`unseal`;
    the MI rows themselves are built when first read
    (:class:`_PackedHistory`)."""
    rows, packed = payload[_HISTORY]
    if type(rows) is not int or rows < 0:
        raise ValueError(f"MI row count {rows!r} is not a count")
    block = a2b_base64(packed, strict_mode=True)
    gap_bytes = (rows + 7) // 8
    if len(block) != (8 * rows * len(MI_FIELDS)
                      + gap_bytes * len(_OPTIONAL_AT)):
        raise ValueError("packed MI block disagrees with its row count")
    if any(mask >> rows for mask in _gap_masks(block, rows)):
        raise ValueError("a None row beyond the last MI")
    aggregates = {name: payload[name] for name in RECORD_FIELDS}
    aggregates[_HISTORY] = _PackedHistory(rows, block)
    return FlowRecord(**aggregates)


def records_digest(records: list[FlowRecord]) -> str:
    """Content digest of a cell's records (order- and bit-sensitive).

    A cell's *identity*, not its stored form: the canonical listing
    hashed here -- aggregates by name, one value row per MI -- is
    private to this function and is what the goldens and the ledger's
    ``expected.json`` pin, whatever :func:`record_to_json` packs.
    """
    canonical = []
    for record in records:
        listing = {name: getattr(record, name) for name in RECORD_FIELDS}
        listing[_HISTORY] = list(map(_MI_ROW, getattr(record, _HISTORY)))
        canonical.append(listing)
    body = json.dumps(canonical, sort_keys=True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# A sealed line is ``{"sha":"<64 hex>","sealed":[fields, records]}``:
# valid JSON, with the checksummed body at a fixed offset so it is
# hashed as the bytes it was stored as, never re-serialised.
_SEAL_BODY_AT = len(b'{"sha":"","sealed":') + 64


def _sealed(body: bytes) -> bytes:
    sha = hashlib.sha256(body).hexdigest().encode("ascii")
    return b'{"sha":"%b","sealed":%b}' % (sha, body)


def seal(fields: dict, records: list[FlowRecord]) -> bytes:
    """One newline-free line holding ``fields`` and ``records`` under a
    sha256 of its body; what cache entries and journal lines are."""
    return _sealed(json.dumps(
        [fields, [record_to_json(r) for r in records]]).encode("ascii"))


def unseal(line: bytes) -> tuple[dict, list[FlowRecord]] | None:
    """``(fields, records)`` of a line :func:`seal` wrote, or ``None``
    for anything else: any flipped, missing or added byte fails."""
    body = line[_SEAL_BODY_AT:-1]
    if line != _sealed(body):
        return None
    try:
        fields, payload = json.loads(body)
        if not isinstance(fields, dict):
            return None
        return fields, [record_from_json(r) for r in payload]
    except (ValueError, KeyError, TypeError):
        return None


# --- chaos hook ---------------------------------------------------------------

#: Test fault-injection hook, called by every pool worker with the
#: task argument before executing it.  Set in the parent before the
#: pool forks (children inherit it through fork); ``None`` disables.
#: Mutable module state is acceptable here -- the hook never feeds
#: simulation results, only kills or delays workers.
_CHAOS_HOOK = None


def set_chaos_hook(hook) -> None:
    """Install (or with ``None`` clear) the worker chaos hook."""
    global _CHAOS_HOOK
    _CHAOS_HOOK = hook


def chaos_probe(arg) -> None:
    """Invoke the installed chaos hook, if any (worker-side)."""
    hook = _CHAOS_HOOK
    if hook is not None:
        hook(arg)


# --- retry policy -------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry of transiently failed tasks.

    ``max_attempts`` counts the first attempt: ``1`` disables retries
    entirely.  A failed attempt is requeued at once: pool tasks are
    idempotent (see :class:`ResilientPool`), so waiting before the
    next attempt changes nothing they compute.
    """

    max_attempts: int = 3

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


# --- resilient pool -----------------------------------------------------------


def _pool_worker(conn, fn) -> None:
    """Worker main: receive ``(task_id, arg)``, send ``(task_id,
    result, error)``; a ``None`` message is the shutdown sentinel.

    Task exceptions come back as strings (unpicklable exception objects
    must never wedge the pipe); anything that kills the process --
    including the chaos hook -- surfaces in the parent as a crash.
    """
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            task_id, arg = message
            chaos_probe(arg)
            try:
                result = fn(arg)
            except Exception as exc:  # noqa: BLE001 -- reported per task
                conn.send((task_id, None, f"{type(exc).__name__}: {exc}"))
            else:
                conn.send((task_id, result, None))
    except (EOFError, OSError, KeyboardInterrupt):
        return


class _PoolTask:
    __slots__ = ("task_id", "arg", "timeout", "failures", "errors")

    def __init__(self, task_id, arg, timeout):
        self.task_id = task_id
        self.arg = arg
        self.timeout = timeout
        self.failures = 0
        self.errors: list[str] = []


class _PoolWorker:
    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn


class ResilientPool:
    """The sweep runtime's process pool: idempotent tasks, surviving
    worker crashes and blown deadlines.

    Each worker holds exactly one task at a time over a dedicated
    duplex pipe, so the pool always knows *which* task a dead or
    deadline-blown worker was holding.  That worker is
    terminated and respawned, and the task is requeued at once under
    ``retry`` (transient failures only: an exception *returned* by the
    task function is deterministic and reported immediately, never
    retried).  Tasks whose retry budget is exhausted come back as
    error results; the pool itself never raises for a task.

    ``fn`` must be a module-level function (workers import it by
    reference) and idempotent: the pool re-runs it after a crash or a
    timeout, so running it twice must be observationally equivalent to
    running it once.
    """

    #: Parent poll granularity, seconds: the latency ceiling on
    #: noticing a result, a crash, or an expired deadline.
    POLL_SECONDS = 0.05

    def __init__(self, n_workers: int, fn, retry: RetryPolicy | None = None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.fn = fn
        self.retry = retry if retry is not None else RetryPolicy()

    def _spawn(self, ctx) -> _PoolWorker:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_pool_worker, args=(child_conn, self.fn),
                           daemon=True)
        proc.start()
        child_conn.close()
        return _PoolWorker(proc, parent_conn)

    def _kill(self, worker: _PoolWorker) -> None:
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join()
        try:
            worker.conn.close()
        except OSError:
            pass

    def _next_move(self, task: _PoolTask, reason: str, queue: deque):
        """Requeue a transiently-failed task or emit its error result."""
        task.failures += 1
        task.errors.append(reason)
        if task.failures >= self.retry.max_attempts:
            return (task.task_id, None, "; ".join(task.errors))
        queue.append(task)
        return None

    def execute(self, tasks):
        """Yield one ``(task_id, result, error)`` per task, unordered.

        ``tasks`` is an iterable of ``(task_id, arg, timeout_s)``
        (``timeout_s=None`` = no deadline).  The generator owns the
        worker processes: closing it early (or an exception in the
        consuming loop) terminates them.
        """
        ctx = mp.get_context("fork")
        queue: deque[_PoolTask] = deque(
            _PoolTask(task_id, arg, timeout)
            for task_id, arg, timeout in tasks)
        if not queue:
            return
        # Every live worker, respawned ones included: what close owns.
        workers = [self._spawn(ctx)
                   for _ in range(min(self.n_workers, len(queue)))]
        idle = list(workers)
        inflight: dict = {}  # conn -> (worker, task, deadline | None)

        def respawn(worker: _PoolWorker) -> None:
            self._kill(worker)
            fresh = workers[workers.index(worker)] = self._spawn(ctx)
            idle.append(fresh)

        try:
            # Every worker is idle or in flight, so after the hand-out
            # below something is in flight whenever this loop runs.
            while queue or inflight:
                now = time.perf_counter()
                while idle and queue:
                    worker = idle.pop()
                    task = queue.popleft()
                    worker.conn.send((task.task_id, task.arg))
                    deadline = (None if task.timeout is None
                                else now + task.timeout)
                    inflight[worker.conn] = (worker, task, deadline)
                for conn in _connection_wait(list(inflight),
                                             timeout=self.POLL_SECONDS):
                    worker, task, _deadline = inflight[conn]
                    try:
                        task_id, result, error = conn.recv()
                    except (EOFError, OSError):
                        # Worker died mid-task (chaos kill, OOM,
                        # segfault): respawn and requeue within budget.
                        del inflight[conn]
                        respawn(worker)
                        verdict = self._next_move(
                            task, "WorkerCrash: worker process died "
                                  f"while running task {task.task_id!r}",
                            queue)
                        if verdict is not None:
                            yield verdict
                    else:
                        del inflight[conn]
                        idle.append(worker)
                        yield (task_id, result, error)
                now = time.perf_counter()
                for conn in list(inflight):
                    worker, task, deadline = inflight[conn]
                    expired = deadline is not None and now > deadline
                    if worker.proc.is_alive() and not expired:
                        continue
                    del inflight[conn]
                    respawn(worker)
                    if expired:
                        reason = (f"CellTimeout: task {task.task_id!r} "
                                  f"exceeded {task.timeout:.3f}s")
                    else:
                        reason = ("WorkerCrash: worker process died "
                                  f"while running task {task.task_id!r}")
                    verdict = self._next_move(task, reason, queue)
                    if verdict is not None:
                        yield verdict
        finally:
            # A worker still in flight here is running a task nobody
            # will collect (early close, abort): terminate it at once.
            # Idle ones get the sentinel and a moment to exit.
            for worker in workers:
                if worker.conn in inflight:
                    worker.proc.terminate()
                else:
                    try:
                        worker.conn.send(None)
                    except OSError:
                        pass
            for worker in workers:
                worker.proc.join(timeout=1.0)
                self._kill(worker)


# --- sweep checkpoint ---------------------------------------------------------


def _suite_sha(fingerprints: list[str]) -> str:
    return hashlib.sha256(
        json.dumps(list(fingerprints)).encode("utf-8")).hexdigest()[:16]


class SweepCheckpoint:
    """Append-only journal of a sweep's completed cells, one
    :func:`seal`-ed line each.

    Line 0 is a manifest binding the journal to one suite (the ordered
    cell fingerprints) and one cache version; every following line is
    a completed cell -- index, fingerprint, records, wall time, event
    count.  :meth:`resume` validates the chain and returns the
    completed cells; a manifest mismatch (different suite, changed
    code) starts the journal over, and a corrupt or torn tail is
    dropped (the journal is rewritten up to the last intact line)
    rather than trusted.

    The journal lives in the parent: workers never write it, so a
    crashed worker can at worst lose its in-flight cells, never
    corrupt completed ones.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None

    def resume(self, fingerprints: list[str]) -> dict[int, tuple]:
        """Validate the journal against ``fingerprints`` and open it.

        Returns ``{cell_index: (records, elapsed, events)}`` for every
        intact completed cell of the *same* suite; any mismatch or
        corruption resets the journal (fresh manifest, no cells).
        """
        fingerprints = list(fingerprints)
        manifest = {"kind": "manifest", "version": SCENARIO_CACHE_VERSION,
                    "suite": _suite_sha(fingerprints),
                    "cells": len(fingerprints)}
        completed: dict[int, tuple] = {}
        kept: list[bytes] = []
        try:
            lines = self.path.read_bytes().split(b"\n")
        except OSError:
            lines = []
        if lines and unseal(lines[0]) == (manifest, []):
            for line in lines[1:]:
                entry = self._parse_cell(line, fingerprints)
                if entry is None:
                    break  # torn/corrupt tail: drop it and stop
                idx, payload = entry
                completed[idx] = payload
                kept.append(line)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_bytes(b"\n".join([seal(manifest, [])] + kept) + b"\n")
        tmp.replace(self.path)
        self._fh = open(self.path, "ab")
        return completed

    def _parse_cell(self, line: bytes, fingerprints: list[str]):
        entry = unseal(line)
        if entry is None:
            return None
        fields, records = entry
        idx = fields.get("idx")
        if (fields.get("kind") != "cell" or not isinstance(idx, int)
                or not 0 <= idx < len(fingerprints)
                or fields.get("fp") != fingerprints[idx]):
            return None
        try:
            return idx, (records, float(fields["elapsed"]),
                         int(fields["events"]))
        except (KeyError, TypeError, ValueError):
            return None

    def record(self, idx: int, fingerprint: str, records: list[FlowRecord],
               elapsed: float, events: int) -> None:
        """Append one completed cell (flushed so a kill loses nothing)."""
        if self._fh is None:
            raise RuntimeError("call resume() before record()")
        fields = {"kind": "cell", "idx": int(idx), "fp": fingerprint,
                  "elapsed": float(elapsed), "events": int(events)}
        self._fh.write(seal(fields, records) + b"\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
