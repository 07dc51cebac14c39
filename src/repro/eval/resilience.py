"""Sweep runtime: the sealed record codec, the result cache, the
journal, and the worker pool re-exported.

Production-scale sweeps die for reasons that have nothing to do with
the cells themselves: a worker process OOM-killed mid-batch, one cell
wedging on a pathological parameter corner, a corrupt cache entry, the
whole run preempted halfway through a 10^4-cell grid.  This module is
what :class:`~repro.eval.parallel.ParallelRunner` stores every finished
cell with, and with the pool below it survives all four without
compromising the determinism contract:

* :func:`seal` / :func:`unseal` -- the one on-disk form of a record
  list, a binary sealed frame: a sha256 over the exact bytes stored,
  verified over the exact bytes read.  Inside the frame a short ASCII
  JSON header holds the caller's fields and each record's aggregates
  and MI row count; the records' monitor intervals follow as raw
  binary column blocks, so a read hashes, parses and copies no more
  than the data.  Reading one back validates every block in full
  inside :func:`unseal` but builds its
  :class:`~repro.netsim.sender.MonitorIntervalStats` rows only when
  something first reads them, so a cache hit or a journal resume read
  for its aggregates never builds them.  :func:`record_to_json` /
  :func:`record_from_json` spell one record's frame as a hex string.
  :func:`records_digest` is a cell's identity and does not depend on
  the stored form.
* :class:`ResultCache` -- the fingerprint-keyed, size-capped LRU
  directory of finished cells, one sealed frame per entry; an entry
  that does not unseal is quarantined and its cell recomputed.
* :class:`SweepCheckpoint` -- an append-only journal of completed
  cells, one sealed frame each, fingerprint-keyed so an interrupted
  grid resumes from exactly the cells it finished -- with the original
  records, wall time, and event counts, hence row-for-row identical
  digests to an uninterrupted run.

The pool every out-of-process sweep runs on -- :class:`ResilientPool`,
its :class:`RetryPolicy` and :func:`set_chaos_hook` -- lives in
:mod:`repro.pool`, which the rollout loop shares, and is re-exported
here.  Retry safety is a contract on the pool's task function: the one
the runner passes, ``repro.eval.parallel._execute_batch``, is a pure
function of its seeded scenarios writing to a fingerprint-keyed store,
and the kill-schedule property (killed-and-retried == serial digests)
is its proof.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections.abc import Sequence
from dataclasses import fields as dataclass_fields
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

from repro.config import result_cache_dir
from repro.eval.scenarios import SCENARIO_CACHE_VERSION
from repro.netsim.network import FlowRecord
from repro.netsim.sender import MonitorIntervalStats
# Re-exported: the perf ledger and the tests import the pool from here.
from repro.pool import ResilientPool, RetryPolicy, set_chaos_hook

__all__ = ["ResilientPool", "ResultCache", "RetryPolicy", "SweepCheckpoint",
           "record_from_json", "record_to_json", "records_digest", "seal",
           "set_chaos_hook", "unseal"]

# --- record codec -------------------------------------------------------------
# Shared by the result cache, the checkpoint journal, and the digest
# helpers.
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


def _block_size(rows) -> int:
    """Bytes in the packed block of ``rows`` MIs; ``ValueError`` for a
    ``rows`` that is not a count."""
    if type(rows) is not int or rows < 0:
        raise ValueError(f"MI row count {rows!r} is not a count")
    return 8 * rows * len(MI_FIELDS) + (rows + 7) // 8 * len(_OPTIONAL_AT)


def _packed(record: FlowRecord) -> tuple[dict, int, bytes]:
    """``(aggregates, rows, block)``: a record's aggregates as JSON
    values by name, and its MI history as ``rows`` and one little-endian
    binary block -- every ``int`` column as ``rows`` int64, then every
    ``float`` column as ``rows`` float64, then per optional column a
    bitmap (``ceil(rows / 8)`` bytes, bit ``r`` of the little-endian
    number) of the rows that hold ``None``.  Values are stored as their
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
    return ({name: getattr(record, name) for name in RECORD_FIELDS}, rows,
            block + gaps)


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

    :func:`_history` validates the block before it builds one, so
    unpacking cannot fail: it runs once, then the bytes go.  A cache
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


def _history(rows, block: bytes) -> _PackedHistory:
    """The history of ``rows`` MIs packed in ``block``, checked in full;
    ``ValueError`` for a row count, block length or ``None`` bit that
    :func:`_packed` does not write.

    Every read of a stored record runs its checks here, so a bad entry
    fails inside :func:`unseal`; the MI rows themselves are built when
    first read (:class:`_PackedHistory`)."""
    if len(block) != _block_size(rows):
        raise ValueError("packed MI block disagrees with its row count")
    if any(mask >> rows for mask in _gap_masks(block, rows)):
        raise ValueError("a None row beyond the last MI")
    return _PackedHistory(rows, block)


def record_to_json(record: FlowRecord) -> str:
    """A record as one JSON value: the hex of ``seal({}, [record])``."""
    return seal({}, [record]).hex()


def record_from_json(payload: str) -> FlowRecord:
    """Exact inverse of :func:`record_to_json`; ``ValueError`` for
    anything it did not write."""
    sealed = unseal(bytes.fromhex(payload))
    if sealed is None or sealed[0] or len(sealed[1]) != 1:
        raise ValueError("not one record's sealed frame")
    return sealed[1][0]


def records_digest(records: list[FlowRecord]) -> str:
    """Content digest of a cell's records (order- and bit-sensitive).

    A cell's *identity*, not its stored form: the canonical listing
    hashed here -- aggregates by name, one value row per MI -- is
    private to this function and is what the goldens and the ledger's
    ``expected.json`` pin, whatever :func:`seal` packs.
    """
    canonical = []
    for record in records:
        listing = {name: getattr(record, name) for name in RECORD_FIELDS}
        listing[_HISTORY] = list(map(_MI_ROW, getattr(record, _HISTORY)))
        canonical.append(listing)
    body = json.dumps(canonical, sort_keys=True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# A sealed frame is ``u32 body length | sha256(body) | body``, and its
# body ``u32 header length | header | blocks``: the header is ASCII JSON
# ``[fields, [record head, ...]]``, a record head being its aggregates
# by name plus its MI row count under ``_HISTORY``, and the blocks are
# the records' packed MI blocks back to back, in record order, each as
# long as its row count says.  Integers are little-endian.  The sha
# covers the body as stored, so it is never re-serialised to be checked.
_LEN = 4  # bytes in a length prefix
_BODY_AT = _LEN + 32
#: The header's one parser: :func:`seal` writes it as ASCII, so it is
#: read as text, with no encoding detection and no per-call decoder.
_decode_header = json.JSONDecoder().decode


def _framed(body: bytes) -> bytes:
    return b"".join([len(body).to_bytes(_LEN, "little"),
                     hashlib.sha256(body).digest(), body])


def seal(fields: dict, records: list[FlowRecord]) -> bytes:
    """One frame holding ``fields`` and ``records`` under a sha256 of
    its body; a cache entry is one, a journal is several back to back."""
    heads, blocks = [], []
    for record in records:
        head, rows, block = _packed(record)
        head[_HISTORY] = rows
        heads.append(head)
        blocks.append(block)
    header = json.dumps([fields, heads]).encode("ascii")
    return _framed(b"".join(
        [len(header).to_bytes(_LEN, "little"), header, *blocks]))


def unseal(frame: bytes) -> tuple[dict, list[FlowRecord]] | None:
    """``(fields, records)`` of a frame :func:`seal` wrote, or ``None``
    for anything else: any flipped, missing or added byte fails, and so
    does a body whose blocks disagree with the row counts in its header
    or that holds a byte after its last block.  The header is decoded
    as ASCII text by :data:`_decode_header`; a byte :func:`seal` does
    not write there fails like any other."""
    # Offsets into the frame itself: the body is hashed through a view
    # and never copied whole, only each block is (into its own bytes).
    if (int.from_bytes(frame[:_LEN], "little") != len(frame) - _BODY_AT
            or hashlib.sha256(memoryview(frame)[_BODY_AT:]).digest()
            != frame[_LEN:_BODY_AT]):
        return None
    header_at = _BODY_AT + _LEN
    at = header_at + int.from_bytes(frame[_BODY_AT:header_at], "little")
    try:
        fields, heads = _decode_header(frame[header_at:at].decode("ascii"))
        if not isinstance(fields, dict):
            return None
        records = []
        for head in heads:
            rows = head[_HISTORY]
            block = frame[at:at + _block_size(rows)]
            at += len(block)
            head[_HISTORY] = _history(rows, block)
            records.append(FlowRecord(**head))
    except (ValueError, KeyError, TypeError):
        return None
    if at != len(frame):
        return None  # bytes after the last block, or a header past the end
    return fields, records


def _frames(data: bytes) -> list[bytes]:
    """``data`` cut where each frame's length prefix says it ends: a
    journal's frames, the last one possibly torn (it does not unseal)."""
    frames, at = [], 0
    while at < len(data):
        end = at + _BODY_AT + int.from_bytes(data[at:at + _LEN], "little")
        frames.append(data[at:end])
        at = end
    return frames


# --- result cache -------------------------------------------------------------

#: Size cap of a :class:`ResultCache` directory, bytes.  Long-lived
#: sweep machines accumulate entries across many suites; without a cap
#: the directory grows without bound.
_CACHE_MAX_BYTES = 2048 * 10**6


class ResultCache:
    """Fingerprint-keyed store of finished scenario results, one
    :func:`seal`-ed ``<fingerprint>.json`` each.

    The default location is
    :func:`repro.config.result_cache_dir` (``repro/eval/_cache`` next
    to the model cache unless ``REPRO_RESULT_CACHE`` relocates it).

    The store is a size-capped LRU: ``get`` touches the entry's mtime,
    ``put`` evicts oldest-touched entries once the directory exceeds
    :data:`_CACHE_MAX_BYTES`.  ``prune()`` is the explicit entry point
    for maintenance jobs.

    A warm sweep is a ``get`` per cell, so an entry is named by a
    ``str`` path joined once from the directory and read and written
    through raw file descriptors: a hit is one ``open``, ``fstat``,
    ``read`` and ``close``, the checks :func:`unseal` makes, and the
    touch.  ``cache_dir`` stays a :class:`~pathlib.Path` for the
    directory-wide scans.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self.cache_dir = Path(cache_dir or result_cache_dir())
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._prefix = os.path.join(self.cache_dir, "")
        #: Running size estimate so put() only pays a directory scan
        #: when the cap is actually threatened (None = not yet known).
        self._approx_bytes: int | None = None

    def _path(self, fingerprint: str) -> str:
        return f"{self._prefix}{fingerprint}.json"

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside so its cell is recomputed.

        The entry is renamed to ``<fingerprint>.quarantined`` -- out of
        the ``*.json`` namespace, so it is never read again and never
        counts against the size cap, but stays inspectable for
        debugging.  ``clear()`` removes quarantined files too.  Racing
        removals are fine: the outcome either way is a cache miss.
        """
        try:
            os.replace(path, path.removesuffix(".json") + ".quarantined")
        except OSError:
            pass

    def get(self, fingerprint: str) -> list[FlowRecord] | None:
        path = self._path(fingerprint)
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return None  # absent or unreadable: a plain miss
        try:
            # One byte past the size: a file that grew since fstat
            # reads longer than its frame and fails unseal.
            frame = os.read(fd, os.fstat(fd).st_size + 1)
        except OSError:
            return None  # e.g. a directory where the entry should be
        finally:
            os.close(fd)
        # An entry that is there but does not unseal (torn write, bit
        # rot, concurrent truncation) is quarantined so the cell is
        # recomputed instead of serving corrupt records.
        entry = unseal(frame)
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
        tmp = f"{self._prefix}{fingerprint}.{os.getpid()}.tmp"
        frame = seal({"version": SCENARIO_CACHE_VERSION, "name": name},
                     records)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            unwritten = memoryview(frame)
            while unwritten:  # a write may be short
                unwritten = unwritten[os.write(fd, unwritten):]
        finally:
            os.close(fd)
        try:
            os.replace(tmp, path)
        except FileNotFoundError:
            return  # a concurrent clear() took the staged file with it
        except IsADirectoryError:
            # A directory holds the entry's name: get() reads it as a
            # miss, so the cell stays uncached.
            os.unlink(tmp)
            return
        # Amortized eviction: keep a running size estimate and only pay
        # the full directory scan once it crosses the cap (an overwrite
        # counts its size twice, which merely prunes a touch early --
        # prune() re-measures exactly).
        try:
            if self._approx_bytes is None:
                total = 0
                for p in sorted(self.cache_dir.glob("*.json")):
                    total += p.stat().st_size
                self._approx_bytes = total
            else:
                self._approx_bytes += len(frame)
        except OSError:
            # A concurrent prune/clear raced the scan; the next put()
            # re-measures from scratch.
            self._approx_bytes = None
            return
        if self._approx_bytes > _CACHE_MAX_BYTES:
            self.prune()

    def prune(self) -> int:
        """Evict least-recently-used entries above the size cap;
        returns the number of entries removed."""
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
            if total <= _CACHE_MAX_BYTES:
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


# --- sweep checkpoint ---------------------------------------------------------


def _suite_sha(fingerprints: list[str]) -> str:
    return hashlib.sha256(
        json.dumps(list(fingerprints)).encode("utf-8")).hexdigest()[:16]


class SweepCheckpoint:
    """Append-only journal of a sweep's completed cells, one
    :func:`seal`-ed frame each, back to back.

    Frame 0 is a manifest binding the journal to one suite (the ordered
    cell fingerprints) and one cache version; every following frame is
    a completed cell -- index, fingerprint, records, wall time, event
    count.  :meth:`resume` validates the chain and returns the
    completed cells; a manifest mismatch (different suite, changed
    code) starts the journal over, and a corrupt or torn tail is
    dropped (the journal is rewritten up to the last intact frame)
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
            frames = _frames(self.path.read_bytes())
        except OSError:
            frames = []
        if frames and unseal(frames[0]) == (manifest, []):
            for frame in frames[1:]:
                entry = self._parse_cell(frame, fingerprints)
                if entry is None:
                    break  # torn/corrupt tail: drop it and stop
                idx, payload = entry
                completed[idx] = payload
                kept.append(frame)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_bytes(b"".join([seal(manifest, [])] + kept))
        tmp.replace(self.path)
        self._fh = open(self.path, "ab")
        return completed

    def _parse_cell(self, frame: bytes, fingerprints: list[str]):
        entry = unseal(frame)
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
        self._fh.write(seal(fields, records))
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
