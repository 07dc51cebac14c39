"""Resilient sweep runtime: retries, crash recovery, checkpoints.

The layers of ``repro.eval.resilience``, one at a time:

* **RetryPolicy** -- an attempt budget and nothing else.
* **ResilientPool** -- crash/timeout recovery with the chaos hook:
  deterministic task exceptions are never retried, crashed workers
  are respawned and the task requeued within budget, exhausted
  budgets come back as error results.
* **seal / unseal** -- the one record codec, a binary sealed frame:
  damage at every byte offset is refused, by the codec and by both
  stores built on it, and so is a malformed frame under a valid sha --
  at read time, though the MI rows themselves are built only when
  first read.
* **SweepCheckpoint** -- journal round trips, manifest binding, and
  corruption handling (torn tails and tampered frames are dropped).
* **ParallelRunner integration** -- pool dispatch matches serial and
  survives a worker kill, a lone cell still leaves the parent when it
  needs a deadline or a retry, corrupt cache entries are quarantined
  and recomputed, and a killed-then-resumed sweep is row-for-row
  identical to an uninterrupted run.  Kills at arbitrary batches, and
  the resume after them, are the kill-schedule property's
  (``tests/test_sweep_kills.py``).
"""

import copy
import hashlib
import json
import math
import multiprocessing as mp
import os
import pickle
import struct
import tempfile
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

import repro.eval.resilience as resilience
import repro.pool as pool
from repro.eval.metrics import reward_of_record
from repro.eval.parallel import ParallelRunner, ScenarioError
from repro.eval.resilience import (
    ResilientPool,
    ResultCache,
    RetryPolicy,
    SweepCheckpoint,
    _framed,
    _frames,
    _packed,
    _suite_sha,
    _typed_fields,
    record_from_json,
    record_to_json,
    records_digest,
    seal,
    set_chaos_hook,
    unseal,
)
from repro.eval.runner import EvalNetwork
from repro.eval.scenarios import (
    SCENARIO_CACHE_VERSION,
    Scenario,
    ScenarioSuite,
)
from repro.netsim.network import FlowRecord
from repro.netsim.sender import MonitorIntervalStats
from repro.netsim.topology import dumbbell
from strategies import flow_records
from test_parallel_eval import cache_hits, cache_misses

NET = EvalNetwork(bandwidth_mbps=8.0, one_way_ms=10.0, buffer_bdp=1.0)

#: Four cells: small enough for CI, wide enough to span several pool
#: tasks.
SMALL = ScenarioSuite(name="resume", lineups=("cubic", "vegas"),
                      seeds=(0, 1), duration=1.0)


@pytest.fixture(autouse=True)
def _no_leaked_chaos_hook():
    yield
    set_chaos_hook(None)


# --- module-level task functions (forked into pool workers) -----------------


def _log_and_double(arg):
    value, log = arg
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    return value * 2


def _log_and_fail(arg):
    value, log = arg
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    raise ValueError(f"deterministic failure for {value}")


def _sleep_forever(arg):
    time.sleep(60.0)
    return arg


def _nap_or_sleep_forever(arg):
    """Positive values nap that long and return; the rest never do."""
    if arg > 0:
        time.sleep(arg)
        return arg
    time.sleep(60.0)


def idle_procs() -> set:
    """The processes of this process's idle pool workers."""
    return {worker.proc for worker in pool._IDLE}


def _kill_once(marker: Path):
    """Chaos hook: hard-kill the first worker that probes, then behave."""
    def hook(arg):
        if not marker.exists():
            marker.write_text("killed")
            os._exit(17)
    return hook


def _wedge(arg):
    """Chaos hook: the worker hangs before it starts its task."""
    time.sleep(60.0)


def _always_kill(target):
    """Chaos hook: hard-kill every worker handed ``target``."""
    def hook(arg):
        value = arg[0] if isinstance(arg, tuple) else arg
        if value == target:
            os._exit(17)
    return hook


def _kill_batch_once(marker: Path, target):
    """Chaos hook: kill the worker holding batch ``target``, once."""
    def hook(arg):
        if arg == target and not marker.exists():
            marker.write_text("killed")
            os._exit(17)
    return hook


class TestRetryPolicy:
    @pytest.mark.parametrize("bad", [
        dict(max_attempts=0),
        dict(max_attempts=-1),
        # The backoff knobs are gone: a crashed task is requeued at once.
        dict(backoff_s=0.1),
        dict(backoff_factor=2.0),
        dict(jitter_frac=0.1),
    ])
    def test_bad_policies_fail_at_construction(self, bad):
        assert [f.name for f in fields(RetryPolicy)] == ["max_attempts"]
        expected = ValueError if set(bad) == {"max_attempts"} else TypeError
        with pytest.raises(expected):
            RetryPolicy(**bad)


class TestResilientPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ResilientPool(0, _log_and_double)

    def test_empty_task_list_yields_nothing(self):
        pool = ResilientPool(2, _log_and_double)
        assert list(pool.execute([])) == []

    def test_happy_path_unordered_results(self, tmp_path):
        log = tmp_path / "log"
        pool = ResilientPool(2, _log_and_double)
        tasks = [(i, (i, str(log)), None) for i in range(6)]
        out = dict()
        for task_id, result, error in pool.execute(tasks):
            assert error is None
            out[task_id] = result
        assert out == {i: 2 * i for i in range(6)}
        assert sorted(log.read_text().split()) == [str(i) for i in range(6)]

    def test_deterministic_exception_is_never_retried(self, tmp_path):
        log = tmp_path / "log"
        pool = ResilientPool(1, _log_and_fail,
                             retry=RetryPolicy(max_attempts=3))
        [(task_id, result, error)] = list(
            pool.execute([(0, (7, str(log)), None)]))
        assert result is None
        assert "ValueError: deterministic failure for 7" in error
        # Exactly one attempt: a seeded cell that failed once fails
        # identically every time, so retrying would only burn time.
        assert log.read_text() == "7\n"

    def test_crashed_worker_respawned_and_task_retried(self, tmp_path):
        marker = tmp_path / "killed"
        log = tmp_path / "log"
        set_chaos_hook(_kill_once(marker))
        pool = ResilientPool(1, _log_and_double,
                             retry=RetryPolicy(max_attempts=3))
        out = dict()
        for task_id, result, error in pool.execute(
                [(i, (i, str(log)), None) for i in range(3)]):
            assert error is None, error
            out[task_id] = result
        assert out == {0: 0, 1: 2, 2: 4}
        assert marker.exists()  # the chaos kill actually fired

    def test_crash_budget_exhaustion_is_an_error_result(self, tmp_path):
        log = tmp_path / "log"
        set_chaos_hook(_always_kill(1))
        pool = ResilientPool(2, _log_and_double,
                             retry=RetryPolicy(max_attempts=2))
        results = {task_id: (result, error)
                   for task_id, result, error in pool.execute(
                       [(i, (i, str(log)), None) for i in range(3)])}
        assert results[0] == (0, None)
        assert results[2] == (4, None)
        result, error = results[1]
        assert result is None
        assert error.count("WorkerCrash") == 2  # both attempts recorded

    def test_timeout_kills_and_reports(self, tmp_path):
        pool = ResilientPool(1, _sleep_forever,
                             retry=RetryPolicy(max_attempts=1))
        t0 = time.perf_counter()
        [(task_id, result, error)] = list(
            pool.execute([(0, 0, 0.3)]))
        assert result is None
        assert "CellTimeout" in error and "0.300s" in error
        assert time.perf_counter() - t0 < 10.0  # killed, not waited out

    def test_early_close_reaps_a_respawned_worker(self, tmp_path):
        # Task 0's worker is killed once; its respawn picks task 0 up
        # again (and never finishes it) while task 1 is still napping.
        set_chaos_hook(_kill_batch_once(tmp_path / "killed", 0))
        pool = ResilientPool(2, _nap_or_sleep_forever)
        outcomes = pool.execute([(0, 0, None), (1, 0.4, None)])
        assert next(outcomes) == (1, 0.4, None)
        outcomes.close()
        assert (tmp_path / "killed").exists()
        # The respawn holding task 0 is gone; the worker that finished
        # task 1 is the one child left, idle for the next execute.
        assert set(mp.active_children()) == idle_procs()
        assert len(idle_procs()) == 1

    def test_early_close_terminates_inflight_workers_at_once(self):
        pool = ResilientPool(3, _nap_or_sleep_forever)
        outcomes = pool.execute([(0, 0.05, None), (1, 0, None), (2, 0, None)])
        assert next(outcomes) == (0, 0.05, None)
        t0 = time.perf_counter()
        outcomes.close()  # two workers mid-task: no grace period each
        assert time.perf_counter() - t0 < 1.0
        assert set(mp.active_children()) == idle_procs()
        assert len(idle_procs()) == 1


def _fake_mi(k: int, **changes) -> MonitorIntervalStats:
    """Every field set, each to a different value."""
    mi = MonitorIntervalStats(
        flow_id=k, start=0.5 * k, end=0.5 * k + 0.5, sent=40 + k,
        acked=38 + k, lost=2, mean_rtt=0.0625 + k, min_rtt=0.05 + k,
        latency_gradient=0.25 * k, capacity_pps=1000.0 + k, base_rtt=0.04,
        packet_bytes=1500, rate_pps=80.0 + k)
    return replace(mi, **changes)


def _fake_record(k: int, **changes) -> FlowRecord:
    record = FlowRecord(
        flow_id=k, scheme=f"scheme{k}", mean_throughput_pps=76.0 + k,
        mean_throughput_mbps=0.912 + k, mean_utilization=0.076,
        mean_rtt=0.0625 + k, base_rtt=0.04, loss_rate=0.05,
        records=[_fake_mi(k), _fake_mi(k + 1)])
    return replace(record, **changes)


def _stored(records: list) -> list:
    """What a cache hit or a journal resume hands back for ``records``."""
    sealed_fields, restored = unseal(seal({"name": "cell"}, records))
    assert sealed_fields == {"name": "cell"}
    return restored


def _damaged(frame: bytes, masks=(0x01, 0x20, 0x80)):
    """Every single-byte flip (by each of ``masks``) and every
    truncation."""
    for at in range(len(frame)):
        for mask in masks:
            yield frame[:at] + bytes([frame[at] ^ mask]) + frame[at + 1:]
        yield frame[:at]


def block_checks_hold(decode_record) -> None:
    """``decode_record`` (a ``record_from_json``) refuses a history
    whose row count, block length, hex spelling or ``None`` bits are
    not what ``record_to_json`` writes."""
    payload = record_to_json(_fake_record(1))
    assert decode_record(payload) == _fake_record(1)
    rows, packed = payload["records"]
    assert rows == 2

    def decode(history):
        return decode_record({**payload, "records": history})

    for wrong in (1, 3, -2, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="row count"):
            decode([wrong, packed])
    with pytest.raises(ValueError, match="row count"):
        decode([rows, packed[:-4]])
    with pytest.raises(ValueError):  # strict hex: no stray bytes
        decode([rows, packed + "\n"])
    # The last two bytes are the None bitmaps of mean_rtt / min_rtt,
    # one byte each for two rows: bit 2 names a row that is not there.
    block = bytes.fromhex(packed)
    assert block[-2:] == b"\0\0"
    assert decode([rows, (block[:-1] + b"\2").hex()]) \
        .records[1].min_rtt is None
    with pytest.raises(ValueError, match="beyond the last MI"):
        decode([rows, (block[:-1] + b"\4").hex()])
    # Two v10 MI rows are not a [count, hex] pair either.
    with pytest.raises(ValueError, match="row count"):
        decode([[0.0] * 13, [1.0] * 13])


class _BuildCount:
    """How many ``MonitorIntervalStats`` ``repro.eval.resilience``
    builds from the moment this is made to the end of the test."""

    def __init__(self, monkeypatch):
        self.n = 0
        real = resilience.MonitorIntervalStats

        def counted(*args):
            self.n += 1
            return real(*args)

        monkeypatch.setattr(resilience, "MonitorIntervalStats", counted)


class TestSealedCodec:
    FIELDS = {"version": SCENARIO_CACHE_VERSION, "name": "cell"}

    def test_round_trip_and_layout(self):
        cell = [_fake_record(1), _fake_record(2)]
        frame = seal(self.FIELDS, cell)
        fields, records = unseal(frame)
        assert fields == self.FIELDS
        assert records_digest(records) == records_digest(cell)
        # Body length and sha256, then the header's length, the header
        # and the two blocks, raw, in record order.
        body = frame[resilience._BODY_AT:]
        assert frame == _framed(body)
        at = 4 + int.from_bytes(body[:4], "little")
        assert json.loads(body[4:at]) == [self.FIELDS, [
            {**_packed(r)[0], "records": 2} for r in cell]]
        assert body[at:] == b"".join(_packed(r)[2] for r in cell)
        # The checksum covers the stored bytes themselves: the header
        # spelled differently is not the sealed frame.
        assert unseal(frame.replace(b", ", b",")) is None

    def test_damage_at_every_offset_is_refused(self):
        frame = seal(self.FIELDS, [_fake_record(1)])
        assert all(unseal(bad) is None for bad in _damaged(frame))
        assert unseal(frame + b"\0") is None

    # Fewer examples than the round trip (TestStoredValues): each one
    # unseals every flip and every cut of its frame.
    @settings(max_examples=40, deadline=None)
    @given(st.lists(flow_records(), max_size=3), st.integers(1, 255))
    def test_any_damage_to_any_cell_is_refused(self, cell, mask):
        frame = seal(self.FIELDS, cell)
        for bad in _damaged(frame, masks=(mask,)):
            assert unseal(bad) is None
        assert unseal(frame + bytes([mask])) is None

    def test_a_block_that_disagrees_with_its_row_count_is_refused(self):
        block_checks_hold(record_from_json)

    def test_result_cache_quarantines_damage_at_every_offset(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "f" * 64
        path = Path(cache._path(key))
        for bad in _damaged(seal(self.FIELDS, [_fake_record(1)])):
            path.write_bytes(bad)
            assert cache.get(key) is None
            assert not path.exists()  # moved aside, never read again
            path.with_suffix(".quarantined").unlink()
        # A miss is recomputed and re-put: the key serves again.
        cache.put(key, "cell", [_fake_record(1)])
        assert records_digest(cache.get(key)) == records_digest(
            [_fake_record(1)])

    def test_journal_drops_damage_at_every_offset_and_its_tail(self, tmp_path):
        fps = ["fp0", "fp1", "fp2"]
        path = tmp_path / "j.jsonl"
        ck = SweepCheckpoint(path)
        ck.resume(fps)
        for idx, fp in enumerate(fps):
            ck.record(idx, fp, [_fake_record(idx)], 0.5, 10)
        ck.close()
        manifest, first, middle, last = _frames(path.read_bytes())
        assert unseal(middle) is not None
        # (An empty middle is no damage: it leaves an intact journal
        # without cell 1.)
        for bad in filter(None, _damaged(middle)):
            path.write_bytes(manifest + first + bad + last)
            ck = SweepCheckpoint(path)
            assert set(ck.resume(fps)) == {0}
            ck.close()
            assert path.read_bytes() == manifest + first
        # A final frame torn anywhere is dropped alone.
        for cut in range(len(last)):
            path.write_bytes(manifest + first + middle + last[:cut])
            ck = SweepCheckpoint(path)
            assert set(ck.resume(fps)) == {0, 1}
            ck.close()
            assert path.read_bytes() == manifest + first + middle


def _v12_is_intact(line: bytes) -> bool:
    """``line`` is a v12 sealed line whose sha matches its body."""
    body = line[len(b'{"sha":"","sealed":') + 64:-1]
    return line == b'{"sha":"%b","sealed":%b}' % (
        hashlib.sha256(body).hexdigest().encode("ascii"), body)


#: A cache entry as cache v12's ``seal`` wrote it, byte for byte: one
#: JSON line, ``PINNED_RECORD`` with its block in hex.
V12_ENTRY = (
    b'{"sha":"17e2886474dbe00259318b903eca4b8a517b61c29a7c2f420e6f1dd65ff1c8bf'
    b'","sealed":[{"version": "v12", "name": "cell"}, [{"flow_id": 1, "scheme"'
    b': "scheme1", "mean_throughput_pps": 77.0, "mean_throughput_mbps": 1.912,'
    b' "mean_utilization": 0.076, "mean_rtt": 1.0625, "base_rtt": 0.04, "loss_'
    b'rate": 0.05, "records": [2, "0100000000000000020000000000000029000000000'
    b'000002a00000000000000270000000000000028000000000000000200000000000000020'
    b'0000000000000dc05000000000000dc05000000000000000000000000e03f00000000000'
    b'0f03f000000000000f03f000000000000f83f000000000000f13f0000000000800040cdc'
    b'cccccccccf03f0000000000000000000000000000d03f000000000000e03f00000000004'
    b'88f400000000000508f407b14ae47e17aa43f7b14ae47e17aa43f0000000000405440000'
    b'00000008054400002"]}]]}')
#: A v12 journal's manifest line, for ``["fp0", "fp1", "fp2"]``.
V12_MANIFEST = (
    b'{"sha":"0869d71e33056cf852ca77b8b91f6afdf8dbf58302edf6d45d815b9518a85450'
    b'","sealed":[{"kind": "manifest", "version": "v12", "suite": "b8e741f4ff4'
    b'0d061", "cells": 3}, []]}')
#: The same entry as cache v13's ``seal`` writes it: one frame.  A
#: change to the stored bytes has to change this literal.
V13_ENTRY = (
    bytes.fromhex("bf010000"  # body length
                  "7e387dff9e635872d6f8a11021e51a79"  # sha256(body)
                  "9c7c1a3c4d6b0574ad36ad950d99da3f"
                  "e9000000")  # header length
    + b'[{"version": "v13", "name": "cell"}, [{"flow_id": 1, "scheme": "sch'
    b'eme1", "mean_throughput_pps": 77.0, "mean_throughput_mbps": 1.912, "mea'
    b'n_utilization": 0.076, "mean_rtt": 1.0625, "base_rtt": 0.04, "loss_rate'
    b'": 0.05, "records": 2}]]'
    + bytes.fromhex(  # the MI block
        "0100000000000000020000000000000029000000000000002a0000000000000027"
        "00000000000000280000000000000002000000000000000200000000000000dc05"
        "000000000000dc05000000000000000000000000e03f000000000000f03f000000"
        "000000f03f000000000000f83f000000000000f13f0000000000800040cdcccccc"
        "ccccf03f0000000000000000000000000000d03f000000000000e03f0000000000"
        "488f400000000000508f407b14ae47e17aa43f7b14ae47e17aa43f000000000040"
        "544000000000008054400002"))
#: ``_fake_record(1)`` with its second MI's ``min_rtt`` absent.
PINNED_RECORD = _fake_record(1, records=[_fake_mi(1), _fake_mi(2, min_rtt=None)])


def _malformed_frames(fields: dict) -> dict:
    """``id: frame`` holding ``fields``, ``_fake_record(1)`` and
    ``_fake_record(2)`` under a valid sha, each broken in a way only
    reading past the sha can see."""
    packed = [_packed(_fake_record(k)) for k in (1, 2)]
    heads = [{**head, "records": rows} for head, rows, _ in packed]
    first, second = (block for _, _, block in packed)

    def framed(heads=heads, blocks=(first, second), past_the_end=0):
        header = json.dumps([fields, heads]).encode("ascii")
        return _framed((len(header) + past_the_end).to_bytes(4, "little")
                       + header + b"".join(blocks))

    return {
        "one-byte-long": framed(blocks=(first + b"\0", second)),
        "one-byte-short": framed(blocks=(first, second[:-1])),
        "header-length-past-the-end": framed(
            past_the_end=len(first) + len(second) + 1),
        "trailing-byte": framed(blocks=(first, second, b"\0")),
        # Bit 2 of min_rtt's bitmap: a third row, of two.
        "none-bit-beyond-rows": framed(blocks=(first, second[:-1] + b"\4")),
        "row-count-not-an-int": framed(heads=[{**heads[0], "records": 2.0},
                                              heads[1]]),
        "negative-row-count": framed(heads=[{**heads[0], "records": -2},
                                            heads[1]]),
    }


def unseal_refuses(unseal_frame, bad: str) -> None:
    """``unseal_frame`` refuses the ``bad`` malformed frame, before
    building any row."""
    frame = _malformed_frames({})[bad]
    assert frame == _framed(frame[resilience._BODY_AT:])  # sha intact
    with pytest.MonkeyPatch.context() as patch:
        built = _BuildCount(patch)
        assert unseal_frame(frame) is None
    assert built.n == 0


class TestChecksStayAtReadTime:
    """A malformed frame under a valid sha is refused inside ``unseal``
    -- by the cache and the journal alike -- before any row is built,
    though rows themselves are built on first read."""

    BAD = sorted(_malformed_frames({}))
    CACHE = TestSealedCodec.FIELDS

    @pytest.mark.parametrize("bad", BAD)
    def test_unseal_refuses(self, bad):
        unseal_refuses(unseal, bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_result_cache_quarantines(self, bad, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        key = "f" * 64
        Path(cache._path(key)).write_bytes(_malformed_frames(self.CACHE)[bad])
        built = _BuildCount(monkeypatch)
        assert cache.get(key) is None
        assert Path(cache._path(key)).with_suffix(".quarantined").exists()
        assert built.n == 0

    @pytest.mark.parametrize("bad", BAD)
    def test_journal_resume_cuts_the_tail(self, bad, tmp_path, monkeypatch):
        fps = ["fp0", "fp1", "fp2"]
        path = tmp_path / "j.jsonl"
        ck = SweepCheckpoint(path)
        ck.resume(fps)
        ck.record(0, "fp0", [_fake_record(0)], 0.5, 10)
        ck.close()
        intact = path.read_bytes()
        cell = {"kind": "cell", "idx": 1, "fp": "fp1", "elapsed": 0.5,
                "events": 10}
        last = seal({**cell, "idx": 2, "fp": "fp2"}, [_fake_record(2)])
        path.write_bytes(intact + _malformed_frames(cell)[bad] + last)
        built = _BuildCount(monkeypatch)
        ck = SweepCheckpoint(path)
        assert set(ck.resume(fps)) == {0}
        ck.close()
        assert path.read_bytes() == intact
        assert built.n == 0

    def test_the_stored_bytes_are_pinned_and_served(self, tmp_path):
        assert seal(self.CACHE, [PINNED_RECORD]) == V13_ENTRY  # same bytes
        cache = ResultCache(tmp_path)
        Path(cache._path("e" * 64)).write_bytes(V13_ENTRY)
        (served,) = cache.get("e" * 64)
        assert served == PINNED_RECORD and served.records[1].min_rtt is None
        assert records_digest([served]) == records_digest([PINNED_RECORD])

    def test_a_v12_entry_is_quarantined_then_served_after_a_re_put(
            self, tmp_path):
        # Intact under its own sha, but a JSON line, not a frame: None,
        # not an exception.
        assert _v12_is_intact(V12_ENTRY)
        assert unseal(V12_ENTRY) is None
        cache = ResultCache(tmp_path)
        key = "e" * 64
        path = Path(cache._path(key))
        path.write_bytes(V12_ENTRY)
        assert cache.get(key) is None
        assert not path.exists()
        assert path.with_suffix(".quarantined").read_bytes() == V12_ENTRY
        # The miss is recomputed and re-put in the v13 form.
        cache.put(key, "cell", [PINNED_RECORD])
        assert path.read_bytes() == V13_ENTRY
        (served,) = cache.get(key)
        assert served == PINNED_RECORD


class TestDeferredHistory:
    """A decoded record's history behaves as the list it was."""

    @staticmethod
    def _decoded(record=PINNED_RECORD) -> FlowRecord:
        """``record`` as a cache hit hands it back: rows not yet read."""
        (decoded,) = unseal(seal({}, [record]))[1]
        return decoded

    def test_equal_to_lists_either_way_round(self):
        rows = list(PINNED_RECORD.records)
        assert self._decoded().records == rows
        assert rows == self._decoded().records
        assert self._decoded().records == self._decoded().records
        assert self._decoded() == PINNED_RECORD
        assert PINNED_RECORD == self._decoded()
        assert self._decoded().records != rows[:1]
        assert rows[::-1] != self._decoded().records
        assert self._decoded() != _fake_record(1)
        assert self._decoded().records != tuple(rows)

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_and_deepcopy_round_trips(self, read_first):
        for copy_of in (lambda r: pickle.loads(pickle.dumps(r)),
                        copy.deepcopy):
            decoded = self._decoded()
            if read_first:
                list(decoded.records)
            copied = copy_of(decoded)
            assert type(copied.records) is type(decoded.records)
            assert copied == decoded == PINNED_RECORD

    def test_stored_form_and_digest_are_unchanged_by_a_read(self):
        payload = record_to_json(PINNED_RECORD)
        assert record_to_json(record_from_json(payload)) == payload
        decoded = self._decoded()
        before = records_digest([decoded])  # iterates: the first read
        assert records_digest([decoded]) == before == \
            records_digest([PINNED_RECORD])
        assert record_to_json(decoded) == payload

    def test_sequence_surface(self, monkeypatch):
        decoded = self._decoded()
        empty = self._decoded(_fake_record(3, records=[]))
        built = _BuildCount(monkeypatch)
        history = decoded.records
        assert len(history) == 2 and history and not empty.records
        assert len(empty.records) == 0 and empty.records == []
        assert built.n == 0  # length and truth come from the row count
        assert history[-1] == PINNED_RECORD.records[-1]
        assert built.n == 2
        assert history[:1] == PINNED_RECORD.records[:1]
        assert history[::-1] == PINNED_RECORD.records[::-1]
        first, again = list(history), list(history)
        assert first == again == PINNED_RECORD.records
        assert all(a is b for a, b in zip(first, again))
        assert PINNED_RECORD.records[0] in history
        assert built.n == 2  # unpacked once, whatever reads it
        with pytest.raises(IndexError):
            history[2]

    def test_a_warm_sweep_builds_rows_only_when_they_are_read(
            self, tmp_path, monkeypatch):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        cold = runner.run(SMALL)
        built = _BuildCount(monkeypatch)
        warm = runner.run(SMALL)
        assert cache_hits(warm) == len(warm) == 4
        assert warm.table == [{**row, "cached": True, "events": 0,
                               "wall_s": 0.0} for row in cold.table]
        assert built.n == 0
        record = warm.results[0].records[0]
        weights = (0.6, 0.3, 0.1)
        assert reward_of_record(record, weights) == \
            reward_of_record(cold.results[0].records[0], weights)
        assert built.n == len(record.records) > 0
        reward_of_record(record, weights)
        assert built.n == len(record.records)
        assert [records_digest(r.records) for r in warm] == \
            [records_digest(r.records) for r in cold]


#: Every field of both stored classes, with its resolved annotation.
STORED_FIELDS = [(cls, f.name, get_type_hints(cls)[f.name])
                 for cls in (FlowRecord, MonitorIntervalStats)
                 for f in fields(cls)]
#: A value of each stored type that no fake holds.
OTHER_VALUE = {int: 7_000_000_000, float: -0.0078125, str: "other",
               float | None: None,
               list[MonitorIntervalStats]: [_fake_mi(9)]}


def _with(cls, name, value) -> FlowRecord:
    """``_fake_record(1)`` with one field of ``cls`` set to ``value``."""
    if cls is FlowRecord:
        return _fake_record(1, **{name: value})
    return _fake_record(1, records=[_fake_mi(1), _fake_mi(2, **{name: value})])


class TestStoredFields:
    """What is stored is derived from the dataclasses, not listed."""

    @pytest.mark.parametrize(
        "cls, name, hint", STORED_FIELDS,
        ids=[f"{cls.__name__}.{name}" for cls, name, _ in STORED_FIELDS])
    def test_every_field_is_stored(self, cls, name, hint):
        record = _with(cls, name, OTHER_VALUE[hint])
        assert record != _fake_record(1)
        assert _stored([record]) == [record]

    @pytest.mark.parametrize("cls", [FlowRecord, MonitorIntervalStats])
    def test_a_subclass_with_an_extra_field_is_refused_not_truncated(
            self, cls):
        @dataclass
        class Wider(cls):
            extra: float = 1.0

        base = _fake_record(1) if cls is FlowRecord else _fake_mi(1)
        wider = Wider(**{f.name: getattr(base, f.name) for f in fields(cls)})
        record = (wider if cls is FlowRecord
                  else _fake_record(1, records=[_fake_mi(0), wider]))
        with pytest.raises(TypeError, match="subclass"):
            seal({}, [record])

    def test_a_field_without_a_stored_form_fails_at_import(self):
        @dataclass
        class Tagged(MonitorIntervalStats):
            tag: bytes = b""

        # What the module runs over both classes when it is imported.
        with pytest.raises(TypeError, match="Tagged.tag"):
            _typed_fields(Tagged, (int, float, float | None))


class TestStoredValues:
    """Bit-for-bit: nothing is rounded, wrapped or mistaken for absent."""

    @pytest.mark.parametrize("column", ["mean_rtt", "min_rtt"])
    def test_none_and_nan_never_trade_places(self, column):
        # Eleven rows: the None bitmap spans two bytes.
        special = {0: None, 1: math.nan, 8: None, 10: None}
        record = _fake_record(0, records=[
            _fake_mi(k, **({column: special[k]} if k in special else {}))
            for k in range(11)])
        (restored,) = _stored([record])
        for k, mi in enumerate(restored.records):
            got = getattr(mi, column)
            if k not in special:
                assert got == getattr(_fake_mi(k), column)
            elif special[k] is None:
                assert got is None
            else:
                assert math.isnan(got)
        assert records_digest([restored]) == records_digest([record])
        # The other optional column is untouched by this one's gaps.
        other = ({"mean_rtt", "min_rtt"} - {column}).pop()
        assert [getattr(mi, other) for mi in restored.records] == \
            [getattr(mi, other) for mi in record.records]

    @pytest.mark.parametrize("value", [
        -0.0, 5e-324, -2.225e-308 / 4, math.inf, -math.inf, math.nan,
        1.7976931348623157e308])
    def test_float_edge_values_keep_their_bits(self, value):
        record = _fake_record(
            0, loss_rate=value,
            records=[_fake_mi(0, latency_gradient=value, min_rtt=value)])
        (restored,) = _stored([record])
        (mi,) = restored.records
        for got in (restored.loss_rate, mi.latency_gradient, mi.min_rtt):
            assert struct.pack("<d", got) == struct.pack("<d", value)
        assert records_digest([restored]) == records_digest([record])

    @pytest.mark.parametrize("value", [
        2**31, -2**31 - 1, 2**53 + 1, 2**63 - 1, -2**63])
    def test_wide_ints_are_not_wrapped(self, value):
        record = _fake_record(0, records=[_fake_mi(0, sent=value)])
        assert _stored([record]) == [record]
        assert type(_stored([record])[0].records[0].sent) is int

    def test_an_int_too_wide_for_its_column_is_refused_at_seal(self):
        with pytest.raises(struct.error):
            seal({}, [_fake_record(0, records=[_fake_mi(0, sent=2**63)])])

    def test_empty_history(self):
        record = _fake_record(3, records=[])
        assert record_to_json(record)["records"] == [0, ""]
        assert _stored([record]) == [record]
        assert _stored([]) == []

    @settings(deadline=None)
    @given(st.lists(flow_records(), max_size=3))
    def test_any_cell_keeps_its_digest(self, cell):
        frame = seal({"name": "cell"}, cell)
        with pytest.MonkeyPatch.context() as patch:
            built = _BuildCount(patch)
            fields, restored = unseal(frame)
            assert built.n == 0
        assert fields == {"name": "cell"}
        # Equal field by field and row by row; repr, so NaN equals NaN.
        assert repr([(r, list(r.records)) for r in restored]) == \
            repr([(r, r.records) for r in cell])
        assert records_digest(restored) == records_digest(cell)
        # The JSON spelling survives the JSON the ledger's codec probe
        # passes it through.
        payloads = json.loads(json.dumps([record_to_json(r) for r in cell]))
        assert records_digest([record_from_json(p) for p in payloads]) == \
            records_digest(cell)


class TestSweepCheckpoint:
    FPS = ["fp0", "fp1", "fp2"]

    def test_record_requires_resume(self, tmp_path):
        ck = SweepCheckpoint(tmp_path / "j.jsonl")
        with pytest.raises(RuntimeError, match="resume"):
            ck.record(0, "fp0", [], 0.1, 1)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ck = SweepCheckpoint(path)
        assert ck.resume(self.FPS) == {}
        ck.record(1, "fp1", [_fake_record(4)], 1.25, 777)
        ck.close()
        restored = SweepCheckpoint(path).resume(self.FPS)
        assert set(restored) == {1}
        records, elapsed, events = restored[1]
        assert (elapsed, events) == (1.25, 777)
        assert [record_to_json(r) for r in records] == [
            record_to_json(_fake_record(4))]

    def test_manifest_mismatch_resets_the_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ck = SweepCheckpoint(path)
        ck.resume(self.FPS)
        ck.record(0, "fp0", [_fake_record(0)], 0.5, 10)
        ck.close()
        # A different suite: the old cells must not leak into it...
        assert SweepCheckpoint(path).resume(["other0", "other1"]) == {}
        # ...and the reset is destructive: the original suite now
        # starts over too (the journal was rebound).
        assert SweepCheckpoint(path).resume(self.FPS) == {}

    def test_a_v12_journal_resets_through_the_manifest(self, tmp_path):
        path = tmp_path / "j.jsonl"
        # Its manifest line, then a sealed v12 line in the cell's place.
        path.write_bytes(V12_MANIFEST + b"\n" + V12_ENTRY + b"\n")
        assert _v12_is_intact(V12_MANIFEST)
        assert json.loads(V12_MANIFEST)["sealed"][0]["suite"] == \
            _suite_sha(self.FPS)
        assert unseal(V12_MANIFEST) is None
        assert SweepCheckpoint(path).resume(self.FPS) == {}
        (manifest,) = _frames(path.read_bytes())
        assert unseal(manifest)[0]["version"] == SCENARIO_CACHE_VERSION

    def test_torn_tail_is_dropped_and_rewritten(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ck = SweepCheckpoint(path)
        ck.resume(self.FPS)
        ck.record(0, "fp0", [_fake_record(0)], 0.5, 10)
        ck.record(1, "fp1", [_fake_record(1)], 0.6, 20)
        ck.close()
        intact = path.read_bytes()
        torn = seal({"kind": "cell", "idx": 2, "fp": "fp2", "elapsed": 0.7,
                     "events": 30}, [_fake_record(2)])[:-40]
        with open(path, "ab") as fh:
            fh.write(torn)  # killed mid-write: the frame stops short
        restored = SweepCheckpoint(path).resume(self.FPS)
        assert set(restored) == {0, 1}
        assert path.read_bytes() == intact  # tail rewritten away

    def test_tampered_frame_invalidates_itself_and_the_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ck = SweepCheckpoint(path)
        ck.resume(self.FPS)
        ck.record(0, "fp0", [_fake_record(0)], 0.5, 10)
        ck.record(1, "fp1", [_fake_record(1)], 0.6, 20)
        ck.close()
        frames = _frames(path.read_bytes())
        assert b'"elapsed": 0.5' in frames[1]
        frames[1] = frames[1].replace(b'"elapsed": 0.5', b'"elapsed": 9.9')
        path.write_bytes(b"".join(frames))
        # Checksum catches the edit; everything after the first bad
        # frame is untrusted too (append-only chain semantics).
        assert SweepCheckpoint(path).resume(self.FPS) == {}

    def test_wrong_fingerprint_is_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ck = SweepCheckpoint(path)
        ck.resume(self.FPS)
        ck.record(0, "not-fp0", [_fake_record(0)], 0.5, 10)
        ck.close()
        assert SweepCheckpoint(path).resume(self.FPS) == {}


class TestCacheIntegrity:
    def _scenario(self):
        return Scenario(name="integrity", network=NET, flows=("cubic",),
                        duration=1.0)

    def test_checksum_mismatch_quarantines_and_recomputes(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        scenario = self._scenario()
        runner.run([scenario])
        path = Path(runner.cache._path(scenario.fingerprint()))
        entry = path.read_bytes()
        assert b'"mean_rtt": ' in entry
        # Bit rot in the header that still parses as JSON: the sha (and
        # the frame's length) are now stale.
        path.write_bytes(entry.replace(b'"mean_rtt": ', b'"mean_rtt": 9', 1))
        outcome = runner.run([scenario])
        assert cache_misses(outcome) == 1  # recomputed, not served corrupt
        assert path.with_suffix(".quarantined").exists()
        # The recomputed entry is healthy again: third run is a hit.
        assert cache_hits(runner.run([scenario])) == 1

    def test_non_object_entry_is_quarantined(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        scenario = self._scenario()
        runner.run([scenario])
        path = Path(runner.cache._path(scenario.fingerprint()))
        path.write_text("[1, 2, 3]")
        assert cache_misses(runner.run([scenario])) == 1
        assert path.with_suffix(".quarantined").exists()

    def test_previous_version_entry_is_a_plain_miss(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        scenario = self._scenario()
        runner.run([scenario])
        path = Path(runner.cache._path(scenario.fingerprint()))
        fields, records = unseal(path.read_bytes())
        assert fields["version"] == SCENARIO_CACHE_VERSION != "v9"
        # Sealed intact under the old version: only stale, not damaged.
        path.write_bytes(seal({**fields, "version": "v9"}, records))
        assert cache_misses(runner.run([scenario])) == 1  # not served
        assert not list(tmp_path.glob("*.quarantined"))
        assert unseal(path.read_bytes())[0]["version"] == SCENARIO_CACHE_VERSION

    def test_clear_removes_quarantined_entries(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        scenario = self._scenario()
        runner.run([scenario])
        path = Path(runner.cache._path(scenario.fingerprint()))
        path.write_text("{broken")
        runner.run([scenario])  # quarantines, recomputes, re-puts
        assert runner.cache.clear() == 2  # fresh entry + quarantined one
        assert not list(tmp_path.glob("*"))

    def test_stray_staging_file_neither_breaks_put_nor_survives_clear(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "f" * 64
        stray = Path(cache._path(key)).with_suffix(".tmp")
        stray.write_bytes(b'{"sha":"half an ent')  # a writer killed mid-put
        cache.put(key, "cell", [_fake_record(1)])
        assert cache.get(key) is not None
        assert stray.exists()  # staging names are per writer: not reused
        assert cache.clear() == 2
        assert not list(tmp_path.glob("*"))


def a_hit_touches_its_entry(cache_cls) -> None:
    """A hit moves its entry's mtime to now (the LRU touch); a stale
    entry, which is not served, is not touched."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = cache_cls(tmp)
        fresh, stale = "a" * 64, "b" * 64
        cache.put(fresh, "cell", [_fake_record(1)])
        Path(cache._path(stale)).write_bytes(
            seal({"version": "v12", "name": "cell"}, [_fake_record(2)]))
        for key in (fresh, stale):
            os.utime(cache._path(key), (1000.0, 1000.0))
        assert cache.get(fresh) is not None and cache.get(stale) is None
        assert os.stat(cache._path(fresh)).st_mtime > 1e9
        assert os.stat(cache._path(stale)).st_mtime == 1000.0


class TestRawEntryIO:
    """What ``ResultCache`` meets on disk where an entry should be."""

    KEY = "d" * 64

    def test_a_directory_reads_as_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        os.mkdir(cache._path(self.KEY))
        assert cache.get(self.KEY) is None
        assert os.path.isdir(cache._path(self.KEY))  # not moved aside

    def test_a_sweep_onto_a_directory_completes_uncached(self, tmp_path):
        cell = Scenario(name="dir", network=EvalNetwork(bandwidth_mbps=4.0),
                        flows=("cubic",), duration=0.5)
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        os.mkdir(runner.cache._path(cell.fingerprint()))
        for _ in range(2):  # a miss both times: the put stored nothing
            (result,) = runner.run([cell])
            assert not result.cached and result.records
        assert os.path.isdir(runner.cache._path(cell.fingerprint()))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{cell.fingerprint()}.json"]  # no staging file left

    def test_an_entry_one_byte_longer_than_its_frame_is_quarantined(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        frame = seal({"version": SCENARIO_CACHE_VERSION, "name": "cell"},
                     [_fake_record(1)])
        path = Path(cache._path(self.KEY))
        path.write_bytes(frame + b"\0")
        assert cache.get(self.KEY) is None
        assert not path.exists()
        assert path.with_suffix(".quarantined").read_bytes() == frame + b"\0"

    def test_a_stale_entry_is_a_miss_then_overwritten(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = Path(cache._path(self.KEY))
        path.write_bytes(seal({"version": "v12", "name": "cell"},
                              [_fake_record(1)]))
        assert cache.get(self.KEY) is None
        assert path.exists() and not list(tmp_path.glob("*.quarantined"))
        cache.put(self.KEY, "cell", [_fake_record(2)])
        assert path.read_bytes() == seal(
            {"version": SCENARIO_CACHE_VERSION, "name": "cell"},
            [_fake_record(2)])
        assert cache.get(self.KEY) == [_fake_record(2)]

    def test_a_hit_touches_its_entry(self):
        a_hit_touches_its_entry(ResultCache)

    def test_a_killed_writers_staging_file_is_never_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        # Complete and intact, but never replaced onto the entry name.
        staged = Path(cache._path(self.KEY)).with_suffix(".4242.tmp")
        staged.write_bytes(seal(
            {"version": SCENARIO_CACHE_VERSION, "name": "cell"},
            [_fake_record(1)]))
        assert cache.get(self.KEY) is None
        assert staged.exists()
        assert cache.clear() == 1
        assert not list(tmp_path.glob("*"))


class TestFailureBudget:
    """The one failure budget is the retry policy's attempt count."""

    def test_runner_validates_knobs(self):
        with pytest.raises(ValueError):
            ParallelRunner(cell_timeout=0.0)
        with pytest.raises(TypeError):
            ParallelRunner(retry="twice")
        # No budget of failed cells: a failing cell never stops a sweep.
        with pytest.raises(TypeError):
            ParallelRunner(max_failures=1)


class TestPoolDispatchIdentity:
    @staticmethod
    def _digests(**kwargs):
        outcome = ParallelRunner(use_cache=False, **kwargs).run(SMALL)
        return [(records_digest(r.records), r.events) for r in outcome]

    def test_pool_dispatch_matches_serial(self):
        # Four cells over two workers: one cell per pool task.
        assert ParallelRunner(n_workers=2)._pick_batch_size(4) == 1
        pooled = self._digests(n_workers=2)
        knobbed = self._digests(n_workers=2,
                                retry=RetryPolicy(max_attempts=2),
                                cell_timeout=120.0)
        assert pooled == knobbed == self._digests(n_workers=1)

    def test_default_runner_survives_a_worker_kill(self, tmp_path):
        # No retry=, cell_timeout= or checkpoint=: the one pool still
        # respawns the dead worker and re-runs its batch.
        set_chaos_hook(_kill_batch_once(tmp_path / "killed", 1))
        survived = self._digests(n_workers=2)
        assert (tmp_path / "killed").exists()
        set_chaos_hook(None)
        assert survived == self._digests(n_workers=1)


class TestLoneCellDispatch:
    """One pending cell (e.g. all a resumed sweep still has to run)
    still leaves the parent when a deadline or a retry budget is set."""

    CELL = Scenario(name="lone", network=NET, flows=("cubic",), duration=1.0)

    def test_wedged_lone_cell_times_out(self):
        runner = ParallelRunner(n_workers=2, use_cache=False,
                                cell_timeout=0.3,
                                retry=RetryPolicy(max_attempts=1))
        set_chaos_hook(_wedge)
        t0 = time.perf_counter()
        with pytest.raises(ScenarioError, match="CellTimeout") as err:
            runner.run(self.CELL)
        assert time.perf_counter() - t0 < 10.0  # killed, not waited out
        outcome = err.value.outcome
        [result] = outcome.results
        assert result.records == [] and "CellTimeout" in result.error
        [row] = outcome.table
        assert "CellTimeout" in row["error"] and row["utilization"] is None

    def test_lone_cell_survives_a_worker_crash(self, tmp_path):
        reference = ParallelRunner(n_workers=1, use_cache=False).run(self.CELL)
        set_chaos_hook(_kill_once(tmp_path / "killed"))
        outcome = ParallelRunner(
            n_workers=2, use_cache=False,
            retry=RetryPolicy(max_attempts=2)).run(self.CELL)
        assert (tmp_path / "killed").exists()
        assert [records_digest(r.records) for r in outcome] == \
            [records_digest(r.records) for r in reference]


class TestCheckpointResume:
    def test_completed_run_restores_rows_bit_identically(self, tmp_path):
        journal = tmp_path / "ck.jsonl"
        kwargs = dict(n_workers=2, use_cache=False, checkpoint=journal)
        first = ParallelRunner(**kwargs).run(SMALL)
        second = ParallelRunner(**kwargs).run(SMALL)
        assert [records_digest(r.records) for r in second] == \
            [records_digest(r.records) for r in first]
        # Restored, not re-executed: the journal hands back the
        # original wall times and event counts (a re-run could never
        # reproduce elapsed bit-for-bit), and no cell is "cached".
        assert [r.elapsed for r in second] == [r.elapsed for r in first]
        assert [r.events for r in second] == [r.events for r in first]
        assert all(not r.cached for r in second)

    def test_killed_then_resumed_matches_uninterrupted(self, tmp_path):
        reference = ParallelRunner(n_workers=1, use_cache=False).run(SMALL)
        ref_digests = [records_digest(r.records) for r in reference]

        journal = tmp_path / "sweep.jsonl"
        marker = tmp_path / "killed"
        kwargs = dict(n_workers=2, use_cache=False, checkpoint=journal,
                      retry=RetryPolicy(max_attempts=1))
        # Four cells over two workers: batch 2 is the third cell alone.
        assert ParallelRunner(n_workers=2)._pick_batch_size(4) == 1
        set_chaos_hook(_kill_batch_once(marker, 2))
        try:
            with pytest.raises(ScenarioError, match="WorkerCrash") as err:
                ParallelRunner(**kwargs).run(SMALL)
        finally:
            set_chaos_hook(None)
        assert marker.exists()
        first = err.value.outcome
        killed = [i for i, r in enumerate(first) if r.error is not None]
        assert killed == [2] and "WorkerCrash" in first.results[2].error
        assert err.value.scenario_name == first.results[2].scenario.name

        # Resume: the journaled survivors are restored verbatim, only
        # the killed cell re-executes, and the table is row-for-row
        # what the uninterrupted run produced.
        second = ParallelRunner(**kwargs).run(SMALL)
        assert all(r.error is None for r in second)
        assert [records_digest(r.records) for r in second] == ref_digests
        for idx in (0, 1, 3):
            assert second.results[idx].elapsed == first.results[idx].elapsed
            assert second.results[idx].events == first.results[idx].events

        # Third run: everything is journaled now, nothing re-executes.
        third = ParallelRunner(**kwargs).run(SMALL)
        assert [r.elapsed for r in third] == [r.elapsed for r in second]
        assert [records_digest(r.records) for r in third] == ref_digests


class TestPerCellKeysStillServe:
    """Journals and cache entries written under per-cell
    ``Scenario.fingerprint()`` keys are what the runner's one up-front
    ``fingerprint_cells`` pass looks up: the keys did not move."""

    @staticmethod
    def _cells():
        topo = dumbbell(bandwidth_mbps=8.0)
        traced = replace(topo, links=tuple(
            replace(ld, trace="wifi-walk") for ld in topo.links))
        return (ScenarioSuite(name="keys", lineups=("cubic", "vegas"),
                              traces=(None, "wifi-walk", "fig1-step"),
                              seeds=(0, 1), duration=1.0).expand()
                + ScenarioSuite(name="keys-topo", lineups=("cubic",),
                                topologies=(topo, traced),
                                duration=1.0).expand())

    @staticmethod
    def _serves_the_fakes(outcome) -> bool:
        """Cell ``idx`` came back as the ``_fake_record(idx)`` stored
        under its key: nothing simulated could produce that."""
        return [[record_to_json(rec) for rec in r.records]
                for r in outcome] == \
            [[record_to_json(_fake_record(idx))]
             for idx in range(len(outcome))]

    def test_journal_resumes_in_full(self, tmp_path):
        cells = self._cells()
        keys = [cell.fingerprint() for cell in cells]
        journal = SweepCheckpoint(tmp_path / "sweep.jsonl")
        journal.resume(keys)
        for idx, key in enumerate(keys):
            journal.record(idx, key, [_fake_record(idx)], 100.0 + idx, idx)
        journal.close()
        outcome = ParallelRunner(n_workers=2, use_cache=False,
                                 checkpoint=journal.path).run(cells)
        assert self._serves_the_fakes(outcome)
        assert [(r.elapsed, r.events) for r in outcome] == \
            [(100.0 + idx, idx) for idx in range(len(cells))]

    def test_result_cache_serves_in_full(self, tmp_path):
        cells = self._cells()
        cache = ResultCache(tmp_path)
        for idx, cell in enumerate(cells):
            cache.put(cell.fingerprint(), cell.name, [_fake_record(idx)])
        outcome = ParallelRunner(n_workers=2, cache_dir=tmp_path).run(cells)
        assert cache_hits(outcome) == len(cells)
        assert self._serves_the_fakes(outcome)
