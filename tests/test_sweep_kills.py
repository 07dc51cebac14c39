"""The sweep runtime survives a worker kill at any batch.

One property over drawn kill schedules (``strategies.kill_schedules``:
cell order x batches killed once each x ``max_attempts`` in {1, 2, 4}
x 2-3 workers, over faulted parking lots, queued-reverse dumbbells, a
churned lossy link and a time-varying one), with a checkpoint journal:

* within the retry budget the sweep returns the serial digests in cell
  order, with no error;
* beyond it, ``ScenarioError.outcome`` marks exactly the killed cells
  ``WorkerCrash``, and a re-run resumes every other cell from the
  journal with its original ``elapsed`` while re-executing only the
  killed ones.

Kills go through :func:`set_chaos_hook`, which pool workers call with
their batch index before running it; every drawn kill must fire.  The
resume check maps a batch index to its cells through the runner's own
deterministic batching of the cells left to run.
"""

import inspect
import os
import tempfile
from functools import cache
from pathlib import Path

from hypothesis import given, settings

from repro.eval.parallel import ParallelRunner, ScenarioError
from repro.eval.resilience import RetryPolicy, records_digest, set_chaos_hook
from strategies import KILL_CELLS, kill_schedules


@cache
def serial_outcome(name: str) -> tuple:
    """``(digest, events)`` of one kill cell run in process."""
    cell = next(c for c in KILL_CELLS if c.name == name)
    [result] = ParallelRunner(n_workers=1, use_cache=False).run([cell])
    return records_digest(result.records), result.events


def outcomes(results) -> list:
    return [(records_digest(r.records), r.events) for r in results]


def kill_once_each(marks: Path, batches: frozenset):
    """Chaos hook: the worker handed one of ``batches`` dies, once per
    batch; a mark file records each kill."""
    def hook(batch):
        mark = marks / f"killed-{batch}"
        if batch in batches and not mark.exists():
            mark.write_text("")
            os._exit(17)
    return hook


def log_cells(log: Path, batches: list):
    """Chaos hook: append the names of the cells each task runs, given
    the runner's batches as cell names by batch index."""
    def hook(batch):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("".join(f"{name}\n" for name in batches[batch]))
    return hook


def resumed_batches(runner, names: list) -> list:
    """The batches a re-run dispatches when ``names`` are its pending
    cells, in sweep order: the runner's own deterministic batching."""
    size = runner._pick_batch_size(len(names))
    return [names[start:start + size] for start in range(0, len(names), size)]


def run_sweep(runner, cells):
    """``(outcome, ScenarioError or None)`` of one sweep."""
    try:
        return runner.run(cells), None
    except ScenarioError as exc:
        return exc.outcome, exc


@settings(max_examples=40, derandomize=True, deadline=None)
@given(schedule=kill_schedules())
def test_kill_schedules(schedule):
    cells = list(schedule.cells)
    serial = [serial_outcome(cell.name) for cell in cells]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runner = ParallelRunner(
            n_workers=schedule.n_workers, use_cache=False,
            retry=RetryPolicy(max_attempts=schedule.max_attempts),
            checkpoint=tmp / "sweep.jsonl")
        set_chaos_hook(kill_once_each(tmp, schedule.killed))
        try:
            first, error = run_sweep(runner, cells)
        finally:
            set_chaos_hook(None)
        assert {int(p.name.split("-")[1]) for p in tmp.glob("killed-*")} \
            == schedule.killed, "a drawn kill never fired"

        if schedule.max_attempts > 1:
            # One kill per batch is within every budget above one try.
            assert error is None
            assert outcomes(first) == serial
            assert all(r.elapsed > 0.0 for r in first)
            return

        killed = schedule.killed_cells()
        assert error is not None
        assert error.scenario_name == cells[killed[0]].name
        assert [i for i, r in enumerate(first) if r.error is not None] \
            == killed
        assert all("WorkerCrash" in first.results[i].error for i in killed)
        survivors = [i for i in range(len(cells)) if i not in killed]
        assert [outcomes([first.results[i]])[0] for i in survivors] == \
            [serial[i] for i in survivors]

        # Resume: the journal restores every survivor as it was, and
        # only the killed cells run again.
        # A batch index past the killed cells' batches has no entry:
        # the hook raises and the worker dies, so re-running a
        # survivor cannot pass unseen.
        set_chaos_hook(log_cells(tmp / "ran", resumed_batches(
            runner, [cells[i].name for i in killed])))
        try:
            resumed, error = run_sweep(runner, cells)
        finally:
            set_chaos_hook(None)
        assert error is None
        assert outcomes(resumed) == serial
        assert sorted((tmp / "ran").read_text().split()) == \
            sorted(cells[i].name for i in killed)
        for i in survivors:
            assert resumed.results[i].elapsed == first.results[i].elapsed


def test_the_runner_takes_only_the_contract_arguments():
    assert list(inspect.signature(ParallelRunner).parameters) == [
        "n_workers", "cache_dir", "use_cache", "cell_timeout", "retry",
        "checkpoint"]
