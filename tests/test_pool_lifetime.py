"""Pool workers outlive a sweep, and a live pool never runs stale cells.

A process forks its pool workers once and every later sweep reuses
them, as does every later training iteration; each task carries its
batch's cells (or its rollout segment).  So the tests here keep one
live pool across two sweeps and change one thing in between:

* a named trace re-registered, a chaos hook installed, or a live agent
  adapted in place -- the second sweep must equal a serial run of the
  cells as they are now;
* a sweep aborted by an exception out of ``record_result``, or by an
  interrupt partway through sending a task -- no worker may keep its
  task or half a message, and the next sweep must equal serial;
* the process exiting, normally or abruptly -- no worker may outlive
  it.
"""

import multiprocessing as mp
import os
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

import pytest

import repro.pool as pool
from repro.config import DEFAULT_TRAINING, NetworkParams
from repro.core.agent import MoccAgent
from repro.core.offline import OfflineTrainer
from repro.eval.parallel import ParallelRunner
from repro.eval.resilience import records_digest, set_chaos_hook
from repro.eval.scenarios import FlowDef, ScenarioSuite
from repro.netsim.traces import ConstantTrace
from repro.rl.parallel import EnvSpec
from test_resilience import _kill_batch_once, idle_procs
from test_scenarios import reregister_trace

SRC = Path(__file__).resolve().parent.parent / "src"

#: Three 16-step segments per objective: an iteration of two runs on
#: both workers.
TRAIN_SPEC = EnvSpec(ranges=NetworkParams(3.0, 20.0, 200, 0.0), max_steps=16,
                     seed=2)
TRAIN_CONFIG = DEFAULT_TRAINING.replace(steps_per_iteration=48)

#: Four cells: one batch each over two workers.
SUITE = ScenarioSuite(name="live", lineups=("cubic", "vegas"), seeds=(0, 1),
                      duration=0.5)


@pytest.fixture(autouse=True)
def _no_leaked_chaos_hook():
    yield
    set_chaos_hook(None)


def digests(cells, n_workers=2) -> list[str]:
    outcome = ParallelRunner(n_workers=n_workers, use_cache=False).run(cells)
    return [records_digest(r.records) for r in outcome]


def idle_pids() -> set[int]:
    return {proc.pid for proc in idle_procs()}


class TestWorkersOutliveASweep:
    def test_a_second_sweep_reuses_the_workers(self):
        first = digests(SUITE)
        pids = idle_pids()
        assert len(pids) >= 2
        assert digests(SUITE) == first == digests(SUITE, n_workers=1)
        assert idle_pids() == pids

    def test_a_training_iteration_between_sweeps_runs_on_them_too(self):
        first = digests(SUITE)
        pids = idle_pids()
        trainer = OfflineTrainer(spec=TRAIN_SPEC, config=TRAIN_CONFIG, seed=1)
        trainer.iterate(([0.6, 0.3, 0.1], [0.1, 0.6, 0.3]), "joint")
        assert idle_pids() == pids
        second = digests(SUITE)
        assert idle_pids() == pids
        assert first == second == digests(SUITE, n_workers=1)

    def test_a_reregistered_trace_is_the_one_the_next_sweep_runs(self):
        suite = ScenarioSuite(name="retrace", lineups=("cubic", "vegas"),
                              traces=("live-retrace",), seeds=(0, 1),
                              duration=0.5)
        reregister_trace("live-retrace", lambda: ConstantTrace(400.0))
        first = digests(suite)
        pids = idle_pids()
        reregister_trace("live-retrace", lambda: ConstantTrace(900.0))
        second = digests(suite)
        assert second == digests(suite, n_workers=1)
        assert second != first
        assert not idle_pids() & pids  # forked again

    def test_a_hook_installed_after_the_workers_started_runs(self, tmp_path):
        first = digests(SUITE)
        marker = tmp_path / "killed"
        set_chaos_hook(_kill_batch_once(marker, 1))
        assert digests(SUITE) == first == digests(SUITE, n_workers=1)
        assert marker.exists()  # the new hook reached a worker

    def test_an_agent_adapted_in_place_is_the_one_the_next_sweep_runs(self):
        agent = MoccAgent(seed=4)
        suite = ScenarioSuite(
            name="adapt", lineups={"mocc": (FlowDef(
                "mocc", weights=(0.6, 0.3, 0.1), agent=agent),)},
            seeds=(0, 1, 2, 3), duration=0.5)
        first = digests(suite)
        pids = idle_pids()
        for param in agent.model.parameters().values():
            param.value *= 1.5
        second = digests(suite)
        assert idle_pids() == pids  # the same workers ran it
        assert second == digests(suite, n_workers=1)
        assert second != first


class TestAbortedSweep:
    def test_a_failing_put_leaves_no_task_and_the_next_sweep_serial(
            self, tmp_path):
        suite = ScenarioSuite(name="abort", lineups=("cubic", "vegas"),
                              seeds=tuple(range(6)), duration=0.5)
        runner = ParallelRunner(n_workers=2, cache_dir=tmp_path)
        puts = []

        def failing_put(fingerprint, name, records):
            puts.append(name)
            if len(puts) == 3:
                raise OSError("disk full")

        runner.cache.put = failing_put
        with pytest.raises(OSError, match="disk full"):
            runner.run(suite)
        # Every child left is idle: none holds a task of the aborted run.
        assert set(mp.active_children()) == idle_procs()
        assert digests(suite) == digests(suite, n_workers=1)

    def test_an_interrupted_send_leaves_no_half_message(self, monkeypatch):
        # A task carrying a live agent is larger than a pipe buffer, so
        # it goes out in several writes; cut the first one halfway.
        suite = ScenarioSuite(
            name="cut", lineups={"mocc": (FlowDef(
                "mocc", weights=(0.6, 0.3, 0.1), agent=MoccAgent(seed=4)),)},
            seeds=(0, 1, 2, 3), duration=0.5)
        parent, send, cut = os.getpid(), Connection._send, []

        def cut_send(conn, buf, *args):
            if os.getpid() == parent and not cut and len(buf) > 1 << 16:
                cut.append(conn)
                send(conn, buf[:len(buf) // 2], *args)
                raise KeyboardInterrupt
            send(conn, buf, *args)

        monkeypatch.setattr(Connection, "_send", cut_send)
        with pytest.raises(KeyboardInterrupt):
            digests(suite)
        monkeypatch.undo()
        assert cut, "no task message was large enough to cut"
        # The worker holding half a message was ended, not kept idle.
        assert all(worker.conn is not cut[0] for worker in pool._IDLE)
        assert set(mp.active_children()) == idle_procs()
        assert digests(suite) == digests(suite, n_workers=1)


SWEEP_THEN_EXIT = """
import os, sys
import repro.pool as pool
from repro.eval.parallel import ParallelRunner
from repro.eval.scenarios import ScenarioSuite
suite = ScenarioSuite(name="exit", lineups=("cubic", "vegas"), seeds=(0, 1),
                      duration=0.2)
ParallelRunner(n_workers=2, use_cache=False).run(suite)
print(" ".join(str(worker.proc.pid) for worker in pool._IDLE),
      flush=True)
if sys.argv[1] == "abrupt":
    os._exit(0)  # no interpreter exit: the workers must notice alone
"""


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def sweep_in_subprocess(how: str) -> list[int]:
    done = subprocess.run(
        [sys.executable, "-c", SWEEP_THEN_EXIT, how],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    return pids


class TestNoWorkerOutlivesItsProcess:
    def test_interpreter_exit_ends_every_worker(self):
        pids = sweep_in_subprocess("exit")
        assert [pid for pid in pids if running(pid)] == []

    def test_workers_end_when_their_parent_is_gone(self):
        pids = sweep_in_subprocess("abrupt")
        deadline = time.perf_counter() + 10.0
        while any(running(pid) for pid in pids):
            assert time.perf_counter() < deadline, "an orphaned worker lived on"
            time.sleep(0.1)
