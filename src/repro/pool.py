"""The process pool every out-of-process run goes through: sweep
batches (:class:`~repro.eval.parallel.ParallelRunner`) and rollout
segments (:class:`~repro.rl.parallel.VectorCollector`).

* :class:`RetryPolicy` -- how many attempts a task gets against
  *transient* failures (worker crashes, timeouts).  Deterministic task
  failures -- an exception raised by the task function itself -- are
  never retried: a seeded simulation that failed once fails
  identically every time.
* :class:`ResilientPool` -- fork-based, one duplex pipe per worker, so
  it knows which worker holds which task: a crashed or deadline-blown
  worker is terminated, respawned, and its task either requeued at
  once (within the retry budget) or reported as a failed result
  instead of wedging the run.  Workers outlive a run: a process forks
  them once and every later pool reuses them, whatever it runs,
  because each task message carries its task function (by reference)
  and everything its task reads.  Besides code they inherit only the
  chaos hook and the named-trace registry, and a change to either
  forks new ones.
* :func:`set_chaos_hook` -- the deterministic fault-injection point
  the chaos tests use to kill a worker at a chosen task (fork
  inheritance carries the hook into workers, so installing another
  one forks new workers); the kill-schedule property in
  ``tests/test_sweep_kills.py`` draws where.

This module imports nothing from ``repro`` but the named-trace
registry, so both the sweep runtime (``repro.eval``) and the rollout
loop (``repro.rl``) can run on it without importing each other.

All timeout arithmetic uses ``time.perf_counter()`` (monotonic) and
never feeds simulation state -- elapsed time is reporting, not physics.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait

from repro.netsim.traces import _TRACE_REGISTRY

__all__ = ["ResilientPool", "RetryPolicy", "set_chaos_hook", "usable_workers"]


# --- chaos hook ---------------------------------------------------------------

#: Test fault-injection hook, called by every pool worker with the
#: task id (a runner batch's index, a rollout segment's index) before
#: executing the task.  Workers inherit it through fork: a pool whose
#: idle workers were forked under another hook forks new ones.
#: ``None`` disables.  Mutable module state is acceptable here -- the
#: hook never feeds simulation results, only kills or delays workers.
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


def usable_workers() -> int:
    """How many pool workers can run at once here: the cores this
    process may run on, or 1 in a daemonic process (a pool worker),
    which may not fork children of its own."""
    if mp.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


#: How often an idle worker checks that the process that forked it is
#: still there, seconds.
_ORPHAN_POLL_SECONDS = 1.0


def _pool_worker(conn) -> None:
    """Worker main: receive ``(task_id, fn, arg)``, send ``(task_id,
    fn(arg), error)``, until terminated or the pipe closes.

    A worker waits for tasks across runs, so it also ends once the
    process that forked it is gone: end of file on the pipe need not
    come, because workers forked later hold copies of the parent's end.
    Task exceptions come back as strings (unpicklable exception objects
    must never wedge the pipe); anything that kills the process --
    including the chaos hook -- surfaces in the parent as a crash.
    """
    parent = os.getppid()
    try:
        while True:
            while not conn.poll(_ORPHAN_POLL_SECONDS):
                if os.getppid() != parent:
                    return
            task_id, fn, arg = conn.recv()
            chaos_probe(task_id)
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
    __slots__ = ("proc", "conn", "inherited")

    def __init__(self, proc, conn, inherited):
        self.proc = proc
        self.conn = conn
        #: What the worker took from this process at fork besides
        #: code (see :func:`_inheritance`).
        self.inherited = inherited


def _inheritance() -> tuple:
    """What a worker forked now inherits that a task message does not
    carry: the chaos hook and the named-trace registry's factories."""
    return _CHAOS_HOOK, tuple(_TRACE_REGISTRY.items())


def _spawn() -> _PoolWorker:
    ctx = mp.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=_pool_worker, args=(child_conn,), daemon=True)
    proc.start()
    child_conn.close()
    return _PoolWorker(proc, parent_conn, _inheritance())


def _kill(worker: _PoolWorker) -> None:
    if worker.proc.is_alive():
        worker.proc.terminate()
    worker.proc.join()
    try:
        worker.conn.close()
    except OSError:
        pass


#: This process's idle pool workers, shared by every pool: ``execute``
#: takes the ones it can use and gives back those that end it idle.  A
#: process forked from this one does not own them, so its copy of the
#: list starts empty.
_IDLE: list[_PoolWorker] = []


def _disown() -> None:
    del _IDLE[:]


os.register_at_fork(after_in_child=_disown)


def _claim(n: int) -> list[_PoolWorker]:
    """``n`` workers for one ``execute``: idle ones forked under the
    current hook and registry first, freshly forked ones for the rest.
    An idle worker forked under another hook or registry is ended, as
    is a dead one."""
    inherited = _inheritance()
    claimed, kept = [], []
    for worker in _IDLE:
        if worker.inherited != inherited or not worker.proc.is_alive():
            _kill(worker)
        elif len(claimed) < n:
            claimed.append(worker)
        else:
            kept.append(worker)
    _IDLE[:] = kept
    return claimed + [_spawn() for _ in range(n - len(claimed))]


class ResilientPool:
    """The process pool: idempotent tasks, surviving worker crashes
    and blown deadlines.

    Each worker holds exactly one task at a time over a dedicated
    duplex pipe, so the pool always knows *which* task a dead or
    deadline-blown worker was holding.  That worker is
    terminated and respawned, and the task is requeued at once under
    ``retry`` (transient failures only: an exception *returned* by the
    task function is deterministic and reported immediately, never
    retried).  Tasks whose retry budget is exhausted come back as
    error results; the pool itself never raises for a task.

    Workers outlive an ``execute`` and the pool object: they are the
    process's, and every later pool reuses the idle ones, whatever its
    ``fn``.  So ``fn`` must be a module-level function (each task
    message names it, by reference), and a task's ``arg`` must carry
    everything the task reads that may change between runs; both are
    pickled into the worker with each task.  A worker inherits only
    code, the chaos hook and the named-trace registry, and an idle
    worker forked under another hook or registry is ended and replaced
    by a fresh fork.  An ``execute`` closed early ends the workers
    still holding its tasks.  The idle ones are daemon processes,
    which multiprocessing terminates and joins at interpreter exit.

    ``fn`` must be idempotent: the pool re-runs it after a crash or a
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
        (``timeout_s=None`` = no deadline), handed out in that order.
        Closing the generator early (or an exception in the consuming
        loop) terminates the workers still running a task; the rest
        stay for the next ``execute``.
        """
        queue: deque[_PoolTask] = deque(
            _PoolTask(task_id, arg, timeout)
            for task_id, arg, timeout in tasks)
        if not queue:
            return
        # Every worker this execute holds, respawned ones included.
        workers = _claim(min(self.n_workers, len(queue)))
        idle = list(workers)
        inflight: dict = {}  # conn -> (worker, task, deadline | None)

        def respawn(worker: _PoolWorker) -> None:
            _kill(worker)
            fresh = workers[workers.index(worker)] = _spawn()
            idle.append(fresh)

        try:
            # Every worker is idle or in flight, so after the hand-out
            # below something is in flight whenever this loop runs.
            while queue or inflight:
                now = time.perf_counter()
                while idle and queue:
                    worker = idle.pop()
                    task = queue.popleft()
                    deadline = (None if task.timeout is None
                                else now + task.timeout)
                    # In flight before the send: a large task is written
                    # in several chunks, and a worker whose send was cut
                    # short (an interrupt) holds half a message, so the
                    # finally below must end it rather than keep it.
                    inflight[worker.conn] = (worker, task, deadline)
                    worker.conn.send((task.task_id, self.fn, task.arg))
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
            # will collect (early close, abort): terminate it at once,
            # so no worker is left holding a stale task.  The idle
            # ones wait for the next execute.
            for worker in workers:
                if worker.conn in inflight:
                    _kill(worker)
                else:
                    _IDLE.append(worker)
