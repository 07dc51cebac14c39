"""Host-speed yardstick and the statistics every ledger metric goes through.

This box sits for seconds at a time in one of two speed states about
1.6x apart (shared 2-core host: frequency and SMT contention, not
pre-emption), so a raw events/s number cannot repeat within a tenth.
Every timed region is therefore *bracketed* by two samples of a frozen
pure-Python loop and its work is reported per calibration op
(``calop``) executed at the speed the host had right then.

The loop is a deliberate copy of ``repro.eval.perf.calibration_score``
and must never change: it is the unit every number in
``BENCH_ledger.json`` is expressed in, so editing it silently rescales
the whole trajectory.  ``test_ledger_contract.py`` pins its checksum.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

__all__ = ["CAL_OPS", "NOMINAL_CALOPS_PER_S", "ParallelYardstick", "Region",
           "Summary", "Timed", "bracketed", "calibration_checksum",
           "calibration_sample", "clocked", "measure", "quartiles",
           "rate_per_mcalop", "round_rates", "summarize"]

#: Ops per calibration sample: 30-50 ms here, short beside the pieces
#: it sits between.
CAL_OPS = 80_000

#: A calibration rate between this box's two states, ops/s.  Only used
#: to express ``setup_s`` in seconds of a nominal-speed host.
NOMINAL_CALOPS_PER_S = 2.0e6


def _calibration_loop(ops: int) -> float:
    """The frozen yardstick: tuple-heap push/pop plus float arithmetic,
    the event loop's instruction mix without any repo code.  Returns
    the final accumulator so the work cannot be optimised away."""
    push, pop = heapq.heappush, heapq.heappop
    heap: list = []
    x = 0.0
    for i in range(ops):
        push(heap, (x, i))
        x = (x + 1.000001) * 0.999999
        if i & 1:
            pop(heap)
    return x + len(heap)


def calibration_checksum(ops: int = 1000) -> float:
    """Deterministic output of the loop (pins it against edits)."""
    return _calibration_loop(ops)


def calibration_sample(ops: int = CAL_OPS) -> float:
    """One yardstick sample: calibration ops per second right now.

    The collector is off while it runs: the loop allocates tuples, and
    a collection they trigger costs in proportion to the objects the
    *workload* keeps alive, which would make the yardstick run slower
    in a process with a bigger heap (seen: 1.8x on ``grid-serial``).
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _calibration_loop(ops)
        return ops / (time.perf_counter() - t0)
    finally:
        if gc_was_on:
            gc.enable()


def _yardstick_worker(ops: int) -> None:
    """One sample per line received on stdin; end of input ends the
    worker, so it cannot outlive a parent that dies without closing."""
    for _ in sys.stdin:
        print(repr(calibration_sample(ops)), flush=True)


class ParallelYardstick:
    """The yardstick on ``procs`` processes at once: :meth:`sample` is
    the calibration ops per second the host gives each of that many
    busy processes right now (their mean).

    A pool workload's wall time follows both cores, each with its own
    neighbours; one in-process sample sees the core it happens to run
    on.  Over ten minutes of ``grid-pool`` rounds in 12 s windows, the
    inter-quartile distance of the windows' rates was 5.6 % of their
    median normalised in-process and 3.7 % normalised by this (9.3 %
    raw).  The workers are started once, as plain child interpreters
    running this file (stdlib only), and sleep on a pipe between
    samples.  They are ``subprocess`` children rather than
    ``multiprocessing`` ones: a spawn context starts a resource-tracker
    process that only ends *after* its parent has, so a run would leave
    a process behind it.  :meth:`close` waits for every worker.
    """

    def __init__(self, procs: int, ops: int = CAL_OPS):
        self._workers: list[subprocess.Popen] = []
        try:
            for _ in range(procs):
                self._workers.append(subprocess.Popen(
                    [sys.executable, "-S", "-E", __file__, str(ops)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True))
            self.sample()  # returns once every worker's interpreter is up
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        for proc in self._workers:
            proc.stdin.write("\n")
            proc.stdin.flush()
        return statistics.fmean(float(proc.stdout.readline())
                                for proc in self._workers)

    def close(self) -> None:
        """End every worker and wait until it has gone."""
        workers, self._workers = self._workers, []
        for proc in workers:
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in workers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


@dataclass(frozen=True)
class Region:
    """One timed region with the calibration samples that bracket it."""

    work: float
    wall_s: float
    cal_before: float
    cal_after: float

    @property
    def cal_rate(self) -> float:
        return 0.5 * (self.cal_before + self.cal_after)

    @property
    def calops(self) -> float:
        """Calibration ops the host could have run during the region."""
        return self.wall_s * self.cal_rate


@dataclass
class Timed:
    """Calls run with a calibration sample before, between and after."""

    results: list
    wall_s: float
    calops: float

    @property
    def cal_rate(self) -> float:
        """Mean host speed over the timed calls, calibration ops/s."""
        return self.calops / self.wall_s


def clocked(fn):
    """Adapt a plain callable to the piece protocol: ``fn()`` becomes
    ``(result, wall_s)`` with the whole call on the clock."""
    def piece():
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0
    return piece


def bracketed(*pieces, sample=calibration_sample) -> Timed:
    """Run each piece (a call returning ``(result, wall_s)``) between
    two calibration samples -- neighbours share one -- and add up wall
    time and calibration ops.  ``sample`` takes one sample."""
    out = Timed([], 0.0, 0.0)
    cal = sample()
    for piece in pieces:
        result, wall = piece()
        cal_after = sample()
        out.results.append(result)
        out.wall_s += wall
        out.calops += wall * 0.5 * (cal + cal_after)
        cal = cal_after
    return out


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as the driver computes them
    (``statistics.quantiles(values, n=4)``); a single value is its own
    quartiles."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass(frozen=True)
class Summary:
    """Median over rounds with quartiles and the round count beside it."""

    median: float
    q1: float
    q3: float
    n: int

    @property
    def spread(self) -> float:
        """Inter-quartile distance as a share of the median."""
        return (self.q3 - self.q1) / self.median if self.median else 0.0

    def as_dict(self) -> dict:
        return asdict(self)


def summarize(values) -> Summary:
    values = list(values)
    q1, q2, q3 = quartiles(values)
    return Summary(median=q2, q1=q1, q3=q3, n=len(values))


def measure(pieces, seconds: float, min_rounds: int = 3,
            sample=calibration_sample) -> list[list[Region]]:
    """Run the round made of ``pieces`` closed-loop for about ``seconds``.

    Each piece is a call into the program that returns ``(work,
    wall_s)`` -- it times its own critical section so output checks
    stay outside the clock.  A calibration sample runs between every
    two pieces (``sample`` takes one) and each piece is normalised by
    the mean of its two neighbours: the host changes speed state every
    few seconds, and only short pieces with the yardstick right beside
    them see the same state (more, shorter pieces also give the medians
    more samples).  The window includes the samples and closes after
    whichever piece is running when time is up (the last round may be
    partial); at least ``min_rounds`` rounds run however short it is.
    Returns the regions of each piece, one list per piece.
    """
    t_end = time.perf_counter() + seconds
    regions: list[list[Region]] = [[] for _ in pieces]
    cal = sample()
    while True:
        for k, piece in enumerate(pieces):
            if (len(regions[-1]) >= min_rounds
                    and time.perf_counter() >= t_end):
                return regions
            work, wall = piece()
            cal_after = sample()
            regions[k].append(Region(work=work, wall_s=wall, cal_before=cal,
                                     cal_after=cal_after))
            cal = cal_after


def rate_per_mcalop(regions: list[list[Region]]) -> float:
    """Work of one round per 10^6 calibration ops, each piece at the
    median of its rounds: a piece caught by a host-speed switch is an
    outlier among its own repeats, not noise in the sum."""
    work = sum(piece[0].work for piece in regions)
    calops = sum(statistics.median(r.calops for r in piece)
                 for piece in regions)
    return 1e6 * work / calops


def round_rates(regions: list[list[Region]]) -> list[float]:
    """Per-round rate (for the quartiles printed beside the median)."""
    return [1e6 * sum(r.work for r in rnd) / sum(r.calops for r in rnd)
            for rnd in zip(*regions)]


if __name__ == "__main__":
    _yardstick_worker(int(sys.argv[1]))
