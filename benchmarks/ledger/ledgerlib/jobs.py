"""The seven workloads as runnable jobs.

A job sets itself up (repeatably: the harness sets up several times and
reports the median), exposes its round as ``pieces`` -- short calls
into the program, each returning ``(work, wall_s)`` with output checks
outside its clock -- and can run the traced round that yields the
per-layer numbers.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro.core import OfflineTrainer
from repro.eval import ParallelRunner, ResultCache
from repro.eval.batch import DEFAULT_SLICE_SECONDS, BatchRunner
from repro.eval.resilience import RetryPolicy, set_chaos_hook
from repro.eval.scenarios import build_scenario_simulation
from repro.netsim.traces import make_trace

from ledgerlib import probes, workloads
from ledgerlib.calib import (
    ParallelYardstick,
    Timed,
    bracketed,
    calibration_sample,
    clocked,
)
from ledgerlib.spans import Tracer, self_times
from ledgerlib.verify import cell_digest, state_digest

__all__ = ["JOBS", "N_WORKERS", "Job"]

SRC_DIR = Path(__file__).resolve().parents[3] / "src"
N_WORKERS = 2
#: The output of an op that failed outright; it matches no reference.
ERRORED = ("error", -1)


class Job:
    """Base: bookkeeping shared by every workload."""

    name = ""
    #: Key of this workload's inputs in ``expected.json``.
    cell_set = ""
    n_workers = 1
    #: Processes a yardstick sample runs on at once.
    yardstick_procs = 1

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: What a correct round produces, by output index: ``(digest,
        #: events)`` per cell (events ``None`` when served from the
        #: cache), or the final ``(reward, model sha)`` of training.
        #: The first output judged at an index becomes its reference:
        #: the first set-up's warm-up round, or a plainer path where a
        #: job has one.
        self.reference: dict[int, tuple] = {}
        #: The round: calls that each return ``(work, wall_s)``.
        self.pieces: list = []
        self._dirs = 0
        #: Takes one yardstick sample.
        self.sample = calibration_sample
        self._yardstick = None
        if self.yardstick_procs > 1:
            self._yardstick = ParallelYardstick(self.yardstick_procs)
            self.sample = self._yardstick.sample

    def close(self) -> None:
        if self._yardstick is not None:
            self._yardstick.close()

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.tmp / f"d{self._dirs}"
        path.mkdir()
        return path

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{self.name}: {message}")

    def judge(self, outputs: list, start: int = 0, ops: int | None = None,
              what: str = "round") -> None:
        """Count ``outputs`` (indices ``start``...) against the reference.

        Each output is one op unless ``ops`` says the outputs stand for
        that many ops together (training: one final state, many
        iterations), in which case any difference fails them all.
        """
        self.attempted += len(outputs) if ops is None else ops
        bad = [i for i, got in enumerate(outputs, start)
               if got == ERRORED or self.reference.setdefault(i, got) != got]
        if bad:
            self.failed += len(bad) if ops is None else ops
            self.problem(f"{what}: {len(bad)} outputs errored or differ from "
                         f"the reference (first at index {bad[0]})")

    def reference_list(self) -> list:
        return [self.reference[i] for i in sorted(self.reference)]

    def setup(self) -> None:
        """Load inputs and build ``pieces``.  A set-up is this plus one
        warm-up round, which the caller runs."""
        raise NotImplementedError

    def traced(self, tracer: Tracer, layer: dict) -> None:
        """The traced round: record spans, fill ``layer`` metrics."""
        raise NotImplementedError


def runner_outputs(results, cached: bool = False) -> list:
    """``(digest, events)`` per cell of a runner result, ``ERRORED`` for
    a cell that errored or was (not) cache-served against expectation.
    Cache-served cells carry no event count."""
    outputs = []
    for result in results:
        if result.error is not None or result.cached != cached:
            outputs.append(ERRORED)
        else:
            outputs.append((cell_digest(result.records),
                            None if cached else result.events))
    return outputs


def digests_only(outputs: list) -> list:
    return [(digest, None) for digest, _ in outputs]


@dataclass
class Driven:
    """What a driven (traced) pass over the cells produced."""

    record_lists: list = field(default_factory=list)
    events: list = field(default_factory=list)
    mi_count: int = 0
    hits: int = 0
    misses: int = 0

    def outputs(self) -> list:
        return [(cell_digest(r), e)
                for r, e in zip(self.record_lists, self.events)]


def drive_cells(tracer: Tracer, cells, cache: ResultCache | None,
                out: Driven) -> None:
    """Run each cell the way the serial runner does -- fingerprint ->
    cache.get -> build -> run -> cache.put (which encodes) -- with a
    span at each boundary and the exact counts on the cell span."""
    with tracer.span("sweep"):
        for cell in cells:
            i = len(out.events)
            with tracer.span("cell", i) as cell_span:
                records = events = None
                if cache is not None:
                    with tracer.span("eval.scenarios.fingerprint", i):
                        fingerprint = cell.fingerprint()
                    with tracer.span("eval.cache.get", i):
                        records = cache.get(fingerprint)
                if records is not None:
                    out.hits += 1
                else:
                    out.misses += 1
                    with tracer.span("netsim.build", i):
                        sim = build_scenario_simulation(cell)
                    with tracer.span("netsim.run", i):
                        records = sim.run_all()
                    events = sim.events_processed
                    out.mi_count += sum(len(r.records) for r in records)
                    if cache is not None:
                        with tracer.span("eval.cache.put", i):
                            cache.put(fingerprint, cell.name, records)
                cell_span.counters = {"events": events}
            out.record_lists.append(records)
            out.events.append(events)


SPAN_METRICS = (("eval.scenarios.fingerprint", "span.fingerprint_s"),
                ("eval.cache.get", "span.cache_get_s"),
                ("netsim.build", "span.build_s"),
                ("netsim.run", "span.run_s"),
                ("eval.cache.put", "span.cache_put_s"),
                ("eval.parallel.dispatch", "span.dispatch_s"))


def span_metrics(tracer: Tracer, layer: dict) -> dict:
    """Self time per layer span into ``layer``; returns all totals."""
    totals = self_times(tracer.spans)
    for span_name, metric in SPAN_METRICS:
        layer[metric] = totals.get(span_name, 0.0)
    return totals


def timed_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - t0)


def controller_metrics(job: Job, tracer: Tracer, layer: dict, cells,
                       reference: dict | None = None) -> None:
    """Proxied pass over ``cells``; a cell without a known digest gets
    one from the standard path first."""
    reference = dict(reference or {})
    for cell in cells:
        if cell.name not in reference:
            reference[cell.name] = cell_digest(
                build_scenario_simulation(cell).run_all())
    metrics, mismatched = probes.controller_probe(cells, reference, tracer)
    layer.update(metrics)
    job.attempted += len(cells)
    if mismatched:
        job.failed += len(mismatched)
        job.problem(f"timing proxy changed results of {mismatched[:3]}")


class _CellJob(Job):
    """A workload over scenario cells grouped in sweeps; one sweep is
    one piece of the round."""

    def _set_sweeps(self, sweeps: list) -> None:
        self.sweeps = sweeps
        self.cells = [cell for sweep in sweeps for cell in sweep]
        self.starts = [sum(len(s) for s in sweeps[:k])
                       for k in range(len(sweeps))]

    def _traced_passes(self, tracer, layer, cache=None):
        """The untraced round, then the same cells driven under spans;
        fills the metrics every driven pass yields."""
        plain = bracketed(*self.pieces)
        driven = Driven()
        traced = bracketed(*[
            clocked(partial(drive_cells, tracer, sweep, cache, driven))
            for sweep in self.sweeps])
        totals = span_metrics(tracer, layer)
        layer["bench.trace_overhead_ratio"] = traced.calops / plain.calops
        # What the runner spends beyond the layers it drives (batching,
        # slicing, bookkeeping): its untraced wall minus the driven
        # self times, those rescaled to the untraced pass's host speed.
        driven_s = sum(totals.get(name, 0.0) for name, _ in SPAN_METRICS)
        layer["eval.parallel.runner_residual_s"] = (
            plain.wall_s - driven_s * traced.cal_rate / plain.cal_rate)
        events = sum(e for e in driven.events if e is not None)
        layer["netsim.events"] = events
        layer["netsim.mi_count"] = driven.mi_count
        if events:
            layer["netsim.run_calops_per_event"] = (
                totals["netsim.run"] * traced.cal_rate / events)
            layer["netsim.build_ms_per_cell"] = (
                1e3 * totals["netsim.build"] / driven.misses)
        if cache is not None:
            layer["eval.scenarios.fingerprint_ms_per_cell"] = (
                1e3 * totals["eval.scenarios.fingerprint"] / len(self.cells))
            layer["eval.cache.hits"] = driven.hits
            layer["eval.cache.misses"] = driven.misses
        return driven, totals, traced


class EngineHeuristic(_CellJob):
    name = "engine-heuristic"
    cell_set = "engine"

    def setup(self) -> None:
        # One cell per piece: the long cells are pieces already.
        self._set_sweeps([[c] for c in workloads.engine_cells(self.seed)])
        self.pieces = [partial(self._cell, k) for k in range(len(self.cells))]

    def _cell(self, k, what="round"):
        """Serial build + run_all, no cache, no pool."""
        t0 = time.perf_counter()
        sim = build_scenario_simulation(self.cells[k])
        records = sim.run_all()
        wall = time.perf_counter() - t0
        self.judge([(cell_digest(records), sim.events_processed)], k,
                   what=what)
        return sim.events_processed / 1000.0, wall

    def traced(self, tracer, layer):
        driven, totals, _ = self._traced_passes(tracer, layer)
        self.judge(driven.outputs(), what="traced round")

        # Sliced stepping against the one-shot run_all of the same cells.
        sliced_s = 0.0
        outputs = []
        for cell in self.cells:
            sim = build_scenario_simulation(cell)
            t0 = time.perf_counter()
            horizon = 0.0
            while not sim.state.done:
                horizon += DEFAULT_SLICE_SECONDS
                sim.state.step_until(min(horizon, sim.duration))
            records = sim.run_all()
            sliced_s += time.perf_counter() - t0
            outputs.append((cell_digest(records), sim.events_processed))
        self.judge(outputs, what="sliced round")
        layer["netsim.slice_ratio"] = sliced_s / totals["netsim.run"]

        controller_metrics(self, tracer, layer, workloads.probe_cells(
            self.seed, workloads.load_assets(),
            workloads.ENGINE_BANDWIDTH_MBPS,
            2.0 * workloads.ENGINE_DELAY_MS, workloads.MOCC_DURATION_S))
        layer.update(probes.replint_probe(SRC_DIR))


class _RunnerJob(_CellJob):
    """Sweeps that go through ``ParallelRunner.run``, one call each."""

    #: Whether the runner is expected to serve every cell from cache.
    cached = False

    def _expand(self, suites) -> None:
        self.suites = suites
        self._set_sweeps([suite.expand() for suite in suites])
        self.pieces = [partial(self._sweep, k) for k in range(len(suites))]
        self.last_out = None

    def _runner(self, k: int) -> ParallelRunner:
        raise NotImplementedError

    def _sweep(self, k, runner=None, what="round"):
        runner = runner or self._runner(k)
        t0 = time.perf_counter()
        out = runner.run(self.sweeps[k])
        wall = time.perf_counter() - t0
        self.judge(runner_outputs(out.results, self.cached), self.starts[k],
                   what=what)
        self.last_out = out
        return len(self.sweeps[k]), wall

    def _suite_metrics(self, layer) -> None:
        layer["eval.scenarios.expand_ms"] = sum(
            timed_ms(suite.expand) for suite in self.suites)
        layer["eval.parallel.table_ms"] = timed_ms(
            lambda: self.last_out.table)


class MoccCold(_RunnerJob):
    name = "mocc-cold"
    cell_set = "mocc"

    def setup(self) -> None:
        self.assets = workloads.load_assets()
        self._expand(workloads.mocc_suites(self.seed, self.assets))
        self.runner = None

    def _runner(self, k):
        """One serial runner per round, its cache empty at sweep 0."""
        if k == 0:
            if self.runner is not None:
                shutil.rmtree(self.runner.cache.cache_dir)
            self.runner = ParallelRunner(n_workers=1,
                                         cache_dir=self.fresh_dir())
        return self.runner

    def traced(self, tracer, layer):
        cache = ResultCache(self.fresh_dir())
        driven, totals, _ = self._traced_passes(tracer, layer, cache)
        self.judge(driven.outputs(), what="traced round")
        if driven.hits:
            self.failed += driven.hits
            self.problem(f"traced round: {driven.hits} hits in an empty cache")
        layer["eval.cache.put_ms_per_entry"] = (
            1e3 * totals["eval.cache.put"] / driven.misses)
        entries = sorted(cache.cache_dir.glob("*.json"))
        layer["eval.cache.bytes_per_entry"] = (
            sum(p.stat().st_size for p in entries) / len(entries))
        layer.update(probes.codec_probe(driven.record_lists))
        self._suite_metrics(layer)

        # The workload's own cells behind timing proxies, plus one cell
        # per heuristic on the same link for the Fig. 17 ordering.
        reference = {cell.name: self.reference[i][0]
                     for i, cell in enumerate(self.cells)}
        heuristics = [c for c in workloads.probe_cells(
            self.seed, self.assets, 6.0, 40.0, workloads.MOCC_DURATION_S)
            if c.flows[0].scheme in workloads.HEURISTICS]
        controller_metrics(self, tracer, layer, self.cells + heuristics,
                           reference)
        layer.update(probes.policy_probe(self.assets.mocc.model))


class MoccWarm(_RunnerJob):
    name = "mocc-warm"
    cell_set = "mocc"
    cached = True

    def setup(self) -> None:
        self.assets = workloads.load_assets()
        suites = workloads.mocc_suites(self.seed, self.assets)
        self.runner = ParallelRunner(n_workers=1, cache_dir=self.fresh_dir())
        # Fill the cache sweep by sweep, as mocc-cold does; the records
        # computed here are what the cache must then serve.
        filled = [self.runner.run(suite.expand()) for suite in suites]
        self.judge(digests_only(runner_outputs(
            [r for out in filled for r in out.results])), what="cache fill")
        # The warm round is one pass over all 66 cells.
        self._expand(suites)
        self._set_sweeps([self.cells])
        self.pieces = [partial(self._sweep, 0)]

    def _runner(self, k):
        return self.runner

    def traced(self, tracer, layer):
        driven, totals, _ = self._traced_passes(tracer, layer,
                                                self.runner.cache)
        self.judge(digests_only(driven.outputs()), what="traced round")
        if driven.misses:
            self.failed += driven.misses
            self.problem(f"traced round: {driven.misses} misses in a "
                         f"filled cache")
        layer["eval.cache.get_ms_per_entry"] = (
            1e3 * totals["eval.cache.get"] / len(self.cells))
        layer.update(probes.codec_probe(driven.record_lists))
        self._suite_metrics(layer)


class _GridJob(_RunnerJob):
    cell_set = "grid"

    def _runner(self, k):
        return ParallelRunner(n_workers=self.n_workers, use_cache=False)

    def setup(self) -> None:
        self._expand(workloads.grid_suites(self.seed))
        if not self.reference and self.n_workers > 1:
            # serial == pool == resilient: the plain serial runner says
            # what the pools must reproduce.
            serial = ParallelRunner(n_workers=1, use_cache=False)
            for k in range(len(self.sweeps)):
                self._sweep(k, serial, what="serial reference")


class GridSerial(_GridJob):
    name = "grid-serial"

    def traced(self, tracer, layer):
        # Driven: each cell solo, its own trace build, one-shot run_all.
        driven, totals, traced = self._traced_passes(tracer, layer)
        self.judge(driven.outputs(), what="traced round")
        layer["netsim.trace_build_ms"] = timed_ms(
            lambda: make_trace(workloads.GRID_TRACE))
        batch = BatchRunner()
        layer["eval.batch.build_cells_s"] = 1e-3 * timed_ms(
            lambda: batch.build_cells(self.cells))
        batched = bracketed(*[clocked(partial(batch.run, sweep))
                              for sweep in self.sweeps])
        self.judge([(cell_digest(c.records), c.events)
                    for cells in batched.results for c in cells],
                   what="batch round")
        solo_s = totals["netsim.build"] + totals["netsim.run"]
        layer["eval.batch.interleave_ratio"] = (
            batched.calops / (solo_s * traced.cal_rate))
        self._suite_metrics(layer)


class GridPool(_GridJob):
    name = "grid-pool"
    n_workers = N_WORKERS
    # Both cores are busy for nearly all of a sweep.
    yardstick_procs = N_WORKERS

    def _dispatch(self, tracer, k):
        with tracer.span("eval.parallel.dispatch", k):
            _, wall = self._sweep(k, what="traced round")
        return self.last_out, wall

    def _dispatched(self, tracer) -> Timed:
        """The round again, one span per dispatched sweep."""
        return bracketed(*[partial(self._dispatch, tracer, k)
                           for k in range(len(self.sweeps))],
                         sample=self.sample)

    def traced(self, tracer, layer):
        serial_runner = ParallelRunner(n_workers=1, use_cache=False)
        serial = bracketed(*[
            partial(self._sweep, k, serial_runner, "serial round")
            for k in range(len(self.sweeps))])
        pool = self._dispatched(tracer)
        span_metrics(tracer, layer)
        layer["bench.trace_overhead_ratio"] = 1.0  # one span per sweep
        layer["netsim.events"] = sum(o.total_events for o in pool.results)
        in_cells = sum(r.elapsed for o in pool.results for r in o.results)
        layer["eval.parallel.pool_overhead_s"] = (
            pool.wall_s - in_cells / N_WORKERS)
        layer["eval.parallel.pool_efficiency"] = (
            serial.calops / (N_WORKERS * pool.calops))


def _note_task(path: str):
    """Chaos-hook observer: one line per task a pool worker starts."""
    def hook(arg) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{arg}\n")
    return hook


class GridResilient(GridPool):
    name = "grid-resilient"
    # The parent fingerprints every cell before the pool starts, about
    # 60 % of a sweep on one core: over ten minutes in 12 s windows the
    # in-process yardstick left 6.2 % between the windows' quartiles,
    # the two-process one 6.6 % (25 s windows: 4.3 % and 6.8 %).
    yardstick_procs = 1

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.task_log = tmp / "tasks.log"
        self.retries = 0

    def _runner(self, k):
        # A fresh journal per sweep: a reused one would resume every
        # cell and simulate nothing.
        return ParallelRunner(n_workers=N_WORKERS, use_cache=False,
                              retry=RetryPolicy(), cell_timeout=60.0,
                              checkpoint=self.fresh_dir() / "journal.jsonl")

    def _sweep(self, k, runner=None, what="round"):
        """A task the pool had to start twice was retried; its cells
        count as failed even though the retry produced them."""
        if runner is not None:
            return super()._sweep(k, runner, what)
        runner = self._runner(k)
        self.task_log.write_text("")
        set_chaos_hook(_note_task(str(self.task_log)))
        try:
            done = super()._sweep(k, runner, what)
        finally:
            set_chaos_hook(None)
        shutil.rmtree(runner.checkpoint_path.parent)
        tasks = self.task_log.read_text().split()
        retried = len(tasks) - len(set(tasks))
        if retried:
            self.retries += retried
            self.failed += retried
            self.problem(f"{what}: {retried} pool tasks were retried")
        return done

    def traced(self, tracer, layer):
        classic_runner = ParallelRunner(n_workers=N_WORKERS, use_cache=False)
        classic = bracketed(*[
            partial(self._sweep, k, classic_runner, "classic-pool round")
            for k in range(len(self.sweeps))], sample=self.sample)
        self.retries = 0
        resilient = self._dispatched(tracer)
        layer["bench.trace_overhead_ratio"] = 1.0  # one span per sweep
        layer["netsim.events"] = sum(o.total_events
                                     for o in resilient.results)
        layer["eval.resilience.pool_ratio"] = (
            resilient.calops / classic.calops)
        layer["eval.resilience.retries"] = self.retries

        with tracer.span("eval.scenarios.fingerprint"):
            fingerprints = [cell.fingerprint() for cell in self.cells]
        totals = span_metrics(tracer, layer)
        layer["eval.scenarios.fingerprint_ms_per_cell"] = (
            1e3 * totals["eval.scenarios.fingerprint"] / len(self.cells))
        results = [r for o in resilient.results for r in o.results]
        layer.update(probes.journal_probe(
            self.fresh_dir() / "journal.jsonl", fingerprints, results))
        layer.update(probes.codec_probe([r.records for r in results]))


class TrainOffline(Job):
    name = "train-offline"
    cell_set = "train"

    def setup(self) -> None:
        self.job = workloads.train_job(self.seed)
        self.pieces = [self._round]

    def _train(self, prepare=None):
        """Fresh trainer, one two-phase training run."""
        trainer = OfflineTrainer(spec=self.job.spec, config=self.job.config,
                                 seed=self.job.seed)
        if prepare is not None:
            prepare(trainer)
        t0 = time.perf_counter()
        result = trainer.train(**self.job.train_kwargs)
        wall = time.perf_counter() - t0
        return trainer, result, wall

    def _round(self, prepare=None, what="round"):
        trainer, result, wall = self._train(prepare)
        self.judge([(repr(result.log[-1].mean_reward),
                     state_digest(trainer.agent.model))],
                   ops=result.total_iterations, what=what)
        self.trainer = trainer
        # One log row per collected rollout of steps_per_iteration.
        return len(result.log) * self.job.config.steps_per_iteration, wall

    def traced(self, tracer, layer):
        plain = bracketed(partial(self._round, what="untraced round"))
        counts = {"env_steps": 0, "updates": 0}

        def prepare(trainer):
            collect, update = trainer.collector.collect, trainer.ppo.update

            def traced_collect(model, weights, steps, rng):
                with tracer.span("rl.collect"):
                    buffers, boots, reward = collect(model, weights, steps,
                                                     rng)
                counts["env_steps"] += sum(b.size for b in buffers)
                return buffers, boots, reward

            def traced_update(buffers, boots):
                counts["updates"] += 1
                with tracer.span("rl.ppo.update"):
                    return update(buffers, boots)

            trainer.collector.collect = traced_collect
            trainer.ppo.update = traced_update

        def traced_round():
            with tracer.span("core.offline.train"):
                return self._round(prepare, what="traced round")

        traced = bracketed(traced_round)
        layer["bench.trace_overhead_ratio"] = traced.calops / plain.calops
        totals = self_times(tracer.spans)
        layer["rl.collect.collect_s"] = totals["rl.collect"]
        layer["rl.ppo.update_s"] = totals["rl.ppo.update"]
        layer["core.offline.residual_s"] = totals["core.offline.train"]
        layer["rl.collect.share"] = (
            totals["rl.collect"] / sum(totals.values()))
        layer["rl.collect.env_steps"] = counts["env_steps"]
        layer["rl.ppo.updates"] = counts["updates"]
        model = self.trainer.agent.model
        layer.update(probes.env_step_probe(self.job.spec))
        layer.update(probes.policy_probe(model))
        layer.update(probes.vector_ratio_probe(self.job.spec, model))


JOBS = {cls.name: cls for cls in (
    EngineHeuristic, MoccCold, MoccWarm, GridSerial, GridPool,
    GridResilient, TrainOffline)}
