"""Names, units and bounds of everything the ledger reports.

``BENCHMARK.json`` at the repo root states the same catalogue for the
driver; ``test_ledger_contract.py`` fails when the two disagree.

The driver wants a full matrix: every workload reports every
end-to-end metric.  The dispatch mode (cold/warm cache, serial/pool/
resilient pool) is therefore part of the *workload*, and the headline
rate is one metric, ``ops_per_mcalop``, whose op is the workload's own
unit of work (see :data:`WORKLOADS`).  Per-layer metrics are also a
full matrix; a layer a workload does not exercise reads 0 there, which
is itself the statement "this layer cannot move this workload".
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CONTROLLER_SCHEMES", "END_TO_END", "EXACT", "PER_LAYER",
           "RUN_SECONDS", "WORKLOADS", "Metric", "Workload"]

#: Seconds one run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    #: What one "op" of ``ops_per_mcalop`` / ``attempted`` is here.
    op: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end only; per-layer metrics have no bound).
    bound: float | None = None


WORKLOADS = (
    Workload(
        "engine-heuristic", "1000 sim events",
        "9 long heuristic cells, serial build+run_all, no cache or pool: "
        "event loop is >=97% so engine changes show at full size; "
        "inference, cache and dispatch changes must show nothing"),
    Workload(
        "mocc-cold", "cell",
        "66 single-flow MOCC/Aurora cells through a serial runner into an "
        "empty cache: per-MI policy inference is ~40% of cell time, plus "
        "fingerprint, build, encode and cache put"),
    Workload(
        "mocc-warm", "cell",
        "the same 66 cells served from the filled cache: only fingerprint, "
        "cache get and decode run, so a codec gain on the write side that "
        "costs the read side shows here"),
    Workload(
        "grid-serial", "cell",
        "256 x 0.25 s wifi-walk cells, uncached, one process: per-cell "
        "set-up and batch interleave are comparable to the event loop; "
        "control for the two pool workloads"),
    Workload(
        "grid-pool", "cell",
        "the same 256 cells over the classic 2-worker pool: adds fork, "
        "IPC and result aggregation, the dispatch layer used one way"),
    Workload(
        "grid-resilient", "cell",
        "the same 256 cells over the 2-worker resilient pool with retry, "
        "timeout and a checkpoint journal: the dispatch layer used the "
        "other way, plus forced fingerprints and journal writes"),
    Workload(
        "train-offline", "env step",
        "two-phase OfflineTrainer.train on the Table-3 env: rollouts "
        "drive netsim one monitor interval per run(until=) call, so "
        "per-slice cost and the PPO update show only here"),
)

# Inter-quartile distance over median of ten runs at ten seeds, while
# this shared host is calm: the rate 2-4 %, memory under 2 %, set-up
# time 3-5 %.  In rougher quarter-hours the rate of single workloads
# has shown 12-18 % and the medians of two such sets have differed by
# 13 %, so the rate and set-up time take the most the driver allows.
END_TO_END = (
    Metric("ops_per_mcalop", "op/mcalop", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Learned and heuristic schemes the controller probe times (Fig. 17).
CONTROLLER_SCHEMES = ("cubic", "bbr", "copa", "vivace", "mocc", "aurora")


def _per_layer() -> tuple:
    rows = [
        # netsim
        ("netsim.events", "count", "lower"),
        ("netsim.mi_count", "count", "lower"),
        ("netsim.run_calops_per_event", "calop", "lower"),
        ("netsim.build_ms_per_cell", "ms", "lower"),
        ("netsim.trace_build_ms", "ms", "lower"),
        ("netsim.slice_ratio", "ratio", "lower"),
        ("netsim.env.step_us", "us", "lower"),
        # controllers (baselines, core.agent)
        ("controller.calls", "count", "lower"),
        ("core.agent.inferences", "count", "lower"),
    ]
    for scheme in CONTROLLER_SCHEMES:
        rows += [(f"controller.{scheme}.decision_us", "us", "lower"),
                 (f"controller.{scheme}.per_packet_us", "us", "lower"),
                 (f"controller.{scheme}.share", "ratio", "lower")]
    rows += [
        # rl.policy / rl.nn
        ("rl.policy.act_us", "us", "lower"),
        ("rl.policy.forward_us_per_row", "us", "lower"),
        # eval.scenarios
        ("eval.scenarios.expand_ms", "ms", "lower"),
        ("eval.scenarios.fingerprint_ms_per_cell", "ms", "lower"),
        # eval.parallel
        ("eval.cache.put_ms_per_entry", "ms", "lower"),
        ("eval.cache.get_ms_per_entry", "ms", "lower"),
        ("eval.cache.bytes_per_entry", "B", "lower"),
        ("eval.cache.hits", "count", "higher"),
        ("eval.cache.misses", "count", "lower"),
        ("eval.parallel.runner_residual_s", "s", "lower"),
        ("eval.parallel.pool_overhead_s", "s", "lower"),
        ("eval.parallel.pool_efficiency", "ratio", "higher"),
        ("eval.parallel.table_ms", "ms", "lower"),
        # eval.batch
        ("eval.batch.build_cells_s", "s", "lower"),
        ("eval.batch.interleave_ratio", "ratio", "lower"),
        # eval.resilience
        ("eval.resilience.encode_us_per_record", "us", "lower"),
        ("eval.resilience.decode_us_per_record", "us", "lower"),
        ("eval.resilience.journal_ms_per_cell", "ms", "lower"),
        ("eval.resilience.journal_bytes_per_cell", "B", "lower"),
        ("eval.resilience.resume_ms_per_cell", "ms", "lower"),
        ("eval.resilience.pool_ratio", "ratio", "lower"),
        ("eval.resilience.retries", "count", "lower"),
        # rl.collect / rl.parallel / rl.ppo / core.offline
        ("rl.collect.collect_s", "s", "lower"),
        ("rl.collect.share", "ratio", "lower"),
        ("rl.collect.env_steps", "count", "lower"),
        ("rl.ppo.update_s", "s", "lower"),
        ("rl.ppo.updates", "count", "lower"),
        ("core.offline.residual_s", "s", "lower"),
        ("rl.parallel.vector_ratio", "ratio", "higher"),
        # analysis
        ("analysis.replint_s", "s", "lower"),
        ("analysis.files", "count", "lower"),
        ("analysis.findings", "count", "lower"),
        # layer self times from the traced round (spans.py)
        ("span.fingerprint_s", "s", "lower"),
        ("span.cache_get_s", "s", "lower"),
        ("span.build_s", "s", "lower"),
        ("span.run_s", "s", "lower"),
        ("span.cache_put_s", "s", "lower"),
        ("span.dispatch_s", "s", "lower"),
        # the benchmark itself
        ("bench.calibration_ops_per_s", "1/s", "higher"),
        ("bench.calibration_spread", "ratio", "lower"),
        ("bench.wall_s", "s", "lower"),
        ("bench.setup_raw_s", "s", "lower"),
        ("bench.trace_overhead_ratio", "ratio", "lower"),
    ]
    return tuple(Metric(*row) for row in rows)


PER_LAYER = _per_layer()

#: Per-layer counts that repeat bit-for-bit for a given seed and may
#: gate with zero tolerance (``--selfcheck`` requires identity).
EXACT = frozenset({
    "netsim.events", "netsim.mi_count", "controller.calls",
    "core.agent.inferences", "eval.cache.hits", "eval.cache.misses",
    "eval.resilience.retries", "rl.collect.env_steps", "rl.ppo.updates",
    "analysis.findings",
})
