"""Per-layer probes: each times calls into one layer's public functions.

Everything here is measured from outside -- no ``_private`` name, no
``engine=``/``transit=`` argument -- so the numbers follow whatever the
default path is after the engine collapse.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.eval import build_competition, scheme_factory
from repro.eval.resilience import (
    SweepCheckpoint,
    record_from_json,
    record_to_json,
)
from repro.netsim.sender import Controller
from repro.rl.parallel import SerialCollector, VectorCollector

from ledgerlib.catalog import CONTROLLER_SCHEMES
from ledgerlib.verify import cell_digest

__all__ = ["build_with_proxies", "codec_probe", "controller_probe",
           "env_step_probe", "journal_probe", "policy_probe",
           "replint_probe", "timing_proxy", "vector_ratio_probe"]

#: Hooks in which a scheme takes its control decisions.
DECISION_HOOKS = ("on_mi", "on_ack", "on_loss")
#: Every hook the engine may call on a controller.
ALL_HOOKS = ("on_flow_start",) + DECISION_HOOKS + (
    "pacing_rate", "cwnd", "inflight_cap")


def _timed_hook(hook: str):
    def method(self, *args):
        t0 = time.perf_counter()
        try:
            return self.bound[hook](*args)
        finally:
            self.seconds[hook] += time.perf_counter() - t0
            self.calls[hook] += 1
    method.__name__ = hook
    return method


def timing_proxy(inner: Controller) -> Controller:
    """Per-hook timing proxy around ``inner``.

    The engine caches bound hooks when the flow is built and skips
    hooks a controller's *class* never overrode, so the proxy class is
    made per inner type with exactly the hooks that type overrides:
    the engine then fires the same calls it would without the proxy.
    (Unlike ``eval.overhead.ProfilingController``, which wraps every
    hook and reports one total.)
    """
    overridden = [h for h in ALL_HOOKS
                  if getattr(type(inner), h) is not getattr(Controller, h)]
    namespace = {hook: _timed_hook(hook) for hook in overridden}
    namespace["__getattr__"] = lambda self, name: getattr(self.inner, name)
    cls = type(f"TimingProxy[{type(inner).__name__}]", (Controller,),
               namespace)
    proxy = cls()
    proxy.kind = inner.kind
    proxy.name = inner.name
    proxy.inner = inner
    proxy.bound = {hook: getattr(inner, hook) for hook in overridden}
    proxy.seconds = dict.fromkeys(overridden, 0.0)
    proxy.calls = dict.fromkeys(overridden, 0)
    return proxy


def build_with_proxies(scenario):
    """``scheme_factory`` -> proxy -> ``build_competition`` for a
    single-link scenario: the wiring ``build_scenario_simulation`` does,
    with the proxy in place before the engine caches bound hooks."""
    if scenario.topology is not None or scenario.trace is not None:
        raise ValueError("the controller probe drives single-link cells")
    proxies = []
    for flow in scenario.flows:
        kwargs = {}
        if flow.scheme == "mocc":
            kwargs = {"mocc_agent": flow.agent, "mocc_weights": flow.weights}
        elif flow.scheme.startswith("aurora"):
            kwargs = {"aurora_agent": flow.agent}
        seed = scenario.seed if flow.seed is None else flow.seed
        proxies.append(timing_proxy(scheme_factory(
            flow.scheme, scenario.network, seed=seed, **kwargs)))
    sim = build_competition(
        proxies, scenario.network, duration=scenario.duration,
        start_times=[f.start for f in scenario.flows],
        stop_times=[f.stop for f in scenario.flows], seed=scenario.seed,
        mi_duration=scenario.mi_duration)
    return sim, proxies


def controller_probe(cells, reference: dict, tracer) -> tuple[dict, list]:
    """Run ``cells`` (single-flow, single-link) behind timing proxies.

    ``reference`` maps cell name to the digest the standard path gives;
    a proxied cell whose digest differs is a failure (the proxy must
    not perturb results).  Returns the ``controller.*`` metrics and the
    names of mismatching cells.  Hook time and the exact counts ride
    on each cell's span as counters.
    """
    totals = {s: {"decision_s": 0.0, "decisions": 0, "hook_s": 0.0,
                  "acked": 0, "run_s": 0.0} for s in CONTROLLER_SCHEMES}
    calls = inferences = 0
    mismatched = []
    for i, cell in enumerate(cells):
        scheme = cell.flows[0].scheme.split("-")[0]
        with tracer.span("controller-probe", trace_id=i) as span:
            sim, (proxy,) = build_with_proxies(cell)
            t0 = time.perf_counter()
            records = sim.run_all()
            run_s = time.perf_counter() - t0
            row = totals[scheme]
            row["run_s"] += run_s
            row["hook_s"] += sum(proxy.seconds.values())
            row["acked"] += sum(s.acked for s in records[0].records)
            for hook in DECISION_HOOKS:
                row["decision_s"] += proxy.seconds.get(hook, 0.0)
                row["decisions"] += proxy.calls.get(hook, 0)
            cell_calls = sum(proxy.calls.values())
            cell_inferences = getattr(proxy.inner, "inference_count", 0)
            calls += cell_calls
            inferences += cell_inferences
            span.counters = {"scheme": scheme, "calls": cell_calls,
                             "hook_s": sum(proxy.seconds.values()),
                             "inferences": cell_inferences}
        if cell_digest(records) != reference[cell.name]:
            mismatched.append(cell.name)
    metrics = {"controller.calls": calls, "core.agent.inferences": inferences}
    for scheme, row in totals.items():
        prefix = f"controller.{scheme}"
        metrics[f"{prefix}.decision_us"] = (
            1e6 * row["decision_s"] / row["decisions"]
            if row["decisions"] else 0.0)
        metrics[f"{prefix}.per_packet_us"] = (
            1e6 * row["hook_s"] / row["acked"] if row["acked"] else 0.0)
        metrics[f"{prefix}.share"] = (
            row["hook_s"] / row["run_s"] if row["run_s"] else 0.0)
    return metrics, mismatched


def policy_probe(model, acts: int = 5000, rows: int = 256) -> dict:
    """``model.act`` on one observation; one ``rows``-row ``forward``."""
    rng = np.random.default_rng(0)
    obs = rng.standard_normal(model.obs_dim)
    weights = (np.array([0.5, 0.3, 0.2]) if model.weight_dim > 0 else None)
    t0 = time.perf_counter()
    for _ in range(acts):
        model.act(obs, weights, rng, deterministic=True)
    act_us = 1e6 * (time.perf_counter() - t0) / acts
    batch = rng.standard_normal((rows, model.obs_dim))
    w_batch = (np.repeat(weights[None, :], rows, axis=0)
               if weights is not None else None)
    repeats = 50
    t0 = time.perf_counter()
    for _ in range(repeats):
        model.forward(batch, w_batch)
    forward_us = 1e6 * (time.perf_counter() - t0) / (repeats * rows)
    return {"rl.policy.act_us": act_us,
            "rl.policy.forward_us_per_row": forward_us}


def codec_probe(record_lists) -> dict:
    """``record_to_json`` / ``record_from_json`` on the workload's own
    records (one FlowRecord per flow per cell)."""
    records = [r for cell in record_lists for r in cell]
    t0 = time.perf_counter()
    payloads = [record_to_json(r) for r in records]
    encode_s = time.perf_counter() - t0
    # Decode what a cache entry or journal line holds: parsed JSON.
    payloads = json.loads(json.dumps(payloads))
    t0 = time.perf_counter()
    for payload in payloads:
        record_from_json(payload)
    decode_s = time.perf_counter() - t0
    return {
        "eval.resilience.encode_us_per_record": 1e6 * encode_s / len(records),
        "eval.resilience.decode_us_per_record": 1e6 * decode_s / len(records)}


def journal_probe(path: Path, fingerprints, results) -> dict:
    """``SweepCheckpoint.record`` for every cell, then ``resume`` over
    the finished journal.  ``results`` are ``ScenarioResult`` rows."""
    journal = SweepCheckpoint(path)
    journal.resume(fingerprints)
    t0 = time.perf_counter()
    for idx, (fp, result) in enumerate(zip(fingerprints, results)):
        journal.record(idx, fp, result.records, result.elapsed, result.events)
    record_s = time.perf_counter() - t0
    journal.close()
    size = path.stat().st_size
    journal = SweepCheckpoint(path)
    t0 = time.perf_counter()
    restored = journal.resume(fingerprints)
    resume_s = time.perf_counter() - t0
    journal.close()
    if len(restored) != len(fingerprints):
        raise RuntimeError("journal resume lost cells it had just recorded")
    n = len(fingerprints)
    return {"eval.resilience.journal_ms_per_cell": 1e3 * record_s / n,
            "eval.resilience.journal_bytes_per_cell": size / n,
            "eval.resilience.resume_ms_per_cell": 1e3 * resume_s / n}


def env_step_probe(spec, steps: int = 1500) -> dict:
    """``MoccEnv.step`` at a constant action (no policy in the loop)."""
    env = spec.build()
    weights = np.array([0.5, 0.3, 0.2])
    env.reset(weights)
    t0 = time.perf_counter()
    for _ in range(steps):
        done = env.step(0.0)[4]
        if done:
            env.reset(weights)
    return {"netsim.env.step_us": 1e6 * (time.perf_counter() - t0) / steps}


def vector_ratio_probe(spec, model, steps: int = 1024) -> dict:
    """``VectorCollector(n_envs=4)`` over ``SerialCollector`` steps/s on
    the same spec (the Fig. 19 parallel-rollout row)."""
    weights = np.array([0.5, 0.3, 0.2])
    rates = []
    for collector in (SerialCollector(spec), VectorCollector(spec, n_envs=4)):
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        buffers, _, _ = collector.collect(model, weights, steps, rng)
        wall = time.perf_counter() - t0
        rates.append(sum(b.size for b in buffers) / wall)
        collector.close()
    return {"rl.parallel.vector_ratio": rates[1] / rates[0]}


def replint_probe(src_dir: Path) -> dict:
    """One ``python -m repro.analysis`` run over the live tree."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    summary = json.loads(proc.stdout)["summary"]
    return {"analysis.replint_s": wall, "analysis.files": summary["files"],
            "analysis.findings": summary["total"]}
