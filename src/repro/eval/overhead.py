"""Control-loop CPU overhead measurement (Fig. 17).

The paper compares CPU utilization of user-space schemes (UDT-based
MOCC, Aurora, Vivace -- model inference or micro-experiment logic runs
in the datapath at per-interval granularity) against kernel-space
schemes (CCP-based MOCC, Orca, CUBIC, Vegas, BBR -- the control logic
is decoupled from the datapath and consulted far less often).

In simulation we measure the same quantity directly: the wall-clock
time spent inside a controller's decision callbacks per simulated
second of traffic.  The *relative* ordering (UDT-style per-interval
inference >> CCP-style batched inference ~ heuristics) is the result
the paper's Fig. 17 reports.

What is timed for the learned schemes is the deployed inference path:
one actor-only, no-grad forward per consulted interval through the
flow's :class:`~repro.rl.policy.InferencePlan` (no critic, no
log-probability, preference embedding computed once per flow) -- about
10 us a decision against 1-3 us for the heuristics, so the ordering
above holds with a ~3-10x gap rather than the ~30x the full
``model.act`` call used to cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.netsim.sender import Controller

__all__ = ["ProfilingController", "OverheadReport", "measure_overhead"]


class ProfilingController(Controller):
    """Transparent proxy accumulating wall-clock time in callbacks."""

    def __init__(self, inner: Controller):
        self.inner = inner
        self.kind = inner.kind
        self.name = inner.name
        self.control_seconds = 0.0
        self.calls = 0

    def _timed(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.control_seconds += time.perf_counter() - start
            self.calls += 1

    def on_flow_start(self, flow, now):
        return self._timed(self.inner.on_flow_start, flow, now)

    def on_ack(self, flow, packet, now):
        return self._timed(self.inner.on_ack, flow, packet, now)

    def on_loss(self, flow, packet, now):
        return self._timed(self.inner.on_loss, flow, packet, now)

    def on_mi(self, flow, stats, now):
        return self._timed(self.inner.on_mi, flow, stats, now)

    def pacing_rate(self, now):
        return self._timed(self.inner.pacing_rate, now)

    def cwnd(self, now):
        return self._timed(self.inner.cwnd, now)

    def inflight_cap(self, now):
        return self.inner.inflight_cap(now)


@dataclass
class OverheadReport:
    """Control cost of one scheme over one run."""

    scheme: str
    control_seconds: float
    sim_seconds: float
    calls: int
    inference_count: int

    @property
    def control_us_per_sim_second(self) -> float:
        """Microseconds of control computation per simulated second."""
        if self.sim_seconds <= 0:
            return 0.0
        return 1e6 * self.control_seconds / self.sim_seconds


def measure_overhead(controller: Controller, network, duration: float = 20.0,
                     seed: int = 0) -> OverheadReport:
    """Run one flow and report its control-loop cost.

    ``network`` is an :class:`repro.eval.runner.EvalNetwork`; import is
    deferred to avoid a cycle.
    """
    from repro.eval.runner import build_competition

    profiled = ProfilingController(controller)
    build_competition([profiled], network, duration=duration,
                      seed=seed).run_all()
    inference = getattr(controller, "inference_count", 0)
    # Datapath shims expose their wrapped library's counter.
    library = getattr(controller, "library", None)
    if library is not None:
        inference = max(inference, getattr(library, "inference_count", 0))
    return OverheadReport(scheme=controller.name,
                          control_seconds=profiled.control_seconds,
                          sim_seconds=duration, calls=profiled.calls,
                          inference_count=inference)
