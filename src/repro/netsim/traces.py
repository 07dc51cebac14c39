"""Bandwidth traces: time-varying link capacity processes.

The paper's motivating experiment (Fig. 1a) uses a bottleneck whose
bandwidth oscillates between 20 and 30 Mbps; training randomises static
capacities over Table 3's ranges.  A trace maps simulation time to
capacity in packets/second so the link model never needs to know about
bits.

All traces are deterministic given their constructor arguments (the
random-walk trace takes an explicit seed), which keeps experiments
reproducible.
"""

from __future__ import annotations

import bisect
import hashlib
import math

import numpy as np

from repro.netsim.rngstreams import stream_rng

__all__ = [
    "mbps_to_pps",
    "pps_to_mbps",
    "BandwidthTrace",
    "ConstantTrace",
    "StepTrace",
    "RandomWalkTrace",
    "PiecewiseTrace",
    "register_trace",
    "freeze_trace",
    "make_trace",
    "trace_names",
    "trace_form",
    "named_trace_form",
]

#: Default simulated packet size (bytes).  1500 B is the standard
#: Ethernet MTU the paper's testbed uses.
DEFAULT_PACKET_BYTES = 1500


def mbps_to_pps(mbps: float, packet_bytes: int = DEFAULT_PACKET_BYTES) -> float:
    """Convert a bandwidth in Mbps to packets/second."""
    return mbps * 1e6 / (packet_bytes * 8)


def pps_to_mbps(pps: float, packet_bytes: int = DEFAULT_PACKET_BYTES) -> float:
    """Convert packets/second back to Mbps."""
    return pps * packet_bytes * 8 / 1e6


def _index_flip(interval: float, k: int) -> float:
    """Smallest float ``t`` with ``int(t / interval) >= k``, for ``k >= 1``.

    ``k * interval`` is only where the search starts: the product
    rounds, and so does the quotient that maps a time back to its
    index, so the float at which the index actually flips can sit an
    ulp to either side.  The quotient is monotone in ``t``; walk to
    the exact float.
    """
    t = k * interval
    while int(t / interval) >= k:
        t = math.nextafter(t, -math.inf)
    while int(t / interval) < k:
        t = math.nextafter(t, math.inf)
    return t


class BandwidthTrace:
    """Base class: capacity as a function of time (packets/second)."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # An inherited segment_at describes the parent's bandwidth_at.
        # A subclass that redefines the one without the other gets the
        # base answer -- never cached -- instead of a stale promise.
        if "bandwidth_at" in vars(cls) and "segment_at" not in vars(cls):
            cls.segment_at = BandwidthTrace.segment_at

    def bandwidth_at(self, t: float) -> float:
        """Instantaneous capacity at time ``t`` (seconds)."""
        raise NotImplementedError

    def segment_at(self, t: float) -> tuple:
        """``(rate, start, end)``: ``bandwidth_at`` is exactly ``rate``
        for every float in ``[start, end)``, and ``rate`` at ``t``.

        The one question the engine's hot paths ask of a trace.  A
        piecewise-constant trace answers with the piece around ``t``
        (``start <= t < end``), and :class:`~repro.netsim.link.Link`
        reuses the rate until an offer's time leaves it; a segment
        unbounded on both sides makes the link constant-rate outright
        (monitor intervals close without sampling the trace at all).
        The base answer is the *empty* segment ``[t, t)``, which
        promises nothing, so a continuous trace is looked up per offer.
        Segments need not be maximal.  Traces stay stateless: the
        current segment is the link's to keep.
        """
        return (self.bandwidth_at(t), t, t)

    def max_bandwidth(self) -> float:
        """Upper bound on capacity (used for rate clamping)."""
        raise NotImplementedError

    def mean_bandwidth(self, t0: float, t1: float) -> float:
        """Average capacity over ``[t0, t1]`` (midpoint sampling).

        ``[t0, t1]`` is split into nine equal sub-intervals and the
        capacity is read at each sub-interval's centre -- the midpoint
        rule, the per-MI estimate the engine takes on a varying link.  (Sampling ``linspace(t0, t1)`` instead would
        weight both endpoints' regimes twice and bias the estimate for
        step-like traces whose switch falls inside the interval.)
        """
        if t1 <= t0:
            return self.bandwidth_at(t0)
        samples = 9
        width = (t1 - t0) / samples
        at = self.bandwidth_at
        values = [at(float(t))
                  for t in (t0 + (np.arange(samples) + 0.5) * width)]
        # Same pairwise kernel np.mean(list) wraps, minus the wrapper.
        return float(np.add.reduce(np.asarray(values)) / samples)


class ConstantTrace(BandwidthTrace):
    """Fixed capacity."""

    def __init__(self, pps: float):
        if pps <= 0:
            raise ValueError("bandwidth must be positive")
        self.pps = float(pps)

    def bandwidth_at(self, t: float) -> float:
        return self.pps

    def segment_at(self, t: float) -> tuple:
        return (self.pps, -math.inf, math.inf)

    def max_bandwidth(self) -> float:
        return self.pps

    def mean_bandwidth(self, t0: float, t1: float) -> float:
        return self.pps

    @classmethod
    def from_mbps(cls, mbps: float, packet_bytes: int = DEFAULT_PACKET_BYTES) -> "ConstantTrace":
        return cls(mbps_to_pps(mbps, packet_bytes))


class StepTrace(BandwidthTrace):
    """Square wave between ``low`` and ``high``, toggling every ``period``.

    Fig. 1(a) uses this shape: the bottleneck alternates 20 <-> 30 Mbps.
    The wave starts at ``high``.
    """

    def __init__(self, low_pps: float, high_pps: float, period: float):
        if low_pps <= 0 or high_pps <= 0:
            raise ValueError("bandwidth must be positive")
        if period <= 0:
            raise ValueError("period must be positive")
        self.low = float(low_pps)
        self.high = float(high_pps)
        self.period = float(period)

    def bandwidth_at(self, t: float) -> float:
        return self.high if int(t / self.period) % 2 == 0 else self.low

    def segment_at(self, t: float) -> tuple:
        rate = self.bandwidth_at(t)
        if t < 0.0:
            # int() truncates towards zero, so the wave is not a mirror
            # image below zero.  No clock goes there: one float.
            return (rate, t, math.nextafter(t, math.inf))
        idx = int(t / self.period)
        return (rate, _index_flip(self.period, idx) if idx else 0.0,
                _index_flip(self.period, idx + 1))

    def max_bandwidth(self) -> float:
        return max(self.low, self.high)

    @classmethod
    def from_mbps(cls, low_mbps: float, high_mbps: float,
                  period: float) -> "StepTrace":
        return cls(mbps_to_pps(low_mbps), mbps_to_pps(high_mbps), period)


class RandomWalkTrace(BandwidthTrace):
    """Piecewise-constant multiplicative random walk within bounds.

    Every ``interval`` seconds the capacity is multiplied by a factor
    drawn uniformly from ``[1 - step, 1 + step]`` and clamped to
    ``[low, high]``.  The walk is pre-generated for ``horizon`` seconds
    so lookups are O(1).
    """

    def __init__(self, low_pps: float, high_pps: float, interval: float = 1.0,
                 step: float = 0.2, horizon: float = 600.0, seed: int = 0):
        if not 0 < low_pps <= high_pps:
            raise ValueError("need 0 < low <= high")
        rng = stream_rng("trace.synth", seed)
        n = max(1, int(np.ceil(horizon / interval)) + 1)
        self.interval = float(interval)
        self.low = low = float(low_pps)
        self.high = high = float(high_pps)
        # One array draw is the same generator doubles as n - 1 scalar
        # ones; the clamp is sequential, so it walks Python floats.
        value = rng.uniform(low, high)
        values = [value]
        for factor in (1.0 + rng.uniform(-step, step, n - 1)).tolist():
            value *= factor
            if value < low:
                value = low
            elif value > high:
                value = high
            values.append(value)
        self.values = np.array(values)

    def bandwidth_at(self, t: float) -> float:
        # Called nine times per monitor-interval close on a
        # trace-driven path: a compare-chain clamp and ``item``
        # (float64 -> float, exact) instead of min/max/len calls and a
        # boxed numpy scalar.
        values = self.values
        idx = int(t / self.interval)
        if idx < 0:
            idx = 0
        elif idx >= values.size:
            idx = values.size - 1
        return values.item(idx)

    def segment_at(self, t: float) -> tuple:
        values = self.values
        last = values.size - 1
        # Indices below zero and past the horizon clamp to the end
        # pieces, which therefore run to infinity.
        idx = min(max(int(t / self.interval), 0), last)
        return (values.item(idx),
                _index_flip(self.interval, idx) if idx > 0 else -math.inf,
                _index_flip(self.interval, idx + 1) if idx < last
                else math.inf)

    def max_bandwidth(self) -> float:
        return self.high


class PiecewiseTrace(BandwidthTrace):
    """Arbitrary (time, capacity) breakpoints with step interpolation.

    ``points`` is a sequence of ``(start_time, pps)`` pairs sorted by
    time; the capacity holds from each start time until the next.
    """

    def __init__(self, points: list[tuple[float, float]]):
        if not points:
            raise ValueError("need at least one breakpoint")
        times = [p[0] for p in points]
        if times != sorted(times):
            raise ValueError("breakpoints must be sorted by time")
        if any(p[1] <= 0 for p in points):
            raise ValueError("bandwidth must be positive")
        self.times = times
        self.pps = [float(p[1]) for p in points]

    def bandwidth_at(self, t: float) -> float:
        idx = bisect.bisect_right(self.times, t) - 1
        idx = max(idx, 0)
        return self.pps[idx]

    def segment_at(self, t: float) -> tuple:
        # The breakpoints are the boundaries, compared exactly as
        # bandwidth_at compares them.  Before the first one the first
        # rate already holds, as its own (non-maximal) piece.
        times = self.times
        after = bisect.bisect_right(times, t)
        return (self.pps[max(after - 1, 0)],
                times[after - 1] if after else -math.inf,
                times[after] if after < len(times) else math.inf)

    def max_bandwidth(self) -> float:
        return max(self.pps)


# --- named-trace registry ----------------------------------------------------
#
# Scenario descriptions (repro.eval.scenarios) must stay declarative and
# picklable, so they reference traces by *name*; the registry maps names
# to deterministic factories.  Factories (rather than instances) keep
# registration cheap and every lookup independent.

_TRACE_REGISTRY: dict = {}


def register_trace(name: str, factory) -> None:
    """Register a named trace factory (``factory() -> BandwidthTrace``).

    Experiments register their traces at import time; a second
    registration of a name raises, so two experiments cannot silently
    claim the same name.
    """
    if name in _TRACE_REGISTRY:
        raise ValueError(f"trace {name!r} already registered")
    # Import-time registration: the registry is append-only, populated
    # before any simulation runs, and guarded against overwrites above,
    # so batched cells can only ever *read* an entry (the one entry of
    # repro.analysis.ALLOWED).
    _TRACE_REGISTRY[name] = factory


def freeze_trace(trace: BandwidthTrace) -> BandwidthTrace:
    """Make a trace's payloads immutable in place and return it: arrays
    go read-only, lists become tuples (``bisect``, indexing and ``max``
    read a tuple exactly as they read a list).

    Traces are pure functions of time -- nothing in the engine writes
    to one -- so freezing is behaviourally inert; it turns the
    shared-immutable assumption batched execution relies on
    (:mod:`repro.eval.batch` hands one trace object to many cells)
    into a hard fault at the would-be mutation site.  Cache keys never
    see a frozen copy: signing builds its own instance.
    """
    for name, value in vars(trace).items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        elif isinstance(value, list):
            setattr(trace, name, tuple(value))
    return trace


def make_trace(name: str, cache: dict | None = None) -> BandwidthTrace:
    """Instantiate the registered trace ``name``.

    With ``cache`` (a plain dict keyed by trace name), the instance is
    memoized and frozen read-only on first build: registry factories
    are deterministic, so every cell of a batch sharing ``cache`` sees
    the same values it would have computed itself -- one build instead
    of N, and provably no cross-cell mutation channel.
    """
    if cache is not None:
        try:
            return cache[name]
        except KeyError:
            trace = cache[name] = freeze_trace(make_trace(name))
            return trace
    try:
        factory = _TRACE_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown trace {name!r}; registered: {trace_names()}"
        ) from None
    return factory()


def trace_names() -> tuple:
    """Names of all registered traces, sorted."""
    return tuple(sorted(_TRACE_REGISTRY))


def trace_form(trace, _owner=None, _signer=None) -> list | None:
    """Signing form of a field holding a live trace: its class and the
    content of every attribute (see :mod:`repro.netsim.signing`)."""
    if trace is None:
        return None
    form: list = [type(trace).__name__]
    for name in sorted(vars(trace)):
        value = vars(trace)[name]
        if isinstance(value, np.ndarray):
            value = hashlib.sha256(
                np.ascontiguousarray(value)).hexdigest()[:16]
        form.append([name, value if isinstance(value, str) else repr(value)])
    return form


def named_trace_form(name, _owner, signer) -> list | None:
    """Signing form of a field naming a registered trace: the *content*
    its factory currently produces, so re-registering a name is a cache
    miss and renaming it is not.  Each name is built once per pass."""
    if name is None:
        return None
    return signer.once(("named-trace", name), None,
                       lambda: trace_form(make_trace(name)))


def _leo_handover_trace() -> PiecewiseTrace:
    """LEO-satellite-like capacity: periodic handovers with deep dips.

    Low-earth-orbit constellations hand a terminal over to a new
    satellite every ~15 s; each handover briefly collapses the usable
    rate before the new beam settles at a different capacity.  Modelled
    as a piecewise-constant process over 600 s: every 15 s the capacity
    drops to ~2 Mbps for 0.8 s, then holds a fresh per-satellite draw
    from 25-60 Mbps.  Deterministic: seed 23.
    """
    rng = stream_rng("trace.synth", 23)
    points: list[tuple[float, float]] = []
    t = 0.0
    while t < 600.0:
        points.append((t, mbps_to_pps(2.0)))
        points.append((t + 0.8, mbps_to_pps(float(rng.uniform(25.0, 60.0)))))
        t += 15.0
    return PiecewiseTrace(points)


# Built-in named scenarios.  "fig1-step" is the paper's motivating
# oscillating bottleneck; the walk traces emulate cellular/WiFi-like
# capacity processes with fixed seeds so results are reproducible;
# "leo-handover" adds the satellite-handover regime the multi-hop/churn
# suites exercise.
register_trace("fig1-step", lambda: StepTrace.from_mbps(20.0, 30.0, period=5.0))
register_trace("cellular-walk", lambda: RandomWalkTrace(
    mbps_to_pps(2.0), mbps_to_pps(30.0), interval=1.0, step=0.3, seed=42))
register_trace("wifi-walk", lambda: RandomWalkTrace(
    mbps_to_pps(10.0), mbps_to_pps(60.0), interval=0.5, step=0.2, seed=7))
register_trace("leo-handover", _leo_handover_trace)
