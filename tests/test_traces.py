"""Tests for bandwidth traces (repro.netsim.traces)."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.rngstreams import stream_rng
from repro.netsim.traces import (
    BandwidthTrace,
    ConstantTrace,
    PiecewiseTrace,
    RandomWalkTrace,
    StepTrace,
    _index_flip,
    make_trace,
    mbps_to_pps,
    pps_to_mbps,
    trace_names,
)


class TestUnitConversion:
    def test_mbps_to_pps_1500B(self):
        # 12 Mbps at 1500 B (12000 bit) packets = 1000 pps.
        assert mbps_to_pps(12.0) == pytest.approx(1000.0)

    def test_roundtrip(self):
        assert pps_to_mbps(mbps_to_pps(23.7)) == pytest.approx(23.7)

    @given(st.floats(0.1, 1000.0))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, mbps):
        assert pps_to_mbps(mbps_to_pps(mbps)) == pytest.approx(mbps, rel=1e-12)

    def test_packet_size_scaling(self):
        assert mbps_to_pps(12.0, packet_bytes=3000) == pytest.approx(500.0)


class TestConstantTrace:
    def test_value_everywhere(self):
        t = ConstantTrace(100.0)
        assert t.bandwidth_at(0.0) == 100.0
        assert t.bandwidth_at(1e6) == 100.0
        assert t.max_bandwidth() == 100.0
        assert t.mean_bandwidth(0, 10) == 100.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantTrace(0.0)

    def test_from_mbps(self):
        assert ConstantTrace.from_mbps(12.0).pps == pytest.approx(1000.0)


def mean_uses_true_midpoints(step_trace_cls) -> None:
    """Regression: endpoint-inclusive sampling double-weighted both
    regimes of an interval straddling a capacity switch.

    Over [0, 9] of a 100/200 wave with a 3 s period, the switches at
    3 and 6 fall on sub-interval edges of the nine samples, so the
    midpoint rule gives the analytic mean, 1500 / 9; the old
    ``linspace(t0, t1, samples)`` sampling returned 1400 / 9 here
    (its endpoint sample at 9 lands in the next low regime).
    """
    t = step_trace_cls(low_pps=100.0, high_pps=200.0, period=3.0)
    assert t.mean_bandwidth(0.0, 9.0) == pytest.approx(1500.0 / 9.0)
    # Over a full 1 s cycle the nine-sample estimate stays within one
    # sub-interval's weight of the analytic mean.
    t = step_trace_cls(low_pps=100.0, high_pps=200.0, period=1.0)
    assert t.mean_bandwidth(0.0, 2.0) == pytest.approx(150.0, rel=0.08)


class TestStepTrace:
    def test_square_wave(self):
        t = StepTrace(low_pps=20.0, high_pps=30.0, period=5.0)
        assert t.bandwidth_at(0.0) == 30.0   # starts high
        assert t.bandwidth_at(4.9) == 30.0
        assert t.bandwidth_at(5.1) == 20.0
        assert t.bandwidth_at(10.1) == 30.0

    def test_fig1a_settings(self):
        """Fig. 1(a): link oscillates between 20 and 30 Mbps."""
        t = StepTrace.from_mbps(20.0, 30.0, period=10.0)
        values = {t.bandwidth_at(x) for x in np.arange(0, 50, 1.0)}
        assert values == {mbps_to_pps(20.0), mbps_to_pps(30.0)}

    def test_mean_uses_true_midpoints(self):
        mean_uses_true_midpoints(StepTrace)

    def test_mean_midpoints_respect_offset_interval(self):
        # [1, 10] is 5 s high, 4 s low: analytic mean 1400 / 9, and
        # every switch falls on a sub-interval edge.
        t = StepTrace(low_pps=100.0, high_pps=200.0, period=3.0)
        assert t.mean_bandwidth(1.0, 10.0) == pytest.approx(1400.0 / 9.0)

    def test_max(self):
        assert StepTrace(10.0, 30.0, 1.0).max_bandwidth() == 30.0

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            StepTrace(10.0, 30.0, 0.0)


class TestRandomWalkTrace:
    def test_within_bounds(self):
        t = RandomWalkTrace(50.0, 150.0, interval=0.5, horizon=100.0, seed=3)
        for x in np.linspace(0, 100, 500):
            assert 50.0 <= t.bandwidth_at(float(x)) <= 150.0

    def test_deterministic_by_seed(self):
        a = RandomWalkTrace(50.0, 150.0, seed=1)
        b = RandomWalkTrace(50.0, 150.0, seed=1)
        assert a.bandwidth_at(42.0) == b.bandwidth_at(42.0)

    def test_different_seeds_differ(self):
        a = RandomWalkTrace(50.0, 150.0, seed=1)
        b = RandomWalkTrace(50.0, 150.0, seed=2)
        samples = [(a.bandwidth_at(t), b.bandwidth_at(t)) for t in range(100)]
        assert any(x != y for x, y in samples)

    def test_actually_varies(self):
        t = RandomWalkTrace(50.0, 150.0, interval=1.0, step=0.3, seed=0)
        values = {t.bandwidth_at(float(x)) for x in range(50)}
        assert len(values) > 5

    def test_beyond_horizon_clamps(self):
        t = RandomWalkTrace(50.0, 150.0, horizon=10.0, seed=0)
        assert t.bandwidth_at(1e9) == t.bandwidth_at(10.0)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            RandomWalkTrace(100.0, 50.0)


class TestPiecewiseTrace:
    def test_step_interpolation(self):
        t = PiecewiseTrace([(0.0, 10.0), (5.0, 20.0), (8.0, 5.0)])
        assert t.bandwidth_at(0.0) == 10.0
        assert t.bandwidth_at(4.99) == 10.0
        assert t.bandwidth_at(5.0) == 20.0
        assert t.bandwidth_at(100.0) == 5.0

    def test_before_first_breakpoint(self):
        t = PiecewiseTrace([(1.0, 10.0)])
        assert t.bandwidth_at(0.0) == 10.0

    def test_unsorted_raises(self):
        with pytest.raises(ValueError):
            PiecewiseTrace([(5.0, 1.0), (0.0, 2.0)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            PiecewiseTrace([])

    def test_max(self):
        assert PiecewiseTrace([(0, 3.0), (1, 7.0)]).max_bandwidth() == 7.0


# --- the segment contract ------------------------------------------------------
#
# ``segment_at(t) -> (rate, start, end)`` promises that ``bandwidth_at``
# is exactly ``rate`` for every float in ``[start, end)``.  Link caches
# on that promise, so it is checked at the floats where it could break:
# the segment's own first and last float, one float outside either end,
# and ``k * interval`` with its two neighbours.

INF = math.inf


def up(x: float) -> float:
    return math.nextafter(x, INF)


def down(x: float) -> float:
    return math.nextafter(x, -INF)


def check_segment(trace, t, fractions=()):
    """The contract at ``t``, probed across the returned segment."""
    rate, start, end = trace.segment_at(t)
    assert start <= t < end, (t, start, end)
    lo = start if start != -INF else t - 1e6
    hi = down(end) if end != INF else t + 1e6
    probes = [t, lo, hi] + [min(max(lo + f * (hi - lo), lo), hi)
                            for f in fractions]
    for probe in probes:
        assert trace.bandwidth_at(probe) == rate, (t, probe, start, end)
    return rate, start, end


def check_around(trace, t, fractions=()):
    """The contract at ``t`` and at the floats just outside its segment
    (where a boundary taken on trust, not found, would be off by one)."""
    _, start, end = check_segment(trace, t, fractions)
    if end != INF:
        check_segment(trace, end)
    if start != -INF:
        check_segment(trace, down(start))


def near_multiples(interval, k, nudge):
    """``k * interval`` or the float either side of it."""
    t = k * interval
    return (down(t), t, up(t))[nudge]


times = st.one_of(st.floats(-20.0, 80.0), st.floats(-1e9, 1e9))
fractions = st.lists(st.floats(0.0, 1.0), max_size=4)
intervals = st.one_of(st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0, 1e-3, 3.3]),
                      st.floats(1e-3, 5.0))
walks = st.builds(
    RandomWalkTrace, low_pps=st.floats(1.0, 500.0),
    high_pps=st.floats(500.0, 9000.0), interval=intervals,
    step=st.floats(0.0, 0.5), horizon=st.floats(0.5, 40.0),
    seed=st.integers(0, 2**31))
# Either level may be the larger one, so waves that start low are drawn.
steps = st.builds(StepTrace, low_pps=st.floats(1.0, 9000.0),
                  high_pps=st.floats(1.0, 9000.0), period=intervals)
pieces = st.builds(
    lambda ts, rates: PiecewiseTrace(
        list(zip(sorted(ts), (rates * len(ts))[:len(ts)]))),
    st.lists(st.one_of(st.floats(-5.0, 50.0), st.integers(0, 50)),
             min_size=1, max_size=8),
    st.lists(st.floats(1.0, 9000.0), min_size=1, max_size=8))


class TestSegmentContract:
    @pytest.mark.parametrize("name", trace_names())
    @given(t=times, fractions=fractions, k=st.integers(0, 1300),
           nudge=st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_registered_traces(self, name, t, fractions, k, nudge):
        trace = make_trace(name)
        check_around(trace, t, fractions)
        if isinstance(trace, PiecewiseTrace):
            boundary = trace.times[k % len(trace.times)]
        else:
            boundary = k * (trace.interval if isinstance(
                trace, RandomWalkTrace) else trace.period)
        check_around(trace, near_multiples(boundary, 1, nudge))

    @given(trace=walks, t=times, fractions=fractions,
           k=st.integers(0, 60), nudge=st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_random_walk(self, trace, t, fractions, k, nudge):
        check_around(trace, t, fractions)
        check_around(trace, near_multiples(trace.interval, k, nudge))
        # negative times and times past the horizon are the end pieces
        assert trace.segment_at(-3.0)[1] == -INF
        assert trace.segment_at(1e9)[2] == INF

    @given(trace=steps, t=times, fractions=fractions,
           k=st.integers(0, 10**6), nudge=st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_step(self, trace, t, fractions, k, nudge):
        check_around(trace, t, fractions)
        check_around(trace, near_multiples(trace.period, k, nudge))
        check_around(trace, -near_multiples(trace.period, k, nudge))

    @given(trace=pieces, t=times, fractions=fractions,
           at=st.integers(0, 7), nudge=st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_piecewise(self, trace, t, fractions, at, nudge):
        check_around(trace, t, fractions)
        boundary = float(trace.times[at % len(trace.times)])
        check_around(trace, near_multiples(boundary, 1, nudge))

    @given(interval=intervals, k=st.integers(1, 10**7))
    @settings(max_examples=300, deadline=None)
    def test_index_flip_is_the_first_float_of_its_index(self, interval, k):
        flip = _index_flip(interval, k)
        assert int(flip / interval) >= k > int(down(flip) / interval)

    def test_walk_pieces_are_maximal(self):
        # A conservative segment would still be correct, just refreshed
        # more often than the rate changes.
        trace = make_trace("wifi-walk")
        assert trace.segment_at(0.7)[1:] == (0.5, 1.0)
        assert trace.segment_at(0.2)[1:] == (-INF, 0.5)

    def test_constant_is_one_unbounded_segment(self):
        assert ConstantTrace(250.0).segment_at(3.0) == (250.0, -INF, INF)
        # ... and so is a walk with a single value
        single = RandomWalkTrace(50.0, 150.0, interval=1.0, horizon=0.0)
        assert single.values.size == 1
        assert single.segment_at(7.0) == (single.values.item(0), -INF, INF)

    def test_base_class_promises_nothing(self):
        class Sinusoid(BandwidthTrace):
            def bandwidth_at(self, t):
                return 100.0 + 10.0 * math.sin(t)

        trace = Sinusoid()
        rate, start, end = trace.segment_at(1.25)
        assert rate == trace.bandwidth_at(1.25)
        assert not start <= 1.25 < end

    @pytest.mark.parametrize("base, args", [
        (ConstantTrace, (100.0,)), (StepTrace, (20.0, 30.0, 5.0)),
        (RandomWalkTrace, (50.0, 150.0)),
        (PiecewiseTrace, ([(0.0, 10.0), (5.0, 20.0)],))])
    def test_overriding_bandwidth_at_drops_the_inherited_segments(
            self, base, args):
        class Ramped(base):
            def bandwidth_at(self, t):
                return super().bandwidth_at(t) + t

        class Renamed(base):
            """Adds nothing the segments depend on."""

        class Both(base):
            def bandwidth_at(self, t):
                return 7.0

            def segment_at(self, t):
                return (7.0, -1.0, 1.0)

        rate, start, end = Ramped(*args).segment_at(2.0)
        assert rate == Ramped(*args).bandwidth_at(2.0) and start == end
        assert Renamed(*args).segment_at(2.0) == base(*args).segment_at(2.0)
        assert Both(*args).segment_at(0.0) == (7.0, -1.0, 1.0)


class TestWalkSynthesis:
    @pytest.mark.parametrize("name, sha", [
        ("wifi-walk", "090b7dcbfe71d4ad"),
        ("cellular-walk", "324f4cb53b6497e5")])
    def test_registered_walk_values_are_the_scalar_loops(self, name, sha):
        """The shas of the per-step ``rng.uniform`` loop PR 21 replaced
        with one array draw: every named-trace cache key hangs off them."""
        values = make_trace(name).values
        assert values.dtype == np.float64
        assert hashlib.sha256(
            np.ascontiguousarray(values)).hexdigest()[:16] == sha

    @given(low=st.one_of(st.floats(1.0, 500.0), st.integers(1, 500)),
           high=st.floats(500.0, 9000.0), step=st.floats(0.0, 0.9),
           horizon=st.floats(0.0, 30.0), seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_equals_the_scalar_loop(self, low, high, step, horizon, seed):
        trace = RandomWalkTrace(low, high, interval=0.5, step=step,
                                horizon=horizon, seed=seed)
        rng = stream_rng("trace.synth", seed)
        values = np.empty(trace.values.size)
        values[0] = rng.uniform(low, high)
        for i in range(1, values.size):
            factor = 1.0 + rng.uniform(-step, step)
            values[i] = min(max(values[i - 1] * factor, low), high)
        assert values.tobytes() == trace.values.tobytes()
