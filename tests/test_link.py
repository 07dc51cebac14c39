"""Tests for the bottleneck link model (repro.netsim.link).

``transmit()`` returns the allocation-free outcome tuple
``(delivered, drop_kind, depart_time, queue_delay)`` -- the PR 5
hot-path contract.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.faults import FaultProcess, RateBrownout
from repro.netsim.link import Link
from repro.netsim.rngstreams import RNG_BLOCK, stream_rng
from repro.netsim.traces import (
    BandwidthTrace, ConstantTrace, RandomWalkTrace, StepTrace, make_trace)


def make_link(pps=100.0, delay=0.01, queue=50, loss=0.0, seed=0):
    return Link(ConstantTrace(pps), delay=delay, queue_size=queue,
                loss_rate=loss, rng=np.random.default_rng(seed))


def loss_draws_follow_the_stream(link_cls, seed=3, p=0.3) -> None:
    """A lossy link drops exactly the offers that per-offer scalar
    ``rng.random() < p`` draws from a fresh ``link.loss`` stream drop,
    across two block boundaries, with every other offer taking the
    fault steps (an idle fault process) on the one shared buffer."""
    n = 2 * RNG_BLOCK + 7
    link = link_cls(ConstantTrace(1e9), delay=0.0, queue_size=10**6,
                    loss_rate=p, rng=stream_rng("link.loss", seed, 0))
    idle = FaultProcess((), seed, 0)
    dropped = []
    for i in range(n):
        link.fault = idle if i % 2 else None
        dropped.append(not link.transmit(i * 1e-6)[0])
    reference = stream_rng("link.loss", seed, 0)
    assert dropped == [reference.random() < p for _ in range(n)]


def backlog_at(link, t: float) -> float:
    """Queue occupancy (packets) at time ``t``: the work still ahead of
    an arrival, at the rate the link serves it."""
    return link.queue_delay_at(t) * link.bandwidth_at(t)


class TestTransmit:
    def test_idle_link_delay(self):
        link = make_link(pps=100.0, delay=0.01)
        delivered, drop_kind, depart, queue_delay = link.transmit(0.0)
        assert delivered and drop_kind is None
        # service (1/100) + propagation (0.01)
        assert depart == pytest.approx(0.02)
        assert queue_delay == 0.0

    def test_queueing_builds(self):
        link = make_link(pps=100.0, delay=0.0, queue=1000)
        first = link.transmit(0.0)
        second = link.transmit(0.0)
        assert second[3] == pytest.approx(0.01)          # queue_delay
        assert second[2] == pytest.approx(first[2] + 0.01)  # depart_time

    def test_fifo_ordering(self):
        link = make_link(pps=50.0, delay=0.005, queue=1000)
        departs = [link.transmit(0.0)[2] for _ in range(10)]
        assert departs == sorted(departs)

    def test_queue_drains_over_time(self):
        link = make_link(pps=100.0, delay=0.0, queue=1000)
        for _ in range(10):
            link.transmit(0.0)
        assert link.queue_delay_at(0.0) == pytest.approx(0.1)
        assert link.queue_delay_at(0.05) == pytest.approx(0.05)
        assert link.queue_delay_at(1.0) == 0.0

    def test_buffer_overflow_drops(self):
        link = make_link(pps=100.0, delay=0.0, queue=5)
        outcomes = [link.transmit(0.0) for _ in range(10)]
        dropped = [r for r in outcomes if not r[0]]
        assert dropped, "expected drops beyond the 5-packet buffer"
        assert all(r[1] == "buffer" for r in dropped)
        assert link.dropped_buffer == len(dropped)

    def test_zero_queue_drops_when_busy(self):
        link = make_link(pps=100.0, delay=0.0, queue=0)
        assert link.transmit(0.0)[0]
        assert not link.transmit(0.0)[0]

    def test_random_loss_statistics(self):
        link = make_link(pps=1e9, delay=0.0, queue=10**6, loss=0.3, seed=1)
        n = 5000
        delivered = sum(link.transmit(i * 1e-6)[0] for i in range(n))
        assert delivered / n == pytest.approx(0.7, abs=0.03)

    def test_random_loss_keeps_timing(self):
        """Random drops happen on the wire: depart time is still computed."""
        link = make_link(pps=100.0, delay=0.01, queue=100, loss=0.999, seed=2)
        delivered, drop_kind, depart, _ = link.transmit(0.0)
        if not delivered:
            assert drop_kind == "random"
            assert depart > 0.0

    def test_wire_loss_draws_are_the_streams_scalar_draws(self):
        loss_draws_follow_the_stream(Link)

    @settings(max_examples=20, deadline=None)
    @given(queue=st.integers(1, 30), n=st.integers(1, 100))
    def test_backlog_never_exceeds_buffer(self, queue, n):
        link = make_link(pps=100.0, delay=0.0, queue=queue)
        for _ in range(n):
            link.transmit(0.0)
            assert backlog_at(link, 0.0) <= queue + 1 + 1e-6


class TestSizedTransmit:
    def test_small_packet_takes_proportional_service(self):
        link = make_link(pps=100.0, delay=0.01)
        assert link.transmit(0.0, size=0.5)[2] == pytest.approx(0.005 + 0.01)
        assert link.busy_until == pytest.approx(0.005)

    def test_default_size_unchanged(self):
        a, b = make_link(), make_link()
        assert a.transmit(0.0)[2] == b.transmit(0.0, size=1.0)[2]

    def test_acks_fill_buffers_slowly(self):
        """40/1500-sized transmits occupy backlog at their true ratio:
        a queue that drops the 6th data packet holds ~190 acks."""
        data, acks = make_link(pps=100.0, delay=0.0, queue=5), \
            make_link(pps=100.0, delay=0.0, queue=5)
        data_ok = sum(data.transmit(0.0)[0] for _ in range(200))
        ack_ok = sum(acks.transmit(0.0, size=40 / 1500)[0]
                     for _ in range(200))
        assert data_ok == 6  # queue 5 + the one in service
        assert ack_ok > 150


class TestConstantRateFastPath:
    def test_constant_trace_rate_is_cached(self):
        link = make_link(pps=250.0)
        assert link._const_rate == 250.0
        assert link.bandwidth_at(0.0) == 250.0
        assert link.bandwidth_at(123.0) == 250.0

    def test_varying_trace_not_cached(self):
        trace = StepTrace(100.0, 200.0, period=1.0)
        link = Link(trace, delay=0.0, queue_size=10)
        assert link._const_rate is None
        assert link.bandwidth_at(0.0) == trace.bandwidth_at(0.0)
        assert link.bandwidth_at(1.5) == trace.bandwidth_at(1.5)

    def test_varying_trace_transmit_matches_trace_rate(self):
        trace = StepTrace(100.0, 200.0, period=1.0)
        link = Link(trace, delay=0.0, queue_size=10)
        # First phase is high (200 pps): service = 1/200.
        assert link.transmit(0.0)[2] == pytest.approx(1.0 / 200.0)


class CountingStep(StepTrace):
    """A square wave that counts how often the link consults it."""

    calls = 0

    def bandwidth_at(self, t):
        self.calls += 1
        return super().bandwidth_at(t)

    # The same function of time, so the inherited pieces still hold (a
    # bare ``bandwidth_at`` override drops them); each lookup reads
    # ``bandwidth_at`` once.
    segment_at = StepTrace.segment_at


class Sinusoid(BandwidthTrace):
    """Continuous: overrides ``bandwidth_at`` and nothing else."""

    def bandwidth_at(self, t):
        return 150.0 + 50.0 * math.sin(t)


def rate_charged(link, t, rate):
    """Whether an idle zero-delay link serves a packet offered at ``t``
    at exactly ``rate`` (``transmit``'s own depart arithmetic)."""
    link.busy_until = 0.0
    return link.transmit(t)[2] == t + 0.0 + 1.0 / rate + 0.0


class TestTraceSegmentCache:
    """A trace-driven link keeps the trace's current segment and asks
    again only when an offer's time leaves it -- per link, never stale."""

    def test_trace_is_consulted_once_per_segment(self):
        trace = CountingStep(100.0, 200.0, 1.0)
        link = Link(trace, delay=0.0, queue_size=10**6)
        built = trace.calls
        for i in range(200):
            link.transmit(i * 0.004)            # all inside [0, 1)
            link.bandwidth_at(i * 0.004)
        assert trace.calls == built
        assert link.transmit(1.25)[3] == 0.0    # idle again, low phase
        assert trace.calls == built + 1
        assert link.bandwidth_at(1.5) == 100.0 and trace.calls == built + 1

    def test_rates_across_a_boundary_are_the_traces(self):
        trace = make_trace("wifi-walk")
        link = Link(trace, delay=0.0, queue_size=10)
        boundary = trace.segment_at(0.2)[2]
        for t in (0.2, math.nextafter(boundary, -math.inf), boundary,
                  boundary + 0.2, 7.3, 599.9, 1e6):
            assert rate_charged(link, t, trace.bandwidth_at(t))
            assert link.bandwidth_at(t) == trace.bandwidth_at(t)

    def test_non_monotone_times_read_the_right_rate_both_times(self):
        """A drop's notice is timed at a *future* cursor (the engine
        reads ``bandwidth_at`` there), then the clock carries on."""
        trace = StepTrace(100.0, 200.0, period=1.0)
        link = Link(trace, delay=0.0, queue_size=10)
        assert rate_charged(link, 0.9, 200.0)
        assert link.bandwidth_at(1.1) == 100.0      # the future cursor
        assert rate_charged(link, 0.95, 200.0)  # the clock again
        assert link.bandwidth_at(2.5) == 200.0
        assert link.bandwidth_at(1.5) == 100.0

    def test_continuous_trace_is_never_served_a_reused_rate(self):
        trace = Sinusoid()
        link = Link(trace, delay=0.0, queue_size=10)
        assert link._const_rate is None
        seen = set()
        for i in range(50):
            t = i * 0.01
            assert link.bandwidth_at(t) == trace.bandwidth_at(t)
            assert rate_charged(link, t, trace.bandwidth_at(t))
            seen.add(link.bandwidth_at(t))
        assert len(seen) == 50

    def test_assigning_a_trace_mid_run_drops_the_cached_segment(self):
        link = Link(StepTrace(100.0, 200.0, period=1.0), delay=0.0,
                    queue_size=10)
        assert rate_charged(link, 0.1, 200.0)
        link.trace = StepTrace(300.0, 400.0, period=1.0)
        assert rate_charged(link, 0.1, 400.0)
        assert link.bandwidth_at(0.1) == 400.0
        link.trace = 250.0
        assert link._const_rate == 250.0
        assert rate_charged(link, 0.1, 250.0)
        link.trace = StepTrace(100.0, 200.0, period=1.0)
        assert link._const_rate is None
        assert rate_charged(link, 1.1, 100.0)

    def test_constant_subclass_overriding_bandwidth_at_is_not_constant(self):
        class Wobbly(ConstantTrace):
            def bandwidth_at(self, t):
                return self.pps * (1.0 + 0.1 * math.sin(t))

        trace = Wobbly(100.0)
        link = Link(trace, delay=0.0, queue_size=10)
        assert link._const_rate is None
        assert link.bandwidth_at(1.0) == trace.bandwidth_at(1.0) != 100.0
        assert rate_charged(link, 2.0, trace.bandwidth_at(2.0))

    def test_single_valued_walk_is_constant_rate(self):
        trace = RandomWalkTrace(50.0, 150.0, horizon=0.0)
        link = Link(trace, delay=0.0, queue_size=10)
        assert link._const_rate == trace.values.item(0)

    def test_faulted_twin_reads_through_the_segment(self):
        trace = CountingStep(100.0, 200.0, 1.0)
        link = Link(trace, delay=0.0, queue_size=10)
        link.fault = FaultProcess(
            (RateBrownout(start=0.5, duration=1.0, factor=0.5),),
            seed=0, index=0)
        built = trace.calls
        want = {0.2: 200.0, 0.7: 100.0, 1.2: 50.0, 1.7: 100.0, 0.3: 200.0}
        for t, rate in want.items():
            assert rate_charged(link, t, rate)
            assert link.bandwidth_at(t) == rate
        assert trace.calls == built + 2     # into [1, 2), and back

    def test_shared_trace_stays_stateless(self):
        trace = make_trace("cellular-walk")
        before = dict(vars(trace))
        a = Link(trace, delay=0.0, queue_size=10)
        b = Link(trace, delay=0.0, queue_size=10)
        a.transmit(3.5)
        assert rate_charged(b, 0.5, trace.bandwidth_at(0.5))
        assert a.bandwidth_at(3.6) == trace.bandwidth_at(3.6)
        assert vars(trace).keys() == before.keys()
        assert all(vars(trace)[k] is before[k] for k in before)


class TestAccounting:
    def test_counters(self):
        link = make_link(pps=100.0, delay=0.0, queue=2)
        for _ in range(5):
            link.transmit(0.0)
        assert link.delivered + link.dropped_buffer == 5


class TestProperties:
    def test_float_trace_promotion(self):
        link = Link(250.0, delay=0.01, queue_size=10)
        assert link.bandwidth_at(0.0) == 250.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_link(delay=-1.0)
        with pytest.raises(ValueError):
            Link(ConstantTrace(1.0), 0.0, -1)
        with pytest.raises(ValueError):
            Link(ConstantTrace(1.0), 0.0, 1, loss_rate=1.0)
