"""A closed-form oracle for the monitor-interval statistics.

A bare :class:`~repro.netsim.sender.Flow` is driven through
``note_sent`` / ``note_ack`` / ``finish_mi`` along an RTT ramp
``rtt = a + b*t``.  The ramp's numbers are dyadic (ack times on a
1/1024 grid, ``a`` and ``b`` on 1/128 and 1/256 grids), so every send
time, every RTT the flow derives from it and every reference value in
exact rational arithmetic is exact.  Per interval the oracle expects:

* ``latency_gradient == b`` when the interval holds acks at two or more
  distinct times, else 0 (zero or one ack, or simultaneous acks);
* ``mean_rtt == a + b * mean(t)``, and ``None`` with no acks;

each within 1e-12 relative.  Each interval is pushed into a
:class:`~repro.netsim.history.StatHistory`, whose ``max_throughput``
tracker after every push is the running maximum of ``acked / duration``.

The oracle on the fixed ramps is the killer ``tests/mutants`` names for
its two ``sender.py`` defects and its ``history.py`` one: it alone -- no
digest -- must find each.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import repro.netsim.sender as sender
from repro.netsim.history import StatHistory
from repro.netsim.packet import Packet

#: Seconds at which the first interval opens: far enough from 0 that an
#: uncentred regression is visibly wrong.
T0 = 1.0
REL = 1e-12


def drive(flow_cls, a: Fraction, b: Fraction, intervals,
          history_cls=StatHistory) -> tuple:
    """Run the ramp through a fresh flow and a ``history_cls`` history.

    ``intervals`` is a list of ``(length, ticks)``: the interval lasts
    ``length`` seconds and acks at ``start + tick/1024 * length``.
    Returns ``(flow, times, maxima)``: per interval, its exact ack times
    and the history's ``max_throughput`` right after its push.
    """
    flow = flow_cls(0, sender.ExternalRateController(100.0), start_time=T0)
    history = history_cls(1)
    start, seq, times, maxima = Fraction(T0), 0, [], []
    for length, ticks in intervals:
        acks = [start + Fraction(tick, 1024) * length for tick in sorted(ticks)]
        for t in acks:
            packet = Packet(flow_id=0, seq=seq, send_time=float(t - (a + b * t)))
            seq += 1
            flow.note_sent(packet)
            flow.note_ack(packet, float(t))
        start += length
        stats = flow.finish_mi(float(start), 100.0, 0.04, 10.0)
        history.push(stats, stats.rate_pps)
        times.append(acks)
        maxima.append(history.max_throughput)
    return flow, times, maxima


def violations(flow_cls, a: Fraction, b: Fraction, intervals,
               history_cls=StatHistory) -> list[str]:
    """Where the flow's interval statistics leave the closed form."""
    flow, times, maxima = drive(flow_cls, a, b, intervals, history_cls)
    found, running_max = [], 0.0
    for i, (stats, acks, seen) in enumerate(zip(flow.records, times, maxima)):
        if not acks:
            if stats.mean_rtt is not None or stats.latency_gradient != 0.0:
                found.append(f"MI {i}: no acks gave mean {stats.mean_rtt}, "
                             f"gradient {stats.latency_gradient}")
        else:
            mean = float(a + b * sum(acks) / len(acks))
            if stats.mean_rtt is None or abs(stats.mean_rtt - mean) > REL * mean:
                found.append(f"MI {i}: mean RTT {stats.mean_rtt}, want {mean}")
            slope = float(b) if len(set(acks)) > 1 else 0.0
            if abs(stats.latency_gradient - slope) > REL * abs(slope):
                found.append(f"MI {i}: gradient {stats.latency_gradient}, "
                             f"want {slope}")
        running_max = max(running_max, stats.acked / (stats.end - stats.start))
        if seen != running_max:
            found.append(f"MI {i}: max throughput {seen}, want {running_max}")
    return found


#: Fixed ramps the planted defects are checked on: rising and falling,
#: uneven interval lengths, and among them an empty interval, a one-ack
#: one and one whose two acks land at the same time.
RAMPS = (
    (Fraction(1, 2), Fraction(3, 256),
     [(Fraction(1), [0, 100, 512, 1000]), (Fraction(1, 2), []),
      (Fraction(1, 4), [7]), (Fraction(1), list(range(0, 1024, 64)))]),
    (Fraction(3, 4), Fraction(-5, 256),
     [(Fraction(1, 2), [3, 3]), (Fraction(1), [10, 20, 30, 40, 1020])]),
)

dyadic_a = st.integers(0, 64).map(lambda k: Fraction(1, 2) + Fraction(k, 128))
dyadic_b = st.integers(1, 16).flatmap(
    lambda k: st.sampled_from((Fraction(k, 256), Fraction(-k, 256))))
interval_lists = st.lists(
    st.tuples(st.sampled_from((Fraction(1, 4), Fraction(1, 2), Fraction(1))),
              st.lists(st.integers(0, 1023), max_size=24)),
    min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(a=dyadic_a, b=dyadic_b, intervals=interval_lists)
@example(*RAMPS[0])
@example(*RAMPS[1])
@example(a=Fraction(1, 2), b=Fraction(1, 256), intervals=[(Fraction(1), [])])
@example(a=Fraction(1, 2), b=Fraction(1, 256), intervals=[(Fraction(1), [5])])
def test_interval_statistics_follow_the_ramp(a, b, intervals):
    assert violations(sender.Flow, a, b, intervals) == []


def test_zero_and_one_ack_intervals():
    flow, _, _ = drive(sender.Flow, Fraction(1, 2), Fraction(1, 64),
                       [(Fraction(1), []), (Fraction(1), [9])])
    empty, single = flow.records
    assert empty.mean_rtt is None and empty.latency_gradient == 0.0
    assert single.latency_gradient == 0.0
    assert single.mean_rtt == float(Fraction(1, 2)
                                    + Fraction(1, 64) * (2 + Fraction(9, 1024)))


def fixed_ramps_hold(flow_cls, history_cls=StatHistory) -> None:
    """``flow_cls`` and ``history_cls`` meet the closed form on every
    fixed ramp."""
    assert [message for ramp in RAMPS
            for message in violations(flow_cls, *ramp, history_cls)] == []


def test_fixed_ramps_follow_the_closed_form():
    fixed_ramps_hold(sender.Flow)
