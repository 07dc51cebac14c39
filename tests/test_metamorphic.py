"""Metamorphic relations of the engine, as Hypothesis properties.

``Link.transmit`` runs three fault steps (outage, brownout, bursty
loss) only on a link with a fault process, and promises that they
change no float and draw nothing wherever no fault is active.  Two
relations hold it to that without a closed form or a second
implementation.  Each compares a cell with its faulted twin
(``strategies.faulted_cells``: 2- and 3-hop parking lots and an
asymmetric dumbbell, its ``rev`` link included x steady, staggered or
periodic on-off churn x seed x faulted link) on ``records_digest`` and
``events_processed``:

* (A) faults that cannot act before the cell ends equal faults-off:
  flap, brownout and blackout windows that all open at or after
  ``duration``, and Gilbert-Elliott chains that never enter their lossy
  state, alone or mixed;
* (B) a flap schedule whose outages last no time equals no schedule.

A third relation needs no faults:

* (C) scale invariance.  The engine counts in packets, so doubling
  every link's ``bandwidth_mbps``, the packet size and the ack size
  (``strategies.scaled_cells``, over the same line-ups, Copa standing
  in for Vivace) leaves every packets-per-second value bit-identical:
  k = 2 is exact in binary floating point.  ``events_processed`` and
  every record are then bit-identical, except ``packet_bytes`` and
  ``mean_throughput_mbps``, which double exactly.

Relations A and C also hold on one fixed cell each, and those two
tests are killers in ``tests/mutants``: a drop-tail defect planted in
the fault-only backlog step of ``transmit`` must break A, and a later
hop's service demand given in bytes must break C.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings

import repro.eval.scenarios as scenarios_module
import repro.netsim.network as network
from repro.eval.resilience import records_digest
from repro.eval.scenarios import build_scenario_simulation
from repro.netsim.faults import RateBrownout
from repro.netsim.link import Link
from strategies import (
    RELATION_DURATION,
    RELATION_LINEUPS,
    faulted_cell,
    faulted_cells,
    late_faults,
    scaled_cell,
    scaled_cells,
    zero_outage_flaps,
)

#: Faults-off outcomes by cell name; they skip the fault steps of
#: ``transmit``, the only ones a relation-A defect is planted in.
_CLEAN: dict = {}


def run(scenario, faulted_link: str | None = None) -> tuple:
    """``(records_digest, events_processed)`` of one cell, run in
    process.  With ``faulted_link``, that link must have carried
    traffic through its fault process, or the relation is vacuous."""
    sim = build_scenario_simulation(scenario)
    outcome = records_digest(sim.run_all()), sim.events_processed
    if faulted_link is not None:
        link = sim.topology.links[faulted_link]
        assert link.fault is not None
        assert link.delivered + link.dropped_buffer + link.dropped_random > 0
    return outcome


def relation_holds(cell) -> bool:
    """The faulted twin reproduces the faults-off cell exactly."""
    if cell.clean.name not in _CLEAN:
        _CLEAN[cell.clean.name] = run(cell.clean)
    return run(cell.faulted, cell.link) == _CLEAN[cell.clean.name]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(cell=faulted_cells(late_faults()))
def test_faults_opening_after_the_cell_ends_change_nothing(cell):
    assert relation_holds(cell), cell.faults


@settings(max_examples=25, derandomize=True, deadline=None)
@given(cell=faulted_cells(zero_outage_flaps()))
def test_a_zero_outage_flap_is_no_schedule(cell):
    assert relation_holds(cell), cell.faults


def late_brownout_holds(transmit) -> None:
    """Relation A on one cell, with ``transmit`` as the links' offer: a
    brownout after the end on hop0 of the 2-hop lot, shared by the
    through flow and its cross traffic, so the fault steps run all cell
    long with no fault ever active."""
    cell = faulted_cell(RELATION_LINEUPS[0], None, 0, "hop0",
                        (RateBrownout(start=RELATION_DURATION, duration=1.0,
                                      factor=0.5),))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Link, "transmit", transmit)
        assert relation_holds(cell)


def test_a_brownout_after_the_end_changes_nothing():
    late_brownout_holds(Link.transmit)


def halved(record):
    """``record`` with its two byte-denominated values halved, which is
    exact in binary floating point."""
    return replace(record,
                   mean_throughput_mbps=record.mean_throughput_mbps / 2,
                   records=[replace(mi, packet_bytes=mi.packet_bytes // 2)
                            for mi in record.records])


def scale_free(cell) -> bool:
    """The doubled twin reproduces the cell, byte-denominated values
    aside."""
    base = build_scenario_simulation(cell.base)
    scaled = build_scenario_simulation(cell.scaled)
    base_records, scaled_records = base.run_all(), scaled.run_all()
    return (scaled.events_processed == base.events_processed
            and records_digest(list(map(halved, scaled_records)))
            == records_digest(base_records))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(cell=scaled_cells())
def test_doubling_capacity_and_packet_size_changes_nothing(cell):
    assert scale_free(cell), cell.base.name


def long_lot_scale_free(simulation_cls) -> None:
    """Relation C on a 4 s 2-hop lot, run on ``simulation_cls``.

    The through flow reaches a second hop.  Were that hop's service
    demand given in bytes, its first packet there would hold the
    500 pps hop for 3 s (6 s doubled), so only a cell longer than that
    tells the scales apart."""
    cell = scaled_cell(RELATION_LINEUPS[0], None, 0, duration=4.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios_module, "Simulation", simulation_cls)
        assert scale_free(cell)


def test_doubling_a_four_second_lot_changes_nothing():
    long_lot_scale_free(network.Simulation)
