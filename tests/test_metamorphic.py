"""Metamorphic relations of the engine, as Hypothesis properties.

``Link._transmit_faulted`` promises the same contract and the same
float arithmetic as ``Link.transmit`` wherever no fault is active.  Two
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

Defects planted by one anchored text substitution, in the idiom of
``tests/test_engine_invariants.py``, must break relation A (one in
``_transmit_faulted``) and relation C (a later hop's service demand
given in bytes, as ``tests/test_conservation.py`` plants it).
"""

from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings

import repro.eval.scenarios as scenarios_module
import repro.netsim.link as link_module
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
from test_conservation import DEFECTS as ENGINE_DEFECTS
from test_engine_invariants import SOURCE as ENGINE_SOURCE
from test_engine_invariants import engine

SOURCE = Path(link_module.__file__).read_text()

#: ``(text in link.py, its planted replacement)``: the faulted
#: drop-tail test admits one packet fewer than the unfaulted one.
DEFECT = ("backlog_time * rate >= self.queue_size + 1.0 - 1e-9",
          "backlog_time * rate >= self.queue_size - 1e-9")

#: Faults-off outcomes by cell name; the plain ``transmit`` path they
#: take is never planted on.
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


def planted(source: str):
    """``Link._transmit_faulted`` as ``source`` defines it."""
    namespace = {"__name__": link_module.__name__}
    exec(compile(source, link_module.__file__, "exec"), namespace)
    return namespace["Link"]._transmit_faulted


def test_planted_faulted_drop_tail_breaks_relation_a(monkeypatch):
    old, new = DEFECT
    assert SOURCE.count(old) == 1, "the defect's site moved; re-anchor it"
    # A brownout after the end: hop0 of the 2-hop lot, shared by the
    # through flow and its cross traffic, runs _transmit_faulted all
    # cell long with no fault ever active.
    cell = faulted_cell(RELATION_LINEUPS[0], None, 0, "hop0",
                        (RateBrownout(start=RELATION_DURATION, duration=1.0,
                                      factor=0.5),))
    monkeypatch.setattr(Link, "_transmit_faulted", planted(SOURCE))
    assert relation_holds(cell)  # the unmutated exec is the link itself
    monkeypatch.setattr(Link, "_transmit_faulted",
                        planted(SOURCE.replace(old, new)))
    assert not relation_holds(cell)


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


def test_planted_hop_size_in_bytes_breaks_relation_c(monkeypatch):
    _, old, new = ENGINE_DEFECTS["hop-size-in-bytes"]
    assert ENGINE_SOURCE.count(old) == 1, "the defect's site moved; re-anchor it"
    # The 2-hop lot's through flow reaches a second hop.  Under the
    # defect its first packet there holds the 500 pps hop for 3 s (6 s
    # doubled), so only a cell longer than that tells the scales apart.
    cell = scaled_cell(RELATION_LINEUPS[0], None, 0, duration=4.0)
    monkeypatch.setattr(scenarios_module, "Simulation", engine(ENGINE_SOURCE))
    assert scale_free(cell)  # the unmutated exec is the engine itself
    monkeypatch.setattr(scenarios_module, "Simulation",
                        engine(ENGINE_SOURCE.replace(old, new)))
    assert not scale_free(cell)
