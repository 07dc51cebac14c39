"""Metamorphic relations of the fault layer, as Hypothesis properties.

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

A defect planted in ``_transmit_faulted`` by one anchored text
substitution, in the idiom of ``tests/test_engine_invariants.py``, must
break relation A.
"""

from pathlib import Path

from hypothesis import given, settings

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
    zero_outage_flaps,
)

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
