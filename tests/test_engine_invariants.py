"""The engine invariants no lint rule checks are loud at run time.

The handler table, the five-field heap tuples, ``Packet``'s slots and
``Link.transmit``'s four-value result are enforced by the interpreter,
not by ``repro.analysis``.  One small scenario reaches every event
kind: a two-hop forward path whose second hop drops, and a lossy,
deep-buffered reverse link whose wire-dropped acks are either recovered
by a later cumulative ack or time out after the flow stops.  Its run,
down to every packet's fate, is pinned by a digest, so each such defect
planted by ``tests/mutants`` must raise or change it.
"""

import hashlib

import numpy as np

import repro.netsim.network as network
from repro.netsim.link import Link
from repro.netsim.network import FlowSpec
from repro.netsim.sender import ExternalRateController
from repro.netsim.topology import PathDef, Topology
from repro.netsim.traces import ConstantTrace

#: sha256 of ``repr`` of the every-kind run's outcome.
EVERY_KIND_DIGEST = ("d238551e5d495a88daf89ef38b2f821f"
                     "17c110362c93a97b1e1cda3869db3538")


def every_kind_topology() -> Topology:
    links = {
        "a": Link(ConstantTrace(1000.0), delay=0.005, queue_size=200,
                  rng=np.random.default_rng(1), name="a"),
        "b": Link(ConstantTrace(40.0), delay=0.005, queue_size=2,
                  rng=np.random.default_rng(2), name="b"),
        "rev": Link(ConstantTrace(500.0), delay=0.01, queue_size=500,
                    loss_rate=0.3, rng=np.random.default_rng(3), name="rev"),
    }
    return Topology(links, (PathDef("through", ("a", "b"),
                                    reverse_links=("rev",)),))


def every_kind_simulation(simulation_cls):
    """The scenario, built (not run) on ``simulation_cls``."""
    return simulation_cls(
        every_kind_topology(),
        [FlowSpec(ExternalRateController(60.0), path="through",
                  keep_packets=True, stop_time=3.0)],
        duration=6.0, seed=7)


def run(simulation_cls):
    """Run the scenario on ``simulation_cls``; return the flow and the
    run's outcome, down to every packet's fate."""
    sim = every_kind_simulation(simulation_cls)
    sim.run_all()
    flow = sim.flows[0]
    outcome = (sim.events_processed, flow.total_sent, flow.total_acked,
               flow.total_lost, flow.inflight,
               [(p.ack_time, p.dropped, p.drop_kind, p.ack_dropped,
                 p.ack_recovered) for p in flow.packets])
    return flow, outcome


def every_kind_run_holds(simulation_cls) -> None:
    """``simulation_cls`` runs the scenario exactly as pinned."""
    _, outcome = run(simulation_cls)
    assert (hashlib.sha256(repr(outcome).encode()).hexdigest()
            == EVERY_KIND_DIGEST)


def test_every_kind_run_keeps_its_digest():
    every_kind_run_holds(network.Simulation)


def test_scenario_reaches_every_defect_site():
    flow, _ = run(network.Simulation)
    # The run walks every path a defect sits on: hop events, forward
    # buffer drops, reverse loss notices, recovered acks and retransmit
    # timeouts.
    assert any(p.dropped and p.drop_kind == "buffer" for p in flow.packets)
    assert any(p.ack_recovered for p in flow.packets)
    assert any(p.ack_dropped for p in flow.packets)
    assert flow.total_lost > 0 and flow.pending_acks == {}
