"""The figure registry (``repro.eval.sweeps.FIGURES``).

Benchmarks do not run in tier-1, so a registry entry that no longer
builds, or that silently changed its cells, would surface only at the
next bench run.  Here every entry is built and fingerprinted with the
pinned ``fast`` checkpoints of the perf ledger standing in for the
zoo's models, and the figures that used to hand-roll serial
single-flow loops (Figs. 1a, 1b, 6 and 8, and Fig. 16's evaluation)
are checked against those loops, re-spelled here with live
controllers: on a reduced grid, the runner's records are the loops'
records, bit for bit.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import BBR, Cubic, Vegas
from repro.baselines.aurora import AuroraController
from repro.config import DEFAULT_TRAINING
from repro.core import simplex_grid
from repro.core.agent import MoccAgent, MoccController
from repro.core.weights import LATENCY_WEIGHTS, THROUGHPUT_WEIGHTS, sample_weight
from repro.eval.parallel import ParallelRunner
from repro.eval.resilience import records_digest
from repro.eval.runner import EvalNetwork, build_competition, scheme_factory
from repro.eval.scenarios import fingerprint_cells
from repro.eval.sweeps import FIGURES, fig16_cells, figure_cells
from repro.netsim.signing import Signer
from repro.netsim.traces import RandomWalkTrace, StepTrace, mbps_to_pps

ASSETS = Path(__file__).parent.parent / "benchmarks" / "ledger" / "assets"

#: ``(cells, distinct keys)`` per entry: what each figure runs.  Fig.
#: 5's bandwidth and loss sweeps share their base point, and an
#: ack-congestion line-up with no upload is the same cell under either
#: churn: the result cache serves each once.
SIZES = {"fig1a": (3, 3), "fig1b": (18, 18), "fig5ad": (112, 105),
         "fig5eh": (112, 105), "fig6": (336, 336), "fig8": (4, 4),
         "fig11": (1, 1), "fig12": (3, 3), "fig13": (4, 4), "fig14": (6, 6),
         "fig15": (15, 15), "multihop-churn": (24, 24),
         "ack-congestion": (48, 40)}

#: sha256 of every entry's cell signatures, in registry order, under
#: :func:`models`: a change to any figure's cells, seeds or sizing
#: moves it.
SIGNATURES_SHA = ("81b6ba83b8780cdc68fe4d80402531d9"
                  "2fbafd3702f76eb6adba20da1f957466")


@pytest.fixture(scope="module")
def models() -> dict:
    """The pinned checkpoints in the zoo's place; Aurora-latency and
    the enhanced-Aurora set are seeded untrained single-objective
    models, so no two line-ups share an agent."""
    aurora = MoccAgent.load(ASSETS / "aurora_throughput_fast_seed0.npz")
    return {
        "mocc_agent": MoccAgent.load(ASSETS / "mocc_fast_seed0.npz"),
        "aurora_throughput": aurora,
        "aurora_latency": MoccAgent(DEFAULT_TRAINING, weight_dim=0, seed=1),
        "enhanced_aurora": [(w, MoccAgent(DEFAULT_TRAINING, weight_dim=0,
                                          seed=10 + i))
                            for i, w in enumerate(simplex_grid(5))],
    }


def test_every_entry_builds_named_fingerprinted_cells(models):
    sizes = {}
    for name in FIGURES:
        cells = figure_cells(name, models)
        assert len({cell.name for cell in cells}) == len(cells), name
        sizes[name] = len(cells), len(set(fingerprint_cells(cells)))
    assert sizes == SIZES


def test_every_entrys_cells_are_pinned(models):
    signer = Signer()
    signatures = [[signer.sign(cell) for cell in figure_cells(name, models)]
                  for name in FIGURES]
    digest = hashlib.sha256(json.dumps(signatures).encode()).hexdigest()
    assert digest == SIGNATURES_SHA


def _run_one(controller, network, duration, seed):
    """What a figure's serial loop did per cell."""
    return build_competition([controller], network, duration=duration,
                             seed=seed).run_all()


def _fig1a_loop(models, duration):
    network = EvalNetwork(bandwidth_mbps=30.0, one_way_ms=20.0, buffer_bdp=1.0,
                          loss_rate=0.0002,
                          trace=StepTrace.from_mbps(20.0, 30.0, period=10.0))
    aurora = AuroraController(models["aurora_throughput"],
                              initial_rate=network.bottleneck_pps / 2)
    return [_run_one(ctrl, network, duration, seed=1)
            for ctrl in (Cubic(), Vegas(), aurora)]


def _fig1b_loop(models, duration):
    network = EvalNetwork(bandwidth_mbps=25.0, one_way_ms=20.0, buffer_bdp=2.0)
    start = network.bottleneck_pps / 3
    mocc = models["mocc_agent"]
    makers = [
        Cubic, Vegas,
        lambda: AuroraController(models["aurora_throughput"], initial_rate=start),
        lambda: AuroraController(models["aurora_latency"], initial_rate=start),
        lambda: MoccController(mocc, THROUGHPUT_WEIGHTS, initial_rate=start),
        lambda: MoccController(mocc, LATENCY_WEIGHTS, initial_rate=start)]
    # The registry's suite runs each line-up over its seeds in turn.
    return [_run_one(make(), network, duration, seed)
            for make in makers for seed in (1, 2, 3)]


FIG6_OBJECTIVES = (0, 11)  # of the twelve: the reduced grid


def _fig6_loop(models, duration):
    conditions = [
        EvalNetwork(bandwidth_mbps=12.0, one_way_ms=20.0, buffer_bdp=1.0),
        EvalNetwork(bandwidth_mbps=25.0, one_way_ms=60.0, buffer_bdp=2.0),
        EvalNetwork(bandwidth_mbps=18.0, one_way_ms=40.0, buffer_bdp=0.5,
                    loss_rate=0.01),
        EvalNetwork(bandwidth_mbps=35.0, one_way_ms=15.0, buffer_bdp=3.0),
    ]
    rng = np.random.default_rng(7)
    objectives = [sample_weight(rng) for _ in range(12)]
    enhanced = models["enhanced_aurora"]
    records = []
    for ci, net in enumerate(conditions):
        start = net.bottleneck_pps / 3
        for oi, w in enumerate(objectives):
            if oi not in FIG6_OBJECTIVES:
                continue
            seed = ci * 100 + oi
            dists = [float(np.sum((ew - w) ** 2)) for ew, _ in enhanced]
            _, agent = enhanced[int(np.argmin(dists))]
            controllers = [
                MoccController(models["mocc_agent"], w, initial_rate=start),
                AuroraController(agent, initial_rate=start),
                AuroraController(models["aurora_throughput"],
                                 initial_rate=start)]
            controllers += [scheme_factory(scheme, net, seed=seed)
                            for scheme in ("cubic", "vegas", "bbr", "vivace")]
            records += [_run_one(c, net, duration, seed) for c in controllers]
    return records


def _fig8_loop(models, duration):
    network = EvalNetwork(
        bandwidth_mbps=8.0, one_way_ms=25.0, buffer_bdp=2.0,
        trace=RandomWalkTrace(mbps_to_pps(3.0), mbps_to_pps(8.0),
                              interval=2.0, step=0.25, horizon=120.0, seed=5))
    start = network.bottleneck_pps / 3
    controllers = [MoccController(models["mocc_agent"], THROUGHPUT_WEIGHTS,
                                  initial_rate=start),
                   Cubic(), BBR(initial_rate=start), Vegas()]
    return [_run_one(c, network, duration, seed=3) for c in controllers]


def _fig16_loop(models, duration):
    network = EvalNetwork(bandwidth_mbps=4.0, one_way_ms=30.0, buffer_bdp=2.0)
    rng = np.random.default_rng(16)
    objectives = [sample_weight(rng) for _ in range(6)]
    return [_run_one(MoccController(models["mocc_agent"], w,
                                    initial_rate=network.bottleneck_pps / 3),
                     network, duration, seed=30 + i)
            for i, w in enumerate(objectives)]


def test_converted_figures_keep_their_loops_records(models):
    """Figs. 1a, 1b, 6, 8 and Fig. 16's evaluation, 1 s per cell, over
    the pool: every cell's records are its serial loop's."""
    duration = 1.0
    cells, expected = [], []
    for name, loop in [("fig1a", _fig1a_loop), ("fig1b", _fig1b_loop),
                       ("fig6", _fig6_loop), ("fig8", _fig8_loop)]:
        figure = figure_cells(name, models)
        if name == "fig6":
            figure = [c for c in figure if int(c.name.split("/")[2][1:])
                      in FIG6_OBJECTIVES]
        cells += figure
        expected += loop(models, duration)
    cells += fig16_cells(models["mocc_agent"])
    expected += _fig16_loop(models, duration)
    cells = [replace(cell, duration=duration) for cell in cells]
    assert len(cells) == len(expected) == 3 + 18 + 56 + 4 + 6

    outcome = ParallelRunner(n_workers=2, use_cache=False).run(cells)
    for result, records in zip(outcome, expected):
        assert records_digest(result.records) == records_digest(records), \
            result.scenario.name
