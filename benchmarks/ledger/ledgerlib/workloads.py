"""Seeded inputs of the ledger workloads, from public constructors only.

The program under test receives only what is generated here; the seed
selects simulation seeds (and the trainer/env seed), never the shape of
a workload, so runs at different seeds do comparable work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.config import DEFAULT_TRAINING, TRAINING_RANGES
from repro.core import MoccAgent, simplex_grid
from repro.eval import EvalNetwork, FlowDef, Scenario, ScenarioSuite
from repro.models.zoo import BUDGETS
from repro.netsim import dumbbell_asymmetric, parking_lot
from repro.rl.parallel import EnvSpec

__all__ = ["ASSET_DIR", "HEURISTICS", "Assets", "TrainJob", "engine_cells",
           "grid_suites", "load_assets", "mocc_suites", "probe_cells",
           "train_job"]

ASSET_DIR = Path(__file__).resolve().parent.parent / "assets"
HEURISTICS = ("cubic", "bbr", "copa", "vivace")

# engine-heuristic: the perf-harness link, long enough that run_all is
# >= 97 % of build + run.
ENGINE_BANDWIDTH_MBPS = 16.0
ENGINE_DELAY_MS = 8.0
ENGINE_DURATION_S = 5.0

# mocc-*: RTC-like rates, where one policy inference per monitor
# interval is a large share of a cell.
MOCC_BANDWIDTHS_MBPS = (3.0, 6.0, 12.0)
MOCC_RTTS_MS = (20.0, 40.0)
MOCC_DURATION_S = 3.0

# grid-*: short cells on the most construction-heavy named trace, so
# per-cell set-up and dispatch are comparable to the event loop.
GRID_CELLS = 256
GRID_DURATION_S = 0.25
GRID_TRACE = "wifi-walk"

# train-offline: both training phases at the zoo's ``fast`` step and
# episode sizes, cut to about a second per round.
TRAIN_OMEGA = 3
TRAIN_BOOTSTRAP_ITERS = 2
TRAIN_TRAVERSE_ITERS = 1
TRAIN_CYCLES = 1


@dataclass(frozen=True)
class Assets:
    """The pinned learned-controller checkpoints, loaded."""

    mocc: MoccAgent
    aurora: MoccAgent


def asset_manifest() -> dict:
    return json.loads((ASSET_DIR / "MANIFEST.json").read_text())


def load_assets() -> Assets:
    """Load the pinned checkpoints, refusing files that drifted."""
    agents = {}
    for key, entry in asset_manifest()["checkpoints"].items():
        path = ASSET_DIR / entry["file"]
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        if sha != entry["sha256"]:
            raise RuntimeError(
                f"pinned checkpoint {path.name} has sha256 {sha}, manifest "
                f"says {entry['sha256']}: regenerate with make_assets.py "
                f"and repin")
        agents[key] = MoccAgent.load(path)
    return Assets(mocc=agents["mocc"], aurora=agents["aurora"])


def engine_cells(seed: int) -> list[Scenario]:
    """Four schemes sharing a dumbbell, each through a 2-hop parking
    lot against CUBIC cross traffic, each over an asymmetric dumbbell
    with a queued ack path."""
    net = EvalNetwork(bandwidth_mbps=ENGINE_BANDWIDTH_MBPS,
                      one_way_ms=ENGINE_DELAY_MS)
    common = dict(network=net, duration=ENGINE_DURATION_S, seed=seed,
                  suite="ledger-engine")
    cells = [Scenario(name="engine/dumbbell/" + "+".join(HEURISTICS),
                      flows=HEURISTICS, **common)]
    lot = parking_lot(2, bandwidth_mbps=ENGINE_BANDWIDTH_MBPS,
                      delay_ms=ENGINE_DELAY_MS)
    cells += [Scenario(
        name=f"engine/lot/{scheme}", topology=lot,
        flows=(FlowDef(scheme, path="through"),
               FlowDef("cubic", path="cross0"),
               FlowDef("cubic", path="cross1")), **common)
        for scheme in HEURISTICS]
    asym = dumbbell_asymmetric(
        bandwidth_mbps=ENGINE_BANDWIDTH_MBPS, delay_ms=ENGINE_DELAY_MS,
        reverse_bandwidth_mbps=ENGINE_BANDWIDTH_MBPS / 10.0)
    cells += [Scenario(
        name=f"engine/ack/{scheme}", topology=asym,
        flows=(FlowDef(scheme, path="through"),
               FlowDef("cubic", path="reverse")), **common)
        for scheme in HEURISTICS]
    return cells


def mocc_suites(seed: int, assets: Assets) -> list[ScenarioSuite]:
    """Fig. 6-style objective traversal: MOCC at the 10 simplex_grid(6)
    weight vectors plus Aurora-throughput, one 11-cell sweep for each
    of 3 bandwidths x 2 RTTs."""
    lineups = {
        f"mocc-w{i}": (FlowDef("mocc", weights=tuple(float(x) for x in w),
                               agent=assets.mocc),)
        for i, w in enumerate(simplex_grid(6))}
    lineups["aurora"] = (FlowDef("aurora-throughput", agent=assets.aurora),)
    return [ScenarioSuite(name=f"ledger-mocc/bw{bandwidth:g}/rtt{rtt:g}",
                          lineups=lineups, bandwidths_mbps=(bandwidth,),
                          rtts_ms=(rtt,), duration=MOCC_DURATION_S,
                          seeds=(seed,))
            for bandwidth in MOCC_BANDWIDTHS_MBPS for rtt in MOCC_RTTS_MS]


def grid_suites(seed: int) -> list[ScenarioSuite]:
    """The grid as one 64-cell sweep per scheme."""
    per_scheme = GRID_CELLS // len(HEURISTICS)
    first = seed * per_scheme
    return [ScenarioSuite(name=f"ledger-grid/{scheme}", lineups=[scheme],
                          traces=(GRID_TRACE,),
                          seeds=tuple(range(first, first + per_scheme)),
                          duration=GRID_DURATION_S)
            for scheme in HEURISTICS]


def probe_cells(seed: int, assets: Assets, bandwidth_mbps: float,
                rtt_ms: float, duration: float) -> list[Scenario]:
    """One single-flow dumbbell cell per controller-probe scheme."""
    net = EvalNetwork(bandwidth_mbps=bandwidth_mbps, one_way_ms=rtt_ms / 2.0)
    flows = {scheme: FlowDef(scheme) for scheme in HEURISTICS}
    flows["mocc"] = FlowDef("mocc", weights=(0.5, 0.3, 0.2),
                            agent=assets.mocc)
    flows["aurora"] = FlowDef("aurora-throughput", agent=assets.aurora)
    return [Scenario(name=f"probe/{scheme}", network=net, flows=(flow,),
                     duration=duration, seed=seed, suite="ledger-probe")
            for scheme, flow in flows.items()]


@dataclass(frozen=True)
class TrainJob:
    spec: EnvSpec
    config: object
    seed: int
    train_kwargs: dict


def train_job(seed: int) -> TrainJob:
    """The zoo's Table-3 EnvSpec at the ``fast`` step/episode sizes.

    ``seed`` seeds the trainer (policy initialisation, exploration,
    objective order); the environment always draws the same episodes.
    A step costs in proportion to the packets of its monitor interval,
    and Table 3 spans two orders of magnitude of those, so the 48
    episodes of a run are too few to average a fresh draw: packets per
    step then spread 13 % between the quartiles of ten seeds (range
    32 %), against 5 % (10 %) with the episodes held.
    """
    budget = BUDGETS["fast"]
    spec = EnvSpec(ranges=TRAINING_RANGES,
                   history_length=DEFAULT_TRAINING.history_length,
                   action_scale=DEFAULT_TRAINING.action_scale,
                   max_steps=budget.episode_steps, seed=0)
    config = DEFAULT_TRAINING.replace(
        steps_per_iteration=budget.steps_per_iteration)
    return TrainJob(spec=spec, config=config, seed=seed,
                    train_kwargs=dict(omega=TRAIN_OMEGA,
                                      bootstrap_iters=TRAIN_BOOTSTRAP_ITERS,
                                      traverse_iters=TRAIN_TRAVERSE_ITERS,
                                      cycles=TRAIN_CYCLES))
