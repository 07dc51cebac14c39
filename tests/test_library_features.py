"""The §5 library feeds the policy the features training fed it.

``StatHistory.push`` is the one observation function: the env builds
every training state with it, and ``core.library.MOCC.report_status``
hands each reported interval to it.  Three checks hold the deployed
path to that:

* six env episodes on Table-3 draws, driven by random actions, hand
  every monitor interval to a ``UdtShim`` -- the status a user-space
  datapath reports -- and the library's newest history row must equal
  the env's, feature by feature, bit for bit;
* a ``UdtShim`` flow in a real simulation, running the pinned ledger
  model, must hold after every interval the history a ``StatHistory``
  builds from the flow's own records;
* a ``CcpShim`` batch of ``k`` identical intervals folds into the row
  ``UdtShim`` reports for one of them.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.config import DEFAULT_TRAINING, TRAINING_RANGES
from repro.core.agent import MoccAgent
from repro.core.library import MOCC
from repro.datapath import CcpShim, UdtShim
from repro.eval.runner import EvalNetwork, build_competition
from repro.netsim.env import EnvSpec
from repro.netsim.history import StatHistory
from repro.netsim.sender import MonitorIntervalStats

ASSETS = Path(__file__).parent.parent / "benchmarks" / "ledger" / "assets"
EPISODES = 6
STEPS = 100
W = (1 / 3, 1 / 3, 1 / 3)
#: Column of each feature in a history row.
FEATURES = {"send-ratio": 0, "latency-ratio": 1, "latency-gradient": 2,
            "rate-ratio": 3}


def feature_rows(shim_cls=UdtShim) -> tuple[np.ndarray, np.ndarray]:
    """``(env_rows, library_rows)``: per env step, the newest history
    row of each path, over all episodes."""
    agent = MoccAgent(DEFAULT_TRAINING, seed=0)
    env_rows, library_rows = [], []
    for episode in range(EPISODES):
        env = EnvSpec(ranges=TRAINING_RANGES, max_steps=STEPS).build(episode)
        actions = np.random.default_rng(episode).uniform(-2.0, 2.0, STEPS)
        shim = shim_cls(MOCC(agent), W)
        env.reset(W)
        fed = 0
        for action in actions:
            env.step(action)
            flow = env._sim.flows[0]
            records = flow.records
            for stats in records[fed:]:
                # The env's random actions, not the library, set the
                # rate: report against the rate the interval ran at.
                shim.library.rate = stats.rate_pps
                shim.on_mi(flow, stats, stats.end)
            fed = len(records)
            env_rows.append(env.history.buffer[-4:].copy())
            library_rows.append(shim.library.history.buffer[-4:].copy())
    return np.array(env_rows), np.array(library_rows)


def feature_equals_the_envs(rows, feature: str) -> None:
    env_rows, library_rows = rows
    column = FEATURES[feature]
    assert env_rows.shape == (EPISODES * STEPS, 4)
    assert np.array_equal(library_rows[:, column], env_rows[:, column])


@pytest.fixture(scope="module")
def rows():
    return feature_rows()


@pytest.mark.parametrize("feature", FEATURES)
def test_library_feature_equals_the_envs(rows, feature):
    feature_equals_the_envs(rows, feature)


#: The datapath tests' dumbbell: 4 Mbps, 20 ms base RTT, 2 BDP buffer.
NET = EvalNetwork(bandwidth_mbps=4.0, one_way_ms=10.0, buffer_bdp=2.0)


def deployed_histories_hold(shim_cls) -> None:
    """A ``shim_cls`` flow's library history after each interval equals
    a ``StatHistory`` pushed with the flow's records, bit for bit."""

    class Recording(shim_cls):
        def on_mi(self, flow, stats, now):
            super().on_mi(flow, stats, now)
            seen.append(self.library.history.vector())

    seen = []
    agent = MoccAgent.load(ASSETS / "mocc_fast_seed0.npz")
    # Starting at capacity keeps a queue, so RTTs move within intervals.
    shim = Recording(MOCC(agent, initial_rate=NET.bottleneck_pps), W)
    record = build_competition([shim], NET, duration=3.0, seed=1).run_all()[0]
    reference = StatHistory(agent.config.history_length)
    want = []
    for stats in record.records:
        reference.push(stats, stats.rate_pps)
        want.append(reference.vector())
    got, want = np.array(seen), np.array(want)
    assert len(want) >= 100
    # The run exercises the slope, so a dropped gradient shows.
    assert np.count_nonzero(np.abs(want[:, -2]) > 1e-5) > len(want) // 2
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_deployed_udt_flow_sees_the_training_history():
    deployed_histories_hold(UdtShim)


#: A dyadic interval: every sum and quotient of a batch's fold is exact.
INTERVAL = MonitorIntervalStats(
    flow_id=0, start=0.0, end=0.25, sent=10, acked=8, lost=2,
    mean_rtt=3 / 64, min_rtt=1 / 32, latency_gradient=-1 / 128,
    capacity_pps=64.0, base_rtt=1 / 32, packet_bytes=1500, rate_pps=48.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_ccp_batch_of_identical_intervals_is_one_udt_interval(k):
    agent = MoccAgent(DEFAULT_TRAINING, seed=0)
    udt = UdtShim(MOCC(agent, initial_rate=48.0), W)
    ccp = CcpShim(MOCC(agent, initial_rate=48.0), W, batch=k)
    udt.on_mi(None, INTERVAL, 0.25)
    for _ in range(k):
        ccp.on_mi(None, INTERVAL, 0.25)
    assert ccp.library.inference_count == 1
    row = udt.library.history.buffer[-4:]
    assert row.tolist() == [1.25, 1.0, -10 / 128, 1.5]
    assert ccp.library.history.buffer.tobytes() == udt.library.history.buffer.tobytes()
    assert ccp.rate == udt.rate
