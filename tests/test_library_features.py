"""The §5 library and the env compute the policy's features alike.

Two code paths build the policy's four per-MI features: the env's
``StatHistory.push`` (what every policy was trained on) and
``core.library.MOCC.report_status`` (what the UDT/CCP shims and any
plug-and-play deployment feed it).  Here six env episodes on Table-3
draws, driven by random actions, hand every monitor interval to the
library as the ``NetworkStatus`` a shim would report, and the
library's newest history row must equal the env's, feature by feature.

The latency gradient differs today (ROADMAP item 16): training uses
the least-squares slope of RTT over ack time within the MI, the
library the change between consecutive MIs' mean RTTs over the MI's
duration.  Its column is a strict xfail until one feature function
serves both paths.
"""

import numpy as np
import pytest

from repro.config import DEFAULT_TRAINING, TRAINING_RANGES
from repro.core.agent import MoccAgent
from repro.core.library import MOCC, NetworkStatus
from repro.netsim.env import CongestionControlEnv

EPISODES = 6
STEPS = 100
#: Column of each feature in a history row.
FEATURES = {"send-ratio": 0, "latency-ratio": 1, "latency-gradient": 2,
            "rate-ratio": 3}


def feature_rows() -> tuple[np.ndarray, np.ndarray]:
    """``(env_rows, library_rows)``: per env step, the newest history
    row of each path, over all episodes."""
    agent = MoccAgent(DEFAULT_TRAINING, seed=0)
    env_rows, library_rows = [], []
    for episode in range(EPISODES):
        env = CongestionControlEnv(ranges=TRAINING_RANGES, max_steps=STEPS,
                                   seed=episode)
        actions = np.random.default_rng(episode).uniform(-2.0, 2.0, STEPS)
        library = MOCC(agent)
        library.register((1 / 3, 1 / 3, 1 / 3))
        env.reset()
        fed = 0
        for action in actions:
            env.step(action)
            records = env._flow.records
            for stats in records[fed:]:
                library.rate = stats.rate_pps
                library.report_status(NetworkStatus(
                    sent=stats.sent, acked=stats.acked, lost=stats.lost,
                    mean_rtt=stats.mean_rtt, duration=stats.duration))
            fed = len(records)
            env_rows.append(env.history.buffer[-4:].copy())
            library_rows.append(library.history.buffer[-4:].copy())
    return np.array(env_rows), np.array(library_rows)


@pytest.fixture(scope="module")
def rows():
    return feature_rows()


@pytest.mark.parametrize("feature", [
    "send-ratio", "latency-ratio", "rate-ratio",
    pytest.param("latency-gradient", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the library's gradient is the change of mean RTT "
               "between MIs, not the in-MI slope (ROADMAP item 16)")),
])
def test_library_feature_equals_the_envs(rows, feature):
    env_rows, library_rows = rows
    column = FEATURES[feature]
    assert env_rows.shape == (EPISODES * STEPS, 4)
    assert np.array_equal(library_rows[:, column], env_rows[:, column])
