"""Tests for the gym-style environment (repro.netsim.env)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NetworkParams, TRAINING_RANGES
from repro.netsim.env import (
    EnvSpec,
    MoccEnv,
    RewardComponents,
    apply_action,
    components_from_stats,
)
from repro.netsim.rngstreams import stream_rng
from repro.netsim.sender import MonitorIntervalStats
from repro.netsim.traces import StepTrace

PARAMS = NetworkParams(bandwidth_mbps=4.0, latency_ms=30.0,
                       queue_packets=500, loss_rate=0.0)

W = (0.5, 0.3, 0.2)

#: The parity configurations, ``(network, seed)``: Table-3 draws (loss
#: up to 3 %, so the episode link's wire-loss stream is drawn), a fixed
#: lossy link, and a trace on a lossless 20 ms link.
PARITY_ENVS = (
    (TRAINING_RANGES, 11),
    (NetworkParams(bandwidth_mbps=3.0, latency_ms=25.0,
                   queue_packets=40, loss_rate=0.02), 12),
    (NetworkParams(bandwidth_mbps=0.0, latency_ms=20.0, queue_packets=1000,
                   loss_rate=0.0, trace=StepTrace(100.0, 200.0, 0.5)), 13),
)
#: A fixed action cycle: rates both rise and fall within an episode.
PARITY_ACTIONS = (0.0, 2.0, -1.0, 4.0, -3.0, 0.5)
#: sha256 over every observation, reward-component vector and rate of
#: three 30-step episodes of each :data:`PARITY_ENVS` entry, and the
#: episode link's random-drop count after each episode.
PARITY_DIGEST = ("321a751475f11744f4f6d58a7591aa50"
                 "bd15c038240df1607ed0f11f02eb51f1")


def episode_parity_holds(env_cls) -> None:
    """``env_cls`` runs the parity episodes exactly as pinned, and both
    lossy configurations drop packets at random, so the digest covers
    the episode link's wire-loss stream."""
    h = hashlib.sha256()
    drops = []
    for network, seed in PARITY_ENVS:
        env = env_cls(EnvSpec(ranges=network, max_steps=30), seed)
        for _ in range(3):
            h.update(env.reset(W)[0].tobytes())
            for step in range(30):
                obs, _, _, comps, _, info = env.step(
                    PARITY_ACTIONS[step % len(PARITY_ACTIONS)])
                h.update(obs.tobytes())
                h.update(comps.as_array().tobytes())
                h.update(np.float64(info["rate_pps"]).tobytes())
            drops.append(env._sim.links[0].dropped_random)
            h.update(repr(drops[-1]).encode())
    assert h.hexdigest() == PARITY_DIGEST
    assert sum(drops[:3]) > 0 and sum(drops[3:6]) > 0
    assert drops[6:] == [0, 0, 0]


class TestApplyAction:
    """Eq. 1: multiplicative rate adjustment."""

    def test_positive_action(self):
        assert apply_action(100.0, 1.0, 0.025) == pytest.approx(102.5)

    def test_negative_action(self):
        assert apply_action(100.0, -1.0, 0.025) == pytest.approx(100 / 1.025)

    def test_zero_action(self):
        assert apply_action(100.0, 0.0, 0.025) == 100.0

    @settings(max_examples=30, deadline=None)
    @given(rate=st.floats(1.0, 1e4), action=st.floats(-5, 5))
    def test_positive_rate_preserved(self, rate, action):
        assert apply_action(rate, action, 0.025) > 0

    @settings(max_examples=30, deadline=None)
    @given(rate=st.floats(1.0, 1e4), action=st.floats(0.01, 5))
    def test_inverse_symmetry(self, rate, action):
        """+a then -a returns to the original rate (Eq. 1 is reversible)."""
        up = apply_action(rate, action, 0.025)
        back = apply_action(up, -action, 0.025)
        assert back == pytest.approx(rate, rel=1e-9)

    @given(action=st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_action(self, action):
        assert (apply_action(100.0, action + 0.1, 0.025)
                > apply_action(100.0, action, 0.025))


def mi_stats(acked=50, sent=50, lost=0, mean_rtt=0.06):
    return MonitorIntervalStats(
        flow_id=0, start=0.0, end=1.0, sent=sent, acked=acked, lost=lost,
        mean_rtt=mean_rtt, min_rtt=mean_rtt, latency_gradient=0.0,
        capacity_pps=100.0, base_rtt=0.06, packet_bytes=1500, rate_pps=50.0)


def weighted_is_eq2(components_cls) -> None:
    """Each weight scales its own component (Eq. 2)."""
    reward = components_cls(1.0, 0.5, 0.25).weighted([0.5, 0.3, 0.2])
    assert reward == pytest.approx(0.5 + 0.15 + 0.05)


def loss_penalty_holds(components_fn) -> None:
    """O_loss counts lost packets against all packets of the interval,
    lost ones included."""
    comps = components_fn(mi_stats(acked=50, sent=100, lost=50))
    assert comps.o_loss == pytest.approx(0.5)


def eq2_reward_holds(spec_cls) -> None:
    """The env's reward is Eq. 2 under the episode's weights, written
    out."""
    env = spec_cls(ranges=PARAMS, max_steps=3).build(1)
    env.reset([0.5, 0.3, 0.2])
    for _ in range(3):
        _, _, reward, comps, _, _ = env.step(0.0)
        assert comps.o_lat > 0.0
        assert reward == pytest.approx(
            0.5 * comps.o_thr + 0.3 * comps.o_lat + 0.2 * comps.o_loss)


class TestRewardComponents:
    def test_perfect_interval(self):
        comps = components_from_stats(mi_stats(acked=100, sent=100))
        assert comps.o_thr == pytest.approx(1.0)
        assert comps.o_lat == pytest.approx(1.0)
        assert comps.o_loss == pytest.approx(1.0)

    def test_half_utilization(self):
        comps = components_from_stats(mi_stats(acked=50))
        assert comps.o_thr == pytest.approx(0.5)

    def test_latency_penalty(self):
        comps = components_from_stats(mi_stats(mean_rtt=0.12))
        assert comps.o_lat == pytest.approx(0.5)

    def test_loss_penalty(self):
        loss_penalty_holds(components_from_stats)

    def test_no_acks(self):
        comps = components_from_stats(mi_stats(acked=0, mean_rtt=None))
        assert comps.o_lat == 0.0

    def test_weighted(self):
        weighted_is_eq2(RewardComponents)

    @given(st.tuples(*[st.floats(0.0, 1.0)] * 3), st.tuples(*[st.floats(0.0, 1.0)] * 3))
    def test_weighted_same_float_for_any_weight_container(self, comps, w):
        """``weighted`` indexes its argument as given; the reward is the
        float the float64-array form (what MoccEnv holds) always gave."""
        comps = RewardComponents(*comps)
        arr = np.asarray(w, dtype=np.float64)
        want = float(arr[0] * comps.o_thr + arr[1] * comps.o_lat + arr[2] * comps.o_loss)
        assert comps.weighted(arr) == comps.weighted(list(w)) == comps.weighted(w) == want

    def test_components_bounded(self):
        comps = components_from_stats(mi_stats(acked=1000, mean_rtt=0.001))
        assert 0.0 <= comps.o_thr <= 1.0
        assert 0.0 <= comps.o_lat <= 1.0


def fixed_env(**kwargs) -> MoccEnv:
    """An env on the fixed :data:`PARAMS` network."""
    seed = kwargs.pop("seed", 0)
    return EnvSpec(ranges=PARAMS, **kwargs).build(seed)


class TestMoccEnv:
    def test_reset_returns_obs_and_weights(self):
        obs, w = fixed_env().reset([0.8, 0.1, 0.1])
        assert obs.shape == (40,)
        np.testing.assert_allclose(w, [0.8, 0.1, 0.1])

    def test_custom_history_length(self):
        env = fixed_env(history_length=4)
        assert env.reset(W)[0].shape == (16,)
        assert env.observation_dim == 16

    def test_step_before_reset_raises(self):
        with pytest.raises(RuntimeError):
            fixed_env().step(0.0)

    def test_invalid_weights_rejected(self):
        env = fixed_env()
        with pytest.raises(ValueError):
            env.reset([0.8, 0.1])
        with pytest.raises(ValueError):
            env.reset([0.5, 0.5, 0.5])

    def test_episode_terminates(self):
        env = fixed_env(max_steps=5, seed=1)
        env.reset(W)
        done = False
        for i in range(5):
            done = env.step(0.0)[4]
        assert done

    def test_positive_actions_raise_rate(self):
        env = fixed_env(max_steps=50, seed=2)
        env.reset(W)
        info0 = env.step(0.0)[5]
        for _ in range(20):
            info = env.step(1.0)[5]
        assert info["rate_pps"] > info0["rate_pps"]

    @pytest.mark.parametrize("action, bound", [(5e3, 1e3), (float("inf"), 1e3),
                                               (-5e3, -1e3), (float("-inf"), -1e3)])
    def test_out_of_range_action_steps_like_the_bound(self, action, bound):
        assert abs(bound) == MoccEnv.ACTION_CLIP
        rates = []
        for a in (action, bound):
            env = fixed_env(max_steps=5, seed=2)
            env.reset(W)
            obs, _, _, _, _, info = env.step(a)
            rates.append((info["rate_pps"], obs.tobytes()))
        assert rates[0] == rates[1]

    def test_reward_components_in_range(self):
        env = fixed_env(max_steps=20, seed=3)
        env.reset(W)
        for _ in range(20):
            comps = env.step(0.5)[3]
            assert 0.0 <= comps.o_thr <= 1.0
            assert 0.0 <= comps.o_lat <= 1.0
            assert 0.0 <= comps.o_loss <= 1.0

    def test_reward_is_weighted_components(self):
        eq2_reward_holds(EnvSpec)

    def test_randomized_reset_draws_new_conditions(self):
        env = EnvSpec(ranges=TRAINING_RANGES, max_steps=4).build(4)
        drawn = []
        for _ in range(2):
            env.reset(W)
            drawn.append(env._sim.links[0].delay)
        assert drawn[0] != drawn[1]

    def test_trace_override(self):
        trace = StepTrace(100.0, 200.0, 5.0)
        env = EnvSpec(ranges=NetworkParams(0.0, 20.0, 1000, 0.0, trace=trace),
                      max_steps=5).build(5)
        obs, _ = env.reset(W)
        assert obs.shape == (40,)
        info = env.step(0.0)[5]
        assert info["stats"].capacity_pps in (100.0, 200.0)

    def test_deterministic_given_seed(self):
        def run():
            env = fixed_env(max_steps=10, seed=9)
            env.reset(W)
            return [env.step(0.3)[3].o_thr for _ in range(10)]

        assert run() == run()

    def test_different_weights_change_reward_only(self):
        """Same seed/actions: weights change the reward, not the dynamics."""
        def run(weights):
            env = fixed_env(max_steps=5, seed=2)
            env.reset(weights)
            comps_seen, rewards = [], []
            for _ in range(5):
                _, _, r, comps, _, _ = env.step(0.2)
                comps_seen.append(comps.as_array())
                rewards.append(r)
            return np.array(comps_seen), np.array(rewards)

        c1, r1 = run([0.8, 0.1, 0.1])
        c2, r2 = run([0.1, 0.8, 0.1])
        np.testing.assert_allclose(c1, c2)
        assert not np.allclose(r1, r2)


class TestEnvSpec:
    def test_a_fixed_network_samples_to_itself_and_draws_nothing(self):
        """Why ``EnvSpec(ranges=NetworkParams(...))`` keeps the digests
        of a fixed network: its draw leaves ``env.params`` untouched,
        so the initial-rate draw is the stream's first."""
        env = fixed_env(seed=7)
        state = env.rng.bit_generator.state
        assert PARAMS.sample(env.rng) is PARAMS
        assert env.rng.bit_generator.state == state

    def test_build_seeds_the_env_at_seed_plus_offset(self):
        spec = EnvSpec(ranges=PARAMS, seed=40)
        env = spec.build(2)
        reference = MoccEnv(spec, 42)
        assert env.spec is spec
        assert (env.rng.bit_generator.state
                == reference.rng.bit_generator.state
                == stream_rng("env.params", 42).bit_generator.state)
        assert env.reset(W)[0].tobytes() == reference.reset(W)[0].tobytes()
        assert env._episode_seed == 43


def test_episodes_keep_their_digest():
    episode_parity_holds(MoccEnv)
