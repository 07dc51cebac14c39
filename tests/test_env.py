"""Tests for the gym-style environments (repro.netsim.env)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NetworkParams, TRAINING_RANGES
from repro.netsim.env import (
    CongestionControlEnv,
    MoccEnv,
    RewardComponents,
    apply_action,
    components_from_stats,
)
from repro.netsim.sender import MonitorIntervalStats
from repro.netsim.traces import StepTrace

PARAMS = NetworkParams(bandwidth_mbps=4.0, latency_ms=30.0,
                       queue_packets=500, loss_rate=0.0)


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


class TestRewardComponents:
    def _stats(self, acked=50, sent=50, lost=0, mean_rtt=0.06):
        return MonitorIntervalStats(
            flow_id=0, start=0.0, end=1.0, sent=sent, acked=acked, lost=lost,
            mean_rtt=mean_rtt, min_rtt=mean_rtt, latency_gradient=0.0,
            capacity_pps=100.0, base_rtt=0.06, packet_bytes=1500, rate_pps=50.0)

    def test_perfect_interval(self):
        comps = components_from_stats(self._stats(acked=100, sent=100))
        assert comps.o_thr == pytest.approx(1.0)
        assert comps.o_lat == pytest.approx(1.0)
        assert comps.o_loss == pytest.approx(1.0)

    def test_half_utilization(self):
        comps = components_from_stats(self._stats(acked=50))
        assert comps.o_thr == pytest.approx(0.5)

    def test_latency_penalty(self):
        comps = components_from_stats(self._stats(mean_rtt=0.12))
        assert comps.o_lat == pytest.approx(0.5)

    def test_loss_penalty(self):
        comps = components_from_stats(self._stats(acked=50, sent=100, lost=50))
        assert comps.o_loss == pytest.approx(0.5)

    def test_no_acks(self):
        comps = components_from_stats(self._stats(acked=0, mean_rtt=None))
        assert comps.o_lat == 0.0

    def test_weighted(self):
        comps = RewardComponents(1.0, 0.5, 0.25)
        reward = comps.weighted([0.5, 0.3, 0.2])
        assert reward == pytest.approx(0.5 + 0.15 + 0.05)

    @given(st.tuples(*[st.floats(0.0, 1.0)] * 3), st.tuples(*[st.floats(0.0, 1.0)] * 3))
    def test_weighted_same_float_for_any_weight_container(self, comps, w):
        """``weighted`` indexes its argument as given; the reward is the
        float the float64-array form (what MoccEnv holds) always gave."""
        comps = RewardComponents(*comps)
        arr = np.asarray(w, dtype=np.float64)
        want = float(arr[0] * comps.o_thr + arr[1] * comps.o_lat + arr[2] * comps.o_loss)
        assert comps.weighted(arr) == comps.weighted(list(w)) == comps.weighted(w) == want

    def test_components_bounded(self):
        comps = components_from_stats(self._stats(acked=1000, mean_rtt=0.001))
        assert 0.0 <= comps.o_thr <= 1.0
        assert 0.0 <= comps.o_lat <= 1.0


class TestCongestionControlEnv:
    def test_reset_returns_state(self):
        env = CongestionControlEnv(params=PARAMS, seed=0)
        obs = env.reset()
        assert obs.shape == (40,)

    def test_custom_history_length(self):
        env = CongestionControlEnv(params=PARAMS, history_length=4, seed=0)
        assert env.reset().shape == (16,)
        assert env.observation_dim == 16

    def test_step_before_reset_raises(self):
        env = CongestionControlEnv(params=PARAMS)
        with pytest.raises(RuntimeError):
            env.step(0.0)

    def test_episode_terminates(self):
        env = CongestionControlEnv(params=PARAMS, max_steps=5, seed=1)
        env.reset()
        done = False
        for i in range(5):
            _, _, done, _ = env.step(0.0)
        assert done

    def test_positive_actions_raise_rate(self):
        env = CongestionControlEnv(params=PARAMS, max_steps=50, seed=2)
        env.reset()
        _, _, _, info0 = env.step(0.0)
        for _ in range(20):
            _, _, _, info = env.step(1.0)
        assert info["rate_pps"] > info0["rate_pps"]

    @pytest.mark.parametrize("action, bound", [(5e3, 1e3), (float("inf"), 1e3),
                                               (-5e3, -1e3), (float("-inf"), -1e3)])
    def test_out_of_range_action_steps_like_the_bound(self, action, bound):
        assert abs(bound) == CongestionControlEnv.ACTION_CLIP
        rates = []
        for a in (action, bound):
            env = CongestionControlEnv(params=PARAMS, max_steps=5, seed=2)
            env.reset()
            obs, _, _, info = env.step(a)
            rates.append((info["rate_pps"], obs.tobytes()))
        assert rates[0] == rates[1]

    def test_reward_components_in_range(self):
        env = CongestionControlEnv(params=PARAMS, max_steps=20, seed=3)
        env.reset()
        for _ in range(20):
            _, comps, _, _ = env.step(0.5)
            assert 0.0 <= comps.o_thr <= 1.0
            assert 0.0 <= comps.o_lat <= 1.0
            assert 0.0 <= comps.o_loss <= 1.0

    def test_randomized_reset_draws_new_conditions(self):
        env = CongestionControlEnv(ranges=TRAINING_RANGES, max_steps=4, seed=4)
        env.reset()
        p1 = env._active_params
        env.reset()
        p2 = env._active_params
        assert (p1.bandwidth_mbps, p1.latency_ms) != (p2.bandwidth_mbps, p2.latency_ms)

    def test_trace_override(self):
        env = CongestionControlEnv(trace=StepTrace(100.0, 200.0, 5.0),
                                   max_steps=5, seed=5)
        obs = env.reset()
        assert obs.shape == (40,)
        _, comps, _, info = env.step(0.0)
        assert info["stats"].capacity_pps in (100.0, 200.0)

    def test_deterministic_given_seed(self):
        def run():
            env = CongestionControlEnv(params=PARAMS, max_steps=10, seed=9)
            env.reset()
            rewards = []
            for _ in range(10):
                _, comps, _, _ = env.step(0.3)
                rewards.append(comps.o_thr)
            return rewards

        assert run() == run()


class TestMoccEnv:
    def test_reset_returns_obs_and_weights(self):
        env = MoccEnv(CongestionControlEnv(params=PARAMS, seed=0))
        obs, w = env.reset([0.8, 0.1, 0.1])
        assert obs.shape == (40,)
        np.testing.assert_allclose(w, [0.8, 0.1, 0.1])

    def test_invalid_weights_rejected(self):
        env = MoccEnv(CongestionControlEnv(params=PARAMS))
        with pytest.raises(ValueError):
            env.reset([0.8, 0.1])
        with pytest.raises(ValueError):
            env.reset([0.5, 0.5, 0.5])

    def test_reward_is_weighted_components(self):
        env = MoccEnv(CongestionControlEnv(params=PARAMS, max_steps=3, seed=1))
        env.reset([0.5, 0.3, 0.2])
        _, _, reward, comps, _, _ = env.step(0.0)
        assert reward == pytest.approx(comps.weighted([0.5, 0.3, 0.2]))

    def test_weight_dim(self):
        env = MoccEnv(CongestionControlEnv(params=PARAMS))
        assert env.weight_dim == 3

    def test_different_weights_change_reward_only(self):
        """Same seed/actions: weights change the reward, not the dynamics."""
        def run(weights):
            env = MoccEnv(CongestionControlEnv(params=PARAMS, max_steps=5, seed=2))
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
