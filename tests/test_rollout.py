"""Tests for returns, advantages and the rollout buffer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rl.rollout import RolloutBuffer, discounted_returns, gae_advantages


class TestDiscountedReturns:
    def test_single_step(self):
        out = discounted_returns(np.array([3.0]), np.array([True]), 0.9)
        assert out[0] == pytest.approx(3.0)

    def test_two_steps(self):
        out = discounted_returns(np.array([1.0, 2.0]), np.array([False, True]), 0.5)
        assert out[1] == pytest.approx(2.0)
        assert out[0] == pytest.approx(1.0 + 0.5 * 2.0)

    def test_episode_boundary_blocks_flow(self):
        rewards = np.array([1.0, 100.0])
        dones = np.array([True, True])
        out = discounted_returns(rewards, dones, 0.99)
        assert out[0] == pytest.approx(1.0)  # no leak from next episode

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 30), gamma=st.floats(0.5, 0.999))
    def test_constant_reward_geometric_sum(self, n, gamma):
        rewards = np.ones(n)
        dones = np.zeros(n, dtype=bool)
        dones[-1] = True
        out = discounted_returns(rewards, dones, gamma)
        expected = (1 - gamma ** n) / (1 - gamma)
        assert out[0] == pytest.approx(expected, rel=1e-9)


class TestGAE:
    def test_lambda_one_equals_mc_advantage(self):
        """GAE(1) must reproduce the paper's Eq. 4 advantage exactly."""
        rng = np.random.default_rng(0)
        rewards = rng.normal(size=12)
        values = rng.normal(size=12)
        dones = np.zeros(12, dtype=bool)
        dones[5] = True
        dones[-1] = True
        adv = gae_advantages(rewards, values, dones, 0.97, 1.0)
        returns = discounted_returns(rewards, dones, 0.97)
        np.testing.assert_allclose(adv, returns - values, atol=1e-10)

    def test_lambda_zero_is_td_error(self):
        rewards = np.array([1.0, 2.0])
        values = np.array([0.5, 0.25])
        dones = np.array([False, True])
        adv = gae_advantages(rewards, values, dones, 0.9, 0.0)
        assert adv[1] == pytest.approx(2.0 - 0.25)
        assert adv[0] == pytest.approx(1.0 + 0.9 * 0.25 - 0.5)

    def test_perfect_critic_gives_zero_advantage(self):
        rewards = np.array([1.0, 1.0, 1.0])
        dones = np.array([False, False, True])
        values = discounted_returns(rewards, dones, 0.9)
        adv = gae_advantages(rewards, values, dones, 0.9, 1.0)
        np.testing.assert_allclose(adv, 0.0, atol=1e-12)

    def test_bootstrap_used_when_truncated(self):
        rewards = np.array([0.0])
        values = np.array([0.0])
        dones = np.array([False])
        adv = gae_advantages(rewards, values, dones, 0.9, 0.95, bootstrap_value=2.0)
        assert adv[0] == pytest.approx(0.9 * 2.0)


class TestRolloutBuffer:
    def _filled(self, n=8, weight_dim=3):
        buf = RolloutBuffer(obs_dim=4, weight_dim=weight_dim, act_dim=1, capacity=n)
        for i in range(n):
            buf.add(obs=np.full(4, i), action=[0.1 * i], log_prob=-1.0,
                    value=0.5, reward=1.0, done=(i == n - 1),
                    weights=np.full(3, 1 / 3) if weight_dim else None)
        return buf

    def test_fills_to_capacity(self):
        buf = self._filled(5)
        assert buf.size == buf.capacity == 5

    def test_overflow_raises(self):
        buf = self._filled(3)
        with pytest.raises(RuntimeError):
            buf.add(np.zeros(4), [0.0], 0.0, 0.0, 0.0, False, weights=np.zeros(3))

    def test_missing_weights_raises(self):
        buf = RolloutBuffer(4, 3, 1, 2)
        with pytest.raises(ValueError):
            buf.add(np.zeros(4), [0.0], 0.0, 0.0, 0.0, False, weights=None)

    def test_weightless_buffer(self):
        buf = RolloutBuffer(4, 0, 1, 2)
        buf.add(np.zeros(4), [0.0], 0.0, 0.0, 0.0, False)
        obs, weights, actions, log_probs, values = buf.batch()
        assert weights is None
        assert len(obs) == 1

    def test_compute_raw_by_default(self):
        buf = self._filled(8)
        returns, adv = buf.compute(gamma=0.99, lam=0.95)
        assert np.array_equal(adv, gae_advantages(
            buf.rewards[:8], buf.values[:8], buf.dones[:8], 0.99, 0.95))
        assert np.array_equal(returns, adv + buf.values[:8])

    def test_returns_equal_adv_plus_value_shape(self):
        buf = self._filled(6)
        returns, adv = buf.compute(gamma=0.9, lam=1.0)
        assert returns.shape == (6,)
        assert adv.shape == (6,)

    def test_batch_views_not_copies(self):
        buf = self._filled(4)
        obs, *_ = buf.batch()
        obs[0, 0] = 123.0
        assert buf.obs[0, 0] == 123.0
