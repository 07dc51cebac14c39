"""Tests for the PPO trainer: loss mechanics and learning on toy tasks."""

import numpy as np
import pytest

from repro.config import DEFAULT_TRAINING
from repro.rl.policy import PreferenceActorCritic
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.rollout import RolloutBuffer


class _TargetBandit:
    """1-step env: reward = -(action - target)^2; tests policy ascent."""

    def __init__(self, target: float, obs_dim: int = 4):
        self.target = target
        self.obs_dim = obs_dim

    def rollout(self, model, steps, rng):
        buf = RolloutBuffer(self.obs_dim, 0, 1, steps)
        obs = np.zeros(self.obs_dim)
        for _ in range(steps):
            action, log_prob, value = model.act(obs, None, rng)
            reward = -float((action[0] - self.target) ** 2)
            buf.add(obs, action, log_prob, value, reward, True)
        return buf


class TestPPOLearnsBandit:
    def test_mean_moves_to_target(self):
        rng = np.random.default_rng(0)
        model = PreferenceActorCritic(obs_dim=4, weight_dim=0, act_dim=1,
                                      hidden_sizes=(8,), rng=rng)
        trainer = PPOTrainer(model, PPOConfig(learning_rate=3e-3, entropy_scale=0.0),
                             rng=np.random.default_rng(1))
        env = _TargetBandit(target=0.7)
        for _ in range(60):
            buf = env.rollout(model, 128, rng)
            trainer.update(buf)
        mean, _ = model.forward(np.zeros((1, 4)), None)
        assert mean[0, 0] == pytest.approx(0.7, abs=0.15)

    def test_negative_target(self):
        rng = np.random.default_rng(2)
        model = PreferenceActorCritic(obs_dim=4, weight_dim=0, act_dim=1,
                                      hidden_sizes=(8,), rng=rng)
        trainer = PPOTrainer(model, PPOConfig(learning_rate=3e-3, entropy_scale=0.0),
                             rng=np.random.default_rng(3))
        env = _TargetBandit(target=-0.5)
        for _ in range(60):
            buf = env.rollout(model, 128, rng)
            trainer.update(buf)
        mean, _ = model.forward(np.zeros((1, 4)), None)
        assert mean[0, 0] == pytest.approx(-0.5, abs=0.15)


class TestPPOMechanics:
    def _setup(self, weight_dim=0):
        model = PreferenceActorCritic(obs_dim=3, weight_dim=weight_dim, act_dim=1,
                                      hidden_sizes=(6,), rng=np.random.default_rng(4))
        trainer = PPOTrainer(model, PPOConfig(), rng=np.random.default_rng(5))
        return model, trainer

    def _buffer(self, model, n=32, weight_dim=0, rng_seed=6):
        rng = np.random.default_rng(rng_seed)
        buf = RolloutBuffer(3, weight_dim, 1, n)
        w = np.full(3, 1 / 3) if weight_dim else None
        for i in range(n):
            obs = rng.normal(size=3)
            action, log_prob, value = model.act(obs, w, rng)
            buf.add(obs, action, log_prob, value, rng.normal(), i == n - 1,
                    weights=w)
        return buf

    def test_update_returns_stats(self):
        model, trainer = self._setup()
        stats = trainer.update(self._buffer(model))
        assert np.isfinite(stats.policy_loss)
        assert np.isfinite(stats.value_loss)
        assert stats.entropy > 0
        assert 0.0 <= stats.clip_fraction <= 1.0

    def test_update_changes_parameters(self):
        model, trainer = self._setup()
        before = model.state_dict()
        trainer.update(self._buffer(model))
        changed = any(not np.allclose(before[k], v)
                      for k, v in model.state_dict().items())
        assert changed

    def test_iteration_counter(self):
        model, trainer = self._setup()
        trainer.update(self._buffer(model))
        trainer.update(self._buffer(model, rng_seed=7))
        assert trainer.iteration == 2

    def test_multiple_buffers_pooled(self):
        model, trainer = self._setup()
        b1 = self._buffer(model, n=16, rng_seed=8)
        b2 = self._buffer(model, n=16, rng_seed=9)
        stats = trainer.update([b1, b2], [0.0, 0.0])
        assert np.isfinite(stats.policy_loss)

    def test_bootstrap_count_mismatch_raises(self):
        model, trainer = self._setup()
        b1 = self._buffer(model, n=8)
        with pytest.raises(ValueError):
            trainer.update([b1], [0.0, 1.0])

    def test_update_multi_averages_objectives(self):
        """update_multi implements the Eq. 6 requirement-replay loss."""
        model, trainer = self._setup(weight_dim=3)
        b1 = self._buffer(model, n=16, weight_dim=3, rng_seed=10)
        b2 = self._buffer(model, n=16, weight_dim=3, rng_seed=11)
        stats = trainer.update_multi([b1, b2])
        assert len(stats) == 2
        assert trainer.iteration == 1

    def test_weighted_model_update(self):
        model, trainer = self._setup(weight_dim=3)
        stats = trainer.update(self._buffer(model, weight_dim=3))
        assert np.isfinite(stats.policy_loss)


    def test_two_trainers_on_one_model_see_each_other(self):
        """OfflineTrainer and OnlineAdapter each put a PPOTrainer on the
        same model: the parameters belong to the model, so either
        trainer's update is the other's starting point."""
        model, first = self._setup(weight_dim=3)
        second = PPOTrainer(model, PPOConfig(), rng=np.random.default_rng(12))
        assert first.optimizer.params is second.optimizer.params is model.parameters()
        start = model.parameters().value.copy()
        first.update(self._buffer(model, weight_dim=3, rng_seed=13))
        after_first = model.parameters().value.copy()
        assert np.all(after_first != start)
        second.update(self._buffer(model, weight_dim=3, rng_seed=14))
        after_second = model.parameters().value.copy()
        assert np.all(after_second != after_first)
        # Moment estimates stay per trainer: the second has seen one
        # update's worth of steps, the first nothing of the second's.
        assert first.optimizer._t == second.optimizer._t > 0
        assert not np.array_equal(first.optimizer._m, second.optimizer._m)
        # A plan resolved after both updates acts on the trained model.
        mean = model.plan(np.full(3, 1 / 3)).mean(np.ones(3))
        assert mean[0, 0] == model.forward(np.ones(3), np.full(3, 1 / 3))[0][0, 0]


class TestPPOConfig:
    def test_from_training_config(self):
        cfg = PPOConfig.from_training_config(DEFAULT_TRAINING)
        assert cfg.gamma == DEFAULT_TRAINING.discount_factor
        assert cfg.clip_epsilon == DEFAULT_TRAINING.clip_epsilon
        assert cfg.learning_rate == DEFAULT_TRAINING.learning_rate

    def test_entropy_decays(self):
        cfg = PPOConfig()
        assert cfg.entropy_coef(0) > cfg.entropy_coef(500) > cfg.entropy_coef(1000)
        assert cfg.entropy_coef(1000) == pytest.approx(cfg.entropy_coef(2000))

    def test_entropy_scaling(self):
        cfg = PPOConfig(entropy_scale=0.5)
        assert cfg.entropy_coef(0) == pytest.approx(0.5)


class TestClippingBehaviour:
    def test_stale_buffer_produces_clipping(self):
        """Re-updating many times on one buffer must trigger the clip."""
        model = PreferenceActorCritic(obs_dim=3, weight_dim=0, act_dim=1,
                                      hidden_sizes=(6,), rng=np.random.default_rng(12))
        trainer = PPOTrainer(model, PPOConfig(learning_rate=5e-3, epochs=1),
                             rng=np.random.default_rng(13))
        rng = np.random.default_rng(14)
        buf = RolloutBuffer(3, 0, 1, 64)
        for i in range(64):
            obs = rng.normal(size=3)
            action, log_prob, value = model.act(obs, None, rng)
            buf.add(obs, action, log_prob, value, rng.normal(), i == 63)
        clip_fractions = [trainer.update(buf).clip_fraction for _ in range(20)]
        assert clip_fractions[-1] > 0.0
