"""Tests for the PPO trainer: loss mechanics and learning on toy tasks."""

import numpy as np
import pytest

import repro.rl.ppo
from repro.config import DISCOUNT_FACTOR, GAE_LAMBDA
from repro.rl.policy import PreferenceActorCritic
from repro.rl.ppo import PPOTrainer
from repro.rl.rollout import RolloutBuffer, gae_advantages

from test_policy import action_on


@pytest.fixture
def no_entropy(monkeypatch):
    """beta zeroed (the schedule is 0 -> 0) at a step size of 3e-3."""
    monkeypatch.setattr(repro.rl.ppo, "entropy_coef", lambda iteration: 0.0)
    monkeypatch.setattr(repro.rl.ppo, "LEARNING_RATE", 3e-3)


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


@pytest.mark.usefixtures("no_entropy")
class TestPPOLearnsBandit:
    def test_mean_moves_to_target(self):
        rng = np.random.default_rng(0)
        model = PreferenceActorCritic(obs_dim=4, weight_dim=0, act_dim=1,
                                      hidden_sizes=(8,), rng=rng)
        trainer = PPOTrainer(model, rng=np.random.default_rng(1))
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
        trainer = PPOTrainer(model, rng=np.random.default_rng(3))
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
        trainer = PPOTrainer(model, rng=np.random.default_rng(5))
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

    @pytest.mark.parametrize("critic, explained",
                             [("returns", 1.0), ("mean", 0.0)])
    def test_explained_variance_closed_form(self, critic, explained):
        """1 - Var(R - V) / Var(R) over the pooled batch: 1 for a critic
        that predicted every return, 0 for one that predicted only their
        mean.  One-step episodes make each return its reward."""
        model, trainer = self._setup()
        rewards = np.random.default_rng(15).normal(size=(2, 16))
        buffers = []
        for part in rewards:
            buf = RolloutBuffer(3, 0, 1, len(part))
            for r in part:
                value = r if critic == "returns" else rewards.mean()
                buf.add(np.ones(3), [0.0], 0.0, value, r, True)
            buffers.append(buf)
        stats = trainer.update(buffers, [0.0, 0.0])
        assert stats.explained_variance == pytest.approx(explained, abs=1e-12)

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

    def test_pooled_update_equals_one_concatenated_buffer(self):
        """Eq. 6's requirement replay is one pooled update: a new
        objective's and a replayed objective's rollouts (each ending an
        episode) train exactly as one buffer holding both would."""
        model, pooled = self._setup(weight_dim=3)
        twin, single = self._setup(weight_dim=3)
        b1 = self._buffer(model, n=16, weight_dim=3, rng_seed=10)
        b2 = self._buffer(model, n=16, weight_dim=3, rng_seed=11)
        both = RolloutBuffer(3, 3, 1, 32)
        for b in (b1, b2):
            for i in range(b.size):
                both.add(b.obs[i], b.actions[i], b.log_probs[i], b.values[i],
                         b.rewards[i], b.dones[i], weights=b.weights[i])
        pooled.update([b1, b2], [0.0, 0.0])
        single.update(both)
        assert np.array_equal(model.parameters().value, twin.parameters().value)
        assert pooled.iteration == single.iteration == 1

    def test_bootstrap_count_mismatch_raises(self):
        model, trainer = self._setup()
        b1 = self._buffer(model, n=8)
        with pytest.raises(ValueError):
            trainer.update([b1], [0.0, 1.0])

    def test_weighted_model_update(self):
        model, trainer = self._setup(weight_dim=3)
        stats = trainer.update(self._buffer(model, weight_dim=3))
        assert np.isfinite(stats.policy_loss)


    def test_two_trainers_on_one_model_see_each_other(self):
        """An OnlineAdapter puts a second OfflineTrainer, and so a second
        PPOTrainer, on a model an OfflineTrainer already trained: the
        parameters belong to the model, so either trainer's update is
        the other's starting point."""
        model, first = self._setup(weight_dim=3)
        second = PPOTrainer(model, rng=np.random.default_rng(12))
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
        action = action_on(model.plan(np.full(3, 1 / 3)), np.ones(3))
        assert action == model.forward(np.ones(3), np.full(3, 1 / 3))[0][0, 0]


class TestTrainingRecipe:
    def test_update_reads_gamma_and_lambda(self):
        update_reads_gamma_and_lambda(vars(repro.rl.ppo))


def update_reads_gamma_and_lambda(ppo: dict) -> None:
    """The explained variance ``update`` reports is the closed form over
    GAE returns at the gamma and lambda its module reads (patched to 0.9
    and 0.5 here, neither Table 2's): ``1 - Var(R - V) / Var(R)`` with
    ``R = A + V``.  Episodes of five steps and a bootstrapped tail make
    both matter.  ``ppo`` is the namespace of a ``repro.rl.ppo``."""
    gamma, lam, boot = 0.9, 0.5, 0.7
    model = PreferenceActorCritic(obs_dim=3, weight_dim=0, act_dim=1,
                                  hidden_sizes=(6,), rng=np.random.default_rng(4))
    rng = np.random.default_rng(16)
    buf = RolloutBuffer(3, 0, 1, 32)
    for i in range(32):
        buf.add(rng.normal(size=3), [0.0], 0.0, rng.normal(), rng.normal(),
                i % 5 == 4)

    def explained(g, lmb):
        returns = gae_advantages(buf.rewards, buf.values, buf.dones, g, lmb,
                                 boot) + buf.values
        return 1.0 - (returns - buf.values).var() / returns.var()

    # The closed form tells the patched gamma and lambda from a swap,
    # from lambda read as gamma, and from Table 2's.
    expected = explained(gamma, lam)
    for g, lmb in ((lam, gamma), (gamma, gamma),
                   (DISCOUNT_FACTOR, GAE_LAMBDA)):
        assert abs(explained(g, lmb) - expected) > 1e-3
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(ppo, "DISCOUNT_FACTOR", gamma)
        patch.setitem(ppo, "GAE_LAMBDA", lam)
        stats = ppo["PPOTrainer"](model, rng=np.random.default_rng(5)).update(
            buf, boot)
    assert stats.explained_variance == pytest.approx(expected, rel=1e-12)


class TestClippingBehaviour:
    def test_stale_buffer_produces_clipping(self, monkeypatch):
        """Re-updating many times on one buffer must trigger the clip."""
        monkeypatch.setattr(repro.rl.ppo, "LEARNING_RATE", 5e-3)
        monkeypatch.setattr(repro.rl.ppo, "EPOCHS_PER_ITERATION", 1)
        model = PreferenceActorCritic(obs_dim=3, weight_dim=0, act_dim=1,
                                      hidden_sizes=(6,), rng=np.random.default_rng(12))
        trainer = PPOTrainer(model, rng=np.random.default_rng(13))
        rng = np.random.default_rng(14)
        buf = RolloutBuffer(3, 0, 1, 64)
        for i in range(64):
            obs = rng.normal(size=3)
            action, log_prob, value = model.act(obs, None, rng)
            buf.add(obs, action, log_prob, value, rng.normal(), i == 63)
        clip_fractions = [trainer.update(buf).clip_fraction for _ in range(20)]
        assert clip_fractions[-1] > 0.0
