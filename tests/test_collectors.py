"""Collector parity: Serial and Vector agree on shapes and handle
both preference-conditioned and unconditioned models (incl. the
``weights=None`` path and the no-finished-episode reward fallback)."""

import numpy as np
import pytest

from repro.config import DEFAULT_TRAINING, NetworkParams
from repro.core.agent import MoccAgent
from repro.rl.collect import BALANCED_OBJECTIVE, evaluate_policy, resolve_objective
from repro.rl.parallel import EnvSpec, SerialCollector, VectorCollector

SPEC = EnvSpec(params=NetworkParams(3.0, 20.0, 200, 0.0), max_steps=16, seed=2)
WEIGHTS = [0.5, 0.3, 0.2]


def _collectors():
    return [("serial", SerialCollector(SPEC), 1),
            ("vector", VectorCollector(SPEC, n_envs=2), 2)]


def _conditioned():
    return MoccAgent(DEFAULT_TRAINING, weight_dim=3).model


def _unconditioned():
    return MoccAgent(DEFAULT_TRAINING, weight_dim=0).model


class TestResolveObjective:
    def test_none_defaults_to_balanced_for_unconditioned(self):
        np.testing.assert_allclose(resolve_objective(None, conditioned=False),
                                   BALANCED_OBJECTIVE)

    def test_none_rejected_for_conditioned(self):
        with pytest.raises(ValueError, match="preference-conditioned"):
            resolve_objective(None, conditioned=True)

    def test_passthrough(self):
        np.testing.assert_allclose(resolve_objective(WEIGHTS, True), WEIGHTS)

    def test_evaluate_policy_accepts_none_for_unconditioned(self):
        reward = evaluate_policy(SPEC.build(), _unconditioned(), None)
        assert np.isfinite(reward)

    def test_evaluate_policy_is_one_deterministic_episode(self):
        """No exploration noise: two evaluations on equally seeded
        environments return the same reward."""
        model = _conditioned()
        first = evaluate_policy(SPEC.build(), model, WEIGHTS)
        assert np.isfinite(first)
        assert evaluate_policy(SPEC.build(), model, WEIGHTS) == first


class TestCollectorParity:
    @pytest.mark.parametrize("model_kind", ["conditioned", "unconditioned"])
    def test_buffer_shapes_and_bootstraps(self, model_kind):
        conditioned = model_kind == "conditioned"
        weights = WEIGHTS if conditioned else None
        for name, collector, n_shards in _collectors():
            model = _conditioned() if conditioned else _unconditioned()
            buffers, boots, reward = collector.collect(
                model, weights, 32, np.random.default_rng(0))
            assert len(buffers) == len(boots) == n_shards, name
            for buffer in buffers:
                assert buffer.size == 32 // n_shards, name
                assert buffer.obs.shape[1] == collector.spec.build().observation_dim
                # Unconditioned models carry no weight columns.
                assert (buffer.weights is not None) == conditioned, name
            assert all(np.isfinite(b) for b in boots), name
            assert np.isfinite(reward), name

    def test_conditioned_model_requires_weights_everywhere(self):
        for name, collector, _ in _collectors():
            with pytest.raises(ValueError, match="preference-conditioned"):
                collector.collect(_conditioned(), None, 8,
                                  np.random.default_rng(0))


class TestVectorRewardFallback:
    def test_partial_episodes_extrapolated_to_horizon(self):
        # per_env = 16 // 2 = 8 < max_steps = 16: no episode can finish,
        # so the fallback must extrapolate per-step reward to the
        # horizon rather than reporting 8-step partials as episodes.
        collector = VectorCollector(SPEC, n_envs=2)
        buffers, _, reward = collector.collect(
            _conditioned(), WEIGHTS, 16, np.random.default_rng(0))
        assert not any(b.dones[:b.size].any() for b in buffers)
        partial_totals = [b.rewards[:b.size].sum() for b in buffers]
        expected = float(np.mean([t * SPEC.max_steps / 8 for t in partial_totals]))
        assert reward == pytest.approx(expected)
        # Sanity: the estimate is about double the raw partial mean.
        assert reward == pytest.approx(2.0 * np.mean(partial_totals))

    def test_serial_fallback_also_extrapolated(self):
        # The extrapolation lives in shared collect_rollout, so Serial
        # agrees with Vector on reward scale when the rollout is shorter
        # than an episode.
        collector = SerialCollector(SPEC)
        buffers, _, reward = collector.collect(
            _conditioned(), WEIGHTS, 8, np.random.default_rng(0))
        assert not buffers[0].dones[:8].any()
        partial = buffers[0].rewards[:8].sum()
        assert reward == pytest.approx(partial * SPEC.max_steps / 8)

    def test_finished_episodes_not_extrapolated(self):
        # per_env = 32 > max_steps = 16: every env finishes at least one
        # episode and the mean must come from completed episodes only.
        collector = VectorCollector(SPEC, n_envs=2)
        buffers, _, reward = collector.collect(
            _conditioned(), WEIGHTS, 64, np.random.default_rng(0))
        finished = []
        for buffer in buffers:
            total = 0.0
            for r, done in zip(buffer.rewards[:buffer.size],
                               buffer.dones[:buffer.size]):
                total += r
                if done:
                    finished.append(total)
                    total = 0.0
        assert finished
        assert reward == pytest.approx(float(np.mean(finished)))
