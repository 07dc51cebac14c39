"""Tests for the training pipeline: collectors, offline/online, DQN, zoo."""

from pathlib import Path

import numpy as np
import pytest

from repro.config import DEFAULT_TRAINING, NetworkParams
from repro.core.agent import MoccAgent
from repro.core.offline import OfflineTrainer, train_individual, train_single_objective
from repro.core.online import OnlineAdapter
from repro.models.zoo import BUDGETS, ModelZoo, TrainingBudget
from repro.rl.dqn import DQNTrainer, QNetwork, ReplayBuffer, action_bins
from repro.rl.parallel import EnvSpec, ProcessCollector, SerialCollector, VectorCollector

SPEC = EnvSpec(params=NetworkParams(3.0, 20.0, 200, 0.0), max_steps=16, seed=2)
TINY = DEFAULT_TRAINING.replace(steps_per_iteration=48)


class TestCollectors:
    def _model(self):
        return MoccAgent(TINY).model

    def test_serial_collect_shapes(self):
        collector = SerialCollector(SPEC)
        buffers, boots, reward = collector.collect(
            self._model(), [0.5, 0.3, 0.2], 32, np.random.default_rng(0))
        assert len(buffers) == 1
        assert buffers[0].size == 32
        assert len(boots) == 1

    def test_vector_collect_splits_steps(self):
        collector = VectorCollector(SPEC, n_envs=2)
        buffers, boots, reward = collector.collect(
            self._model(), [0.5, 0.3, 0.2], 32, np.random.default_rng(0))
        assert len(buffers) == 2
        assert all(b.size == 16 for b in buffers)

    def test_process_collect_roundtrip(self):
        collector = ProcessCollector(SPEC, n_workers=2)
        try:
            buffers, boots, reward = collector.collect(
                self._model(), [0.5, 0.3, 0.2], 32, np.random.default_rng(0))
            assert len(buffers) == 2
            assert all(b.size == 16 for b in buffers)
            assert np.isfinite(reward)
        finally:
            collector.close()

    def test_env_spec_picklable(self):
        import pickle
        assert pickle.loads(pickle.dumps(SPEC)) == SPEC


class TestOfflineTrainer:
    def test_objective_log_records(self):
        trainer = OfflineTrainer(spec=SPEC, config=TINY, seed=1)
        trainer.train_objective([0.6, 0.3, 0.1], iterations=2)
        assert len(trainer.log) == 2
        assert trainer.log[0].objective == (0.6, 0.3, 0.1)

    def test_joint_training_logs_all_objectives(self):
        trainer = OfflineTrainer(spec=SPEC, config=TINY, seed=1)
        trainer.train_objectives_jointly([[0.6, 0.3, 0.1], [0.1, 0.6, 0.3]], 2)
        assert len(trainer.log) == 4  # 2 objectives x 2 iterations

    def test_two_phase_structure(self):
        trainer = OfflineTrainer(spec=SPEC, config=TINY, seed=1)
        result = trainer.train(omega=6, bootstrap_iters=1, traverse_iters=1, cycles=1)
        phases = {entry.phase for entry in result.log}
        assert phases == {"bootstrap", "traverse"}
        assert len(result.landmarks) == 6
        assert sorted(result.traversal) == list(range(6))
        assert result.wall_time > 0

    def test_parameters_change(self):
        trainer = OfflineTrainer(spec=SPEC, config=TINY, seed=1)
        before = trainer.agent.model.state_dict()
        trainer.train_objective([0.6, 0.3, 0.1], iterations=1)
        after = trainer.agent.model.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_train_single_objective_trace(self):
        agent, trace, marks = train_single_objective(
            SPEC, (0.8, 0.1, 0.1), 3, config=TINY, seed=4, eval_every=2)
        assert agent.weight_dim == 0
        assert len(trace) == 3
        assert len(marks) == 2  # iterations 0 and 2

    def test_train_individual_separate_models(self):
        models = train_individual(SPEC, [(0.8, 0.1, 0.1), (0.1, 0.8, 0.1)],
                                  iterations=1, config=TINY, seed=5)
        assert len(models) == 2
        a, b = models.values()
        assert a is not b


class TestOnlineAdapter:
    def test_rejects_single_objective_agent(self):
        with pytest.raises(ValueError):
            OnlineAdapter(MoccAgent(TINY, weight_dim=0), SPEC, config=TINY)

    def test_adapt_produces_trace(self):
        agent = MoccAgent(TINY)
        adapter = OnlineAdapter(agent, SPEC, config=TINY, seed=6)
        adapter.seed_replay([[0.6, 0.3, 0.1]])
        trace = adapter.adapt([0.45, 0.45, 0.10], iterations=2, eval_every=1,
                              old_weights=[0.6, 0.3, 0.1])
        assert len(trace.rewards) == 2
        assert len(trace.new_marks) >= 1
        assert len(trace.old_marks) >= 1
        # The new objective joins the replay pool afterwards.
        assert len(adapter.replay) == 2

    def test_adapt_without_replay(self):
        agent = MoccAgent(TINY)
        adapter = OnlineAdapter(agent, SPEC, config=TINY, seed=7)
        trace = adapter.adapt([0.45, 0.45, 0.10], iterations=1, eval_every=0,
                              use_replay=False)
        assert len(trace.rewards) == 1


class TestDQN:
    def test_action_bins_symmetric(self):
        bins = action_bins(9, 2.0)
        assert len(bins) == 9
        assert bins[0] == -2.0 and bins[-1] == 2.0
        np.testing.assert_allclose(bins, -bins[::-1])

    def test_qnetwork_forward_shape(self):
        q = QNetwork(obs_dim=8, weight_dim=3, n_actions=5)
        out = q.forward(np.zeros((4, 8)), np.full((4, 3), 1 / 3))
        assert out.shape == (4, 5)

    def test_qnetwork_clone(self):
        q = QNetwork(obs_dim=8, weight_dim=3, n_actions=5)
        twin = q.clone()
        obs = np.ones((1, 8))
        w = np.full((1, 3), 1 / 3)
        np.testing.assert_allclose(q.forward(obs, w), twin.forward(obs, w))

    def test_replay_buffer_wraps(self):
        buf = ReplayBuffer(obs_dim=4, weight_dim=3, capacity=8)
        for i in range(12):
            buf.add(np.full(4, i), 0, 0.0, np.zeros(4), False, weights=np.full(3, 1 / 3))
        assert buf.size == 8

    def test_epsilon_decays(self):
        trainer = DQNTrainer(obs_dim=8, weight_dim=3, seed=1)
        e0 = trainer.epsilon()
        trainer.env_steps = 10_000
        assert trainer.epsilon() < e0

    def test_training_step_runs(self):
        trainer = DQNTrainer(obs_dim=StatDim.OBS, weight_dim=3, seed=1)
        env = SPEC.build()
        reward = trainer.train_objective(env, [0.5, 0.3, 0.2], steps=48)
        assert np.isfinite(reward)
        assert trainer.env_steps == 48


class StatDim:
    OBS = 40  # 4 features x history 10


class TestZoo:
    def test_cache_roundtrip(self, tmp_path):
        BUDGETS["tiny"] = TrainingBudget(
            bootstrap_iters=1, traverse_iters=1, cycles=1,
            single_objective_iters=1, steps_per_iteration=32, episode_steps=8)
        try:
            zoo = ModelZoo(cache_dir=tmp_path)
            a1 = zoo.aurora_for([0.5, 0.3, 0.2], tag="t", quality="tiny")
            files = list(tmp_path.glob("*.npz"))
            assert len(files) == 1
            # Second zoo instance loads from disk, same parameters.
            zoo2 = ModelZoo(cache_dir=tmp_path)
            a2 = zoo2.aurora_for([0.5, 0.3, 0.2], tag="t", quality="tiny")
            np.testing.assert_allclose(a1.model.log_std.value, a2.model.log_std.value)
        finally:
            BUDGETS.pop("tiny")

    def test_interrupted_save_leaves_no_checkpoint(self, tmp_path,
                                                   monkeypatch):
        BUDGETS["tiny"] = TrainingBudget(1, 1, 1, 1, 32, 8)
        real_savez = np.savez

        def torn_savez(path, **arrays):
            real_savez(path, **arrays)
            whole = Path(path).read_bytes()
            Path(path).write_bytes(whole[:len(whole) // 2])
            raise OSError("killed mid-write")

        try:
            monkeypatch.setattr(np, "savez", torn_savez)
            with pytest.raises(OSError, match="killed mid-write"):
                ModelZoo(cache_dir=tmp_path).aurora_for(
                    [0.5, 0.3, 0.2], tag="t", quality="tiny")
            # Nothing a later run would mistake for a checkpoint.
            assert not list(tmp_path.glob("*.npz"))
            monkeypatch.setattr(np, "savez", real_savez)
            trained = ModelZoo(cache_dir=tmp_path).aurora_for(
                [0.5, 0.3, 0.2], tag="t", quality="tiny")
            assert len(list(tmp_path.glob("*.npz"))) == 1
            loaded = ModelZoo(cache_dir=tmp_path).aurora_for(
                [0.5, 0.3, 0.2], tag="t", quality="tiny")
            np.testing.assert_array_equal(trained.model.log_std.value,
                                          loaded.model.log_std.value)
        finally:
            BUDGETS.pop("tiny")

    def test_memory_cache(self, tmp_path):
        BUDGETS["tiny"] = TrainingBudget(1, 1, 1, 1, 32, 8)
        try:
            zoo = ModelZoo(cache_dir=tmp_path)
            a1 = zoo.aurora_for([0.5, 0.3, 0.2], tag="t", quality="tiny")
            a2 = zoo.aurora_for([0.5, 0.3, 0.2], tag="t", quality="tiny")
            assert a1 is a2
            zoo.clear()
            a3 = zoo.aurora_for([0.5, 0.3, 0.2], tag="t", quality="tiny")
            assert a3 is not a1
        finally:
            BUDGETS.pop("tiny")
