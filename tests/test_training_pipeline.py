"""Tests for the training pipeline: collectors, offline/online, DQN, zoo."""

import multiprocessing as mp
import os
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import repro.pool as pool
from repro.config import DEFAULT_TRAINING, NetworkParams
from repro.core.agent import MoccAgent
from repro.core.offline import OfflineTrainer, train_single_objective
from repro.core.online import OnlineAdapter
from repro.models.zoo import BUDGETS, ModelZoo, TrainingBudget
from repro.pool import set_chaos_hook
from repro.rl.dqn import DQNTrainer, QNetwork, ReplayBuffer, action_bins
from repro.rl.parallel import EnvSpec, SerialCollector, VectorCollector
from test_resilience import _kill_batch_once
from test_training_goldens import model_sha

SPEC = EnvSpec(ranges=NetworkParams(3.0, 20.0, 200, 0.0), max_steps=16, seed=2)
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

    def test_env_spec_picklable(self):
        import pickle
        assert pickle.loads(pickle.dumps(SPEC)) == SPEC


def rows_carry_their_update_stats(trainer_cls) -> None:
    """Every log row holds the statistics its iteration's update
    returned, and they are finite."""
    trainer = trainer_cls(spec=SPEC, config=TINY, seed=1)
    returned = []
    update = trainer.ppo.update

    def spy(buffers, boots):
        returned.append(update(buffers, boots))
        return returned[-1]

    trainer.ppo.update = spy
    # Two bootstrap iterations over the three pivots, then the three
    # landmarks of the omega = 3 grid, each beside the pivots.
    result = trainer.train(omega=3, bootstrap_iters=2, traverse_iters=1,
                           cycles=1)
    assert len(returned) == result.total_iterations == 5
    assert [row.iteration for row in result.log] == (
        [1] * 3 + [2] * 3 + [3] * 4 + [4] * 4 + [5] * 4)
    for row in result.log:
        stats = astuple(row.stats)
        assert stats == astuple(returned[row.iteration - 1])
        assert np.isfinite(stats).all()


class DrawLog:
    """A generator's stand-in that logs each exploration-noise block
    drawn from it (a rollout's one draw) as ``"rollout"``."""

    def __init__(self, rng, calls: list):
        self._rng, self._calls = rng, calls

    def standard_normal(self, *args, **kwargs):
        self._calls.append("rollout")
        return self._rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def replay_drawn_between_rollouts(adapter_cls) -> None:
    """Eq. 6's old objective is drawn after the new objective's rollout
    and before its own: a rollout draws its noise block from the
    trainer's generator, the replay draws its objective from the same
    one, and one collect call takes both rollouts."""
    adapter = adapter_cls(MoccAgent(TINY, seed=3), SPEC, seed=6)
    adapter.seed_replay([[0.6, 0.3, 0.1]])
    calls = []
    collect, sample = adapter.trainer.collector.collect, adapter.replay.sample

    def spy_collect(*args):
        calls.append("collect")
        return collect(*args)

    def spy_sample(*args, **kwargs):
        calls.append("sample")
        return sample(*args, **kwargs)

    adapter.trainer.collector.collect = spy_collect
    adapter.trainer.rng = DrawLog(adapter.trainer.rng, calls)
    adapter.replay.sample = spy_sample
    adapter.adapt([0.45, 0.45, 0.10], iterations=2, eval_every=0)
    assert calls == ["collect", "rollout", "sample", "rollout"] * 2


class TestOfflineTrainer:
    def test_objective_log_records(self):
        trainer = OfflineTrainer(spec=SPEC, config=TINY, seed=1)
        for _ in range(2):
            trainer.iterate([[0.6, 0.3, 0.1]], "joint")
        assert len(trainer.log) == 2
        assert trainer.log[0].objective == (0.6, 0.3, 0.1)

    def test_joint_training_logs_all_objectives(self):
        trainer = OfflineTrainer(spec=SPEC, config=TINY, seed=1)
        for _ in range(2):
            rewards = trainer.iterate([[0.6, 0.3, 0.1], [0.1, 0.6, 0.3]], "joint")
        assert len(rewards) == 2
        assert len(trainer.log) == 4  # 2 objectives x 2 iterations

    def test_two_phase_structure(self):
        trainer = OfflineTrainer(spec=SPEC, config=TINY, seed=1)
        result = trainer.train(omega=6, bootstrap_iters=1, traverse_iters=1, cycles=1)
        phases = {entry.phase for entry in result.log}
        assert phases == {"bootstrap", "traverse"}
        # No pivot lies on the omega = 6 grid: one bootstrap iteration,
        # then all six landmarks, each beside the three pivots.
        assert result.total_iterations == 1 + 6
        assert len(result.log) == 3 + 6 * 4

    def test_parameters_change(self):
        trainer = OfflineTrainer(spec=SPEC, config=TINY, seed=1)
        before = trainer.agent.model.state_dict()
        trainer.iterate([[0.6, 0.3, 0.1]], "joint")
        after = trainer.agent.model.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_every_row_carries_its_update_stats(self):
        rows_carry_their_update_stats(OfflineTrainer)

    def test_train_single_objective_trace(self):
        agent, trace = train_single_objective(
            SPEC, (0.8, 0.1, 0.1), 3, config=TINY, seed=4)
        assert agent.weight_dim == 0
        assert len(trace) == 3


#: Three segments of 16 steps per objective: an iteration runs on the
#: pool wherever two cores are usable.
POOLED_OBJECTIVES = ([0.6, 0.3, 0.1], [0.1, 0.6, 0.3])


def one_iteration() -> tuple[str, list[float]]:
    """The model sha and rewards after one pooled-size iteration."""
    trainer = OfflineTrainer(spec=SPEC, config=TINY, seed=1)
    rewards = trainer.iterate(POOLED_OBJECTIVES, "joint")
    return model_sha(trainer.agent.model), rewards


def _iterate_in_a_daemon(conn) -> None:
    sha, rewards = one_iteration()
    conn.send((sha, rewards, len(pool._IDLE)))


class TestPooledIteration:
    def test_a_worker_killed_mid_iteration_is_retried(self, tmp_path):
        reference = one_iteration()
        marker = tmp_path / "killed"
        set_chaos_hook(_kill_batch_once(marker, 2))
        try:
            killed = one_iteration()
        finally:
            set_chaos_hook(None)
        if len(os.sched_getaffinity(0)) > 1:
            assert marker.exists()  # segment 2 was killed once
        assert killed == reference

    def test_a_traced_collect_sees_one_call_per_iteration(self):
        """The perf ledger times rollouts by wrapping
        ``trainer.collector.collect`` on the instance."""
        plain = OfflineTrainer(spec=SPEC, config=TINY, seed=1)
        plain.train(omega=3, bootstrap_iters=2, traverse_iters=1, cycles=1)
        trainer = OfflineTrainer(spec=SPEC, config=TINY, seed=1)
        collect, env_steps = trainer.collector.collect, []

        def traced_collect(model, weights, steps, rng):
            buffers, boots, reward = collect(model, weights, steps, rng)
            env_steps.append(sum(b.size for b in buffers))
            return buffers, boots, reward

        trainer.collector.collect = traced_collect
        result = trainer.train(omega=3, bootstrap_iters=2, traverse_iters=1,
                               cycles=1)
        assert len(env_steps) == result.total_iterations == 5
        assert sum(env_steps) == len(result.log) * TINY.steps_per_iteration
        assert model_sha(trainer.agent.model) == model_sha(plain.agent.model)

    def test_a_training_in_a_daemonic_process_runs_in_process(self):
        """A pool worker may not fork children: a training started in
        one runs its segments in process, to the same model."""
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_iterate_in_a_daemon, args=(child_conn,),
                           daemon=True)
        proc.start()
        sha, rewards, workers = parent_conn.recv()
        proc.join()
        assert proc.exitcode == 0
        assert workers == 0  # it forked no pool workers
        assert (sha, rewards) == one_iteration()


class TestOnlineAdapter:
    def test_rejects_single_objective_agent(self):
        with pytest.raises(ValueError):
            OnlineAdapter(MoccAgent(TINY, weight_dim=0), SPEC)

    def test_adapt_produces_trace(self):
        agent = MoccAgent(TINY)
        adapter = OnlineAdapter(agent, SPEC, seed=6)
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
        adapter = OnlineAdapter(agent, SPEC, seed=7)
        trace = adapter.adapt([0.45, 0.45, 0.10], iterations=1, eval_every=0,
                              use_replay=False)
        assert len(trace.rewards) == 1

    def test_replay_drawn_between_rollouts(self):
        replay_drawn_between_rollouts(OnlineAdapter)


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
        buf = ReplayBuffer(obs_dim=4, weight_dim=3)
        for i in range(buf.capacity + 4):
            buf.add(np.full(4, i), 0, 0.0, np.zeros(4), False, weights=np.full(3, 1 / 3))
        assert buf.size == buf.capacity
        assert buf.obs[3, 0] == buf.capacity + 3  # overwritten by the wrap

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
        finally:
            BUDGETS.pop("tiny")
