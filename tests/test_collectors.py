"""Collector parity: Serial and Vector agree on shapes and handle
both preference-conditioned and unconditioned models (incl. the
``weights=None`` path and the no-finished-episode reward fallback),
each collector's rollouts keep their pinned digest, a rollout's
actions and log-probabilities follow the sampling law, and a rollout
whose segments run on the pool is bit for bit the one run in process."""

import hashlib
import os

import numpy as np
import pytest

from repro.config import DEFAULT_TRAINING, TRAINING_RANGES, NetworkParams
from repro.core.agent import MoccAgent
from repro.rl.collect import BALANCED_OBJECTIVE, evaluate_policy, resolve_objective
from repro.pool import set_chaos_hook
from repro.rl.distributions import DiagGaussian
from repro.rl.parallel import EnvSpec, SerialCollector, VectorCollector

from test_policy import action_on

SPEC = EnvSpec(ranges=NetworkParams(3.0, 20.0, 200, 0.0), max_steps=16, seed=2)
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

    @pytest.mark.parametrize("kind, steps", [
        ("vector", 0), ("vector", 1), ("vector", 15), ("vector", 17),
        ("vector", 31), ("serial", 0)])
    def test_vector_steps_must_split_evenly(self, kind, steps):
        """Asked for a number of steps it cannot split evenly (or for
        none), a collector refuses instead of filling a different
        number."""
        collectors = {name: (c, n) for name, c, n in _collectors()}
        collector, n_envs = collectors[kind]
        with pytest.raises(ValueError, match=f"multiple of n_envs={n_envs}"):
            collector.collect(_conditioned(), WEIGHTS, steps,
                              np.random.default_rng(0))

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
        # Serial is the same loop over one env, so it agrees with Vector
        # on reward scale when the rollout is shorter than an episode.
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


#: sha256 of every collected buffer's bytes, bootstrap and mean reward
#: (see ``rollout_digest``), per collector.  Any change to the draw
#: order, the sampling arithmetic or the log-probability scoring moves
#: these; a refactor of either collector must leave them alone.
ROLLOUT_DIGESTS = {
    "serial": "54e0736d2de14311f3cc1e9d7aae9b7a"
              "fd327d8f439a9f0e6ff5158baf6656dd",
    "vector-1": "eb75e6d5574a66e3ca49dafe56bf2f1a"
                "5c54456b976ea585d588b707800c5923",
    "vector-3": "a5356754422a6d1c5dee121f06c50cf9"
                "8fa5b8c1d41244cd286b85d8da0e3678",
}
COLLECTORS = {
    "serial": lambda: SerialCollector(SPEC),
    "vector-1": lambda: VectorCollector(SPEC, n_envs=1),
    "vector-3": lambda: VectorCollector(SPEC, n_envs=3),
}


def rollout_digest(collector) -> str:
    """A 60-step rollout at rng seed 0 and a 48-step one at seed 1 of
    the conditioned model.  ``max_steps`` is 16, so every env finishes
    an episode in each (three envs take 20 and 16 steps); the first
    ends mid-episode and the second on a boundary, so resets, dones and
    both bootstrap branches are all hashed."""
    h = hashlib.sha256()
    model = _conditioned()
    for seed, steps in ((0, 60), (1, 48)):
        buffers, boots, reward = collector.collect(
            model, WEIGHTS, steps, np.random.default_rng(seed))
        for buffer in buffers:
            for field in (buffer.obs, buffer.weights, buffer.actions,
                          buffer.log_probs, buffer.values, buffer.rewards,
                          buffer.dones):
                h.update(field[:buffer.size].tobytes())
        h.update(np.array(boots, dtype=np.float64).tobytes())
        h.update(np.float64(reward).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", COLLECTORS)
def test_rollouts_keep_their_digest(name):
    assert rollout_digest(COLLECTORS[name]()) == ROLLOUT_DIGESTS[name]


def sampling_law_holds(serial_collector) -> None:
    """Bit for bit, a collected buffer's ``actions`` are ``mu +
    exp(log_std) * eps`` and its ``log_probs`` are
    ``DiagGaussian.log_prob(actions, mu, log_std)``: ``mu`` recomputed
    per stored obs through ``plan.action``, ``eps`` the first ``steps``
    rows a twin generator's ``standard_normal((steps, act_dim))`` draws.

    ``serial_collector`` is :class:`SerialCollector` or a stand-in for
    it.  The 40 steps cross an episode boundary (``max_steps`` is 16).
    """
    model, steps, seed = _conditioned(), 40, 7
    assert model.act_dim == 1  # plan.action returns the mean's one entry
    (buffer,), _, _ = serial_collector(SPEC).collect(
        model, WEIGHTS, steps, np.random.default_rng(seed))
    assert buffer.dones.any()
    plan = model.plan(WEIGHTS)
    mu = np.array([[action_on(plan, obs)] for obs in buffer.obs])
    eps = np.random.default_rng(seed).standard_normal((steps, model.act_dim))
    log_std = model.log_std.value
    assert np.array_equal(buffer.actions, mu + np.exp(log_std) * eps)
    assert np.array_equal(buffer.log_probs,
                          DiagGaussian.log_prob(buffer.actions, mu, log_std))


def test_rollout_samples_by_the_law():
    sampling_law_holds(SerialCollector)


def on_one_core(check) -> None:
    """``check()`` with this process pinned to one core, where a
    collector runs its segments in process."""
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        check()
    finally:
        os.sched_setaffinity(0, cores)


#: Table-3 episodes: every reset draws a network as well as a rate.
RANGED = EnvSpec(ranges=TRAINING_RANGES, max_steps=16, seed=5)
OBJECTIVES = ([0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6])


def lazy_objectives(rng):
    """Two objectives, the second drawn from the rollouts' own
    generator after the first rollout drew its noise."""
    yield WEIGHTS
    yield OBJECTIVES[int(rng.integers(len(OBJECTIVES)))]


def two_collects(make, model, weights, steps: int) -> str:
    """sha256 over two collects in a row on one collector (the second
    starts where the first left every env's stream): every buffer's
    fields, the bootstraps, the rewards, and after both the envs'
    stream states and the generator's."""
    collector = make()
    rng = np.random.default_rng(11)
    h = hashlib.sha256()
    for _ in range(2):
        buffers, boots, rewards = collector.collect(
            model, weights(rng) if callable(weights) else weights, steps, rng)
        for buffer in buffers:
            for field in (buffer.obs, buffer.weights, buffer.actions,
                          buffer.log_probs, buffer.values, buffer.rewards,
                          buffer.dones):
                if field is not None:
                    h.update(field[:buffer.size].tobytes())
        h.update(np.array(boots, dtype=np.float64).tobytes())
        h.update(np.array(rewards, dtype=np.float64).tobytes())
    for env in collector.envs:
        h.update(repr((env.rng.bit_generator.state, env._episode_seed)).encode())
    h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest()


def task_logger(path):
    """Chaos hook: one line per task a pool worker starts."""
    def hook(task_id) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{task_id}\n")
    return hook


@pytest.mark.parametrize("make", [lambda: SerialCollector(RANGED),
                                  lambda: VectorCollector(RANGED, n_envs=3)],
                         ids=["serial", "vector-3"])
def test_a_rollout_ending_an_episode_draws_the_reset_after_it(make):
    """A lockstep loop resets an env the step its episode ends, the
    last step included: 32 steps per env of 16-step episodes draw
    three episodes from every env's stream, the third never run."""
    collector = make()
    collector.collect(_conditioned(), WEIGHTS, 32 * len(collector.envs),
                      np.random.default_rng(0))
    for env, twin in zip(collector.envs, make().envs):
        for _ in range(3):
            twin.draw()
        assert env.rng.bit_generator.state == twin.rng.bit_generator.state
        assert env._episode_seed == twin._episode_seed


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one usable core: every rollout runs in process")
class TestPooledEqualsInProcess:
    """Bit for bit, a collect whose segments run on the pool equals
    the same collect run in process."""

    MAKERS = {"serial": lambda: SerialCollector(RANGED),
              "vector-3": lambda: VectorCollector(RANGED, n_envs=3)}

    def check(self, tmp_path, kind, model, weights, per_env) -> None:
        make = self.MAKERS[kind]
        steps = per_env * len(make().envs)
        in_process = []
        on_one_core(lambda: in_process.append(
            two_collects(make, model, weights, steps)))
        log = tmp_path / "tasks"
        set_chaos_hook(task_logger(log))
        try:
            pooled = two_collects(make, model, weights, steps)
        finally:
            set_chaos_hook(None)
        assert log.read_text().split(), "no segment ran on the pool"
        assert pooled == in_process[0]

    # 48 steps end on an episode boundary (the reset that ends the
    # rollout draws too), 40 end mid-episode, 12 finish no episode (and
    # are one segment, which runs in process: two objectives make two).
    @pytest.mark.parametrize("per_env, weights", [
        (48, WEIGHTS), (40, WEIGHTS), (12, OBJECTIVES[:2])])
    @pytest.mark.parametrize("kind", ["serial", "vector-3"])
    def test_a_conditioned_model(self, tmp_path, kind, per_env, weights):
        self.check(tmp_path, kind, _conditioned(), weights, per_env)

    @pytest.mark.parametrize("kind", ["serial", "vector-3"])
    def test_an_unconditioned_model_given_no_weights(self, tmp_path, kind):
        self.check(tmp_path, kind, _unconditioned(), None, 40)

    @pytest.mark.parametrize("kind", ["serial", "vector-3"])
    def test_objectives_drawn_between_rollouts(self, tmp_path, kind):
        self.check(tmp_path, kind, _conditioned(), lazy_objectives, 40)
