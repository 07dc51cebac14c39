"""Tests for the preference-conditioned actor-critic (repro.rl.policy)."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.agent import MoccAgent
from repro.netsim.history import StatHistory
from repro.rl.distributions import DiagGaussian
from repro.rl.dqn import QNetwork
from repro.rl.nn import numerical_gradient
from repro.rl.optim import Adam
from repro.rl.policy import PreferenceActorCritic


def make_model(weight_dim=3, obs_dim=6, hidden=(8, 4), pref_hidden=5, seed=0):
    return PreferenceActorCritic(obs_dim=obs_dim, weight_dim=weight_dim, act_dim=1,
                                 hidden_sizes=hidden, pref_hidden=pref_hidden,
                                 rng=np.random.default_rng(seed))


class TestForward:
    def test_shapes(self):
        model = make_model()
        mean, value = model.forward(np.zeros((4, 6)), np.full((4, 3), 1 / 3))
        assert mean.shape == (4, 1)
        assert value.shape == (4,)

    def test_single_sample_promotion(self):
        model = make_model()
        mean, value = model.forward(np.zeros(6), np.full(3, 1 / 3))
        assert mean.shape == (1, 1)

    def test_weight_broadcast(self):
        model = make_model()
        m1, _ = model.forward(np.zeros((3, 6)), np.full((1, 3), 1 / 3))
        m2, _ = model.forward(np.zeros((3, 6)), np.full((3, 3), 1 / 3))
        np.testing.assert_allclose(m1, m2)

    def test_missing_weights_raises(self):
        model = make_model()
        with pytest.raises(ValueError, match="weights"):
            model.forward(np.zeros((1, 6)), None)

    def test_weightless_model_ignores_preferences(self):
        model = make_model(weight_dim=0)
        mean, value = model.forward(np.zeros((2, 6)))
        assert mean.shape == (2, 1)
        assert model.pref_net is None

    def test_different_weights_change_output(self):
        """The preference sub-network must influence the policy input."""
        model = make_model(seed=3)
        obs = np.random.default_rng(0).normal(size=(1, 6))
        m1, _ = model.forward(obs, np.array([[0.8, 0.1, 0.1]]))
        m2, _ = model.forward(obs, np.array([[0.1, 0.8, 0.1]]))
        assert not np.allclose(m1, m2)


class TestBackward:
    def test_actor_gradcheck(self):
        model = make_model(hidden=(5,), pref_hidden=3, seed=1)
        rng = np.random.default_rng(2)
        obs = rng.normal(size=(4, 6))
        w = np.abs(rng.normal(size=(4, 3))) + 0.1

        def loss():
            mean, value = model.forward(obs, w)
            return 0.5 * float(np.sum(mean ** 2)) + 0.5 * float(np.sum(value ** 2))

        mean, value = model.forward(obs, w)
        model.zero_grad()
        model.backward(mean, value)
        analytic = {n: p.grad.copy() for n, p in model.parameters().items()}
        numeric = numerical_gradient(loss, model.parameters())
        for name in analytic:
            if name == "log_std":
                continue  # not part of this loss
            np.testing.assert_allclose(analytic[name], numeric[name],
                                       atol=1e-5, rtol=1e-3, err_msg=name)

    def test_log_std_gradient_passthrough(self):
        model = make_model()
        model.forward(np.zeros((1, 6)), np.full((1, 3), 1 / 3))
        model.zero_grad()
        model.backward(np.zeros((1, 1)), np.zeros(1), d_log_std=np.array([0.7]))
        assert model.log_std.grad[0] == pytest.approx(0.7)

    def test_pref_net_receives_gradient(self):
        model = make_model(seed=5)
        rng = np.random.default_rng(6)
        obs = rng.normal(size=(3, 6))
        w = np.abs(rng.normal(size=(3, 3))) + 0.1
        mean, value = model.forward(obs, w)
        model.zero_grad()
        model.backward(np.ones_like(mean), np.ones_like(value))
        pref_grads = [p.grad for n, p in model.parameters().items()
                      if n.startswith("pref.")]
        assert any(np.any(g != 0) for g in pref_grads)

    @pytest.mark.parametrize("weight_dim", [3, 0])
    def test_single_state_queries_leave_backward_caches_alone(self, weight_dim):
        """``forward(batch) -> value/act(one state) -> backward`` used to
        backpropagate through the single state's caches (a matmul shape
        error, or silently wrong gradients at batch size 1)."""
        model = make_model(weight_dim=weight_dim, seed=7)
        rng = np.random.default_rng(8)
        obs = rng.normal(size=(4, 6))
        w = np.abs(rng.normal(size=(4, 3))) + 0.1 if weight_dim else None
        w_one = w[0] if weight_dim else None
        d_mean, d_value = rng.normal(size=(4, 1)), rng.normal(size=4)

        def grads(between):
            model.forward(obs, w)
            between()
            model.zero_grad()
            model.backward(d_mean, d_value)
            return model.parameters().grad.copy()

        def queries():
            model.value(rng.normal(size=6), w_one)
            model.act(rng.normal(size=6), w_one, rng)
            model.plan(w_one).act(rng.normal(size=6), rng)
            model.infer(rng.normal(size=(2, 6)), None if w is None else w[:2])

        want = grads(lambda: None)
        assert want.any()
        assert np.array_equal(grads(queries), want)


class TestActing:
    def test_deterministic_returns_mean(self):
        model = make_model()
        obs = np.ones(6)
        w = np.full(3, 1 / 3)
        action, log_prob, value = model.act(obs, w, np.random.default_rng(0),
                                            deterministic=True)
        mean, _ = model.forward(obs, w)
        np.testing.assert_allclose(action, mean[0])

    def test_stochastic_varies(self):
        model = make_model()
        rng = np.random.default_rng(0)
        w = np.full(3, 1 / 3)
        actions = {float(model.act(np.ones(6), w, rng)[0][0]) for _ in range(5)}
        assert len(actions) > 1

    def test_log_prob_is_finite(self):
        model = make_model()
        _, log_prob, _ = model.act(np.ones(6), np.full(3, 1 / 3),
                                   np.random.default_rng(1))
        assert np.isfinite(log_prob)

    def test_value_matches_forward(self):
        model = make_model()
        w = np.full(3, 1 / 3)
        _, _, value = model.act(np.ones(6), w, np.random.default_rng(0),
                                deterministic=True)
        assert value == pytest.approx(model.value(np.ones(6), w))


def reference_act(model, obs, weights, rng, deterministic=False):
    """``act`` as it was before the actor-only path: the caching
    ``forward`` for actor and critic, then sample and log-prob."""
    mean, value = model.forward(obs, weights)
    if deterministic:
        action = mean[0]
    else:
        action = DiagGaussian.sample(mean, model.log_std.value, rng)[0]
    log_prob = float(DiagGaussian.log_prob(action, mean, model.log_std.value)[0])
    return action, log_prob, float(value[0])


def random_pushes(history, rng, n):
    """Yield ``n`` observations from seeded random ``push_raw`` rows."""
    for _ in range(n):
        history.push_raw(*rng.uniform((0.0, 0.0, -12.0, 0.0), (12.0, 12.0, 12.0, 5.0)))
        yield history.vector()


@pytest.mark.parametrize("weight_dim", [3, 0])
class TestInferencePlan:
    """Differential: the plan must equal the full model bit for bit
    (``==``, never ``approx``) -- it is the same ops on the same shapes."""

    WEIGHTS = np.array([0.5, 0.3, 0.2])

    def _model(self, weight_dim):
        return make_model(weight_dim=weight_dim, obs_dim=40, hidden=(64, 32),
                          pref_hidden=16, seed=4)

    def test_mean_equals_forward_and_deterministic_act(self, weight_dim):
        model = self._model(weight_dim)
        w = self.WEIGHTS if weight_dim else None
        plan = model.plan(w)
        rng = np.random.default_rng(0)
        for obs in random_pushes(StatHistory(10), rng, 300):
            got = plan.mean(obs)
            assert got.shape == (1, 1)
            assert got[0, 0] == model.forward(obs, w)[0][0, 0]
            old_action, _, _ = reference_act(model, obs, w, rng, deterministic=True)
            assert plan.action(obs, rng, True) == float(old_action[0])

    def test_sampled_branch_draws_the_same_value(self, weight_dim):
        model = self._model(weight_dim)
        w = self.WEIGHTS if weight_dim else None
        plan = model.plan(w)
        rng_new, rng_old = np.random.default_rng(7), np.random.default_rng(7)
        for obs in random_pushes(StatHistory(10), np.random.default_rng(1), 200):
            old_action, _, _ = reference_act(model, obs, w, rng_old)
            assert plan.action(obs, rng_new, False) == float(old_action[0])
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_act_triple_unchanged(self, weight_dim):
        model = self._model(weight_dim)
        w = self.WEIGHTS if weight_dim else None
        for deterministic in (True, False):
            rng_new, rng_old = np.random.default_rng(3), np.random.default_rng(3)
            for obs in random_pushes(StatHistory(10), np.random.default_rng(2), 50):
                action, log_prob, value = model.act(obs, w, rng_new, deterministic)
                want = reference_act(model, obs, w, rng_old, deterministic)
                assert action.shape == (1,) and action[0] == want[0][0]
                assert (log_prob, value) == want[1:]

    def test_plan_act_and_value_equal_reference(self, weight_dim):
        """One plan over a whole rollout: the triple, the bootstrap value
        and the number of RNG draws are those of the per-call formula."""
        model = self._model(weight_dim)
        w = self.WEIGHTS if weight_dim else None
        plan = model.plan(w)
        for deterministic in (True, False):
            rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
            for obs in random_pushes(StatHistory(10), np.random.default_rng(6), 100):
                action, log_prob, value = plan.act(obs, rng_new, deterministic)
                want = reference_act(model, obs, w, rng_old, deterministic)
                assert action.shape == (1,) and action[0] == want[0][0]
                assert type(log_prob) is type(value) is float
                assert (log_prob, value) == want[1:]
                assert plan.value(obs) == want[2] == model.value(obs, w)
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
        # Batched no-grad inference is the same rows, cache-free.
        batch = np.stack(list(random_pushes(StatHistory(10), np.random.default_rng(9), 8)))
        w_batch = np.repeat(w[None, :], 8, axis=0) if weight_dim else None
        for got, want in zip(model.infer(batch, w_batch), model.forward(batch, w_batch)):
            assert np.array_equal(got, want)

    def test_actor_updates_seen_live_embedding_snapshotted(self, weight_dim):
        model = self._model(weight_dim)
        w = self.WEIGHTS if weight_dim else None
        obs = np.linspace(0.0, 2.0, 40)
        plan = model.plan(w)
        before = plan.mean(obs)[0, 0]
        # In-place actor update (what Adam and load_state_dict do): live.
        model.actor.layers[-1].b.value += 0.25
        assert plan.mean(obs)[0, 0] == model.forward(obs, w)[0][0, 0] != before
        if weight_dim:
            # The preference embedding is frozen for the flow; a fresh
            # plan picks the new one up.
            model.pref_net.layers[0].b.value += 0.5
            assert plan.mean(obs)[0, 0] != model.forward(obs, w)[0][0, 0]
            assert model.plan(w).mean(obs)[0, 0] == model.forward(obs, w)[0][0, 0]

    def test_conditioned_model_needs_weights(self, weight_dim):
        model = self._model(weight_dim)
        if weight_dim:
            with pytest.raises(ValueError, match="weights"):
                model.plan(None)
        else:
            model.plan(None)


class TestCloneAndState:
    def test_clone_identical_outputs(self):
        model = make_model(seed=9)
        twin = model.clone()
        obs = np.random.default_rng(1).normal(size=(2, 6))
        w = np.full((2, 3), 1 / 3)
        np.testing.assert_allclose(model.forward(obs, w)[0], twin.forward(obs, w)[0])

    def test_clone_is_independent(self):
        model = make_model()
        twin = model.clone()
        twin.log_std.value[...] = 99.0
        assert model.log_std.value[0] != 99.0

    def test_architecture_roundtrip(self):
        model = make_model(hidden=(16, 8), pref_hidden=7)
        arch = model.architecture()
        rebuilt = PreferenceActorCritic(**arch)
        rebuilt.load_state_dict(model.state_dict())
        obs = np.ones((1, 6))
        w = np.full((1, 3), 1 / 3)
        np.testing.assert_allclose(model.forward(obs, w)[0],
                                   rebuilt.forward(obs, w)[0])

    def test_parameters_include_all_blocks(self):
        model = make_model()
        names = set(model.parameters())
        assert "log_std" in names
        assert any(n.startswith("pref.") for n in names)
        assert any(n.startswith("actor.") for n in names)
        assert any(n.startswith("critic.") for n in names)


def _state_loaded(model, tmp_path):
    twin = make_model(seed=4)
    twin.load_state_dict(model.state_dict())
    return twin


def _agent_loaded(model, tmp_path):
    agent = MoccAgent(weight_dim=model.weight_dim)
    agent.model = model
    agent.save(tmp_path / "agent.npz")
    return MoccAgent.load(tmp_path / "agent.npz").model


def _agent_cloned(model, tmp_path):
    agent = MoccAgent(weight_dim=model.weight_dim)
    agent.model = model
    return agent.clone().model


def _pickled(model, tmp_path):
    return pickle.loads(pickle.dumps(model))


COPIES = {
    "load_state_dict": (make_model, _state_loaded),
    "clone": (make_model, lambda m, _: m.clone()),
    "deepcopy": (make_model, lambda m, _: copy.deepcopy(m)),
    "pickle": (make_model, _pickled),
    "unconditioned_deepcopy": (lambda: make_model(weight_dim=0), lambda m, _: copy.deepcopy(m)),
    "agent_load": (lambda: MoccAgent(seed=3).model, _agent_loaded),
    "agent_clone": (lambda: MoccAgent(seed=3).model, _agent_cloned),
    "qnetwork_clone": (lambda: QNetwork(6, 3, 5), lambda q, _: q.clone()),
    "qnetwork_pickle": (lambda: QNetwork(6, 3, 5), _pickled),
}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_arena_aliasing_survives_copies(how, tmp_path):
    """Every way a model is copied or reloaded leaves each parameter a
    view into the copy's own two vectors, and the copy's layers holding
    those very parameters -- so an optimizer on the copy trains the
    copy, and only the copy."""
    make, copy_of = COPIES[how]
    model = make()
    twin = copy_of(model, tmp_path)
    arena, original = twin.parameters(), model.state_dict()
    assert arena is not model.parameters()
    assert list(arena) == list(original)
    assert np.array_equal(arena.value, model.parameters().value)
    for param in arena.values():
        assert param.value.base is arena.value
        assert param.grad.base is arena.grad
    trunk = twin.actor if hasattr(twin, "actor") else twin.trunk
    prefix = "actor" if hasattr(twin, "actor") else "trunk"
    assert trunk.layers[0].W is arena[f"{prefix}.0.W"]
    arena.grad[:] = 1.0
    Adam(arena, lr=0.1).step()
    for name, param in arena.items():
        assert np.all(param.value != original[name]), name
        assert np.array_equal(model.state_dict()[name], original[name])
    assert np.array_equal(trunk.layers[0].W.value, twin.state_dict()[f"{prefix}.0.W"])
