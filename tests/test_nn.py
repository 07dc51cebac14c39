"""Tests for the numpy neural-network layer (repro.rl.nn).

Backprop correctness is checked against central-difference numerical
gradients, including property-based variants over random shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rl.nn import (
    MLP,
    Dense,
    ParameterArena,
    ReLU,
    Sequential,
    Tanh,
    numerical_gradient,
)


def _loss_through(module, x):
    """Scalar loss: sum of squares of module output."""
    y = module.forward(x)
    return 0.5 * float(np.sum(y ** 2))


def _backward_through(module, x):
    y = module.forward(x)
    module.zero_grad()
    module.backward(y)  # d(0.5*sum(y^2))/dy = y
    return {name: p.grad.copy() for name, p in module.parameters().items()}


class TestDense:
    def test_output_shape(self):
        layer = Dense(4, 7, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((3, 4)))
        assert out.shape == (3, 7)

    def test_promotes_1d_input(self):
        layer = Dense(4, 2, rng=np.random.default_rng(0))
        assert layer.forward(np.ones(4)).shape == (1, 2)

    def test_linearity(self):
        layer = Dense(3, 3, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(5, 3))
        y1 = layer.forward(2.0 * x) - layer.b.value
        y2 = 2.0 * (layer.forward(x) - layer.b.value)
        np.testing.assert_allclose(y1, y2, atol=1e-12)

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(3)
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(6, 4))
        analytic = _backward_through(layer, x)
        numeric = numerical_gradient(lambda: _loss_through(layer, x), layer.parameters())
        for name in analytic:
            np.testing.assert_allclose(analytic[name], numeric[name], atol=1e-6)

    def test_input_gradient(self):
        rng = np.random.default_rng(4)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(2, 3))
        y = layer.forward(x)
        grad_in = layer.backward(np.ones_like(y))
        # d(sum y)/dx = W summed over outputs
        np.testing.assert_allclose(grad_in, np.ones((2, 2)) @ layer.W.value.T)

    def test_backward_before_forward_raises(self):
        layer = Dense(2, 2)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_bad_init_name(self):
        with pytest.raises(ValueError):
            Dense(2, 2, init="bogus")

    def test_grad_accumulates_across_calls(self):
        rng = np.random.default_rng(5)
        layer = Dense(2, 2, rng=rng)
        x = rng.normal(size=(3, 2))
        layer.forward(x)
        layer.backward(np.ones((3, 2)))
        g1 = layer.W.grad.copy()
        layer.forward(x)
        layer.backward(np.ones((3, 2)))
        np.testing.assert_allclose(layer.W.grad, 2 * g1)


class TestActivations:
    def test_tanh_range(self):
        act = Tanh()
        out = act.forward(np.array([-100.0, 0.0, 100.0]))
        np.testing.assert_allclose(out, [-1.0, 0.0, 1.0], atol=1e-9)

    def test_tanh_gradient(self):
        act = Tanh()
        x = np.array([[0.3, -0.7]])
        act.forward(x)
        grad = act.backward(np.ones((1, 2)))
        np.testing.assert_allclose(grad, 1.0 - np.tanh(x) ** 2)

    def test_relu_zeroes_negatives(self):
        act = ReLU()
        np.testing.assert_array_equal(act.forward(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_relu_gradient_mask(self):
        act = ReLU()
        act.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(act.backward(np.ones((1, 2))), [[0.0, 1.0]])


class TestMLP:
    def test_hidden_structure(self):
        mlp = MLP(10, (64, 32), 1, rng=np.random.default_rng(0))
        widths = [l.W.value.shape for l in mlp.layers if isinstance(l, Dense)]
        assert widths == [(10, 64), (64, 32), (32, 1)]

    def test_forward_shape(self):
        mlp = MLP(5, (8,), 3, rng=np.random.default_rng(0))
        assert mlp.forward(np.zeros((4, 5))).shape == (4, 3)

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(7)
        mlp = MLP(3, (6, 4), 2, rng=rng)
        x = rng.normal(size=(5, 3))
        analytic = _backward_through(mlp, x)
        numeric = numerical_gradient(lambda: _loss_through(mlp, x), mlp.parameters())
        for name in analytic:
            np.testing.assert_allclose(analytic[name], numeric[name],
                                       atol=1e-6, rtol=1e-4)

    @settings(max_examples=10, deadline=None)
    @given(in_dim=st.integers(1, 6), hidden=st.integers(1, 8),
           out_dim=st.integers(1, 4), batch=st.integers(1, 5))
    def test_gradcheck_random_shapes(self, in_dim, hidden, out_dim, batch):
        rng = np.random.default_rng(in_dim * 100 + hidden * 10 + out_dim)
        mlp = MLP(in_dim, (hidden,), out_dim, rng=rng)
        x = rng.normal(size=(batch, in_dim))
        analytic = _backward_through(mlp, x)
        numeric = numerical_gradient(lambda: _loss_through(mlp, x), mlp.parameters())
        for name in analytic:
            np.testing.assert_allclose(analytic[name], numeric[name],
                                       atol=1e-5, rtol=1e-3)

    def test_relu_variant(self):
        mlp = MLP(4, (8,), 2, activation="relu", rng=np.random.default_rng(0))
        assert mlp.forward(np.ones((1, 4))).shape == (1, 2)

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP(4, (8,), 2, activation="swish")


class TestStateDict:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        a = MLP(4, (6,), 2, rng=rng)
        b = MLP(4, (6,), 2, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(a.forward(x), b.forward(x))

    def test_state_dict_is_copy(self):
        mlp = MLP(2, (3,), 1, rng=np.random.default_rng(0))
        state = mlp.state_dict()
        first_key = next(iter(state))
        state[first_key] += 100.0
        np.testing.assert_array_less(np.abs(mlp.parameters()[first_key].value), 50.0)

    def test_missing_key_raises(self):
        mlp = MLP(2, (3,), 1)
        state = mlp.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ValueError, match="missing"):
            mlp.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        mlp = MLP(2, (3,), 1)
        state = mlp.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((99, 99))
        with pytest.raises(ValueError, match="shape"):
            mlp.load_state_dict(state)


class TestFlatten:
    """The arena *is* the flat parameter vector."""

    def test_roundtrip(self):
        mlp = MLP(3, (4,), 2, rng=np.random.default_rng(1))
        flat = ParameterArena(mlp.parameters()).value.copy()
        twin = MLP(3, (4,), 2, rng=np.random.default_rng(2))
        ParameterArena(twin.parameters()).value[:] = flat
        for name, value in mlp.state_dict().items():
            np.testing.assert_array_equal(twin.state_dict()[name], value)

    def test_size_mismatch_raises(self):
        arena = ParameterArena(MLP(3, (4,), 2).parameters())
        with pytest.raises(ValueError):
            arena.value[:] = np.zeros(7)

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_flat_length(self, in_dim, out_dim):
        layer = Dense(in_dim, out_dim)
        flat = ParameterArena(layer.parameters()).value
        assert flat.size == in_dim * out_dim + out_dim

    def test_parameters_are_views_in_insertion_order(self):
        layer = Dense(2, 3, rng=np.random.default_rng(0))
        before = layer.state_dict()
        layer.b.grad[...] = 7.0
        arena = ParameterArena(layer.parameters())
        assert list(arena) == ["W", "b"]
        for flat, attr in ((arena.value, "value"), (arena.grad, "grad")):
            assert getattr(layer.W, attr).base is flat
            assert getattr(layer.b, attr).base is flat
        np.testing.assert_array_equal(arena.value[:6].reshape(2, 3), before["W"])
        np.testing.assert_array_equal(arena.grad, [0.0] * 6 + [7.0] * 3)
        arena.value[6:] = [1.0, 2.0, 3.0]
        np.testing.assert_array_equal(layer.b.value, [1.0, 2.0, 3.0])
        arena.zero_grad()
        assert not layer.b.grad.any()

    def test_of_names_blocks_and_skips_none(self):
        head, bias = Dense(2, 1), Dense(1, 1).b
        arena = ParameterArena.of(bias=bias, head=head, missing=None)
        assert list(arena) == ["bias", "head.W", "head.b"]
        assert arena["head.W"] is head.W and bias.value.base is arena.value


class TestSequential:
    def test_zero_grad_clears(self):
        seq = Sequential(Dense(2, 3), Tanh(), Dense(3, 1))
        x = np.ones((2, 2))
        seq.forward(x)
        seq.backward(np.ones((2, 1)))
        seq.zero_grad()
        for p in seq.parameters().values():
            assert np.all(p.grad == 0.0)

    def test_parameter_names_unique(self):
        seq = Sequential(Dense(2, 2), Dense(2, 2))
        names = list(seq.parameters())
        assert len(names) == len(set(names)) == 4
