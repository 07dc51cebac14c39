"""Tests for repro.rl.optim (Adam, SGD, gradient clipping)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rl.nn import Parameter, ParameterArena
from repro.rl.optim import Adam, SGD, clip_grad_norm


def _quadratic_params(start):
    return ParameterArena({"x": Parameter(np.array(start, dtype=np.float64))})


def _set_quadratic_grad(params, target):
    # f(x) = 0.5*||x - target||^2  =>  grad = x - target
    params["x"].grad[...] = params["x"].value - target


class TestSGD:
    def test_converges_on_quadratic(self):
        params = _quadratic_params([5.0, -3.0])
        target = np.array([1.0, 2.0])
        opt = SGD(params, lr=0.1)
        for _ in range(200):
            _set_quadratic_grad(params, target)
            opt.step()
        np.testing.assert_allclose(params["x"].value, target, atol=1e-4)

    def test_momentum_accelerates(self):
        target = np.array([1.0])
        plain = _quadratic_params([10.0])
        heavy = _quadratic_params([10.0])
        opt_p = SGD(plain, lr=0.01)
        opt_m = SGD(heavy, lr=0.01, momentum=0.9)
        for _ in range(50):
            _set_quadratic_grad(plain, target)
            opt_p.step()
            _set_quadratic_grad(heavy, target)
            opt_m.step()
        assert abs(heavy["x"].value[0] - 1.0) < abs(plain["x"].value[0] - 1.0)

    def test_zero_grad(self):
        params = _quadratic_params([1.0])
        params["x"].grad[...] = 3.0
        SGD(params, lr=0.1).zero_grad()
        assert params["x"].grad[0] == 0.0


class TestAdam:
    def test_converges_on_quadratic(self):
        params = _quadratic_params([5.0, -3.0])
        target = np.array([1.0, 2.0])
        opt = Adam(params, lr=0.1)
        for _ in range(300):
            _set_quadratic_grad(params, target)
            opt.step()
        np.testing.assert_allclose(params["x"].value, target, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        """Adam's bias correction makes the first step ~lr in size."""
        params = _quadratic_params([10.0])
        opt = Adam(params, lr=0.05)
        params["x"].grad[...] = 4.2  # any positive gradient
        opt.step()
        assert params["x"].value[0] == pytest.approx(10.0 - 0.05, abs=1e-6)

    def test_scale_invariance_direction(self):
        """Adam normalises per-coordinate scale: both coords move ~equally."""
        params = _quadratic_params([0.0, 0.0])
        opt = Adam(params, lr=0.01)
        for _ in range(10):
            params["x"].grad[...] = np.array([1.0, 1000.0])
            opt.step()
        moved = -params["x"].value
        assert moved[0] == pytest.approx(moved[1], rel=0.05)

    def test_reset_state(self):
        params = _quadratic_params([1.0])
        opt = Adam(params, lr=0.1)
        params["x"].grad[...] = 1.0
        opt.step()
        opt.reset_state()
        assert opt._t == 0
        assert np.all(opt._m == 0.0)
        assert np.all(opt._v == 0.0)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        params = _quadratic_params([0.0])
        params["x"].grad[...] = 0.3
        norm = clip_grad_norm(params, max_norm=1.0)
        assert norm == pytest.approx(0.3)
        assert params["x"].grad[0] == pytest.approx(0.3)

    def test_clips_above_threshold(self):
        params = ParameterArena({"a": Parameter(np.zeros(2)),
                                 "b": Parameter(np.zeros(2))})
        params["a"].grad[...] = [3.0, 0.0]
        params["b"].grad[...] = [0.0, 4.0]
        norm = clip_grad_norm(params, max_norm=1.0)  # global norm = 5
        assert norm == pytest.approx(5.0)
        total = np.sqrt(sum(float(np.sum(p.grad ** 2)) for p in params.values()))
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_zero_max_norm_disables(self):
        params = _quadratic_params([0.0])
        params["x"].grad[...] = 100.0
        clip_grad_norm(params, max_norm=0.0)
        assert params["x"].grad[0] == pytest.approx(100.0)

    def test_preserves_direction(self):
        params = ParameterArena({"a": Parameter(np.zeros(3))})
        params["a"].grad[...] = [3.0, -4.0, 0.0]
        clip_grad_norm(params, max_norm=1.0)
        np.testing.assert_allclose(params["a"].grad, [0.6, -0.8, 0.0])


# --- flat == per-parameter, bit for bit -------------------------------------
#
# The optimizers run once over the arena's flat vectors.  The reference
# below is the per-parameter loop they replaced, kept here only: every
# value must come out ``==`` (never ``approx``) -- elementwise ops do not
# depend on layout, and the norm keeps its per-tensor reduction order.


def _ref_clip(grads, max_norm):
    total = 0.0
    for grad in grads:
        total += float(np.sum(grad ** 2))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for grad in grads:
            grad *= scale
    return norm


class _RefAdam:
    def __init__(self, values, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.values, self.lr, self.beta1, self.beta2, self.eps = values, lr, beta1, beta2, eps
        self.m = [np.zeros_like(v) for v in values]
        self.v = [np.zeros_like(v) for v in values]
        self.t = 0

    def step(self, grads):
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for value, grad, m, v in zip(self.values, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _RefSGD:
    def __init__(self, values, lr, momentum):
        self.values, self.lr, self.momentum = values, lr, momentum
        self.velocity = [np.zeros_like(v) for v in values]

    def step(self, grads):
        for value, grad, vel in zip(self.values, grads, self.velocity):
            if self.momentum > 0:
                vel *= self.momentum
                vel -= self.lr * grad
                value += vel
            else:
                value -= self.lr * grad


SHAPES = st.lists(st.one_of(
    st.tuples(st.integers(1, 9)),
    st.tuples(st.integers(1, 9), st.integers(1, 70))), min_size=1, max_size=6)


@given(shapes=SHAPES, seed=st.integers(0, 2 ** 16), steps=st.integers(1, 6),
       grad_scale=st.sampled_from([1e-3, 1.0, 40.0]),
       max_norm=st.sampled_from([0.0, 1e-12, 5.0]),
       kind=st.sampled_from(["adam", "sgd", "momentum"]))
@settings(max_examples=60, deadline=None)
def test_flat_optimizers_equal_per_parameter_loop(shapes, seed, steps,
                                                   grad_scale, max_norm, kind):
    rng = np.random.default_rng(seed)
    arena = ParameterArena({f"p{i}": Parameter(rng.normal(size=shape))
                            for i, shape in enumerate(shapes)})
    ref_values = [p.value.copy() for p in arena.values()]
    if kind == "adam":
        opt, ref = Adam(arena, lr=1e-2), _RefAdam(ref_values, lr=1e-2)
    else:
        momentum = 0.9 if kind == "momentum" else 0.0
        opt, ref = SGD(arena, 1e-2, momentum), _RefSGD(ref_values, 1e-2, momentum)
    for _ in range(steps):
        opt.zero_grad()
        assert not arena.grad.any()
        ref_grads = [grad_scale * rng.normal(size=shape) for shape in shapes]
        for param, grad in zip(arena.values(), ref_grads):
            param.grad += grad          # accumulate, as backward() does
        norm = clip_grad_norm(arena, max_norm)
        assert norm == _ref_clip(ref_grads, max_norm)
        assert norm > 1e-12             # so 1e-12 always takes the clipped branch
        for param, grad in zip(arena.values(), ref_grads):
            assert np.array_equal(param.grad, grad)
        opt.step()
        ref.step(ref_grads)
        for param, value in zip(arena.values(), ref_values):
            assert np.array_equal(param.value, value)
