"""Gradient-descent optimizers.

The paper uses Adam ("a famous adaptive learning rate optimization
algorithm, which consistently outperforms standard SGD", §5) with a
learning rate of 0.001 (Table 2).

Optimizers work on a model's :class:`~repro.rl.nn.ParameterArena`:
the update rules are elementwise, so running them once over the flat
``value`` / ``grad`` vectors gives every parameter the bits a
per-tensor loop would, in ~15 numpy calls per step instead of ~15 per
tensor.  :class:`Adam` runs them in place through two scratch vectors
allocated with it, in the textbook expression's operation order, so a
step allocates nothing arena-sized.  The one non-elementwise piece is
the gradient norm: a float sum depends on its reduction order, so
:func:`clip_grad_norm` still reduces each tensor on its own, in
``parameters()`` order -- summing the flat vector in one call would
round differently and move every trained model.
"""

from __future__ import annotations

import numpy as np

from repro.rl.nn import ParameterArena

__all__ = ["Adam", "clip_grad_norm"]


def clip_grad_norm(params: ParameterArena, max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging/tests).
    """
    total = 0.0
    for param in params.values():
        # The kernel ``np.sum`` wraps, without its dispatch.
        total += float(np.add.reduce(param.grad ** 2, axis=None))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        params.grad *= max_norm / (norm + 1e-12)
    return norm


class Adam:
    """Adam (Kingma & Ba, 2014) -- the paper's optimizer of choice, over
    a model's parameter arena, at the published defaults for the
    moment decays and epsilon."""

    def __init__(self, params: ParameterArena, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self._m = np.zeros_like(params.value)
        self._v = np.zeros_like(params.value)
        self._num = np.empty_like(params.value)
        self._den = np.empty_like(params.value)
        self._t = 0

    def step(self) -> None:
        """One update, in place; each line is one operation of
        ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
        value -= lr * (m/bias1) / (sqrt(v/bias2) + eps)`` in its
        evaluation order, so the bits are the textbook expression's."""
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        value, grad, m, v = self.params.value, self.params.grad, self._m, self._v
        num, den = self._num, self._den
        m *= self.beta1
        np.multiply(1.0 - self.beta1, grad, out=num)
        m += num
        v *= self.beta2
        np.square(grad, out=den)
        np.multiply(1.0 - self.beta2, den, out=den)
        v += den
        np.divide(m, bias1, out=num)
        np.multiply(self.lr, num, out=num)
        np.divide(v, bias2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(num, den, out=num)
        value -= num

    def zero_grad(self) -> None:
        self.params.zero_grad()
