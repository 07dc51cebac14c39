"""Gradient-descent optimizers.

The paper uses Adam ("a famous adaptive learning rate optimization
algorithm, which consistently outperforms standard SGD", §5) with a
learning rate of 0.001 (Table 2).

Optimizers work on a model's :class:`~repro.rl.nn.ParameterArena`:
the update rules are elementwise, so running them once over the flat
``value`` / ``grad`` vectors gives every parameter the bits a
per-tensor loop would, in ~20 numpy calls per step instead of ~20 per
tensor.  The one non-elementwise piece is the gradient norm: a float
sum depends on its reduction order, so :func:`clip_grad_norm` still
adds one ``np.sum`` per tensor, in ``parameters()`` order -- summing
the flat vector in one call would round differently and move every
trained model.
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
        total += float(np.sum(param.grad ** 2))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        params.grad *= max_norm / (norm + 1e-12)
    return norm


class Adam:
    """Adam (Kingma & Ba, 2014) -- the paper's optimizer of choice, over
    a model's parameter arena."""

    def __init__(self, params: ParameterArena, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = np.zeros_like(params.value)
        self._v = np.zeros_like(params.value)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        value, grad, m, v = self.params.value, self.params.grad, self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad ** 2
        m_hat = m / bias1
        v_hat = v / bias2
        value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        self.params.zero_grad()
