"""Minimal neural-network layers with manual backpropagation.

The MOCC paper implements its policy/critic networks as fully-connected
MLPs (two hidden layers of 64 and 32 units with ``tanh`` activations,
§5).  TensorFlow is not available in this environment, so this module
provides the small amount of machinery those networks need: dense
layers, activations, a sequential container, and parameter/gradient
bookkeeping suitable for an Adam optimizer.

Conventions
-----------
* Inputs are 2-D arrays of shape ``(batch, features)``; single samples
  can be passed as 1-D arrays and are promoted internally.
* ``forward`` caches whatever ``backward`` needs; call them in pairs.
* ``infer`` is ``forward`` without the caches or the input re-wrapping:
  the same numpy ops on the same shapes (so results are bit-identical),
  for callers that run a frozen network and never call ``backward``.
  It requires a 2-D float64 input.
* Parameters and gradients are exposed as flat ``{name: array}`` dicts
  so optimizers and serialization never need to know the architecture.
* A *model* (the unit an optimizer trains) packs its parameters into a
  :class:`ParameterArena` when it is built: every ``Parameter.value`` /
  ``.grad`` is from then on a shaped view into the arena's two flat
  float64 vectors, so an optimizer step, ``zero_grad`` and the clip
  scale are one pass over a vector each instead of one per tensor,
  and the flat value vector is the whole model (what a rollout worker
  is sent).  Everything that writes parameters writes them in place
  (``load_state_dict``, ``+=``); rebinding ``param.value`` would
  detach it from the arena.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Module",
    "Dense",
    "Tanh",
    "ReLU",
    "Sequential",
    "MLP",
    "Parameter",
    "ParameterArena",
    "numerical_gradient",
]


class Parameter:
    """A named tensor with an accumulated gradient."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @property
    def shape(self):
        return self.value.shape


class ParameterArena(dict):
    """``{name: Parameter}`` backed by one flat ``value`` and one flat
    ``grad`` vector, laid out in insertion order.

    Building it moves the parameters in: their current values and
    gradients are copied into the vectors and rebound as views.
    Pickling and ``copy.deepcopy`` rebuild the arena around the copied
    parameters, so a copy is aliased to its own vectors.
    """

    def __init__(self, named: dict[str, Parameter]):
        super().__init__(named)
        size = sum(p.value.size for p in named.values())
        self.value = np.empty(size)
        self.grad = np.empty(size)
        offset = 0
        for param in named.values():
            span = slice(offset, offset + param.value.size)
            self.value[span] = param.value.ravel()
            self.grad[span] = param.grad.ravel()
            param.value = self.value[span].reshape(param.shape)
            param.grad = self.grad[span].reshape(param.shape)
            offset = span.stop

    @classmethod
    def of(cls, **blocks: "Module | Parameter | None") -> "ParameterArena":
        """Arena over ``name=Parameter`` and ``prefix=Module`` blocks
        (``prefix.<its parameter names>``); ``None`` blocks are skipped."""
        named: dict[str, Parameter] = {}
        for prefix, block in blocks.items():
            if isinstance(block, Parameter):
                named[prefix] = block
            elif block is not None:
                for name, param in block.parameters().items():
                    named[f"{prefix}.{name}"] = param
        return cls(named)

    def __reduce__(self):
        return type(self), (dict(self),)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


class Module:
    """Base class: a differentiable block with named parameters."""

    def parameters(self) -> dict[str, Parameter]:
        """Return ``{name: Parameter}`` for every trainable tensor."""
        return {}

    def zero_grad(self) -> None:
        for param in self.parameters().values():
            param.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients; return gradient w.r.t. input."""
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        """``forward`` for a 2-D float64 ``x``, caching nothing."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # --- serialization -------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter value."""
        return {name: p.value.copy() for name, p in self.parameters().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values (shapes must match exactly)."""
        params = self.parameters()
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise ValueError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.value.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.value.shape}")
            param.value[...] = value


class Dense(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None = None,
                 init: str = "xavier"):
        rng = rng if rng is not None else np.random.default_rng(0)
        if init == "xavier":
            scale = np.sqrt(2.0 / (in_features + out_features))
        elif init == "he":
            scale = np.sqrt(2.0 / in_features)
        elif init == "small":
            scale = 0.01
        else:
            raise ValueError(f"unknown init {init!r}")
        self.W = Parameter(rng.normal(0.0, scale, size=(in_features, out_features)))
        self.b = Parameter(np.zeros(out_features))
        self._x: np.ndarray | None = None

    def parameters(self) -> dict[str, Parameter]:
        return {"W": self.W, "b": self.b}

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self._x = x
        return x @ self.W.value + self.b.value

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x @ self.W.value + self.b.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad_out = np.atleast_2d(grad_out)
        self.W.grad += self._x.T @ grad_out
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.W.value.T


class Tanh(Module):
    """Elementwise tanh."""

    def __init__(self):
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._y ** 2)


class ReLU(Module):
    """Elementwise rectified linear unit."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        self.layers = list(layers)

    def parameters(self) -> dict[str, Parameter]:
        params: dict[str, Parameter] = {}
        for i, layer in enumerate(self.layers):
            for name, param in layer.parameters().items():
                params[f"{i}.{name}"] = param
        return params

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.infer(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out


def _activation(name: str) -> Module:
    if name == "tanh":
        return Tanh()
    if name == "relu":
        return ReLU()
    raise ValueError(f"unknown activation {name!r}")


class MLP(Sequential):
    """Fully-connected network: ``in -> hidden... -> out``.

    ``activation`` is applied between layers; the output is linear
    (callers add their own heads, e.g. a Gaussian mean or Q-values).
    """

    def __init__(self, in_features: int, hidden_sizes: tuple[int, ...], out_features: int,
                 activation: str = "tanh", rng: np.random.Generator | None = None,
                 out_init: str = "small"):
        rng = rng if rng is not None else np.random.default_rng(0)
        layers: list[Module] = []
        prev = in_features
        for width in hidden_sizes:
            layers.append(Dense(prev, width, rng=rng))
            layers.append(_activation(activation))
            prev = width
        layers.append(Dense(prev, out_features, rng=rng, init=out_init))
        super().__init__(*layers)
        self.in_features = in_features
        self.out_features = out_features


def numerical_gradient(f, params: dict[str, Parameter], eps: float = 1e-6) -> dict[str, np.ndarray]:
    """Central-difference gradient of scalar ``f()`` w.r.t. each parameter.

    Used by the test suite to validate the manual backprop.
    """
    grads: dict[str, np.ndarray] = {}
    for name, param in params.items():
        grad = np.zeros_like(param.value)
        flat = param.value.ravel()
        grad_flat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f()
            flat[i] = orig - eps
            f_minus = f()
            flat[i] = orig
            grad_flat[i] = (f_plus - f_minus) / (2.0 * eps)
        grads[name] = grad
    return grads
