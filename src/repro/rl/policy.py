"""Actor-critic model with the MOCC preference sub-network (Fig. 3).

The model has three trainable blocks:

* a **preference sub-network** (PN) that embeds the application weight
  vector ``w = <w_thr, w_lat, w_loss>``;
* an **actor** MLP mapping ``[network-history || PN(w)]`` to the mean of
  a Gaussian action distribution (a free ``log_std`` parameter supplies
  the standard deviation, as in the stable-baselines PPO the paper uses);
* a **critic** MLP with the same structure producing the scalar value
  ``V(g, w)``.

The PN output is concatenated with the flattened ``eta``-step history of
network statistics and fed to both actor and critic, exactly as drawn in
the paper's Fig. 3: "both the decisions made by the actor network and
the evaluation given by the critic network ... take the application
requirements into consideration."

A plain single-objective actor-critic (for Aurora/Orca baselines) is the
degenerate case ``weight_dim=0``, which skips the PN entirely.

One way to run the frozen model without gradients: an
:class:`InferencePlan`, resolved once per flow or per rollout.  A flat
plan (``model.plan(w)``) holds one state in its ``obs`` row:
``plan.action()`` runs only the actor on that row and returns its mean,
for controllers that consult a frozen policy once per monitor interval
(their history *is* the row) and for evaluation episodes.  A
batched plan (``model.plan(w, rows=n)``) holds one state per
environment: ``plan.mean_value`` returns the actor's means and the
critic's values, the two passes a rollout step needs (the collector
adds its pre-drawn noise and scores log-probabilities once per buffer).
:meth:`PreferenceActorCritic.act` is a one-shot flat plan for one-off
queries.
"""

from __future__ import annotations

import numpy as np

from repro.rl.distributions import DiagGaussian
from repro.rl.nn import MLP, Dense, Module, Parameter, ParameterArena, Sequential, Tanh

__all__ = ["PreferenceActorCritic", "InferencePlan"]


class PreferenceActorCritic(Module):
    """Preference-conditioned actor-critic for continuous rate control.

    Parameters
    ----------
    obs_dim:
        Size of the flattened network-condition history (``3 * eta``).
    weight_dim:
        Size of the application weight vector (3 for MOCC; 0 disables the
        preference sub-network and yields a single-objective model).
    act_dim:
        Action dimensionality (1: the rate-adjustment scalar of Eq. 1).
    hidden_sizes:
        Trunk widths; the paper uses (64, 32) with tanh.
    pref_hidden:
        Width of the preference sub-network embedding.
    """

    def __init__(self, obs_dim: int, weight_dim: int = 3, act_dim: int = 1,
                 hidden_sizes: tuple[int, ...] = (64, 32), pref_hidden: int = 16,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.weight_dim = weight_dim
        self.act_dim = act_dim
        self.pref_hidden = pref_hidden if weight_dim > 0 else 0

        if weight_dim > 0:
            self.pref_net: Sequential | None = Sequential(
                Dense(weight_dim, pref_hidden, rng=rng), Tanh())
        else:
            self.pref_net = None

        trunk_in = obs_dim + self.pref_hidden
        self.actor = MLP(trunk_in, hidden_sizes, act_dim, rng=rng)
        self.critic = MLP(trunk_in, hidden_sizes, 1, rng=rng)
        self.log_std = Parameter(np.full(act_dim, -0.5))

        self._params = ParameterArena.of(
            log_std=self.log_std, pref=self.pref_net, actor=self.actor,
            critic=self.critic)

    def parameters(self) -> ParameterArena:
        return self._params

    # --- forward/backward ------------------------------------------------

    def _embed(self, obs: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        if self.pref_net is None:
            return obs
        if weights is None:
            raise ValueError("model was built with a preference sub-network; pass weights")
        weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        if weights.shape[0] == 1 and obs.shape[0] > 1:
            weights = np.repeat(weights, obs.shape[0], axis=0)
        return np.concatenate([obs, self.pref_net.forward(weights)], axis=1)

    def forward(self, obs: np.ndarray, weights: np.ndarray | None = None):
        """Return ``(mean, value)`` for a batch of states.

        ``mean`` has shape ``(batch, act_dim)``; ``value`` is ``(batch,)``.
        The forward pass is cached; :meth:`backward` must be called before
        the next forward if gradients are wanted.
        """
        joint = self._embed(obs, weights)
        mean = self.actor.forward(joint)
        value = self.critic.forward(joint)[:, 0]
        return mean, value

    def backward(self, d_mean: np.ndarray, d_value: np.ndarray,
                 d_log_std: np.ndarray | None = None) -> None:
        """Accumulate gradients from per-sample output gradients."""
        d_mean = np.atleast_2d(d_mean)
        d_value2 = np.asarray(d_value, dtype=np.float64).reshape(-1, 1)
        d_joint = self.actor.backward(d_mean) + self.critic.backward(d_value2)
        if self.pref_net is not None:
            self.pref_net.backward(d_joint[:, self.obs_dim:])
        if d_log_std is not None:
            self.log_std.grad += np.asarray(d_log_std, dtype=np.float64)

    # --- acting -----------------------------------------------------------

    def act(self, obs: np.ndarray, weights: np.ndarray | None,
            rng: np.random.Generator, deterministic: bool = False):
        """Sample an action for a single state (a one-shot plan).

        Returns ``(action, log_prob, value)`` -- all scalars/1-D arrays.
        """
        return self.plan(weights).act(obs, rng, deterministic)

    def plan(self, weights: np.ndarray | None = None,
             rows: int | None = None) -> "InferencePlan":
        """No-grad inference under a fixed ``weights``: one flat state,
        or ``rows`` states at once."""
        return InferencePlan(self, weights, rows)

    # --- snapshots ---------------------------------------------------------

    def clone(self) -> "PreferenceActorCritic":
        """Deep copy with identical parameters (fresh gradient buffers)."""
        twin = PreferenceActorCritic(
            self.obs_dim, self.weight_dim, self.act_dim,
            hidden_sizes=tuple(_dense_widths(self.actor)),
            pref_hidden=self.pref_hidden if self.pref_hidden else 16)
        twin.load_state_dict(self.state_dict())
        return twin


class InferencePlan:
    """No-grad inference under one weight vector, on one state or on
    ``rows`` states at once.

    Holds the joint input of Fig. 3: an ``(rows, obs_dim +
    pref_hidden)`` matrix, or the flat row when there is one state
    (``rows=None`` or ``1``; only the shapes :meth:`mean_value` returns
    tell the two apart).  A flat row is kept because a 1-D ``dot`` is
    the cheaper call: a ``(1, n)`` matrix costs a decision about a
    microsecond more.  The preference half is computed **once**, here,
    by the model's preference sub-network over ``rows`` repeated weight
    rows (one, for a flat row); only the observation half, :attr:`obs`,
    is ever written.  Actor and critic are resolved once into ``(W, b,
    out, squash)`` steps, and a call runs each step as ``x.dot(W,
    out)``, ``out += b`` and, on a hidden layer, ``np.tanh(out, out)``
    -- no per-layer method calls, no temporaries, no backward caches,
    so a plan never disturbs a batched :meth:`forward`.  The results
    are bit-identical to :meth:`forward` on the same rows: the flat
    row's 1-D ``dot`` is the same BLAS kernel as a one-row ``forward``,
    a matrix's 2-D ``dot`` gives the bits of ``forward``'s ``matmul``,
    and the ufuncs are the same ufuncs.  Who calls what:

    * a deployed controller and an evaluation episode call
      :meth:`action` on a flat plan -- the actor's mean on :attr:`obs`
      (a deployed flow's history buffer, or each state an episode
      writes there), no draw, no critic, no log-probability;
    * a rollout segment (:func:`~repro.rl.parallel.run_segment`, in
      this process or in a pool worker on a pickled copy of the model)
      calls :meth:`mean_value` on a plan with one row per environment,
      once per step and, unless its episodes ended, once for its
      bootstraps; the collector draws the rollout's noise and scores
      its log-probabilities itself, once each per rollout;
    * :meth:`PreferenceActorCritic.act` (one-off queries) calls
      :meth:`act` on a flat plan, which is :meth:`mean_value` plus one
      draw and one log-probability.

    Nothing a plan returns aliases its ``out`` buffers.

    **Contract: the policy is frozen for the duration of a plan** (a
    flow; a rollout between two PPO updates).  The steps hold views of
    the parameter arena, so actor, critic and ``log_std`` are read live
    on every call (in-place updates are seen), but the preference
    embedding is a snapshot: resolve a new plan (controllers do at
    ``on_flow_start`` / ``register``, rollouts per segment) after the
    model's parameters are reloaded or trained.
    """

    def __init__(self, model: PreferenceActorCritic,
                 weights: np.ndarray | None = None, rows: int | None = None):
        n = 1 if rows is None else rows
        joint = np.zeros((n, model.obs_dim + model.pref_hidden))
        if model.pref_net is not None:
            if weights is None:
                raise ValueError("model was built with a preference sub-network; pass weights")
            w = np.asarray(weights, dtype=np.float64).reshape(1, -1)
            pref = _run(_steps(model.pref_net, (n,)), np.repeat(w, n, axis=0))
            joint[:, model.obs_dim:] = pref
        self._joint = joint[0] if n == 1 else joint
        #: The joint input's observation half, written in place.
        self.obs = self._joint[..., :model.obs_dim]
        self._actor = _steps(model.actor, self._joint.shape[:-1])
        self._critic = _steps(model.critic, self._joint.shape[:-1])
        self._log_std = model.log_std
        self._rows = () if rows is None else (rows,)

    def action(self) -> float:
        """The Eq. 1 adjustment scalar for the flat state in
        :attr:`obs`: the actor's Gaussian mean."""
        return _run(self._actor, self._joint).item(0)

    def mean_value(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the actor's Gaussian means and the critic's values:
        shapes ``(rows, act_dim)`` and ``(rows,)`` for ``rows`` states,
        ``(act_dim,)`` and ``()`` for one state of a ``rows=None``
        plan."""
        self.obs[:] = obs
        mean = _run(self._actor, self._joint).reshape(self._rows + (-1,))
        value = _run(self._critic, self._joint).reshape(self._rows)
        return mean.copy(), value.copy()

    def act(self, obs: np.ndarray, rng: np.random.Generator,
            deterministic: bool = False):
        """``(action, log_prob, value)`` for one flat state."""
        mean, value = self.mean_value(obs)
        log_std = self._log_std.value
        action = mean if deterministic else DiagGaussian.sample(mean, log_std, rng)
        log_prob = DiagGaussian.log_prob(action, mean, log_std)
        return action, float(log_prob[0]), float(value)


def _steps(net: Sequential, rows: tuple) -> tuple:
    """``net`` as ``(W, b, out, squash)`` steps over live parameter
    views, for a flat row (``rows=()``) or a matrix of ``rows[0]`` rows;
    ``squash`` is whether a :class:`Tanh` follows the layer (not on a
    linear output)."""
    steps = []
    layers = net.layers
    for i, layer in enumerate(layers):
        if isinstance(layer, Dense):
            squash = i + 1 < len(layers) and isinstance(layers[i + 1], Tanh)
            steps.append((layer.W.value, layer.b.value,
                          np.empty(rows + (layer.W.value.shape[1],)), squash))
    return tuple(steps)


def _run(steps: tuple, x: np.ndarray) -> np.ndarray:
    """A flat row or a matrix ``x`` through resolved steps; returns the
    last ``out``."""
    for W, b, out, squash in steps:
        x.dot(W, out)
        out += b
        if squash:
            np.tanh(out, out)
        x = out
    return x


def _dense_widths(mlp: MLP) -> list[int]:
    """Hidden widths of an MLP (all Dense outputs except the last)."""
    widths = [layer.W.value.shape[1] for layer in mlp.layers if isinstance(layer, Dense)]
    return widths[:-1]
