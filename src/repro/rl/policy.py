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

Two ways to run the model on one state: :meth:`PreferenceActorCritic.act`
returns the ``(action, log_prob, value)`` triple rollout collection
needs; an :class:`InferencePlan` runs only the actor, for controllers
that consult a frozen policy once per monitor interval.
"""

from __future__ import annotations

import numpy as np

from repro.rl.distributions import DiagGaussian
from repro.rl.nn import MLP, Dense, Module, Parameter, Sequential, Tanh

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
                 rng: np.random.Generator | None = None,
                 init_log_std: float = -0.5):
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
        self.actor = MLP(trunk_in, hidden_sizes, act_dim, activation="tanh", rng=rng)
        self.critic = MLP(trunk_in, hidden_sizes, 1, activation="tanh", rng=rng)
        self.log_std = Parameter(np.full(act_dim, init_log_std))

    # --- parameters -----------------------------------------------------

    def parameters(self) -> dict[str, Parameter]:
        params: dict[str, Parameter] = {"log_std": self.log_std}
        if self.pref_net is not None:
            for name, p in self.pref_net.parameters().items():
                params[f"pref.{name}"] = p
        for name, p in self.actor.parameters().items():
            params[f"actor.{name}"] = p
        for name, p in self.critic.parameters().items():
            params[f"critic.{name}"] = p
        return params

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
        pref = self.pref_net.forward(weights)
        return np.concatenate([obs, pref], axis=1)

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
        """Sample an action for a single state.

        Returns ``(action, log_prob, value)`` -- all scalars/1-D arrays.
        Actor and critic run cache-free (``infer``): gradients come from
        the batched :meth:`forward` the PPO update runs later.
        """
        joint = self._embed(obs, weights)
        mean = self.actor.infer(joint)
        value = self.critic.infer(joint)[:, 0]
        if deterministic:
            action = mean[0]
        else:
            action = DiagGaussian.sample(mean, self.log_std.value, rng)[0]
        log_prob = float(DiagGaussian.log_prob(action, mean, self.log_std.value)[0])
        return action, log_prob, float(value[0])

    def value(self, obs: np.ndarray, weights: np.ndarray | None = None) -> float:
        """Critic value for a single state."""
        _, value = self.forward(obs, weights)
        return float(value[0])

    def plan(self, weights: np.ndarray | None = None) -> "InferencePlan":
        """Actor-only inference for one flow under a fixed ``weights``."""
        return InferencePlan(self, weights)

    # --- snapshots ---------------------------------------------------------

    def architecture(self) -> dict:
        """Constructor kwargs that rebuild an identically-shaped model."""
        return {
            "obs_dim": self.obs_dim,
            "weight_dim": self.weight_dim,
            "act_dim": self.act_dim,
            "hidden_sizes": tuple(_dense_widths(self.actor)),
            "pref_hidden": self.pref_hidden if self.pref_hidden else 16,
        }

    def clone(self) -> "PreferenceActorCritic":
        """Deep copy with identical parameters (fresh gradient buffers)."""
        twin = PreferenceActorCritic(
            self.obs_dim, self.weight_dim, self.act_dim,
            hidden_sizes=tuple(_dense_widths(self.actor)),
            pref_hidden=self.pref_hidden if self.pref_hidden else 16)
        twin.load_state_dict(self.state_dict())
        return twin


class InferencePlan:
    """Per-flow, actor-only, no-grad inference under one weight vector.

    Holds the ``(1, obs_dim + pref_hidden)`` joint input row of Fig. 3.
    Its preference half is computed **once**, here, from the model's
    preference sub-network; each call overwrites only the observation
    half and runs the actor.  The critic, the log-probability and the
    backward caches -- everything :meth:`PreferenceActorCritic.act`
    produces that a deployed controller discards -- are never computed;
    the actor sees the same ops on the same shapes, so actions are
    bit-identical to ``act``'s.

    **Contract: the policy is frozen for the duration of a flow.**
    Actor weights are read live on every call (in-place updates are
    seen), but the preference embedding is a snapshot: resolve a new
    plan (controllers do at ``on_flow_start`` / ``register``) after
    the model's parameters are reloaded or trained.
    """

    def __init__(self, model: PreferenceActorCritic,
                 weights: np.ndarray | None = None):
        self._actor = model.actor
        self._log_std = model.log_std
        self._joint = model._embed(np.zeros((1, model.obs_dim)), weights)
        self._obs = self._joint[0, :model.obs_dim]

    def mean(self, obs: np.ndarray) -> np.ndarray:
        """Gaussian mean, shape ``(1, act_dim)``, for one flat state."""
        self._obs[:] = obs
        return self._actor.infer(self._joint)

    def action(self, obs: np.ndarray, rng: np.random.Generator,
               deterministic: bool) -> float:
        """The Eq. 1 adjustment scalar for one flat state."""
        mean = self.mean(obs)
        if not deterministic:
            mean = DiagGaussian.sample(mean, self._log_std.value, rng)
        return float(mean[0, 0])


def _dense_widths(mlp: MLP) -> list[int]:
    """Hidden widths of an MLP (all Dense outputs except the last)."""
    widths = [layer.W.value.shape[1] for layer in mlp.layers if isinstance(layer, Dense)]
    return widths[:-1]
