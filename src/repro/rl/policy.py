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

One way to run the model on one state: an :class:`InferencePlan`,
resolved once per flow or per rollout.  ``plan.action`` runs only the
actor, for controllers that consult a frozen policy once per monitor
interval; ``plan.act`` returns the ``(action, log_prob, value)`` triple
rollout collection needs.  :meth:`PreferenceActorCritic.act` and
``.value`` are one-shot plans for one-off queries.
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

        self._params = ParameterArena.of(
            log_std=self.log_std, pref=self.pref_net, actor=self.actor,
            critic=self.critic)

    def parameters(self) -> ParameterArena:
        return self._params

    # --- forward/backward ------------------------------------------------

    def _embed(self, obs: np.ndarray, weights: np.ndarray | None,
               cache: bool = True) -> np.ndarray:
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        if self.pref_net is None:
            return obs
        if weights is None:
            raise ValueError("model was built with a preference sub-network; pass weights")
        weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        if weights.shape[0] == 1 and obs.shape[0] > 1:
            weights = np.repeat(weights, obs.shape[0], axis=0)
        pref = self.pref_net.forward(weights) if cache else self.pref_net.infer(weights)
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

    def infer(self, obs: np.ndarray, weights: np.ndarray | None = None):
        """:meth:`forward` for a batch of states, caching nothing."""
        joint = self._embed(obs, weights, cache=False)
        return self.actor.infer(joint), self.critic.infer(joint)[:, 0]

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

    def value(self, obs: np.ndarray, weights: np.ndarray | None = None) -> float:
        """Critic value for a single state (a one-shot plan)."""
        return self.plan(weights).value(obs)

    def plan(self, weights: np.ndarray | None = None) -> "InferencePlan":
        """No-grad single-state inference under a fixed ``weights``."""
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
    """Single-state, no-grad inference under one weight vector.

    Holds the ``(1, obs_dim + pref_hidden)`` joint input row of Fig. 3.
    Its preference half is computed **once**, here, from the model's
    preference sub-network; each call overwrites only the observation
    half and runs the networks cache-free (``infer``), so a plan never
    disturbs the backward caches of a batched :meth:`forward`.  A
    deployed controller calls :meth:`action` -- actor only, no critic,
    no log-probability; a rollout calls :meth:`act` and :meth:`value`.
    All run the ops of a one-row ``forward`` on the same ``(1, n)``
    shapes, so results are bit-identical to it.

    **Contract: the policy is frozen for the duration of a plan** (a
    flow; a rollout between two PPO updates).  Actor, critic and
    ``log_std`` are read live on every call (in-place updates are
    seen), but the preference embedding is a snapshot: resolve a new
    plan (controllers do at ``on_flow_start`` / ``register``,
    collectors per ``collect``) after the model's parameters are
    reloaded or trained.
    """

    def __init__(self, model: PreferenceActorCritic,
                 weights: np.ndarray | None = None):
        self._actor = model.actor
        self._critic = model.critic
        self._log_std = model.log_std
        self._joint = np.zeros((1, model.obs_dim + model.pref_hidden))
        self._obs = self._joint[0, :model.obs_dim]
        if model.pref_net is not None:
            if weights is None:
                raise ValueError("model was built with a preference sub-network; pass weights")
            self._joint[0, model.obs_dim:] = model.pref_net.infer(
                np.asarray(weights, dtype=np.float64).reshape(1, -1))[0]

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

    def act(self, obs: np.ndarray, rng: np.random.Generator,
            deterministic: bool = False):
        """``(action, log_prob, value)`` for one flat state."""
        mean = self.mean(obs)
        value = self._critic.infer(self._joint)
        log_std = self._log_std.value
        action = mean if deterministic else DiagGaussian.sample(mean, log_std, rng)
        log_prob = DiagGaussian.log_prob(action, mean, log_std)
        return action[0], float(log_prob[0]), float(value[0, 0])

    def value(self, obs: np.ndarray) -> float:
        """Critic value for one flat state."""
        self._obs[:] = obs
        return float(self._critic.infer(self._joint)[0, 0])


def _dense_widths(mlp: MLP) -> list[int]:
    """Hidden widths of an MLP (all Dense outputs except the last)."""
    widths = [layer.W.value.shape[1] for layer in mlp.layers if isinstance(layer, Dense)]
    return widths[:-1]
