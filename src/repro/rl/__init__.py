"""Reinforcement-learning stack for the MOCC reproduction.

The paper trains MOCC with TensorFlow 1.14 and stable-baselines PPO;
neither is available offline, so this package provides an equivalent
numpy implementation:

* :mod:`repro.rl.nn` -- dense layers and MLPs with manual backprop, and
  the parameter arena (one flat value and one flat gradient vector per
  model; every ``Parameter`` is a view into them).
* :mod:`repro.rl.optim` -- Adam (the paper's optimizer), one pass over
  the arena per step.
* :mod:`repro.rl.distributions` -- the diagonal Gaussian action
  distribution.
* :mod:`repro.rl.policy` -- the actor-critic model with the preference
  sub-network of Fig. 3, and the no-grad ``InferencePlan`` (one flat
  state, or one row per environment).
* :mod:`repro.rl.rollout` -- trajectory storage, returns, advantages.
* :mod:`repro.rl.collect` -- score one deterministic episode; the
  objective a weight argument stands for.
* :mod:`repro.rl.ppo` -- PPO-clip with entropy regularisation (Eq. 3-5),
  Table 2's values read from :mod:`repro.config`.
* :mod:`repro.rl.dqn` -- the MOCC-DQN ablation of Fig. 18.
* :mod:`repro.rl.parallel` -- the environment spec and the one rollout
  loop (lockstep envs, one batched plan per rollout), over one env
  (serial) or several (vectorized).
"""

from repro.rl.nn import MLP, Dense, Tanh, Sequential
from repro.rl.optim import Adam
from repro.rl.distributions import DiagGaussian
from repro.rl.policy import PreferenceActorCritic
from repro.rl.rollout import RolloutBuffer, discounted_returns, gae_advantages
from repro.rl.ppo import PPOTrainer

__all__ = [
    "MLP",
    "Dense",
    "Tanh",
    "Sequential",
    "Adam",
    "DiagGaussian",
    "PreferenceActorCritic",
    "RolloutBuffer",
    "discounted_returns",
    "gae_advantages",
    "PPOTrainer",
]
