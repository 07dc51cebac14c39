"""Reinforcement-learning stack for the MOCC reproduction.

The paper trains MOCC with TensorFlow 1.14 and stable-baselines PPO;
neither is available offline, so this package provides an equivalent
numpy implementation:

* :mod:`repro.rl.nn` -- dense layers and MLPs with manual backprop, and
  the parameter arena (one flat value and one flat gradient vector per
  model; every ``Parameter`` is a view into them).
* :mod:`repro.rl.optim` -- Adam (the paper's optimizer) and SGD, one
  pass over the arena per step.
* :mod:`repro.rl.distributions` -- diagonal Gaussian and categorical
  action distributions.
* :mod:`repro.rl.policy` -- the actor-critic model with the preference
  sub-network of Fig. 3, and the single-state ``InferencePlan``.
* :mod:`repro.rl.rollout` -- trajectory storage, returns, advantages.
* :mod:`repro.rl.collect` -- run a policy in an env (one plan per
  rollout) and fill a buffer.
* :mod:`repro.rl.ppo` -- PPO-clip with entropy regularisation (Eq. 3-5).
* :mod:`repro.rl.dqn` -- the MOCC-DQN ablation of Fig. 18.
* :mod:`repro.rl.parallel` -- vectorized/parallel rollout collection.
"""

from repro.rl.nn import MLP, Dense, Tanh, ReLU, Sequential
from repro.rl.optim import Adam, SGD
from repro.rl.distributions import DiagGaussian, Categorical
from repro.rl.policy import PreferenceActorCritic
from repro.rl.rollout import RolloutBuffer, discounted_returns, gae_advantages
from repro.rl.ppo import PPOTrainer, PPOConfig

__all__ = [
    "MLP",
    "Dense",
    "Tanh",
    "ReLU",
    "Sequential",
    "Adam",
    "SGD",
    "DiagGaussian",
    "Categorical",
    "PreferenceActorCritic",
    "RolloutBuffer",
    "discounted_returns",
    "gae_advantages",
    "PPOTrainer",
    "PPOConfig",
]
