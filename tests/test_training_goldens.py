"""Final-model digests of the training paths the ledger does not pin.

``benchmarks/ledger/expected.json`` pins the reward and model sha of
the two-phase ``OfflineTrainer.train`` at seeds 0 and 1.  The paths
below share the optimizer, the PPO/DQN updates and the rollout
collectors with it but are exercised by no pinned number: the
``weight_dim=0`` single-objective trainer (the Aurora zoo models),
``OnlineAdapter.adapt`` with requirement replay, the Eq. 6
``update_multi`` step and a ``DQNTrainer`` step sequence with target
syncs.  ``goldens/training_golden.json`` was recorded on the commit
before the parameter arena and the per-rollout inference plan landed
(``PYTHONPATH=<that commit>/src python tests/test_training_goldens.py``
rewrites it); a mismatch means a float moved in training.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.config import DEFAULT_TRAINING, TRAINING_RANGES
from repro.core.agent import MoccAgent
from repro.core.offline import train_single_objective
from repro.core.online import OnlineAdapter
from repro.rl.dqn import DQNConfig, DQNTrainer
from repro.rl.parallel import EnvSpec, SerialCollector
from repro.rl.ppo import PPOConfig, PPOTrainer

GOLDEN_PATH = Path(__file__).parent / "goldens" / "training_golden.json"

SPEC = EnvSpec(ranges=TRAINING_RANGES, max_steps=24, seed=3)
CONFIG = DEFAULT_TRAINING.replace(steps_per_iteration=64, minibatch_size=32)
OLD, NEW = [0.6, 0.3, 0.1], [0.45, 0.45, 0.10]


def model_sha(model) -> str:
    digest = hashlib.sha256()
    state = model.state_dict()
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(state[name]).tobytes())
    return digest.hexdigest()[:16]


def single_objective() -> dict:
    agent, trace, marks = train_single_objective(
        SPEC, [0.8, 0.1, 0.1], iterations=3, config=CONFIG, seed=5,
        eval_every=2)
    return {"sha": model_sha(agent.model), "reward": repr(trace[-1]),
            "mark": repr(marks[-1][1])}


def online_adapt() -> dict:
    agent = MoccAgent(CONFIG, seed=4)
    adapter = OnlineAdapter(agent, SPEC, config=CONFIG, seed=6)
    adapter.seed_replay([OLD])
    trace = adapter.adapt(NEW, iterations=3, eval_every=2, old_weights=OLD)
    return {"sha": model_sha(agent.model), "reward": repr(trace.rewards[-1]),
            "mark": repr(trace.old_marks[-1][1])}


def update_multi() -> dict:
    model = MoccAgent(CONFIG, seed=8).model
    trainer = PPOTrainer(model, PPOConfig.from_training_config(CONFIG),
                         rng=np.random.default_rng(9))
    collector, rng = SerialCollector(SPEC), np.random.default_rng(10)
    for _ in range(2):
        buffers = [collector.collect(model, w, 48, rng)[0][0]
                   for w in (OLD, NEW)]
        stats = trainer.update_multi(buffers)
    return {"sha": model_sha(model), "loss": repr(stats[-1].policy_loss)}


def dqn_steps() -> dict:
    trainer = DQNTrainer(obs_dim=40, seed=1, config=DQNConfig(
        warmup_transitions=64, target_sync_steps=50))
    env = SPEC.build()
    rewards = [trainer.train_objective(env, w, steps=96)
               for w in (OLD, NEW, OLD)]
    assert trainer.grad_steps == 192  # three target syncs happened
    return {"sha": model_sha(trainer.q), "target_sha": model_sha(trainer.target),
            "reward": repr(rewards[-1])}


PATHS = {fn.__name__: fn for fn in
         (single_objective, online_adapt, update_multi, dqn_steps)}


@pytest.mark.skipif(os.environ.get("REPRO_GOLDEN_RELAXED") == "1",
                    reason="digest identity needs the reference BLAS")
@pytest.mark.parametrize("name", sorted(PATHS))
def test_final_model_unchanged(name):
    pinned = json.loads(GOLDEN_PATH.read_text())
    assert sorted(pinned) == sorted(PATHS)
    assert PATHS[name]() == pinned[name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: fn() for name, fn in sorted(PATHS.items())}, indent=1) + "\n")
