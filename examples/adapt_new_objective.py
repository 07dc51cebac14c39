"""Online adaptation: a new application arrives with an unseen objective.

Demonstrates §4.3: the offline model already provides a moderate policy
for the unforeseen weight vector; a few PPO iterations of transfer
learning converge to its optimum; requirement replay (Eq. 6) keeps an
old application's performance intact throughout.

Run:  python examples/adapt_new_objective.py
"""

import numpy as np

from repro.config import BOOTSTRAP_OBJECTIVES, TRAINING_RANGES
from repro.core.online import OnlineAdapter
from repro.core.weights import THROUGHPUT_WEIGHTS
from repro.models import default_zoo
from repro.rl.parallel import EnvSpec


def main():
    new_objective = np.array([0.45, 0.44, 0.11])  # not on the landmark grid
    old_objective = THROUGHPUT_WEIGHTS

    print("Loading the offline model and starting online adaptation...")
    agent = default_zoo().mocc_offline(quality="fast").clone()
    spec = EnvSpec(ranges=TRAINING_RANGES, max_steps=96, seed=5)
    adapter = OnlineAdapter(agent, spec, seed=5)
    adapter.seed_replay([old_objective, *BOOTSTRAP_OBJECTIVES])

    trace = adapter.adapt(new_objective, iterations=12, eval_every=4,
                          old_weights=old_objective, use_replay=True)

    print(f"\nnew objective {np.round(new_objective, 2)}:")
    for i, reward in enumerate(trace.rewards):
        bar = "#" * int(reward / 2)
        print(f"  iter {i:2d}  reward {reward:6.1f}  {bar}")
    print(f"\ninitial reward   : {trace.initial_reward():.1f} "
          "(the offline model already interpolates a moderate policy)")
    print(f"converged at iter: {trace.convergence_iteration(smooth=3)} "
          "(99% of max reward gain)")
    retention = trace.old_objective_retention()
    print(f"old-app retention: {retention:.2f} "
          "(requirement replay prevents forgetting)")


if __name__ == "__main__":
    main()
