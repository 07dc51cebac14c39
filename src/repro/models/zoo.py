"""Seeded train-and-cache model registry.

The paper's experiments depend on trained models (MOCC's offline model,
Aurora-throughput, Aurora-latency, the 10-model "enhanced Aurora" of
Fig. 6).  Training them at paper scale takes hours; this registry
trains scaled-down but behaviourally-equivalent models on first use and
caches the checkpoints on disk, so the test/benchmark suite pays the
cost once.

Budgets come in two presets:

* ``fast`` -- seconds per model; enough for tests and smoke runs;
* ``full`` -- a couple of minutes per model; what the benchmarks use.

All training is seeded, so a cache hit and a retrain produce identical
models.  ``REPRO_MODEL_CACHE`` relocates the cache directory (read by
:func:`repro.config.model_cache_dir`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import (DEFAULT_TRAINING, NUM_LANDMARKS, TRAINING_RANGES,
                          TrainingConfig, model_cache_dir)
from repro.core.agent import MoccAgent
from repro.core.offline import OfflineTrainer, train_single_objective
from repro.core.weights import LATENCY_WEIGHTS, THROUGHPUT_WEIGHTS, simplex_grid
from repro.rl.parallel import EnvSpec

__all__ = ["TrainingBudget", "BUDGETS", "ModelZoo", "default_zoo"]


@dataclass(frozen=True)
class TrainingBudget:
    """Iteration counts for one quality preset."""

    bootstrap_iters: int
    traverse_iters: int
    cycles: int
    single_objective_iters: int
    steps_per_iteration: int
    episode_steps: int


BUDGETS = {
    # Calibration: joint bootstrap over the three pivots for >=150
    # iterations yields a weight-monotone policy family (utilization and
    # latency both ordered by w_thr); "fast" trades some fidelity for
    # test-suite speed.  Bootstrap iterations are *joint* (3 rollouts
    # per iteration, one per pivot objective).
    "fast": TrainingBudget(bootstrap_iters=100, traverse_iters=1, cycles=1,
                           single_objective_iters=150, steps_per_iteration=256,
                           episode_steps=96),
    "full": TrainingBudget(bootstrap_iters=250, traverse_iters=1, cycles=1,
                           single_objective_iters=300, steps_per_iteration=256,
                           episode_steps=96),
}


#: Bumped whenever the training pipeline changes in a way that makes
#: previously-cached checkpoints stale.
PIPELINE_VERSION = "v3"


class ModelZoo:
    """Train-on-first-use registry of the experiments' models."""

    def __init__(self, cache_dir: str | Path | None = None):
        self.cache_dir = Path(cache_dir or model_cache_dir())
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory: dict[str, MoccAgent] = {}

    # --- plumbing ---------------------------------------------------------

    @staticmethod
    def _env_spec(budget: TrainingBudget, seed: int) -> EnvSpec:
        # Table 3's training distribution, verbatim (absolute queue
        # sizes).
        return EnvSpec(ranges=TRAINING_RANGES, max_steps=budget.episode_steps,
                       seed=seed)

    @staticmethod
    def _config_for(budget: TrainingBudget) -> TrainingConfig:
        return DEFAULT_TRAINING.replace(steps_per_iteration=budget.steps_per_iteration)

    def _cached(self, key: str, train) -> MoccAgent:
        if key in self._memory:
            return self._memory[key]
        path = self.cache_dir / f"{key}.npz"
        if path.exists():
            agent = MoccAgent.load(path)
        else:
            agent = train()
            # Staged under this writer's pid and renamed into place: a
            # trainer killed mid-write, or two cold workers training
            # the same key, never leave a torn checkpoint at ``path``.
            tmp = path.with_name(f"{key}.{os.getpid()}.tmp.npz")
            try:
                agent.save(tmp)
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
        self._memory[key] = agent
        return agent

    # --- the models --------------------------------------------------------

    @staticmethod
    def _budget_tag(budget: TrainingBudget) -> str:
        """Cache-key fragment pinning the budget and pipeline version."""
        return (f"{PIPELINE_VERSION}_b{budget.bootstrap_iters}t{budget.traverse_iters}"
                f"c{budget.cycles}i{budget.single_objective_iters}"
                f"s{budget.steps_per_iteration}e{budget.episode_steps}")

    def mocc_offline(self, quality: str = "fast", seed: int = 0) -> MoccAgent:
        """The two-phase offline-trained multi-objective model (§4.2)."""
        budget = BUDGETS[quality]

        def train() -> MoccAgent:
            trainer = OfflineTrainer(spec=self._env_spec(budget, seed),
                                     config=self._config_for(budget), seed=seed)
            result = trainer.train(omega=NUM_LANDMARKS,
                                   bootstrap_iters=budget.bootstrap_iters,
                                   traverse_iters=budget.traverse_iters,
                                   cycles=budget.cycles)
            return result.agent

        key = (f"mocc_omega{NUM_LANDMARKS}_{quality}_"
               f"{self._budget_tag(budget)}_seed{seed}")
        return self._cached(key, train)

    def aurora(self, flavor: str = "throughput", quality: str = "fast",
               seed: int = 0) -> MoccAgent:
        """Single-objective Aurora (no preference sub-network)."""
        weights = {"throughput": THROUGHPUT_WEIGHTS,
                   "latency": LATENCY_WEIGHTS}[flavor]
        return self.aurora_for(weights, tag=flavor, quality=quality, seed=seed)

    def aurora_for(self, weights, tag: str, quality: str = "fast",
                   seed: int = 0) -> MoccAgent:
        """Aurora trained for an arbitrary fixed objective."""
        budget = BUDGETS[quality]
        weights = np.asarray(weights, dtype=np.float64)

        def train() -> MoccAgent:
            agent, _ = train_single_objective(
                self._env_spec(budget, seed + 7), weights,
                budget.single_objective_iters,
                config=self._config_for(budget), seed=seed)
            return agent

        key = f"aurora_{tag}_{quality}_{self._budget_tag(budget)}_seed{seed}"
        return self._cached(key, train)

    def enhanced_aurora(self, n_models: int = 10, quality: str = "fast"
                        ) -> list[tuple[np.ndarray, MoccAgent]]:
        """Fig. 6's enhanced Aurora: ``n_models`` pre-trained instances.

        Objectives are spread over the simplex (a coarse grid), which is
        how one would "pre-train a few variants of Aurora ... that best
        suit these 100 objectives".
        """
        grid = simplex_grid(6)  # 10 interior points at step 1/6
        objectives = grid[:n_models]
        models = []
        for i, w in enumerate(objectives):
            tag = "enh%d_%d" % (n_models, i)
            models.append((w, self.aurora_for(w, tag=tag, quality=quality,
                                              seed=100 + i)))
        return models


_default: ModelZoo | None = None


def default_zoo() -> ModelZoo:
    """Process-wide zoo instance with the default cache location."""
    global _default
    if _default is None:
        _default = ModelZoo()
    return _default
