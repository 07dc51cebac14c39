"""Tests for repro.config: Table 2/3 values and helpers."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.config
from repro.config import (
    BOOTSTRAP_OBJECTIVES,
    DEFAULT_TRAINING,
    TESTING_RANGES,
    TRAINING_RANGES,
    entropy_coef,
)


class TestTable2:
    """The learning hyperparameters of paper Table 2."""

    def test_discount_factor(self):
        assert repro.config.DISCOUNT_FACTOR == 0.99

    def test_learning_rate(self):
        assert repro.config.LEARNING_RATE == pytest.approx(1e-3)

    def test_action_scale(self):
        assert DEFAULT_TRAINING.action_scale == pytest.approx(0.025)

    def test_history_length(self):
        assert DEFAULT_TRAINING.history_length == 10

    def test_landmark_count(self):
        assert repro.config.NUM_LANDMARKS == 36

    def test_clip_epsilon(self):
        assert repro.config.CLIP_EPSILON == pytest.approx(0.2)

    def test_architecture_is_64_32_per_section5(self):
        assert DEFAULT_TRAINING.hidden_sizes == (64, 32)


class TestEntropyDecay:
    """beta decays 1 -> 0.1 over 1000 iterations (§5)."""

    def test_start(self):
        assert entropy_coef(0) == pytest.approx(1.0)

    def test_end(self):
        assert entropy_coef(1000) == pytest.approx(0.1)

    def test_beyond_end_stays(self):
        assert entropy_coef(5000) == pytest.approx(0.1)

    def test_midpoint(self):
        assert entropy_coef(500) == pytest.approx(0.55)

    def test_monotone_decreasing(self):
        entropy_decays(entropy_coef)


def entropy_decays(schedule) -> None:
    """beta never rises from one iteration to the next, and it falls
    over the schedule."""
    values = [schedule(i) for i in range(0, 1200, 100)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] > values[-1]


class TestTable3:
    """Training/testing network ranges of paper Table 3."""

    def test_training_bandwidth(self):
        assert TRAINING_RANGES.bandwidth_mbps == (1.0, 5.0)

    def test_training_latency(self):
        assert TRAINING_RANGES.latency_ms == (10.0, 50.0)

    def test_training_loss(self):
        assert TRAINING_RANGES.loss_rate == (0.0, 0.03)

    def test_testing_bandwidth(self):
        assert TESTING_RANGES.bandwidth_mbps == (10.0, 50.0)

    def test_testing_latency(self):
        assert TESTING_RANGES.latency_ms == (10.0, 200.0)

    def test_testing_queue(self):
        assert TESTING_RANGES.queue_packets == (500, 5000)

    def test_testing_loss(self):
        assert TESTING_RANGES.loss_rate == (0.0, 0.10)

    def test_testing_wider_than_training(self):
        """Evaluation deliberately exceeds training (§6 settings)."""
        assert TESTING_RANGES.bandwidth_mbps[1] > TRAINING_RANGES.bandwidth_mbps[1]
        assert TESTING_RANGES.latency_ms[1] > TRAINING_RANGES.latency_ms[1]
        assert TESTING_RANGES.loss_rate[1] > TRAINING_RANGES.loss_rate[1]

    def test_sample_within_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = TRAINING_RANGES.sample(rng)
            assert 1.0 <= p.bandwidth_mbps <= 5.0
            assert 10.0 <= p.latency_ms <= 50.0
            assert 1 <= p.queue_packets <= 3000
            assert 0.0 <= p.loss_rate <= 0.03

    def test_sample_varies(self):
        rng = np.random.default_rng(0)
        draws = {TRAINING_RANGES.sample(rng).bandwidth_mbps for _ in range(10)}
        assert len(draws) > 1


class TestBootstrapObjectives:
    """The three Appendix-B bootstrap objectives."""

    def test_count(self):
        assert len(BOOTSTRAP_OBJECTIVES) == 3

    def test_values(self):
        assert (0.6, 0.3, 0.1) in BOOTSTRAP_OBJECTIVES
        assert (0.1, 0.6, 0.3) in BOOTSTRAP_OBJECTIVES
        assert (0.3, 0.1, 0.6) in BOOTSTRAP_OBJECTIVES

    def test_each_sums_to_one(self):
        for b in BOOTSTRAP_OBJECTIVES:
            assert sum(b) == pytest.approx(1.0)


class TestReplace:
    def test_replace_returns_new_config(self):
        cfg = DEFAULT_TRAINING.replace(steps_per_iteration=64)
        assert cfg.steps_per_iteration == 64
        assert DEFAULT_TRAINING.steps_per_iteration == 256

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_TRAINING.steps_per_iteration = 64  # type: ignore[misc]

    def test_custom_entropy_schedule(self, monkeypatch):
        """The schedule reads the module's constants at call time."""
        monkeypatch.setattr(repro.config, "ENTROPY_START", 0.5)
        monkeypatch.setattr(repro.config, "ENTROPY_END", 0.5)
        assert entropy_coef(123) == pytest.approx(0.5)


def test_config_is_the_only_environment_reader():
    """An environment read is an input no fingerprint sees: the package
    reads it in config.py only (two cache locations, never content)."""
    package = Path(repro.config.__file__).parent  # repro has no __file__
    readers = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "os" or (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                readers.append(path.relative_to(package).as_posix())
                break
    assert readers == ["config.py"]
