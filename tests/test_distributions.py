"""Tests for repro.rl.distributions against closed forms and scipy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.rl.distributions import DiagGaussian


class TestDiagGaussianLogProb:
    def test_matches_scipy(self):
        mean = np.array([[0.3, -1.0]])
        log_std = np.array([0.2, -0.4])
        action = np.array([[0.5, 0.5]])
        ours = DiagGaussian.log_prob(action, mean, log_std)[0]
        ref = (stats.norm.logpdf(0.5, 0.3, np.exp(0.2))
               + stats.norm.logpdf(0.5, -1.0, np.exp(-0.4)))
        assert ours == pytest.approx(ref)

    @settings(max_examples=25, deadline=None)
    @given(mean=st.floats(-3, 3), log_std=st.floats(-2, 1), action=st.floats(-5, 5))
    def test_matches_scipy_property(self, mean, log_std, action):
        ours = DiagGaussian.log_prob(np.array([[action]]), np.array([[mean]]),
                                     np.array([log_std]))[0]
        ref = stats.norm.logpdf(action, mean, np.exp(log_std))
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_peak_at_mean(self):
        log_std = np.array([0.0])
        at_mean = DiagGaussian.log_prob(np.array([[1.0]]), np.array([[1.0]]), log_std)
        off_mean = DiagGaussian.log_prob(np.array([[2.0]]), np.array([[1.0]]), log_std)
        assert at_mean[0] > off_mean[0]

    def test_batch_shape(self):
        mean = np.zeros((7, 2))
        out = DiagGaussian.log_prob(np.zeros((7, 2)), mean, np.zeros(2))
        assert out.shape == (7,)


class TestDiagGaussianGrads:
    def test_mean_gradient_numeric(self):
        mean = np.array([[0.1, -0.2]])
        log_std = np.array([0.3, 0.1])
        action = np.array([[1.0, 0.5]])
        d_mean, d_log_std = DiagGaussian.log_prob_grads(action, mean, log_std)
        eps = 1e-6
        for j in range(2):
            m_plus = mean.copy()
            m_plus[0, j] += eps
            m_minus = mean.copy()
            m_minus[0, j] -= eps
            numeric = (DiagGaussian.log_prob(action, m_plus, log_std)[0]
                       - DiagGaussian.log_prob(action, m_minus, log_std)[0]) / (2 * eps)
            assert d_mean[0, j] == pytest.approx(numeric, rel=1e-5)

    def test_log_std_gradient_numeric(self):
        mean = np.array([[0.1]])
        log_std = np.array([-0.3])
        action = np.array([[0.7]])
        _, d_log_std = DiagGaussian.log_prob_grads(action, mean, log_std)
        eps = 1e-6
        numeric = (DiagGaussian.log_prob(action, mean, log_std + eps)[0]
                   - DiagGaussian.log_prob(action, mean, log_std - eps)[0]) / (2 * eps)
        assert d_log_std[0, 0] == pytest.approx(numeric, rel=1e-5)


class TestDiagGaussianEntropy:
    def test_standard_normal(self):
        ref = stats.norm.entropy(0.0, 1.0)
        assert DiagGaussian.entropy(np.zeros(1)) == pytest.approx(float(ref))

    def test_sums_over_dims(self):
        single = DiagGaussian.entropy(np.array([0.5]))
        double = DiagGaussian.entropy(np.array([0.5, 0.5]))
        assert double == pytest.approx(2 * single)

    def test_entropy_grad_is_one(self):
        np.testing.assert_array_equal(
            DiagGaussian.entropy_grad_log_std(np.array([0.3, -1.0])), [1.0, 1.0])

    def test_entropy_increases_with_std(self):
        assert (DiagGaussian.entropy(np.array([1.0]))
                > DiagGaussian.entropy(np.array([0.0])))


class TestDiagGaussianSampling:
    def test_sample_statistics(self):
        rng = np.random.default_rng(0)
        mean = np.full((20000, 1), 2.0)
        log_std = np.array([np.log(0.5)])
        samples = DiagGaussian.sample(mean, log_std, rng)
        assert samples.mean() == pytest.approx(2.0, abs=0.02)
        assert samples.std() == pytest.approx(0.5, abs=0.02)

    def test_deterministic_with_seed(self):
        a = DiagGaussian.sample(np.zeros((3, 1)), np.zeros(1), np.random.default_rng(5))
        b = DiagGaussian.sample(np.zeros((3, 1)), np.zeros(1), np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

