"""Tests for the trace diagnostics."""

import math

import numpy as np
import pytest

from ccmix import acf, asymptotic_variance_batch_means, diagnostics, kde
from ccmix.diagnostics import (
    ConstantSeries,
    EmptySample,
    SeriesTooShort,
    TooFewBatches,
)


class TestAcf:
    def test_lag_zero_is_one(self):
        est = acf(np.random.default_rng(0).standard_normal(500), 10)
        assert est.values[0] == 1.0
        np.testing.assert_array_equal(est.lags, np.arange(11))
        assert est.series_length == 500

    def test_bounded_by_one(self):
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.standard_normal(2000))
        est = acf(x, 100)
        assert np.all(np.abs(est.values) <= 1.0 + 1e-12)

    def test_iid_lags_near_zero(self):
        n = 100_000
        x = np.random.default_rng(2).standard_normal(n)
        est = acf(x, 20)
        assert np.max(np.abs(est.values[1:])) < 4.0 / math.sqrt(n)

    def test_alternating_series(self):
        n = 10_000
        x = np.tile([1.0, -1.0], n // 2)
        est = acf(x, 2)
        # Biased estimator: rho(1) = -(1 - 1/n) exactly here.
        assert est.values[1] == pytest.approx(-(1.0 - 1.0 / n), abs=1e-12)
        assert est.values[2] == pytest.approx(1.0 - 2.0 / n, abs=1e-12)

    def test_reversal_invariance(self):
        x = np.random.default_rng(3).standard_normal(300)
        np.testing.assert_allclose(
            acf(x, 20).values, acf(x[::-1], 20).values, atol=1e-12
        )

    def test_affine_invariance(self):
        x = np.random.default_rng(4).standard_normal(300)
        np.testing.assert_allclose(
            acf(x, 20).values, acf(3.0 * x - 7.0, 20).values, atol=1e-10
        )

    def test_known_ar1_autocorrelation(self):
        # AR(1) with coefficient phi has rho(k) = phi^k.
        phi, n = 0.6, 400_000
        rng = np.random.default_rng(5)
        eps = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = eps[0]
        for i in range(1, n):
            x[i] = phi * x[i - 1] + eps[i]
        est = acf(x, 5)
        np.testing.assert_allclose(est.values[1:], phi ** np.arange(1, 6), atol=0.01)

    def test_constant_raises(self):
        with pytest.raises(ConstantSeries):
            acf(np.ones(100), 5)

    def test_too_short_raises(self):
        with pytest.raises(SeriesTooShort):
            acf(np.arange(10.0), 10)

    def test_bad_max_lag(self):
        with pytest.raises(ValueError):
            acf(np.arange(10.0), 0)


class TestBatchMeans:
    def test_constant_series_gives_zero(self):
        est = asymptotic_variance_batch_means(np.ones(1000), 10)
        assert est.value == 0.0
        assert est.method == "batch_means"
        assert est.batch_count == 10

    def test_iid_standard_normal(self):
        x = np.random.default_rng(6).standard_normal(1_000_000)
        est = asymptotic_variance_batch_means(x, 100)
        assert est.value == pytest.approx(1.0, abs=0.2)

    def test_two_state_chain_matches_exact_value(self):
        # Two-state chain with flip probabilities a, b; for h = 1{state 2}
        # the exact asymptotic variance is pi1*pi2*(2 - a - b)/(a + b).
        a, b = 0.15, 0.3
        pi2 = a / (a + b)
        exact = (1 - pi2) * pi2 * (2 - a - b) / (a + b)
        rng = np.random.default_rng(13)
        n = 1_000_000
        u = rng.random(n)
        x = np.empty(n)
        s = 0
        for i in range(n):
            if u[i] < (a if s == 0 else b):
                s = 1 - s
            x[i] = s
        est = asymptotic_variance_batch_means(x, 200)
        assert est.value == pytest.approx(exact, rel=0.10)

    def test_too_few_batches(self):
        with pytest.raises(TooFewBatches):
            asymptotic_variance_batch_means(np.arange(100.0), 9)
        with pytest.raises(TooFewBatches):
            asymptotic_variance_batch_means(np.arange(5.0), 10)

    def test_truncates_to_batch_multiple(self):
        x = np.random.default_rng(8).standard_normal(1005)
        a = asymptotic_variance_batch_means(x, 10)
        b = asymptotic_variance_batch_means(x[:1000], 10)
        assert a.value == b.value


def _silverman(x):
    """Silverman's rule of thumb, 1.06 * sigma-hat * N^(-1/5)."""
    return 1.06 * float(np.std(x)) * len(x) ** (-0.2)


class TestKde:
    def test_single_point_kernel_height(self):
        got = kde([0.0], [0.0], bandwidth=1.0)
        assert got[0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_standard_normal_recovery(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(100_000)
        grid = np.arange(-5.0, 5.0 + 0.005, 0.01)
        est = kde(x, grid, bandwidth=_silverman(x))
        true = np.exp(-0.5 * grid * grid) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(est - true)) < 0.02

    def test_nonnegative_and_integrates_to_one(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(5000)
        grid = np.linspace(-6, 6, 1201)
        est = kde(x, grid, bandwidth=_silverman(x))
        assert np.all(est >= 0.0)
        assert np.trapezoid(est, grid) == pytest.approx(1.0, abs=0.01)

    def test_shift_equivariance(self):
        # Samples and shift on a power-of-two lattice so the grid/sample
        # differences are computed exactly; the estimate must then be
        # bitwise shift-equivariant.
        rng = np.random.default_rng(11)
        x = np.round(rng.standard_normal(2000) * 64) / 64
        grid = np.arange(-4.0, 4.0, 1.0 / 32)
        shift = 8.0
        a = kde(x, grid, bandwidth=0.25)
        b = kde(x + shift, grid + shift, bandwidth=0.25)
        np.testing.assert_array_equal(a, b)

    def test_matches_the_dense_sum(self):
        # The full (grid x samples) sum against the windowed one.  Grid
        # point 0 sees only samples at and just inside the cut-off: the
        # ones inside add subnormal terms, which a small bandwidth keeps
        # above zero after normalization, so each must be in the window.
        h = 1e-3
        reach = math.sqrt(2.0 * 745.2) * h
        edge = reach * np.array([1.0, 1.0 - 1e-4, 1.0 - 2e-4])
        bulk = np.random.default_rng(14).standard_normal(200) * 0.01 + 1.0
        x = np.concatenate([bulk, -edge, edge])
        grid = np.concatenate([[0.0], np.linspace(0.95, 1.05, 201)])
        got = kde(x, grid, bandwidth=h)
        d = (grid[:, None] - x[None, :]) / h
        want = np.exp(-0.5 * d * d).sum(axis=1) / (len(x) * h * np.sqrt(2.0 * np.pi))
        assert 0.0 < want[0] < 1e-320
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            kde([], [0.0], bandwidth=1.0)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            kde([0.0], [1.0, 0.0], bandwidth=1.0)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            kde([0.0], [0.0], bandwidth=0.0)
