"""Tests for the trace diagnostics."""

import math
import tracemalloc

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
        assert est.shape == (11,) and est.dtype == np.float64
        assert est[0] == 1.0

    def test_bounded_by_one(self):
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.standard_normal(2000))
        est = acf(x, 100)
        assert np.all(np.abs(est) <= 1.0 + 1e-12)

    def test_iid_lags_near_zero(self):
        n = 100_000
        x = np.random.default_rng(2).standard_normal(n)
        est = acf(x, 20)
        assert np.max(np.abs(est[1:])) < 4.0 / math.sqrt(n)

    def test_alternating_series(self):
        n = 10_000
        x = np.tile([1.0, -1.0], n // 2)
        est = acf(x, 2)
        # Biased estimator: rho(1) = -(1 - 1/n) exactly here.
        assert est[1] == pytest.approx(-(1.0 - 1.0 / n), abs=1e-12)
        assert est[2] == pytest.approx(1.0 - 2.0 / n, abs=1e-12)

    def test_reversal_invariance(self):
        x = np.random.default_rng(3).standard_normal(300)
        np.testing.assert_allclose(
            acf(x, 20), acf(x[::-1], 20), atol=1e-12
        )

    def test_affine_invariance(self):
        x = np.random.default_rng(4).standard_normal(300)
        np.testing.assert_allclose(
            acf(x, 20), acf(3.0 * x - 7.0, 20), atol=1e-10
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
        np.testing.assert_allclose(est[1:], phi ** np.arange(1, 6), atol=0.01)

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


def _dense_kde(x, grid, h):
    """The full (grid x samples) sum, one kernel per sample."""
    d = (grid[:, None] - x[None, :]) / h
    return np.exp(-0.5 * d * d).sum(axis=1) / (len(x) * h * np.sqrt(2.0 * np.pi))


def _chunked_dense_kde(x, grid, h):
    """_dense_kde over 60 parts of the grid, so no (grid x samples) array
    is built at once."""
    return np.concatenate([_dense_kde(x, p, h) for p in np.array_split(grid, 60)])


def _window_widths(x, grid, h):
    """How many distinct samples each grid point's window holds: those
    within sqrt(d0^2 + 2 (60 ln 2 + ln N)) bandwidths, d0 the distance to
    the nearest sample and N = len(x), and at most _KDE_REACH."""
    xs = np.unique(x)
    k = np.searchsorted(xs, grid)
    d0 = np.minimum(
        np.abs(grid - xs[np.maximum(k - 1, 0)]),
        np.abs(xs[np.minimum(k, len(xs) - 1)] - grid),
    ) / h
    tail = 2.0 * (60.0 * math.log(2.0) + math.log(len(x)))
    reach = np.minimum(np.sqrt(d0 * d0 + tail), diagnostics._KDE_REACH) * h
    return np.searchsorted(xs, grid + reach, "right") - np.searchsorted(
        xs, grid - reach, "left"
    )


@pytest.mark.parametrize(
    "series",
    [
        [0.0, 1.0, np.nan, 2.0] * 30,
        [0.0, np.inf, 1.0] * 40,
        np.arange(120.0).reshape(60, 2),
    ],
    ids=["nan", "inf", "2-D"],
)
def test_non_finite_or_multidimensional_series_rejected(series):
    with pytest.raises(ValueError, match="series must be"):
        acf(series, 5)
    with pytest.raises(ValueError, match="series must be"):
        asymptotic_variance_batch_means(series, 10)


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

    def test_heavy_repeats_match_the_dense_sum(self):
        # Each distinct point weighs in once, times its multiplicity.
        rng = np.random.default_rng(15)
        points = rng.standard_normal(300)
        x = rng.permutation(np.repeat(points, rng.integers(1, 51, len(points))))
        grid = np.linspace(-4.0, 4.0, 801)
        np.testing.assert_allclose(
            kde(x, grid, bandwidth=0.1), _dense_kde(x, grid, 0.1), rtol=1e-14, atol=0
        )

    def test_blocks_match_the_chunked_dense_sum(self):
        # Heavy repeats, a grid with jumps, windows that span many blocks
        # and windows wider than a block, summed in parts.
        rng = np.random.default_rng(16)
        points = rng.standard_normal(20_000)
        x = rng.permutation(np.repeat(points, rng.integers(1, 11, len(points))))
        jumps = [0.51, 4.0, 12.0]
        grid = np.concatenate(
            [np.linspace(-6.0, -3.0, 150), np.linspace(-0.5, 0.5, 300), jumps]
        )
        h = 0.15
        widths = _window_widths(x, grid, h)
        assert widths.max() > diagnostics._KDE_BLOCK_PAIRS and widths.min() == 0
        np.testing.assert_allclose(
            kde(x, grid, bandwidth=h), _chunked_dense_kde(x, grid, h), rtol=1e-14, atol=0
        )

    @pytest.mark.parametrize(
        "tail, side",
        [
            (60.0 * math.log(2.0) + math.log(10**6 + 1), 1.0 + 1e-9),
            (60.0 * math.log(2.0) + math.log(10**6 + 1), 1.0 - 1e-9),
            (60.0 * math.log(2.0) + math.log(2.0), 1.0 + 1e-9),
        ],
        ids=["beyond-the-reach", "inside-the-reach", "beyond-a-distinct-count-reach"],
    )
    def test_a_million_repeats_at_the_edge_of_the_reach(self, tail, side):
        # One sample at the grid point, so its term is the nearest, and 10^6
        # copies of one more at sqrt(2 tail) bandwidths, just beyond or just
        # inside that distance.  kde's reach there counts the copies: N =
        # 10^6 + 1 sets it near 10.5 bandwidths, and the copies beyond it add
        # under 2^-60 of the sum.  A reach from the distinct count, N = 2,
        # would end near 9.2 and leave out copies there worth 4e-13 of it.
        h = 0.5
        x = np.concatenate([[0.0], np.full(10**6, math.sqrt(2.0 * tail) * side * h)])
        grid = np.array([0.0])
        np.testing.assert_allclose(
            kde(x, grid, bandwidth=h), _dense_kde(x, grid, h), rtol=1e-14, atol=0
        )

    def test_posterior_study_input_matches_the_chunked_dense_sum(self):
        # The estimate ccmix posterior makes at the benchmark's size: FCC's
        # z pooled over two chains of 6000 sweeps (1000 burn-in), on the
        # study's 1201-point grid.
        from ccmix import SamplerId
        from ccmix.experiments import (
            POSTERIOR_KDE_BANDWIDTH,
            _density_grid,
            _run_study,
            posterior_model,
        )

        _, x = _run_study(
            "posterior",
            posterior_model(),
            (SamplerId.FCC,),
            seed=42,
            n_iter=6000,
            burn_in=1000,
            replicates=2,
        )
        grid = _density_grid()
        assert len(x) == 10_000 and len(grid) == 1201
        h = POSTERIOR_KDE_BANDWIDTH
        np.testing.assert_allclose(
            kde(x, grid, bandwidth=h), _chunked_dense_kde(x, grid, h), rtol=1e-14, atol=0
        )

    @pytest.mark.parametrize("size", [50_000, 400_000])
    def test_memory_beyond_the_sort_does_not_grow_with_the_sample(self, size):
        # Every sample is within reach of every grid point.  Beyond what
        # np.unique takes, kde holds blocks of bounded size.
        x = np.random.default_rng(17).uniform(-1.0, 1.0, size)
        grid = np.linspace(-1.0, 1.0, 41)
        peaks = []
        for call in (lambda: np.unique(x, return_counts=True),
                     lambda: kde(x, grid, bandwidth=1.0)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 6 * 8 * diagnostics._KDE_BLOCK_PAIRS

    def test_fcc_trace_matches_the_dense_sum(self):
        # FCC keeps z until the label switches, so its trace repeats.
        from ccmix import SamplerConfig, SamplerId, State, run_chain
        from ccmix.experiments import POSTERIOR_KDE_BANDWIDTH, posterior_model

        config = SamplerConfig(SamplerId.FCC, 4000, State(2, 0.6), burn_in=0, seed=3)
        x = run_chain(config, posterior_model()).z
        assert len(np.unique(x)) < len(x) / 2
        grid = np.linspace(-3.0, 3.0, 601)
        h = POSTERIOR_KDE_BANDWIDTH
        np.testing.assert_allclose(
            kde(x, grid, bandwidth=h), _dense_kde(x, grid, h), rtol=1e-14, atol=0
        )

    @pytest.mark.parametrize(
        "samples, grid, bandwidth, name",
        [
            ([0.0, math.nan], [0.0], 1.0, "samples"),
            ([0.0, math.inf], [0.0], 1.0, "samples"),
            ([0.0, -math.inf], [0.0], 1.0, "samples"),
            ([0.0], [0.0, math.nan], 1.0, "grid"),
            ([0.0], [math.nan, 0.0], 1.0, "grid"),
            ([0.0], [0.0, math.inf], 1.0, "grid"),
            ([0.0], [0.0], math.nan, "bandwidth"),
            ([0.0], [0.0], math.inf, "bandwidth"),
        ],
    )
    def test_non_finite_input_rejected(self, samples, grid, bandwidth, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            kde(samples, grid, bandwidth=bandwidth)

    @pytest.mark.parametrize(
        "samples, grid", [(np.zeros((5, 2)), [0.0]), ([0.0], [[0.0, 1.0]])]
    )
    def test_non_1d_input_rejected(self, samples, grid):
        with pytest.raises(ValueError, match="one-dimensional"):
            kde(samples, grid, bandwidth=1.0)

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            kde([], [0.0], bandwidth=1.0)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            kde([0.0], [1.0, 0.0], bandwidth=1.0)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            kde([0.0], [0.0], bandwidth=0.0)
