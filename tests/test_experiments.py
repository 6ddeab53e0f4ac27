"""Tests for the two numerical studies (light iteration counts)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from ccmix import (
    ConfigError,
    MixtureTarget,
    ModelBundle,
    ProposalFamily,
    SamplerConfig,
    SamplerId,
    State,
    run_chain,
)
from ccmix.experiments import (
    DEFAULT_DENSITY_GRID_STEP,
    POSTERIOR_X_OBS,
    TOY_MEANS,
    TOY_PSEUDO_MEANS,
    TOY_PSEUDO_VARS,
    TOY_VAR,
    _posterior_marginal_unnorm,
    _simpson,
    default_initial_state,
    posterior_model,
    posterior_target,
    run_posterior_experiment,
    run_toy_experiment,
    toy_model,
    true_posterior,
)


class TestToyModel:
    def test_target_matches_scipy(self):
        bundle = toy_model()
        for m in (1, 2):
            for z in (-1.0, 0.2, 1.7):
                want = math.log(0.5) + stats.norm.logpdf(
                    z, TOY_MEANS[m - 1], math.sqrt(TOY_VAR)
                )
                assert bundle.target.log_density(m, z) == pytest.approx(want, rel=1e-12)

    def test_pseudo_matches_scipy(self):
        bundle = toy_model()
        for j in (1, 2):
            want = stats.norm.logpdf(
                0.1, TOY_PSEUDO_MEANS[j - 1], math.sqrt(TOY_PSEUDO_VARS[j - 1])
            )
            assert bundle.pseudo.log_density(j, 0.1) == pytest.approx(want, rel=1e-12)

    def test_conditional_sampler_law(self):
        bundle = toy_model()
        rng = np.random.default_rng(0)
        z = bundle.target.conditional_sampler(2, rng, 20000)
        assert z.mean() == pytest.approx(1.0, abs=0.02)
        assert z.var() == pytest.approx(TOY_VAR, abs=0.01)

    def test_pseudo_var_scale(self):
        bundle = toy_model(pseudo_var_scale=1.5)
        want = stats.norm.logpdf(0.0, TOY_PSEUDO_MEANS[0], math.sqrt(1.5 * TOY_PSEUDO_VARS[0]))
        assert bundle.pseudo.log_density(1, 0.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_bad_pseudo_var_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="pseudo_var_scale must be finite and > 0"):
            toy_model(pseudo_var_scale=scale)

    def test_independence_proposal_matches_pseudo(self):
        bundle = toy_model()
        for u in (-2.0, 0.0, 3.0):
            assert bundle.proposal.log_density(1, u, 0.4) == bundle.pseudo.log_density(
                1, 0.4
            )


class TestPosteriorModel:
    def test_target_matches_scipy(self):
        target = posterior_target()
        for m, alpha in ((1, 0.25), (2, 0.75)):
            z = 0.6
            want = (
                math.log(alpha)
                + stats.norm.logpdf(z, TOY_MEANS[m - 1], math.sqrt(TOY_VAR))
                + stats.norm.logpdf(POSTERIOR_X_OBS, z * z, math.sqrt(0.1))
            )
            assert target.log_density(m, z) == pytest.approx(want, rel=1e-12)

    def test_no_conditional_sampler(self):
        assert posterior_target().conditional_sampler is None


class TestTruePosterior:
    def test_mean_matches_reference_value(self):
        mu, _ = true_posterior()
        assert mu == pytest.approx(0.315, abs=0.001)
        assert mu == pytest.approx(0.3150406832722366, rel=1e-12)

    def test_density_normalized(self):
        _, density = true_posterior()
        grid = np.arange(-3.0, 3.0 + DEFAULT_DENSITY_GRID_STEP / 2,
                         DEFAULT_DENSITY_GRID_STEP)
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self):
        a, da = true_posterior()
        b, db = true_posterior()
        assert a == b
        np.testing.assert_array_equal(da, db)

    def test_custom_grid(self):
        grid = np.linspace(-1, 1, 11)
        _, density = true_posterior(grid=grid)
        assert density.shape == (11,)

    def test_simpson_passes_agree(self):
        # true_posterior makes one pass with 4800 intervals; halving the
        # step again changes neither integral beyond the Richardson bound.
        passes = []
        for n_intervals in (2400, 4800):
            z = np.linspace(-3.0, 3.0, n_intervals + 1)
            p = _posterior_marginal_unnorm(z)
            passes.append((_simpson(p, z[1] - z[0]), _simpson(z * p, z[1] - z[0])))
        (n1, f1), (n2, f2) = passes
        assert abs(n1 - n2) / 15.0 <= 1e-8
        assert abs(f1 - f2) / 15.0 <= 1e-8
        assert true_posterior()[0] == f2 / n2


class TestDefaultInitialState:
    def test_deterministic_and_label_one(self):
        bundle = toy_model()
        a = default_initial_state(bundle, 5)
        b = default_initial_state(bundle, 5)
        assert a == b and a.m == 1

    def test_varies_with_seed(self):
        bundle = toy_model()
        assert default_initial_state(bundle, 1).z != default_initial_state(bundle, 2).z

    def test_without_pseudo_prior_draws_the_exact_conditional(self):
        bundle = replace(toy_model(), pseudo=None)
        state = default_initial_state(bundle, 5)
        draw = bundle.target.conditional_sampler(1, np.random.default_rng([5, 1]), 1)
        assert state == State(1, draw[0])

    @pytest.mark.parametrize(
        "part", ["pseudo.sampler", "target.conditional_sampler"]
    )
    def test_sampler_breaking_the_protocol_raises_config_error(self, part):
        # A float where a block of one point is due: named, not a TypeError.
        def draw(label, rng, size):
            return 0.5

        bundle = toy_model()
        if part == "pseudo.sampler":
            bundle = replace(bundle, pseudo=replace(bundle.pseudo, sampler=draw))
        else:
            bundle = ModelBundle(replace(bundle.target, conditional_sampler=draw))
        with pytest.raises(ConfigError, match=rf"^{part} returned shape \(\)"):
            default_initial_state(bundle, 0)

    @pytest.mark.parametrize("z_dim", [1, 2])
    def test_without_samplers_starts_at_zero_of_the_targets_shape(self, z_dim):
        # An MwG-only model: neither a pseudo-prior nor an exact conditional.
        def log_density(m, z):
            return -0.5 * np.sum(np.square(z), axis=-1) if z_dim > 1 else -0.5 * z * z

        target = MixtureTarget(n=2, z_dim=z_dim, log_density=log_density)
        walk = ProposalFamily(
            n=2,
            log_density=lambda l, u, z: 0.0,
            sampler=lambda l, u, rng: u + rng.standard_normal(np.shape(u)),
        )
        bundle = ModelBundle(target, proposal=walk)
        state = default_initial_state(bundle, 0)
        assert state.m == 1 and np.shape(state.z) == (() if z_dim == 1 else (z_dim,))
        assert np.all(state.z == 0.0)
        config = SamplerConfig(SamplerId.MWG, 50, state, burn_in=0)
        assert len(run_chain(config, bundle)) == 50


@pytest.fixture(scope="module")
def toy_report_small():
    return run_toy_experiment(seed=3, n_iter=3000, burn_in=200, replicates=2)


@pytest.fixture(scope="module")
def posterior_report_small():
    return run_posterior_experiment(seed=3, n_iter=4000, burn_in=200, replicates=2)


class TestRunToyExperiment:
    def test_structure(self, toy_report_small):
        assert toy_report_small.experiment == "toy"
        assert set(toy_report_small.results) == {"gibbs", "cc", "mcc", "fcc"}
        assert toy_report_small.mu_z_true is None and toy_report_small.density_grid is None
        for r in toy_report_small.results.values():
            assert r.acf_m.shape == r.acf_z.shape == (51,)
            assert len(r.wall_clocks) == 2 and len(r.lag1_m) == 2
            assert -1.5 < r.mean_z < 1.5

    def test_acceptance_only_for_metropolised(self, toy_report_small):
        assert toy_report_small.results["mcc"].acceptance_rate is not None
        assert toy_report_small.results["gibbs"].acceptance_rate is None
        assert toy_report_small.results["cc"].acceptance_rate is None
        assert toy_report_small.results["fcc"].acceptance_rate is None

    def test_deterministic_apart_from_wallclock(self, toy_report_small):
        again = run_toy_experiment(seed=3, n_iter=3000, burn_in=200, replicates=2)
        for name, r in toy_report_small.results.items():
            r2 = again.results[name]
            np.testing.assert_array_equal(r.acf_m, r2.acf_m)
            np.testing.assert_array_equal(r.acf_z, r2.acf_z)
            assert r.mean_z == r2.mean_z
            assert r.lag1_m == r2.lag1_m

    def test_no_replicates_rejected(self):
        with pytest.raises(ValueError, match="replicates must be at least 1"):
            run_toy_experiment(seed=1, n_iter=600, burn_in=100, replicates=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            run_toy_experiment(seed=-1, n_iter=600, burn_in=100, replicates=1)


class TestRunPosteriorExperiment:
    def test_structure(self, posterior_report_small):
        assert posterior_report_small.experiment == "posterior"
        assert set(posterior_report_small.results) == {"mwg", "mcc", "fcc"}
        assert posterior_report_small.mu_z_true == pytest.approx(0.3150406832722366, rel=1e-12)
        n_grid = len(posterior_report_small.density_grid)
        assert posterior_report_small.density_exact.shape == (n_grid,)
        assert posterior_report_small.density_kde.shape == (n_grid,)
        assert np.all(posterior_report_small.density_kde >= 0.0)

    def test_acceptance_rates(self, posterior_report_small):
        assert 0.0 < posterior_report_small.results["mwg"].acceptance_rate < 1.0
        assert 0.0 < posterior_report_small.results["mcc"].acceptance_rate < 1.0
        assert posterior_report_small.results["fcc"].acceptance_rate is None

    def test_short_run_mean_is_sane(self, posterior_report_small):
        # Short chains mix slowly here; just require the right sign and
        # rough magnitude.
        for r in posterior_report_small.results.values():
            assert -1.2 < r.mean_z < 1.2

    def test_robust_to_perturbed_pseudo_variances(self):
        # The toy study keeps working when the pseudo-prior variances are
        # inflated by half; the sampler laws change but invariance holds,
        # so the mean stays near zero on a moderate run.
        bundle = toy_model(pseudo_var_scale=1.5)
        from ccmix import SamplerConfig, run_chain

        config = SamplerConfig(
            sampler_id=SamplerId.FCC,
            n_iterations=30_000,
            burn_in=1000,
            seed=8,
            initial_state=default_initial_state(bundle, 8),
        )
        trace = run_chain(config, bundle)
        assert abs(float(trace.z.mean())) < 0.15
