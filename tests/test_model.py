"""Unit tests for the probability primitives."""

import math

import numpy as np
import pytest
from scipy import stats

from conftest import optimal_toy_bundle

from ccmix import (
    AllZeroMass,
    ConfigError,
    InvalidCurrentState,
    MixtureTarget,
    ProposalFamily,
    PseudoPriorSet,
    PseudoPriorZero,
    State,
    cc_index_weights,
    conditional_index_weights,
    draw_index,
    mh_log_acceptance,
)
from ccmix.experiments import (
    TOY_MEANS,
    TOY_PSEUDO_MEANS,
    TOY_PSEUDO_VARS,
    TOY_VAR,
    toy_model,
)


def _scipy_toy_logpdf(m, z):
    return math.log(0.5) + stats.norm.logpdf(z, TOY_MEANS[m - 1], math.sqrt(TOY_VAR))


def _scipy_pseudo_logpdf(j, u):
    return stats.norm.logpdf(
        u, TOY_PSEUDO_MEANS[j - 1], math.sqrt(TOY_PSEUDO_VARS[j - 1])
    )


class TestState:
    def test_valid(self):
        s = State(2, 0.5)
        assert s.m == 2 and s.z == 0.5

    def test_label_below_one_rejected(self):
        with pytest.raises(ValueError):
            State(0, 0.0)

    def test_nonfinite_z_rejected(self):
        with pytest.raises(ValueError):
            State(1, float("nan"))
        with pytest.raises(ValueError):
            State(1, np.array([0.0, np.inf]))

    def test_vector_z_allowed(self):
        s = State(1, np.array([0.0, 1.0]))
        assert s.z.shape == (2,)


class TestModelParts:
    @pytest.mark.parametrize(
        "build, message",
        [(lambda: MixtureTarget(0, 1, _scipy_toy_logpdf), "component count"),
         (lambda: MixtureTarget(2, 0, _scipy_toy_logpdf), "z_dim"),
         (lambda: PseudoPriorSet(0, _scipy_pseudo_logpdf, None), "component count"),
         (lambda: ProposalFamily(0, None, None), "component count")],
        ids=["target-n", "target-z_dim", "pseudo-n", "proposal-n"],
    )
    def test_sizes_below_one_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message} must be positive$"):
            build()


class TestConditionalIndexWeights:
    def test_symmetric_point(self, toy_bundle):
        w = conditional_index_weights(toy_bundle.target, 0.0)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_mode_point_matches_logistic_form(self, toy_bundle):
        # At z = 1 the log-odds are (z-(-1))^2/(2*0.2) - (z-1)^2/(2*0.2) = 10.
        w = conditional_index_weights(toy_bundle.target, 1.0)
        expected2 = 1.0 / (1.0 + math.exp(-10.0))
        np.testing.assert_allclose(w, [1.0 - expected2, expected2], rtol=1e-12)
        assert w[0] == pytest.approx(4.5397868702434395e-05, rel=1e-10)

    def test_matches_direct_scipy_ratio(self, toy_bundle):
        for z in (-2.3, -0.7, 0.1, 1.9):
            w = conditional_index_weights(toy_bundle.target, z)
            raw = np.exp([_scipy_toy_logpdf(1, z), _scipy_toy_logpdf(2, z)])
            np.testing.assert_allclose(w, raw / raw.sum(), rtol=1e-12)

    def test_sums_to_one_and_in_range(self, toy_bundle):
        rng = np.random.default_rng(0)
        for z in rng.normal(size=50) * 3:
            w = conditional_index_weights(toy_bundle.target, z)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0) and np.all(w <= 1)

    def test_single_component(self):
        target = MixtureTarget(n=1, z_dim=1, log_density=lambda m, z: -z * z)
        np.testing.assert_array_equal(
            conditional_index_weights(target, 0.3), [1.0]
        )

    def test_all_zero_mass_raises(self):
        target = MixtureTarget(
            n=2, z_dim=1, log_density=lambda m, z: np.full(len(z), -np.inf)
        )
        with pytest.raises(AllZeroMass):
            conditional_index_weights(target, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_weight_raises(self, bad):
        # A NaN after -inf entries too, where max(logw) is -inf.
        def log_density(m, z):
            return np.full(len(z), -np.inf if m < 3 else bad)

        target = MixtureTarget(n=3, z_dim=1, log_density=log_density)
        with pytest.raises(ConfigError, match="index weights are NaN"):
            conditional_index_weights(target, 0.0)

    def test_extreme_point_no_underflow(self, toy_bundle):
        # Both components underflow in linear space; the log-space path
        # must still return a valid distribution.
        w = conditional_index_weights(toy_bundle.target, 60.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert w[1] == pytest.approx(1.0)


class TestCcIndexWeights:
    def test_matches_direct_scipy_ratio(self, toy_bundle):
        u = (-0.5, 0.5)
        w = cc_index_weights(toy_bundle.target, toy_bundle.pseudo, u)
        raw = np.array(
            [
                math.exp(_scipy_toy_logpdf(m, u[m - 1]) - _scipy_pseudo_logpdf(m, u[m - 1]))
                for m in (1, 2)
            ]
        )
        np.testing.assert_allclose(w, raw / raw.sum(), rtol=1e-12)
        assert w[0] == pytest.approx(0.43649167, abs=1e-7)

    def test_scale_invariance(self):
        # Adding a constant to the unnormalized log-target leaves the
        # weights unchanged.
        base = toy_model()
        for shift in (-100.0, 300.0):
            shifted = MixtureTarget(
                n=2,
                z_dim=1,
                log_density=lambda m, z, s=shift: base.target.log_density(m, z) + s,
            )
            u = (0.2, -1.1)
            w0 = cc_index_weights(base.target, base.pseudo, u)
            w1 = cc_index_weights(shifted, base.pseudo, u)
            np.testing.assert_allclose(w0, w1, rtol=1e-13)

    def test_optimal_pseudo_gives_half_half(self):
        bundle = optimal_toy_bundle()
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.normal(size=2) * 2
            w = cc_index_weights(bundle.target, bundle.pseudo, tuple(u))
            np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-13)

    def test_wrong_length_rejected(self, toy_bundle):
        with pytest.raises(ValueError):
            cc_index_weights(toy_bundle.target, toy_bundle.pseudo, (0.0,))

    def test_pseudo_zero_target_positive_raises(self, toy_bundle):
        pseudo = PseudoPriorSet(
            n=2,
            log_density=lambda j, u: np.full(len(u), -np.inf),
            sampler=lambda j, rng, size: np.zeros(size),
        )
        with pytest.raises(PseudoPriorZero):
            cc_index_weights(toy_bundle.target, pseudo, (0.0, 0.0))

    def test_inf_pseudo_density_raises_naming_it(self, toy_bundle):
        # log pi* - (+inf) would read as a zero weight.
        pseudo = PseudoPriorSet(
            n=2,
            log_density=lambda j, u: np.where(u > 1.0, np.inf, -0.5 * u * u),
            sampler=lambda j, rng, size: np.zeros(size),
        )
        with pytest.raises(ConfigError, match=r"^pseudo\.log_density of label 2"):
            cc_index_weights(toy_bundle.target, pseudo, (0.0, 2.0))

    def test_both_zero_warns_and_gets_zero_weight(self):
        target = MixtureTarget(
            n=2,
            z_dim=1,
            log_density=lambda m, z: (
                np.full(len(z), -np.inf) if m == 1 else -0.5 * z * z
            ),
        )
        pseudo = PseudoPriorSet(
            n=2,
            log_density=lambda j, u: (
                np.full(len(u), -np.inf) if j == 1 else -0.5 * u * u
            ),
            sampler=lambda j, rng, size: np.zeros(size),
        )
        with pytest.warns(RuntimeWarning):
            w = cc_index_weights(target, pseudo, (0.0, 0.0))
        np.testing.assert_array_equal(w, [0.0, 1.0])


class TestMhLogAcceptance:
    def test_stay_put_is_near_certain(self, toy_bundle):
        # Identical current and proposed points: the ratio is 1 up to
        # the rounding of the log-density sums.
        got = mh_log_acceptance(toy_bundle.target, toy_bundle.proposal, 1, 0.3, 0.3)
        assert -1e-12 <= got <= 0.0

    def test_independence_proposal_value(self, toy_bundle):
        # Independence proposal: log alpha = (lt_z - lr_z) - (lt_u - lr_u).
        ell, u, z = 2, 0.5, 0.0
        got = mh_log_acceptance(toy_bundle.target, toy_bundle.proposal, ell, u, z)
        expected = min(
            0.0,
            (_scipy_toy_logpdf(ell, z) - _scipy_pseudo_logpdf(ell, z))
            - (_scipy_toy_logpdf(ell, u) - _scipy_pseudo_logpdf(ell, u)),
        )
        assert got == pytest.approx(expected, rel=1e-12)
        assert math.exp(got) == pytest.approx(0.25283959580474646, rel=1e-12)

    def test_uphill_symmetric_proposal_accepted(self):
        target = MixtureTarget(n=1, z_dim=1, log_density=lambda m, z: -0.5 * z * z)
        proposal = ProposalFamily(
            n=1,
            log_density=lambda l, u, z: -0.5 * (z - u) ** 2,
            sampler=lambda l, u, rng: u + rng.standard_normal(),
        )
        assert mh_log_acceptance(target, proposal, 1, 2.0, 0.5) == 0.0

    def test_zero_mass_proposal_returns_neg_inf(self, toy_bundle):
        target = MixtureTarget(
            n=2,
            z_dim=1,
            log_density=lambda m, z: np.where(
                z > 1.0, -np.inf, toy_bundle.target.log_density(m, z)
            ),
        )
        got = mh_log_acceptance(target, toy_bundle.proposal, 1, 0.0, 2.0)
        assert got == float("-inf")

    def test_nan_log_ratio_raises(self, toy_bundle):
        target = MixtureTarget(
            n=2, z_dim=1, log_density=lambda m, z: np.where(z > 1.0, np.nan, -z * z)
        )
        with pytest.raises(ConfigError, match="MH log-ratio is NaN"):
            mh_log_acceptance(target, toy_bundle.proposal, 1, 0.0, 2.0)

    @pytest.mark.parametrize("z", [2.0, 0.5], ids=["proposed", "current"])
    def test_inf_proposal_density_raises_naming_it(self, toy_bundle, z):
        # +inf at the proposed point, or, for the reverse move, at the
        # current one: a rejection or a certain acceptance read silently.
        proposal = ProposalFamily(
            n=2,
            log_density=lambda l, u, z: np.inf if z > 1.0 or u > 1.0 else 0.0,
            sampler=lambda l, u, rng: u,
        )
        u = 2.0 if z == 0.5 else 0.0
        message = r"^proposal\.log_density of label 1 is \+inf$"
        with pytest.raises(ConfigError, match=message):
            mh_log_acceptance(toy_bundle.target, proposal, 1, u, z)

    def test_zero_mass_current_raises(self, toy_bundle):
        target = MixtureTarget(
            n=2, z_dim=1, log_density=lambda m, z: np.full(np.shape(z), -np.inf)
        )
        with pytest.raises(InvalidCurrentState):
            mh_log_acceptance(target, toy_bundle.proposal, 1, 0.0, 0.5)


class TestIndependentProposal:
    def test_sampler_calls_rho_with_size(self):
        # PseudoPriorSet's sampler takes a required size: one draw gives
        # a float for scalar z and a vector for vector z.
        scalar = PseudoPriorSet(
            n=2,
            log_density=lambda j, u: -0.5 * (u - j) ** 2,
            sampler=lambda j, rng, size: rng.normal(j, 1.0, size),
        )
        z = ProposalFamily.independent(scalar).sampler(2, 0.3, np.random.default_rng(4))
        assert np.shape(z) == () and z == np.random.default_rng(4).normal(2, 1.0, 1)[0]
        vector = PseudoPriorSet(
            n=1,
            log_density=lambda j, u: -0.5 * np.sum(u * u, axis=1),
            sampler=lambda j, rng, size: rng.standard_normal((size, 3)),
        )
        z = ProposalFamily.independent(vector).sampler(1, np.zeros(3), np.random.default_rng(4))
        want = np.random.default_rng(4).standard_normal((1, 3))[0]
        np.testing.assert_array_equal(z, want)


class TestDrawIndex:
    def test_deterministic_given_stream(self):
        w = [0.2, 0.3, 0.5]
        a = [draw_index(w, np.random.default_rng(11)) for _ in range(5)]
        b = [draw_index(w, np.random.default_rng(11)) for _ in range(5)]
        assert a == b
        assert all(1 <= i <= 3 for i in a)

    def test_distribution(self):
        from conftest import chi2_pvalue

        w = np.array([0.1, 0.6, 0.3])
        rng = np.random.default_rng(3)
        draws = np.array([draw_index(w, rng) for _ in range(20000)])
        counts = np.bincount(draws, minlength=4)[1:]
        assert chi2_pvalue(counts, w) > 0.001

    def test_unnormalized_weights_accepted(self):
        rng = np.random.default_rng(1)
        draws = {draw_index([0.0, 7.0, 0.0], rng) for _ in range(10)}
        assert draws == {2}

    def test_degenerate_mass_on_last(self):
        rng = np.random.default_rng(1)
        assert draw_index([0.0, 0.0, 1.0], rng) == 3

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [5e-324]])
    def test_label_at_most_n_where_v_times_the_total_rounds_to_it(self, weights):
        # A zero total, or a subnormal one that v >= 1/2 times rounds back
        # up to: no running sum exceeds v T, and the draw falls to label n.
        rng = np.random.default_rng(2)
        draws = {draw_index(weights, rng) for _ in range(50)}
        assert draws <= set(range(1, len(weights) + 1))

    @pytest.mark.parametrize("weights", [[], np.array([])])
    def test_no_weights_raise(self, weights):
        with pytest.raises(ValueError, match="at least one weight"):
            draw_index(weights, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "weights, fault",
        [
            ([1.0, -1.0], "weight 2 of draw_index is negative"),
            (np.array([-0.0, -1e-300]), "weight 2 of draw_index is negative"),
            ([np.nan, 1.0], "weight 1 of draw_index is not finite"),
            ([1.0, np.inf], "weight 2 of draw_index is not finite"),
            ([-np.inf, 1.0], "weight 1 of draw_index is not finite"),
        ],
    )
    def test_bad_weight_raises_naming_it(self, weights, fault):
        # Negative weights would make the running sums non-monotone, and
        # the bisection would draw from them all the same.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=fault):
            draw_index(weights, rng)
        assert rng.random() == np.random.default_rng(0).random()  # nothing drawn


class TestVectorZ:
    def test_two_dimensional_target(self):
        def log_density(m, z):
            mu = np.array([m - 1.5, 1.5 - m])
            return -0.5 * np.sum((z - mu) ** 2, axis=1)

        target = MixtureTarget(n=2, z_dim=2, log_density=log_density)
        w = conditional_index_weights(target, np.zeros(2))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)
        w = conditional_index_weights(target, np.array([1.0, -1.0]))
        # Log-odds for component 2 are exactly 2 at this point.
        assert w[1] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), rel=1e-12)
