"""Tests for the exact finite-state kernels and orderings."""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from conftest import CHI2_LEVEL, chi2_statistic, finite_bundle
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from ccmix import SamplerConfig, SamplerId, State, run_chain
from ccmix.oracle import (
    DimensionMismatch,
    FiniteKernel,
    FiniteMixtureSpec,
    NonErgodic,
    NotReversible,
    OrderingViolation,
    TooLarge,
    build_gibbs_index_kernel,
    build_P3,
    build_Q3,
    build_Q4,
    check_covariance_ordering,
    check_gibbs_iid_bound,
    check_offdiagonal_dominance,
    check_reversibility,
    exact_asymptotic_variance_alternating,
    index_function_vector,
    index_lag1_autocorrelation,
    index_marginal,
    lag_covariances,
    load_spec,
    random_spec,
    save_spec,
    spec_from_log_densities,
    sweep_kernel,
    target_distribution,
)


@pytest.fixture(scope="module")
def specs():
    rng = np.random.default_rng(2024)
    return [
        random_spec(rng, n, G) for n, G in ((2, 5), (2, 10), (3, 5), (3, 10), (2, 25))
    ]


class TestSpecValidation:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            FiniteMixtureSpec(
                2, np.arange(3.0), np.full((2, 4), 0.125), np.full((2, 3), 1 / 3)
            )

    def test_prob_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteMixtureSpec(
                2, np.arange(3.0), np.full((2, 3), 0.2), np.full((2, 3), 1 / 3)
            )

    def test_negative_mass_rejected(self):
        prob = np.full((2, 3), 1 / 6)
        pseudo = np.array([[1.4, -0.2, -0.2], [1 / 3, 1 / 3, 1 / 3]])
        with pytest.raises(ValueError):
            FiniteMixtureSpec(2, np.arange(3.0), prob, pseudo)

    def test_proposal_must_be_row_stochastic(self):
        prob = np.full((2, 3), 1 / 6)
        pseudo = np.full((2, 3), 1 / 3)
        proposal = np.full((2, 3, 3), 0.2)
        with pytest.raises(ValueError):
            FiniteMixtureSpec(2, np.arange(3.0), prob, pseudo, proposal)

    def test_state_index_layout(self):
        spec = random_spec(np.random.default_rng(0), 3, 4)
        assert spec.state_index(1, 0) == 0
        assert spec.state_index(2, 0) == 4
        assert spec.state_index(3, 3) == 11
        assert spec.n_states == 12

    def test_kernel_row_sums_checked(self):
        with pytest.raises(ValueError):
            FiniteKernel(np.array([[0.5, 0.4], [0.0, 1.0]]), 2, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["prob", "pseudo", "proposal"])
    def test_nonfinite_entry_rejected(self, field, bad):
        spec = random_spec(np.random.default_rng(5), 2, 3)
        values = getattr(spec, field).copy()
        values.flat[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            replace(spec, **{field: values})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_kernel_rejected(self, bad):
        with pytest.raises(ValueError, match="finite|sum"):
            FiniteKernel(np.full((2, 2), bad), 2, 1)


class TestKernelStructure:
    def test_p3_rows_stochastic_and_reversible(self, specs):
        for spec in specs:
            pi = target_distribution(spec)
            P3 = build_P3(spec)
            np.testing.assert_allclose(P3.matrix.sum(axis=1), 1.0, atol=1e-12)
            assert check_reversibility(P3, pi) <= 1e-12

    def test_q3_block_diagonal_and_reversible(self, specs):
        for spec in specs:
            pi = target_distribution(spec)
            Q3 = build_Q3(spec)
            assert check_reversibility(Q3, pi) <= 1e-14
            G = spec.grid_size
            M = Q3.matrix.copy()
            for m in range(spec.n):
                M[m * G : (m + 1) * G, m * G : (m + 1) * G] = 0.0
            assert np.max(np.abs(M)) == 0.0

    def test_q3_never_moves_the_label(self, specs):
        # Block-diagonality means composing with Q3 leaves the label
        # marginal dynamics of P3 unchanged.
        spec = specs[0]
        P3 = build_P3(spec)
        Q3 = build_Q3(spec)
        G = spec.grid_size
        lift = np.kron(np.eye(spec.n), np.ones((G, 1)))
        np.testing.assert_allclose(
            P3.matrix @ lift, (P3.matrix @ Q3.matrix) @ lift, atol=1e-13
        )

    def test_q4_is_identity(self, specs):
        spec = specs[0]
        np.testing.assert_array_equal(build_Q4(spec).matrix, np.eye(spec.n_states))

    def test_p3_single_component_fixes_the_state(self):
        spec = random_spec(np.random.default_rng(1), 1, 6)
        np.testing.assert_allclose(build_P3(spec).matrix, np.eye(6), atol=1e-14)

    def test_p3_optimal_pseudo_closed_form(self):
        # With rho_j proportional to pi*(j, .) the index draw is i.i.d.
        # from the label marginal.  Moving to another component lands on
        # its exact conditional; staying keeps z, so the row is pi* on
        # the foreign blocks and pi_m(m) * delta_z on the home block.
        rng = np.random.default_rng(2)
        spec0 = random_spec(rng, 3, 6)
        pseudo = spec0.prob / spec0.prob.sum(axis=1, keepdims=True)
        spec = FiniteMixtureSpec(3, spec0.grid, spec0.prob, pseudo)
        P3 = build_P3(spec)
        pi = target_distribution(spec)
        pim = index_marginal(spec)
        G = spec.grid_size
        for m in range(1, 4):
            for g in range(G):
                want = pi.copy()
                want[(m - 1) * G : m * G] = 0.0
                want[spec.state_index(m, g)] = pim[m - 1]
                np.testing.assert_allclose(
                    P3.matrix[spec.state_index(m, g)], want, atol=1e-13
                )

    def test_p3_invariance(self, specs):
        for spec in specs:
            pi = target_distribution(spec)
            for K in (build_P3(spec), build_Q3(spec)):
                assert np.max(np.abs(pi @ K.matrix - pi)) <= 1e-12

    def test_too_large_enumeration(self):
        spec = random_spec(np.random.default_rng(3), 3, 200, with_proposal=False)
        with pytest.raises(TooLarge):
            build_P3(spec)

    def test_gibbs_index_kernel(self, specs):
        for spec in specs:
            G = build_gibbs_index_kernel(spec)
            pim = index_marginal(spec)
            np.testing.assert_allclose(G.matrix.sum(axis=1), 1.0, atol=1e-13)
            assert check_reversibility(G, pim) <= 1e-14

    def test_sweep_kernels_compose_the_sampler_table(self, specs):
        for spec in specs:
            n, G = spec.n, spec.grid_size
            P3, Q3 = build_P3(spec).matrix, build_Q3(spec).matrix
            cond_z = spec.prob / spec.prob.sum(axis=1, keepdims=True)
            cond_m = spec.prob / spec.prob.sum(axis=0)
            # Conditional selection m' ~ pi*(. | z_g), then the refresh of
            # label m' from g; neither depends on the start label.
            gibbs = np.einsum("kg,kh->gkh", cond_m, cond_z).reshape(G, n * G)
            mwg = np.einsum("kg,kgs->gs", cond_m, Q3.reshape(n, G, n * G))
            # The pseudo-prior selection's label, then z' ~ pi*(. | m').
            to_label = P3.reshape(n * G, n, G).sum(axis=2)
            cc = (to_label[:, :, None] * cond_z).reshape(n * G, n * G)
            want = {
                "gibbs": np.tile(gibbs, (n, 1)),
                "mwg": np.tile(mwg, (n, 1)),
                "cc": cc,
                "mcc": P3 @ Q3,
                "fcc": P3,
            }
            for sampler_id, K in want.items():
                got = sweep_kernel(sampler_id, spec).matrix
                np.testing.assert_allclose(got, K, rtol=1e-12, atol=1e-16)

    def test_gibbs_kernel_well_separated_strata(self):
        # Almost-disjoint components: the label chain barely moves.
        grid = np.linspace(-2, 2, 81)
        spec = spec_from_log_densities(
            2,
            grid,
            lambda m, z: -((z - (2 * m - 3)) ** 2) / (2 * 0.04),
            lambda j, u: -u * u / 2,
        )
        G = build_gibbs_index_kernel(spec)
        assert G.matrix[0, 0] > 0.999 and G.matrix[1, 1] > 0.999


def _reference_P3(spec):
    """The selection sweep by brute force, as a raw matrix.

    For each start state every assignment of grid points to the
    refreshed components is enumerated (G^(n-1) of them); assignments
    whose index weights all vanish contribute nothing, which leaves
    such a row short of 1.
    """
    n, G = spec.n, spec.grid_size
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            spec.pseudo > 0,
            spec.prob / np.where(spec.pseudo > 0, spec.pseudo, 1.0),
            0.0,
        )
    P = np.zeros((n * G, n * G))
    for m in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != m]
        combos = np.array(list(product(range(G), repeat=len(others))), dtype=int)
        w_prior = np.ones(len(combos))
        ratio_others = np.empty((len(combos), len(others)))
        for c, j in enumerate(others):
            w_prior *= spec.pseudo[j - 1, combos[:, c]]
            ratio_others[:, c] = ratio[j - 1, combos[:, c]]
        sum_others = ratio_others.sum(axis=1)
        for g in range(G):
            row = spec.state_index(m, g)
            r_m = ratio[m - 1, g]
            total = sum_others + r_m
            ok = total > 0
            P[row, row] += np.sum(w_prior[ok] * r_m / total[ok])
            for c, j in enumerate(others):
                contrib = np.zeros(len(combos))
                contrib[ok] = w_prior[ok] * ratio_others[ok, c] / total[ok]
                np.add.at(P[row, (j - 1) * G : j * G], combos[:, c], contrib)
    return P


def _reference_Q3(spec):
    """The MH refresh entry by entry, as a raw matrix."""
    n, G = spec.n, spec.grid_size
    cond = spec.prob / spec.prob.sum(axis=1, keepdims=True)
    Q = np.zeros((n * G, n * G))
    for m in range(1, n + 1):
        R = spec.proposal[m - 1]
        pm = cond[m - 1]
        K = np.zeros((G, G))
        for g in range(G):
            if pm[g] == 0.0:
                K[g, g] = 1.0
                continue
            for g2 in range(G):
                if g2 == g or R[g, g2] == 0.0:
                    continue
                if pm[g2] == 0.0 or R[g2, g] == 0.0:
                    alpha = 0.0
                else:
                    alpha = min(1.0, pm[g2] * R[g2, g] / (pm[g] * R[g, g2]))
                K[g, g2] = R[g, g2] * alpha
            K[g, g] = 1.0 - K[g].sum()
        Q[(m - 1) * G : m * G, (m - 1) * G : m * G] = K
    return Q


def _reference_gibbs_index_kernel(spec):
    """The Gibbs label chain sum_z pi*(z | m) pi*(m' | z) by its own
    formula; a grid point with no mass under any label adds nothing."""
    cond_z = spec.prob / spec.prob.sum(axis=1, keepdims=True)
    col_sums = spec.prob.sum(axis=0, keepdims=True)
    cond_m = spec.prob / np.where(col_sums == 0, 1.0, col_sums)
    return cond_z @ cond_m.T


def _masses(shape):
    """Nonnegative arrays with many exact zeros."""
    return arrays(
        np.float64, shape, elements=st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    )


@st.composite
def sparse_specs(draw):
    """Specs with zero-mass target cells, pseudo-priors vanishing on some
    of them, zero proposal entries and hence pi*-null kernel rows.

    Every label keeps some mass, so that build_Q3 applies too.
    """
    n = draw(st.integers(1, 5))
    G = draw(st.integers(2, 6 if n <= 3 else 4))
    prob = draw(_masses((n, G)))
    prob[prob.sum(axis=1) == 0, 0] = 1.0
    pseudo = draw(_masses((n, G)))
    pseudo[(prob > 0) & (pseudo == 0)] = 1.0
    proposal = draw(_masses((n, G, G)))
    stuck = proposal.sum(axis=2) == 0
    proposal[..., np.arange(G), np.arange(G)] += stuck
    return FiniteMixtureSpec(
        n,
        np.arange(float(G)),
        prob / prob.sum(),
        pseudo / pseudo.sum(axis=1, keepdims=True),
        proposal / proposal.sum(axis=2, keepdims=True),
    )


_PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestReferenceBuilders:
    """The builders against brute-force references on sparse specs."""

    @_PROPERTY
    @given(sparse_specs())
    def test_p3_matches_enumeration(self, spec):
        want = _reference_P3(spec)
        # Mass that no assignment moves stays put.
        want[np.diag_indices(spec.n_states)] += 1.0 - want.sum(axis=1)
        got = build_P3(spec).matrix
        assert np.max(np.abs(got - want)) <= 1e-14

    @_PROPERTY
    @given(sparse_specs())
    def test_q3_matches_double_loop(self, spec):
        np.testing.assert_array_equal(build_Q3(spec).matrix, _reference_Q3(spec))

    @_PROPERTY
    @given(sparse_specs())
    def test_sweep_kernels_stochastic_and_invariant(self, spec):
        pi = target_distribution(spec)
        for sampler_id in SamplerId:
            K = sweep_kernel(sampler_id, spec).matrix
            assert np.max(np.abs(K.sum(axis=1) - 1.0)) <= 1e-12
            assert np.max(np.abs(pi @ K - pi)) <= 1e-12

    @_PROPERTY
    @given(sparse_specs())
    def test_gibbs_index_kernel_matches_formula(self, spec):
        got = build_gibbs_index_kernel(spec).matrix
        assert np.max(np.abs(got - _reference_gibbs_index_kernel(spec))) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_p3_matches_enumeration_on_random_specs(self, n):
        rng = np.random.default_rng(40 + n)
        for G in (3, 5):
            spec = random_spec(rng, n, G)
            got = build_P3(spec).matrix
            assert np.max(np.abs(got - _reference_P3(spec))) <= 1e-14
            np.testing.assert_array_equal(build_Q3(spec).matrix, _reference_Q3(spec))

    def test_p3_null_row_keeps_the_rest_on_the_diagonal(self):
        # From (1, 0), where pi* vanishes, the refreshed u_2 lands on the
        # null point 0 half the time; then every index weight is zero
        # and no move is drawn.  The enumeration leaves that half out of
        # the row; build_P3 keeps it on the diagonal.
        spec = FiniteMixtureSpec(
            2,
            np.arange(2.0),
            np.array([[0.0, 0.5], [0.0, 0.5]]),
            np.full((2, 2), 0.5),
        )
        ref = _reference_P3(spec)
        np.testing.assert_allclose(ref[0], [0.0, 0.0, 0.0, 0.5], atol=1e-15)
        with pytest.raises(ValueError, match="rows must sum to 1"):
            FiniteKernel(ref, 2, 2)
        P3 = build_P3(spec)
        np.testing.assert_allclose(P3.matrix[0], [0.5, 0.0, 0.0, 0.5], atol=1e-15)
        assert check_reversibility(P3, target_distribution(spec)) == 0.0


class TestChecks:
    def test_reversibility_detects_cycle(self):
        # A deterministic 3-cycle is stationary for the uniform law but
        # maximally non-reversible.
        K = FiniteKernel(np.roll(np.eye(3), 1, axis=1), 3, 1)
        pi = np.full(3, 1 / 3)
        assert check_reversibility(K, pi) == pytest.approx(1 / 3)

    def test_offdiagonal_dominance(self, specs):
        for spec in specs:
            assert check_offdiagonal_dominance(build_Q3(spec), build_Q4(spec))

    def test_offdiagonal_dominance_false_case(self):
        lazy = FiniteKernel(np.array([[0.9, 0.1], [0.1, 0.9]]), 2, 1)
        busy = FiniteKernel(np.array([[0.5, 0.5], [0.5, 0.5]]), 2, 1)
        assert check_offdiagonal_dominance(busy, lazy)
        assert not check_offdiagonal_dominance(lazy, busy)

    def test_covariance_ordering_equal_kernels_is_zero(self, specs):
        spec = specs[0]
        pi = target_distribution(spec)
        Q3 = build_Q3(spec)
        assert check_covariance_ordering(Q3, Q3, pi) == pytest.approx(0.0, abs=1e-15)

    def test_covariance_ordering_q3_dominates_identity(self, specs):
        for spec in specs:
            pi = target_distribution(spec)
            lam = check_covariance_ordering(build_Q3(spec), build_Q4(spec), pi)
            assert lam >= -1e-10

    def test_covariance_ordering_requires_reversibility(self):
        K = FiniteKernel(np.roll(np.eye(3), 1, axis=1), 3, 1)
        eye = FiniteKernel(np.eye(3), 3, 1)
        with pytest.raises(NotReversible):
            check_covariance_ordering(K, eye, np.full(3, 1 / 3))


class TestAsymptoticVariance:
    def test_two_state_closed_form(self):
        # Flip probabilities a, b; h = indicator of state 2:
        # sigma^2 = pi1 * pi2 * (2 - a - b) / (a + b).
        a, b = 0.2, 0.45
        K = FiniteKernel(np.array([[1 - a, a], [b, 1 - b]]), 2, 1)
        pi = np.array([b, a]) / (a + b)
        f = np.array([0.0, 1.0])
        got = exact_asymptotic_variance_alternating(K, K, pi, f)
        want = pi[0] * pi[1] * (2 - a - b) / (a + b)
        assert got == pytest.approx(want, abs=1e-10)

    def test_independence_kernel_gives_iid_variance(self):
        # Rows all equal to pi: zero correlation at every positive lag.
        rng = np.random.default_rng(4)
        pi = rng.dirichlet(np.ones(6))
        K = FiniteKernel(np.tile(pi, (6, 1)), 6, 1)
        f = rng.standard_normal(6)
        var = float(pi @ (f - pi @ f) ** 2)
        got = exact_asymptotic_variance_alternating(K, K, pi, f)
        assert got == pytest.approx(var, abs=1e-10)

    def test_constant_function_gives_zero(self, specs):
        spec = specs[0]
        pi = target_distribution(spec)
        P3 = build_P3(spec)
        assert exact_asymptotic_variance_alternating(
            P3, P3, pi, np.ones(spec.n_states)
        ) == 0.0

    def test_batched_matches_scalar(self, specs):
        spec = specs[2]
        pi = target_distribution(spec)
        P3, Q3 = build_P3(spec), build_Q3(spec)
        F = np.random.default_rng(5).standard_normal((6, spec.n_states))
        batch = exact_asymptotic_variance_alternating(P3, Q3, pi, F)
        singles = [
            exact_asymptotic_variance_alternating(P3, Q3, pi, f) for f in F
        ]
        np.testing.assert_allclose(batch, singles, atol=1e-9)

    def test_mcc_never_beats_fcc(self, specs):
        rng = np.random.default_rng(6)
        for spec in specs:
            pi = target_distribution(spec)
            P3, Q3, Q4 = build_P3(spec), build_Q3(spec), build_Q4(spec)
            F = rng.standard_normal((20, spec.n_states))
            s_mcc = exact_asymptotic_variance_alternating(P3, Q3, pi, F)
            s_fcc = exact_asymptotic_variance_alternating(P3, Q4, pi, F)
            assert np.max(s_mcc - s_fcc) <= 1e-10

    def test_periodic_kernel_raises(self):
        swap = FiniteKernel(np.array([[0.0, 1.0], [1.0, 0.0]]), 2, 1)
        pi = np.array([0.5, 0.5])
        with pytest.raises(NonErgodic):
            exact_asymptotic_variance_alternating(
                swap, swap, pi, np.array([0.0, 1.0])
            )

    def test_reducible_kernel_raises(self):
        eye = FiniteKernel(np.eye(2), 2, 1)
        with pytest.raises(NonErgodic):
            exact_asymptotic_variance_alternating(
                eye, eye, np.array([0.5, 0.5]), np.array([0.0, 1.0])
            )

    def test_zero_mass_absorbing_state_is_ignored(self):
        # State 0 carries no pi-mass and is never entered from the
        # support, so its self-loop must not count as a second
        # invariant class; on the support the chain is i.i.d.
        K = FiniteKernel(
            np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]), 3, 1
        )
        pi = np.array([0.0, 0.5, 0.5])
        got = exact_asymptotic_variance_alternating(K, K, pi, np.array([5.0, 0.0, 1.0]))
        assert got == pytest.approx(0.25, abs=1e-12)

    @staticmethod
    def _lag_sum(A, B, pi, f):
        # Reference: the alternating lag covariances summed term by term,
        # sum_k l (AB)^k A (I + B) fbar + l (BA)^k B (I + A) fbar.
        fbar = f - pi @ f
        total = float(pi @ fbar**2)
        for X, Y in ((A, B), (B, A)):
            left = pi * fbar
            right = X @ (fbar + Y @ fbar)
            while True:
                term = float(left @ right)
                total += term
                if abs(term) < 1e-16:
                    break
                left = left @ X @ Y
        return total

    @pytest.mark.parametrize("refresh", [build_Q3, build_Q4])
    def test_closed_form_matches_lag_sum(self, refresh, specs):
        rng = np.random.default_rng(10)
        for spec in specs[:3]:
            pi = target_distribution(spec)
            P3, Q = build_P3(spec), refresh(spec)
            F = rng.standard_normal((4, spec.n_states))
            got = exact_asymptotic_variance_alternating(P3, Q, pi, F)
            want = [self._lag_sum(P3.matrix, Q.matrix, pi, f) for f in F]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_dimension_mismatch(self, specs):
        spec = specs[0]
        P3 = build_P3(spec)
        with pytest.raises(DimensionMismatch):
            exact_asymptotic_variance_alternating(
                P3, P3, target_distribution(spec), np.ones(3)
            )


class TestGibbsBound:
    def test_bound_holds_on_random_specs(self, specs):
        for spec in specs:
            s2, viid = check_gibbs_iid_bound(spec, lambda m: float(m == 1))
            assert s2 >= viid - 1e-10

    def test_single_component_degenerate(self):
        spec = random_spec(np.random.default_rng(7), 1, 5)
        s2, viid = check_gibbs_iid_bound(spec, lambda m: float(m == 1))
        assert s2 == 0.0 and viid == 0.0

    def test_equality_for_independence_label_chain(self):
        # Pseudo structure is irrelevant here: a product target makes
        # the Gibbs label chain i.i.d., so the bound is tight.
        G = 4
        pim = np.array([0.3, 0.7])
        within = np.random.default_rng(8).dirichlet(np.ones(G))
        prob = np.outer(pim, within)
        spec = FiniteMixtureSpec(2, np.arange(float(G)), prob, np.full((2, G), 1 / G))
        s2, viid = check_gibbs_iid_bound(spec, lambda m: float(m == 2))
        assert s2 == pytest.approx(viid, abs=1e-10)
        assert viid == pytest.approx(0.21, abs=1e-12)

    def test_violation_raised_for_rigged_variance(self, monkeypatch):
        import ccmix.oracle as oracle_mod

        spec = random_spec(np.random.default_rng(9), 2, 5)
        monkeypatch.setattr(
            oracle_mod,
            "exact_asymptotic_variance_alternating",
            lambda *a, **k: 0.0,
        )
        with pytest.raises(OrderingViolation):
            oracle_mod.check_gibbs_iid_bound(spec, lambda m: float(m == 1))

    def test_lag_covariances_nonnegative_for_gibbs(self, specs):
        # Reversible plus positive semidefinite sweep: every lag
        # covariance of a label function is nonnegative.
        for spec in specs:
            G = build_gibbs_index_kernel(spec)
            pim = index_marginal(spec)
            h = np.arange(1, spec.n + 1, dtype=float)
            cov = lag_covariances(G, pim, h, 200)
            assert np.min(cov) >= -1e-12

    def test_index_lag1_autocorrelation_toy_value(self):
        from ccmix.experiments import toy_model

        bundle = toy_model()
        grid = np.linspace(-4.0, 4.0, 2001)
        spec = spec_from_log_densities(
            2, grid, bundle.target.log_density, bundle.pseudo.log_density
        )
        rho = index_lag1_autocorrelation(spec)
        # Well-separated strata: the label chain is extremely sticky.
        assert rho == pytest.approx(0.9615, abs=0.0005)


class TestHelpers:
    def test_index_function_vector(self, specs):
        spec = specs[0]
        v = index_function_vector(spec, lambda m: 10.0 * m)
        assert v.shape == (spec.n_states,)
        assert v[0] == 10.0 and v[-1] == 10.0 * spec.n

    def test_index_marginal_sums_to_one(self, specs):
        for spec in specs:
            assert index_marginal(spec).sum() == pytest.approx(1.0, abs=1e-12)

    def test_save_load_round_trip(self, tmp_path, specs):
        for i, spec in enumerate(specs[:2]):
            path = tmp_path / f"spec{i}.tsv"
            save_spec(spec, path)
            back = load_spec(path)
            np.testing.assert_array_equal(back.grid, spec.grid)
            np.testing.assert_array_equal(back.prob, spec.prob)
            np.testing.assert_array_equal(back.pseudo, spec.pseudo)
            np.testing.assert_array_equal(back.proposal, spec.proposal)

    def test_save_load_without_proposal(self, tmp_path):
        spec = random_spec(np.random.default_rng(10), 2, 4, with_proposal=False)
        path = tmp_path / "spec.tsv"
        save_spec(spec, path)
        assert load_spec(path).proposal is None

    def test_load_rejects_missing_section(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#grid\n0.0\t1.0\n")
        with pytest.raises(ValueError):
            load_spec(path)

    def test_spec_from_log_densities_normalizes(self):
        grid = np.linspace(-3, 3, 61)
        spec = spec_from_log_densities(
            2,
            grid,
            lambda m, z: -((z - (2 * m - 3)) ** 2),
            lambda j, u: -u * u,
            lambda l, u, z: -((z - u) ** 2),
        )
        assert spec.prob.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(spec.pseudo.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(spec.proposal.sum(axis=2), 1.0, atol=1e-12)

    def test_spec_from_log_densities_matches_pointwise_masses(self):
        # The masses the grid points give one at a time, normalized.
        from ccmix.experiments import toy_model

        bundle = toy_model()
        grid = np.linspace(-4.0, 4.0, 401)
        spec = spec_from_log_densities(
            2, grid, bundle.target.log_density, bundle.pseudo.log_density
        )
        labels = (1, 2)
        target, rho = bundle.target.log_density, bundle.pseudo.log_density
        prob = np.array([[np.exp(target(m, z)) for z in grid] for m in labels])
        pseudo = np.array([[np.exp(rho(j, u)) for u in grid] for j in labels])
        np.testing.assert_allclose(spec.prob, prob / prob.sum(), rtol=1e-14)
        np.testing.assert_allclose(
            spec.pseudo, pseudo / pseudo.sum(axis=1, keepdims=True), rtol=1e-14
        )

    def test_spec_from_log_densities_takes_block_callbacks(self):
        grid = np.linspace(-1.0, 1.0, 5)
        spec = spec_from_log_densities(
            2, grid, lambda m, z: np.full(len(z), -1.0), lambda j, u: np.zeros(len(u))
        )
        np.testing.assert_allclose(spec.prob, 0.1, rtol=1e-15)
        np.testing.assert_allclose(spec.pseudo, 0.2, rtol=1e-15)

    def test_spec_from_log_densities_far_below_underflow(self):
        # exp(-800) is 0.0 in double precision; the shape is not lost.
        grid = np.linspace(-3.0, 3.0, 61)
        spec = spec_from_log_densities(
            2, grid, lambda m, z: -800.0 - z * z, lambda j, u: -u * u
        )
        want = spec_from_log_densities(
            2, grid, lambda m, z: -z * z, lambda j, u: -u * u
        )
        assert np.all(np.isfinite(spec.prob))
        np.testing.assert_allclose(spec.prob, want.prob, rtol=1e-13)

    def test_spec_from_log_densities_without_mass_raises(self):
        grid = np.linspace(-1.0, 1.0, 5)
        nowhere = lambda m, z: np.full(len(z), -np.inf)  # noqa: E731
        with pytest.raises(ValueError, match="the target has no mass"):
            spec_from_log_densities(2, grid, nowhere, lambda j, u: -u * u)
        with pytest.raises(ValueError, match="pseudo-prior 2 has no mass"):
            spec_from_log_densities(
                2,
                grid,
                lambda m, z: -z * z,
                lambda j, u: -u * u if j == 1 else nowhere(j, u),
            )


class TestMonteCarloBridge:
    """The transition counts of a long chain must match the exact sweep
    kernel on every visited row: Pearson's statistics of the rows,
    summed, against chi-square with the summed degrees of freedom
    (Billingsley 1961), at level 0.999."""

    SWEEPS = 200_000

    @pytest.mark.parametrize("seed, n", [(11, 2), (14, 3)])
    @pytest.mark.parametrize("sampler_id", [s.value for s in SamplerId])
    def test_chain_matches_sweep_kernel(self, sampler_id, seed, n):
        spec = random_spec(np.random.default_rng(seed), n, 5)
        K = sweep_kernel(sampler_id, spec).matrix
        start = State(1, float(spec.grid[0]))
        config = SamplerConfig(SamplerId(sampler_id), self.SWEEPS, start, 0, seed)
        trace = run_chain(config, finite_bundle(spec))
        states = (trace.m - 1) * spec.grid_size + spec.grid.searchsorted(trace.z)
        N = spec.n_states
        pairs = states[:-1] * N + states[1:]
        counts = np.bincount(pairs, minlength=N * N).reshape(N, N)
        assert not counts[K == 0].any(), "a transition the kernel forbids"
        rows = [chi2_statistic(c, k) for c, k in zip(counts, K) if c.any()]
        stat, df = np.sum(rows, axis=0)
        assert stats.chi2.sf(stat, df) > CHI2_LEVEL
