"""Tests for the exact finite-state kernels and orderings."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from conftest import CHI2_LEVEL, chi2_statistic, finite_bundle, independence_bundle
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from ccmix import (
    ConfigError,
    ProposalFamily,
    PseudoPriorSet,
    SamplerConfig,
    SamplerId,
    State,
    run_chain,
)
from ccmix.oracle import (
    CHECKS,
    DimensionMismatch,
    FiniteKernel,
    FiniteMixtureSpec,
    NonErgodic,
    NotReversible,
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
    index_marginal,
    lag_covariances,
    load_spec,
    random_spec,
    save_spec,
    spec_from_log_densities,
    sweep_kernel,
    target_distribution,
    verify,
    _HEAD_MARGIN,
    _STEP,
    _TAIL_MARGIN,
    _TWINS,
)
from ccmix.samplers import _CONDITIONAL, _EXACT, _PSEUDO


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

    @pytest.mark.parametrize(
        "grid", [np.array([0.0, np.nan, 2.0]), np.array([0.0, 1.0, np.inf]),
                 np.arange(3.0)[:, None]],
        ids=["nan", "inf", "column"],
    )
    def test_grid_must_be_finite_and_one_dimensional(self, grid):
        prob, pseudo = np.full((2, 3), 1 / 6), np.full((2, 3), 1 / 3)
        with pytest.raises(ValueError, match="grid"):
            FiniteMixtureSpec(2, grid, prob, pseudo)

    def test_pseudo_rows_must_sum_to_one(self):
        pseudo = np.array([[0.5, 0.3, 0.1], [1 / 3, 1 / 3, 1 / 3]])
        with pytest.raises(ValueError, match="^each pseudo-prior row must sum to 1$"):
            FiniteMixtureSpec(2, np.arange(3.0), np.full((2, 3), 1 / 6), pseudo)

    def test_proposal_shape_checked(self):
        prob, pseudo = np.full((2, 3), 1 / 6), np.full((2, 3), 1 / 3)
        proposal = np.full((2, 3, 2), 0.5)
        message = r"^proposal must have shape \(n, G, G\)$"
        with pytest.raises(DimensionMismatch, match=message):
            FiniteMixtureSpec(2, np.arange(3.0), prob, pseudo, proposal)

    def test_proposal_must_be_row_stochastic(self):
        prob = np.full((2, 3), 1 / 6)
        pseudo = np.full((2, 3), 1 / 3)
        proposal = np.full((2, 3, 3), 0.2)
        with pytest.raises(ValueError):
            FiniteMixtureSpec(2, np.arange(3.0), prob, pseudo, proposal)

    def test_state_index_layout(self):
        spec = random_spec(np.random.default_rng(0), 3, 4)
        assert spec.n_states == 12

    def test_kernel_row_sums_checked(self):
        with pytest.raises(ValueError):
            FiniteKernel(np.array([[0.5, 0.4], [0.0, 1.0]]), 2, 1)

    def test_kernel_size_checked(self):
        message = r"^kernel matrix must be 2x2, got \(3, 3\)$"
        with pytest.raises(DimensionMismatch, match=message):
            FiniteKernel(np.eye(3), 2, 1)

    def test_label_without_mass_has_no_conditional(self):
        prob = np.array([[0.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]])
        pseudo, proposal = np.full((2, 3), 1 / 3), np.full((2, 3, 3), 1 / 3)
        spec = FiniteMixtureSpec(2, np.arange(3.0), prob, pseudo, proposal)
        with pytest.raises(ValueError, match="^a component has zero total mass$"):
            build_Q3(spec)

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

    @pytest.mark.parametrize("n, G", [(2, 5), (3, 10), (4, 6)])
    def test_q3_with_identity_proposals_is_q4(self, n, G):
        # The exact twin of MCC with a stay-put proposal running as FCC.
        spec = random_spec(np.random.default_rng(n * G), n, G)
        stay = replace(spec, proposal=np.tile(np.eye(G), (n, 1, 1)))
        np.testing.assert_array_equal(build_Q3(stay).matrix, build_Q4(stay).matrix)

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
                want[(m - 1) * G + g] = pim[m - 1]
                np.testing.assert_allclose(P3.matrix[(m - 1) * G + g], want, atol=1e-13)

    def test_p3_invariance(self, specs):
        for spec in specs:
            pi = target_distribution(spec)
            for K in (build_P3(spec), build_Q3(spec)):
                assert np.max(np.abs(pi @ K.matrix - pi)) <= 1e-12

    @pytest.mark.parametrize("seed, n, G", [(3, 3, 200), (4, 6, 25)])
    def test_p3_builds_at_large_grids(self, seed, n, G):
        # (3, 3, 200) is past n G^n = 10^7, where enumeration stopped.
        spec = random_spec(np.random.default_rng(seed), n, G)
        P3 = build_P3(spec)
        pi = target_distribution(spec)
        assert isinstance(P3, FiniteKernel)
        assert check_reversibility(P3, pi) <= 1e-12
        assert np.max(np.abs(pi @ P3.matrix - pi)) <= 1e-12

    @pytest.mark.parametrize("a, b", [(1e-320, 1e-300), (0.1, 1e-320)])
    def test_p3_refuses_a_ratio_span_beyond_the_quadrature(self, a, b):
        # Ratios from 1e-320 to 2.5e299, and an infinite one: 0.25 / 1e-320.
        prob = np.array([[0.25, a], [0.25, 0.25 - a]])
        pseudo = np.array([[b, 1 - b], [0.5, 0.5]])
        spec = FiniteMixtureSpec(2, np.arange(2.0), prob / prob.sum(), pseudo)
        with pytest.raises(TooLarge, match="ratios pi\\*/rho span"):
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
            row = (m - 1) * G + g
            r_m = ratio[m - 1, g]
            total = sum_others + r_m
            ok = total > 0
            P[row, row] += np.sum(w_prior[ok] * r_m / total[ok])
            for c, j in enumerate(others):
                contrib = np.zeros(len(combos))
                contrib[ok] = w_prior[ok] * ratio_others[ok, c] / total[ok]
                np.add.at(P[row, (j - 1) * G : j * G], combos[:, c], contrib)
    return P


def _pairwise_P3(spec):
    """build_P3 with one core per label pair in a loop, each pair's weights
    by np.delete and np.prod: the builder before it stacked the pairs of
    each first label, kept as a bit-for-bit reference."""
    n, G = spec.n, spec.grid_size
    ratio = spec.prob / np.where(spec.pseudo > 0, spec.pseudo, np.inf)
    positive = ratio[ratio > 0]
    low, high = np.log(positive.min()), np.log(n) + np.log(positive.max())
    half = (high - low) / 2
    t = np.exp(np.arange(-half - _HEAD_MARGIN, half + _TAIL_MARGIN, _STEP))
    c = np.exp(-(low + high) / 2)
    with np.errstate(over="ignore"):
        E = np.exp(-(c * ratio)[:, :, None] * t)
    phi = np.einsum("jg,jgt->jt", spec.pseudo, E)
    P = np.zeros((n * G, n * G))
    for m, k in combinations(range(n), 2):
        w = _STEP * t * np.prod(np.delete(phi, (m, k), axis=0), axis=0)
        C = (E[m] * w) @ E[k].T
        P[m * G : (m + 1) * G, k * G : (k + 1) * G] = C * (c * spec.prob[k])
        P[k * G : (k + 1) * G, m * G : (m + 1) * G] = C.T * (c * spec.prob[m])
    P[np.diag_indices(n * G)] = 1.0 - P.sum(axis=1)
    return P


def _row_by_row_spec(rng, n, G):
    """random_spec with one Dirichlet call per pseudo-prior and proposal row."""
    prob = rng.dirichlet(np.ones(n * G)).reshape(n, G)
    pseudo = np.stack([rng.dirichlet(np.ones(G)) for _ in range(n)])
    proposal = np.stack(
        [np.stack([rng.dirichlet(np.ones(G)) for _ in range(G)]) for _ in range(n)]
    )
    return prob, pseudo, proposal


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
            # A point that rejects no proposed mass never stays.
            K[g, g] = 1.0 - K[g].sum() if np.any(R[g] > K[g]) else 0.0
        Q[(m - 1) * G : m * G, (m - 1) * G : m * G] = K
    return Q


def _reference_gibbs_index_kernel(spec):
    """The Gibbs label chain sum_z pi*(z | m) pi*(m' | z) by its own
    formula; a grid point with no mass under any label adds nothing."""
    cond_z = spec.prob / spec.prob.sum(axis=1, keepdims=True)
    col_sums = spec.prob.sum(axis=0, keepdims=True)
    cond_m = spec.prob / np.where(col_sums == 0, 1.0, col_sums)
    return cond_z @ cond_m.T


def _reference_label_chain(spec):
    """The Gibbs label chain from the dense (nG)^2 twins: each label's row
    of the exact refresh, then the conditional selection, summed over
    the grid."""
    n, G = spec.n, spec.grid_size
    K = _TWINS[_EXACT](spec).matrix[::G] @ _TWINS[_CONDITIONAL](spec).matrix
    return K.reshape(n, n, G).sum(axis=2)


def _gibbs_sweep_reference(spec, hs, max_lag):
    """sigma^2 and lag covariances of label functions, one per row of
    ``hs``, lifted to the (m, g) states of the Gibbs sweep kernel."""
    pi = target_distribution(spec)
    K = sweep_kernel(SamplerId.GIBBS, spec)
    F = np.repeat(hs, spec.grid_size, axis=1)
    sigma2 = exact_asymptotic_variance_alternating(K, K, pi, F)
    covs = np.array([lag_covariances(K, pi, f, max_lag) for f in F])
    return sigma2, covs


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


def _reference_radius(T, pi):
    """Spectral radius of T off the constants on the support of pi, from
    the eigenvalues of T - 1 pi^T.  By Perron-Frobenius the chain is
    ergodic iff it is below 1; the graph search must raise NonErgodic
    exactly when it is at least 1 - 1e-12."""
    s = pi > 0
    T, pi = T[np.ix_(s, s)], pi[s]
    return float(np.max(np.abs(np.linalg.eigvals(T - np.outer(np.ones(len(pi)), pi)))))


def _raises_nonergodic(P, Q, pi, F):
    try:
        exact_asymptotic_variance_alternating(P, Q, pi, F)
    except NonErgodic:
        return True
    return False


@st.composite
def sparse_chains(draw):
    """Row-stochastic chains on 1 to 8 states with their stationary pi.

    A permutation's cycles under sparse extra entries give structural
    zeros, periodic classes, several closed classes and transient
    states; pi weighs each closed class's own stationary law, some of
    them by zero.
    """
    N = draw(st.integers(1, 8))
    W = draw(_masses((N, N))) * draw(arrays(np.bool_, (N, N)))
    W[np.arange(N), draw(st.permutations(range(N)))] += draw(st.floats(0.01, 1.0))
    T = W / W.sum(axis=1, keepdims=True)
    reach = np.eye(N, dtype=bool) | (T > 0)
    for _ in range(N):
        reach = reach @ reach
    # A state is recurrent iff every state it reaches reaches it back;
    # its closed class is then the set of states it reaches.
    recurrent = np.all(~reach | reach.T, axis=1)
    classes = sorted({tuple(np.flatnonzero(reach[i])) for i in np.flatnonzero(recurrent)})
    weights = draw(st.lists(st.sampled_from([1.0, 0.2, 0.0]), min_size=len(classes),
                            max_size=len(classes)))
    weights[0] = weights[0] or 1.0
    pi = np.zeros(N)
    for w, c in zip(weights, classes):
        c = list(c)
        M = T[np.ix_(c, c)].T - np.eye(len(c))
        M[-1] = 1.0
        pi[c] = w * np.linalg.solve(M, np.eye(len(c))[-1])
    return T, pi / pi.sum()


class TestReferenceBuilders:
    """The builders against brute-force references on sparse specs."""

    @_PROPERTY
    @given(sparse_specs())
    @pytest.mark.filterwarnings("error")
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
        for want in (_reference_gibbs_index_kernel(spec), _reference_label_chain(spec)):
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_label_chain_matches_the_gibbs_sweep_kernel(self, n):
        # A label function of the Gibbs chain on (m, z) follows the label
        # chain alone, so sigma^2 and every lag covariance agree.
        rng = np.random.default_rng(60 + n)
        for G in (3, 5, 10):
            spec = random_spec(rng, n, G)
            hs = np.vstack([np.eye(n), rng.standard_normal((4, n))])
            want_s2, want_cov = _gibbs_sweep_reference(spec, hs, 20)
            L, pim = build_gibbs_index_kernel(spec), index_marginal(spec)
            s2 = exact_asymptotic_variance_alternating(L, L, pim, hs)
            np.testing.assert_allclose(s2, want_s2, rtol=1e-12, atol=1e-15)
            cov = np.array([lag_covariances(L, pim, h, 20) for h in hs])
            np.testing.assert_allclose(cov, want_cov, rtol=0, atol=1e-14)

    def test_q3_without_rejection_keeps_a_bipartite_chain_periodic(self):
        # n = 1, uniform pi* and a symmetric proposal that only moves
        # between even and odd points: every move is accepted and no
        # point can stay, so Q3 (= P3 Q3 here) has period 2.
        G = 6
        matchings = np.zeros((3, G, G))
        for k in range(3):
            for i in range(0, G, 2):
                j = (i + 2 * k + 1) % G
                matchings[k, i, j] = matchings[k, j, i] = 1.0
        rng = np.random.default_rng(0)
        flat = np.full((1, G), 1 / G)
        for _ in range(40):
            # Not renormalized, so the proposal stays exactly symmetric.
            R = np.tensordot(rng.dirichlet(np.ones(3)), matchings, axes=1)
            spec = FiniteMixtureSpec(1, np.arange(float(G)), flat, flat, R[None])
            pi, Q3 = target_distribution(spec), build_Q3(spec)
            assert not np.diag(Q3.matrix).any()
            assert _reference_radius(Q3.matrix, pi) >= 1 - 1e-12
            with pytest.raises(NonErgodic, match="period 2$"):
                exact_asymptotic_variance_alternating(
                    build_P3(spec), Q3, pi, np.arange(float(G))
                )

    @_PROPERTY
    @given(sparse_specs())
    def test_graph_decision_matches_spectrum_on_spec_products(self, spec):
        # The MCC and FCC alternations: products P3 Q3 and P3 Q4 = P3.
        pi = target_distribution(spec)
        P3 = build_P3(spec)
        F = np.arange(float(spec.n_states))
        for Q in (build_Q3(spec), build_Q4(spec)):
            want = _reference_radius(P3.matrix @ Q.matrix, pi) >= 1 - 1e-12
            assert _raises_nonergodic(P3, Q, pi, F) == want

    @settings(_PROPERTY, max_examples=500)
    @given(sparse_chains())
    def test_graph_decision_matches_spectrum(self, chain):
        T, pi = chain
        N = len(pi)
        K, eye = FiniteKernel(T, N, 1), FiniteKernel(np.eye(N), N, 1)
        want = _reference_radius(T, pi) >= 1 - 1e-12
        assert _raises_nonergodic(K, eye, pi, np.arange(float(N))) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.filterwarnings("error")
    def test_p3_matches_enumeration_on_random_specs(self, n):
        rng = np.random.default_rng(40 + n)
        for G in (3, 5):
            spec = random_spec(rng, n, G)
            got = build_P3(spec).matrix
            assert np.max(np.abs(got - _reference_P3(spec))) <= 1e-14
            np.testing.assert_array_equal(build_Q3(spec).matrix, _reference_Q3(spec))

    @pytest.mark.parametrize(
        "study, half_width",
        [("toy", 4), ("toy", 7), ("posterior", 3), ("posterior", 4), ("posterior", 6)],
    )
    @pytest.mark.filterwarnings("error")
    def test_p3_matches_enumeration_on_study_grids(self, study, half_width):
        # The studies' ratios span up to about e^700 on these grids.
        from ccmix.experiments import posterior_model, toy_model

        bundle = {"toy": toy_model, "posterior": posterior_model}[study]()
        spec = spec_from_log_densities(
            2,
            np.linspace(-half_width, half_width, 401),
            bundle.target.log_density,
            bundle.pseudo.log_density,
        )
        want = _reference_P3(spec)
        want[np.diag_indices(spec.n_states)] += 1.0 - want.sum(axis=1)
        got = build_P3(spec).matrix
        off = ~np.eye(spec.n_states, dtype=bool)
        rel = np.abs(got - want)[off] / np.where(want[off] > 0, want[off], 1.0)
        assert np.max(rel) <= 1e-12
        assert np.max(np.abs(np.diag(got) - np.diag(want))) <= 1e-14

    @pytest.mark.parametrize("half_width", [4, 6])
    def test_p3_keeps_the_flow_of_overflowing_totals(self, half_width):
        # On these grids the posterior study has (g, u) pairs whose total
        # r_1(g) + r_2(u) is positive but so small that its inverse
        # overflows; both builders must run clean, and P3 must keep the
        # flow pi*(k, u) / total of those pairs (C = 1 / total at n = 2).
        from ccmix.experiments import posterior_model

        bundle = posterior_model()
        spec = spec_from_log_densities(
            2,
            np.linspace(-half_width, half_width, 401),
            bundle.target.log_density,
            bundle.pseudo.log_density,
            bundle.proposal,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = build_P3(spec).matrix
            build_Q3(spec)
        G = spec.grid_size
        ratio = np.divide(
            spec.prob, spec.pseudo, out=np.zeros_like(spec.prob), where=spec.pseudo > 0
        )
        total = ratio[0][:, None] + ratio[1]
        with np.errstate(divide="ignore", over="ignore"):
            gs, us = np.nonzero((total > 0) & np.isinf(1.0 / total))
        flow_to_2 = spec.prob[1, us] / total[gs, us]
        flow_to_1 = spec.prob[0, gs] / total[gs, us]
        assert max(flow_to_2.max(), flow_to_1.max()) > 1e-9
        np.testing.assert_allclose(P[gs, G + us], flow_to_2, rtol=1e-12, atol=0)
        np.testing.assert_allclose(P[G + us, gs], flow_to_1, rtol=1e-12, atol=0)

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


class TestBatchedBuilders:
    """``random_spec`` draws each part in one call and ``build_P3`` stacks the
    pairs of each first label; both are bit-identical to the per-row and
    per-pair code they replace."""

    @pytest.mark.parametrize("n, G", [(1, 1), (1, 2), (2, 5), (3, 25), (4, 10), (6, 6)])
    def test_random_spec_draws_as_row_by_row(self, n, G):
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            spec = random_spec(rng, n, G)
            prob, pseudo, proposal = _row_by_row_spec(ref, n, G)
            assert np.array_equal(spec.prob, prob)
            assert np.array_equal(spec.pseudo, pseudo)
            assert np.array_equal(spec.proposal, proposal)
            # The generator is left where the row-by-row draws leave it.
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_p3_equals_pairwise_loop(self, n):
        rng = np.random.default_rng(40 + n)
        for G in (1, 2, 5, 9):
            spec = random_spec(rng, n, G)
            assert np.array_equal(build_P3(spec).matrix, _pairwise_P3(spec))

    @_PROPERTY
    @given(sparse_specs())
    def test_p3_equals_pairwise_loop_on_sparse_specs(self, spec):
        assert np.array_equal(build_P3(spec).matrix, _pairwise_P3(spec))

    def test_p3_memory_at_eight_labels(self):
        # One stack of cores per first label, not all pairs at once: the
        # traced peak stays under twice the kernel's own bytes.
        spec = random_spec(np.random.default_rng(8), 8, 201)
        tracemalloc.start()
        try:
            P3 = build_P3(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * P3.matrix.nbytes


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

    @pytest.mark.parametrize(
        "check, message",
        [(lambda K2, K3: check_reversibility(K3, np.full(2, 0.5)),
          "distribution length does not match the kernel"),
         (lambda K2, K3: check_offdiagonal_dominance(K2, K3),
          "kernels have different sizes"),
         (lambda K2, K3: check_covariance_ordering(K2, K3, np.full(2, 0.5)),
          "kernels have different sizes")],
        ids=["reversibility", "offdiagonal", "covariance"],
    )
    def test_sizes_must_match(self, check, message):
        K2, K3 = FiniteKernel(np.eye(2), 2, 1), FiniteKernel(np.eye(3), 3, 1)
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            check(K2, K3)


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
        eye = FiniteKernel(np.eye(2), 2, 1)
        pi, f = np.array([0.5, 0.5]), np.array([0.0, 1.0])
        with pytest.raises(NonErgodic, match="periodic with period 2$"):
            exact_asymptotic_variance_alternating(swap, eye, pi, f)
        # Alternated with itself the swap composes to the identity.
        with pytest.raises(NonErgodic, match="reducible"):
            exact_asymptotic_variance_alternating(swap, swap, pi, f)

    def test_three_cycle_raises(self):
        cycle = FiniteKernel(np.roll(np.eye(3), 1, axis=1), 3, 1)
        eye = FiniteKernel(np.eye(3), 3, 1)
        with pytest.raises(NonErgodic, match="periodic with period 3$"):
            exact_asymptotic_variance_alternating(
                cycle, eye, np.full(3, 1 / 3), np.arange(3.0)
            )

    def test_reducible_kernel_raises(self):
        # State 0 has no mass, so the search starts from state 1.
        eye = FiniteKernel(np.eye(3), 3, 1)
        with pytest.raises(
            NonErgodic, match="1 of 2 support states are not reached from state 1$"
        ):
            exact_asymptotic_variance_alternating(
                eye, eye, np.array([0.0, 0.5, 0.5]), np.arange(3.0)
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

    @pytest.mark.parametrize(
        "kernels",
        [
            pytest.param(lambda s: (build_P3(s), build_Q3(s)), id="build_Q3"),
            pytest.param(lambda s: (build_P3(s), build_Q4(s)), id="build_Q4"),
            # pi*-invariant and not reversible: the closed form's
            # Z_BA B = B Z_AB must hold without reversibility.
            pytest.param(
                lambda s: (sweep_kernel("mcc", s), sweep_kernel("cc", s)),
                id="mcc_sweep_cc_sweep",
            ),
        ],
    )
    def test_closed_form_matches_lag_sum(self, kernels, specs):
        rng = np.random.default_rng(10)
        for spec in specs[:3]:
            pi = target_distribution(spec)
            P, Q = kernels(spec)
            F = rng.standard_normal((4, spec.n_states))
            got = exact_asymptotic_variance_alternating(P, Q, pi, F)
            want = [self._lag_sum(P.matrix, Q.matrix, pi, f) for f in F]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize(
        "kernels",
        [
            pytest.param(lambda s: (build_P3(s), build_Q3(s)), id="alternating"),
            pytest.param(lambda s: (build_P3(s), build_Q4(s)), id="frozen"),
            pytest.param(lambda s: (sweep_kernel("mcc", s),) * 2, id="homogeneous"),
        ],
    )
    def test_one_solve_per_call(self, monkeypatch, kernels, specs):
        spec = specs[2]
        P, Q = kernels(spec)
        solve, calls = np.linalg.solve, []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        F = np.random.default_rng(11).standard_normal((3, spec.n_states))
        exact_asymptotic_variance_alternating(P, Q, target_distribution(spec), F)
        assert len(calls) == 1

    def test_dimension_mismatch(self, specs):
        spec = specs[0]
        P3 = build_P3(spec)
        with pytest.raises(DimensionMismatch):
            exact_asymptotic_variance_alternating(
                P3, P3, target_distribution(spec), np.ones(3)
            )


def _toy_spec(half_width, with_proposal=False):
    """The toy study discretized to linspace(-w, w, 100 w + 1)."""
    from ccmix.experiments import toy_model

    bundle = toy_model()
    grid = np.linspace(-half_width, half_width, 100 * half_width + 1)
    proposal = bundle.proposal if with_proposal else None
    return spec_from_log_densities(
        2, grid, bundle.target.log_density, bundle.pseudo.log_density, proposal
    )


def _fcc_toy_variances(half_width):
    """sigma^2 of 1{m = 1} and of z along the toy's FCC sweep kernel."""
    spec = _toy_spec(half_width)
    K = sweep_kernel("fcc", spec)
    F = np.vstack([np.repeat([1.0, 0.0], spec.grid_size), np.tile(spec.grid, 2)])
    return exact_asymptotic_variance_alternating(K, K, target_distribution(spec), F)


def _reference_variance(P, Q, pi, F):
    """exact_asymptotic_variance_alternating by state reduction (Grassmann,
    Taksar & Heyman 1985) of its Poisson equations (I - PQ) g = x: the
    support's states are eliminated in ascending pi, each leave rate a sum
    of non-negative entries, and g is 0 on the last, most probable, one."""
    s = pi > 0
    A, B, pi = P.matrix[np.ix_(s, s)], Q.matrix[np.ix_(s, s)], pi[s]
    Fbar = (F[:, s] - (F[:, s] @ pi)[:, None]).T
    T = A @ B
    X = np.hstack([A @ (Fbar + B @ Fbar), Fbar + A @ Fbar])
    rest, eliminated = list(np.argsort(pi, kind="stable")), []
    while len(rest) > 1:
        k = rest.pop(0)
        r = np.array(rest)
        row, leave = T[k, r], T[k, r].sum()
        T[np.ix_(r, r)] += np.outer(T[r, k], row / leave)
        X[r] += np.outer(T[r, k], X[k] / leave)
        eliminated.append((k, r, row, leave))
    g = np.zeros_like(X)
    for k, r, row, leave in reversed(eliminated):
        g[k] = (X[k] + row @ g[r]) / leave
    L = Fbar * pi[:, None]
    g1, g2 = np.hsplit(g, 2)
    return ((Fbar + g1) * L).sum(axis=0) + ((B.T @ L) * g2).sum(axis=0)


class TestIllConditioned:
    """Near-absorbing states, whose 1 - stay cancels to 0 when formed by
    subtraction: the toy's FCC kernel on a grid wide enough that pi*/rho_1
    reaches exp(30), and the solve against state reduction."""

    @pytest.mark.parametrize("half_width", [6, 7, 8])
    def test_wide_toy_grids_converge(self, half_width):
        want = [3.56747746, 59.44090413]
        np.testing.assert_allclose(_fcc_toy_variances(half_width), want, rtol=1e-8)

    def test_narrow_toy_grids_agree(self):
        narrow, wider = _fcc_toy_variances(4), _fcc_toy_variances(5)
        np.testing.assert_allclose(narrow, [3.56708561, 59.4139783], rtol=1e-8)
        np.testing.assert_allclose(wider, narrow, rtol=1e-3)

    def test_wide_spec_file_passes(self, tmp_path, capsys):
        from ccmix.cli import main

        path = tmp_path / "toy6.tsv"
        save_spec(_toy_spec(6, with_proposal=True), path)
        assert main(["oracle", "--spec", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line[:5] for line in lines] == ["PASS "] * len(CHECKS)

    @pytest.mark.parametrize("half_width", [6, 7, 8])
    def test_solve_matches_state_reduction_on_the_toy(self, half_width):
        from ccmix.experiments import toy_model

        bundle = toy_model()
        grid = np.linspace(-half_width, half_width, 20 * half_width + 1)
        spec = spec_from_log_densities(
            2, grid, bundle.target.log_density, bundle.pseudo.log_density
        )
        pi, G = target_distribution(spec), spec.grid_size
        F = np.vstack([np.repeat([1.0, 0.0], G), np.tile(grid, 2)])
        for sampler_id in ("cc", "fcc"):
            K = sweep_kernel(sampler_id, spec)
            got = exact_asymptotic_variance_alternating(K, K, pi, F)
            want = _reference_variance(K, K, pi, F)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @_PROPERTY
    @given(sparse_specs())
    def test_solve_matches_state_reduction_on_sparse_specs(self, spec):
        pi = target_distribution(spec)
        P3 = build_P3(spec)
        F = np.vstack([np.arange(float(spec.n_states)), np.tile(spec.grid, spec.n)])
        for Q in (build_Q3(spec), build_Q4(spec)):
            if np.count_nonzero(pi) > 1 and not _raises_nonergodic(P3, Q, pi, F):
                got = exact_asymptotic_variance_alternating(P3, Q, pi, F)
                want = _reference_variance(P3, Q, pi, F)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_state_that_never_leaves_is_nonergodic(self):
        # Every state is reached from state 0, and state 1's self-loop
        # makes the graph aperiodic, but state 1 never leaves.
        T = FiniteKernel(np.array([[0, 0.5, 0.5], [0, 1, 0], [1, 0, 0]]), 3, 1)
        eye = FiniteKernel(np.eye(3), 3, 1)
        with pytest.raises(NonErgodic, match="reducible: state 1 never leaves$"):
            exact_asymptotic_variance_alternating(
                T, eye, np.full(3, 1 / 3), np.arange(3.0)
            )


class TestGibbsBound:
    def test_bound_holds_on_random_specs(self, specs):
        for spec in specs:
            s2, viid = check_gibbs_iid_bound(spec, np.eye(spec.n)[:1])
            assert s2[0] >= viid[0] - 1e-10

    def test_single_component_degenerate(self):
        spec = random_spec(np.random.default_rng(7), 1, 5)
        s2, viid = check_gibbs_iid_bound(spec, np.ones((1, 1)))
        assert s2[0] == 0.0 and viid[0] == 0.0

    def test_equality_for_independence_label_chain(self):
        # Pseudo structure is irrelevant here: a product target makes
        # the Gibbs label chain i.i.d., so the bound is tight.
        G = 4
        pim = np.array([0.3, 0.7])
        within = np.random.default_rng(8).dirichlet(np.ones(G))
        prob = np.outer(pim, within)
        spec = FiniteMixtureSpec(2, np.arange(float(G)), prob, np.full((2, G), 1 / G))
        s2, viid = check_gibbs_iid_bound(spec, np.array([[0.0, 1.0]]))
        assert s2[0] == pytest.approx(viid[0], abs=1e-10)
        assert viid[0] == pytest.approx(0.21, abs=1e-12)

    def test_rigged_gibbs_variance_fails_the_cli(self, monkeypatch, capsys):
        import ccmix.oracle as oracle_mod
        from ccmix.cli import EXIT_FAILURE, main

        check = oracle_mod.check_gibbs_iid_bound

        def rigged(spec, hs):
            _, var_iid = check(spec, hs)
            return var_iid - 1e-6, var_iid

        monkeypatch.setattr(oracle_mod, "check_gibbs_iid_bound", rigged)
        assert main(["oracle", "--seed", "1"]) == EXIT_FAILURE
        lines = capsys.readouterr().out.splitlines()
        [fail] = [ln for ln in lines if not ln.startswith("PASS ")]
        label, value = fail.rsplit(": ", 1)
        assert label == "FAIL Gibbs >= iid variance (gap >= -1e-10)"
        assert float(value) == pytest.approx(-1e-6, rel=1e-6)

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
        L = build_gibbs_index_kernel(spec)
        cov = lag_covariances(L, index_marginal(spec), np.arange(1.0, 3.0), 1)
        rho = cov[1] / cov[0]
        # Well-separated strata: the label chain is extremely sticky.
        assert rho == pytest.approx(0.9615, abs=0.0005)


class TestVerify:
    def test_values_pass_their_bounds_on_every_h(self, specs):
        rng = np.random.default_rng(10)
        for spec in specs:
            hs = np.vstack([np.eye(spec.n), rng.standard_normal((4, spec.n))])
            values = verify(spec, hs)
            for key, (_, worst, bound) in CHECKS.items():
                assert values[key] <= bound if worst is max else values[key] >= bound
            # verify reads the label chain; the reference, the sweep kernel,
            # whose lag-0 covariance is the i.i.d. variance.
            s2, covs = _gibbs_sweep_reference(spec, hs, 0)
            gap = np.min(s2 - covs[:, 0])
            assert values["gibbs_gap"] == pytest.approx(gap, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("part", [_CONDITIONAL, _PSEUDO, _EXACT])
    def test_invariance_reads_every_selection_and_refresh(self, monkeypatch, specs, part):
        # A part that does not preserve pi* must show, whichever sweeps use it.
        spec, N = specs[0], specs[0].n_states
        uniform = FiniteKernel(np.full((N, N), 1 / N), spec.n, spec.grid_size)
        monkeypatch.setitem(_TWINS, part, lambda s: uniform)
        assert verify(spec, np.eye(spec.n))["invariance"] > 1e-3


class TestHelpers:
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
        spec = replace(random_spec(np.random.default_rng(10), 2, 4), proposal=None)
        path = tmp_path / "spec.tsv"
        save_spec(spec, path)
        assert load_spec(path).proposal is None

    def test_load_skips_blank_lines(self, tmp_path, specs):
        path = tmp_path / "spec.tsv"
        save_spec(specs[0], path)
        lines = path.read_text().splitlines()
        path.write_text("\n" + "\n  \n".join(lines) + "\n\n")
        back = load_spec(path)
        for name in ("grid", "prob", "pseudo", "proposal"):
            np.testing.assert_array_equal(getattr(back, name), getattr(specs[0], name))

    def test_load_rejects_missing_section(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#grid\n0.0\t1.0\n")
        with pytest.raises(ValueError):
            load_spec(path)

    @pytest.mark.parametrize(
        "text, reason",
        [("#grid\n0.0\n#pi\n1.0\n#pi\n1.0\n", "repeated section #pi"),
         ("#grid\n0.0\n#weights\n1.0\n", "unknown section #weights")],
        ids=["repeated", "unknown"],
    )
    def test_load_names_a_repeated_or_unknown_section(self, tmp_path, text, reason):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{reason}$"):
            load_spec(path)

    @pytest.mark.parametrize(
        "text, reason",
        [("0.5\n#grid\n0.0\n", "data before the first section header"),
         ("#grid\n0.0\t1.0\n#pi\n0.5\tabc\n0.5\t0.5\n#pseudo\n1.0\t0.0\n",
          "could not convert string 'abc'"),
         ("#grid\n0.0\t1.0\n#pi\n0.25\t0.25\n0.5\n#pseudo\n1.0\t0.0\n",
          "number of columns changed")],
        ids=["before-header", "bad-number", "ragged"],
    )
    def test_load_rejects_a_malformed_section(self, tmp_path, text, reason):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match=reason):
            load_spec(path)

    def test_spec_from_log_densities_normalizes(self):
        grid = np.linspace(-3, 3, 61)
        spec = spec_from_log_densities(
            2,
            grid,
            lambda m, z: -((z - (2 * m - 3)) ** 2),
            lambda j, u: -u * u,
            ProposalFamily(2, lambda l, u, z: -((z - u) ** 2), None),
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

    def test_spec_from_log_densities_independence_proposal_on_the_grid(self):
        # rho on the whole grid gives the slices the pointwise calls give.
        from ccmix.experiments import toy_model

        bundle = toy_model()
        grid = np.linspace(-4.0, 4.0, 81)
        args = (2, grid, bundle.target.log_density, bundle.pseudo.log_density)
        general = replace(bundle.proposal, rho=None)
        got = spec_from_log_densities(*args, bundle.proposal).proposal
        want = spec_from_log_densities(*args, general).proposal
        np.testing.assert_array_equal(got, want)

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

    def test_spec_from_log_densities_with_infinite_target_raises(self):
        grid = np.linspace(-1.0, 1.0, 5)
        infinite = lambda m, z: np.where(z > 0.5, np.inf, -z * z)  # noqa: E731
        with pytest.raises(ValueError, match="the target has a log-density that is not"):
            spec_from_log_densities(2, grid, infinite, lambda j, u: -u * u)

    @staticmethod
    def _boom(*args):
        raise TypeError("boom")

    @pytest.mark.parametrize(
        "name, target, pseudo, proposal",
        [
            ("target.log_density", lambda m, z: 0.0, None, None),
            ("pseudo.log_density", None, lambda j, u: 0.0, None),
            ("proposal.rho.log_density", None, None, lambda j, u: 0.0),
            ("target.log_density", _boom, None, None),
            ("pseudo.log_density", None, _boom, None),
            ("proposal.rho.log_density", None, None, _boom),
        ],
        ids=["scalar-target", "scalar-pseudo", "scalar-rho"]
        + ["raising-target", "raising-pseudo", "raising-rho"],
    )
    def test_spec_from_log_densities_checks_grid_callbacks(
        self, name, target, pseudo, proposal
    ):
        # The samplers' block check: a scalar for the grid is refused, and
        # a callback that raises is named.
        grid = np.linspace(-3.0, 3.0, 7)
        target = target or (lambda m, z: -z * z)
        pseudo = pseudo or (lambda j, u: -u * u)
        if proposal is not None:
            proposal = ProposalFamily.independent(PseudoPriorSet(2, proposal, None))
        with pytest.raises(ConfigError, match=f"^{name} "):
            spec_from_log_densities(2, grid, target, pseudo, proposal)

    @pytest.mark.parametrize(
        "log_r",
        [lambda l, u, z: np.atleast_1d(-((z - u) ** 2)), _boom],
        ids=["shape-1", "raising"],
    )
    def test_spec_from_log_densities_checks_general_proposal(self, log_r):
        # A general proposal's density is called on single points and must
        # return a float, as the MH refresh wants it.
        grid = np.linspace(-3.0, 3.0, 7)
        proposal = ProposalFamily(2, log_r, None)
        with pytest.raises(ConfigError, match="^proposal.log_density "):
            spec_from_log_densities(
                2, grid, lambda m, z: -z * z, lambda j, u: -u * u, proposal
            )

    @pytest.mark.parametrize(
        "log_rho",
        [
            lambda j, u: -2.0 * (u - 60.0) ** 2,  # N(60, 0.5^2), far off the grid
            lambda j, u: 800.0 - 0.5 * u * u,  # exp overflows
        ],
        ids=["far", "large"],
    )
    @pytest.mark.parametrize("general", [False, True], ids=["independence", "general"])
    def test_spec_from_log_densities_scales_proposal_rows(self, log_rho, general):
        # Each proposal row is scaled by its largest entry, as the
        # pseudo-priors are, so it discretizes rho as log_pseudo does.
        grid = np.linspace(-6.0, 6.0, 41)
        proposal = ProposalFamily.independent(PseudoPriorSet(2, log_rho, None))
        if general:
            proposal = replace(proposal, rho=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = spec_from_log_densities(
                2, grid, lambda m, z: -z * z, log_rho, proposal
            )
        want = np.broadcast_to(spec.pseudo[:, None, :], spec.proposal.shape)
        np.testing.assert_allclose(spec.proposal, want, rtol=1e-13)

    @pytest.mark.parametrize("general", [False, True], ids=["independence", "general"])
    def test_spec_from_log_densities_proposal_without_mass_raises(self, general):
        grid = np.linspace(-1.0, 1.0, 5)
        nowhere = lambda j, u: np.full(np.shape(u), -np.inf)  # noqa: E731
        proposal = ProposalFamily.independent(PseudoPriorSet(2, nowhere, None))
        if general:
            proposal = replace(proposal, rho=None)
        with pytest.raises(ValueError, match="proposal 1 .*has no mass"):
            spec_from_log_densities(
                2, grid, lambda m, z: -z * z, lambda j, u: -u * u, proposal
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
        self._assert_bridge(sampler_id, spec, finite_bundle(spec), seed)

    @pytest.mark.parametrize("seed, n", [(11, 2), (14, 3)])
    @pytest.mark.parametrize("q_is_rho", [True, False], ids=["q=rho", "q!=rho"])
    @pytest.mark.parametrize("sampler_id", ["mwg", "mcc"])
    def test_independence_chain_matches_sweep_kernel(
        self, sampler_id, q_is_rho, seed, n
    ):
        # The blocked refresh of ProposalFamily.independent against build_Q3
        # with every proposal row equal to q; a q other than the
        # pseudo-prior catches a refresh that weighs with the wrong one.
        spec = random_spec(np.random.default_rng(seed), n, 5)
        other = random_spec(np.random.default_rng([seed, 1]), n, 5)
        q = None if q_is_rho else other.pseudo
        bundle, twin = independence_bundle(spec, q)
        self._assert_bridge(sampler_id, twin, bundle, seed)

    def _assert_bridge(self, sampler_id, spec, bundle, seed):
        K = sweep_kernel(sampler_id, spec).matrix
        start = State(1, float(spec.grid[0]))
        config = SamplerConfig(SamplerId(sampler_id), self.SWEEPS, start, 0, seed)
        trace = run_chain(config, bundle)
        states = (trace.m - 1) * spec.grid_size + spec.grid.searchsorted(trace.z)
        N = spec.n_states
        pairs = states[:-1] * N + states[1:]
        counts = np.bincount(pairs, minlength=N * N).reshape(N, N)
        assert not counts[K == 0].any(), "a transition the kernel forbids"
        rows = [chi2_statistic(c, k) for c, k in zip(counts, K) if c.any()]
        stat, df = np.sum(rows, axis=0)
        assert stats.chi2.sf(stat, df) > CHI2_LEVEL
