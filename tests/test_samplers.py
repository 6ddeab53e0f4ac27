"""Tests of the five transition kernels and the chain driver."""

import bisect
import contextlib
import itertools
import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    bin_counts,
    cdf_bin_probs,
    chi2_pvalue,
    finite_bundle,
    independence_bundle,
    posterior_z_cdf_factory,
    sample_posterior_exact,
    sample_toy_exact,
    toy_z_cdf,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _counted
from test_oracle import sparse_specs

from ccmix import (
    ChainTrace,
    ConfigError,
    InvalidCurrentState,
    MixtureTarget,
    ModelBundle,
    ProposalFamily,
    PseudoPriorSet,
    PseudoPriorZero,
    SamplerConfig,
    SamplerId,
    State,
    cc_index_weights,
    conditional_index_weights,
    draw_index,
    mh_log_acceptance,
    run_chain,
    step,
)
from ccmix import samplers
from ccmix.experiments import _gaussian_pseudo, posterior_model, toy_model
from ccmix.oracle import FiniteMixtureSpec

Z_EDGES = np.linspace(-2.2, 2.2, 19)


def _delta_proposal(n):
    """R_l(u, .) = point mass at u; densities cancel in the MH ratio."""
    return ProposalFamily(
        n=n, log_density=lambda l, u, z: 0.0, sampler=lambda l, u, rng: u
    )


def _plane_bundle():
    """Standard normal components on R^2, with every auxiliary part."""

    def log_density(m, z):  # a block of points, or one point
        return -0.5 * np.sum(z * z, axis=-1)

    def draw(m, rng, size):
        return rng.standard_normal((size, 2))

    return ModelBundle(
        MixtureTarget(n=2, z_dim=2, log_density=log_density, conditional_sampler=draw),
        PseudoPriorSet(n=2, log_density=log_density, sampler=draw),
        ProposalFamily(
            n=2,
            log_density=lambda l, u, z: -0.5 * float(z @ z),
            sampler=lambda l, u, rng: rng.standard_normal(2),
        ),
    )


def _gaussian_mixture(means, weights, pseudo_sd, step_sd):
    """pi*(m, z) = w_m N(z; mu_m, I), with N(mu_j, pseudo_sd^2 I) pseudo-priors
    and a random-walk proposal; z is a float when the means are."""
    n, d = len(means), np.size(means[0])
    mus = [mu if d == 1 else np.asarray(mu, dtype=float) for mu in means]
    log_w = [math.log(w) for w in weights]

    def sq(x):  # squared norm of one point, or of each point of a block
        return x * x if d == 1 else np.sum(x * x, axis=-1)

    def draw(rng, size):  # a block of size points
        return rng.standard_normal(size if d == 1 else (size, d))

    return ModelBundle(
        MixtureTarget(
            n=n,
            z_dim=d,
            log_density=lambda m, z: log_w[m - 1] - 0.5 * sq(z - mus[m - 1]),
            conditional_sampler=lambda m, rng, size: mus[m - 1] + draw(rng, size),
        ),
        PseudoPriorSet(
            n=n,
            log_density=lambda j, u: -0.5 * sq(u - mus[j - 1]) / pseudo_sd**2,
            sampler=lambda j, rng, size: mus[j - 1] + pseudo_sd * draw(rng, size),
        ),
        ProposalFamily(
            n=n,
            log_density=lambda l, u, z: -0.5 * float(np.sum((z - u) ** 2)) / step_sd**2,
            sampler=lambda l, u, rng: u
            + step_sd * (rng.standard_normal() if d == 1 else rng.standard_normal(d)),
        ),
    )


def _three_component_bundle():
    return _gaussian_mixture([-2.0, 0.0, 2.5], [0.2, 0.3, 0.5], 1.5, 0.8)


def _two_d_bundle():
    return _gaussian_mixture([(-1.0, 0.0), (1.0, 0.5)], [0.4, 0.6], 1.5, 0.7)


def _strata_bundle(n=6):
    """n Gaussian strata, pi*(m, z) = N(z; mu_m, 0.2) with mu evenly spaced
    on [-3, 3], and N(mu_m + 0.3, 0.5) as pseudo-prior and independence
    proposal."""
    means = np.linspace(-3.0, 3.0, n).tolist()
    strata = _gaussian_pseudo(means, [0.2] * n)
    pseudo = _gaussian_pseudo([mu + 0.3 for mu in means], [0.5] * n)
    target = MixtureTarget(
        n=n, z_dim=1, log_density=strata.log_density, conditional_sampler=strata.sampler
    )
    return ModelBundle(target, pseudo, ProposalFamily.independent(pseudo))


def _exact_conditional_proposal(target):
    """R_l(u, .) = pi*(. | l), drawn as the exact refresh of ``step`` draws:
    one point per label in label order, keeping label l's."""
    labels = range(1, target.n + 1)
    return ProposalFamily(
        n=target.n,
        log_density=lambda l, u, z: float(target.log_density(l, np.array([z]))[0]),
        sampler=lambda l, u, rng: [
            target.conditional_sampler(j, rng, 1)[0] for j in labels
        ][l - 1],
    )


def _supported(bundle):
    """The samplers whose model parts the bundle has."""
    has_cond = bundle.target.conditional_sampler is not None
    has_pseudo, has_prop = bundle.pseudo is not None, bundle.proposal is not None
    return [
        sid
        for sid, ok in (
            (SamplerId.GIBBS, has_cond),
            (SamplerId.MWG, has_prop),
            (SamplerId.CC, has_cond and has_pseudo),
            (SamplerId.MCC, has_pseudo and has_prop),
            (SamplerId.FCC, has_pseudo),
        )
        if ok
    ]


def _one_step(sampler_id, bundle, state, rng):
    return step(sampler_id, bundle, state, rng)[0]


def _push_exact_sample(sampler_id, bundle, ms, zs, seed):
    rng = np.random.default_rng(seed)
    m_out = np.empty(len(ms), dtype=int)
    z_out = np.empty(len(ms))
    for i, (m, z) in enumerate(zip(ms, zs)):
        new = _one_step(sampler_id, bundle, State(int(m), float(z)), rng)
        m_out[i] = new.m
        z_out[i] = new.z
    return m_out, z_out


class TestInvariance:
    """Pushing an exact target sample through one step must leave the
    marginals unchanged (chi-square at level 0.999)."""

    N = 100_000

    @pytest.mark.parametrize(
        "sampler_id",
        [SamplerId.GIBBS, SamplerId.MWG, SamplerId.CC, SamplerId.MCC, SamplerId.FCC],
    )
    def test_toy_target(self, sampler_id, toy_bundle):
        ms, zs = sample_toy_exact(self.N, np.random.default_rng(101))
        m_out, z_out = _push_exact_sample(sampler_id, toy_bundle, ms, zs, seed=202)
        counts_m = np.bincount(m_out, minlength=3)[1:]
        assert chi2_pvalue(counts_m, [0.5, 0.5]) > 0.001, sampler_id
        probs = cdf_bin_probs(toy_z_cdf, Z_EDGES)
        assert chi2_pvalue(bin_counts(z_out, Z_EDGES), probs) > 0.001, sampler_id

    @pytest.mark.parametrize(
        "sampler_id", [SamplerId.MWG, SamplerId.MCC, SamplerId.FCC]
    )
    def test_posterior_target(self, sampler_id):
        bundle = posterior_model()
        ms, zs = sample_posterior_exact(self.N, np.random.default_rng(303))
        m_out, z_out = _push_exact_sample(sampler_id, bundle, ms, zs, seed=404)
        counts_m = np.bincount(m_out, minlength=3)[1:]
        # P(m = 1 | x) = 0.25 exactly: the z^2 likelihood is even, so the
        # posterior label marginal equals the prior one.
        assert chi2_pvalue(counts_m, [0.25, 0.75]) > 0.001, sampler_id
        cdf = posterior_z_cdf_factory()
        edges = np.linspace(-1.4, 1.4, 15)
        probs = cdf_bin_probs(cdf, edges)
        assert chi2_pvalue(bin_counts(z_out, edges), probs) > 0.001, sampler_id


class TestStepMechanics:
    def test_gibbs_requires_conditional_sampler(self):
        target = MixtureTarget(n=2, z_dim=1, log_density=lambda m, z: -z * z)
        with pytest.raises(ConfigError, match="conditional_sampler"):
            step(
                SamplerId.GIBBS,
                ModelBundle(target),
                State(1, 0.0),
                np.random.default_rng(0),
            )

    def test_cc_requires_conditional_sampler(self, toy_bundle):
        target = MixtureTarget(
            n=2, z_dim=1, log_density=toy_bundle.target.log_density
        )
        with pytest.raises(ConfigError, match="conditional_sampler"):
            step(
                SamplerId.CC,
                ModelBundle(target, toy_bundle.pseudo),
                State(1, 0.0),
                np.random.default_rng(0),
            )

    def test_single_component_gibbs(self):
        target = MixtureTarget(
            n=1,
            z_dim=1,
            log_density=lambda m, z: -0.5 * z * z,
            conditional_sampler=lambda m, rng, size: rng.standard_normal(size),
        )
        new, _ = step(
            SamplerId.GIBBS, ModelBundle(target), State(1, 5.0), np.random.default_rng(0)
        )
        assert new.m == 1

    def test_single_component_fcc_is_identity(self):
        target = MixtureTarget(n=1, z_dim=1, log_density=lambda m, z: -0.5 * z * z)
        pseudo_draws = []

        def sampler(j, rng, size):
            pseudo_draws.append((j, size))
            return np.zeros(size)

        pseudo = PseudoPriorSet(
            n=1, log_density=lambda j, u: np.zeros(len(u)), sampler=sampler
        )
        new, _ = step(
            SamplerId.FCC,
            ModelBundle(target, pseudo),
            State(1, 0.7),
            np.random.default_rng(0),
        )
        assert new == State(1, 0.7)
        # The active component's auxiliary, drawn and discarded: z is
        # never refreshed.
        assert pseudo_draws == [(1, 1)]

    def test_mwg_delta_proposal_freezes_z(self, toy_bundle):
        bundle = ModelBundle(toy_bundle.target, proposal=_delta_proposal(2))
        rng = np.random.default_rng(9)
        state = State(1, 0.4)
        for _ in range(20):
            state, accepted = step(SamplerId.MWG, bundle, state, rng)
            assert accepted
            assert state.z == 0.4

    def test_fcc_keeps_selected_auxiliary(self, toy_bundle):
        # When the index stays put, FCC keeps z bitwise.
        rng = np.random.default_rng(2)
        state = State(2, 1.1)
        for _ in range(50):
            new = _one_step(SamplerId.FCC, toy_bundle, state, rng)
            if new.m == state.m:
                assert new.z == state.z
            state = new

    def test_shared_index_stream(self, toy_bundle):
        # CC, MCC and FCC consume identical draws through the index
        # selection, so from a common state and seed they pick the same
        # label.
        state = State(1, -0.9)
        seeds = range(30)
        for seed in seeds:
            m_cc, m_mcc, m_fcc = (
                _one_step(sid, toy_bundle, state, np.random.default_rng(seed)).m
                for sid in (SamplerId.CC, SamplerId.MCC, SamplerId.FCC)
            )
            assert m_cc == m_mcc == m_fcc


class TestRunChain:
    def _config(self, sid, n=500, burn=100, seed=5):
        return SamplerConfig(
            sampler_id=sid,
            n_iterations=n,
            burn_in=burn,
            seed=seed,
            initial_state=State(1, 0.0),
        )

    @pytest.mark.parametrize(
        "sampler_id",
        [SamplerId.GIBBS, SamplerId.MWG, SamplerId.CC, SamplerId.MCC, SamplerId.FCC],
    )
    def test_determinism_and_shape(self, sampler_id, toy_bundle):
        a = run_chain(self._config(sampler_id), toy_bundle)
        b = run_chain(self._config(sampler_id), toy_bundle)
        assert isinstance(a, ChainTrace)
        assert len(a) == 400
        assert a.m.dtype == np.int64 and a.z.dtype == float
        np.testing.assert_array_equal(a.m, b.m)
        np.testing.assert_array_equal(a.z, b.z)
        assert a.wall_clock_seconds >= 0.0
        if sampler_id in (SamplerId.MWG, SamplerId.MCC):
            assert 0.0 <= a.acceptance_rate <= 1.0
            assert a.acceptance_rate == b.acceptance_rate
        else:
            assert a.acceptance_rate is None

    def test_different_seeds_differ(self, toy_bundle):
        a = run_chain(self._config(SamplerId.FCC, seed=1), toy_bundle)
        b = run_chain(self._config(SamplerId.FCC, seed=2), toy_bundle)
        assert not np.array_equal(a.z, b.z)

    def test_burn_in_discards_prefix(self, toy_bundle):
        full = run_chain(self._config(SamplerId.CC, n=500, burn=0), toy_bundle)
        tail = run_chain(self._config(SamplerId.CC, n=500, burn=100), toy_bundle)
        np.testing.assert_array_equal(full.m[100:], tail.m)
        np.testing.assert_array_equal(full.z[100:], tail.z)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SamplerConfig(SamplerId.GIBBS, n_iterations=0, initial_state=State(1, 0.0))
        with pytest.raises(ConfigError):
            SamplerConfig(
                SamplerId.GIBBS,
                n_iterations=10,
                burn_in=10,
                initial_state=State(1, 0.0),
            )
        with pytest.raises(ConfigError):
            SamplerConfig(
                SamplerId.GIBBS,
                n_iterations=10,
                burn_in=-1,
                initial_state=State(1, 0.0),
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_iterations", 2000.0),
            ("burn_in", 100.0),
            ("seed", 1.5),
            ("n_iterations", True),
        ],
    )
    def test_non_integer_config_rejected(self, field, value):
        kwargs = {"n_iterations": 2000, "burn_in": 0, "seed": 0, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SamplerConfig(SamplerId.GIBBS, initial_state=State(1, 0.0), **kwargs)

    def test_numpy_integer_config_accepted(self, toy_bundle):
        n, burn_in, seed = np.int64(20), np.int64(5), np.int64(3)
        config = SamplerConfig(SamplerId.CC, n, State(1, 0.0), burn_in, seed)
        assert len(run_chain(config, toy_bundle)) == 15

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            SamplerConfig(SamplerId.GIBBS, 10, State(1, 0.0), burn_in=0, seed=-3)

    def _assert_rejected(self, sid, bundle, state):
        """Both entry points raise ConfigError before drawing anything."""
        config = SamplerConfig(sid, n_iterations=10, burn_in=0, initial_state=state)
        with pytest.raises(ConfigError):
            run_chain(config, bundle)
        with pytest.raises(ConfigError):
            step(sid, bundle, state, np.random.default_rng(0))

    def test_missing_model_parts_rejected(self, toy_bundle):
        state = State(1, 0.0)
        no_cond = ModelBundle(
            MixtureTarget(n=2, z_dim=1, log_density=toy_bundle.target.log_density),
            toy_bundle.pseudo,
            toy_bundle.proposal,
        )
        for sid in (SamplerId.GIBBS, SamplerId.CC):
            self._assert_rejected(sid, no_cond, state)
        no_pseudo = ModelBundle(toy_bundle.target)
        for sid in (SamplerId.CC, SamplerId.MCC, SamplerId.FCC):
            self._assert_rejected(sid, no_pseudo, state)
        no_proposal = ModelBundle(toy_bundle.target, toy_bundle.pseudo)
        for sid in (SamplerId.MWG, SamplerId.MCC):
            self._assert_rejected(sid, no_proposal, state)

    @pytest.mark.parametrize("sampler_id", list(SamplerId))
    def test_initial_label_beyond_n_rejected(self, sampler_id, toy_bundle):
        self._assert_rejected(sampler_id, toy_bundle, State(7, 0.0))

    @pytest.mark.parametrize(
        "sampler_id", [SamplerId.CC, SamplerId.MCC, SamplerId.FCC]
    )
    def test_pseudo_component_count_mismatch_rejected(self, sampler_id, toy_bundle):
        bundle = replace(toy_bundle, pseudo=replace(toy_bundle.pseudo, n=5))
        self._assert_rejected(sampler_id, bundle, State(1, 0.0))

    @pytest.mark.parametrize("sampler_id", [SamplerId.MWG, SamplerId.MCC])
    def test_proposal_component_count_mismatch_rejected(self, sampler_id, toy_bundle):
        bundle = replace(toy_bundle, proposal=replace(toy_bundle.proposal, n=7))
        self._assert_rejected(sampler_id, bundle, State(1, 0.0))
        rho = replace(toy_bundle.pseudo, n=7)
        bundle = replace(toy_bundle, proposal=replace(toy_bundle.proposal, rho=rho))
        self._assert_rejected(sampler_id, bundle, State(1, 0.0))

    @pytest.mark.parametrize("sampler_id", list(SamplerId))
    def test_non_integer_label_rejected(self, sampler_id, toy_bundle):
        for m in (1.5, 1.0, np.float64(2.0), True):
            self._assert_rejected(sampler_id, toy_bundle, State(m, 0.0))
        new, _ = step(
            sampler_id, toy_bundle, State(np.int64(2), 0.0), np.random.default_rng(0)
        )
        assert new.m in (1, 2)

    @pytest.mark.parametrize("sampler_id", list(SamplerId))
    def test_target_null_initial_state_rejected(self, sampler_id):
        # pi*(., 0) = 0: the pseudo-prior selection would draw from all-zero
        # index weights whenever it refreshes u_2 to 0 as well.
        spec = FiniteMixtureSpec(
            2,
            np.arange(2.0),
            np.array([[0.0, 0.5], [0.0, 0.5]]),
            np.full((2, 2), 0.5),
            np.full((2, 2, 2), 0.5),
        )
        bundle = finite_bundle(spec)
        self._assert_rejected(sampler_id, bundle, State(1, 0.0))
        new, _ = step(sampler_id, bundle, State(1, 1.0), np.random.default_rng(0))
        assert new.z == 1.0

    @pytest.mark.parametrize("sampler_id", list(SamplerId))
    def test_wrong_z_dimension_rejected(self, sampler_id, toy_bundle):
        self._assert_rejected(sampler_id, toy_bundle, State(1, np.zeros(3)))
        plane = _plane_bundle()
        for z in (0.0, np.zeros(3), np.zeros((2, 1))):
            self._assert_rejected(sampler_id, plane, State(1, z))
        new, _ = step(sampler_id, plane, State(1, np.zeros(2)), np.random.default_rng(0))
        assert np.shape(new.z) == (2,)

    def test_mwg_acceptance_covers_post_burn_in(self):
        # A target that forbids z > 0 paired with a positive-only
        # proposal: every proposed move is rejected.
        target = MixtureTarget(
            n=1,
            z_dim=1,
            log_density=lambda m, z: np.where(z <= 0, -0.5 * z * z, -np.inf),
        )
        proposal = ProposalFamily(
            n=1,
            log_density=lambda l, u, z: 0.0 if z > 0 else float("-inf"),
            sampler=lambda l, u, rng: rng.random() + 0.001,
        )
        config = SamplerConfig(
            SamplerId.MWG, n_iterations=200, burn_in=50, initial_state=State(1, -1.0)
        )
        trace = run_chain(config, ModelBundle(target, proposal=proposal))
        assert trace.acceptance_rate == 0.0
        assert np.all(trace.z == -1.0)


class TestCollapseSmoke:
    """Quick paired-stream versions of the structural identities; the
    full-size statistical checks live in the acceptance suite."""

    def test_mcc_with_delta_proposal_equals_fcc(self, toy_bundle):
        delta = ModelBundle(toy_bundle.target, toy_bundle.pseudo, _delta_proposal(2))
        ms, zs = sample_toy_exact(2000, np.random.default_rng(17))
        for i, (m, z) in enumerate(zip(ms, zs)):
            state = State(int(m), float(z))
            a = _one_step(SamplerId.MCC, delta, state, np.random.default_rng(i))
            b = _one_step(SamplerId.FCC, delta, state, np.random.default_rng(i))
            assert a.m == b.m and a.z == b.z

    @pytest.mark.parametrize(
        "model, state",
        [(toy_model, State(1, -1.0)), (posterior_model, State(2, 0.6))],
        ids=["toy", "posterior"],
    )
    @pytest.mark.parametrize(
        "block_size, n_steps", [(1, 3000), (2, 3000), (7, 3000), (1024, 20000)]
    )
    def test_mcc_chain_with_delta_proposal_is_fcc(
        self, model, state, block_size, n_steps
    ):
        # The block engine's general refresh accepts every stay-put move,
        # copying the point and its log pi* into the accepted points' slots.
        bundle = model()
        delta = ModelBundle(bundle.target, bundle.pseudo, _delta_proposal(2))
        with _block_size(block_size):
            mcc = _chain(SamplerId.MCC, delta, state, n_steps, 3)
            fcc = _chain(SamplerId.FCC, delta, state, n_steps, 3)
        assert np.array_equal(mcc.m, fcc.m) and np.array_equal(mcc.z, fcc.z)
        assert mcc.acceptance_rate == 1.0

    def test_mcc_with_exact_conditional_proposal_equals_cc(self, toy_bundle):
        # The exact-conditional proposal is always accepted, and the
        # accepted point comes from the same position in the stream as
        # the CC refresh draw.
        target = toy_bundle.target
        bundle = ModelBundle(
            target, toy_bundle.pseudo, _exact_conditional_proposal(target)
        )
        ms, zs = sample_toy_exact(2000, np.random.default_rng(23))
        for i, (m, z) in enumerate(zip(ms, zs)):
            state = State(int(m), float(z))
            a = _one_step(SamplerId.MCC, bundle, state, np.random.default_rng(i))
            b = _one_step(SamplerId.CC, bundle, state, np.random.default_rng(i))
            assert a.m == b.m and a.z == b.z

    def test_mwg_with_exact_conditional_proposal_equals_gibbs(self, toy_bundle):
        target = toy_bundle.target
        bundle = ModelBundle(target, proposal=_exact_conditional_proposal(target))
        ms, zs = sample_toy_exact(2000, np.random.default_rng(29))
        for i, (m, z) in enumerate(zip(ms, zs)):
            state = State(int(m), float(z))
            a = _one_step(SamplerId.MWG, bundle, state, np.random.default_rng(i))
            b = _one_step(SamplerId.GIBBS, bundle, state, np.random.default_rng(i))
            assert a.m == b.m and a.z == b.z


def _independence_accepts(target, q, m, u, z, uniform):
    """The MH test of the move u -> z from the independence proposal q_m:
    uniform < exp(min(0, [lt(z) - lq(z)] - [lt(u) - lq(u)])), lt and lq the
    log-densities of pi*(m, .) and q_m, with the errors and the -inf
    rejections of mh_log_acceptance."""

    def at(p, x):
        return float(p.log_density(m, np.array([x]))[0])

    lt_u, lq_z = at(target, u), at(q, z)
    if lt_u == -np.inf or lq_z == -np.inf:
        raise InvalidCurrentState(f"ell={m}")
    lt_z, lq_u = at(target, z), at(q, u)
    if lt_z == -np.inf or lq_u == -np.inf:
        return False
    return uniform < math.exp(min(0.0, (lt_z - lq_z) - (lt_u - lq_u)))


def _reference_chain(sid, bundle, state, n_steps, seed, burn_in=0):
    """The chain sweep by sweep through the public weight and acceptance
    functions, drawing from run_chain's child streams of the seed, or, as
    ``step`` does, from ``seed`` itself for every stream when it is a
    Generator: every label's auxiliary and exact draw, the index uniform,
    the MH draws and, for an independence proposal, every label's
    proposal.  The sweeps after ``burn_in``, and their acceptance rate."""
    target, pseudo, proposal = bundle.target, bundle.pseudo, bundle.proposal
    n = target.n
    if isinstance(seed, np.random.Generator):
        streams = [seed] * (3 * n + 2)
    else:
        children = np.random.SeedSequence(seed).spawn(3 * n + 2)
        streams = [np.random.default_rng(s) for s in children]
    aux, exact, proposals = streams[:n], streams[n : 2 * n], streams[2 * n + 2 :]
    index, mh = streams[2 * n], streams[2 * n + 1]
    labels = range(1, n + 1)
    m, z = state.m, state.z
    ms, zs, n_accepted = [], [], 0
    for sweep in range(n_steps):
        if sid in (SamplerId.GIBBS, SamplerId.MWG):
            m = draw_index(conditional_index_weights(target, z), index)
            u = z
        else:
            # The active label's auxiliary is drawn and discarded.
            u_all = [pseudo.sampler(j, aux[j - 1], 1)[0] for j in labels]
            u_all[m - 1] = z
            m = draw_index(cc_index_weights(target, pseudo, u_all), index)
            u = u_all[m - 1]
        if sid in (SamplerId.GIBBS, SamplerId.CC):
            # Every label's exact point is drawn, the selected one kept.
            drawn = [target.conditional_sampler(j, exact[j - 1], 1)[0] for j in labels]
            z = drawn[m - 1]
        elif sid in (SamplerId.MWG, SamplerId.MCC):
            if proposal.rho is None:
                z_prop = proposal.sampler(m, u, mh)
                log_alpha = mh_log_acceptance(target, proposal, m, u, z_prop)
                accepted = mh.random() < math.exp(log_alpha)
            else:
                # Every label's proposal is drawn, the selected one used.
                q = proposal.rho
                drawn = [q.sampler(j, proposals[j - 1], 1)[0] for j in labels]
                z_prop = drawn[m - 1]
                accepted = _independence_accepts(target, q, m, u, z_prop, mh.random())
            n_accepted += accepted and sweep >= burn_in
            z = z_prop if accepted else u
        else:
            z = u
        ms.append(m)
        zs.append(z)
    kept = n_steps - burn_in
    rate = n_accepted / kept if sid in (SamplerId.MWG, SamplerId.MCC) else None
    return np.array(ms[burn_in:]), np.asarray(zs[burn_in:], dtype=float), rate


def _chain(sid, bundle, state, n_steps, seed):
    config = SamplerConfig(
        sid, n_iterations=n_steps, burn_in=0, seed=seed, initial_state=state
    )
    return run_chain(config, bundle)


@contextlib.contextmanager
def _block_size(size):
    """run_chain with ``size`` sweeps a block."""
    saved = samplers._BLOCK_SIZE
    samplers._BLOCK_SIZE = size
    try:
        yield
    finally:
        samplers._BLOCK_SIZE = saved


def _assert_matches_reference(bundle, state, n_steps, seed):
    for sid in _supported(bundle):
        trace = _chain(sid, bundle, state, n_steps, seed)
        m, z, rate = _reference_chain(sid, bundle, state, n_steps, seed)
        assert np.array_equal(trace.m, m), sid
        assert np.array_equal(trace.z, z), sid
        assert trace.acceptance_rate == rate, sid


def _assert_block_size_invariant(bundle, state, n_steps, seed):
    for sid in _supported(bundle):
        want = _chain(sid, bundle, state, n_steps, seed)
        # 2 is the smallest block that builds the index tables.
        for block_size in (1, 2, 7):
            with _block_size(block_size):
                got = _chain(sid, bundle, state, n_steps, seed)
            assert np.array_equal(got.m, want.m), (sid, block_size)
            assert np.array_equal(got.z, want.z), (sid, block_size)
            assert got.acceptance_rate == want.acceptance_rate, (sid, block_size)


_MODELS = [
    (toy_model, State(1, -1.0)),
    (posterior_model, State(2, 0.6)),
    (_three_component_bundle, State(3, 0.4)),
    (_two_d_bundle, State(2, np.array([0.3, -0.2]))),
    # Six labels: the prefix sums are searched on both sides of label 3.
    (_strata_bundle, State(3, -0.5)),
]


def _rho_variants(bundle):
    """The bundle, and for an independence proposal also the bundle with
    an equal copy of its rho and with rho stripped (a general proposal
    with the same callbacks)."""
    proposal = bundle.proposal
    if proposal is None or proposal.rho is None:
        return [bundle]
    copy = ProposalFamily.independent(replace(proposal.rho))
    return [
        bundle,
        replace(bundle, proposal=copy),
        replace(bundle, proposal=replace(proposal, rho=None)),
    ]


def _sparse_start(spec):
    m, g = np.argwhere(spec.prob > 0)[0]
    return State(int(m) + 1, float(spec.grid[g]))


class TestCarriedDensities:
    """run_chain draws and weighs a block of sweeps at a time and hands
    the densities it computed from the selection to the refresh and on to
    the next sweep; the chains must stay bit-identical to recomputing
    every density sweep by sweep, and the points evaluated and drawn per
    sweep must be the README's."""

    @pytest.mark.parametrize("model, state", _MODELS)
    def test_chain_matches_reference(self, model, state):
        _assert_matches_reference(model(), state, n_steps=3000, seed=11)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(sparse_specs())
    def test_chain_matches_reference_on_sparse_specs(self, spec):
        with warnings.catch_warnings():
            # Cells where target and pseudo-prior both vanish warn.
            warnings.simplefilter("ignore", RuntimeWarning)
            _assert_matches_reference(
                finite_bundle(spec), _sparse_start(spec), n_steps=80, seed=5
            )

    @pytest.mark.parametrize("model, state", _MODELS[:2])
    def test_chain_matches_reference_across_the_burn_in(self, model, state):
        # Neither the burn-in nor the kept length is a whole number of
        # blocks, so blocks end at the burn-in and short of it.
        bundle, burn_in, n_steps, seed = model(), 1500, 3700, 23
        size = samplers._BLOCK_SIZE
        assert burn_in % size and (n_steps - burn_in) % size
        for sid in (SamplerId.MWG, SamplerId.MCC, SamplerId.FCC):
            config = SamplerConfig(sid, n_steps, state, burn_in=burn_in, seed=seed)
            trace = run_chain(config, bundle)
            m, z, rate = _reference_chain(sid, bundle, state, n_steps, seed, burn_in)
            assert np.array_equal(trace.m, m), sid
            assert np.array_equal(trace.z, z), sid
            assert trace.acceptance_rate == rate, sid

    def test_reused_proposal_array_keeps_the_chain(self):
        # A general proposal's sampler that refills one array and returns
        # it at every call: the chain keeps copies of the points it accepts,
        # in run_chain and in the states that step returns.
        bundle, state = _two_d_bundle(), State(2, np.array([0.3, -0.2]))
        buffer, sampler = np.empty(2), bundle.proposal.sampler

        def reused(l, u, rng):
            buffer[:] = sampler(l, u, rng)
            return buffer

        reusing = replace(bundle, proposal=replace(bundle.proposal, sampler=reused))
        for sid in (SamplerId.MWG, SamplerId.MCC):
            want = _chain(sid, bundle, state, 3000, 4)
            got = _chain(sid, reusing, state, 3000, 4)
            assert np.array_equal(got.m, want.m), sid
            assert np.array_equal(got.z, want.z), sid
            assert got.acceptance_rate == want.acceptance_rate, sid
            runs = []
            for model in (bundle, reusing):
                s, rng, run = state, np.random.default_rng(4), []
                for _ in range(500):
                    s, accepted = step(sid, model, s, rng)
                    run.append((s.m, accepted))
                    run += np.array(s.z).tolist()  # a copy of z as it was
                runs.append(run)
            assert runs[1] == runs[0], sid

    def test_mwg_weighs_each_carry_once(self, monkeypatch):
        # The carried row, and so its label weights, change only on an
        # accepted move: MwG weighs it at block entry and after each
        # accepted move, not at every sweep.
        calls = []
        weights = samplers._weights

        def counted(logw):
            calls.append(1)
            return weights(logw)

        monkeypatch.setattr(samplers, "_weights", counted)
        n_steps = 6000
        trace = _chain(SamplerId.MWG, posterior_model(), State(2, 0.6), n_steps, 11)
        accepted = round(trace.acceptance_rate * n_steps)
        blocks = -(-n_steps // samplers._BLOCK_SIZE)
        assert 1 + accepted + blocks < n_steps
        assert 0 < len(calls) <= 1 + accepted + blocks

    def test_mwg_weighs_at_block_entry_and_label_picks(self, monkeypatch):
        # An accepted independence proposal's interval and h come from the
        # block's tables, so MwG weighs a point only at block entry, at a
        # label pick, or with v_k within the slack of an interval's end.
        calls = []
        weights = samplers._weights

        def counted(logw):
            calls.append(1)
            return weights(logw)

        monkeypatch.setattr(samplers, "_weights", counted)
        n_steps, state = 6000, State(2, 0.6)
        trace = _chain(SamplerId.MWG, posterior_model(), state, n_steps, 1)
        labels = np.concatenate([[state.m], trace.m])
        picks = int(np.sum(labels[1:] != labels[:-1]))
        blocks = -(-n_steps // samplers._BLOCK_SIZE)
        assert 0 < len(calls) <= blocks + picks + 1
        assert blocks + picks + 1 < round(trace.acceptance_rate * n_steps)

    @staticmethod
    def _per_step_points(sid, bundle, state, n_steps):
        """The points evaluated and drawn by sweeps 2..n_steps of one chain,
        a Counter each."""
        totals = []
        for k in range(1, n_steps + 1):
            counts = Counter()
            _chain(sid, _counted(bundle, counts), state, k, seed=3)
            totals.append(counts)
        return [b - a for a, b in zip(totals, totals[1:])]

    @pytest.mark.parametrize(
        "model, state",
        [(toy_model, State(1, -1.0)), (_three_component_bundle, State(3, 0.4))],
    )
    def test_callbacks_per_sweep(self, model, state):
        bundle = model()
        n = bundle.target.n
        # Every label's auxiliary and exact draw is drawn and weighed, the
        # active label's too; Gibbs weighs each exact draw at all labels.
        pseudo_selection = {"target": n, "pseudo": n, "pseudo_draw": n}
        want = {
            SamplerId.GIBBS: {"target": n * n, "conditional": n},
            SamplerId.CC: {
                "target": 2 * n, "pseudo": 2 * n, "pseudo_draw": n, "conditional": n
            },
            SamplerId.FCC: pseudo_selection,
        }
        for sid, points in want.items():
            for got in self._per_step_points(sid, bundle, state, 40):
                assert dict(got) == points, sid
        # The blocked MH refresh of an independence proposal q draws every
        # label's proposal and weighs it with the densities of the carry:
        # the target and q at every label for MwG; the target, the
        # pseudo-prior and q at its own label for MCC, which also weighs
        # the auxiliaries with q.  Here q is an equal copy of the
        # pseudo-prior, another object.
        q = ProposalFamily.independent(replace(bundle.pseudo))
        independent = replace(bundle, proposal=q)
        blocked = {
            SamplerId.MWG: {"target": n * n, "proposal": n * n, "proposal_draw": n},
            SamplerId.MCC: {
                **pseudo_selection,
                "target": 2 * n,
                "pseudo": 2 * n,
                "proposal": 2 * n,
                "proposal_draw": n,
            },
        }
        for sid, points in blocked.items():
            for got in self._per_step_points(sid, independent, state, 40):
                assert dict(got) == points, sid
        # With q the pseudo-prior itself, MCC weighs each point once with
        # it: 4n points, not 6n.  Its 2n draws, the auxiliaries' and the
        # proposals', all go through the one sampler.
        shared = replace(bundle, proposal=ProposalFamily.independent(bundle.pseudo))
        want_shared = {"target": 2 * n, "pseudo": 2 * n, "pseudo_draw": 2 * n}
        for got in self._per_step_points(SamplerId.MCC, shared, state, 40):
            assert dict(got) == want_shared  # no proposal point
        # A general proposal is refreshed one point at a time: the MH
        # refresh weighs its proposal, and after an accepted move the rest
        # of the carry at the new point: the other labels' target densities
        # for MwG, the pseudo-prior density for MCC.
        general = replace(bundle, proposal=replace(bundle.proposal, rho=None))
        mh = {"proposal": 2, "proposal_draw": 1}
        accepted = {SamplerId.MWG: ("target", n - 1), SamplerId.MCC: ("pseudo", 1)}
        base = {
            SamplerId.MWG: {"target": 1, **mh},
            SamplerId.MCC: {**pseudo_selection, "target": n + 1, **mh},
        }
        for sid, (kind, extra) in accepted.items():
            moves = 0
            for got in self._per_step_points(sid, general, state, 40):
                want_rejected = Counter(base[sid])
                want_accepted = want_rejected + Counter({kind: extra})
                assert got in (want_rejected, want_accepted), sid
                moves += got == want_accepted
            assert 0 < moves < 39, sid


class TestStepIsOneSweep:
    """``step`` is one sweep of the per-sweep selection and refresh: the
    reference sweep with one generator for every stream, drawing and
    weighing only what that sweep uses."""

    @pytest.mark.parametrize("model, state", _MODELS)
    def test_step_is_the_reference_sweep(self, model, state):
        n_steps = 150
        for bundle in _rho_variants(model()):
            for sid in _supported(bundle):
                rng, s, ms, zs, accepts = np.random.default_rng(8), state, [], [], []
                for _ in range(n_steps):
                    s, accepted = step(sid, bundle, s, rng)
                    ms.append(s.m)
                    zs.append(s.z)
                    accepts.append(accepted)
                want = np.random.default_rng(8)
                m, z, rate = _reference_chain(sid, bundle, state, n_steps, want)
                assert ms == m.tolist(), sid
                assert np.array_equal(np.asarray(zs, dtype=float), z), sid
                if rate is None:
                    assert accepts == [None] * n_steps, sid
                else:
                    assert sum(accepts) / n_steps == rate, sid
                # Both drew the same numbers from their generators.
                assert rng.random() == want.random(), sid

    @staticmethod
    def _step_points(sid, bundle, state, n_steps):
        """The points evaluated and drawn by each of n_steps step calls."""
        rng, points = np.random.default_rng(3), []
        for _ in range(n_steps):
            counts = Counter()
            state, _ = step(sid, _counted(bundle, counts), state, rng)
            points.append(dict(counts))
        return points

    @pytest.mark.parametrize(
        "model, state",
        [(toy_model, State(1, -1.0)), (_three_component_bundle, State(3, 0.4))],
    )
    def test_step_weighs_only_the_points_it_uses(self, model, state):
        # A step call weighs the state (every label's target for the
        # conditional selection, and q's with an independence proposal),
        # draws and weighs every label's auxiliary and draws every label's
        # exact point or proposal, but weighs no exact draw and only the
        # kept label's proposal: it hands no carry to a next sweep.
        bundle = model()
        n = bundle.target.n
        selection = {"target": n + 1, "pseudo": n + 1, "pseudo_draw": n}
        want = {
            SamplerId.GIBBS: {"target": n, "conditional": n},
            SamplerId.CC: {**selection, "conditional": n},
            SamplerId.FCC: selection,
        }
        q = ProposalFamily.independent(replace(bundle.pseudo))
        independent = replace(bundle, proposal=q)
        want_independent = {
            SamplerId.MWG: {"target": n + 1, "proposal": n + 1, "proposal_draw": n},
            SamplerId.MCC: {
                **selection,
                "target": n + 2,
                "proposal": n + 2,
                "proposal_draw": n,
            },
        }
        shared = replace(bundle, proposal=ProposalFamily.independent(bundle.pseudo))
        want_shared = {"target": n + 2, "pseudo": n + 2, "pseudo_draw": 2 * n}
        # A general proposal: its draw, two proposal densities and the
        # target at the proposal; no other density after an accepted move.
        general = replace(bundle, proposal=replace(bundle.proposal, rho=None))
        mh = {"proposal": 2, "proposal_draw": 1}
        want_general = {
            SamplerId.MWG: {"target": n + 1, **mh},
            SamplerId.MCC: {**selection, "target": n + 2, **mh},
        }
        for b, table in (
            (bundle, want),
            (independent, want_independent),
            (shared, {SamplerId.MCC: want_shared}),
            (general, want_general),
        ):
            for sid, points in table.items():
                for got in self._step_points(sid, b, state, 30):
                    assert got == points, sid


class TestBlocks:
    """A chain is the same at every block size, and the callbacks of the
    model are checked against the block protocol before anything is drawn."""

    @pytest.mark.parametrize("model, state", _MODELS)
    def test_block_size_invariance(self, model, state):
        _assert_block_size_invariant(model(), state, n_steps=2000, seed=13)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(sparse_specs())
    def test_block_size_invariance_on_sparse_specs(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _assert_block_size_invariant(
                finite_bundle(spec), _sparse_start(spec), n_steps=60, seed=6
            )

    @staticmethod
    def _stuck_at_label_one(pseudo_one_log_density, target_one=lambda z: -0.5 * z * z):
        """Label 2 has no target mass, so the chain stays at label 1 and
        its auxiliary, always drawn at 10, is always discarded."""
        target = MixtureTarget(
            n=2,
            z_dim=1,
            log_density=lambda m, z: (
                target_one(z) if m == 1 else np.full(len(z), -np.inf)
            ),
        )
        pseudo = PseudoPriorSet(
            n=2,
            log_density=lambda j, u: (
                pseudo_one_log_density(u) if j == 1 else -0.5 * u * u
            ),
            sampler=lambda j, rng, size: np.full(size, 10.0)
            if j == 1
            else rng.standard_normal(size),
        )
        return ModelBundle(target, pseudo)

    def test_discarded_vanishing_pseudo_prior_runs_clean(self):
        # rho_1 vanishes at 10, where the target of label 1 does not, and
        # in the second bundle where it vanishes too: neither may raise or
        # warn, since the sweep never uses label 1's auxiliary.
        vanishing = lambda u: np.where(u > 5.0, -np.inf, -0.5 * u * u)  # noqa: E731
        both = lambda z: np.where(z > 5.0, -np.inf, -0.5 * z * z)  # noqa: E731
        for bundle in (
            self._stuck_at_label_one(vanishing),
            self._stuck_at_label_one(vanishing, target_one=both),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for block_size in (1, 64):
                    with _block_size(block_size):
                        trace = _chain(SamplerId.FCC, bundle, State(1, 0.3), 200, 4)
                    assert np.all(trace.m == 1) and np.all(trace.z == 0.3)
                new, _ = step(
                    SamplerId.FCC, bundle, State(1, 0.3), np.random.default_rng(0)
                )
                assert new == State(1, 0.3)

    def test_used_vanishing_pseudo_prior_raises(self, toy_bundle):
        # rho_1 vanishes at 10, where pi*(1, .) does not; from label 2 the
        # first sweep weighs label 1's auxiliary there.
        pseudo = PseudoPriorSet(
            n=2,
            log_density=lambda j, u: np.where(u > 5.0, -np.inf, -0.5 * u * u),
            sampler=lambda j, rng, size: np.full(size, 10.0)
            if j == 1
            else rng.standard_normal(size),
        )
        bundle = ModelBundle(toy_bundle.target, pseudo)
        with pytest.raises(PseudoPriorZero):
            _chain(SamplerId.FCC, bundle, State(2, 0.5), 200, 4)
        with pytest.raises(PseudoPriorZero):
            step(SamplerId.FCC, bundle, State(2, 0.5), np.random.default_rng(0))

    @pytest.mark.parametrize("sampler_id", list(SamplerId))
    def test_scalar_only_callback_rejected(self, sampler_id, toy_bundle):
        # math.exp-style code cannot take a block of points.
        scalar = MixtureTarget(
            n=2,
            z_dim=1,
            log_density=lambda m, z: math.log(0.5) - 0.5 * math.pow(z - 1.0, 2),
            conditional_sampler=toy_bundle.target.conditional_sampler,
        )
        bundle = replace(toy_bundle, target=scalar)
        with pytest.raises(ConfigError, match="target.log_density"):
            run_chain(SamplerConfig(sampler_id, 10, State(1, 0.0), burn_in=0), bundle)
        with pytest.raises(ConfigError, match="target.log_density"):
            step(sampler_id, bundle, State(1, 0.0), np.random.default_rng(0))

    def test_scalar_returning_callbacks_rejected(self, toy_bundle):
        pseudo = toy_bundle.pseudo
        # A general proposal, so that the MH refresh weighs single points.
        general = replace(toy_bundle, proposal=replace(toy_bundle.proposal, rho=None))
        cases = [
            (
                SamplerId.FCC,
                "pseudo.log_density",
                replace(pseudo, log_density=lambda j, u: 0.0),
                toy_bundle.target,
            ),
            (
                SamplerId.FCC,
                "pseudo.sampler",
                replace(pseudo, sampler=lambda j, rng, size: rng.standard_normal()),
                toy_bundle.target,
            ),
            (
                SamplerId.GIBBS,
                "target.conditional_sampler",
                pseudo,
                replace(
                    toy_bundle.target,
                    conditional_sampler=lambda m, rng, size: rng.standard_normal(
                        (size, 1)
                    ),
                ),
            ),
            (
                SamplerId.GIBBS,
                "target.log_density",
                pseudo,
                replace(toy_bundle.target, log_density=lambda m, z: -1.0),
            ),
            # The MH refresh of a general proposal weighs one point at a
            # time and wants a float.
            (
                SamplerId.MWG,
                "target.log_density",
                pseudo,
                replace(
                    toy_bundle.target,
                    log_density=lambda m, z: np.atleast_1d(-0.5 * z * z),
                ),
            ),
        ]
        for sid, name, pseudo_set, target in cases:
            bundle = replace(general, target=target, pseudo=pseudo_set)
            with pytest.raises(ConfigError, match=name):
                run_chain(SamplerConfig(sid, 10, State(1, 0.0), burn_in=0), bundle)
        # An independence proposal's rho is called on blocks.
        scalar_rho = ProposalFamily.independent(
            replace(pseudo, log_density=lambda j, u: 0.0)
        )
        for sid in (SamplerId.MWG, SamplerId.MCC):
            with pytest.raises(ConfigError, match="proposal.rho.log_density"):
                run_chain(
                    SamplerConfig(sid, 10, State(1, 0.0), burn_in=0),
                    replace(toy_bundle, proposal=scalar_rho),
                )

    @pytest.mark.parametrize("sampler_id", [SamplerId.CC, SamplerId.MCC, SamplerId.FCC])
    def test_pseudo_sampler_checked_at_every_label(self, sampler_id, toy_bundle):
        # Right at label 1, where the chain starts; a column at label 2.
        draw = toy_bundle.pseudo.sampler

        def sampler(j, rng, size):
            x = draw(j, rng, size)
            return x[:, None] if j == 2 else x

        pseudo = replace(toy_bundle.pseudo, sampler=sampler)
        bundle = replace(toy_bundle, pseudo=pseudo)
        with pytest.raises(ConfigError, match="pseudo.sampler"):
            run_chain(SamplerConfig(sampler_id, 10, State(1, 0.0), burn_in=0), bundle)

    @pytest.mark.parametrize(
        "sampler_id", [SamplerId.GIBBS, SamplerId.CC, SamplerId.MCC, SamplerId.FCC]
    )
    def test_target_density_checked_on_every_block(self, sampler_id, toy_bundle):
        # Right on blocks of up to 2 points, a float on larger ones.
        log_density = toy_bundle.target.log_density

        def small_blocks_only(m, z):
            out = log_density(m, z)
            return out if len(z) <= 2 else float(out[0])

        target = replace(toy_bundle.target, log_density=small_blocks_only)
        bundle = replace(toy_bundle, target=target)
        with pytest.raises(ConfigError, match="target.log_density"):
            run_chain(SamplerConfig(sampler_id, 10, State(1, 0.0), burn_in=0), bundle)

    @pytest.mark.parametrize("sampler_id", [SamplerId.MWG, SamplerId.MCC])
    def test_independence_proposal_needs_no_single_point_callbacks(
        self, sampler_id, toy_bundle
    ):
        # Block-only densities: a single point has no len().  The blocked
        # refresh never calls them on one, and the chain is the toy's.
        def block_only(fn):
            return lambda j, x: fn(j, x) + 0.0 * len(x)

        target, pseudo = toy_bundle.target, toy_bundle.pseudo
        bundle = ModelBundle(
            replace(target, log_density=block_only(target.log_density)),
            replace(pseudo, log_density=block_only(pseudo.log_density)),
            ProposalFamily.independent(
                replace(pseudo, log_density=block_only(pseudo.log_density))
            ),
        )
        want = _chain(sampler_id, toy_bundle, State(1, -1.0), 500, 3)
        got = _chain(sampler_id, bundle, State(1, -1.0), 500, 3)
        assert np.array_equal(got.m, want.m) and np.array_equal(got.z, want.z)
        step(sampler_id, bundle, State(1, -1.0), np.random.default_rng(0))

    @pytest.mark.parametrize("sampler_id", [SamplerId.MWG, SamplerId.MCC])
    @pytest.mark.parametrize("name", ["proposal.sampler", "proposal.log_density"])
    def test_general_proposal_callbacks_checked(self, sampler_id, name, toy_bundle):
        # Shape (1,) for one-dimensional z, from the draw or the density,
        # is refused by name in run_chain and in step.
        proposal = replace(toy_bundle.proposal, rho=None)
        attr = name.split(".")[1]
        fn = getattr(proposal, attr)
        wrapped = replace(proposal, **{attr: lambda *args: np.atleast_1d(fn(*args))})
        bundle = replace(toy_bundle, proposal=wrapped)
        with pytest.raises(ConfigError, match=f"^{name} returned shape"):
            run_chain(SamplerConfig(sampler_id, 10, State(1, 0.0), burn_in=0), bundle)
        with pytest.raises(ConfigError, match=f"^{name} returned shape"):
            step(sampler_id, bundle, State(1, 0.0), np.random.default_rng(0))


def _dominant_discarded_bundle():
    """Three labels, each with the target N(0, 1).  Label 1's auxiliaries
    are drawn near 10, where rho_1 claims e^-50 of the target's density,
    so their ratio is about e^+50; every other point and auxiliary has
    ratio e^-60.  At label 1 the discarded auxiliary outweighs all the
    others by about e^110."""

    def log_pseudo(j, u):
        return -0.5 * u * u + np.where((j == 1) & (np.abs(u) > 5.0), -50.0, 60.0)

    target = MixtureTarget(
        n=3,
        z_dim=1,
        log_density=lambda m, z: -0.5 * z * z,
        conditional_sampler=lambda m, rng, size: rng.normal(0.0, 1.0, size),
    )
    pseudo = PseudoPriorSet(
        n=3,
        log_density=log_pseudo,
        sampler=lambda j, rng, size: rng.normal(10.0 if j == 1 else 0.0, 1.0, size),
    )
    proposal = ProposalFamily(
        n=3,
        log_density=lambda l, u, z: -0.5 * (z - u) * (z - u),
        sampler=lambda l, u, rng: u + rng.standard_normal(),
    )
    return ModelBundle(target, pseudo, proposal)


def _stays_at_label_two(nan_label=None, trap=False):
    """Label 1 has target mass only above 5, where both pseudo-priors
    vanish, and its auxiliaries are drawn at 0, so every sampler stays at
    label 2 and keeps label 2's exact draws.  In a block of more than 110
    sweeps, the exact draw of ``nan_label`` at sweep 100 is NaN and, with
    ``trap``, label 1's auxiliary at sweep 110 is 10, where rho_1 vanishes
    and pi*(1, .) does not."""

    def conditional_sampler(m, rng, size):
        x = rng.standard_normal(size)
        if m == nan_label and size > 100:
            x[100] = np.nan
        return x

    def pseudo_sampler(j, rng, size):
        if j == 2:
            return rng.standard_normal(size)
        u = np.zeros(size)
        if trap and size > 110:
            u[110] = 10.0
        return u

    target = MixtureTarget(
        n=2,
        z_dim=1,
        log_density=lambda m, z: (
            np.where(z > 5.0, -0.5 * z * z, -np.inf) if m == 1 else -0.5 * z * z
        ),
        conditional_sampler=conditional_sampler,
    )
    pseudo = PseudoPriorSet(
        n=2,
        log_density=lambda j, u: np.where(u > 5.0, -np.inf, -0.5 * u * u),
        sampler=pseudo_sampler,
    )
    return ModelBundle(target, pseudo)


class TestIndexTables:
    """Blocks of more than one sweep draw the index from tables built for
    the block: a label table for the exact refresh, prefix sums of the
    other labels' weights for the pseudo-prior selection.  Entries the
    tables cannot settle, and their errors, fall to the per-sweep
    selection at the sweep that uses them."""

    def test_dominant_discarded_auxiliary_matches_reference(self):
        bundle = _dominant_discarded_bundle()
        _assert_matches_reference(bundle, State(1, 0.2), n_steps=3000, seed=17)
        # The chain moves between labels and sits at label 1 with the
        # e^+50 auxiliary discarded.
        for sid in (SamplerId.CC, SamplerId.MCC):
            m = _chain(sid, bundle, State(1, 0.2), 3000, 17).m
            assert set(m.tolist()) == {1, 2, 3}, sid

    @pytest.mark.parametrize("sampler_id", [SamplerId.GIBBS, SamplerId.CC])
    def test_kept_non_finite_exact_draw_raises_at_its_sweep(self, sampler_id):
        # The NaN at sweep 100 is kept before the trap at sweep 110 is used.
        bundle = _stays_at_label_two(nan_label=2, trap=True)
        with pytest.raises(ValueError, match="finite") as info:
            _chain(sampler_id, bundle, State(2, 0.3), 200, 4)
        assert not isinstance(info.value, PseudoPriorZero)

    @pytest.mark.parametrize("sampler_id", [SamplerId.GIBBS, SamplerId.CC])
    def test_discarded_non_finite_exact_draw_runs_clean(self, sampler_id):
        bundle = _stays_at_label_two(nan_label=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = _chain(sampler_id, bundle, State(2, 0.3), 200, 4)
        assert np.all(trace.m == 2) and np.all(np.isfinite(trace.z))

    @pytest.mark.parametrize("sampler_id", [SamplerId.GIBBS, SamplerId.CC])
    def test_discarded_non_finite_exact_draw_matches_reference(self, sampler_id):
        bundle = _stays_at_label_two(nan_label=1)
        trace = _chain(sampler_id, bundle, State(2, 0.3), 200, 4)
        m, z, _ = _reference_chain(sampler_id, bundle, State(2, 0.3), 200, 4)
        assert np.array_equal(trace.m, m) and np.array_equal(trace.z, z)

    @pytest.mark.parametrize("sampler_id", [SamplerId.GIBBS, SamplerId.CC])
    def test_block_with_non_finite_draw_keeps_the_label_table(
        self, sampler_id, monkeypatch
    ):
        # The NaN's column is a zero of the table; the other sweeps of the
        # block are table lookups, so the per-sweep selection runs at sweep
        # 0 only.
        sel, refresh = samplers._KERNELS[sampler_id]
        calls = []

        def select(*args):
            calls.append(args)
            return sel.select(*args)

        kernels = {sampler_id: (sel._replace(select=select), refresh)}
        monkeypatch.setattr(samplers, "_KERNELS", kernels)
        _chain(sampler_id, _stays_at_label_two(nan_label=1), State(2, 0.3), 200, 4)
        assert len(calls) == 1

    def test_used_vanishing_pseudo_prior_raises_mid_block(self):
        bundle = _stays_at_label_two(trap=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _chain(SamplerId.CC, bundle, State(2, 0.3), 110, 4)
        with pytest.raises(PseudoPriorZero):
            _chain(SamplerId.CC, bundle, State(2, 0.3), 200, 4)

    def _labels_at_block_sizes(self, sid, bundle, state, n_steps, seed):
        runs = []
        for size in (1, 2, 1024):
            with _block_size(size):
                runs.append(_chain(sid, bundle, state, n_steps, seed).m.tolist())
        return runs

    def test_gibbs_labels_do_not_depend_on_the_block_size(self):
        """A uniform within rounding of a cumulative weight: at block size 1
        the per-sweep draw decides sweep 1, at 2 and 1024 ``_pick_table``.
        Both bisect the same running sums, so they agree here.  The
        pseudo-prior tables' prefix sums stay a separate procedure, so this
        does not make the labels independent of the block size in general."""
        a = (2.672303688794309, 0.0)
        target = MixtureTarget(
            2,
            1,
            lambda m, z: a[m - 1] - 0.5 * z * z,
            lambda m, rng, size: rng.normal(0.0, 1.0, size),
        )
        runs = self._labels_at_block_sizes(
            SamplerId.GIBBS, ModelBundle(target), State(1, 0.3), 10, 4
        )
        assert runs[0] == runs[1] == runs[2]

    def test_fcc_labels_do_not_depend_on_the_block_size(self):
        """As for Gibbs, with FCC's first sweep: the per-sweep draw at block
        size 1, the prefix-sum bisection at 2 and 1024.  That bisection
        still shifts and sums in its own order, so it can disagree with the
        per-sweep draw elsewhere."""
        b = (4.434952432901652, 0.20980023430607941, -1.071338746322222)
        target = MixtureTarget(3, 1, lambda m, z: b[m - 1] - 0.5 * z * z)
        pseudo = PseudoPriorSet(
            3,
            lambda j, u: -0.5 * math.log(2 * math.pi) - 0.5 * u * u,
            lambda j, rng, size: rng.normal(0.0, 1.0, size),
        )
        runs = self._labels_at_block_sizes(
            SamplerId.FCC, ModelBundle(target, pseudo), State(2, 0.3), 3, 636
        )
        assert runs[0] == runs[1] == runs[2]


def _spans_wrapped(bundle):
    """Every callback behind a forwarding wrapper, put in with
    dataclasses.replace as bench/spans.py does: the proposal keeps its rho,
    which is then another object than the bundle's wrapped pseudo-prior."""

    def forward(fn):
        return lambda *args: fn(*args)

    t, p, r = bundle.target, bundle.pseudo, bundle.proposal
    cond = t.conditional_sampler
    return ModelBundle(
        replace(
            t,
            log_density=forward(t.log_density),
            conditional_sampler=None if cond is None else forward(cond),
        ),
        replace(p, log_density=forward(p.log_density), sampler=forward(p.sampler)),
        replace(r, log_density=forward(r.log_density), sampler=forward(r.sampler)),
    )


def _label_one_only(bad_label, bad_point):
    """Label 2 has no target mass, so every sampler stays at label 1.  The
    independence proposal q draws ``bad_point`` for ``bad_label``; q
    vanishes above 5."""
    normal = PseudoPriorSet(
        n=2,
        log_density=lambda j, u: -0.5 * u * u,
        sampler=lambda j, rng, size: rng.standard_normal(size),
    )
    q = PseudoPriorSet(
        n=2,
        log_density=lambda j, u: np.where(u > 5.0, -np.inf, -0.5 * u * u),
        sampler=lambda j, rng, size: (
            np.full(size, bad_point) if j == bad_label else rng.standard_normal(size)
        ),
    )
    target = MixtureTarget(
        n=2,
        z_dim=1,
        log_density=lambda m, z: -0.5 * z * z if m == 1 else np.full(len(z), -np.inf),
    )
    return ModelBundle(target, normal, ProposalFamily.independent(q))


def test_pick_table_picks_a_label_with_mass():
    # v = 1 - 2^-53, the largest uniform, and columns that end in zero
    # weights: every pick is in 1..n, at a label of positive weight.
    rng = np.random.default_rng(5)
    logw = rng.normal(0.0, 3.0, size=(4, 400))
    for k in range(400):
        logw[4 - k % 4 :, k] = -np.inf  # the last k % 4 labels have no mass
    v = np.full(400, 1.0 - 2.0**-53)
    v[::2] = rng.random(200)
    picks = samplers._pick_table(logw, v)
    assert np.all((1 <= picks) & (picks <= 4))
    assert np.all(np.isfinite(logw[picks - 1, np.arange(400)]))


def test_per_sweep_draw_is_the_label_tables_arithmetic():
    # Uniforms within 3 ulps of each cumulative share, where a label turns
    # on the last bits: the per-sweep draw picks as ``_pick_table`` does
    # wherever numpy's exp and math.exp agree on every weight.
    rng = np.random.default_rng(30)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(2, 6))
        col = rng.normal(0.0, 3.0, n)
        col[rng.random(n) < 0.2] = -np.inf
        if not np.isfinite(col).any():
            continue
        shifted = (col - col.max()).tolist()
        if np.exp(shifted).tolist() != [math.exp(x) for x in shifted]:
            continue
        acc, sums = np.cumsum(np.exp(shifted)), samplers._weights(col.tolist())
        for share in (acc / acc[-1]).tolist():
            for v in _ulps(share, 3):
                if 0.0 <= v < 1.0:
                    table = samplers._pick_table(col[:, None], np.array([v]))
                    assert samplers._pick(sums, v) == table[0]
                    checked += 1
    assert checked > 3000


class TestIndependenceRefresh:
    """With ProposalFamily.independent the MH refresh draws every label's
    proposals and accept uniforms in blocks; its errors are those of
    mh_log_acceptance and fire only for the proposal a sweep uses."""

    @pytest.mark.parametrize("model", [toy_model, posterior_model])
    def test_wrapped_callbacks_keep_the_chain(self, model):
        bundle = model()
        wrapped = _spans_wrapped(bundle)
        assert wrapped.proposal.rho is bundle.pseudo
        for sid in (SamplerId.MWG, SamplerId.MCC):
            want = _chain(sid, bundle, State(1, -1.0), 3000, 19)
            got = _chain(sid, wrapped, State(1, -1.0), 3000, 19)
            assert np.array_equal(got.m, want.m), sid
            assert np.array_equal(got.z, want.z), sid
            assert got.acceptance_rate == want.acceptance_rate, sid

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(sparse_specs())
    @pytest.mark.parametrize("reverse_q", [False, True], ids=["q=rho", "q!=rho"])
    def test_chain_matches_reference_on_sparse_specs(self, reverse_q, spec):
        # Zero-mass cells reject the proposals that land on them; with q the
        # pseudo-prior rows in reverse label order, q can also vanish at the
        # current point, which rejects every proposal.
        bundle, _ = independence_bundle(spec, spec.pseudo[::-1] if reverse_q else None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _assert_matches_reference(bundle, _sparse_start(spec), n_steps=80, seed=5)

    @pytest.mark.parametrize("sampler_id", [SamplerId.MWG, SamplerId.MCC])
    def test_vanishing_proposal_density_raises_only_when_used(self, sampler_id):
        # q_l draws 10, where q_l vanishes: mh_log_acceptance calls that an
        # invalid current state.  Label 2's proposals are never used.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = _chain(sampler_id, _label_one_only(2, 10.0), State(1, 0.3), 300, 4)
        assert np.all(trace.m == 1)
        bundle = _label_one_only(1, 10.0)
        with pytest.raises(InvalidCurrentState):
            _chain(sampler_id, bundle, State(1, 0.3), 300, 4)
        with pytest.raises(InvalidCurrentState):
            step(sampler_id, bundle, State(1, 0.3), np.random.default_rng(0))

    @pytest.mark.parametrize("sampler_id", [SamplerId.MWG, SamplerId.MCC])
    def test_non_finite_proposal_raises_only_when_kept(self, sampler_id):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bundle = _label_one_only(2, np.nan)
            trace = _chain(sampler_id, bundle, State(1, 0.3), 300, 4)
        assert np.all(np.isfinite(trace.z))
        # A NaN proposal has a NaN MH log-ratio, which raises at once.
        with pytest.raises(ConfigError, match="MH log-ratio is NaN"):
            _chain(sampler_id, _label_one_only(1, np.nan), State(1, 0.3), 300, 4)


def _nan_where(part, bad, value=np.nan):
    """``part``, a target or a PseudoPriorSet, with its log-density NaN, or
    ``value``, where bad(label, z), on blocks and single points alike."""
    log_density = part.log_density
    return replace(
        part, log_density=lambda j, z: np.where(bad(j, z), value, log_density(j, z))
    )


def _nan_bundle(part, general):
    """The toy model with the ``part`` callback's log-density NaN above 1.5
    for the target, only at label 2 and below -1.5 for "target 2", where
    MwG's label-1 points go, and above 1.2 for the pseudo-prior or the
    independence proposal's rho; ``general`` strips rho, so MwG and MCC
    run the MH refresh of a general proposal."""
    bundle = toy_model()
    target, pseudo, proposal = bundle.target, bundle.pseudo, bundle.proposal
    if part == "target":
        target = _nan_where(target, lambda j, z: z > 1.5)
    elif part == "target 2":
        target = _nan_where(target, lambda j, z: (j == 2) & (z < -1.5))
    elif part == "pseudo":
        pseudo = _nan_where(pseudo, lambda j, z: z > 1.2)
    else:
        proposal = ProposalFamily.independent(_nan_where(pseudo, lambda j, z: z > 1.2))
    if general:
        proposal = replace(proposal, rho=None)
    return ModelBundle(target, pseudo, proposal)


def _nan_discarded_bundle():
    """Label 1 has no target mass below 5 and its auxiliaries are drawn at
    0, so every sampler stays at label 2.  Label 2's auxiliaries and label
    1's exact draws and independence proposals are drawn at 10, where
    pi*(2, .) is NaN: entries drawn and discarded, or weighed at label 2
    only for a label the chain never takes."""

    def log_density(m, z):
        if m == 1:
            return np.where(z > 5.0, -0.5 * z * z, -np.inf)
        return np.where(z > 5.0, np.nan, -0.5 * z * z)

    def at_ten(label, other):
        def draw(j, rng, size):
            return np.full(size, 10.0) if j == label else other(rng, size)

        return draw

    normal = lambda rng, size: rng.standard_normal(size)  # noqa: E731
    target = MixtureTarget(
        n=2, z_dim=1, log_density=log_density, conditional_sampler=at_ten(1, normal)
    )
    zeros = lambda rng, size: np.zeros(size)  # noqa: E731
    pseudo = PseudoPriorSet(
        n=2, log_density=lambda j, u: -0.5 * u * u, sampler=at_ten(2, zeros)
    )
    rho = replace(pseudo, sampler=at_ten(1, normal))
    return ModelBundle(target, pseudo, ProposalFamily.independent(rho))


_NAN_CASES = [
    *[("target", sid, False) for sid in SamplerId],
    ("target", SamplerId.MWG, True),
    ("target", SamplerId.MCC, True),
    ("target 2", SamplerId.MWG, False),
    ("target 2", SamplerId.MWG, True),
    ("pseudo", SamplerId.CC, False),
    ("pseudo", SamplerId.FCC, False),
    ("pseudo", SamplerId.MCC, False),
    ("pseudo", SamplerId.MCC, True),
    *[
        ("proposal", sid, general)
        for sid in (SamplerId.MWG, SamplerId.MCC)
        for general in (False, True)
    ],
]


class TestNanDensities:
    """A NaN log-density breaks the callback contract.  It raises
    ConfigError at the sweep that uses it, as the per-sweep path does;
    a NaN in a discarded entry never raises."""

    @pytest.mark.parametrize("part, sampler_id, general", _NAN_CASES)
    def test_used_nan_raises_at_its_sweep(self, part, sampler_id, general):
        bundle, state = _nan_bundle(part, general), State(1, -1.0)

        def runs_clean(n_steps):
            try:
                _chain(sampler_id, bundle, state, n_steps, 3)
            except ConfigError as exc:
                assert "NaN" in str(exc)
                return False
            return True

        # The chain is the same at every block size, so the sweeps that run
        # clean are a prefix: bisect for the last of them.
        lo, hi = 0, 4000
        assert not runs_clean(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if runs_clean(mid) else (lo, mid)
        assert lo >= 1
        with _block_size(1):  # sweep by sweep, as ``step`` runs
            assert runs_clean(lo) and not runs_clean(lo + 1)

    @pytest.mark.parametrize("sampler_id", list(SamplerId))
    def test_nan_target_at_the_initial_state_rejected(self, sampler_id):
        bundle, state = _nan_bundle("target", False), State(1, 2.0)
        with pytest.raises(ConfigError, match="NaN log-density at the initial state"):
            _chain(sampler_id, bundle, state, 10, 0)
        with pytest.raises(ConfigError, match="NaN log-density at the initial state"):
            step(sampler_id, bundle, state, np.random.default_rng(0))

    @pytest.mark.parametrize("sampler_id", list(SamplerId))
    def test_discarded_nan_runs_clean(self, sampler_id):
        bundle, state = _nan_discarded_bundle(), State(2, 0.3)
        for block_size in (1, 64):
            with _block_size(block_size):
                trace = _chain(sampler_id, bundle, state, 300, 4)
            assert np.all(trace.m == 2)
        new, _ = step(sampler_id, bundle, state, np.random.default_rng(0))
        assert new.m == 2


class TestInfiniteTarget:
    """A +inf target log-density breaks the callback contract too, and
    the error names the target and its label, not a vanishing
    pseudo-prior, though the ratio pi*/rho is +inf either way."""

    @staticmethod
    def _bundle():
        bundle = toy_model()
        target = _nan_where(bundle.target, lambda j, z: z > 1.5, np.inf)
        return replace(bundle, target=target)

    @pytest.mark.parametrize("sampler_id", list(SamplerId))
    def test_used_inf_raises_naming_the_target(self, sampler_id):
        with pytest.raises(
            ConfigError, match=r"the target log-density of label [12] is \+inf$"
        ):
            _chain(sampler_id, self._bundle(), State(1, -1.0), 4000, 3)

    @pytest.mark.parametrize("sampler_id", [SamplerId.CC, SamplerId.FCC])
    def test_inf_over_inf_ratio_names_the_target(self, sampler_id):
        # Where the pseudo-prior is +inf too, the ratio pi*/rho is NaN.
        bundle = self._bundle()
        pseudo = _nan_where(bundle.pseudo, lambda j, z: z > 1.5, np.inf)
        with pytest.raises(
            ConfigError, match=r"^the target log-density of label [12] is \+inf$"
        ):
            _chain(sampler_id, replace(bundle, pseudo=pseudo), State(1, -1.0), 4000, 3)

    def test_inf_target_at_the_initial_state_rejected(self):
        for sampler_id in SamplerId:
            with pytest.raises(
                ConfigError, match=r"\+inf log-density at the initial state"
            ):
                step(sampler_id, self._bundle(), State(1, 2.0), np.random.default_rng(0))


def _inf_bundle(part):
    """The toy model with log rho = +inf above 1.2 for the pseudo-prior
    (``part`` "pseudo") or for the independence proposal's rho."""
    bundle = toy_model()
    bad = _nan_where(bundle.pseudo, lambda j, z: z > 1.2, np.inf)
    if part == "pseudo":
        return replace(bundle, pseudo=bad)
    return replace(bundle, proposal=ProposalFamily.independent(bad))


_INF_CASES = [
    *[("pseudo", sid, r"pseudo\.log_density of label [12] is NaN or \+inf$")
      for sid in (SamplerId.CC, SamplerId.MCC, SamplerId.FCC)],
    *[("proposal", sid, r"proposal\.rho\.log_density of label [12] is \+inf$")
      for sid in (SamplerId.MWG, SamplerId.MCC)],
]


class TestInfiniteDensities:
    """A +inf pseudo-prior or independence-proposal log-density breaks the
    callback contract as well.  The ratio log pi* - log rho would read it
    as a zero weight and the MH test as a rejection, so a sweep that uses
    one raises ConfigError naming the density; a discarded one never does."""

    @pytest.mark.parametrize("part, sampler_id, message", _INF_CASES)
    def test_used_inf_raises_naming_the_density(self, part, sampler_id, message):
        # With the pseudo-prior's, label 1 read 0.70, 0.62 and 0.59 over
        # 20000 sweeps of CC, MCC and FCC, against 0.50, with no error.
        bundle, state = _inf_bundle(part), State(1, -1.0)

        def runs_clean(n_steps):
            try:
                _chain(sampler_id, bundle, state, n_steps, 3)
            except ConfigError as exc:
                assert re.search(message, str(exc)), str(exc)
                return False
            return True

        # The sweeps that run clean are a prefix at every block size.
        lo, hi = 0, 20000
        assert not runs_clean(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if runs_clean(mid) else (lo, mid)
        assert lo >= 1
        with _block_size(1):
            assert runs_clean(lo) and not runs_clean(lo + 1)

    @pytest.mark.parametrize(
        "part, name, sampler_ids",
        [
            ("pseudo", "pseudo.log_density", [SamplerId.CC, SamplerId.FCC]),
            ("proposal", "proposal.rho.log_density", [SamplerId.MWG, SamplerId.MCC]),
        ],
    )
    def test_inf_at_the_initial_state_rejected(self, part, name, sampler_ids):
        bundle, state = _inf_bundle(part), State(1, 2.0)
        message = rf"^{re.escape(name)} is \+inf at the initial state"
        for sampler_id in sampler_ids:
            with pytest.raises(ConfigError, match=message):
                _chain(sampler_id, bundle, state, 10, 0)
            with pytest.raises(ConfigError, match=message):
                step(sampler_id, bundle, state, np.random.default_rng(0))

    @pytest.mark.parametrize("sampler_id", list(SamplerId))
    def test_discarded_inf_runs_clean(self, sampler_id):
        # rho is +inf above 5, where label 2's auxiliaries and label 1's
        # independence proposals are drawn; the chain stays at label 2.
        bundle, state = _nan_discarded_bundle(), State(2, 0.3)
        pseudo = _nan_where(bundle.pseudo, lambda j, z: z > 5.0, np.inf)
        rho = replace(pseudo, sampler=bundle.proposal.rho.sampler)
        bundle = ModelBundle(bundle.target, pseudo, ProposalFamily.independent(rho))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for block_size in (1, 64):
                with _block_size(block_size):
                    trace = _chain(sampler_id, bundle, state, 300, 4)
                assert np.all(trace.m == 2)
            new, _ = step(sampler_id, bundle, state, np.random.default_rng(0))
        assert new.m == 2


def _first_error(sid, bundle, state, n_steps, seed):
    """The number of sweeps of the chain that run clean and the error, as
    (type, message), of the next one, found by bisection: the sweeps that
    run clean are a prefix at every block size."""

    def error(k):
        try:
            _chain(sid, bundle, state, k, seed)
        except (ConfigError, PseudoPriorZero, InvalidCurrentState) as exc:
            return type(exc), str(exc)
        return None

    lo, hi, raised = 0, n_steps, error(n_steps)
    assert raised is not None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (found := error(mid)) is None:
            lo = mid
        else:
            hi, raised = mid, found
    return lo, raised


class TestRhoThePseudoPrior:
    """With rho the pseudo-prior itself, as in both studies, MCC weighs
    each point once with it and reuses those rows as rho's.  The chain,
    and the error a bad density raises, must be those of an equal copy of
    the pseudo-prior as rho, which is weighed by calls of its own."""

    @staticmethod
    def _with_copy(bundle):
        copy = ProposalFamily.independent(replace(bundle.pseudo))
        assert bundle.proposal.rho is bundle.pseudo and copy.rho is not bundle.pseudo
        return replace(bundle, proposal=copy)

    @pytest.mark.parametrize("model", [toy_model, posterior_model])
    def test_chain_is_that_of_a_copy(self, model):
        bundle = model()
        copied, state = self._with_copy(bundle), State(1, -1.0)
        for block_size, seed in itertools.product((1, 2, 7, 1024), (0, 1, 42)):
            with _block_size(block_size):
                want = _chain(SamplerId.MCC, copied, state, 6000, seed)
                got = _chain(SamplerId.MCC, bundle, state, 6000, seed)
            assert np.array_equal(got.m, want.m), (block_size, seed)
            assert np.array_equal(got.z, want.z), (block_size, seed)
            assert got.acceptance_rate == want.acceptance_rate, (block_size, seed)

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_bad_density_raises_as_with_a_copy(self, value):
        # log rho is +inf or NaN above 1.2, where the chain goes.
        bundle = toy_model()
        bad = _nan_where(bundle.pseudo, lambda j, z: z > 1.2, value)
        bundle = ModelBundle(bundle.target, bad, ProposalFamily.independent(bad))
        copied, state = self._with_copy(bundle), State(1, -1.0)
        clean, raised = _first_error(SamplerId.MCC, bundle, state, 20000, 3)
        assert clean >= 1 and raised[0] is ConfigError
        assert _first_error(SamplerId.MCC, copied, state, 20000, 3) == (clean, raised)
        for block_size in (1, 7):
            with _block_size(block_size):
                for b in (bundle, copied):
                    _chain(SamplerId.MCC, b, state, clean, 3)
                    with pytest.raises(ConfigError) as exc:
                        _chain(SamplerId.MCC, b, state, clean + 1, 3)
                    assert str(exc.value) == raised[1], block_size


def _kept_by_selection(r, m, k, n, shift, prefix, v):
    """The pseudo-prior selection of a held point with ratio r at label m,
    sweep k, by the float operations of the sweep loop's fast branch."""
    wk = math.exp(r - shift[k])
    lo = k * n
    uk = v * (prefix[lo + n - 1] + wk)
    i = bisect.bisect_right(prefix, uk, lo, lo + m - 1) - lo
    if i == m - 1 and not uk < prefix[lo + i] + wk:
        i = min(bisect.bisect_right(prefix, uk - wk, lo + m, lo + n) - lo, n - 1)
    return i + 1 == m


def _ulps(x, count):
    """x and its ``count`` float neighbours on each side."""
    out = [x]
    up = down = x
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [float(up), float(down)]
    return out


_SPECIAL_RATIOS = [-np.inf, -745.0, -700.0, -1e-300, 0.0, 1e-300, 5.0, 700.0, 1e15]
_SPECIAL_UNIFORMS = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53]
_uniforms = st.one_of(
    st.sampled_from(_SPECIAL_UNIFORMS), st.floats(0.0, 1.0, exclude_max=True)
)
_log_ratios = st.one_of(
    st.sampled_from([-np.inf, np.inf, np.nan, 0.0, -700.0, 700.0, 1e15]),
    st.floats(-60.0, 60.0),
)


@st.composite
def _selection_cases(draw):
    """Auxiliary ratios [label, sweep] for n in {1, 2, 3, 5}, with zero
    weights and extreme spans, and index uniforms that include 0, 1 - 2^-53
    and, for some label, v S within a few ulps of P."""
    n = draw(st.sampled_from([1, 2, 3, 5]))
    size = draw(st.integers(2, 4))
    value = st.one_of(st.sampled_from(_SPECIAL_RATIOS), st.floats(-60.0, 60.0))
    ratios = np.array(draw(st.lists(value, min_size=n * size, max_size=n * size)))
    ratios = ratios.reshape(n, size)
    v = np.array(draw(st.lists(_uniforms, min_size=size, max_size=size)))
    near = draw(st.integers(-3, 3)), draw(st.integers(0, n - 1)), draw(st.booleans())
    return ratios, v, near


@st.composite
def _interval_cases(draw):
    """Label log-weights [label, point] for n in {1, 2, 3, 5}, with -inf,
    NaN, +inf and +-700 entries and spans that make subnormal weights, and
    two index uniforms."""
    n = draw(st.sampled_from([1, 2, 3, 5]))
    size = draw(st.integers(1, 4))
    value = st.one_of(
        st.sampled_from([-np.inf, np.nan, np.inf, -745.0, -710.0, -700.0, 0.0, 700.0]),
        st.floats(-60.0, 60.0),
    )
    logw = np.array(draw(st.lists(value, min_size=n * size, max_size=n * size)))
    uniforms = draw(st.lists(_uniforms, min_size=2, max_size=2))
    return logw.reshape(n, size), uniforms


class TestCertifiedHolds:
    """A run of sweeps that keep the held label and point is skipped when
    thresholds built for the block prove it: tau for the pseudo-prior
    selection, sigma for the independence MH test.  Whatever they certify,
    the per-sweep float arithmetic must agree with."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_selection_cases())
    def test_hold_thresholds_keep_the_label(self, case):
        ratios, v, (ulps, target, nudge) = case
        n, size = ratios.shape
        never = [math.inf] * (size + 1)
        shifts, prefixes, _, _ = samplers._prefix_tables(ratios, v, never, False)
        if nudge:
            # v S within a few ulps of P for label target + 1 at every sweep.
            for k in range(size):
                lo = k * n
                below = prefixes[target][lo + target]
                total = prefixes[target][lo + n - 1]
                if math.isfinite(shifts[target][k]) and total > 0:
                    u = below / total
                    for _ in range(abs(ulps)):
                        u = np.nextafter(u, np.inf if ulps > 0 else -np.inf)
                    v[k] = min(max(float(u), 0.0), 1.0 - 2.0**-53)
        shifts, prefixes, taus, least = samplers._prefix_tables(ratios, v, never, True)
        for m in range(1, n + 1):
            shift, prefix, tau = shifts[m - 1], prefixes[m - 1], taus[m - 1]
            assert len(tau) == size + 1 and tau[size] == math.inf
            for k in range(size):
                if not math.isfinite(shift[k]):
                    assert not tau[k] < math.inf  # +inf or NaN: no certificate
                    continue
                candidates = []
                if math.isfinite(tau[k]):
                    candidates += _ulps(tau[k], 4)
                candidates += _ulps(shift[k] + 699.0, 2) + _ulps(shift[k] - 700.0, 2)
                for r in candidates:
                    if tau[k] < r and r - least[m - 1] < 699.0:
                        assert r - shift[k] < 700.0
                        vk = float(v[k])
                        assert _kept_by_selection(r, m, k, n, shift, prefix, vk)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(_log_ratios, min_size=1, max_size=6),
        st.lists(_uniforms, min_size=6, max_size=6),
    )
    def test_reject_thresholds_reject(self, hz, a):
        hz = np.array(hz)[None, :]
        a = np.array(a[: hz.shape[1]])
        sigma = samplers._rejections(hz, a)[0]
        for k, s in enumerate(sigma):
            if not math.isfinite(s):
                continue
            for h in _ulps(s, 4) + [math.inf, s + 1.0, s + 1e3]:
                if not s < h:
                    continue
                d = float(hz[0, k]) - h
                if -math.inf < d < math.inf:
                    assert not (d >= 0.0 or float(a[k]) < math.exp(d))
                else:  # the general MH test rejects a -inf log ratio
                    assert d == -math.inf

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_interval_cases())
    def test_mwg_intervals_keep_the_label(self, case):
        # Every label of every point: the sweep loop reads the interval of
        # the held point at whatever label it holds.
        logw, uniforms = case
        vlo, vhi = samplers._intervals(logw)
        assert vlo.shape == vhi.shape == logw.shape
        for c in range(logw.shape[1]):
            row = logw[:, c].tolist()
            bounds = vlo[:, c].tolist() + vhi[:, c].tolist()
            with contextlib.suppress(ValueError):  # NaN or no mass
                w = samplers._weights(row)
                bounds += [a / w[-1] for a in w]
            candidates = list(uniforms)
            for b in bounds:
                if math.isfinite(b):
                    candidates += _ulps(b, 4)
            for j, v in itertools.product(range(len(row)), candidates):
                # An index uniform is 0 or at least 2^-53, and below 1.
                if (v == 0.0 or 2.0**-53 <= v < 1.0) and vlo[j, c] < v < vhi[j, c]:
                    assert samplers._pick(samplers._weights(row), v) == j + 1

    def test_vanishing_pseudo_prior_in_certified_run_raises_at_its_sweep(self):
        # Label 1 has e^-30 of label 2's weight, so the chain holds label 2
        # and its point with certified sweeps; label 1's auxiliary of sweep
        # 110 is drawn at 10, where rho_1 vanishes and pi*(1, .) does not.
        def pseudo_sampler(j, rng, size):
            if j == 2:
                return rng.standard_normal(size)
            u = np.zeros(size)
            if size > 110:
                u[110] = 10.0
            return u

        target = MixtureTarget(
            n=2,
            z_dim=1,
            log_density=lambda m, z: -0.5 * z * z - (30.0 if m == 1 else 0.0),
        )
        pseudo = PseudoPriorSet(
            n=2,
            log_density=lambda j, u: np.where(
                (j == 1) & (u > 5.0), -np.inf, -0.5 * u * u
            ),
            sampler=pseudo_sampler,
        )
        bundle, state, seed = ModelBundle(target, pseudo), State(2, 0.3), 4
        # The holds before sweep 110 are certified: the only other ratio is
        # -30, and tau sits below the held point's ratio 0.
        v = np.random.default_rng(np.random.SeedSequence(seed).spawn(8)[4]).random(1024)
        ratios = np.array([np.full(1024, -30.0), np.zeros(1024)])
        ratios[0, 110] = np.inf
        never = [math.inf] * 1025
        _, _, taus, least = samplers._prefix_tables(ratios, v, never, True)
        assert 0.0 - least[1] < 699.0
        assert all(taus[1][k] < 0.0 for k in range(110))
        assert not taus[1][110] < math.inf
        trace = _chain(SamplerId.FCC, bundle, state, 110, seed)
        assert np.all(trace.m == 2) and np.all(trace.z == 0.3)
        with pytest.raises(PseudoPriorZero) as info:
            _chain(SamplerId.FCC, bundle, state, 111, seed)
        assert str(info.value) == (
            "pseudo-prior 1 vanishes at a point where the target does not"
        )
