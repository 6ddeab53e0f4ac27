"""Acceptance gate: the nine machine-checked criteria.

Each test prints one ``PASS criterion k`` line on success; a pytest
failure on any test here means the corresponding criterion is FAIL.
Criteria 1-5 verify the exact finite-state theory on a fixed family of
20 random specs; 6-7 reproduce the two numerical studies at full size;
8-9 check the structural collapse identities and the optimal
pseudo-prior behaviour.  Three checks ride along without a criterion
number: criteria 1-3 with their bounds on specs with four and five
components, the width of criterion 6's grid, and a count of model points
per step behind criterion 7's cost claim.
"""

import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    chi2_pvalue,
    optimal_toy_bundle,
    runs_test_zscore,
    sample_toy_exact,
)
from scipy import stats

from ccmix import (
    ModelBundle,
    ProposalFamily,
    SamplerConfig,
    SamplerId,
    State,
    cc_index_weights,
    run_chain,
    step,
)
from ccmix.experiments import (
    posterior_model,
    run_posterior_experiment,
    run_toy_experiment,
    toy_model,
)
from ccmix.oracle import (
    build_gibbs_index_kernel,
    check_gibbs_iid_bound,
    exact_asymptotic_variance_alternating,
    index_marginal,
    lag_covariances,
    random_spec,
    spec_from_log_densities,
    sweep_kernel,
    target_distribution,
    verify,
)

N_SPECS = 20
SPEC_SEED = 20240817


@pytest.fixture(scope="module")
def verified():
    """The 20 random specs, each with its ``verify`` values on criterion 4's
    label functions (the basis plus 100 random h), and the time it took."""
    rng = np.random.default_rng(SPEC_SEED)
    h_rng = np.random.default_rng(SPEC_SEED + 1)
    t0 = time.perf_counter()
    out = []
    for _ in range(N_SPECS):
        n = int(rng.choice([2, 3]))
        G = int(rng.choice([5, 10, 25]))
        spec = random_spec(rng, n, G)
        hs = np.vstack([np.eye(n), h_rng.standard_normal((100, n))])
        out.append({"spec": spec, **verify(spec, hs)})
    elapsed = time.perf_counter() - t0
    return out, elapsed


@pytest.fixture(scope="module")
def toy_report():
    t0 = time.perf_counter()
    report = run_toy_experiment(seed=42, n_iter=101_000, burn_in=1000, replicates=10)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def posterior_report():
    return run_posterior_experiment(
        seed=42, n_iter=101_000, burn_in=1000, replicates=5
    )


def test_criterion_1_reversibility(verified):
    """Detailed balance of the selection sweep and the MH refresh."""
    items, elapsed = verified
    worst_p3 = max(item["reversibility_P3"] for item in items)
    worst_q3 = max(item["reversibility_Q3"] for item in items)
    assert worst_p3 <= 1e-12
    assert worst_q3 <= 1e-14
    assert elapsed < 30.0
    print(
        f"PASS criterion 1: reversibility on {N_SPECS} specs "
        f"(P3 dev {worst_p3:.2e} <= 1e-12, Q3 dev {worst_q3:.2e} <= 1e-14, "
        f"{elapsed:.1f}s < 30s)"
    )


def test_criterion_2_invariance(verified):
    """The extended target is stationary for every sampler kernel."""
    items, _ = verified
    worst = max(item["invariance"] for item in items)
    assert worst <= 1e-12
    print(f"PASS criterion 2: invariance on {N_SPECS} specs (dev {worst:.2e} <= 1e-12)")


def test_criterion_3_kernel_orderings(verified):
    """MH refresh dominates the frozen refresh off the diagonal and in
    the covariance ordering."""
    items, _ = verified
    assert all(item["offdiagonal"] for item in items)
    lam_min = min(item["lambda_min"] for item in items)
    assert lam_min >= -1e-10
    print(
        f"PASS criterion 3: off-diagonal and covariance orderings on {N_SPECS} "
        f"specs (lambda_min {lam_min:.2e} >= -1e-10)"
    )


@pytest.mark.parametrize("n, G", [(4, 8), (5, 6), (5, 8)])
def test_exact_checks_at_four_and_five_components(n, G):
    """Criteria 1-3 with their bounds on specs with more components."""
    rng = np.random.default_rng([SPEC_SEED, n, G])
    for _ in range(3):
        values = verify(random_spec(rng, n, G), np.eye(n))
        assert values["reversibility_P3"] <= 1e-12
        assert values["reversibility_Q3"] <= 1e-14
        assert values["invariance"] <= 1e-12
        assert values["offdiagonal"]
        assert values["lambda_min"] >= -1e-10


def test_criterion_4_variance_ordering(verified):
    """sigma^2 of the metropolised chain never exceeds the frozen one,
    for the label indicator basis plus 100 random label functions."""
    items, _ = verified
    worst_gap = max(item["variance_gap"] for item in items)
    assert worst_gap <= 1e-10
    print(
        f"PASS criterion 4: variance ordering MCC <= FCC on {N_SPECS} specs x "
        f"(basis + 100 random h) (worst gap {worst_gap:.2e} <= 1e-10)"
    )


def test_criterion_5_gibbs_vs_iid(verified):
    """The Gibbs label chain is no better than i.i.d. sampling, and its
    lag covariances are nonnegative."""
    items, _ = verified
    rng = np.random.default_rng(SPEC_SEED + 2)
    worst_gap = np.inf
    worst_cov = np.inf
    for item in items:
        spec = item["spec"]
        pim = index_marginal(spec)
        G = build_gibbs_index_kernel(spec)
        hs = np.vstack([np.eye(spec.n), rng.standard_normal((5, spec.n))])
        s2, viid = check_gibbs_iid_bound(spec, hs)
        worst_gap = min(worst_gap, float(np.min(s2 - viid)))
        for h in hs:
            cov = lag_covariances(G, pim, h, 200)
            worst_cov = min(worst_cov, float(np.min(cov)))
    assert worst_gap >= -1e-10
    assert worst_cov >= -1e-12
    print(
        f"PASS criterion 5: Gibbs >= iid on {N_SPECS} specs "
        f"(worst gap {worst_gap:.2e} >= -1e-10, "
        f"min lag covariance {worst_cov:.2e} >= -1e-12, lags <= 200)"
    )


def _exact_label_references(bundle, half_width, sampler_ids, G=401):
    """Per sampler, the exact lag-1 autocorrelation and asymptotic variance
    of 1{m = 1}, and the exact asymptotic variance of z, from its sweep
    kernel, with the study's target, pseudo-prior and proposal discretised
    on G points of [-half_width, half_width]."""
    grid = np.linspace(-half_width, half_width, G)
    spec = spec_from_log_densities(
        2, grid, bundle.target.log_density, bundle.pseudo.log_density, bundle.proposal
    )
    pi, f = target_distribution(spec), np.repeat([1.0, 0.0], G)
    fs = np.vstack([f, np.tile(grid, 2)])  # 1{m = 1} and z, lifted to the states
    out = {}
    for sid in sampler_ids:
        K = sweep_kernel(SamplerId(sid), spec)
        cov = lag_covariances(K, pi, f, 1)
        sigma2, sigma2_z = exact_asymptotic_variance_alternating(K, K, pi, fs)
        out[sid] = float(cov[1] / cov[0]), float(sigma2), float(sigma2_z)
    return out


def _lag1_deviations(lag1, exact):
    """|replicate mean - exact lag-1| in standard errors of the mean, per
    sampler; each must be within 3."""
    devs = {}
    for sid, (rho_exact, _, _) in exact.items():
        reps = len(lag1[sid])
        se = float(np.std(lag1[sid], ddof=1)) / math.sqrt(reps)
        dev = abs(float(np.mean(lag1[sid])) - rho_exact)
        assert dev <= 3.0 * se, (sid, dev, se, rho_exact)
        devs[sid] = dev / se
    return devs


def _exact_summary(exact, devs, ordered):
    """The PASS-line text of the exact lag-1 checks and of the sigma^2
    orderings of the samplers ``ordered``, which the caller asserted."""
    lag1 = ", ".join(
        f"{sid.upper()} {exact[sid][0]:.5f} within {devs[sid]:.2f}" for sid in exact
    )
    s2 = " <= ".join(f"{sid.upper()} {exact[sid][1]:.3f}" for sid in ordered)
    s2_z = " <= ".join(f"{sid.upper()} {exact[sid][2]:.4g}" for sid in ordered)
    return (
        f"exact lag-1 {lag1} s.e. <= 3; exact sigma^2 of 1{{m = 1}} {s2}; "
        f"exact sigma^2 of z {s2_z}"
    )


def test_criterion_6_toy_study(toy_report):
    """Gaussian strata at full size: lag-1 label autocorrelations are
    ordered Gibbs >= CC >= MCC >= FCC up to replicate noise, and the
    Gibbs value matches the exact grid computation.  CC, MCC and FCC
    match their exact lag-1 values, which are equal, and their exact
    asymptotic variances of 1{m = 1} and of z are ordered CC <= MCC <= FCC."""
    report, elapsed = toy_report
    reps = len(report.results["gibbs"].lag1_m)
    lag1 = {s: np.asarray(report.results[s].lag1_m) for s in report.results}
    order = ["gibbs", "cc", "mcc", "fcc"]
    gaps = []
    for a, b in zip(order, order[1:]):
        gap = float(lag1[a].mean() - lag1[b].mean())
        se = math.sqrt(lag1[a].var(ddof=1) / reps + lag1[b].var(ddof=1) / reps)
        assert gap >= -2.0 * se, (a, b, gap, se)
        gaps.append(gap / se if se > 0 else math.inf)

    bundle = toy_model()
    spec = spec_from_log_densities(
        2,
        np.linspace(-4.0, 4.0, 2001),
        bundle.target.log_density,
        bundle.pseudo.log_density,
    )
    h = np.arange(1.0, 3.0)
    cov = lag_covariances(build_gibbs_index_kernel(spec), index_marginal(spec), h, 1)
    rho_exact = float(cov[1] / cov[0])
    se_g = float(lag1["gibbs"].std(ddof=1)) / math.sqrt(reps)
    dev = abs(float(lag1["gibbs"].mean()) - rho_exact)
    assert dev <= 3.0 * se_g
    assert elapsed < 300.0

    exact = _exact_label_references(bundle, 4.0, ("cc", "mcc", "fcc"))
    devs = _lag1_deviations(lag1, exact)
    assert exact["cc"][1] <= exact["mcc"][1] <= exact["fcc"][1]
    assert exact["cc"][2] <= exact["mcc"][2] <= exact["fcc"][2]
    print(
        f"PASS criterion 6: toy study ({reps} x 101k iterations, {elapsed:.0f}s "
        f"< 300s); lag-1 ordering gaps {['%.2f' % g for g in gaps]} s.e. >= -2; "
        f"Gibbs lag-1 within {dev / se_g if se_g else 0:.2f} s.e. of exact "
        f"{rho_exact:.5f}; {_exact_summary(exact, devs, ('cc', 'mcc', 'fcc'))}"
    )


def test_toy_references_are_converged_in_the_grid_width():
    """Criterion 6's exact sigma^2 on [-4, 4] against [-6, 6] at the same
    step 0.02: cutting the toy's tails at 4 moves no sweep kernel's sigma^2
    of 1{m = 1} or of z by more than 5e-4 relative."""
    order = ("gibbs", "cc", "mcc", "fcc")
    narrow = _exact_label_references(toy_model(), 4.0, order)
    wide = _exact_label_references(toy_model(), 6.0, order, G=601)
    values = []
    for sid in order:
        for i, name in ((1, "1{m = 1}"), (2, "z")):
            gap = abs(narrow[sid][i] / wide[sid][i] - 1.0)
            assert gap <= 5e-4, (sid, name, narrow[sid][i], wide[sid][i])
            pair = f"{narrow[sid][i]:.7g} / {wide[sid][i]:.7g}"
            values.append(f"{sid.upper()} {name} {pair}")
    print(f"PASS toy grid width: exact sigma^2 on +-4 / +-6 {'; '.join(values)}")


def test_criterion_7_posterior_study(posterior_report):
    """Partially observed mixture at full size: correct posterior mean,
    a clear mixing gain of FCC over MwG, lower cost than MCC, and a
    density estimate within the agreement budget.  MwG, MCC and FCC match
    their exact lag-1 values, and the exact asymptotic variances of
    1{m = 1} and of z are ordered MCC <= FCC."""
    report = posterior_report
    for name in ("mwg", "mcc", "fcc"):
        assert abs(report.results[name].mean_z - 0.315) <= 0.02, name
    lag_gap = float(
        report.results["mwg"].acf_m[1] - report.results["fcc"].acf_m[1]
    )
    assert lag_gap >= 0.1
    assert (
        report.results["fcc"].wall_clock_seconds
        < report.results["mcc"].wall_clock_seconds
    )
    sup = float(np.max(np.abs(report.density_kde - report.density_exact)))
    assert sup < 0.05

    exact = _exact_label_references(posterior_model(), 3.0, ("mwg", "mcc", "fcc"))
    lag1 = {s: report.results[s].lag1_m for s in exact}
    devs = _lag1_deviations(lag1, exact)
    assert exact["mcc"][1] <= exact["fcc"][1]
    assert exact["mcc"][2] <= exact["fcc"][2]
    print(
        f"PASS criterion 7: posterior study (means within 0.315 +/- 0.02; "
        f"MwG-FCC lag-1 gap {lag_gap:.3f} >= 0.1; median wallclock FCC "
        f"{report.results['fcc'].wall_clock_seconds:.2f}s < MCC "
        f"{report.results['mcc'].wall_clock_seconds:.2f}s; density sup-dev "
        f"{sup:.3f} < 0.05; {_exact_summary(exact, devs, ('mcc', 'fcc'))}, "
        f"MWG {exact['mwg'][2]:.4g})"
    )


def _counted(bundle, counts):
    """The bundle with every model callback counting in ``counts`` the
    points it evaluates or draws: a density its block's length (one for a
    single point), a block sampler its size, a proposal callback one.  An
    independence proposal's rho counts its points as proposal points,
    unless it is the pseudo-prior itself: then it stays the wrapped
    pseudo-prior, so ``proposal.rho is pseudo`` holds as it did."""

    def wrap(name, fn, points):
        def counted(*args):
            counts[name] += points(*args)
            return fn(*args)

        return counted

    block_ndim = 1 if bundle.target.z_dim == 1 else 2

    def evaluated(j, x):  # a block, or one point
        return len(x) if np.ndim(x) == block_ndim else 1

    def drawn(j, rng, size):
        return size

    def one(*args):
        return 1

    target, pseudo, proposal = bundle.target, bundle.pseudo, bundle.proposal
    if target.conditional_sampler is not None:
        target = replace(
            target,
            conditional_sampler=wrap("conditional", target.conditional_sampler, drawn),
        )
    rho, counted_pseudo = proposal.rho, replace(
        pseudo,
        log_density=wrap("pseudo", pseudo.log_density, evaluated),
        sampler=wrap("pseudo_draw", pseudo.sampler, drawn),
    )
    if rho is pseudo:
        rho = counted_pseudo
    elif rho is not None:
        rho = replace(
            rho,
            log_density=wrap("proposal", rho.log_density, evaluated),
            sampler=wrap("proposal_draw", rho.sampler, drawn),
        )
    return ModelBundle(
        replace(target, log_density=wrap("target", target.log_density, evaluated)),
        counted_pseudo,
        replace(
            proposal,
            log_density=wrap("proposal", proposal.log_density, one),
            sampler=wrap("proposal_draw", proposal.sampler, one),
            rho=rho,
        ),
    )


@pytest.mark.parametrize("model", [toy_model, posterior_model])
def test_fcc_makes_fewer_model_calls_than_mcc(model):
    """The cost side of criterion 7 without a timing race: per step, FCC
    evaluates and draws fewer points of the model than MCC."""
    n_steps = 2000
    per_step = {}
    for sid in (SamplerId.MCC, SamplerId.FCC):
        counts = Counter()
        bundle = _counted(model(), counts)
        config = SamplerConfig(
            sid, n_iterations=n_steps, burn_in=0, seed=7, initial_state=State(1, -1.0)
        )
        run_chain(config, bundle)
        per_step[sid] = sum(counts.values()) / n_steps
    assert per_step[SamplerId.FCC] < per_step[SamplerId.MCC], per_step


def _paired_outputs(bundle, stepper_a, stepper_b, n, seed):
    ms, zs = sample_toy_exact(n, np.random.default_rng(seed))
    out = {"a": ([], []), "b": ([], [])}
    rng_a = np.random.default_rng(seed + 1)
    rng_b = np.random.default_rng(seed + 2)
    for m, z in zip(ms, zs):
        state = State(int(m), float(z))
        for key, stepper, rng in (("a", stepper_a, rng_a), ("b", stepper_b, rng_b)):
            new = stepper(state, rng)
            out[key][0].append(new.m)
            out[key][1].append(new.z)
    return {k: (np.array(v[0]), np.array(v[1])) for k, v in out.items()}


def _two_sample_indistinguishable(a, b):
    m_a, z_a = a
    m_b, z_b = b
    table = np.array(
        [np.bincount(m_a, minlength=3)[1:], np.bincount(m_b, minlength=3)[1:]]
    )
    p_m = stats.chi2_contingency(table).pvalue
    p_z = stats.ks_2samp(z_a, z_b).pvalue
    return p_m, p_z


def test_criterion_8_collapse_identities(toy_bundle):
    """MCC collapses to FCC under the stay-put proposal and to CC under
    the exact-conditional proposal (two-sample tests at level 0.999 on
    10^5 paired steps)."""
    n = 100_000
    target, pseudo = toy_bundle.target, toy_bundle.pseudo

    delta = ProposalFamily(
        n=2, log_density=lambda l, u, z: 0.0, sampler=lambda l, u, rng: u
    )
    bundle = ModelBundle(target, pseudo, delta)
    res = _paired_outputs(
        toy_bundle,
        lambda s, r: step(SamplerId.MCC, bundle, s, r)[0],
        lambda s, r: step(SamplerId.FCC, bundle, s, r)[0],
        n,
        seed=8001,
    )
    p_m1, p_z1 = _two_sample_indistinguishable(res["a"], res["b"])
    assert p_m1 > 0.001 and p_z1 > 0.001

    conditional = ProposalFamily(
        n=2,
        log_density=lambda l, u, z: float(target.log_density(l, np.array([z]))[0]),
        sampler=lambda l, u, rng: target.conditional_sampler(l, rng, 1)[0],
    )
    bundle = ModelBundle(target, pseudo, conditional)
    res = _paired_outputs(
        toy_bundle,
        lambda s, r: step(SamplerId.MCC, bundle, s, r)[0],
        lambda s, r: step(SamplerId.CC, bundle, s, r)[0],
        n,
        seed=8101,
    )
    p_m2, p_z2 = _two_sample_indistinguishable(res["a"], res["b"])
    assert p_m2 > 0.001 and p_z2 > 0.001
    print(
        f"PASS criterion 8: collapse identities on {n} paired steps "
        f"(MCC+delta vs FCC p=({p_m1:.3f}, {p_z1:.3f}); "
        f"MCC+conditional vs CC p=({p_m2:.3f}, {p_z2:.3f}); all > 0.001)"
    )


def test_criterion_9_optimal_pseudo_priors():
    """With pseudo-priors equal to the exact conditionals the index
    weights are uniform to near machine precision and the CC label
    sequence is i.i.d."""
    bundle = optimal_toy_bundle()
    rng = np.random.default_rng(9001)
    worst = 0.0
    for _ in range(1000):
        u = tuple(rng.uniform(-3.0, 3.0, size=2))
        w = cc_index_weights(bundle.target, bundle.pseudo, u)
        worst = max(worst, float(np.max(np.abs(w - 0.5))))
    assert worst <= 1e-13

    n = 100_000
    state = State(1, -1.0)
    labels = np.empty(n, dtype=int)
    chain_rng = np.random.default_rng(9002)
    for i in range(n):
        state, _ = step(SamplerId.CC, bundle, state, chain_rng)
        labels[i] = state.m
    p_freq = chi2_pvalue(np.bincount(labels, minlength=3)[1:], [0.5, 0.5])
    z_runs = runs_test_zscore(labels)
    assert p_freq > 0.001
    assert abs(z_runs) <= 3.2905  # two-sided level 0.999
    print(
        f"PASS criterion 9: optimal pseudo-priors (weights within {worst:.2e} "
        f"<= 1e-13 of 1/2 on 1000 points; label chain i.i.d.: frequency "
        f"p={p_freq:.3f} > 0.001, runs-test |z|={abs(z_runs):.2f} <= 3.29)"
    )
