"""Shared statistical helpers for the test suite."""

import math

import numpy as np
import pytest
from scipy import stats

from ccmix import MixtureTarget, ModelBundle, ProposalFamily, PseudoPriorSet
from ccmix.experiments import (
    POSTERIOR_NOISE_VAR,
    POSTERIOR_WEIGHTS,
    POSTERIOR_X_OBS,
    TOY_MEANS,
    TOY_VAR,
)
from ccmix.oracle import FiniteMixtureSpec

CHI2_LEVEL = 0.001  # tests run at confidence level 0.999


def pytest_terminal_summary(terminalreporter):
    """Echo one PASS/FAIL line per acceptance criterion in the summary."""
    import re

    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if not m or getattr(rep, "when", "call") != "call":
                continue
            k = int(m.group(1))
            if outcome == "passed":
                printed = [
                    ln
                    for ln in rep.capstdout.splitlines()
                    if ln.startswith(f"PASS criterion {k}")
                ]
                lines.append((k, printed[0] if printed else f"PASS criterion {k}"))
            else:
                lines.append((k, f"FAIL criterion {k}: {nodeid}"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)


def chi2_statistic(counts, probs):
    """Pearson's statistic and its degrees of freedom; bins with
    expectation < 5 are pooled."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    expected = counts.sum() * probs
    order = np.argsort(expected)
    counts, expected = counts[order], expected[order]
    while len(expected) > 1 and expected[0] < 5.0:
        counts[1] += counts[0]
        expected[1] += expected[0]
        counts, expected = counts[1:], expected[1:]
        order = np.argsort(expected)
        counts, expected = counts[order], expected[order]
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, len(expected) - 1


def chi2_pvalue(counts, probs):
    """Goodness-of-fit p-value; bins with expectation < 5 are pooled."""
    stat, df = chi2_statistic(counts, probs)
    return float(stats.chi2.sf(stat, df=df))


def toy_z_cdf(z):
    """CDF of the toy z-marginal, an equal mixture of N(-1, .2) and N(1, .2)."""
    sd = math.sqrt(TOY_VAR)
    z = np.asarray(z, dtype=float)
    return 0.5 * stats.norm.cdf(z, -1.0, sd) + 0.5 * stats.norm.cdf(z, 1.0, sd)


def bin_counts(z, edges):
    """Histogram counts over (-inf, e1], (e1, e2], ..., (ek, inf)."""
    return np.histogram(z, bins=np.concatenate(([-np.inf], edges, [np.inf])))[0]


def cdf_bin_probs(cdf, edges):
    c = np.concatenate(([0.0], cdf(edges), [1.0]))
    return np.diff(c)


def sample_toy_exact(n, rng):
    """Exact draws (m, z) from the toy target."""
    m = rng.integers(0, 2, size=n) + 1
    z = np.asarray(TOY_MEANS)[m - 1] + math.sqrt(TOY_VAR) * rng.standard_normal(n)
    return m, z


def sample_posterior_exact(n, rng):
    """Exact posterior draws by rejection from the prior mixture."""
    g_max = 1.0 / math.sqrt(2.0 * math.pi * POSTERIOR_NOISE_VAR)
    ms, zs = [], []
    while sum(len(b) for b in ms) < n:
        k = 4 * n
        m = (rng.random(k) < POSTERIOR_WEIGHTS[1]).astype(int) + 1
        z = np.asarray(TOY_MEANS)[m - 1] + math.sqrt(TOY_VAR) * rng.standard_normal(k)
        g = np.exp(
            -((POSTERIOR_X_OBS - z * z) ** 2) / (2.0 * POSTERIOR_NOISE_VAR)
        ) * g_max
        keep = rng.random(k) * g_max < g
        ms.append(m[keep])
        zs.append(z[keep])
    return np.concatenate(ms)[:n], np.concatenate(zs)[:n]


def posterior_z_cdf_factory():
    """Numerical CDF of the posterior z-marginal via dense trapezoid sums."""
    from ccmix.experiments import _posterior_marginal_unnorm

    grid = np.linspace(-3.0, 3.0, 24001)
    p = _posterior_marginal_unnorm(grid, POSTERIOR_X_OBS)
    c = np.concatenate(([0.0], np.cumsum((p[1:] + p[:-1]) / 2.0 * np.diff(grid))))
    c /= c[-1]

    def cdf(z):
        return np.interp(z, grid, c)

    return cdf


def runs_test_zscore(labels):
    """Wald-Wolfowitz runs-test z-score for a binary label sequence."""
    x = np.asarray(labels)
    n1 = int((x == x[0]).sum())
    n2 = len(x) - n1
    runs = 1 + int((np.diff(x) != 0).sum())
    n = n1 + n2
    mean = 1.0 + 2.0 * n1 * n2 / n
    var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n) / (n * n * (n - 1))
    return (runs - mean) / math.sqrt(var)


def finite_bundle(spec: FiniteMixtureSpec) -> ModelBundle:
    """Turn a grid spec into a ModelBundle whose z values are the grid atoms."""
    grid = spec.grid
    _g = grid.searchsorted  # grid index of each atom

    with np.errstate(divide="ignore"):
        log_prob, log_pseudo = np.log(spec.prob), np.log(spec.pseudo)
        log_proposal = None if spec.proposal is None else np.log(spec.proposal)

    # Inverse CDF with one uniform per draw, on each row's cumulative
    # masses; an index past the last cumulative sum (rounding) maps to the
    # last atom.
    atoms = np.append(grid, grid[-1])

    def _cdf(w):
        return np.cumsum(w, axis=-1), w.sum(axis=-1)

    cond = spec.prob / spec.prob.sum(axis=1, keepdims=True)
    cond_cdf, pseudo_cdf = _cdf(cond), _cdf(spec.pseudo)

    def _draw(cdf, row, rng, size):
        cum, total = cdf[0][row], cdf[1][row]
        return atoms[cum.searchsorted(rng.random(size) * total, side="right")]

    def target_log_density(m, z):
        return log_prob[m - 1, _g(z)]

    def conditional_sampler(m, rng, size):
        return _draw(cond_cdf, m - 1, rng, size)

    def pseudo_log_density(j, u):
        return log_pseudo[j - 1, _g(u)]

    def pseudo_sampler(j, rng, size):
        return _draw(pseudo_cdf, j - 1, rng, size)

    target = MixtureTarget(
        n=spec.n,
        z_dim=1,
        log_density=target_log_density,
        conditional_sampler=conditional_sampler,
    )
    pseudo = PseudoPriorSet(
        n=spec.n, log_density=pseudo_log_density, sampler=pseudo_sampler
    )
    proposal = None
    if spec.proposal is not None:
        proposal_cdf = _cdf(spec.proposal)

        def proposal_log_density(l, u, z):
            return float(log_proposal[l - 1, _g(u), _g(z)])

        def proposal_sampler(l, u, rng):
            return float(_draw(proposal_cdf, (l - 1, _g(u)), rng, None))

        proposal = ProposalFamily(
            n=spec.n, log_density=proposal_log_density, sampler=proposal_sampler
        )
    return ModelBundle(target, pseudo, proposal)


@pytest.fixture(scope="session")
def toy_bundle():
    from ccmix.experiments import toy_model

    return toy_model()
