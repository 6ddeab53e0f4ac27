"""End-to-end numerical studies: Gaussian strata and a partially observed mixture.

Both studies use a two-component Gaussian mixture with means (-1, 1)
and variance 0.2.  The first samples the mixture directly and compares
Gibbs, CC, MCC and FCC; the second targets the posterior given a noisy
observation of Z^2 (no exact conditional sampling possible) and
compares MwG, MCC and FCC against quadrature ground truth.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .diagnostics import ConstantSeries, acf, kde
from .model import MixtureTarget, ProposalFamily, PseudoPriorSet, State, _call
from .samplers import ModelBundle, SamplerConfig, SamplerId, run_chain

__all__ = [
    "SamplerResult",
    "ExperimentReport",
    "toy_model",
    "posterior_target",
    "posterior_model",
    "true_posterior",
    "run_toy_experiment",
    "run_posterior_experiment",
    "default_initial_state",
    "TOY_MEANS",
    "TOY_VAR",
    "TOY_PSEUDO_MEANS",
    "TOY_PSEUDO_VARS",
    "POSTERIOR_WEIGHTS",
    "POSTERIOR_NOISE_VAR",
    "POSTERIOR_X_OBS",
    "POSTERIOR_KDE_BANDWIDTH",
    "DEFAULT_DENSITY_GRID_STEP",
]


TOY_MEANS = (-1.0, 1.0)
TOY_VAR = 0.2
TOY_PSEUDO_MEANS = (-0.5, 0.5)
TOY_PSEUDO_VARS = (0.15, 0.25)

POSTERIOR_WEIGHTS = (0.25, 0.75)
POSTERIOR_NOISE_VAR = 0.1
POSTERIOR_X_OBS = 0.4

# Bandwidth used for the posterior-density estimate.  Silverman's rule
# oversmooths this sharply bimodal marginal (the rule's bias alone
# exceeds the 0.05 agreement budget), so a smaller fixed value is used
# and the estimate pools the replicate traces.
POSTERIOR_KDE_BANDWIDTH = 0.035

DEFAULT_DENSITY_GRID_STEP = 0.005
_LOG_HALF = math.log(0.5)


def _norm_consts(variances) -> tuple[tuple, tuple]:
    """(const, two_var) per variance, where
    log N(z; mu, var) = const - (z-mu)**2 / two_var."""
    const = tuple(-0.5 * math.log(2.0 * math.pi * v) for v in variances)
    return const, tuple(2.0 * v for v in variances)


def _gaussian_pseudo(means, variances) -> PseudoPriorSet:
    sds = tuple(math.sqrt(v) for v in variances)
    const, two_var = _norm_consts(variances)

    # Elementwise numpy expressions: a block of points in gives a block
    # out, and one float in gives one float out.  Squares are products,
    # which round alike on floats and arrays (x ** 2 on a float calls
    # pow, which does not always round as x * x does).
    def log_density(j, u):
        d = u - means[j - 1]
        return const[j - 1] - d * d / two_var[j - 1]

    def sampler(j, rng, size):
        return rng.normal(means[j - 1], sds[j - 1], size)

    return PseudoPriorSet(n=len(means), log_density=log_density, sampler=sampler)


def toy_model(pseudo_var_scale: float = 1.0) -> ModelBundle:
    """The Gaussian-strata study: pi*(m, z) = 0.5 N(z; mu_m, 0.2), with
    the pseudo-priors N(TOY_PSEUDO_MEANS, TOY_PSEUDO_VARS) as independence
    proposals.  ``pseudo_var_scale``, finite and > 0, scales the
    pseudo-prior variances for robustness checks.
    """
    if not 0 < pseudo_var_scale < math.inf:
        raise ValueError(
            f"pseudo_var_scale must be finite and > 0, got {pseudo_var_scale}"
        )
    sd = math.sqrt(TOY_VAR)
    (const,), (two_var,) = _norm_consts((TOY_VAR,))
    const += _LOG_HALF

    def log_density(m, z):
        d = z - TOY_MEANS[m - 1]
        return const - d * d / two_var

    def conditional_sampler(m, rng, size):
        return rng.normal(TOY_MEANS[m - 1], sd, size)

    target = MixtureTarget(
        n=2, z_dim=1, log_density=log_density, conditional_sampler=conditional_sampler
    )
    variances = tuple(pseudo_var_scale * v for v in TOY_PSEUDO_VARS)
    pseudo = _gaussian_pseudo(TOY_PSEUDO_MEANS, variances)
    return ModelBundle(target, pseudo, ProposalFamily.independent(pseudo))


def posterior_target() -> MixtureTarget:
    """Unnormalized posterior of (M, Z) given X = x under X = Z^2 + noise,
    with x = POSTERIOR_X_OBS.

    log pi*(m, z) = log alpha_m + log N(z; mu_m, 0.2) + log N(x; z^2, 0.1).
    No exact conditional sampler exists (the observation equation is
    nonlinear in z).
    """
    consts = _norm_consts((TOY_VAR, POSTERIOR_NOISE_VAR))
    (const, lik_const), (two_var, lik_two_var) = consts
    # log alpha_m plus both normalizing constants, folded into one term.
    label_const = tuple(math.log(a) + const + lik_const for a in POSTERIOR_WEIGHTS)
    x = POSTERIOR_X_OBS

    def log_density(m, z):
        d, e = z - TOY_MEANS[m - 1], x - z * z
        return label_const[m - 1] - d * d / two_var - e * e / lik_two_var

    return MixtureTarget(n=2, z_dim=1, log_density=log_density)


def posterior_model() -> ModelBundle:
    """Posterior target with prior-conditional pseudo-priors and proposals."""
    pseudo = _gaussian_pseudo(TOY_MEANS, (TOY_VAR, TOY_VAR))
    return ModelBundle(posterior_target(), pseudo, ProposalFamily.independent(pseudo))


def _posterior_marginal_unnorm(z: np.ndarray) -> np.ndarray:
    """Unnormalized z-marginal of the posterior, sum_m pi*(m, z), vectorized over z."""
    target = posterior_target()
    return sum(np.exp(target.log_density(m, z)) for m in range(1, target.n + 1))


def _simpson(values: np.ndarray, step: float) -> float:
    # Composite Simpson rule; len(values) must be odd.
    return (
        step
        / 3.0
        * float(
            values[0]
            + values[-1]
            + 4.0 * values[1:-1:2].sum()
            + 2.0 * values[2:-1:2].sum()
        )
    )


def _density_grid() -> np.ndarray:
    """The grid of the posterior density: [-3, 3] in steps of
    DEFAULT_DENSITY_GRID_STEP."""
    step = DEFAULT_DENSITY_GRID_STEP
    return np.arange(-3.0, 3.0 + step / 2, step)


def true_posterior(grid: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
    """Quadrature ground truth: posterior mean of z and density on ``grid``.

    One composite Simpson pass with 4800 intervals over the fixed domain
    [-3, 3] (the mass outside is below 1e-12) of the fixed integrands
    sum_m pi*(m, z) and z times it.  The integrands never change, so the
    rule is checked once, by ``test_simpson_passes_agree`` in
    ``tests/test_experiments.py``: against 2400 intervals, both
    Richardson error estimates are at most 1e-8.
    """
    if grid is None:
        grid = _density_grid()
    z = np.linspace(-3.0, 3.0, 4801)
    p = _posterior_marginal_unnorm(z)
    step = z[1] - z[0]
    norm = _simpson(p, step)
    mu_z = _simpson(z * p, step) / norm
    density = _posterior_marginal_unnorm(np.asarray(grid, dtype=float)) / norm
    return mu_z, density


@dataclass
class SamplerResult:
    acf_m: np.ndarray  # lags 0..DEFAULT_MAX_LAG
    acf_z: np.ndarray
    mean_z: float
    acceptance_rate: Optional[float]
    wall_clock_seconds: float
    wall_clocks: list[float] = field(default_factory=list)
    lag1_m: list[float] = field(default_factory=list)


@dataclass
class ExperimentReport:
    experiment: str
    seed: int
    n_iterations: int
    burn_in: int
    results: dict[str, SamplerResult]
    mu_z_true: Optional[float] = None
    density_grid: Optional[np.ndarray] = None
    density_exact: Optional[np.ndarray] = None
    density_kde: Optional[np.ndarray] = None


def default_initial_state(bundle: ModelBundle, seed: int) -> State:
    """m = 1 with z drawn from the first pseudo-prior (own RNG stream), else
    from the first exact conditional, else z = 0 of the target's shape.  A
    sampler that breaks the callback protocol raises ConfigError naming it."""
    rng = np.random.default_rng([seed, 1])
    target, z_dim = bundle.target, bundle.target.z_dim
    shape = (1,) if z_dim == 1 else (1, z_dim)
    if bundle.pseudo is not None:
        z0 = _call("pseudo.sampler", bundle.pseudo.sampler, (1, rng, 1), shape)[0]
    elif target.conditional_sampler is not None:
        draw = target.conditional_sampler
        z0 = _call("target.conditional_sampler", draw, (1, rng, 1), shape)[0]
    else:
        z0 = 0.0 if z_dim == 1 else np.zeros(z_dim)
    return State(1, z0)


def _run_study(
    experiment: str,
    bundle: ModelBundle,
    sampler_ids: tuple[SamplerId, ...],
    *,
    seed: int,
    n_iter: int,
    burn_in: int,
    replicates: int,
) -> tuple[ExperimentReport, np.ndarray]:
    """Run each sampler's replicates (seeds seed, seed + 1, ...).

    Returns the report and FCC's pooled z; every other trace is dropped
    once its sampler's result is made.  A chain that never moves after
    burn-in has no ACF, and its ``ConstantSeries`` names the sampler.
    ValueError, before any draw, if ``replicates`` < 1 or ``seed`` < 0.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    results = {}
    for sid in sampler_ids:
        traces = []
        for rep in range(replicates):
            config = SamplerConfig(
                sampler_id=sid,
                n_iterations=n_iter,
                burn_in=burn_in,
                seed=seed + rep,
                initial_state=default_initial_state(bundle, seed + rep),
            )
            traces.append(run_chain(config, bundle))
        try:
            lag1 = [float(acf(t.m, 1)[1]) for t in traces]
            acf_m = acf(traces[0].m)
            acf_z = acf(traces[0].z)
        except ConstantSeries as exc:
            raise ConstantSeries(f"sampler {sid.value}: {exc}") from exc
        wall_clocks = [t.wall_clock_seconds for t in traces]
        results[sid.value] = SamplerResult(
            acf_m=acf_m,
            acf_z=acf_z,
            mean_z=float(np.mean(traces[0].z)),
            acceptance_rate=traces[0].acceptance_rate,
            wall_clock_seconds=statistics.median(wall_clocks),
            wall_clocks=wall_clocks,
            lag1_m=lag1,
        )
        if sid is SamplerId.FCC:
            fcc_z = np.concatenate([t.z for t in traces])
    report = ExperimentReport(
        experiment=experiment,
        seed=seed,
        n_iterations=n_iter,
        burn_in=burn_in,
        results=results,
    )
    return report, fcc_z


def run_toy_experiment(
    *, seed: int, n_iter: int, burn_in: int, replicates: int
) -> ExperimentReport:
    """Gaussian strata: Gibbs, CC, MCC and FCC with the study's pseudo-priors."""
    report, _ = _run_study(
        "toy",
        toy_model(),
        (SamplerId.GIBBS, SamplerId.CC, SamplerId.MCC, SamplerId.FCC),
        seed=seed,
        n_iter=n_iter,
        burn_in=burn_in,
        replicates=replicates,
    )
    return report


def run_posterior_experiment(
    *, seed: int, n_iter: int, burn_in: int, replicates: int
) -> ExperimentReport:
    """Partially observed mixture: MwG, MCC, FCC vs quadrature ground truth."""
    report, fcc_z = _run_study(
        "posterior",
        posterior_model(),
        (SamplerId.MWG, SamplerId.MCC, SamplerId.FCC),
        seed=seed,
        n_iter=n_iter,
        burn_in=burn_in,
        replicates=replicates,
    )
    grid = _density_grid()
    report.mu_z_true, report.density_exact = true_posterior(grid)
    report.density_grid = grid
    # The estimate pools FCC's replicates: one trace leaves the
    # sup-deviation of the estimate right at the agreement budget.
    report.density_kde = kde(fcc_z, grid, bandwidth=POSTERIOR_KDE_BANDWIDTH)
    return report
