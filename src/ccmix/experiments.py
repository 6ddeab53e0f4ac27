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

from .diagnostics import DEFAULT_MAX_LAG, AcfEstimate, acf, kde
from .model import MixtureTarget, ProposalFamily, PseudoPriorSet, State
from .samplers import ChainTrace, ModelBundle, SamplerConfig, SamplerId, run_chain

__all__ = [
    "SamplerResult",
    "ExperimentReport",
    "QuadratureNotConverged",
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


class QuadratureNotConverged(RuntimeError):
    pass


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
    """(const, two_var) per variance: log N(z; mu, var) = const - (z-mu)**2 / two_var."""
    const = tuple(-0.5 * math.log(2.0 * math.pi * v) for v in variances)
    return const, tuple(2.0 * v for v in variances)


def _gaussian_pseudo(means, variances) -> PseudoPriorSet:
    sds = tuple(math.sqrt(v) for v in variances)
    const, two_var = _norm_consts(variances)

    # Elementwise numpy expressions: a block of points in gives a block
    # out, and one float in (size=None) gives one float out.  Squares are
    # products, which round alike on floats and arrays (x ** 2 on a float
    # calls pow, which does not always round as x * x does).
    def log_density(j, u):
        d = u - means[j - 1]
        return const[j - 1] - d * d / two_var[j - 1]

    def sampler(j, rng, size=None):
        return rng.normal(means[j - 1], sds[j - 1], size)

    return PseudoPriorSet(n=len(means), log_density=log_density, sampler=sampler)


def _independence_proposal(pseudo: PseudoPriorSet) -> ProposalFamily:
    """R_l(u, dz) = rho_l(dz): the proposal ignores the current point.

    It calls the Gaussian pseudo-prior callbacks with one float at a time.
    """
    return ProposalFamily(
        n=pseudo.n,
        log_density=lambda l, u, z: pseudo.log_density(l, z),
        sampler=lambda l, u, rng: pseudo.sampler(l, rng),
    )


def toy_model(
    optimal_pseudo: bool = False, pseudo_var_scale: float = 1.0
) -> ModelBundle:
    """The Gaussian-strata study: pi*(m, z) = 0.5 N(z; mu_m, 0.2).

    With ``optimal_pseudo`` the pseudo-priors equal the exact
    conditionals N(mu_m, 0.2), in which case the CC sweep draws the
    index i.i.d. from its marginal.  ``pseudo_var_scale`` perturbs the
    pseudo-prior variances for robustness checks.
    """
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
    if optimal_pseudo:
        pseudo = _gaussian_pseudo(TOY_MEANS, (TOY_VAR, TOY_VAR))
    else:
        variances = tuple(pseudo_var_scale * v for v in TOY_PSEUDO_VARS)
        pseudo = _gaussian_pseudo(TOY_PSEUDO_MEANS, variances)
    return ModelBundle(target, pseudo, _independence_proposal(pseudo))


def posterior_target(x_obs: float = POSTERIOR_X_OBS) -> MixtureTarget:
    """Unnormalized posterior of (M, Z) given X = x_obs under X = Z^2 + noise.

    log pi*(m, z) = log alpha_m + log N(z; mu_m, 0.2) + log N(x; z^2, 0.1).
    No exact conditional sampler exists (the observation equation is
    nonlinear in z).
    """
    consts = _norm_consts((TOY_VAR, POSTERIOR_NOISE_VAR))
    (const, lik_const), (two_var, lik_two_var) = consts
    # log alpha_m plus both normalizing constants, folded into one term.
    label_const = tuple(math.log(a) + const + lik_const for a in POSTERIOR_WEIGHTS)

    def log_density(m, z):
        d, e = z - TOY_MEANS[m - 1], x_obs - z * z
        return label_const[m - 1] - d * d / two_var - e * e / lik_two_var

    return MixtureTarget(n=2, z_dim=1, log_density=log_density)


def posterior_model(x_obs: float = POSTERIOR_X_OBS) -> ModelBundle:
    """Posterior target with prior-conditional pseudo-priors and proposals."""
    pseudo = _gaussian_pseudo(TOY_MEANS, (TOY_VAR, TOY_VAR))
    return ModelBundle(posterior_target(x_obs), pseudo, _independence_proposal(pseudo))


def _posterior_marginal_unnorm(z: np.ndarray, x_obs: float) -> np.ndarray:
    """Unnormalized z-marginal of the posterior, sum_m pi*(m, z), vectorized over z."""
    target = posterior_target(x_obs)
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


def true_posterior(
    x_obs: float = POSTERIOR_X_OBS,
    grid: Optional[np.ndarray] = None,
    quad_tol: float = 1e-8,
) -> tuple[float, np.ndarray]:
    """Quadrature ground truth: posterior mean of z and density on ``grid``.

    Composite Simpson on [-3, 3]; the step is halved once and the
    Richardson error estimate must fall below ``quad_tol``.  The mass
    outside [-3, 3] is below 1e-12 for these parameters (Gaussian
    tails), so the domain is fixed.
    """
    if grid is None:
        grid = np.arange(-3.0, 3.0 + DEFAULT_DENSITY_GRID_STEP / 2,
                         DEFAULT_DENSITY_GRID_STEP)
    results = []
    for n_intervals in (2400, 4800):
        z = np.linspace(-3.0, 3.0, n_intervals + 1)
        p = _posterior_marginal_unnorm(z, x_obs)
        step = z[1] - z[0]
        norm = _simpson(p, step)
        first = _simpson(z * p, step)
        results.append((norm, first))
    (n1, f1), (n2, f2) = results
    if abs(n1 - n2) / 15.0 > quad_tol or abs(f1 - f2) / 15.0 > quad_tol:
        raise QuadratureNotConverged(
            f"Richardson estimates {abs(n1 - n2) / 15:g}, {abs(f1 - f2) / 15:g} "
            f"exceed {quad_tol:g}"
        )
    mu_z = f2 / n2
    density = _posterior_marginal_unnorm(np.asarray(grid, dtype=float), x_obs) / n2
    return mu_z, density


@dataclass
class SamplerResult:
    sampler_id: str
    acf_m: AcfEstimate
    acf_z: AcfEstimate
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
    """m = 1 with z drawn from the first pseudo-prior (own RNG stream)."""
    rng = np.random.default_rng([seed, 1])
    if bundle.pseudo is not None:
        z0 = bundle.pseudo.sampler(1, rng, 1)[0]
    elif bundle.target.conditional_sampler is not None:
        z0 = bundle.target.conditional_sampler(1, rng, 1)[0]
    else:
        z0 = 0.0
    return State(1, z0)


def _run_sampler_replicates(
    bundle: ModelBundle,
    sampler_id: SamplerId,
    seed: int,
    n_iterations: int,
    burn_in: int,
    replicates: int,
    max_lag: int = DEFAULT_MAX_LAG,
) -> tuple[SamplerResult, list[ChainTrace]]:
    wall_clocks = []
    lag1 = []
    traces = []
    for rep in range(replicates):
        rep_seed = seed + rep
        config = SamplerConfig(
            sampler_id=sampler_id,
            n_iterations=n_iterations,
            burn_in=burn_in,
            seed=rep_seed,
            initial_state=default_initial_state(bundle, rep_seed),
        )
        trace = run_chain(config, bundle)
        wall_clocks.append(trace.wall_clock_seconds)
        lag1.append(float(acf(trace.m, 1).values[1]))
        traces.append(trace)
    first_trace = traces[0]
    result = SamplerResult(
        sampler_id=sampler_id.value,
        acf_m=acf(first_trace.m, max_lag),
        acf_z=acf(first_trace.z, max_lag),
        mean_z=float(np.mean(first_trace.z)),
        acceptance_rate=first_trace.acceptance_rate,
        wall_clock_seconds=statistics.median(wall_clocks),
        wall_clocks=wall_clocks,
        lag1_m=lag1,
    )
    return result, traces


def run_toy_experiment(
    seed: int = 42,
    n_iter: int = 101_000,
    burn_in: int = 1000,
    replicates: int = 10,
) -> ExperimentReport:
    """Gaussian strata: Gibbs, CC, MCC and FCC with the study's pseudo-priors."""
    bundle = toy_model()
    results = {}
    for sid in (SamplerId.GIBBS, SamplerId.CC, SamplerId.MCC, SamplerId.FCC):
        result, _ = _run_sampler_replicates(
            bundle, sid, seed, n_iter, burn_in, replicates
        )
        results[sid.value] = result
    return ExperimentReport(
        experiment="toy",
        seed=seed,
        n_iterations=n_iter,
        burn_in=burn_in,
        results=results,
    )


def run_posterior_experiment(
    seed: int = 42,
    n_iter: int = 101_000,
    burn_in: int = 1000,
    replicates: int = 5,
    kde_bandwidth: float = POSTERIOR_KDE_BANDWIDTH,
) -> ExperimentReport:
    """Partially observed mixture: MwG, MCC, FCC vs quadrature ground truth."""
    bundle = posterior_model()
    mu_z, density_exact = true_posterior()
    grid = np.arange(
        -3.0, 3.0 + DEFAULT_DENSITY_GRID_STEP / 2, DEFAULT_DENSITY_GRID_STEP
    )
    results = {}
    fcc_samples = None
    for sid in (SamplerId.MWG, SamplerId.MCC, SamplerId.FCC):
        result, traces = _run_sampler_replicates(
            bundle, sid, seed, n_iter, burn_in, replicates
        )
        results[sid.value] = result
        if sid is SamplerId.FCC:
            # Pool the replicates: one trace leaves the sup-deviation of
            # the estimate right at the agreement budget.
            fcc_samples = np.concatenate([t.z for t in traces])
    density_kde = kde(fcc_samples, grid, bandwidth=kde_bandwidth)
    return ExperimentReport(
        experiment="posterior",
        seed=seed,
        n_iterations=n_iter,
        burn_in=burn_in,
        results=results,
        mu_z_true=mu_z,
        density_grid=grid,
        density_exact=density_exact,
        density_kde=density_kde,
    )
