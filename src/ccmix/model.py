"""Mixture targets, pseudo-priors, proposals and the shared probability computations.

A mixture target is a (possibly unnormalized) density pi*(m, z) on
{1..n} x Z, where m is a discrete component label and z a continuous
value (a float for one-dimensional problems, an ndarray otherwise).
All probability arithmetic is done in log-space with max-subtraction so
that well-separated modes do not underflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

_NEG_INF = float("-inf")

__all__ = [
    "MixtureTarget",
    "PseudoPriorSet",
    "ProposalFamily",
    "State",
    "AllZeroMass",
    "PseudoPriorZero",
    "InvalidCurrentState",
    "conditional_index_weights",
    "cc_index_weights",
    "mh_log_acceptance",
    "extended_log_density",
    "draw_index",
]


class AllZeroMass(ValueError):
    """Every component has zero target mass at the given point."""


class PseudoPriorZero(ValueError):
    """A pseudo-prior vanishes where the target does not."""


class InvalidCurrentState(ValueError):
    """The current state has zero target or proposal density."""


@dataclass(frozen=True)
class MixtureTarget:
    """Unnormalized density pi*(m, z) on {1..n} x Z.

    ``log_density(m, z)`` may return -inf for zero-mass points but never
    NaN.  ``conditional_sampler(m, rng)``, when present, draws exactly
    from pi*(dz | m); the samplers with an exact refresh (Gibbs and CC)
    require it.
    """

    n: int
    z_dim: int
    log_density: Callable[[int, object], float]
    conditional_sampler: Optional[Callable[[int, np.random.Generator], object]] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("component count must be positive")
        if self.z_dim < 1:
            raise ValueError("z_dim must be positive")


@dataclass(frozen=True)
class PseudoPriorSet:
    """The n linking densities rho_j, each a proper probability density."""

    n: int
    log_density: Callable[[int, object], float]
    sampler: Callable[[int, np.random.Generator], object]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("component count must be positive")


@dataclass(frozen=True)
class ProposalFamily:
    """Proposal kernels R_l(u, dz) with transition densities r_l(u, z)."""

    n: int
    log_density: Callable[[int, object, object], float]
    sampler: Callable[[int, object, np.random.Generator], object]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("component count must be positive")


@dataclass(frozen=True)
class State:
    """A chain state (m, z) with component label m in {1..n}."""

    m: int
    z: object

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"component label must be >= 1, got {self.m}")
        _check_finite(self.z)


def _check_finite(z) -> None:
    if not (math.isfinite(z) if isinstance(z, float) else np.all(np.isfinite(z))):
        raise ValueError("state z must be finite")


def _normalize_log_weights(logw: Sequence[float]) -> list[float]:
    # Loops, not comprehensions: this runs every sweep.  exp(-inf) is 0.0.
    top = max(logw)
    w = []
    for lw in logw:
        w.append(math.exp(lw - top))
    total = sum(w)
    for i in range(len(w)):
        w[i] /= total
    return w


def draw_index(weights: Sequence[float], rng: np.random.Generator) -> int:
    """Draw a component label 1..n by inverse CDF with a single uniform.

    Ties in the cumulative sums are resolved deterministically in label
    order, so the draw is reproducible given the RNG stream.
    """
    total = sum(weights)
    u = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i + 1
    return len(weights)


def conditional_index_weights(target: MixtureTarget, z) -> np.ndarray:
    """Conditional probabilities pi*(. | z) over the component labels.

    Raises AllZeroMass if every component has -inf log-density at z.
    """
    return np.array(_conditional_weights(target, z)[0])


def _conditional_weights(target, z, m=0, lt=None):
    """(pi*(. | z), log pi*(., z)) as lists; ``lt``, when given, is log pi*(m, z)."""
    logw = []
    for j in range(1, target.n + 1):
        logw.append(lt if j == m and lt is not None else target.log_density(j, z))
    if max(logw) == _NEG_INF:
        raise AllZeroMass(f"target has zero mass at z={z!r} for every component")
    return _normalize_log_weights(logw), logw


def cc_index_weights(
    target: MixtureTarget, pseudo: PseudoPriorSet, u: Sequence
) -> np.ndarray:
    """Index-move probabilities pi(. | u) of the Carlin & Chib sweep.

    Entry m is proportional to pi*(m, u_m) / rho_m(u_m); the ratio makes
    the result invariant under rescaling of the unnormalized target.
    ``u`` holds one point per component, u[m - 1] for label m.
    """
    if len(u) != target.n:
        raise ValueError(f"expected {target.n} auxiliary points, got {len(u)}")
    n = target.n
    return np.array(_cc_weights(target, pseudo, u, [None] * n, [None] * n))


def _cc_weights(target, pseudo, u, lt, lr) -> list[float]:
    """cc_index_weights as a list; fills the None entries of the lists
    ``lt`` and ``lr`` with log pi*(j, u_j) and log rho_j(u_j)."""
    logw = []
    for i, ui in enumerate(u):
        t, r = lt[i], lr[i]
        if t is None:
            t = lt[i] = target.log_density(i + 1, ui)
        if r is None:
            r = lr[i] = pseudo.log_density(i + 1, ui)
        if r != _NEG_INF:
            logw.append(t - r)
            continue
        if t != _NEG_INF:
            raise PseudoPriorZero(
                f"pseudo-prior {i + 1} vanishes at u={ui!r} where the target does not"
            )
        # Both vanish; the ratio is undefined and the paper gives no
        # guidance, so the move gets zero weight.
        warnings.warn(
            f"target and pseudo-prior both vanish at component {i + 1}; "
            "assigning zero move weight",
            RuntimeWarning,
        )
        logw.append(_NEG_INF)
    if max(logw) == _NEG_INF:
        raise AllZeroMass("every index-move weight is zero")
    return _normalize_log_weights(logw)


def mh_log_acceptance(
    target: MixtureTarget, proposal: ProposalFamily, ell: int, u, z
) -> float:
    """Log Metropolis-Hastings acceptance for the move u -> z within component ell.

    Returns min(0, log pi*(ell, z) + log r_ell(z, u)
                   - log pi*(ell, u) - log r_ell(u, z)).
    A proposed move to a zero-mass point gets log-acceptance -inf (never NaN).
    """
    return _mh_log_acceptance(target, proposal, ell, u, z)[0]


def _mh_log_acceptance(target, proposal, ell, u, z, lt_u=None):
    """(mh_log_acceptance, log pi*(ell, z)); ``lt_u``, if given, is log pi*(ell, u)."""
    if lt_u is None:
        lt_u = target.log_density(ell, u)
    lr_uz = proposal.log_density(ell, u, z)
    if lt_u == _NEG_INF or lr_uz == _NEG_INF:
        raise InvalidCurrentState(
            f"zero target or proposal density at current point (ell={ell})"
        )
    lt_z = target.log_density(ell, z)
    lr_zu = proposal.log_density(ell, z, u)
    if lt_z == _NEG_INF or lr_zu == _NEG_INF:
        return _NEG_INF, lt_z
    return min(0.0, lt_z + lr_zu - lt_u - lr_uz), lt_z


def extended_log_density(
    target: MixtureTarget, pseudo: PseudoPriorSet, m: int, u: Sequence
) -> float:
    """Log-density of the extended target: log pi*(m, u_m) + sum_{j != m} log rho_j(u_j)."""
    if len(u) != target.n:
        raise ValueError(f"expected {target.n} auxiliary points, got {len(u)}")
    total = target.log_density(m, u[m - 1])
    for j in range(1, target.n + 1):
        if j != m:
            total += pseudo.log_density(j, u[j - 1])
    return total
