"""Mixture targets, pseudo-priors, proposals, states and the callback protocol.

A mixture target is a (possibly unnormalized) density pi*(m, z) on
{1..n} x Z, where m is a discrete component label and z a continuous
value (a float for one-dimensional problems, an ndarray otherwise).
The index weights and the MH test built on these densities live in
``ccmix.samplers``, beside the tables that reproduce them.

The target and pseudo-prior callbacks work on *blocks* of points: an
array of shape (B,) for one-dimensional z, (B, z_dim) otherwise.  The
samplers call them positionally.  The proposal callbacks take one point
at a time, since a general proposal depends on the current point, and
so the MH refresh of a general proposal also evaluates the target (and
the pseudo-prior, for MCC) at one point at a time: a float, or an array
of shape (z_dim,).  An independence proposal,
``ProposalFamily.independent(rho)``, ignores the current point, so the
samplers draw and weigh its proposals in blocks through rho's callbacks
and make no single-point call.  Elementwise numpy code serves blocks and
single points alike.

The samplers and the oracle's discretizer make each call to these
callbacks through ``_call``, which raises ``ConfigError``, defined here
and exported by ``ccmix.samplers`` and ``ccmix``, naming a callback that
breaks this protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "MixtureTarget",
    "PseudoPriorSet",
    "ProposalFamily",
    "State",
    "ConfigError",
    "AllZeroMass",
    "PseudoPriorZero",
    "InvalidCurrentState",
]


class ConfigError(ValueError):
    """Sampler configuration inconsistent with the supplied model bundle."""


class AllZeroMass(ValueError):
    """Every component has zero target mass at the given point."""


class PseudoPriorZero(ValueError):
    """A pseudo-prior vanishes where the target does not."""


class InvalidCurrentState(ValueError):
    """The current state has zero target or proposal density."""


@dataclass(frozen=True)
class MixtureTarget:
    """Unnormalized density pi*(m, z) on {1..n} x Z.

    ``log_density(m, z)`` takes a block z of B points and returns the B
    values log pi*(m, z_b), shape (B,), or one point z and returns a
    float (the MH refresh calls it so); it may return -inf for zero-mass
    points but never NaN or +inf (a sweep that uses one raises ConfigError).
    ``conditional_sampler(m, rng, size)``, when present, returns ``size``
    exact draws from pi*(dz | m); the samplers with an exact refresh (Gibbs
    and CC) require it.  It must return a new array at every call, since
    the samplers keep the block it returns for the block's sweeps, and
    neither callback may modify its input.
    """

    n: int
    z_dim: int
    log_density: Callable[[int, np.ndarray], np.ndarray]
    conditional_sampler: Optional[
        Callable[[int, np.random.Generator, int], np.ndarray]
    ] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("component count must be positive")
        if self.z_dim < 1:
            raise ValueError("z_dim must be positive")


@dataclass(frozen=True)
class PseudoPriorSet:
    """The n linking densities rho_j, each a proper probability density.

    ``log_density(j, u)`` maps a block of B points to shape (B,) (and,
    for MCC, one point to a float), -inf where rho_j vanishes but never
    NaN or +inf (a sweep that uses one raises ConfigError), and
    ``sampler(j, rng, size)`` returns ``size`` draws from rho_j, in a new
    array at every call, since the samplers keep the block it returns for
    the block's sweeps.  Neither callback may modify its input.
    """

    n: int
    log_density: Callable[[int, np.ndarray], np.ndarray]
    sampler: Callable[[int, np.random.Generator, int], np.ndarray]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("component count must be positive")


@dataclass(frozen=True)
class ProposalFamily:
    """Proposal kernels R_l(u, dz) with transition densities r_l(u, z),
    called with one point u (and z) at a time; ``log_density`` may return
    -inf but never NaN or +inf.

    ``rho``, when set, states that R_l(u, .) = rho_l whatever u, and the
    MH refresh then draws and weighs the proposals in blocks through
    rho's callbacks instead of calling ``log_density`` and ``sampler``.
    ``independent`` builds such a family.  No callback may modify its
    inputs; ``sampler`` may return the same array at every call, since the
    samplers copy the points they keep.
    """

    n: int
    log_density: Callable[[int, object, object], float]
    sampler: Callable[[int, object, np.random.Generator], object]
    rho: Optional[PseudoPriorSet] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("component count must be positive")

    @classmethod
    def independent(cls, rho: PseudoPriorSet) -> ProposalFamily:
        """R_l(u, dz) = rho_l(dz): the proposal ignores the current point.

        The single-point callbacks, for callers such as
        ``mh_log_acceptance``, weigh one point with rho's and take the one
        draw of ``rho.sampler(l, rng, 1)``; the samplers use rho's on blocks.
        """
        return cls(
            n=rho.n,
            log_density=lambda l, u, z: rho.log_density(l, z),
            sampler=lambda l, u, rng: rho.sampler(l, rng, 1)[0],
            rho=rho,
        )


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


def _block(z) -> np.ndarray:
    """One point as a block: shape (1,) for a float z, (1, z_dim) otherwise."""
    return np.array([z], dtype=float)


def _shape(x) -> tuple:
    """np.shape(x), which takes a slow path for a float or an array."""
    if isinstance(x, np.ndarray):
        return x.shape
    return () if isinstance(x, float) else np.shape(x)


def _call(name: str, fn, args: tuple, shape: tuple):
    """fn(*args) for the callback ``name``; ConfigError unless it takes
    ``args`` and returns ``shape``: (B,) or (B, z_dim) for a block of B
    points, () for a single point."""
    try:
        out = fn(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} failed on its input: {exc}") from exc
    if _shape(out) != shape:
        raise ConfigError(f"{name} returned shape {_shape(out)}, expected {shape}")
    return out


def _density_row(name: str, log_density, label: int, x) -> np.ndarray:
    """log_density(label, x) on a block x of B points, checked to be (B,)."""
    return np.asarray(_call(name, log_density, (label, x), (len(x),)), dtype=float)
