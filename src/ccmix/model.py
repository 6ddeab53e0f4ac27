"""Mixture targets, pseudo-priors, proposals and the shared probability computations.

A mixture target is a (possibly unnormalized) density pi*(m, z) on
{1..n} x Z, where m is a discrete component label and z a continuous
value (a float for one-dimensional problems, an ndarray otherwise).
All probability arithmetic is done in log-space with max-subtraction so
that well-separated modes do not underflow.

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
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

_NEG_INF = float("-inf")
_INF = float("inf")
_NAN = float("nan")

__all__ = [
    "MixtureTarget",
    "PseudoPriorSet",
    "ProposalFamily",
    "State",
    "ConfigError",
    "AllZeroMass",
    "PseudoPriorZero",
    "InvalidCurrentState",
    "conditional_index_weights",
    "cc_index_weights",
    "mh_log_acceptance",
    "draw_index",
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


def _infinite_target(label: int) -> str:
    return f"the target log-density of label {label} is +inf"


def _weights(logw: Sequence[float]) -> list[float]:
    """exp(logw) normalized, by max-subtraction; AllZeroMass if all are
    -inf, ConfigError if a NaN or +inf entry makes the sum NaN.  A +inf
    entry comes from the target: ``_resolve`` settles +inf ratios first."""
    # Loops, not comprehensions: this runs every sweep.  exp(-inf) is 0.0.
    top = max(logw)
    w = []
    for lw in logw:
        w.append(math.exp(lw - top))
    total = sum(w)
    if total != total:  # NaN; so is an all -inf sum, as -inf - -inf is NaN
        if all(lw == _NEG_INF for lw in logw):
            raise AllZeroMass("every index weight is zero")
        cause = f"from log-weights {list(logw)}"
        if _INF in logw:
            cause = f"as {_infinite_target(list(logw).index(_INF) + 1)}"
        raise ConfigError(f"the index weights are NaN, {cause}")
    for i in range(len(w)):
        w[i] /= total
    return w


def _pick(weights: Sequence[float], v: float) -> int:
    """The label 1..n whose cumulative weight first exceeds v times the total."""
    u = v * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i + 1
    return len(weights)


def draw_index(weights: Sequence[float], rng: np.random.Generator) -> int:
    """Draw a component label 1..n by inverse CDF with a single uniform.

    Ties in the cumulative sums are resolved deterministically in label
    order, so the draw is reproducible given the RNG stream.
    """
    return _pick(weights, rng.random())


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


def _target_rows(name: str, target, blocks: Sequence) -> list[list]:
    """log pi*(i, x) for each label i and block x of ``blocks``, a float
    array each, in row i and column x; a PseudoPriorSet in place of the
    target, with its callback's ``name``, gives log rho_i(x) likewise."""
    return [
        [_density_row(name, target.log_density, i, x) for x in blocks]
        for i in range(1, target.n + 1)
    ]


def _pseudo_rows(
    target, pseudo, labels: Sequence[int], blocks: Sequence, q=None
) -> tuple:
    """log pi*(j, x) and log rho_j(x) for each label j and its block x: two
    rows of float arrays, and log q_j(x) as a third row when a
    PseudoPriorSet ``q``, an independence proposal's rho, is given.  When q
    is the pseudo-prior itself, its row is the pseudo-prior's, weighed once,
    so an error from that call names ``pseudo.log_density``."""
    shared = q is not None and q is pseudo
    sets = [("target.log_density", target), ("pseudo.log_density", pseudo)]
    if q is not None and not shared:
        sets.append(("proposal.rho.log_density", q))
    rows = tuple(
        [_density_row(name, p.log_density, j, x) for j, x in zip(labels, blocks)]
        for name, p in sets
    )
    return rows + (rows[1],) if shared else rows


def _ratio(lt: float, lr: float) -> float:
    """log pi* - log rho at one point, +inf where rho vanishes and NaN
    where log rho is +inf; ``_resolve`` turns such an entry into an error
    or a zero weight only once a sweep uses it."""
    if lr == _NEG_INF:
        return _INF
    return lt - lr if lr != _INF else _NAN


def _ratios(lt: np.ndarray, lr: np.ndarray) -> np.ndarray:
    """``_ratio`` entry by entry on arrays."""
    with np.errstate(invalid="ignore"):
        ratio = lt - lr
        if math.isfinite(ratio.sum()):  # no infinite log rho: the common case
            return ratio
    ratio[lr == _NEG_INF] = _INF
    ratio[lr == _INF] = _NAN
    return ratio


def _unsettled(logw: Sequence[float]) -> bool:
    """Whether index log-weights hold a +inf or NaN entry for ``_resolve``."""
    return not sum(logw) < _INF  # a -inf entry only makes the sum -inf


def _resolve(logw: Sequence[float], lts: Sequence[float]) -> list[float]:
    """Index log-weights with their +inf and NaN entries settled:
    ConfigError where the target (log pi* in ``lts``) is +inf, or where a
    ratio is NaN, naming the target if its log-density is NaN, else the
    pseudo-prior; else a pseudo-prior vanishes, and PseudoPriorZero where
    the target is positive, zero weight with a RuntimeWarning where it
    vanishes too."""
    out = list(logw)
    for i, lw in enumerate(logw):
        if lw != lw:  # a NaN density, or log rho = +inf
            if lts[i] == _INF:
                raise ConfigError(_infinite_target(i + 1))
            if lts[i] != lts[i]:
                raise ConfigError(f"the target log-density of label {i + 1} is NaN")
            raise ConfigError(f"pseudo.log_density of label {i + 1} is NaN or +inf")
        if lw != _INF:
            continue
        if lts[i] == _INF:
            raise ConfigError(_infinite_target(i + 1))
        if lts[i] != _NEG_INF:
            raise PseudoPriorZero(
                f"pseudo-prior {i + 1} vanishes at a point where the target does not"
            )
        # Both vanish; the ratio is undefined and the paper gives no
        # guidance, so the move gets zero weight.
        warnings.warn(
            f"target and pseudo-prior both vanish at component {i + 1}; "
            "assigning zero move weight",
            RuntimeWarning,
        )
        out[i] = _NEG_INF
    return out


def conditional_index_weights(target: MixtureTarget, z) -> np.ndarray:
    """Conditional probabilities pi*(. | z) over the component labels.

    Raises AllZeroMass if every component has -inf log-density at z.
    """
    rows = _target_rows("target.log_density", target, [_block(z)])
    return np.array(_weights([r[0].item(0) for r in rows]))


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
    blocks = [_block(uj) for uj in u]
    lts, lrs = _pseudo_rows(target, pseudo, range(1, target.n + 1), blocks)
    lts = [a.item(0) for a in lts]
    logw = [_ratio(lt, a.item(0)) for lt, a in zip(lts, lrs)]
    if _unsettled(logw):
        logw = _resolve(logw, lts)
    return np.array(_weights(logw))


def mh_log_acceptance(
    target: MixtureTarget, proposal: ProposalFamily, ell: int, u, z
) -> float:
    """Log Metropolis-Hastings acceptance for the move u -> z within component ell.

    Returns min(0, log pi*(ell, z) + log r_ell(z, u)
                   - log pi*(ell, u) - log r_ell(u, z)).
    A proposed move to a zero-mass point gets log-acceptance -inf; a +inf
    target or proposal log-density, or a NaN log-ratio, from a NaN density,
    raises ConfigError.
    """
    lt_u, lt_z = float(target.log_density(ell, u)), float(target.log_density(ell, z))
    lr_uz, lr_zu = proposal.log_density(ell, u, z), proposal.log_density(ell, z, u)
    return _mh_log_acceptance(ell, lt_u, lr_uz, lt_z, lr_zu)


def _mh_log_acceptance(ell, lt_u, lr_uz, lt_z, lr_zu, name="proposal.log_density"):
    """mh_log_acceptance from lt_u = log pi*(ell, u), lr_uz = log r_ell(u, z)
    and their counterparts lt_z and lr_zu at z; ``name`` is the proposal
    density's, for its error."""
    if lt_u == _INF or lt_z == _INF:
        raise ConfigError(_infinite_target(ell))
    if lr_uz == _INF or lr_zu == _INF:
        raise ConfigError(f"{name} of label {ell} is +inf")
    if lt_u == _NEG_INF or lr_uz == _NEG_INF:
        raise InvalidCurrentState(
            f"zero target or proposal density at current point (ell={ell})"
        )
    if lt_z == _NEG_INF or lr_zu == _NEG_INF:
        return _NEG_INF
    log_ratio = lt_z + lr_zu - lt_u - lr_uz
    if log_ratio != log_ratio:
        raise ConfigError(
            f"the MH log-ratio is NaN (ell={ell}): a log-density or point is not finite"
        )
    return min(0.0, log_ratio)
