"""Exact finite-state verification of the sampler kernels.

Discretizing the continuous component to a grid turns every kernel into
a row-stochastic matrix, so reversibility, invariance, kernel orderings
and asymptotic variances can all be checked by plain linear algebra at
machine precision.  States are enumerated as (m, g) -> (m - 1) * G + g
with component labels m in 1..n and grid indices g in 0..G-1.

Kernels built here, one exact twin per selection and refresh of the
sampler table ``samplers._KERNELS``: the conditional selection and
``build_P3``, the pseudo-prior selection marginalized exactly over the
refreshed points; the exact refresh, ``build_Q3``, the within-component
Metropolis-Hastings refresh, and ``build_Q4``, the frozen (identity)
one.  ``sweep_kernel`` multiplies a sampler's selection and refresh;
``build_gibbs_index_kernel`` reads the Gibbs label chain off the exact
refresh followed by the conditional selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .samplers import _CONDITIONAL, _KERNELS, _PSEUDO, SamplerId
from .samplers import _exact_block, _frozen_block, _mh_block

__all__ = [
    "FiniteMixtureSpec",
    "FiniteKernel",
    "TooLarge",
    "NotReversible",
    "NonErgodic",
    "DimensionMismatch",
    "OrderingViolation",
    "build_P3",
    "build_Q3",
    "build_Q4",
    "build_gibbs_index_kernel",
    "sweep_kernel",
    "target_distribution",
    "index_marginal",
    "index_function_vector",
    "check_reversibility",
    "check_covariance_ordering",
    "check_offdiagonal_dominance",
    "exact_asymptotic_variance_alternating",
    "lag_covariances",
    "index_lag1_autocorrelation",
    "check_gibbs_iid_bound",
    "random_spec",
    "spec_from_log_densities",
    "save_spec",
    "load_spec",
]

MAX_ENUMERATION_TERMS = 10_000_000


class TooLarge(ValueError):
    """Exact enumeration over the auxiliary grid would be too expensive."""


class NotReversible(ValueError):
    pass


class NonErgodic(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class OrderingViolation(AssertionError):
    """A machine-checked kernel or variance ordering failed."""


@dataclass(frozen=True)
class FiniteMixtureSpec:
    """A mixture target discretized to ``grid``.

    ``prob`` (n x G) holds the joint masses pi*(m, z_g) and sums to one;
    each row of ``pseudo`` (n x G) is a pseudo-prior mass function; each
    slice ``proposal[m-1]`` (G x G), when present, is a row-stochastic
    proposal kernel on the grid.
    """

    n: int
    grid: np.ndarray
    prob: np.ndarray
    pseudo: np.ndarray
    proposal: Optional[np.ndarray] = None

    def __post_init__(self):
        G = len(self.grid)
        if self.prob.shape != (self.n, G) or self.pseudo.shape != (self.n, G):
            raise DimensionMismatch("prob and pseudo must have shape (n, G)")
        masses = [self.prob, self.pseudo, self.proposal]
        if not all(np.all((x >= 0) & (x < np.inf)) for x in masses if x is not None):
            raise ValueError("masses must be finite and nonnegative")
        if abs(self.prob.sum() - 1.0) > 1e-9:
            raise ValueError("prob must sum to 1")
        if np.max(np.abs(self.pseudo.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("each pseudo-prior row must sum to 1")
        if self.proposal is not None:
            if self.proposal.shape != (self.n, G, G):
                raise DimensionMismatch("proposal must have shape (n, G, G)")
            if np.max(np.abs(self.proposal.sum(axis=2) - 1.0)) > 1e-9:
                raise ValueError("proposal slices must be row-stochastic")

    @property
    def grid_size(self) -> int:
        return len(self.grid)

    @property
    def n_states(self) -> int:
        return self.n * len(self.grid)

    def state_index(self, m: int, g: int) -> int:
        return (m - 1) * len(self.grid) + g


@dataclass(frozen=True)
class FiniteKernel:
    """A row-stochastic matrix over the (m, g) states."""

    matrix: np.ndarray
    n: int
    grid_size: int

    def __post_init__(self):
        size = self.n * self.grid_size
        if self.matrix.shape != (size, size):
            raise DimensionMismatch(
                f"kernel matrix must be {size}x{size}, got {self.matrix.shape}"
            )
        if not self.matrix.min() >= -1e-15:  # NaN fails too, +inf the row sums
            raise ValueError("kernel entries must be finite and nonnegative")
        if np.max(np.abs(self.matrix.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("kernel rows must sum to 1")

    def state_index(self, m: int, g: int) -> int:
        return (m - 1) * self.grid_size + g


def target_distribution(spec: FiniteMixtureSpec) -> np.ndarray:
    """pi* as a vector over the (m, g) states."""
    return spec.prob.reshape(-1).copy()


def index_marginal(spec: FiniteMixtureSpec) -> np.ndarray:
    return spec.prob.sum(axis=1)


def index_function_vector(spec: FiniteMixtureSpec, h) -> np.ndarray:
    """Lift a function of the label, h(m), to a vector over the (m, g) states."""
    vals = np.array([float(h(m)) for m in range(1, spec.n + 1)])
    return np.repeat(vals, spec.grid_size)


def _cond_z_given_m(spec: FiniteMixtureSpec) -> np.ndarray:
    row_sums = spec.prob.sum(axis=1, keepdims=True)
    if np.any(row_sums == 0):
        raise ValueError("a component has zero total mass")
    return spec.prob / row_sums


def _refresh_sum_support(ratio, pseudo, labels):
    """Values and weights of S = sum_j r_j(U_j), U_j ~ rho_j, over ``labels``.

    The support is enumerated as one flat array of G^len(labels) terms.
    """
    values, weights = np.zeros(1), np.ones(1)
    for j in labels:
        values = (values[:, None] + ratio[j]).ravel()
        weights = (weights[:, None] * pseudo[j]).ravel()
    return values, weights


def build_P3(spec: FiniteMixtureSpec) -> FiniteKernel:
    """Exact kernel of the shared selection sweep (steps (i)-(ii)).

    From (m, z_g) the refreshed points U_j ~ rho_j, j != m, and the index
    draw with weights r_j(u_j) = pi*(j, u_j) / rho_j(u_j) (u_m = z_g)
    move the chain to (k, u) with probability

        P((m, g) -> (k, u)) = pi*(k, u) C_mk[g, u],
        C_mk[g, u] = E[1 / (r_m(g) + r_k(u) + S_mk)],

    where S_mk = sum_{j not in {m, k}} r_j(U_j).  The core C_mk is
    symmetric in the pair, C_km = C_mk^T, so one G x G core per
    unordered pair fills both off-diagonal blocks and makes the kernel
    pi*-reversible by construction.  Staying on label m keeps z, so the
    diagonal takes the rest of each row; on a pi*-null start whose index
    weights can all vanish this includes the chance that no move is
    drawn.  Each of the n(n-1)/2 cores enumerates the G^(n-2) support of
    S_mk for every (g, u): n(n-1)/2 x G^n terms in all, one start point
    g at a time.
    """
    n, G = spec.n, spec.grid_size
    # The budget is set on n G^n terms, within a factor (n - 1) / 2 of
    # the n(n-1)/2 G^n that the cores enumerate.
    if n * G**n > MAX_ENUMERATION_TERMS:
        raise TooLarge("auxiliary-grid enumeration exceeds the term budget")
    if np.any((spec.pseudo == 0) & (spec.prob > 0)):
        raise ValueError("a pseudo-prior vanishes where the target does not")
    ratio = np.divide(
        spec.prob, spec.pseudo, out=np.zeros((n, G)), where=spec.pseudo > 0
    )

    P = np.zeros((n * G, n * G))
    for m, k in combinations(range(n), 2):
        others = [j for j in range(n) if j not in (m, k)]
        values, weights = _refresh_sum_support(ratio, spec.pseudo, others)
        C = np.empty((G, G))
        with np.errstate(divide="ignore", invalid="ignore"):
            for g in range(G):
                C[g] = (1.0 / (ratio[m, g] + ratio[k][:, None] + values)) @ weights
        # A total can vanish only where pi*(m, g) = pi*(k, u) = 0, which
        # makes C[g, u] infinite or NaN; that pair has no flow.
        C[~np.isfinite(C)] = 0.0
        P[m * G : (m + 1) * G, k * G : (k + 1) * G] = C * spec.prob[k]
        P[k * G : (k + 1) * G, m * G : (m + 1) * G] = C.T * spec.prob[m]
    P[np.diag_indices(n * G)] = 1.0 - P.sum(axis=1)
    return FiniteKernel(P, n, G)


def build_Q3(spec: FiniteMixtureSpec) -> FiniteKernel:
    """Exact within-component Metropolis-Hastings refresh, block diagonal.

    A move g -> g2 != g of block m has probability R[g, g2] alpha with
    alpha = min(1, p[g2] R[g2, g] / (p[g] R[g, g2])), p = pi*(. | m),
    and alpha = 0 when the reverse move is impossible.  A zero-mass
    current point is never reached under pi*; its row parks the chain.
    """
    if spec.proposal is None:
        raise ValueError("spec has no proposal table")
    n, G = spec.n, spec.grid_size
    cond = _cond_z_given_m(spec)
    diag = np.diag_indices(G)
    Q = np.zeros((n * G, n * G))
    for m in range(n):
        R, pm = spec.proposal[m], cond[m]
        flow = pm[:, None] * R
        # Moves out of a zero-mass point keep alpha = 0, so its row parks;
        # an impossible reverse move has flow.T = 0 and alpha = 0.
        accept = np.zeros((G, G))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(flow.T, flow, out=accept, where=(pm[:, None] > 0) & (R > 0))
        # fmin ignores a NaN ratio (both flows underflowed to zero), so
        # such a move is accepted.
        K = R * np.fmin(1.0, accept)
        K[diag] = 0.0
        K[diag] = 1.0 - K.sum(axis=1)
        Q[m * G : (m + 1) * G, m * G : (m + 1) * G] = K
    return FiniteKernel(Q, n, G)


def build_Q4(spec: FiniteMixtureSpec) -> FiniteKernel:
    """The frozen refresh: identity on the whole state space."""
    return FiniteKernel(np.eye(spec.n_states), spec.n, spec.grid_size)


def _conditional_selection(spec: FiniteMixtureSpec) -> FiniteKernel:
    """(m, g) -> (k, g) with probability pi*(k | z_g); a massless z_g stays put."""
    n, G = spec.n, spec.grid_size
    col = spec.prob.sum(axis=0)
    w = np.divide(spec.prob, col, out=np.zeros((n, G)), where=col > 0)
    S = np.tile(np.eye(G), (n, n)) * w.ravel()
    S[np.diag_indices(n * G)] += np.tile(col == 0, n)
    return FiniteKernel(S, n, G)


def _exact_refresh(spec: FiniteMixtureSpec) -> FiniteKernel:
    """Exact refresh: block diagonal, every row of block m is pi*(. | m)."""
    n, G = spec.n, spec.grid_size
    R = np.eye(n).repeat(G, axis=0).repeat(G, axis=1) * _cond_z_given_m(spec).ravel()
    return FiniteKernel(R, n, G)


_TWINS = {  # selection or refresh of samplers._KERNELS -> its exact kernel
    _CONDITIONAL: _conditional_selection,
    _PSEUDO: build_P3,
    _exact_block: _exact_refresh,
    _mh_block: build_Q3,
    _frozen_block: build_Q4,
}


def sweep_kernel(sampler_id: SamplerId, spec: FiniteMixtureSpec) -> FiniteKernel:
    """Exact kernel of one sweep of the sampler: selection @ refresh."""
    selection, refresh = _KERNELS[SamplerId(sampler_id)]
    K = _TWINS[selection](spec).matrix @ _TWINS[refresh](spec).matrix
    return FiniteKernel(K, spec.n, spec.grid_size)


def build_gibbs_index_kernel(spec: FiniteMixtureSpec) -> FiniteKernel:
    """Induced label chain of the Gibbs sampler, G(m, m') = sum_z pi*(z|m) pi*(m'|z):
    the exact refresh then the conditional selection, summed over the grid."""
    n, G = spec.n, spec.grid_size
    K = _exact_refresh(spec).matrix[::G] @ _conditional_selection(spec).matrix
    return FiniteKernel(K.reshape(n, n, G).sum(axis=2), n, 1)


def check_reversibility(kernel: FiniteKernel, pi: np.ndarray) -> float:
    """Max absolute detailed-balance deviation |pi_i K_ij - pi_j K_ji|."""
    pi = np.asarray(pi, dtype=float)
    if len(pi) != kernel.matrix.shape[0]:
        raise DimensionMismatch("distribution length does not match the kernel")
    flow = pi[:, None] * kernel.matrix
    return float(np.max(np.abs(flow - flow.T)))


def check_offdiagonal_dominance(
    P1: FiniteKernel, P0: FiniteKernel, tol: float = 1e-14
) -> bool:
    """True iff P1 puts at least as much mass as P0 on every off-diagonal entry."""
    if P1.matrix.shape != P0.matrix.shape:
        raise DimensionMismatch("kernels have different sizes")
    diff = P1.matrix - P0.matrix
    np.fill_diagonal(diff, 0.0)
    return bool(np.min(diff) >= -tol)


def check_covariance_ordering(
    P1: FiniteKernel, P0: FiniteKernel, pi: np.ndarray, rev_tol: float = 1e-8
) -> float:
    """Smallest eigenvalue of sym(D (P0 - P1)), D = diag(pi).

    Nonnegative (within tolerance) iff P1 dominates P0 in the covariance
    ordering.  Both kernels must be pi-reversible, which makes the
    matrix symmetric up to rounding.
    """
    if P1.matrix.shape != P0.matrix.shape:
        raise DimensionMismatch("kernels have different sizes")
    for K in (P1, P0):
        dev = check_reversibility(K, pi)
        if dev > rev_tol:
            raise NotReversible(f"kernel deviates from detailed balance by {dev:g}")
    D = np.diag(np.asarray(pi, dtype=float))
    A = D @ (P0.matrix - P1.matrix)
    A = 0.5 * (A + A.T)
    return float(np.linalg.eigvalsh(A)[0])


def _complement_radius(T: np.ndarray, pi: np.ndarray) -> float:
    """Spectral radius of T on the pi-orthogonal complement of the constants.

    T - 1 pi^T has the spectrum of T with the eigenvalue 1 of the
    constants replaced by 0, because T 1 = 1 and pi T = pi.
    """
    return float(np.max(np.abs(np.linalg.eigvals(T - np.outer(np.ones(len(pi)), pi)))))


def exact_asymptotic_variance_alternating(
    P: FiniteKernel, Q: FiniteKernel, pi: np.ndarray, f: np.ndarray
):
    """Asymptotic variance of path averages of f along the alternating chain.

    The chain starts at pi and applies P on even steps and Q on odd
    steps; both kernels must preserve pi.  With A = P, B = Q,
    fbar = f - pi.f, l = pi * fbar and the fundamental matrices
    Z_XY = (I - XY + 1 pi^T)^-1 (Kemeny & Snell 1960), the lag
    covariances sum in closed form to

        sigma^2 = ||fbar||^2_pi + l Z_AB A (I + B) fbar + l Z_BA B (I + A) fbar,

    computed with one linear solve per kernel order.  With P == Q this
    is the ordinary homogeneous-chain asymptotic variance.  The spectral
    radius of AB off the constants is checked before solving, so a
    periodic or reducible product raises NonErgodic instead of meeting
    a singular matrix.  States of zero pi-mass are never entered from
    the support of pi and are left out.

    ``f`` may be a single state vector or a (k, n_states) stack, in
    which case an array of k variances is returned.
    """
    pi = np.asarray(pi, dtype=float)
    f = np.asarray(f, dtype=float)
    single = f.ndim == 1
    F = np.atleast_2d(f)
    if F.shape[1] != len(pi) or len(pi) != P.matrix.shape[0]:
        raise DimensionMismatch("pi, f and the kernels must share one state space")
    Fbar = F - (F @ pi)[:, None]
    norm2 = Fbar * Fbar @ pi
    if np.all(norm2 == 0.0):
        return 0.0 if single else np.zeros(F.shape[0])
    A, B = P.matrix, Q.matrix
    support = pi > 0
    if not support.all():
        block = np.ix_(support, support)
        A, B, pi, Fbar = A[block], B[block], pi[support], Fbar[:, support]
    AB, BA = A @ B, B @ A
    radius = _complement_radius(AB, pi)
    if radius >= 1.0 - 1e-12:
        raise NonErgodic(
            f"product kernel has spectral radius {radius:.15f} on the "
            "complement of the constants"
        )
    eye_plus_1pi = np.eye(len(pi)) + np.outer(np.ones(len(pi)), pi)
    L = (Fbar * pi).T  # columns l = pi * fbar, one per function
    Fcols = Fbar.T
    # Solving against the transposes gives the columns (l Z_XY)^T.
    lz_ab = np.linalg.solve((eye_plus_1pi - AB).T, L)
    lz_ba = np.linalg.solve((eye_plus_1pi - BA).T, L)
    sigma2 = (
        norm2
        + (lz_ab * (A @ (Fcols + B @ Fcols))).sum(axis=0)
        + (lz_ba * (B @ (Fcols + A @ Fcols))).sum(axis=0)
    )
    return float(sigma2[0]) if single else sigma2


def lag_covariances(
    kernel: FiniteKernel, pi: np.ndarray, f: np.ndarray, max_lag: int
) -> np.ndarray:
    """Exact stationary covariances Cov(f(X_0), f(X_k)), k = 0..max_lag."""
    pi = np.asarray(pi, dtype=float)
    fbar = np.asarray(f, dtype=float) - pi @ f
    out = np.empty(max_lag + 1)
    left = pi * fbar
    out[0] = float(left @ fbar)
    for k in range(1, max_lag + 1):
        left = left @ kernel.matrix
        out[k] = float(left @ fbar)
    return out


def index_lag1_autocorrelation(spec: FiniteMixtureSpec) -> float:
    """Exact lag-1 autocorrelation of the label series under the Gibbs sampler."""
    G = build_gibbs_index_kernel(spec)
    pim = index_marginal(spec)
    h = np.arange(1, spec.n + 1, dtype=float)
    cov = lag_covariances(G, pim, h, 1)
    return float(cov[1] / cov[0])


def check_gibbs_iid_bound(
    spec: FiniteMixtureSpec, h, tol: float = 1e-10
) -> tuple[float, float]:
    """Exact Gibbs-chain asymptotic variance of h(m) vs its i.i.d. variance.

    Returns (sigma2_gibbs, var_iid) and raises OrderingViolation if the
    Gibbs variance falls below the i.i.d. one, which exact theory
    forbids.
    """
    G = build_gibbs_index_kernel(spec)
    pim = index_marginal(spec)
    hv = np.array([float(h(m)) for m in range(1, spec.n + 1)])
    var_iid = float(pim @ (hv - pim @ hv) ** 2)
    sigma2 = exact_asymptotic_variance_alternating(G, G, pim, hv)
    if sigma2 < var_iid - tol:
        raise OrderingViolation(
            f"Gibbs asymptotic variance {sigma2:g} below i.i.d. variance {var_iid:g}"
        )
    return sigma2, var_iid


def random_spec(
    rng: np.random.Generator, n: int, grid_size: int, with_proposal: bool = True
) -> FiniteMixtureSpec:
    """Random strictly positive spec: flat-Dirichlet masses throughout."""
    G = grid_size
    prob = rng.dirichlet(np.ones(n * G)).reshape(n, G)
    pseudo = np.stack([rng.dirichlet(np.ones(G)) for _ in range(n)])
    proposal = None
    if with_proposal:
        proposal = np.stack(
            [
                np.stack([rng.dirichlet(np.ones(G)) for _ in range(G)])
                for _ in range(n)
            ]
        )
    return FiniteMixtureSpec(n, np.arange(G, dtype=float), prob, pseudo, proposal)


def _scaled_exp(logw: np.ndarray, name: str) -> np.ndarray:
    """exp(logw) over its largest entry; ValueError naming the density
    unless that entry is finite."""
    top = logw.max()
    if not np.isfinite(top):
        raise ValueError(f"{name} has no mass on the grid (largest log-density {top})")
    return np.exp(logw - top)


def spec_from_log_densities(
    n: int,
    grid: np.ndarray,
    log_target,
    log_pseudo,
    log_proposal=None,
) -> FiniteMixtureSpec:
    """Discretize continuous densities to grid masses (normalized pointwise).

    ``log_target(m, z)`` and ``log_pseudo(j, u)`` are called once per label
    on the whole grid, as the samplers call them on a block, and the
    masses are normalized after subtracting the largest log-density, so
    a target far below exp(-745) everywhere still discretizes.
    ``log_proposal(l, u, z)``, when given, fills the proposal slices one
    point at a time.  ValueError if the target, or a pseudo-prior, has no
    mass on the grid.
    """
    grid = np.asarray(grid, dtype=float)
    labels = range(1, n + 1)

    def on_grid(log_density, label):
        out = np.asarray(log_density(label, grid), dtype=float)
        return np.broadcast_to(out, grid.shape)

    prob = _scaled_exp(np.array([on_grid(log_target, m) for m in labels]), "the target")
    prob /= prob.sum()
    pseudo = np.array(
        [_scaled_exp(on_grid(log_pseudo, j), f"pseudo-prior {j}") for j in labels]
    )
    pseudo /= pseudo.sum(axis=1, keepdims=True)
    proposal = None
    if log_proposal is not None:
        proposal = np.array(
            [
                [[np.exp(log_proposal(l, u, z)) for z in grid] for u in grid]
                for l in labels
            ]
        )
        proposal /= proposal.sum(axis=2, keepdims=True)
    return FiniteMixtureSpec(n, grid, prob, pseudo, proposal)


def save_spec(spec: FiniteMixtureSpec, path) -> None:
    """Write a spec as tab-separated blocks with #grid/#pi/#pseudo/#proposal headers."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("#grid\n")
        fh.write("\t".join(repr(float(v)) for v in spec.grid) + "\n")
        fh.write("#pi\n")
        for row in spec.prob:
            fh.write("\t".join(repr(float(v)) for v in row) + "\n")
        fh.write("#pseudo\n")
        for row in spec.pseudo:
            fh.write("\t".join(repr(float(v)) for v in row) + "\n")
        if spec.proposal is not None:
            fh.write("#proposal\n")
            for block in spec.proposal:
                for row in block:
                    fh.write("\t".join(repr(float(v)) for v in row) + "\n")


def load_spec(path) -> FiniteMixtureSpec:
    """Read a spec written by :func:`save_spec`; ValueError on a malformed file."""
    sections: dict[str, list[list[float]]] = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                current = line[1:]
                sections[current] = []
                continue
            if current is None:
                raise ValueError("data before the first section header")
            sections[current].append([float(v) for v in line.split("\t")])
    for name in ("grid", "pi", "pseudo"):
        if name not in sections:
            raise ValueError(f"missing #{name} section")
    grid = np.array(sections["grid"]).ravel()
    prob = np.array(sections["pi"])
    pseudo = np.array(sections["pseudo"])
    n, G = prob.shape
    proposal = None
    if "proposal" in sections:
        proposal = np.array(sections["proposal"]).reshape(n, G, G)
    return FiniteMixtureSpec(n, grid, prob, pseudo, proposal)
