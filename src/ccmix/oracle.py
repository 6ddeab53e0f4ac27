"""Exact finite-state verification of the sampler kernels.

Discretizing the continuous component to a grid turns every kernel into
a row-stochastic matrix, so reversibility, invariance, kernel orderings
and asymptotic variances can all be checked by plain linear algebra at
machine precision.  States are enumerated as (m, g) -> (m - 1) * G + g
with component labels m in 1..n and grid indices g in 0..G-1.

Kernels built here, one exact twin per selection and refresh record of
the sampler table ``samplers._KERNELS``, keyed by the record in
``_TWINS``: the conditional selection and ``build_P3``, the pseudo-prior
selection marginalized exactly over the refreshed points by one
quadrature of 1/x = int_0^inf e^(-t x) dt per label pair, its diagonal
1 - the off-diagonal sum; the exact refresh, ``build_Q3``, the
within-component Metropolis-Hastings refresh, and ``build_Q4``, the
frozen (identity) one.  ``sweep_kernel`` multiplies a sampler's
selection and refresh.  ``build_gibbs_index_kernel`` is the Gibbs label
chain in closed form, pi*(z | m) against pi*(m' | z) summed over the
grid, and ``check_gibbs_iid_bound`` compares its asymptotic variances
with the i.i.d. ones.  ``verify`` builds every twin of one spec once,
calls ``check_gibbs_iid_bound`` and returns the values of the ``CHECKS``
table.  Every asymptotic variance is one solve on the jump chain of a
product kernel (``exact_asymptotic_variance_alternating``), so a nearly
absorbing state keeps its precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .model import _call, _density_row
from .samplers import _CONDITIONAL, _EXACT, _FROZEN, _KERNELS, _MH, _PSEUDO, SamplerId

__all__ = [
    "FiniteMixtureSpec",
    "FiniteKernel",
    "TooLarge",
    "NotReversible",
    "NonErgodic",
    "DimensionMismatch",
    "build_P3",
    "build_Q3",
    "build_Q4",
    "build_gibbs_index_kernel",
    "sweep_kernel",
    "target_distribution",
    "index_marginal",
    "check_reversibility",
    "check_covariance_ordering",
    "check_offdiagonal_dominance",
    "exact_asymptotic_variance_alternating",
    "lag_covariances",
    "check_gibbs_iid_bound",
    "CHECKS",
    "verify",
    "random_spec",
    "spec_from_log_densities",
    "save_spec",
    "load_spec",
]

# build_P3's quadrature (Trefethen & Weideman 2014).  Its integrand is
# analytic for |Im s| < pi/2, so the trapezoid step h in s = log t errs
# by about e^(-pi^2 / h) = 7e-18 relative.  Nodes below e^(-40) over the
# largest total would add under e^(-40) of it, and nodes above e^5 over
# the smallest nonzero total under e^(-e^5).
_STEP, _HEAD_MARGIN, _TAIL_MARGIN = 0.25, 40.0, 5.0
# Largest detailed-balance deviation that check_covariance_ordering accepts.
_REVERSIBILITY_TOL = 1e-8


class TooLarge(ValueError):
    """The ratios pi*/rho of a spec span more than build_P3's quadrature
    reaches in floating point: a ratio is infinite, or the top node
    e^s would overflow."""


class NotReversible(ValueError):
    pass


class NonErgodic(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class FiniteMixtureSpec:
    """A mixture target discretized to ``grid``, one-dimensional and finite.

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
        if np.ndim(self.grid) != 1 or not np.all(np.isfinite(self.grid)):
            raise ValueError("grid must be one-dimensional and finite")
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


def target_distribution(spec: FiniteMixtureSpec) -> np.ndarray:
    """pi* as a vector over the (m, g) states."""
    return spec.prob.reshape(-1).copy()


def index_marginal(spec: FiniteMixtureSpec) -> np.ndarray:
    return spec.prob.sum(axis=1)


def _cond_z_given_m(spec: FiniteMixtureSpec) -> np.ndarray:
    row_sums = spec.prob.sum(axis=1, keepdims=True)
    if np.any(row_sums == 0):
        raise ValueError("a component has zero total mass")
    return spec.prob / row_sums


def _cond_m_given_z(spec: FiniteMixtureSpec) -> np.ndarray:
    """pi*(m | z_g) as an n x G array; zero on a grid point without mass."""
    col = spec.prob.sum(axis=0)
    return np.divide(spec.prob, col, out=np.zeros_like(spec.prob), where=col > 0)


def build_P3(spec: FiniteMixtureSpec) -> FiniteKernel:
    """Exact kernel of the shared selection sweep (steps (i)-(ii)).

    From (m, z_g) the refreshed points U_j ~ rho_j, j != m, and the index
    draw with weights r_j(u_j) = pi*(j, u_j) / rho_j(u_j) (u_m = z_g)
    move the chain to (k, u) with probability pi*(k, u) C_mk[g, u],

        C_mk[g, u] = E[1 / (r_m(g) + r_k(u) + S_mk)]
                   = int_0^inf e^(-t r_m(g)) e^(-t r_k(u)) prod_j phi_j(t) dt,

    S_mk = sum_j r_j(U_j) and phi_j(t) = E[e^(-t r_j(U_j))] over j not in
    {m, k}, by 1/x = int_0^inf e^(-t x) dt and independence.  C_mk is
    symmetric in the pair, so one core per unordered pair fills both
    off-diagonal blocks and makes the kernel pi*-reversible by
    construction; it is one (G x T)(T x G) product over the T trapezoid
    nodes in s = log t (the pairs that share a first label in one stacked
    product), and a spec costs O(n^2 G^2 T).  The ratios are
    scaled by c = 1 / sqrt(r_min n r_max), over the positive ones, which
    centres the totals on 1, and c goes back on the masses:
    P = pi*(k, u) c C(c r).  The nodes run from e^(-40) over the largest
    total to e^5 over the smallest, so T grows with the log of the span;
    TooLarge where e^s would overflow.

    Staying on label m keeps z, so the diagonal is 1 - the row's
    off-diagonal sum, including, on a pi*-null start, the chance that
    no move is drawn.  On the support of pi* it is structurally
    positive; its round-off (-2.2e-16 on a 1e-300 mass) is within
    FiniteKernel's floor and is not clipped.
    """
    n, G = spec.n, spec.grid_size
    if np.any((spec.pseudo == 0) & (spec.prob > 0)):
        raise ValueError("a pseudo-prior vanishes where the target does not")
    with np.errstate(over="ignore"):  # an infinite ratio is refused below
        ratio = spec.prob / np.where(spec.pseudo > 0, spec.pseudo, np.inf)
    positive = ratio[ratio > 0]
    low, high = np.log(positive.min()), np.log(n) + np.log(positive.max())
    half = (high - low) / 2
    # The weights h t sum to less than twice the top node's t.
    if not half + _TAIL_MARGIN < np.log(np.finfo(float).max / 2):
        raise TooLarge(
            f"the ratios pi*/rho span {positive.min():g} to {positive.max():g}, "
            "beyond the range of the P3 quadrature"
        )
    t = np.exp(np.arange(-half - _HEAD_MARGIN, half + _TAIL_MARGIN, _STEP))
    c = np.exp(-(low + high) / 2)
    # An x t that overflows gives e^(-inf) = 0, which is the exact limit.
    with np.errstate(over="ignore"):
        E = np.exp(-(c * ratio)[:, :, None] * t)
    phi = np.einsum("jg,jgt->jt", spec.pseudo, E)

    # The weights of every pair (m, k), m < k in lexicographic order: phi's
    # product over the other labels, taken in ascending label order.
    pairs = list(combinations(range(n), 2))
    others = np.array([[j for j in range(n) if j not in p] for p in pairs], dtype=int)
    w = _STEP * t * np.prod(phi[others.reshape(len(pairs), max(n - 2, 0))], axis=1)
    P = np.zeros((n * G, n * G))
    for m in range(n - 1):
        # The cores of (m, k) for every k > m, stacked: [k, g, u].
        K, rows = n - 1 - m, slice(m * G, (m + 1) * G)
        C = (E[m] * w[:K, None]) @ E[m + 1 :].transpose(0, 2, 1)
        w = w[K:]
        flow = C * (c * spec.prob[m + 1 :])[:, None]
        P[rows, (m + 1) * G :] = flow.transpose(1, 0, 2).reshape(G, K * G)
        back = C.transpose(0, 2, 1) * (c * spec.prob[m])
        P[(m + 1) * G :, rows] = back.reshape(K * G, G)
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
    R, p = spec.proposal, _cond_z_given_m(spec)[:, :, None]
    flow = p * R
    # Moves out of a zero-mass point keep alpha = 0, so its row parks;
    # an impossible reverse move has flow.T = 0 and alpha = 0.
    accept = np.zeros_like(R)
    # A ratio that overflows to inf is accepted by fmin below, as the
    # exact ratio above 1 would be, so its warning is silenced.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(flow.transpose(0, 2, 1), flow, out=accept, where=(p > 0) & (R > 0))
    # fmin ignores a NaN ratio (both flows underflowed to zero), so such
    # a move is accepted.
    K = R * np.fmin(1.0, accept)
    g = np.arange(G)
    K[:, g, g] = 0.0
    # A point that rejects no proposed mass stays with probability
    # exactly 0, not the round-off of 1 - its off-diagonal sum.
    K[:, g, g] = np.where((R > K).any(axis=2), 1.0 - K.sum(axis=2), 0.0)
    Q = np.zeros((n, G, n, G))
    Q[np.arange(n), :, np.arange(n)] = K
    return FiniteKernel(Q.reshape(n * G, n * G), n, G)


def build_Q4(spec: FiniteMixtureSpec) -> FiniteKernel:
    """The frozen refresh: identity on the whole state space."""
    return FiniteKernel(np.eye(spec.n_states), spec.n, spec.grid_size)


def _conditional_selection(spec: FiniteMixtureSpec) -> FiniteKernel:
    """(m, g) -> (k, g) with probability pi*(k | z_g); a massless z_g stays put."""
    n, G = spec.n, spec.grid_size
    S = np.tile(np.eye(G), (n, n)) * _cond_m_given_z(spec).ravel()
    S[np.diag_indices(n * G)] += np.tile(spec.prob.sum(axis=0) == 0, n)
    return FiniteKernel(S, n, G)


def _exact_refresh(spec: FiniteMixtureSpec) -> FiniteKernel:
    """Exact refresh: block diagonal, every row of block m is pi*(. | m)."""
    n, G = spec.n, spec.grid_size
    R = np.eye(n).repeat(G, axis=0).repeat(G, axis=1) * _cond_z_given_m(spec).ravel()
    return FiniteKernel(R, n, G)


# Selection or refresh record of samplers._KERNELS -> its exact kernel.  The
# builders are looked up when called, so a patched module attribute is used.
_TWINS = {
    _CONDITIONAL: lambda spec: _conditional_selection(spec),
    _PSEUDO: lambda spec: build_P3(spec),
    _EXACT: lambda spec: _exact_refresh(spec),
    _MH: lambda spec: build_Q3(spec),
    _FROZEN: lambda spec: build_Q4(spec),
}


def sweep_kernel(sampler_id: SamplerId, spec: FiniteMixtureSpec) -> FiniteKernel:
    """Exact kernel of one sweep of the sampler: selection @ refresh."""
    selection, refresh = _KERNELS[SamplerId(sampler_id)]
    K = _TWINS[selection](spec).matrix @ _TWINS[refresh](spec).matrix
    return FiniteKernel(K, spec.n, spec.grid_size)


def build_gibbs_index_kernel(spec: FiniteMixtureSpec) -> FiniteKernel:
    """Induced label chain of the Gibbs sampler, in closed form:
    G(m, m') = sum_g pi*(z_g | m) pi*(m' | z_g), one (n x G)(G x n) product."""
    G = _cond_z_given_m(spec) @ _cond_m_given_z(spec).T
    return FiniteKernel(G, spec.n, 1)


def check_reversibility(kernel: FiniteKernel, pi: np.ndarray) -> float:
    """Max absolute detailed-balance deviation |pi_i K_ij - pi_j K_ji|."""
    pi = np.asarray(pi, dtype=float)
    if len(pi) != kernel.matrix.shape[0]:
        raise DimensionMismatch("distribution length does not match the kernel")
    flow = pi[:, None] * kernel.matrix
    return float(np.max(np.abs(flow - flow.T)))


def check_offdiagonal_dominance(P1: FiniteKernel, P0: FiniteKernel) -> bool:
    """True iff P1 puts at least as much mass as P0, less 1e-14, off the diagonal."""
    if P1.matrix.shape != P0.matrix.shape:
        raise DimensionMismatch("kernels have different sizes")
    diff = P1.matrix - P0.matrix
    np.fill_diagonal(diff, 0.0)
    return bool(np.min(diff) >= -1e-14)


def check_covariance_ordering(
    P1: FiniteKernel, P0: FiniteKernel, pi: np.ndarray
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
        if dev > _REVERSIBILITY_TOL:
            raise NotReversible(f"kernel deviates from detailed balance by {dev:g}")
    A = np.asarray(pi, dtype=float)[:, None] * (P0.matrix - P1.matrix)
    A = 0.5 * (A + A.T)
    return float(np.linalg.eigvalsh(A)[0])


def _require_ergodic(T: np.ndarray, origin: int) -> None:
    """Raise NonErgodic unless the chain T is irreducible and aperiodic.

    T is stochastic on the support of a stationary pi, so every state is
    recurrent and the chain is irreducible when a breadth-first search
    over the entries T > 0 from state 0 reaches every state.  The period
    is then the gcd of level[i] + 1 - level[j] over the edges i -> j.
    By Perron-Frobenius both hold exactly when T has spectral radius
    below 1 off the constants.  ``origin`` is state 0 in the caller's
    numbering, for the message.
    """
    edges = T > 0
    level = np.full(len(T), -1)
    level[0] = 0
    frontier = level == 0
    depth = 0
    while frontier.any():
        depth += 1
        frontier = edges[frontier].any(axis=0) & (level < 0)
        level[frontier] = depth
    missing = int(np.count_nonzero(level < 0))
    if missing:
        raise NonErgodic(
            f"product kernel is reducible: {missing} of {len(T)} support "
            f"states are not reached from state {origin}"
        )
    i, j = np.nonzero(edges)
    period = int(np.gcd.reduce(level[i] + 1 - level[j]))
    if period != 1:
        raise NonErgodic(f"product kernel is periodic with period {period}")


def exact_asymptotic_variance_alternating(
    P: FiniteKernel, Q: FiniteKernel, pi: np.ndarray, f: np.ndarray
):
    """Asymptotic variance of path averages of f along the alternating chain.

    The chain starts at pi and applies P on even steps and Q on odd
    steps; both kernels must preserve pi.  With A = P, B = Q,
    fbar = f - pi.f and l = pi * fbar, the lag covariances sum, by
    (BA)^k B = B (AB)^k and without reversibility, to

        sigma^2 = ||fbar||^2_pi + <l, g1> + <l B, g2>,

    where g solves the Poisson equation (I - AB) g = x (Kemeny & Snell
    1960) for x1 = A (I + B) fbar and x2 = (I + A) fbar; l.1 = (l B).1 = 0,
    so g's constant does not matter.  I - AB = D (I - J) is never formed,
    as 1 - stay cancels to 0 on a near-absorbing state: D holds the leave
    rates, AB's off-diagonal row sums, and J = offdiag(AB) / D is AB's
    jump chain, with zero diagonal and stationary law nu ~ pi D.  One
    solve against I - J + 1 nu^T takes the 2k right-hand sides D^-1 x.
    With P == Q this is the homogeneous-chain asymptotic variance.  A
    search of the graph of AB > 0 raises NonErgodic, naming its cause,
    for a reducible or periodic product, as does a state that AB never
    leaves.  States of zero pi-mass are never entered from the support
    and are left out; on a one-state support sigma^2 is 0.

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
    states = np.flatnonzero(pi > 0)
    if len(states) == 1 or np.all(norm2 == 0.0):
        return 0.0 if single else np.zeros(F.shape[0])
    A, B = P.matrix, Q.matrix
    if len(states) < len(pi):
        block = np.ix_(states, states)
        A, B, pi, Fbar = A[block], B[block], pi[states], Fbar[:, states]
    M = A @ B
    _require_ergodic(M, int(states[0]))
    stay = M.reshape(-1)[:: len(M) + 1]  # a view of the diagonal
    stay[:] = 0.0
    leave = M.sum(axis=1)
    if not leave.min() > 0.0:
        never = states[np.argmin(leave)]
        raise NonErgodic(f"product kernel is reducible: state {never} never leaves")
    M /= leave[:, None]  # J
    nu = pi * leave
    np.subtract(nu / nu.sum(), M, out=M)
    stay += 1.0  # I - J + 1 nu^T
    Fcols = Fbar.T
    X = np.hstack([A @ (Fcols + B @ Fcols), Fcols + A @ Fcols]) / leave[:, None]
    g1, g2 = np.hsplit(np.linalg.solve(M, X), 2)
    L = (Fbar * pi).T  # columns l = pi * fbar, one per function
    sigma2 = norm2 + (L * g1).sum(axis=0) + ((B.T @ L) * g2).sum(axis=0)
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


def check_gibbs_iid_bound(
    spec: FiniteMixtureSpec, hs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sigma2_gibbs, var_iid) of the label functions h(m), one per row of ``hs``.

    sigma2_gibbs is the exact asymptotic variance along the Gibbs label
    chain, in one stacked solve; exact theory puts it at or above the
    i.i.d. variance var_iid.
    """
    G = build_gibbs_index_kernel(spec)
    pim = index_marginal(spec)
    sigma2 = exact_asymptotic_variance_alternating(G, G, pim, hs)
    var_iid = (hs - (hs @ pim)[:, None]) ** 2 @ pim
    return sigma2, var_iid


# key -> (label, worst over specs, bound) of each value of ``verify``: a
# value whose worst is the max passes at or below its bound, else at or above.
CHECKS = {
    "reversibility_P3": ("reversibility P3 (<= 1e-12)", max, 1e-12),
    "reversibility_Q3": ("reversibility Q3 (<= 1e-14)", max, 1e-14),
    "invariance": ("invariance of pi* (<= 1e-12)", max, 1e-12),
    "offdiagonal": ("off-diagonal Q3 >= Q4", min, True),
    "lambda_min": ("covariance ordering lambda_min (>= -1e-10)", min, -1e-10),
    "variance_gap": ("variance ordering MCC <= FCC (gap <= 1e-10)", max, 1e-10),
    "gibbs_gap": ("Gibbs >= iid variance (gap >= -1e-10)", min, -1e-10),
}


def verify(spec: FiniteMixtureSpec, hs: np.ndarray) -> dict[str, float]:
    """The values of ``CHECKS`` for one spec, building each twin once.

    Invariance is the largest |(pi S) R - pi| over the five sweep kernels
    S @ R.  The variance and Gibbs gaps are the worst over the label
    functions h(m), one per row of ``hs``, each in one stacked solve; the
    Gibbs gap comes from ``check_gibbs_iid_bound``.
    """
    pi = target_distribution(spec)
    K = {part: build(spec) for part, build in _TWINS.items()}
    P3, Q3, Q4 = K[_PSEUDO], K[_MH], K[_FROZEN]
    F = np.repeat(hs, spec.grid_size, axis=1)
    s_mcc = exact_asymptotic_variance_alternating(P3, Q3, pi, F)
    s_fcc = exact_asymptotic_variance_alternating(P3, Q4, pi, F)
    s_gibbs, var_iid = check_gibbs_iid_bound(spec, hs)
    return {
        "reversibility_P3": check_reversibility(P3, pi),
        "reversibility_Q3": check_reversibility(Q3, pi),
        "invariance": max(
            float(np.max(np.abs(pi @ K[sel].matrix @ K[ref].matrix - pi)))
            for sel, ref in _KERNELS.values()
        ),
        "offdiagonal": check_offdiagonal_dominance(Q3, Q4),
        "lambda_min": check_covariance_ordering(Q3, Q4, pi),
        "variance_gap": float(np.max(s_mcc - s_fcc)),
        "gibbs_gap": float(np.min(s_gibbs - var_iid)),
    }


def random_spec(rng: np.random.Generator, n: int, grid_size: int) -> FiniteMixtureSpec:
    """Random strictly positive spec: flat-Dirichlet masses throughout."""
    G = grid_size
    prob = rng.dirichlet(np.ones(n * G)).reshape(n, G)
    pseudo = rng.dirichlet(np.ones(G), size=n)
    proposal = rng.dirichlet(np.ones(G), size=(n, G))
    return FiniteMixtureSpec(n, np.arange(G, dtype=float), prob, pseudo, proposal)


def _scaled_exp(logw: np.ndarray, name: str) -> np.ndarray:
    """exp(logw) over its largest entry; ValueError naming the density
    unless that entry is finite."""
    top = logw.max()
    if not np.isfinite(top):
        what = "no mass on the grid" if top < 0 else "a log-density that is not finite"
        raise ValueError(f"{name} has {what} (largest log-density {top})")
    return np.exp(logw - top)


def spec_from_log_densities(
    n: int,
    grid: np.ndarray,
    log_target,
    log_pseudo,
    proposal=None,
) -> FiniteMixtureSpec:
    """Discretize continuous densities to grid masses (normalized pointwise).

    ``log_target(m, z)`` and ``log_pseudo(j, u)`` are called once per label
    on the whole grid, as the samplers call them on a block, and the
    masses are normalized after subtracting the largest log-density, so
    a target far below exp(-745) everywhere still discretizes.
    ``proposal``, a ProposalFamily when given, fills the proposal slices:
    for an independence proposal (``proposal.rho`` set) each label's slice
    is ``rho.log_density`` on the whole grid, the same row for every u;
    otherwise ``proposal.log_density(l, u, z)`` is called one point at a
    time.  Each proposal row is normalized after subtracting its largest
    log-density, as the pseudo-priors are.  The calls are checked as the
    samplers check theirs (``model._call``), so a scalar for the grid is
    refused.  ValueError if the target, a pseudo-prior or a proposal row
    has no mass on the grid or a log-density NaN or +inf there.
    """
    grid = np.asarray(grid, dtype=float)
    labels = range(1, n + 1)

    def on_grid(name, log_density):
        return np.array([_density_row(name, log_density, l, grid) for l in labels])

    def scaled_rows(logw, name):
        rows = np.array([_scaled_exp(w, f"{name} {l}") for l, w in zip(labels, logw)])
        return rows / rows.sum(axis=1, keepdims=True)

    prob = _scaled_exp(on_grid("target.log_density", log_target), "the target")
    prob /= prob.sum()
    pseudo = scaled_rows(on_grid("pseudo.log_density", log_pseudo), "pseudo-prior")
    masses = None
    if proposal is not None and proposal.rho is not None:
        rho = on_grid("proposal.rho.log_density", proposal.rho.log_density)
        masses = np.repeat(scaled_rows(rho, "proposal")[:, None, :], len(grid), axis=1)
    elif proposal is not None:
        log_r = proposal.log_density

        def row(l, u):
            logw = [_call("proposal.log_density", log_r, (l, u, z), ()) for z in grid]
            logw = np.array(logw, dtype=float)
            return _scaled_exp(logw, f"proposal {l} from u = {u}")

        masses = np.array([[row(l, u) for u in grid] for l in labels])
        masses /= masses.sum(axis=2, keepdims=True)
    return FiniteMixtureSpec(n, grid, prob, pseudo, masses)


# The section headers of a spec file, in the order save_spec writes them.
_SECTIONS = ("grid", "pi", "pseudo", "proposal")


def save_spec(spec: FiniteMixtureSpec, path) -> None:
    """Write a spec as tab-separated blocks with #grid/#pi/#pseudo/#proposal headers."""
    blocks = {"grid": [spec.grid], "pi": spec.prob, "pseudo": spec.pseudo}
    if spec.proposal is not None:
        blocks["proposal"] = spec.proposal.reshape(-1, spec.grid_size)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name, rows in blocks.items():
            fh.write(f"#{name}\n")
            for row in rows:
                fh.write("\t".join(repr(float(v)) for v in row) + "\n")


def _parse_section(lines: list[str]) -> np.ndarray:
    """The tab-separated rows of one section as a 2-D float array;
    ValueError on a bad number or ragged rows."""
    if not lines:
        return np.empty((0, 0))
    return np.loadtxt(lines, delimiter="\t", comments=None, ndmin=2)


def load_spec(path) -> FiniteMixtureSpec:
    """Read a spec written by :func:`save_spec`; ValueError on a malformed file."""
    sections: dict[str, list[str]] = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                current = line[1:]
                if current not in _SECTIONS:
                    raise ValueError(f"unknown section #{current}")
                if current in sections:
                    raise ValueError(f"repeated section #{current}")
                sections[current] = []
                continue
            if current is None:
                raise ValueError("data before the first section header")
            sections[current].append(line)
    arrays = {name: _parse_section(lines) for name, lines in sections.items()}
    for name in ("grid", "pi", "pseudo"):
        if name not in arrays:
            raise ValueError(f"missing #{name} section")
    grid, prob, pseudo = arrays["grid"].ravel(), arrays["pi"], arrays["pseudo"]
    n, G = prob.shape
    proposal = None
    if "proposal" in arrays:
        proposal = arrays["proposal"].reshape(n, G, G)
    return FiniteMixtureSpec(n, grid, prob, pseudo, proposal)
