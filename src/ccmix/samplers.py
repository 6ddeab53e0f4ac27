"""The five transition kernels and the chain driver.

Every sweep is an *index selection* followed by a *refresh* of z, and
each sampler is one cell of a 2 x 3 table:

==============  =============  ==========  ==============
selection       exact refresh  MH refresh  frozen refresh
==============  =============  ==========  ==============
conditional     gibbs          mwg         --
pseudo-prior    cc             mcc         fcc
==============  =============  ==========  ==============

The conditional selection draws m' ~ pi*(. | z) and selects z itself;
the pseudo-prior selection (Carlin & Chib 1995) refreshes the inactive
auxiliary points from their pseudo-priors and draws m' from the
reweighted index probabilities, selecting u_m'.  The exact refresh
draws z' ~ pi*(. | m'), the MH refresh proposes from the selected point
and accepts or rejects, and the frozen refresh keeps the selected point
as is.  The table is ``_KERNELS``: per sampler, a ``_Selection`` record
(``_CONDITIONAL``, ``_PSEUDO``) and a ``_Refresh`` record (``_EXACT``,
``_MH``, ``_FROZEN``), each naming the bundle part it needs; a refresh
also names its block engine, ``_exact_block`` or ``_table_sweeps``.
A sweep's index weights and MH test are computed in log-space, with
max-subtraction so that well-separated modes do not underflow (``_weights``,
``_resolve``, ``_pick``, ``_mh_log_acceptance``); ``cc_index_weights``,
``conditional_index_weights``, ``draw_index`` and ``mh_log_acceptance`` give
them for one point.

*Blocks.*  The auxiliaries, the exact draws, the independence proposals
and the uniforms do not depend on the chain state, so the sweeps run in
blocks of B: for every label, one sampler call draws the block's points
(the active label's auxiliary is drawn and discarded) and one call per
density weighs them.  With the exact refresh the label of a sweep depends
only on the label before it, so a block is one scan of an n x B label
table built in numpy.  With the MH or frozen refresh a block puts its
points in one array, and a sweep moves one integer index p over it:
p = 0 is the carried point and p = 1 + b B + k point k of block b, the
labels' auxiliaries first, then the labels' independence proposals, or
else B rows for the points a general MH refresh accepts.
Each quantity of a point (log pi*, log q, its ratio to rho, its MH
log-ratio h, MwG's certified interval) is read from one flat table at
base + p: base is 0 for the pseudo-prior selection, which uses a point
at its own label only, and (m - 1) S for MwG, which keeps the point when
its label changes, so its tables hold their S points at every label.
The pseudo-prior selection adds the current point's weight to stored
prefix sums of the other labels' weights, MwG draws from the current
point's label weights, made once a point, and the MH test compares the
two points' h.  The per-sweep selection and MH test serve the first
sweep of an exact-refresh block and the entries the tables cannot settle
(a +inf or NaN ratio, a weight too large for exp, no mass or a vanishing
q); ``step`` is one sweep of them, with no table.  The per-sweep
selection is ``_Selection.select``, given the rows and points that the
selection's ``block`` drew and the sweep index; only MwG's engine picks
a label itself, from its held point's weights.  Every block, one sweep
included, keeps its tables as the float64 arrays numpy builds, read
through memoryviews, which return the same floats as lists would: a
sweep reads only the held label's entries, and only where no certificate
settles it, so a ``tolist`` copy of every entry costs more than it
saves.  The thresholds tau and sigma, read at every skipped sweep, and
the uniforms stay lists, as does MwG's log pi* table under a general MH
refresh, which a memoryview would slow at each accepted move's row write.

*Certified holds.*  With the frozen refresh or the MH refresh of an
independence proposal, a block also holds, for each label and sweep,
thresholds that prove that a held point keeps its label and point under
those float tests: tau on the point's ratio for the pseudo-prior
selection, MwG's interval of the index uniform, and sigma on its MH
log-ratio (the derivation is beside ``_holds``).  MwG's intervals are
made with its other tables, for every point at every label, the carried
point included (the bound is beside ``_SLACK``).  The loop skips the
sweeps they certify with two or three comparisons each and runs the
tests on the others, so the chain is that of the per-sweep tests, errors
included.  There is no certificate where a threshold's bound does not
hold: an entry the tables cannot settle, a uniform within 2^-20 of 1 or
a ratio within 699 of overflow; nor for the MH refresh of a general
proposal, which draws at every sweep, nor in ``step``.

An independence proposal's points (``ProposalFamily.independent``,
R_l(u, .) = q_l) are weighed by one call per label and density (MwG's at
every label, for the next sweep's conditional weights), and its MH test
is one comparison, a_k < exp(min(0, [lt(z') - lq(z')] - [lt(u) -
lq(u)])) with lt = log pi*(m, .) and lq = log q_m, read at the indices of
u and z'.  Where q is the pseudo-prior itself, as in both studies, MCC
reuses the pseudo-prior's rows as q's (``_pseudo_rows``): 4n
density points a sweep, not 6n.  The MH refresh of a general proposal
weighs one point at a time, calling the densities on single points rather
than on blocks of one, which cost ten times as much in numpy, and copies
the point it accepts at sweep k into row k of those B, and its log pi*
into the tables' slots, so its sampler may return the same array at
every call.

*Streams.*  ``run_chain`` gives each label's auxiliaries, each label's
exact draws, the index uniforms, the MH draws (a general proposal's
points and uniforms, or an independence proposal's accept uniforms) and
each label's independence proposals a child stream of the seed of their
own, the last n spawned after the others, so a chain draws the same
numbers at every block size, and samplers that share a seed share those
streams.  A block keeps each draw where its stream put it.  The per-sweep
``_pick(_weights(.))`` and ``_pick_table`` differ only in their exp (math's,
numpy's), the prefix sums also in shift and order: where a uniform falls
within rounding of a cumulative weight, a label, and the chain after it,
can differ between block sizes.
``step`` draws every stream from its one generator in a fixed order: the
auxiliaries in label order, the index uniform, then every label's exact
point, or every label's independence proposal and then the accept
uniform, or a general proposal and then its uniform.

*Lazy errors.*  PseudoPriorZero, AllZeroMass, the RuntimeWarning for a
vanishing target and pseudo-prior pair, the ValueError for a non-finite
z, the InvalidCurrentState of the MH test and the ConfigError for a NaN
index weight or MH log-ratio (from a NaN density) or for a +inf
pseudo-prior or proposal log-density fire only for values a sweep uses,
at the sweep that uses them; a block entry drawn and discarded never
raises.

The selection hands the densities of the point it selects to the
refresh, and the refresh those of the point it keeps to the next sweep,
so no density is evaluated twice.  The README tables the points each
sampler evaluates and draws per sweep of ``run_chain``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
import time
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import (
    AllZeroMass,
    ConfigError,
    InvalidCurrentState,
    MixtureTarget,
    PseudoPriorSet,
    PseudoPriorZero,
    ProposalFamily,
    State,
    _block,
    _call,
    _check_finite,
    _density_row,
    _shape,
)

__all__ = [
    "SamplerId",
    "SamplerConfig",
    "ModelBundle",
    "ChainTrace",
    "ConfigError",
    "step",
    "run_chain",
    "conditional_index_weights",
    "cc_index_weights",
    "mh_log_acceptance",
    "draw_index",
]

_NEG_INF = float("-inf")
_INF = float("inf")
_NAN = float("nan")
_RHO = "proposal.rho.log_density"  # the MH test's density, named in its errors


class SamplerId(str, Enum):
    GIBBS = "gibbs"
    MWG = "mwg"
    CC = "cc"
    MCC = "mcc"
    FCC = "fcc"

    @classmethod
    def _missing_(cls, value):
        raise ConfigError(f"unknown sampler id {value!r}, not one of {', '.join(cls)}")


DEFAULT_BURN_IN = 1000
# Sweeps per block in run_chain.  The chain does not depend on it; larger
# blocks spread each block's fixed cost over more sweeps.
_BLOCK_SIZE = 1024


def _integer(x) -> bool:
    """An int or a numpy integer, not a bool (``type(x) is int`` first: cheap)."""
    return type(x) is int or isinstance(x, numbers.Integral) and type(x) is not bool


@dataclass(frozen=True)
class SamplerConfig:
    sampler_id: SamplerId
    n_iterations: int
    initial_state: State
    burn_in: int = DEFAULT_BURN_IN
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sampler_id", SamplerId(self.sampler_id))
        for name in ("n_iterations", "burn_in", "seed"):
            if not _integer(value := getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.n_iterations < 1:
            raise ConfigError("n_iterations must be positive")
        if not 0 <= self.burn_in < self.n_iterations:
            raise ConfigError(
                f"burn_in must satisfy 0 <= burn_in < n_iterations, "
                f"got {self.burn_in} vs {self.n_iterations}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class ModelBundle:
    """The target plus whatever auxiliary objects the chosen sampler needs."""

    target: MixtureTarget
    pseudo: Optional[PseudoPriorSet] = None
    proposal: Optional[ProposalFamily] = None


@dataclass
class ChainTrace:
    """Post-burn-in states of one chain, stored column-wise.

    ``m`` is an int array of component labels, ``z`` a float array of
    shape (len,) or (len, z_dim).  ``burn_in`` sweeps ran before them, and
    ``wall_clock_seconds`` times all sweeps.  ``acceptance_rate`` is present
    for the metropolised samplers only and covers post-burn-in steps.  The
    sampler and the seed are the ``SamplerConfig``'s.
    """

    m: np.ndarray
    z: np.ndarray
    burn_in: int
    wall_clock_seconds: float
    acceptance_rate: Optional[float] = None

    def __len__(self) -> int:
        return len(self.m)


class _Streams(NamedTuple):
    aux: Sequence[np.random.Generator]  # one per label
    exact: Sequence[np.random.Generator]  # one per label
    index: np.random.Generator
    mh: np.random.Generator
    proposal: Sequence[np.random.Generator]  # one per label


def _spawn(seed: int, n: int) -> _Streams:
    # The proposal streams come last, so the others are those of a spawn
    # of 2n + 2.
    children = np.random.SeedSequence(seed).spawn(3 * n + 2)
    g = [np.random.default_rng(s) for s in children]
    return _Streams(g[:n], g[n : 2 * n], g[2 * n], g[2 * n + 1], g[2 * n + 2 :])


def _point(x: np.ndarray, k: int):
    """Point k of a block: a float, or a row for vector z."""
    return x.item(k) if x.ndim == 1 else x[k]


def _infinite_target(label: int) -> str:
    return f"the target log-density of label {label} is +inf"


def _weights(logw: Sequence[float]) -> list[float]:
    """Running sums of exp(logw) by max-subtraction; AllZeroMass if all are
    -inf, ConfigError if a NaN or +inf entry makes the sum NaN.  A +inf
    entry comes from the target: ``_resolve`` settles +inf ratios first."""
    # A loop, not a comprehension: this runs every sweep.  exp(-inf) is 0.0.
    top = max(logw)
    sums, acc = [], 0.0
    for lw in logw:
        acc += math.exp(lw - top)
        sums.append(acc)
    if acc != acc:  # NaN; so is an all -inf sum, as -inf - -inf is NaN
        if all(lw == _NEG_INF for lw in logw):
            raise AllZeroMass("every index weight is zero")
        cause = f"from log-weights {list(logw)}"
        if _INF in logw:
            cause = f"as {_infinite_target(list(logw).index(_INF) + 1)}"
        raise ConfigError(f"the index weights are NaN, {cause}")
    return sums


def _shares(logw: Sequence[float]) -> np.ndarray:
    """exp(logw) normalized: each weight over the total of ``_weights``."""
    total, top = _weights(logw)[-1], max(logw)
    return np.array([math.exp(lw - top) / total for lw in logw])


def _pick(sums: Sequence[float], v: float) -> int:
    """The label 1..n whose running sum first exceeds v times the total, else
    n (v times a zero or subnormal total can round up to it)."""
    return min(bisect.bisect_right(sums, v * sums[-1]), len(sums) - 1) + 1


def draw_index(weights: Sequence[float], rng: np.random.Generator) -> int:
    """Draw a component label 1..n by inverse CDF with a single uniform.

    Ties in the cumulative sums are resolved deterministically in label
    order, so the draw is reproducible given the RNG stream.  No weights,
    or a negative or non-finite one, raise ValueError.
    """
    if len(weights) == 0:
        raise ValueError("draw_index needs at least one weight")
    for i, w in enumerate(weights, 1):
        if not 0.0 <= w < _INF:
            fault = "negative" if math.isfinite(w) else "not finite"
            raise ValueError(f"weight {i} of draw_index is {fault}: {w}")
    return _pick(list(itertools.accumulate(weights)), rng.random())


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
    return _shares([r[0].item(0) for r in rows])


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
    return _shares(logw)


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


def _pick_table(logw: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``_pick(_weights(column), v_k)``, with numpy's exp, for each column of
    log-weights (labels on axis 0, sweeps on the last), or 0 where a column
    holds +inf or NaN or only -inf, which the per-sweep selection settles."""
    with np.errstate(invalid="ignore"):
        top = logw.max(axis=0)
        acc = np.cumsum(np.exp(logw - top), axis=0)
    # v < 1 and a finite top makes acc[-1] >= 1, so v * acc[-1] < acc[-1]: picks <= n.
    picks = (acc <= v * acc[-1]).sum(axis=0) + 1
    return np.where(np.isfinite(top), picks, 0)


# A *carry* sums up the current point z for the selection of the next
# sweep: the conditional selection carries the row log pi*(., z), the
# pseudo-prior selection the pair (log pi*(m, z), its ratio to rho_m(z)).
# With an independence proposal q the carry also holds log q at z: the
# row log q_.(z) after the row of the target, or a third entry
# log q_m(z) after the pair.
# A selection has six parts:
#   block(bundle, streams, size, q) draws and weighs every label's
#     auxiliaries for ``size`` sweeps: their rows and their points;
#   select(n, v, m, z, carry, aux, u, k) -> (m', z', carry') selects at
#     sweep k of a block from its index uniform v, the current point z
#     and its carry, and the rows aux and points u that block drew; the
#     pseudo-prior selection moves to label m''s auxiliary u[m' - 1][k]
#     unless m' = m, the conditional one keeps z;
#   rows(bundle, labels, blocks, q) weighs each label's block: lists of
#     arrays indexed [density][label][point], q's last when given;
#   carry_of(rows, j, k) is the carry of point k of label j + 1's block;
#   exact_logw(rows, aux) is the log-weights [label, j, k] of the index
#     draw at sweep k + 1 from label j + 1's exact point of sweep k;
#   needs is the bundle part it requires, (name, accessor), or ().
# A refresh has needs and its block engine, sweeps(kernel, bundle, streams,
# size, m, z, carry) -> the labels and points of ``size`` sweeps from (m, z),
# the last (m, z, carry) and the count of accepted moves.


class _Selection(NamedTuple):
    block: Callable
    select: Callable
    rows: Callable
    carry_of: Callable
    exact_logw: Callable
    needs: tuple


class _Refresh(NamedTuple):
    sweeps: Callable
    needs: tuple


def _conditional_select(n, v, m, z, carry, aux, u, k):
    # The carry's row log pi*(., z); MwG's block engine picks in its loop.
    return _pick(_weights(carry[:n]), v), z, carry


def _row_at(bundle, m, z, lt):
    """The carry of one point z, given lt = log pi*(m, z): log pi*(., z)."""
    row, log_density = [], bundle.target.log_density
    for j in range(1, bundle.target.n + 1):
        lt_j = lt if j == m else _call("target.log_density", log_density, (j, z), ())
        row.append(float(lt_j))
    return row


def _ratio_of(rows, j, k):
    lt = rows[0][j].item(k)
    ratio = _ratio(lt, rows[1][j].item(k))
    return (lt, ratio) if len(rows) == 2 else (lt, ratio, rows[2][j].item(k))


def _ratio_at(bundle, m, z, lt):
    """The carry of one point z, given lt = log pi*(m, z): (lt, its ratio)."""
    lr = _call("pseudo.log_density", bundle.pseudo.log_density, (m, z), ())
    return lt, _ratio(lt, float(lr))


def _draws(bundle, name, sampler, streams, size):
    """``sampler(j, streams[j - 1], size)`` for every label j, each checked
    to be a block of ``size`` points."""
    z_dim = bundle.target.z_dim
    shape = (size,) if z_dim == 1 else (size, z_dim)
    return [
        _call(name, sampler, (j, streams[j - 1], size), shape)
        for j in range(1, bundle.target.n + 1)
    ]


def _pseudo_block(bundle, streams, size, q):
    """Every label's auxiliaries for ``size`` sweeps, with their weights."""
    labels = range(1, bundle.target.n + 1)
    u = _draws(bundle, "pseudo.sampler", bundle.pseudo.sampler, streams.aux, size)
    return _pseudo_rows(bundle.target, bundle.pseudo, labels, u, q), u


def _pseudo_select(n, v, m, z, carry, aux, u, k):
    carries = [_ratio_of(aux, j, k) for j in range(n)]
    logw = [c[1] for c in carries]
    logw[m - 1] = carry[1]  # the active label's auxiliary is z itself
    if _unsettled(logw):
        lts = [c[0] for c in carries]
        lts[m - 1] = carry[0]
        logw = _resolve(logw, lts)
    i = _pick(_weights(logw), v)
    return (m, z, carry) if i == m else (i, _point(u[i - 1], k), carries[i - 1])


def _pseudo_exact_logw(rows, aux):
    """The auxiliaries' ratios of sweep k + 1, label j's replaced by that
    of its exact point of sweep k."""
    n = aux.shape[1]
    logw = np.repeat(_ratios(*aux)[:, None, 1:], n, axis=1)
    logw[np.arange(n), np.arange(n)] = _ratios(*rows)[:, :-1]
    return logw


def _conditional_rows(bundle, labels, blocks, q=None):
    rows = _target_rows("target.log_density", bundle.target, blocks)
    if q is None:
        return rows
    return rows + _target_rows("proposal.rho.log_density", q, blocks)


_CONDITIONAL = _Selection(
    lambda bundle, streams, size, q: (None, []),
    _conditional_select,
    _conditional_rows,
    lambda rows, j, k: [row[j].item(k) for row in rows],
    lambda rows, aux: rows[:, :, :-1],
    (),
)
_PSEUDO = _Selection(
    _pseudo_block,
    _pseudo_select,
    lambda bundle, labels, blocks, q=None: _pseudo_rows(
        bundle.target, bundle.pseudo, labels, blocks, q
    ),
    _ratio_of,
    _pseudo_exact_logw,
    ("a PseudoPriorSet", lambda b: b.pseudo),
)


def _exact_block(kernel, bundle, streams, size, m, z, carry):
    """Sweeps with the exact refresh.  It keeps label m's exact draw and
    drops the selected point, so the label drawn at sweep k > 0 depends
    only on the label of sweep k - 1: a table lookup, with the per-sweep
    selection for sweep 0 and the table's zeros.  In a block that holds a
    non-finite draw, each kept point is checked, table-driven or not."""
    sel, n = kernel[0], bundle.target.n
    aux, u = sel.block(bundle, streams, size, None)
    v = streams.index.random(size)
    draw = bundle.target.conditional_sampler
    x = _draws(bundle, "target.conditional_sampler", draw, streams.exact, size)
    rows = sel.rows(bundle, range(1, n + 1), x)
    x = np.array(x, dtype=float)
    finite = math.isfinite(x.sum())
    logw = sel.exact_logw(np.array(rows), np.array(aux))
    table = _pick_table(logw, v[1:]).tolist()
    uniforms = v.tolist()
    ms = []
    for k in range(size):
        j = table[m - 1][k - 1] if k else 0
        if not j:
            if k:
                carry = sel.carry_of(rows, m - 1, k - 1)
            j = sel.select(n, uniforms[k], m, None, carry, aux, u, k)[0]
        if not finite:
            _check_finite(x[j - 1, k])
        m = j
        ms.append(m)
    ms = np.array(ms)
    zs = x[ms - 1, np.arange(size)]
    return ms, zs, m, _point(zs, -1), sel.carry_of(rows, m - 1, size - 1), 0


def _by_point(first: float, x: np.ndarray, slots: int = 0) -> memoryview:
    """``first``, then the entries of x in C order, then ``slots`` unset
    entries: a float64 array read through a memoryview, which returns the
    array's floats."""
    return memoryview(np.concatenate(([first], x.ravel(), np.empty(slots))))


def _pseudo_tables(carry, parts, slots: int):
    """The pseudo-prior selection's tables by point index p, of the carry
    and of the points that ``parts`` weigh (rows [density][label][sweep]
    each: the auxiliaries, then any independence proposals): log pi* (lts),
    then ``slots`` entries for the points a general MH refresh accepts, and
    the ratios rs = log pi* - log rho; given q's log-density as the carry's
    third entry and the parts' third row, also log q (lqs) and the MH
    log-ratios hs = log pi* - log q (else None), as ``_by_point``
    memoryviews, with the auxiliaries' ratios and the last part's h as
    arrays [label, sweep]."""
    lt = np.array([rows[0] for rows in parts])  # [part, label, sweep]
    ratios = _ratios(lt, np.array([rows[1] for rows in parts]))
    lqs = hs = h = None
    if len(carry) == 3:
        lq = np.array([rows[2] for rows in parts])
        with np.errstate(invalid="ignore"):
            h = lt - lq
        lqs, hs, h = _by_point(carry[2], lq), _by_point(carry[0] - carry[2], h), h[-1]
    lts = _by_point(carry[0], lt, slots)
    return lts, _by_point(carry[1], ratios), lqs, hs, ratios[0], h


# *Certified holds.*  A sweep that would keep the held label and point is
# skipped when a threshold proves that the exact test below keeps them.
# Let u = 2^-53, the unit roundoff: + - * / round within a relative u,
# math.exp within 2u (glibc: under 1 ulp) and numpy's log within 8u.
# _SLACK = 2^-30 is 2^23 u: it covers the few roundings of each bound
# many times over and leaves to the exact test only the sweeps within a
# relative 1e-9 of their boundary.
#
# Selection (``_holds``).  Let s be the shift of sweep k, P the other
# labels' weight below m and S their total, both read from the prefix
# table (S >= 1).  The exact test computes wk = exp(r - s) and
# uk = v (S + wk), and keeps label m iff (m = 1 or P <= uk) and
# (m = n or uk < P + wk); for m = n a failed second test falls through to
# label n.  With |r - s| < 700, wk is e^(r - s) within 702u, and uk is
# v (S + wk) within 2u.  So P <= uk holds once wk >= P / (v (1 - 2u)) - S,
# which is at most low = (1 + _SLACK) P/v - (1 - _SLACK) S as rounded.
# And uk < P + wk holds once wk (1 - v') > v' S - P with v' = v (1 + 4u).
# Where 1 - v >= 2^-20, so that 4u / (1 - v) <= 2^-31, that holds once
# wk > high = max(S (v + _SLACK) - P (1 - _SLACK), 1e-300)
# * (1 + _SLACK) / (1 - v).  Let B = max(low, high): B >= 1e-300 for
# m < n, and B >= 2 _SLACK for m = n, where P = S.  Since |log B| < 711,
# tau = s + _SLACK |s| + (log B + 711 _SLACK) exceeds s + log B by more
# than twice its rounding.  So r > tau gives r - s > log B > -700 with a
# margin, and wk > B: label m is kept.  The sweep loop also asks
# r - min_k s < 699, so the exact test takes its fast branch (d < 700) at
# every sweep of the block.  tau is +inf where 1 - v < 2^-20 and m < n,
# and NaN, which certifies nothing, where s is not finite (stored as
# -inf) or v = P = 0.
#
# MH test (``_rejections``).  Let hz = log pi*(m, z') - log q_m(z') for
# the proposal of sweep k and h that of the held point.  The exact test
# computes d = hz - h and, for finite d, accepts iff d >= 0 or a < exp(d).
# Let L = log a and sigma = hz + _SLACK |hz| - (L - _SLACK (1 + |L|)).
# If h > sigma then hz - h < L - _SLACK (1 + |hz| + |L|) / 2 < 0, so d
# stays below 0 and exp(d) below a: the test rejects.  A +inf h gives
# d = -inf, which the general test rejects too.  sigma is NaN or +inf
# where hz is not finite, and +inf where a = 0.
#
# MwG's selection (``_intervals``).  Let A_j be a point's label weights
# summed over labels 1..j and T their sum.  The exact test keeps label m
# iff (m = 1 or A_(m-1) <= v T) and (m = n or v T < A_m), v T rounded
# within u; v > A_(m-1) / T (1 + _SLACK) and v < A_m / T (1 - _SLACK),
# each bound rounded within 2u, give both.
#
# MwG's tables (``_own_tables``).  The intervals of every point of a
# block, the carried one included, at every label, are made in numpy:
# numpy's exp of the same differences l_i - max l as the exact test's (a
# subtraction rounds alike), running sums of those weights and one
# division per end.  The exact test makes the same running sums of
# math.exp's weights and divides nothing.  A running sum, on either side,
# is within (n + 3)u relative of that of the exact exponentials: 4u from
# exp (numpy's tests hold its float64 exp to 1 ulp, glibc's is under 1
# ulp; either is 2 ulp at most) and (n - 1)u from the additions.  So each
# side's A_j / T is within (2n + 8)u of the exact exponentials' (numpy's
# division adds u), and the two differ by under (4n + 16)u, for any point
# and any label, which _SLACK = 2^23 u covers many times over for any
# n < 2^20: it need not grow.  A weight below 2^-1022 errs absolutely
# instead, by up to 2^-1072, and so A_j / T (T >= 1) by up to n 2^-1072.
# A lower bound certifies only v > 0, so v >= 2^-53, far beyond that
# error; an upper bound is lowered by _FLOOR = 2^-1000, so it certifies
# v = 0 only where A_m / T exceeds 2^-1000, which that error cannot reach.
_SLACK = 2.0**-30
_FLOOR = 2.0**-1000


def _holds(shift, prefix, v):
    """tau[m][k] for each active label m and sweep k (above), with a +inf
    sentinel at k = size, as lists; ``prefix`` is [label, m, k]."""
    n = len(shift)
    ix = np.arange(n)
    below, total = prefix[ix, ix], prefix[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        low = below / v * (1.0 + _SLACK) - total * (1.0 - _SLACK)
        gap = 1.0 - v
        scale = np.where(gap >= 2.0**-20, (1.0 + _SLACK) / gap, _INF)
        high = np.maximum(total * (v + _SLACK) - below * (1.0 - _SLACK), 1e-300)
        high *= scale
        high[-1] = 0.0  # label n makes the first test only
        log_bound = np.log(np.maximum(low, high))
        tau = (shift + _SLACK * np.abs(shift)) + (log_bound + 711.0 * _SLACK)
    tau = tau.tolist()
    for row in tau:
        row.append(_INF)
    return tau


def _rejections(hz, a) -> list:
    """sigma[j][k] (above) for the proposals' hz, [label, sweep], and the
    accept uniforms a, as lists."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = np.log(a)
        log_a -= _SLACK * (1.0 + np.abs(log_a))
        return (hz + _SLACK * np.abs(hz) - log_a).tolist()


def _intervals(logw):
    """MwG's certified intervals (vlo, vhi) of the index uniform (above) at
    every label of points with label log-weights logw [label, point], as
    arrays [label, point]; NaN, which certifies nothing, where a log-weight
    is NaN or +inf."""
    with np.errstate(invalid="ignore"):
        acc = np.cumsum(np.exp(logw - logw.max(axis=0)), axis=0)
        share = acc / acc[-1]  # share[-1] is 1, or NaN with the weights
    first = np.full((1, logw.shape[1]), -1.0)
    vlo = np.concatenate((first, share[:-1] * (1.0 + _SLACK)))
    vhi = share * (1.0 - _SLACK) - _FLOOR
    vhi[-1] = share[-1]
    return vlo, vhi


def _own_tables(carry, prop, size: int):
    """MwG's tables of every point at every label, label-major: entry
    (j - 1) S + p is point p's at label j, S points a label, the carried
    point p = 0 first, then the independence proposals that ``prop`` weighs
    (rows [density][label][sweep], q's after the target's): log pi* (lts),
    log q (lqs), h = log pi* - log q (hs) and the intervals (vlo, vhi) of
    ``_intervals``, as memoryviews of float64 arrays, with each label's
    proposals' h at that label as an array [label, sweep].  With no
    ``prop`` (a general MH refresh) there is only lts, a list, with
    ``size`` slots after the carried point for the points the refresh
    accepts into ``points``."""
    if prop is None:
        lts = []
        for lt in carry:
            lts += [lt] + [0.0] * size
        return lts, None, None, None, None, None
    n = len(prop) // 2
    rows = np.array(prop).reshape(2 * n, -1)
    rows = np.concatenate((np.array(carry)[:, None], rows), axis=1)
    lt, lq = rows[:n], rows[n:]  # [label, point]
    with np.errstate(invalid="ignore"):
        h = lt - lq
    ix = np.arange(n)
    hz = h[:, 1:].reshape(n, n, size)[ix, ix]
    lts, lqs, hs, vlos, vhis = (
        memoryview(x.ravel()) for x in (lt, lq, h, *_intervals(lt))
    )
    return lts, lqs, hs, hz, vlos, vhis


def _prefix_tables(ratios, v, never, certify: bool):
    """For each active label m and sweep k: the shift, the largest of the
    other labels' auxiliary ratios, and the prefix sums of their weights
    exp(ratio - shift) in label order, zero at m, flat in k * n + label;
    each label's row of either is a memoryview of a contiguous float64 row,
    which ``bisect`` searches as it would a list.  With ``certify``, also
    the hold thresholds tau[m][k], as lists, and each label's least finite
    shift.  Where one of those ratios is +inf or NaN, or all are -inf, the
    shift is -inf and the sweep falls back on the per-sweep selection.
    Without ``certify`` every label gets the list ``never``."""
    n = len(ratios)
    others = np.repeat(ratios[:, None], n, axis=1)
    others[np.arange(n), np.arange(n)] = -_INF
    with np.errstate(invalid="ignore"):
        shift = others.max(axis=0)
        prefix = np.exp(others - shift)
    for j in range(1, n):  # np.cumsum's sums, in a tenth of its axis-0 time
        prefix[j] += prefix[j - 1]
    finite = np.isfinite(shift)
    shift[~finite] = -_INF
    flat = prefix.transpose(1, 2, 0).reshape(n, -1)
    shifts, flats = [memoryview(x) for x in shift], [memoryview(x) for x in flat]
    if not certify:
        return shifts, flats, [never] * n, [_INF] * n
    least = np.where(finite, shift, _INF).min(axis=1).tolist()
    return shifts, flats, _holds(shift, prefix, v), least


def _general_refresh(bundle, streams):
    """The MH refresh of a general proposal, one point at a time: (m, u,
    lt_u) -> None to keep u, else the accepted point z and log pi*(m, z)."""
    target, proposal, rng = bundle.target, bundle.proposal, streams.mh
    shape = () if target.z_dim == 1 else (target.z_dim,)

    def refresh(m, u, lt_u):
        z = _call("proposal.sampler", proposal.sampler, (m, u, rng), shape)
        lt_z = float(_call("target.log_density", target.log_density, (m, z), ()))
        lr_uz = _call("proposal.log_density", proposal.log_density, (m, u, z), ())
        lr_zu = _call("proposal.log_density", proposal.log_density, (m, z, u), ())
        log_alpha = _mh_log_acceptance(m, lt_u, lr_uz, lt_z, lr_zu)
        if rng.random() < math.exp(log_alpha):
            _check_finite(z)
            return z, lt_z
        return None

    return refresh


def _table_sweeps(kernel, bundle, streams, size, m, z, carry):
    """Sweeps with the MH or the frozen refresh, by point index p (module
    docstring, *Blocks*): the point is entry p of one array ``points``,
    made at block entry, and each of its quantities is read from a flat
    table at base + p, base 0 for the pseudo-prior selection and (m - 1) S
    for MwG's tables of S points a label.  Each pass of the loop skips the
    sweeps certified to keep the held label and point, then runs the next
    sweep by the exact selection and MH test."""
    sel, kind = kernel
    n, labels = bundle.target.n, range(1, bundle.target.n + 1)
    pseudo, q = sel is _PSEUDO, bundle.proposal.rho if kind is _MH else None
    aux, blocks = sel.block(bundle, streams, size, q)
    v = streams.index.random(size)
    # A general MH refresh draws at every sweep, so it skips none.
    general = kind is _MH and q is None
    certify = not general
    never = [_INF] * (size + 1)
    sigmas = [never] * n
    pts = [_block(z), *blocks]
    # The point of label 1's proposal of sweep 0, or of the row of the
    # point a general refresh accepts at sweep 0.
    first = 1 + len(blocks) * size
    prop = None
    if q is not None:
        x = _draws(bundle, "proposal.rho.sampler", q.sampler, streams.proposal, size)
        pts += x
        prop = sel.rows(bundle, labels, x, q)
        a = streams.mh.random(size)
    # Unless every drawn point is finite, each is checked as it is kept.
    check = not math.isfinite(sum(b.sum() for b in pts[1:]))
    if general:  # with a row for each point it accepts
        refresh, read = _general_refresh(bundle, streams), None
        pts.append(np.empty((size, *_shape(z))))
    points = np.concatenate(pts)
    if pseudo:
        parts = [aux] if q is None else [aux, prop]
        slots = size if general else 0
        lts, rs, lqs, hs, ratios, hz = _pseudo_tables(carry, parts, slots)
        shifts, prefixes, taus, least = _prefix_tables(ratios, v, never, certify)
        stride = 0
    else:
        lts, lqs, hs, hz, vlos, vhis = _own_tables(carry, prop, size)
        stride = len(lts) // n
    if q is not None:
        sigmas, a = _rejections(hz, a), a.tolist()
    base, sg = (m - 1) * stride, sigmas[m - 1]
    if pseudo:
        at = None  # each label's tables, made at the first move
        shift, prefix, tau_m = shifts[m - 1], prefixes[m - 1], taus[m - 1]
        r = rs[0]
    else:
        weighed, vlo, vhi = None, 2.0, 2.0
    if q is not None:
        h = hs[base]
    v = v.tolist()
    v.append(2.0)  # ends a run of MwG's certified sweeps at k = size
    exp, bisect_right, inf, ninf = math.exp, bisect.bisect_right, _INF, -_INF
    p, k, n_accepted = 0, 0, 0
    starts, es = [0], [m - 1]  # the sweep from which each (label, point) is kept
    # held: the held label or point changed; record it and, with
    # certificates, look its thresholds up.
    tau, held = never, certify
    while True:
        if certify:  # skip the certified sweeps
            if held and k < size:
                held = False
                if pseudo:
                    tau = tau_m if r - least[m - 1] < 699.0 else never
                else:
                    vlo, vhi = vlos[base + p], vhis[base + p]
            if not pseudo:
                while vlo < v[k] < vhi and sg[k] < h:
                    k += 1
            elif q is None:
                while tau[k] < r:
                    k += 1
            else:
                while tau[k] < r and sg[k] < h:
                    k += 1
        if k == size:
            break
        if pseudo:
            if tau[k] < r:
                i = m  # the selection is certified, the MH test is not
            elif (d := r - shift[k]) < 700.0:  # not +inf, NaN, or too large for exp
                wk = exp(d)  # the current point's weight
                lo = k * n
                uk = v[k] * (prefix[lo + n - 1] + wk)
                i = bisect_right(prefix, uk, lo, lo + m - 1) - lo
                if i == m - 1 and not uk < prefix[lo + i] + wk:
                    i = min(bisect_right(prefix, uk - wk, lo + m, lo + n) - lo, n - 1)
                i += 1
            else:
                i = sel.select(n, v[k], m, None, (lts[p], r), aux, blocks, k)[0]
            if i != m:
                if at is None:
                    at = list(zip(shifts, prefixes, taus, sigmas))
                shift, prefix, tau_m, sg = at[i - 1]
                m, p, held = i, 1 + (i - 1) * size + k, True
                r = rs[p]
                if q is not None:
                    h = hs[p]
        elif vlo < v[k] < vhi:
            pass  # the selection is certified, the MH test is not
        else:
            # The held point's label weights stand until a move is accepted.
            if p != weighed:
                sums, weighed = _weights(lts[p::stride]), p
            if (i := _pick(sums, v[k])) != m:
                m, base, held, sg = i, (i - 1) * stride, True, sigmas[i - 1]
                if q is not None:
                    h = hs[base + p]
        if q is not None:  # o: label m's proposal of sweep k
            o = first + (m - 1) * size + k
            hk = hs[base + o]
            d = hk - h
            if ninf < d < inf:
                accept = d >= 0.0 or a[k] < exp(d)
            else:  # the errors and rejections of the general MH test
                lt, lq = lts[base + p], lqs[base + p]
                lt_z, lq_z = lts[base + o], lqs[base + o]
                log_alpha = _mh_log_acceptance(m, lt, lq_z, lt_z, lq, _RHO)
                accept = a[k] < exp(log_alpha)
            if accept:
                p, n_accepted, held, h = o, n_accepted + 1, True, hk
                if pseudo:
                    r = rs[p]
        elif general:
            if p != read:  # the held point, read once a point
                read, u = p, _point(points, p)
            moved = refresh(m, u, lts[base + p])
            if moved is not None:
                # The engine keeps a copy: a sampler may reuse its array.
                p, n_accepted, held = first + k, n_accepted + 1, True
                points[p] = moved[0]
                if pseudo:
                    lts[p], r = _ratio_at(bundle, m, *moved)
                else:  # its row, log pi* at every label, into the list
                    lts[p::stride] = _row_at(bundle, m, *moved)
        if held:
            held = certify
            starts.append(k)
            es.append(p * n + m - 1)
            if check:
                _check_finite(_point(points, p))
        k += 1
    z = _point(points, p)
    if pseudo:
        carry = (lts[p], r) if q is None else (lts[p], r, lqs[p])
    else:
        carry = list(lts[p::stride])
        if q is not None:
            carry += lqs[p::stride]
    es = np.repeat(es, np.diff(starts + [size]))
    return es % n + 1, points[es // n], m, z, carry, n_accepted


_EXACT = _Refresh(
    _exact_block,
    ("target.conditional_sampler", lambda b: b.target.conditional_sampler),
)
_MH = _Refresh(_table_sweeps, ("a ProposalFamily", lambda b: b.proposal))
_FROZEN = _Refresh(_table_sweeps, ())  # keeps the selected point

_KERNELS = {
    SamplerId.GIBBS: (_CONDITIONAL, _EXACT),
    SamplerId.MWG: (_CONDITIONAL, _MH),
    SamplerId.CC: (_PSEUDO, _EXACT),
    SamplerId.MCC: (_PSEUDO, _MH),
    SamplerId.FCC: (_PSEUDO, _FROZEN),
}


def _check(sampler_id: SamplerId, bundle: ModelBundle, state: State):
    """Raise ConfigError unless the sampler id, a SamplerId or its value,
    is known and the bundle and state fit the sampler: the part each of
    its records needs, an integer target n and every part with it, an
    integer label in 1..n, z of the target's shape, log pi*(m, z) finite
    and log rho_m(z) and log q_m(z) not +inf.  Return the sampler's kernel
    and the state's carry, which holds those densities as the comment
    above ``_Selection`` lays out.

    Weighing the state is the first checked call (``model._call``); the
    sweeps check every later one, so a callback that breaks the protocol
    raises ConfigError naming it at the first call that shows it.  A
    TypeError or ValueError raised inside a callback, at any call, becomes
    such a ConfigError, with the original chained."""
    sampler_id = SamplerId(sampler_id)
    kernel = _KERNELS[sampler_id]
    for name, get in (part.needs for part in kernel if part.needs):
        if get(bundle) is None:
            raise ConfigError(f"{sampler_id.value} sampling needs {name}")
    target, proposal = bundle.target, bundle.proposal
    if not _integer(n := target.n):  # a float fails in range, True is one label
        raise ConfigError(f"the target's component count must be an integer, got {n!r}")
    for name, part in (
        ("pseudo-prior", bundle.pseudo),
        ("proposal", proposal),
        ("proposal's rho", None if proposal is None else proposal.rho),
    ):
        if part is not None and part.n != n:
            raise ConfigError(f"{name} has {part.n} components, the target has {n}")
    # A float label would pass the range test and never equal j in 1..n.
    m = state.m
    if not _integer(m):
        raise ConfigError(f"label must be an integer, got {m!r}")
    if not 1 <= m <= n:
        raise ConfigError(f"label {m} outside 1..{n}")
    # A one-dimensional z is a scalar, not an array of length 1.
    shape = () if target.z_dim == 1 else (target.z_dim,)
    if _shape(state.z) != shape:
        raise ConfigError(f"z must have shape {shape}, got {_shape(state.z)}")
    sel = kernel[0]
    q = proposal.rho if kernel[1] is _MH else None
    rows = sel.rows(bundle, [m], [_block(state.z)], q)
    carry = sel.carry_of(rows, 0, 0)
    lt = carry[0] if sel is _PSEUDO else carry[m - 1]
    if not -math.inf < lt < math.inf:
        kinds = {-math.inf: "zero mass", math.inf: "a +inf log-density"}
        what = kinds.get(lt, "a NaN log-density")
        raise ConfigError(f"the target has {what} at the initial state {state}")
    # The first sweep also reads log rho_m(z), in the ratio (NaN for a
    # +inf), and log q_m(z), if weighed.
    if sel is _PSEUDO and carry[1] != carry[1] and rows[1][0].item(0) == math.inf:
        raise ConfigError(f"pseudo.log_density is +inf at the initial state {state}")
    if q is not None and carry[2 if sel is _PSEUDO else n + m - 1] == math.inf:
        raise ConfigError(f"{_RHO} is +inf at the initial state {state}")
    return kernel, carry


def step(
    sampler_id: SamplerId,
    bundle: ModelBundle,
    state: State,
    rng: np.random.Generator,
) -> tuple[State, Optional[bool]]:
    """One sweep of the sampler from ``state``, every draw from ``rng``.

    Returns the new state and whether the MH refresh accepted its
    proposal (None for samplers without one).  The per-sweep selection
    and refresh, with no table: it weighs the state, the auxiliaries and
    only the kept label's independence proposal.
    """
    kernel, carry = _check(sampler_id, bundle, state)
    (sel, kind), target = kernel, bundle.target
    n, q = target.n, bundle.proposal.rho if kind is _MH else None
    per_label = [rng] * n
    streams = _Streams(per_label, per_label, rng, rng, per_label)
    aux, u = sel.block(bundle, streams, 1, q)
    v = rng.random()
    if kind is _EXACT:
        draw = target.conditional_sampler
        x = _draws(bundle, "target.conditional_sampler", draw, per_label, 1)
    elif q is not None:
        x = _draws(bundle, "proposal.rho.sampler", q.sampler, per_label, 1)
        a = rng.random()
    m, z, carry = sel.select(n, v, state.m, state.z, carry, aux, u, 0)
    lt, at_q = (carry[0], 2) if sel is _PSEUDO else (carry[m - 1], n + m - 1)
    accepted = None
    if kind is _EXACT:
        z = _point(x[m - 1], 0)
    elif q is not None:  # the engine's arithmetic: d, then the general test
        lt_z = _density_row("target.log_density", target.log_density, m, x[m - 1])
        lq_z = _density_row(_RHO, q.log_density, m, x[m - 1])
        lt_z, lq_z, lq = lt_z.item(0), lq_z.item(0), carry[at_q]
        d = (lt_z - lq_z) - (lt - lq)
        if _NEG_INF < d < _INF:
            accepted = d >= 0.0 or a < math.exp(d)
        else:
            accepted = a < math.exp(_mh_log_acceptance(m, lt, lq_z, lt_z, lq, _RHO))
        if accepted:
            z = _point(x[m - 1], 0)
    elif kind is _MH:
        moved = _general_refresh(bundle, streams)(m, z, lt)
        accepted = moved is not None
        if accepted:  # a copy: a sampler may reuse its array
            z = _point(_block(moved[0]), 0)
    return State(m, z), accepted


def run_chain(config: SamplerConfig, bundle: ModelBundle) -> ChainTrace:
    """Iterate the configured sampler and record the post-burn-in states.

    Fully deterministic given the seed, and the same at every block size
    but where a uniform falls within rounding of a cumulative weight.
    """
    kernel, carry = _check(config.sampler_id, bundle, config.initial_state)
    m, z = config.initial_state.m, config.initial_state.z
    streams = _spawn(config.seed, bundle.target.n)
    burn_in, size = config.burn_in, _BLOCK_SIZE
    ms, zs = [], []
    n_accepted = 0

    t0 = time.perf_counter()
    # A block never straddles the burn-in, so the kept sweeps and their
    # accepted moves are taken by whole blocks.
    for lo, hi in ((0, burn_in), (burn_in, config.n_iterations)):
        for start in range(lo, hi, size):
            block_m, block_z, m, z, carry, accepted = kernel[1].sweeps(
                kernel, bundle, streams, min(size, hi - start), m, z, carry
            )
            if lo == burn_in:
                ms.append(block_m)
                zs.append(block_z)
                n_accepted += accepted
    wall = time.perf_counter() - t0

    n_keep = config.n_iterations - burn_in
    acc = n_accepted / n_keep if kernel[1] is _MH else None
    return ChainTrace(
        m=np.concatenate(ms, dtype=np.int64),
        z=np.concatenate(zs, dtype=float),
        burn_in=config.burn_in,
        wall_clock_seconds=wall,
        acceptance_rate=acc,
    )
