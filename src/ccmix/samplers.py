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
as is.

*Blocks.*  The auxiliaries, the exact draws, the independence proposals
and the uniforms do not depend on the chain state, so the sweeps run in
blocks of B: for every label, one sampler call draws the block's points
(the active label's auxiliary is drawn and discarded) and one call per
density weighs them.  With the exact refresh the label of a sweep depends
only on the label before it, so a block of more than one sweep is one
scan of an n x B label table built in numpy.  With the MH or frozen
refresh a block lays its points out in a *point table*, the carried
point first, and a sweep moves an integer index over it: the pseudo-prior
selection adds the current point's weight to stored prefix sums of the
other labels' weights, MwG draws from the current point's label weights,
made once per point, and the MH test reads both points' densities from
the table.  The per-sweep selection and MH test serve the first sweep of
an exact-refresh block, the entries the tables cannot settle (a +inf or
NaN ratio, a weight too large for exp, no mass, a vanishing q or a
non-finite point) and ``step``, which runs blocks of one sweep.

The MH refresh of an independence proposal (``ProposalFamily.independent``,
R_l(u, .) = q_l) is blocked as well, since its proposals and accept
uniforms do not depend on the chain either: one sampler call of q per
label draws the block's proposals, one call per label and density weighs
them (MwG at every label, for the next sweep's conditional weights), and
a sweep makes one comparison, a_k < exp(min(0, [lt(z') - lq(z')] -
[lt(u) - lq(u)])) with lt = log pi*(m, .) and lq = log q_m, on the
entries of u and z' in the point table.  The MH refresh of a general
proposal weighs one point at a time, calling the densities on single
points rather than on blocks of one, which cost ten times as much in
numpy, and puts each point it accepts at the end of the table.
``run_chain`` works in blocks of 1024 sweeps.

*Streams.*  ``run_chain`` gives each label's auxiliaries, each label's
exact draws, the index uniforms, the MH draws (a general proposal's
points and uniforms, or an independence proposal's accept uniforms) and
each label's independence proposals a child stream of the seed of their
own, the last n spawned after the others, so a chain is the same at
every block size, and samplers that share a seed share those streams.
A point table keeps each draw where its stream put it.  (The tables
use numpy's exp, the per-sweep selection math.exp; a last-bit difference
changes a label only if a uniform falls within rounding of a cumulative
weight, and the tests check the equality.)  ``step`` draws every stream
from its one generator in a fixed order: the auxiliaries in label order,
then the index uniform, then the refresh (an independence proposal's
points in label order, then its uniform).

*Lazy errors.*  PseudoPriorZero, AllZeroMass, the RuntimeWarning for a
vanishing target and pseudo-prior pair, the ValueError for a non-finite
z and the InvalidCurrentState of the MH test fire only for values a
sweep uses, at the sweep that uses them; a block entry drawn and
discarded never raises.

The selection hands the densities of the point it selects to the
refresh, and the refresh those of the point it keeps to the next sweep,
so no density is evaluated twice.  The README tables the points each
sampler evaluates and draws per sweep.
"""

from __future__ import annotations

import bisect
import math
import numbers
import time
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import (  # bench/spans.py looks up the public weight functions here
    ConfigError,
    MixtureTarget,
    PseudoPriorSet,
    ProposalFamily,
    State,
    _block,
    _call,
    _check_finite,
    _mh_log_acceptance,
    _pick,
    _pseudo_rows,
    _ratio,
    _ratios,
    _resolve,
    _shape,
    _target_rows,
    _weights,
    cc_index_weights,
    conditional_index_weights,
    draw_index,
    mh_log_acceptance,
)

__all__ = [
    "SamplerId",
    "SamplerConfig",
    "ModelBundle",
    "ChainTrace",
    "ConfigError",
    "step",
    "run_chain",
]

_INF = float("inf")


class SamplerId(str, Enum):
    GIBBS = "gibbs"
    MWG = "mwg"
    CC = "cc"
    MCC = "mcc"
    FCC = "fcc"


DEFAULT_BURN_IN = 1000
# Sweeps per block in run_chain.  The chain does not depend on it; larger
# blocks spread each block's fixed cost over more sweeps.
_BLOCK_SIZE = 1024


@dataclass(frozen=True)
class SamplerConfig:
    sampler_id: SamplerId
    n_iterations: int
    initial_state: State
    burn_in: int = DEFAULT_BURN_IN
    seed: int = 0

    def __post_init__(self):
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
    shape (len,) or (len, z_dim).  ``acceptance_rate`` is present for
    the metropolised samplers only and covers post-burn-in steps.
    """

    m: np.ndarray
    z: np.ndarray
    sampler_id: SamplerId
    seed: int
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


def _pick_table(logw: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``_pick(_weights(column), v_k)`` for every column of log-weights
    (labels on axis 0, sweeps on the last axis), or 0 where a column holds
    +inf or NaN or only -inf, which the per-sweep selection settles."""
    with np.errstate(invalid="ignore"):
        top = logw.max(axis=0)
        acc = np.cumsum(np.exp(logw - top), axis=0)
    picks = np.minimum((acc <= v * acc[-1]).sum(axis=0), len(logw) - 1) + 1
    return np.where(np.isfinite(top), picks, 0)


# A *carry* sums up the current point z for the selection of the next
# sweep: the conditional selection carries the row log pi*(., z), the
# pseudo-prior selection the pair (log pi*(m, z), its ratio to rho_m(z)).
# With an independence proposal q the carry also holds log q at z: the
# row log q_.(z) after the row of the target, or a third entry
# log q_m(z) after the pair.  A point table holds one carry per point.
# A selection has eight parts:
#   block(bundle, streams, size, q) draws and weighs every label's
#     auxiliaries for ``size`` sweeps: their rows and their points;
#   select(v, m, carry, aux) -> m' selects at one sweep from its index
#     uniform v, the current point's carry and the auxiliaries' carries,
#     one per label; the pseudo-prior selection then moves to label m''s
#     auxiliary unless m' = m, the conditional one keeps the point;
#   rows(bundle, labels, blocks, q) weighs each label's block: lists of
#     arrays indexed [density][label][point], q's last when given;
#   carry_of(rows, j, k) is the carry of point k of label j + 1's block;
#   carries(rows) is every such carry, an array [label, point, entry];
#   carry_at(bundle, m, z, lt) is the carry of one point z, given
#     lt = log pi*(m, z), for the MH refresh of a general proposal;
#   lt(carry, m) reads log pi*(m, z) back;
#   exact_logw(rows, aux) is the log-weights [label, j, k] of the index
#     draw at sweep k + 1 from label j + 1's exact point of sweep k.


class _Selection(NamedTuple):
    block: Callable
    select: Callable
    rows: Callable
    carry_of: Callable
    carries: Callable
    carry_at: Callable
    lt: Callable
    exact_logw: Callable


def _conditional_select(v, m, carry, aux):
    # The exact refresh's carry, the row log pi*(., z); MwG selects inline.
    return _pick(_weights(carry), v)


def _row_at(bundle, m, z, lt):
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


def _pseudo_select(v, m, carry, aux):
    logw = [a[1] for a in aux]
    logw[m - 1] = carry[1]  # the active label's auxiliary is z itself
    if _INF in logw:
        lts = [a[0] for a in aux]
        lts[m - 1] = carry[0]
        logw = _resolve(logw, lts)
    return _pick(_weights(logw), v)


def _pseudo_carries(rows):
    lt = np.array(rows[0])
    return np.stack([lt, _ratios(lt, np.array(rows[1])), *rows[2:]], axis=-1)


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
    lambda rows: np.moveaxis(np.array(rows), 0, -1),
    _row_at,
    lambda carry, m: carry[m - 1],
    lambda rows, aux: rows[:, :, :-1],
)
_PSEUDO = _Selection(
    _pseudo_block,
    _pseudo_select,
    lambda bundle, labels, blocks, q=None: _pseudo_rows(
        bundle.target, bundle.pseudo, labels, blocks, q
    ),
    _ratio_of,
    _pseudo_carries,
    _ratio_at,
    lambda carry, m: carry[0],
    _pseudo_exact_logw,
)


def _exact_block(bundle, streams, sel, size, m, z, carry):
    """Sweeps with the exact refresh.  It keeps label m's exact draw and
    drops the selected point, so the label drawn at sweep k > 0 depends
    only on the label of sweep k - 1: a table lookup, with the per-sweep
    selection for sweep 0, the table's zeros and non-finite draws."""
    aux, _ = sel.block(bundle, streams, size, None)
    v = streams.index.random(size)
    labels = range(1, bundle.target.n + 1)

    def select(k, vk, m, carry):
        aux_k = aux and [sel.carry_of(aux, j, k) for j in range(len(labels))]
        return sel.select(vk, m, carry, aux_k)

    draw = bundle.target.conditional_sampler
    x = _draws(bundle, "target.conditional_sampler", draw, streams.exact, size)
    rows = sel.rows(bundle, labels, x)
    if size == 1:  # ``step``: one sweep by the per-sweep selection
        m = select(0, v.item(0), m, carry)
        z = _point(x[m - 1], 0)
        _check_finite(z)
        return [m], [z], m, z, sel.carry_of(rows, m - 1, 0), 0
    x = np.array(x, dtype=float)
    finite = math.isfinite(x.sum())
    table = None
    if finite:
        logw = sel.exact_logw(np.array(rows), np.array(aux))
        table = _pick_table(logw, v[1:]).tolist()
    uniforms = v.tolist()
    ms = []
    for k in range(size):
        j = table[m - 1][k - 1] if table and k else 0
        if not j:
            if k:
                carry = sel.carry_of(rows, m - 1, k - 1)
            j = select(k, uniforms[k], m, carry)
            if not finite:
                _check_finite(x[j - 1, k])
        m = j
        ms.append(m)
    zs = x[np.subtract(ms, 1), np.arange(size)]
    return ms, zs, m, _point(zs, -1), sel.carry_of(rows, m - 1, size - 1), 0


class _Table:
    """The points a block of the MH or frozen refresh can visit, by index:
    z at 0, the points of ``blocks`` (``size`` each), then those a general
    MH refresh accepts.  ``c`` holds their carries, ``w`` floats each."""

    __slots__ = ("z", "blocks", "size", "fresh", "w", "c")

    def __init__(self, z, carry, blocks, size, c):
        self.z, self.blocks, self.size, self.fresh = z, blocks, size, []
        self.w, self.c = len(carry), c

    def point(self, p: int):
        if p == 0:
            return self.z
        b, k = divmod(p - 1, self.size)
        if b >= len(self.blocks):
            return self.fresh[p - 1 - len(self.blocks) * self.size]
        return _point(self.blocks[b], k)

    def carry(self, p: int) -> list:
        return self.c[p * self.w : (p + 1) * self.w]

    def add(self, z, carry) -> int:
        """Put a point and its carry at the end; return its index."""
        self.fresh.append(z)
        self.c.extend(carry)
        return len(self.blocks) * self.size + len(self.fresh)

    def points(self) -> np.ndarray:
        fresh = [np.array(self.fresh, dtype=float)] if self.fresh else []
        return np.concatenate([_block(self.z), *self.blocks, *fresh])


def _carry_list(sel, rows, size: int) -> list:
    """The carries of the points ``rows`` weighs, flat; by ``carry_of`` for
    blocks of one point, where numpy's per-call cost outweighs the work."""
    if size == 1:
        return [x for j in range(len(rows[0])) for x in sel.carry_of(rows, j, 0)]
    return sel.carries(rows).ravel().tolist()


def _mh_block(bundle, streams, sel, t):
    """The MH refresh of a general proposal, one point at a time: (k, m, p)
    -> the index of the point kept.  ``_table_sweeps`` tests the others."""
    target, proposal, rng = bundle.target, bundle.proposal, streams.mh

    def refresh(k, m, p):
        u, carry = t.point(p), t.carry(p)
        z = proposal.sampler(m, u, rng)
        lt_z = float(_call("target.log_density", target.log_density, (m, z), ()))
        lr_uz, lr_zu = proposal.log_density(m, u, z), proposal.log_density(m, z, u)
        log_alpha = _mh_log_acceptance(m, sel.lt(carry, m), lr_uz, lt_z, lr_zu)
        if rng.random() < math.exp(log_alpha):
            _check_finite(z)
            return t.add(z, sel.carry_at(bundle, m, z, lt_z))
        return p

    return refresh


def _frozen_block(bundle, streams, sel, t):
    return None  # the frozen refresh keeps the selected point


def _prefix_tables(aux, size: int):
    """For each active label m and sweep k: the shift, the largest of the
    other labels' auxiliary ratios, and the prefix sums of their weights
    exp(ratio - shift) in label order, zero at m, flat in k * n + label.
    Where one of those ratios is +inf or NaN, or all are -inf, or the block
    is one sweep, the shift is -inf and the sweep falls back on the
    per-sweep selection."""
    n = len(aux[0])
    if size == 1:
        return [[-_INF]] * n, [None] * n
    others = np.repeat(_ratios(*np.array(aux[:2]))[:, None], n, axis=1)
    others[np.arange(n), np.arange(n)] = -_INF
    with np.errstate(invalid="ignore"):
        shift = others.max(axis=0)
        prefix = np.exp(others - shift)
    for j in range(1, n):  # np.cumsum's sums, which it makes column by column
        prefix[j] += prefix[j - 1]
    shift[~np.isfinite(shift)] = -_INF
    return shift.tolist(), prefix.transpose(1, 2, 0).reshape(n, -1).tolist()


def _table_sweeps(kernel, bundle, streams, size, m, z, carry):
    """Sweeps with the MH or the frozen refresh, by point index over the
    block's ``_Table`` (module docstring, *Blocks*)."""
    sel, refresh_block = kernel
    n, labels = bundle.target.n, range(1, bundle.target.n + 1)
    pseudo, q = sel is _PSEUDO, _independence(kernel, bundle)
    aux, blocks = sel.block(bundle, streams, size, q)
    c = list(carry) + (_carry_list(sel, aux, size) if pseudo else [])
    if pseudo:
        shifts, prefixes = _prefix_tables(aux, size)
        shift, prefix = shifts[m - 1], prefixes[m - 1]
    v = streams.index.random(size).tolist()
    if q is not None:
        x = _draws(bundle, "proposal.rho.sampler", q.sampler, streams.proposal, size)
        base = 1 + len(blocks) * size
        blocks = blocks + x
        c += _carry_list(sel, sel.rows(bundle, labels, x, q), size)
        a = streams.mh.random(size).tolist()
    t = _Table(z, carry, blocks, size, c)
    refresh = None if q is not None else refresh_block(bundle, streams, sel, t)
    # Unless every point is finite, each is checked as it is kept (in a
    # block of one sweep, after it).
    check = size > 1 and not math.isfinite(sum(b.sum() for b in blocks))
    w, dq = t.w, 2 if pseudo else n  # log q_m sits dq after log pi*(m, .)
    exp, bisect_right = math.exp, bisect.bisect_right
    p, e, col, weighed, n_accepted, es = 0, m - 1, 0, None, 0, []
    for k in range(size):
        vk = v[k]
        if pseudo:
            d = c[p * w + 1] - shift[k]
            if d < 700.0:  # not +inf, NaN, or too large for exp
                wk = exp(d)  # the current point's weight
                lo = k * n
                uk = vk * (prefix[lo + n - 1] + wk)
                i = bisect_right(prefix, uk, lo, lo + m - 1) - lo
                if i == m - 1 and not uk < prefix[lo + i] + wk:
                    i = min(bisect_right(prefix, uk - wk, lo + m, lo + n) - lo, n - 1)
                i += 1
            else:
                # Label j + 1's auxiliary of sweep k is point 1 + j * size + k.
                at = range((1 + k) * w, (1 + n * size) * w, size * w)
                i = sel.select(vk, m, c[p * w : p * w + w], [c[o : o + w] for o in at])
            if i != m:
                m, p = i, 1 + (i - 1) * size + k
                e, shift, prefix = p * n + i - 1, shifts[i - 1], prefixes[i - 1]
        else:
            # The current point's label weights stand until a move is
            # accepted; ``_pick`` by their running sums.
            if p != weighed:
                weights = _weights(c[p * w : p * w + n])
                weighed, total, acc = p, sum(weights), list(accumulate(weights))
            m = min(bisect_right(acc, vk * total), n - 1) + 1
            e, col = p * n + m - 1, m - 1
        if q is not None:
            pz = base + (m - 1) * size + k
            ou, oz = p * w + col, pz * w + col
            d = (c[oz] - c[oz + dq]) - (c[ou] - c[ou + dq])
            if -_INF < d < _INF:
                accept = d >= 0.0 or a[k] < exp(d)
            else:  # the errors and rejections of the general MH test
                log_alpha = _mh_log_acceptance(m, c[ou], c[oz + dq], c[oz], c[ou + dq])
                accept = a[k] < exp(log_alpha)
            if accept:
                p, e, n_accepted = pz, pz * n + m - 1, n_accepted + 1
        elif refresh is not None:
            kept = refresh(k, m, p)
            if kept != p:
                p, e, n_accepted = kept, kept * n + m - 1, n_accepted + 1
        if check:
            _check_finite(t.point(p))
        es.append(e)
    z = t.point(p)
    if size == 1:
        _check_finite(z)
        return [m], [z], m, z, t.carry(p), n_accepted
    es = np.array(es)
    return es % n + 1, t.points()[es // n], m, z, t.carry(p), n_accepted


_KERNELS = {
    SamplerId.GIBBS: (_CONDITIONAL, _exact_block),
    SamplerId.MWG: (_CONDITIONAL, _mh_block),
    SamplerId.CC: (_PSEUDO, _exact_block),
    SamplerId.MCC: (_PSEUDO, _mh_block),
    SamplerId.FCC: (_PSEUDO, _frozen_block),
}

# The bundle part each selection or refresh needs: (name, accessor).
_NEEDS = {
    _PSEUDO: ("a PseudoPriorSet", lambda b: b.pseudo),
    _exact_block: (
        "target.conditional_sampler",
        lambda b: b.target.conditional_sampler,
    ),
    _mh_block: ("a ProposalFamily", lambda b: b.proposal),
}


def _independence(kernel, bundle: ModelBundle) -> Optional[PseudoPriorSet]:
    """The proposal's rho when the sampler refreshes by MH from an
    independence proposal, else None."""
    return bundle.proposal.rho if kernel[1] is _mh_block else None


def _check(sampler_id: SamplerId, bundle: ModelBundle, state: State):
    """Raise ConfigError unless the bundle and state fit the sampler:
    every model part it needs, with the target's n, an integer label in
    1..n, z of the target's shape and pi*(m, z) > 0.  Return the sampler's
    kernel and the state's carry.

    Weighing the state is the first checked call (``model._call``); the
    sweeps check every later one, so a callback that breaks the protocol
    raises ConfigError naming it at the first call that shows it.  A
    TypeError or ValueError raised inside a callback, at any call, becomes
    such a ConfigError, with the original chained."""
    kernel = _KERNELS[sampler_id]
    for part in kernel:
        if part in _NEEDS:
            name, get = _NEEDS[part]
            if get(bundle) is None:
                raise ConfigError(f"{sampler_id.value} sampling needs {name}")
    target = bundle.target
    proposal = bundle.proposal
    for name, part in (
        ("pseudo-prior", bundle.pseudo),
        ("proposal", proposal),
        ("proposal's rho", None if proposal is None else proposal.rho),
    ):
        if part is not None and part.n != target.n:
            raise ConfigError(
                f"{name} has {part.n} components, the target has {target.n}"
            )
    # A float label would pass the range test and never equal j in 1..n.
    m = state.m
    integral = type(m) is int or isinstance(m, numbers.Integral)  # int first: cheap
    if isinstance(m, bool) or not integral:
        raise ConfigError(f"label must be an integer, got {m!r}")
    if not 1 <= m <= target.n:
        raise ConfigError(f"label {m} outside 1..{target.n}")
    # A one-dimensional z is a scalar, not an array of length 1.
    shape = () if target.z_dim == 1 else (target.z_dim,)
    if _shape(state.z) != shape:
        raise ConfigError(f"z must have shape {shape}, got {_shape(state.z)}")
    sel = kernel[0]
    rows = sel.rows(bundle, [m], [_block(state.z)], _independence(kernel, bundle))
    carry = sel.carry_of(rows, 0, 0)
    if kernel[0].lt(carry, m) == -math.inf:
        raise ConfigError(f"the target has zero mass at the initial state {state}")
    return kernel, carry


def _sweeps(kernel, bundle, streams, size, m, z, carry):
    """Run ``size`` sweeps from (m, z); return their labels and points, the
    last (m, z, carry) and the count of accepted moves."""
    if kernel[1] is _exact_block:
        return _exact_block(bundle, streams, kernel[0], size, m, z, carry)
    return _table_sweeps(kernel, bundle, streams, size, m, z, carry)


def step(
    sampler_id: SamplerId,
    bundle: ModelBundle,
    state: State,
    rng: np.random.Generator,
) -> tuple[State, Optional[bool]]:
    """One sweep of the sampler from ``state``, every draw from ``rng``.

    Returns the new state and whether the MH refresh accepted its
    proposal (None for samplers without one).
    """
    kernel, carry = _check(sampler_id, bundle, state)
    per_label = [rng] * bundle.target.n
    streams = _Streams(per_label, per_label, rng, rng, per_label)
    _, _, m, z, _, n_accepted = _sweeps(
        kernel, bundle, streams, 1, state.m, state.z, carry
    )
    accepted = n_accepted == 1 if kernel[1] is _mh_block else None
    return State(m, z), accepted


def run_chain(config: SamplerConfig, bundle: ModelBundle) -> ChainTrace:
    """Iterate the configured sampler and record the post-burn-in states.

    Fully deterministic given the seed, and the same at every block size.
    """
    sid = config.sampler_id
    kernel, carry = _check(sid, bundle, config.initial_state)
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
            block_m, block_z, m, z, carry, accepted = _sweeps(
                kernel, bundle, streams, min(size, hi - start), m, z, carry
            )
            if lo == burn_in:
                ms.append(block_m)
                zs.append(block_z)
                n_accepted += accepted
    wall = time.perf_counter() - t0

    n_keep = config.n_iterations - burn_in
    acc = n_accepted / n_keep if kernel[1] is _mh_block else None
    return ChainTrace(
        m=np.concatenate(ms, dtype=np.int64),
        z=np.concatenate(zs, dtype=float),
        sampler_id=sid,
        seed=config.seed,
        burn_in=config.burn_in,
        wall_clock_seconds=wall,
        acceptance_rate=acc,
    )
