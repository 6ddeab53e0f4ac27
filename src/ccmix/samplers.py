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

*Blocks.*  The auxiliaries, the exact draws and the index uniforms do
not depend on the chain state, so the sweeps run in blocks of B: for
every label, one sampler call draws the block's auxiliaries (the active
label's is drawn and discarded) and one call per density weighs them;
the exact refresh likewise draws and weighs one point per label and
sweep.  Only the index draw, the MH refresh and the hand-over of the
current point run sweep by sweep.  A proposal depends on the current
point, so the MH refresh weighs one point at a time, calling the
densities on single points rather than on blocks of one, which cost
ten times as much in numpy.  ``run_chain`` works in blocks of 1024
sweeps; ``step`` is the same code with B = 1.

*Streams.*  ``run_chain`` gives each label's auxiliaries, each label's
exact draws, the index uniforms and the MH draws a child stream of the
seed of their own, so a chain is bit-identical at every block size, and
samplers that share a seed share those streams.  ``step`` draws every
stream from its one generator in a fixed order: the auxiliaries in
label order, then the index uniform, then the refresh.

*Lazy errors.*  PseudoPriorZero, AllZeroMass, the RuntimeWarning for a
vanishing target and pseudo-prior pair and the ValueError for a
non-finite z fire only for values a sweep uses, at the sweep that uses
them; a block entry drawn and discarded never raises.

The selection hands the densities of the point it selects to the
refresh, and the refresh those of the point it keeps to the next sweep,
so no density is evaluated twice.  The README tables the points each
sampler evaluates and draws per sweep.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import (  # bench/spans.py looks up the public weight functions here
    MixtureTarget,
    PseudoPriorSet,
    ProposalFamily,
    State,
    _block,
    _check_finite,
    _log_ratios,
    _mh_log_acceptance,
    _pick,
    _ratios,
    _resolve,
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


class ConfigError(ValueError):
    """Sampler configuration inconsistent with the supplied model bundle."""


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


def _spawn(seed: int, n: int) -> _Streams:
    children = np.random.SeedSequence(seed).spawn(2 * n + 2)
    g = [np.random.default_rng(s) for s in children]
    return _Streams(g[:n], g[n : 2 * n], g[2 * n], g[2 * n + 1])


def _points(x: np.ndarray) -> tuple[list, bool]:
    """The points of a block one by one (floats, or rows for vector z), and
    whether all are finite.  A sum that overflows says they are not, and
    the sweep then checks each point it keeps."""
    if x.ndim == 1:
        points = x.tolist()
        return points, math.isfinite(sum(points))
    return list(x), math.isfinite(x.sum())


# A *carry* sums up the current point z for the selection of the next
# sweep: the conditional selection carries the row log pi*(., z), the
# pseudo-prior selection the pair (log pi*(m, z), its ratio to rho_m(z)).
# A selection has four parts:
#   block(bundle, streams, size) draws and weighs what ``size`` sweeps
#     need and returns the per-sweep selection (k, v, m, z, carry) ->
#     (m', u, carry of u), v the sweep's index uniform, and whether
#     every point drawn is finite;
#   carries(bundle, m, x) is the carry of each point of the block x at
#     label m;
#   carry_at(bundle, m, z, lt) is the carry of one point z, given
#     lt = log pi*(m, z), for the MH refresh;
#   lt(carry, m) reads log pi*(m, z) back.


class _Selection(NamedTuple):
    block: Callable
    carries: Callable
    carry_at: Callable
    lt: Callable


def _conditional_block(bundle, streams, size):
    def select(k, v, m, z, carry):
        return _pick(_weights(carry), v), z, carry

    return select, True


def _row_at(bundle, m, z, lt):
    row = []
    for j in range(1, bundle.target.n + 1):
        row.append(lt if j == m else float(bundle.target.log_density(j, z)))
    return row


def _ratio_carries(bundle, m, x):
    return list(zip(*_log_ratios(bundle.target, bundle.pseudo, m, x)))


def _ratio_at(bundle, m, z, lt):
    return lt, _ratios([lt], [float(bundle.pseudo.log_density(m, z))])[0]


def _pseudo_block(bundle, streams, size):
    """Every label's auxiliaries for ``size`` sweeps, with their weights."""
    target, pseudo = bundle.target, bundle.pseudo
    points, lts, ratios, finite = [], [], [], True
    for j in range(1, target.n + 1):
        u = pseudo.sampler(j, streams.aux[j - 1], size)
        lt, ratio = _log_ratios(target, pseudo, j, u)
        pts, ok = _points(u)
        points.append(pts)
        lts.append(lt)
        ratios.append(ratio)
        finite = finite and ok
    rows = list(zip(*ratios))

    def select(k, v, m, z, carry):
        logw = list(rows[k])
        logw[m - 1] = carry[1]  # the active label's auxiliary is z itself
        if _INF in logw:
            lt_k = [lt[k] for lt in lts]
            lt_k[m - 1] = carry[0]
            logw = _resolve(logw, lt_k)
        i = _pick(_weights(logw), v) - 1
        if i == m - 1:
            return m, z, carry
        return i + 1, points[i][k], (lts[i][k], ratios[i][k])

    return select, finite


_CONDITIONAL = _Selection(
    _conditional_block,
    lambda bundle, m, x: _target_rows(bundle.target, x),
    _row_at,
    lambda carry, m: carry[m - 1],
)
_PSEUDO = _Selection(
    _pseudo_block, _ratio_carries, _ratio_at, lambda carry, m: carry[0]
)


# A refresh block (bundle, streams, size, selection) returns the
# per-sweep refresh (k, m, u, carry) -> (z', carry of z', accepted),
# accepted None unless the refresh has an accept/reject, and whether
# every point it drew up front is finite.


def _exact_block(bundle, streams, size, sel):
    """One exact draw per label and sweep, with its carry."""
    target = bundle.target
    points, carries, finite = [], [], True
    for j in range(1, target.n + 1):
        x = target.conditional_sampler(j, streams.exact[j - 1], size)
        pts, ok = _points(x)
        points.append(pts)
        carries.append(sel.carries(bundle, j, x))
        finite = finite and ok

    def refresh(k, m, u, carry):
        return points[m - 1][k], carries[m - 1][k], None

    return refresh, finite


def _mh_block(bundle, streams, size, sel):
    """Propose, weigh and accept or reject one point at a time."""
    target, proposal, rng = bundle.target, bundle.proposal, streams.mh
    carry_at, lt_of = sel.carry_at, sel.lt

    def refresh(k, m, u, carry):
        z = proposal.sampler(m, u, rng)
        lt_z = float(target.log_density(m, z))
        log_alpha = _mh_log_acceptance(proposal, m, u, z, lt_of(carry, m), lt_z)
        if rng.random() < math.exp(log_alpha):
            _check_finite(z)
            return z, carry_at(bundle, m, z, lt_z), True
        return u, carry, False

    return refresh, True


def _frozen_block(bundle, streams, size, sel):
    return (lambda k, m, u, carry: (u, carry, None)), True


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


@functools.cache
def _probe_rng() -> np.random.Generator:
    """The generator of the probe draws, which are thrown away: it is never
    a chain's stream, so sharing it changes no result.  Made on first use,
    so that importing ccmix does not load numpy.random."""
    return np.random.default_rng(0)


def _probes(kernel, bundle: ModelBundle, m: int, z):
    """(name, callback, args, shape it must return) for each callback the
    sampler calls: on a 2-point block built from z, and on z itself for
    the densities the MH refresh weighs one point at a time."""
    target, pseudo = bundle.target, bundle.pseudo
    sel, refresh = kernel
    pair = np.array([z, z], dtype=float)
    rng = _probe_rng()
    yield "target.log_density", target.log_density, (m, pair), (2,)
    if sel is _PSEUDO:
        yield "pseudo.log_density", pseudo.log_density, (m, pair), (2,)
        yield "pseudo.sampler", pseudo.sampler, (m, rng, 2), pair.shape
    if refresh is _exact_block:
        sampler = target.conditional_sampler
        yield "target.conditional_sampler", sampler, (m, rng, 2), pair.shape
    if refresh is _mh_block:
        yield "target.log_density", target.log_density, (m, z), ()
        if sel is _PSEUDO:
            yield "pseudo.log_density", pseudo.log_density, (m, z), ()


def _probe(name: str, fn, args: tuple, shape: tuple):
    """Call a callback on a probe; ConfigError unless it takes the probe
    and returns ``shape``."""
    what = "a single point" if shape == () else "a block of 2 points"
    try:
        out = fn(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} does not take {what}: {exc}") from exc
    if np.shape(out) != shape:
        raise ConfigError(
            f"{name} returned shape {np.shape(out)} for {what}, expected {shape}"
        )
    return out


def _check(sampler_id: SamplerId, bundle: ModelBundle, state: State):
    """Raise ConfigError unless the bundle and state fit the sampler:
    every model part it needs, with the target's n, an integer label in
    1..n, z of the target's shape, callbacks that keep the protocol and
    pi*(m, z) > 0.  Return the sampler's kernel and the state's carry."""
    kernel = _KERNELS[sampler_id]
    for part in kernel:
        if part in _NEEDS:
            name, get = _NEEDS[part]
            if get(bundle) is None:
                raise ConfigError(f"{sampler_id.value} sampling needs {name}")
    target = bundle.target
    for name, part in (("pseudo-prior", bundle.pseudo), ("proposal", bundle.proposal)):
        if part is not None and part.n != target.n:
            raise ConfigError(
                f"{name} has {part.n} components, the target has {target.n}"
            )
    # A float label would pass the range test and never equal j in 1..n.
    m = state.m
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ConfigError(f"label must be an integer, got {m!r}")
    if not 1 <= m <= target.n:
        raise ConfigError(f"label {m} outside 1..{target.n}")
    # A one-dimensional z is a scalar, not an array of length 1.
    shape = () if target.z_dim == 1 else (target.z_dim,)
    if np.shape(state.z) != shape:
        raise ConfigError(f"z must have shape {shape}, got {np.shape(state.z)}")
    for probe in _probes(kernel, bundle, m, state.z):
        _probe(*probe)
    carry = kernel[0].carries(bundle, m, _block(state.z))[0]
    if kernel[0].lt(carry, m) == -math.inf:
        raise ConfigError(f"the target has zero mass at the initial state {state}")
    return kernel, carry


def _sweeps(kernel, bundle, streams, size, m, z, carry, ms, zs):
    """Run ``size`` sweeps from (m, z), appending each state to ``ms`` and
    ``zs``; return the last (m, z, carry) and the count of accepted moves."""
    sel, refresh_block = kernel
    select, finite = sel.block(bundle, streams, size)
    uniforms = streams.index.random(size).tolist()
    refresh, finite_refresh = refresh_block(bundle, streams, size, sel)
    check = not (finite and finite_refresh)
    n_accepted = 0
    for k in range(size):
        m, u, carry = select(k, uniforms[k], m, z, carry)
        z, carry, accepted = refresh(k, m, u, carry)
        if check:
            _check_finite(z)
        ms.append(m)
        zs.append(z)
        if accepted:
            n_accepted += 1
    return m, z, carry, n_accepted


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
    streams = _Streams(per_label, per_label, rng, rng)
    ms, zs = [], []
    n_accepted = _sweeps(kernel, bundle, streams, 1, state.m, state.z, carry, ms, zs)[3]
    accepted = n_accepted == 1 if kernel[1] is _mh_block else None
    return State(ms[0], zs[0]), accepted


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
    # A block never straddles the burn-in, so the accepted moves of the
    # kept sweeps are counted by whole blocks.
    for lo, hi in ((0, burn_in), (burn_in, config.n_iterations)):
        for start in range(lo, hi, size):
            m, z, carry, accepted = _sweeps(
                kernel, bundle, streams, min(size, hi - start), m, z, carry, ms, zs
            )
            if lo == burn_in:
                n_accepted += accepted
    wall = time.perf_counter() - t0

    n_keep = config.n_iterations - burn_in
    acc = n_accepted / n_keep if kernel[1] is _mh_block else None
    return ChainTrace(
        m=np.array(ms[burn_in:], dtype=np.int64),
        z=np.asarray(zs[burn_in:], dtype=float),
        sampler_id=sid,
        seed=config.seed,
        burn_in=config.burn_in,
        wall_clock_seconds=wall,
        acceptance_rate=acc,
    )
