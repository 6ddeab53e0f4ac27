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
as is.  ``step`` runs one sweep of any sampler; ``run_chain`` iterates
the same pair of functions.

Every sweep consumes its random draws in a fixed order (auxiliary
refreshes in label order, then the index draw, then the refresh) so that
variants sharing a seed also share their index stream.

The selection hands log pi*(m', u_sel) and log rho_m'(u_sel) to the
refresh, and the refresh those of the point it keeps to the next sweep,
so no density is evaluated twice.  Per sweep on n components, Gibbs,
MwG, CC and MCC evaluate the target n times and FCC n - 1 times; the
README tables every sampler's model calls.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .model import (  # bench/spans.py traces the three public weight functions here
    MixtureTarget,
    PseudoPriorSet,
    ProposalFamily,
    State,
    _cc_weights,
    _check_finite,
    _conditional_weights,
    _mh_log_acceptance,
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


class ConfigError(ValueError):
    """Sampler configuration inconsistent with the supplied model bundle."""


class SamplerId(str, Enum):
    GIBBS = "gibbs"
    MWG = "mwg"
    CC = "cc"
    MCC = "mcc"
    FCC = "fcc"


DEFAULT_BURN_IN = 1000


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

    def state(self, k: int) -> State:
        return State(int(self.m[k]), self.z[k])


# Selections (bundle, m, z, lt, lr, rng) -> (m', u_sel, lt', lr') and
# refreshes (bundle, m', u_sel, lt, lr, rng) -> (z', lt', lr', accepted)
# reuse and hand on lt = log pi*(m, z) and lr = log rho_m(z), None where
# not computed; accepted is None unless the refresh has an accept/reject.


def _conditional_select(bundle, m, z, lt, lr, rng):
    """Draw m' ~ pi*(. | z); the selected point is z itself."""
    w, logw = _conditional_weights(bundle.target, z, m, lt)
    m_new = draw_index(w, rng)
    return m_new, z, logw[m_new - 1], None


def _pseudo_select(bundle, m, z, lt, lr, rng):
    """Refresh the inactive auxiliaries (label order), keep u_m = z, draw m'."""
    target, pseudo = bundle.target, bundle.pseudo
    u, lts, lrs = [], [None] * target.n, [None] * target.n
    for j in range(1, target.n + 1):
        u.append(z if j == m else pseudo.sampler(j, rng))
    lts[m - 1], lrs[m - 1] = lt, lr
    i = draw_index(_cc_weights(target, pseudo, u, lts, lrs), rng) - 1
    return i + 1, u[i], lts[i], lrs[i]


def _exact_refresh(bundle, m, u, lt, lr, rng):
    return bundle.target.conditional_sampler(m, rng), None, None, None


def _mh_refresh(bundle, m, u, lt, lr, rng):
    z_prop = bundle.proposal.sampler(m, u, rng)
    log_alpha, lt_prop = _mh_log_acceptance(
        bundle.target, bundle.proposal, m, u, z_prop, lt
    )
    if rng.random() < math.exp(log_alpha):
        return z_prop, lt_prop, None, True
    return u, lt, lr, False


def _frozen_refresh(bundle, m, u, lt, lr, rng):
    return u, lt, lr, None


_KERNELS = {
    SamplerId.GIBBS: (_conditional_select, _exact_refresh),
    SamplerId.MWG: (_conditional_select, _mh_refresh),
    SamplerId.CC: (_pseudo_select, _exact_refresh),
    SamplerId.MCC: (_pseudo_select, _mh_refresh),
    SamplerId.FCC: (_pseudo_select, _frozen_refresh),
}

# The bundle part each selection or refresh needs: (name, accessor).
_NEEDS = {
    _pseudo_select: ("a PseudoPriorSet", lambda b: b.pseudo),
    _exact_refresh: (
        "target.conditional_sampler",
        lambda b: b.target.conditional_sampler,
    ),
    _mh_refresh: ("a ProposalFamily", lambda b: b.proposal),
}


def _check(sampler_id: SamplerId, bundle: ModelBundle, state: State) -> float:
    """Raise ConfigError unless the bundle and state fit the sampler;
    return log pi*(m, z) of the state, which must be finite."""
    for part in _KERNELS[sampler_id]:
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
    if isinstance(state.m, bool) or not isinstance(state.m, numbers.Integral):
        raise ConfigError(f"label must be an integer, got {state.m!r}")
    if not 1 <= state.m <= target.n:
        raise ConfigError(f"label {state.m} outside 1..{target.n}")
    # A one-dimensional z is a scalar, not an array of length 1.
    shape = () if target.z_dim == 1 else (target.z_dim,)
    if np.shape(state.z) != shape:
        raise ConfigError(f"z must have shape {shape}, got {np.shape(state.z)}")
    lt = target.log_density(state.m, state.z)
    if lt == -math.inf:
        raise ConfigError(f"the target has zero mass at the initial state {state}")
    return lt


def step(
    sampler_id: SamplerId,
    bundle: ModelBundle,
    state: State,
    rng: np.random.Generator,
) -> tuple[State, Optional[bool]]:
    """One sweep of the sampler from ``state``.

    Returns the new state and whether the MH refresh accepted its
    proposal (None for samplers without one).
    """
    lt = _check(sampler_id, bundle, state)
    select, refresh = _KERNELS[sampler_id]
    m, u, lt, lr = select(bundle, state.m, state.z, lt, None, rng)
    z, _, _, accepted = refresh(bundle, m, u, lt, lr, rng)
    return State(m, z), accepted


def run_chain(config: SamplerConfig, bundle: ModelBundle) -> ChainTrace:
    """Iterate the configured sampler and record the post-burn-in states.

    Fully deterministic given the seed: one fresh RNG stream per chain,
    sub-draws consumed in the fixed per-step order.
    """
    sid = config.sampler_id
    lt = _check(sid, bundle, config.initial_state)
    select, refresh = _KERNELS[sid]

    rng = np.random.default_rng(config.seed)
    m, z, lr = config.initial_state.m, config.initial_state.z, None
    burn_in = config.burn_in
    n_keep = config.n_iterations - burn_in
    m_out = [0] * n_keep
    z_out = [None] * n_keep
    n_accepted = 0

    t0 = time.perf_counter()
    for k in range(config.n_iterations):
        m, u, lt, lr = select(bundle, m, z, lt, lr, rng)
        z, lt, lr, accepted = refresh(bundle, m, u, lt, lr, rng)
        _check_finite(z)
        idx = k - burn_in
        if idx >= 0:
            m_out[idx] = m
            z_out[idx] = z
            if accepted:
                n_accepted += 1
    wall = time.perf_counter() - t0

    acc = n_accepted / n_keep if refresh is _mh_refresh else None
    return ChainTrace(
        m=np.array(m_out, dtype=np.int64),
        z=np.asarray(z_out, dtype=float),
        sampler_id=sid,
        seed=config.seed,
        burn_in=config.burn_in,
        wall_clock_seconds=wall,
        acceptance_rate=acc,
    )
