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
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .model import (
    MixtureTarget,
    PseudoPriorSet,
    ProposalFamily,
    State,
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


# Selections: (bundle, state, rng) -> (m', u_sel).


def _conditional_select(bundle, state, rng):
    """Draw m' ~ pi*(. | z); the selected point is z itself."""
    w = conditional_index_weights(bundle.target, state.z)
    return draw_index(w, rng), state.z


def _pseudo_select(bundle, state, rng):
    """Refresh the inactive auxiliaries (label order), keep u_m = z, draw m'."""
    target, pseudo = bundle.target, bundle.pseudo
    u = [None] * target.n
    for j in range(1, target.n + 1):
        u[j - 1] = state.z if j == state.m else pseudo.sampler(j, rng)
    m_new = draw_index(cc_index_weights(target, pseudo, u), rng)
    return m_new, u[m_new - 1]


# Refreshes: (bundle, m', u_sel, rng) -> (z', accepted), where accepted
# is None unless the refresh has an accept/reject.


def _exact_refresh(bundle, m, u, rng):
    return bundle.target.conditional_sampler(m, rng), None


def _mh_refresh(bundle, m, u, rng):
    z_prop = bundle.proposal.sampler(m, u, rng)
    log_alpha = mh_log_acceptance(bundle.target, bundle.proposal, m, u, z_prop)
    accepted = rng.random() < math.exp(log_alpha)
    return (z_prop if accepted else u), accepted


def _frozen_refresh(bundle, m, u, rng):
    return u, None


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


def _check(sampler_id: SamplerId, bundle: ModelBundle, state: State) -> None:
    """Raise ConfigError unless the bundle and state fit the sampler."""
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
    _check(sampler_id, bundle, state)
    select, refresh = _KERNELS[sampler_id]
    m_new, u_sel = select(bundle, state, rng)
    z_new, accepted = refresh(bundle, m_new, u_sel, rng)
    return State(m_new, z_new), accepted


def run_chain(config: SamplerConfig, bundle: ModelBundle) -> ChainTrace:
    """Iterate the configured sampler and record the post-burn-in states.

    Fully deterministic given the seed: one fresh RNG stream per chain,
    sub-draws consumed in the fixed per-step order.
    """
    sid = config.sampler_id
    _check(sid, bundle, config.initial_state)
    select, refresh = _KERNELS[sid]

    rng = np.random.default_rng(config.seed)
    state = config.initial_state
    n_keep = config.n_iterations - config.burn_in
    m_out = np.empty(n_keep, dtype=np.int64)
    z_out = [None] * n_keep
    n_accepted = 0

    t0 = time.perf_counter()
    for k in range(config.n_iterations):
        m_new, u_sel = select(bundle, state, rng)
        z_new, accepted = refresh(bundle, m_new, u_sel, rng)
        state = State(m_new, z_new)
        idx = k - config.burn_in
        if idx >= 0:
            m_out[idx] = state.m
            z_out[idx] = state.z
            if accepted:
                n_accepted += 1
    wall = time.perf_counter() - t0

    acc = n_accepted / n_keep if refresh is _mh_refresh else None
    return ChainTrace(
        m=m_out,
        z=np.asarray(z_out, dtype=float),
        sampler_id=sid,
        seed=config.seed,
        burn_in=config.burn_in,
        wall_clock_seconds=wall,
        acceptance_rate=acc,
    )
