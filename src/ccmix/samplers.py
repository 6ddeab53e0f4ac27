"""The five transition kernels and the chain driver.

Samplers: plain Gibbs, Metropolis-within-Gibbs (MwG), the Carlin &
Chib-type sweep (CC), its Metropolised variant (MCC) and the frozen
variant (FCC) that passes the selected auxiliary value on without a
refresh step.

Every step consumes its random draws in a fixed order (auxiliary
refreshes in label order, then the index draw, then the continuous
update) so that variants sharing a seed also share their index stream.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
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
    "MissingConditionalSampler",
    "ConfigError",
    "gibbs_step",
    "mwg_step",
    "cc_step",
    "mcc_step",
    "fcc_step",
    "run_chain",
]


class MissingConditionalSampler(ValueError):
    """Exact conditional sampling is required but unavailable."""


class ConfigError(ValueError):
    """Sampler configuration inconsistent with the supplied model bundle."""


class SamplerId(str, Enum):
    GIBBS = "gibbs"
    MWG = "mwg"
    CC = "cc"
    MCC = "mcc"
    FCC = "fcc"


# Samplers whose steps include a Metropolis-Hastings accept/reject.
_METROPOLISED = frozenset({SamplerId.MWG, SamplerId.MCC})

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


def gibbs_step(target: MixtureTarget, state: State, rng: np.random.Generator) -> State:
    """One sweep of the plain Gibbs sampler: m' ~ pi*(.|z), z' ~ pi*(.|m')."""
    if target.conditional_sampler is None:
        raise MissingConditionalSampler(
            "gibbs_step needs an exact conditional sampler; use mwg_step instead"
        )
    w = conditional_index_weights(target, state.z)
    m_new = draw_index(w, rng)
    z_new = target.conditional_sampler(m_new, rng)
    return State(m_new, z_new)


def mwg_step(
    target: MixtureTarget,
    proposal: ProposalFamily,
    state: State,
    rng: np.random.Generator,
) -> tuple[State, bool]:
    """Metropolis-within-Gibbs sweep: exact index draw, MH update of z."""
    w = conditional_index_weights(target, state.z)
    m_new = draw_index(w, rng)
    z_prop = proposal.sampler(m_new, state.z, rng)
    log_alpha = mh_log_acceptance(target, proposal, m_new, state.z, z_prop)
    accepted = rng.random() < math.exp(log_alpha)
    z_new = z_prop if accepted else state.z
    return State(m_new, z_new), accepted


def _cc_select(target, pseudo, state, rng):
    """Steps (i)-(ii) shared by the CC, MCC and FCC sweeps.

    Refreshes the auxiliary points for all inactive components (label
    order), keeps u_m = z, and draws the new index.  Returns the new
    label and its auxiliary point.
    """
    u = [None] * target.n
    for j in range(1, target.n + 1):
        u[j - 1] = state.z if j == state.m else pseudo.sampler(j, rng)
    w = cc_index_weights(target, pseudo, u)
    m_new = draw_index(w, rng)
    return m_new, u[m_new - 1]


def cc_step(
    target: MixtureTarget,
    pseudo: PseudoPriorSet,
    state: State,
    rng: np.random.Generator,
) -> State:
    """One Carlin & Chib-type sweep with exact conditional refresh."""
    if target.conditional_sampler is None:
        raise MissingConditionalSampler(
            "cc_step needs an exact conditional sampler; use mcc_step instead"
        )
    m_new, _ = _cc_select(target, pseudo, state, rng)
    z_new = target.conditional_sampler(m_new, rng)
    return State(m_new, z_new)


def mcc_step(
    target: MixtureTarget,
    pseudo: PseudoPriorSet,
    proposal: ProposalFamily,
    state: State,
    rng: np.random.Generator,
) -> tuple[State, bool]:
    """Metropolised Carlin & Chib sweep: MH refresh of the selected point."""
    m_new, u_sel = _cc_select(target, pseudo, state, rng)
    z_prop = proposal.sampler(m_new, u_sel, rng)
    log_alpha = mh_log_acceptance(target, proposal, m_new, u_sel, z_prop)
    accepted = rng.random() < math.exp(log_alpha)
    z_new = z_prop if accepted else u_sel
    return State(m_new, z_new), accepted


def fcc_step(
    target: MixtureTarget,
    pseudo: PseudoPriorSet,
    state: State,
    rng: np.random.Generator,
) -> State:
    """Frozen Carlin & Chib sweep: the selected auxiliary point is kept as is."""
    m_new, u_sel = _cc_select(target, pseudo, state, rng)
    return State(m_new, u_sel)


def run_chain(config: SamplerConfig, bundle: ModelBundle) -> ChainTrace:
    """Iterate the configured sampler and record the post-burn-in states.

    Fully deterministic given the seed: one fresh RNG stream per chain,
    sub-draws consumed in the fixed per-step order.
    """
    target = bundle.target
    sid = config.sampler_id
    if config.initial_state.m > target.n:
        raise ConfigError(
            f"initial label {config.initial_state.m} outside 1..{target.n}"
        )
    if sid in (SamplerId.GIBBS,) and target.conditional_sampler is None:
        raise ConfigError("Gibbs sampling needs target.conditional_sampler")
    if sid in (SamplerId.CC,) and target.conditional_sampler is None:
        raise ConfigError("CC sampling needs target.conditional_sampler")
    if sid in (SamplerId.CC, SamplerId.MCC, SamplerId.FCC) and bundle.pseudo is None:
        raise ConfigError(f"{sid.value} sampling needs a PseudoPriorSet")
    if sid in (SamplerId.MWG, SamplerId.MCC) and bundle.proposal is None:
        raise ConfigError(f"{sid.value} sampling needs a ProposalFamily")

    rng = np.random.default_rng(config.seed)
    state = config.initial_state
    n_keep = config.n_iterations - config.burn_in
    m_out = np.empty(n_keep, dtype=np.int64)
    z_out = [None] * n_keep
    n_accepted = 0
    pseudo, proposal = bundle.pseudo, bundle.proposal

    t0 = time.perf_counter()
    for k in range(config.n_iterations):
        if sid is SamplerId.GIBBS:
            state = gibbs_step(target, state, rng)
        elif sid is SamplerId.MWG:
            state, accepted = mwg_step(target, proposal, state, rng)
        elif sid is SamplerId.CC:
            state = cc_step(target, pseudo, state, rng)
        elif sid is SamplerId.MCC:
            state, accepted = mcc_step(target, pseudo, proposal, state, rng)
        else:
            state = fcc_step(target, pseudo, state, rng)
        idx = k - config.burn_in
        if idx >= 0:
            m_out[idx] = state.m
            z_out[idx] = state.z
            if sid in _METROPOLISED and accepted:
                n_accepted += 1
    wall = time.perf_counter() - t0

    acc = n_accepted / n_keep if sid in _METROPOLISED else None
    return ChainTrace(
        m=m_out,
        z=np.asarray(z_out, dtype=float),
        sampler_id=sid,
        seed=config.seed,
        burn_in=config.burn_in,
        wall_clock_seconds=wall,
        acceptance_rate=acc,
    )
