"""Carlin & Chib-type MCMC samplers for mixture targets, with an exact
finite-state oracle for machine-checking reversibility, invariance and
asymptotic-variance orderings."""

from .model import (
    AllZeroMass,
    InvalidCurrentState,
    MixtureTarget,
    ProposalFamily,
    PseudoPriorSet,
    PseudoPriorZero,
    State,
)
from .samplers import (
    ChainTrace,
    ConfigError,
    ModelBundle,
    SamplerConfig,
    SamplerId,
    cc_index_weights,
    conditional_index_weights,
    draw_index,
    mh_log_acceptance,
    run_chain,
    step,
)
from .diagnostics import (
    AsymptoticVarianceEstimate,
    acf,
    asymptotic_variance_batch_means,
    kde,
)

__version__ = "0.1.0"
