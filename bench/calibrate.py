"""Derive the bounds of the study workloads' mean checks.

A study call reports, per sampler, the mean of z over the kept steps of
its first chain.  This script runs that chain (same size, same initial
state rule) for many independent seeds and prints, per sampler, the
largest deviation of the mean from the exact mean of z.  The bound used
in ``workloads.py`` is 1.5 times that largest deviation.

Run from the repository root::

    python3 bench/calibrate.py [--chains 1500] [--study toy]
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from ccmix import SamplerConfig, SamplerId, run_chain  # noqa: E402
from ccmix.experiments import default_initial_state, posterior_model, toy_model  # noqa: E402
from workloads import STUDIES, STUDY_BURN_IN, STUDY_ITERS, exact_mean  # noqa: E402

FIRST_SEED = 1_000_000
MARGIN = 1.5


def deviations(study: str, sid: str, chains: int) -> np.ndarray:
    bundle = toy_model() if study == "toy" else posterior_model()
    mu = exact_mean(study)
    out = np.empty(chains)
    for i in range(chains):
        seed = FIRST_SEED + i
        config = SamplerConfig(
            sampler_id=SamplerId(sid),
            n_iterations=STUDY_ITERS,
            burn_in=STUDY_BURN_IN,
            seed=seed,
            initial_state=default_initial_state(bundle, seed),
        )
        out[i] = float(np.mean(run_chain(config, bundle).z)) - mu
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=1500)
    parser.add_argument("--study", choices=sorted(STUDIES), action="append")
    args = parser.parse_args(argv)
    for study in args.study or sorted(STUDIES):
        for sid in STUDIES[study].samplers:
            dev = np.abs(deviations(study, sid, args.chains))
            q = np.quantile(dev, [0.5, 0.99, 0.999])
            print(
                f"{study} {sid}: |dev| median {q[0]:.4f} q0.99 {q[1]:.4f} q0.999 {q[2]:.4f} "
                f"max {dev.max():.4f} -> bound {MARGIN * dev.max():.4f}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
