"""Command-line entry point: oracle verification runs and the two experiments.

Commands::

    ccmix oracle [--seed S] [--spec FILE]           exact kernel checks
    ccmix toy [--seed S] [--iters N] [--burn-in B] [--out DIR] [--replicates R]
    ccmix posterior [...same flags as toy...]

``--iters``, ``--burn-in``, ``--out`` and ``--replicates`` belong to the
two experiment commands only; ``oracle`` refuses them.  A flag's
default is its ``RunConfig`` field's.  A negative ``--seed`` or
``--burn-in``, ``--replicates`` below 1, or at most ``DEFAULT_MAX_LAG``
sweeps after burn-in is a usage error (exit 2).  A study chain that
never moves after burn-in has no ACF: a runtime failure (exit 1).

Experiment commands write plot-ready CSV files (one ACF file per
sampler and component, a summary table, and for the posterior run the
estimated-vs-exact density).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import oracle
from .diagnostics import DEFAULT_MAX_LAG, ConstantSeries
from .experiments import ExperimentReport, run_posterior_experiment, run_toy_experiment
from .samplers import DEFAULT_BURN_IN

__all__ = ["RunConfig", "UsageError", "parse_args", "emit_reports", "main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """One CLI run.  A flag that is not given keeps its field's default."""

    command: str
    seed: int = 42
    iterations: int = 101_000
    burn_in: int = DEFAULT_BURN_IN
    output_dir: Path = Path("out")
    spec_file: Optional[Path] = None
    replicates: int = 10


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ccmix", description="Mixture-model MCMC samplers and their oracle checks"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("oracle", "toy", "posterior"):
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--seed", type=int)
        if name == "oracle":
            p.add_argument("--spec", type=Path, dest="spec_file")
            continue
        p.add_argument("--iters", type=int, dest="iterations")
        p.add_argument("--burn-in", type=int)
        p.add_argument("--out", type=Path, dest="output_dir")
        p.add_argument("--replicates", type=int)
    return parser


def parse_args(argv) -> RunConfig:
    config = RunConfig(**vars(_parser().parse_args(argv)))
    if config.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {config.seed}")
    if config.command == "oracle":
        return config
    if config.replicates < 1:
        raise UsageError(f"--replicates must be at least 1, got {config.replicates}")
    if config.burn_in < 0:
        raise UsageError(f"--burn-in must be non-negative, got {config.burn_in}")
    if config.iterations - config.burn_in <= DEFAULT_MAX_LAG:
        raise UsageError(
            f"--iters ({config.iterations}) must exceed --burn-in ({config.burn_in}) "
            f"by more than {DEFAULT_MAX_LAG}, the largest ACF lag"
        )
    return config


def _write_csv(path: Path, header: list[str], rows) -> None:
    """The header and rows as one string, written at once; ``str`` writes
    a float, numpy's too, as its shortest round-trip text."""
    lines = [",".join(header), *(",".join(map(str, row)) for row in rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_reports(report: ExperimentReport, output_dir: Path) -> list[Path]:
    """Write the CSV artifacts for an experiment report; returns the file list."""
    output_dir = Path(output_dir)
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, result in report.results.items():
            for component, est in (("m", result.acf_m), ("z", result.acf_z)):
                path = output_dir / f"acf_{name}_{component}.csv"
                _write_csv(path, ["lag", "value"], enumerate(est.tolist()))
                written.append(path)
        summary = output_dir / "summary.csv"
        _write_csv(
            summary,
            ["sampler", "mean_z", "acceptance", "wallclock_s"],
            (
                (
                    name,
                    r.mean_z,
                    "" if r.acceptance_rate is None else r.acceptance_rate,
                    r.wall_clock_seconds,
                )
                for name, r in report.results.items()
            ),
        )
        written.append(summary)
        if report.density_grid is not None:
            density = output_dir / "density.csv"
            _write_csv(
                density,
                ["z", "kde", "exact"],
                zip(
                    report.density_grid.tolist(),
                    report.density_kde.tolist(),
                    report.density_exact.tolist(),
                ),
            )
            written.append(density)
        return written
    except OSError as exc:
        raise IOError(f"cannot write reports to {output_dir}: {exc}") from exc


def _run_oracle(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed + 1)
    try:
        if config.spec_file is not None:
            specs = [oracle.load_spec(config.spec_file)]
        else:
            spec_rng = np.random.default_rng(config.seed)
            specs = []
            for _ in range(20):
                n = int(spec_rng.choice([2, 3]))
                G = int(spec_rng.choice([5, 10, 25]))
                specs.append(oracle.random_spec(spec_rng, n, G))
        # One row per label function: the indicator basis plus 10 random h.
        hs = [np.vstack([np.eye(s.n), rng.standard_normal((10, s.n))]) for s in specs]
        reports = [oracle.verify(spec, h) for spec, h in zip(specs, hs)]
    except (OSError, ValueError) as exc:
        if config.spec_file is None:
            raise
        print(f"error: {config.spec_file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    all_ok = True
    for key, (label, worst, bound) in oracle.CHECKS.items():
        value = worst(r[key] for r in reports)
        ok = value <= bound if worst is max else value >= bound
        print(f"{'PASS' if ok else 'FAIL'} {label}: {value}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_FAILURE


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    if config.command == "oracle":
        return _run_oracle(config)
    study = run_toy_experiment if config.command == "toy" else run_posterior_experiment
    try:
        report = study(
            seed=config.seed,
            n_iter=config.iterations,
            burn_in=config.burn_in,
            replicates=config.replicates,
        )
        files = emit_reports(report, config.output_dir)
    except (IOError, ConstantSeries) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    for name, r in report.results.items():
        acc = "-" if r.acceptance_rate is None else f"{r.acceptance_rate:.3f}"
        print(
            f"{name}: mean_z={r.mean_z:.4f} lag1_acf_m={r.acf_m[1]:.4f} "
            f"acceptance={acc} wallclock={r.wall_clock_seconds:.2f}s"
        )
    if report.mu_z_true is not None:
        print(f"true posterior mean: {report.mu_z_true:.4f}")
    print(f"wrote {len(files)} files to {config.output_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
