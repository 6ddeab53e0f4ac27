"""Command-line entry point: oracle verification runs and the two experiments.

Commands::

    ccmix oracle [--seed S] [--spec FILE]           exact kernel checks
    ccmix toy [--seed S] [--iters N] [--burn-in B] [--out DIR] [--replicates R]
    ccmix posterior [...same flags as toy...]

``--iters``, ``--burn-in``, ``--out`` and ``--replicates`` belong to the
two experiment commands only; ``oracle`` refuses them.

Experiment commands write plot-ready CSV files (one ACF file per
sampler and component, a summary table, and for the posterior run the
estimated-vs-exact density).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import oracle
from .experiments import ExperimentReport, run_posterior_experiment, run_toy_experiment

__all__ = ["RunConfig", "UsageError", "parse_args", "emit_reports", "main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int = 42
    iterations: int = 101_000
    burn_in: int = 1000
    output_dir: Path = Path("out")
    spec_file: Optional[Path] = None
    replicates: int = 10


def parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="ccmix", description="Mixture-model MCMC samplers and their oracle checks"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("oracle", "toy", "posterior"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=42)
        if name == "oracle":
            p.add_argument("--spec", type=Path, default=None)
            continue
        p.add_argument("--iters", type=int, default=101_000)
        p.add_argument("--burn-in", type=int, default=1000)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--replicates", type=int, default=10)
    ns = parser.parse_args(argv)
    if ns.command == "oracle":
        return RunConfig(command="oracle", seed=ns.seed, spec_file=ns.spec)
    if ns.iters <= ns.burn_in:
        raise UsageError(
            f"--iters ({ns.iters}) must exceed --burn-in ({ns.burn_in})"
        )
    return RunConfig(
        command=ns.command,
        seed=ns.seed,
        iterations=ns.iters,
        burn_in=ns.burn_in,
        output_dir=ns.out,
        replicates=ns.replicates,
    )


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_reports(report: ExperimentReport, output_dir: Path) -> list[Path]:
    """Write the CSV artifacts for an experiment report; returns the file list."""
    output_dir = Path(output_dir)
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, result in report.results.items():
            for component, est in (("m", result.acf_m), ("z", result.acf_z)):
                path = output_dir / f"acf_{name}_{component}.csv"
                _write_csv(
                    path,
                    ["lag", "value"],
                    zip(est.lags.tolist(), est.values.tolist()),
                )
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


def _oracle_specs(config: RunConfig):
    if config.spec_file is not None:
        return [oracle.load_spec(config.spec_file)]
    rng = np.random.default_rng(config.seed)
    specs = []
    for _ in range(20):
        n = int(rng.choice([2, 3]))
        G = int(rng.choice([5, 10, 25]))
        specs.append(oracle.random_spec(rng, n, G))
    return specs


def _run_oracle(config: RunConfig) -> int:
    try:
        specs = _oracle_specs(config)
    except (OSError, ValueError) as exc:  # only a --spec file can fail to load
        print(f"error: {config.spec_file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(config.seed + 1)
    checks = []  # (name, worst value, passed)
    rev_p3 = rev_q3 = inv = 0.0
    lam_min = 0.0
    offdiag_ok = True
    var_gap = -np.inf
    gibbs_gap = np.inf
    for spec in specs:
        pi = oracle.target_distribution(spec)
        P3 = oracle.build_P3(spec)
        Q3 = oracle.build_Q3(spec)
        Q4 = oracle.build_Q4(spec)
        rev_p3 = max(rev_p3, oracle.check_reversibility(P3, pi))
        rev_q3 = max(rev_q3, oracle.check_reversibility(Q3, pi))
        for K in (P3.matrix, P3.matrix @ Q3.matrix, P3.matrix @ Q4.matrix):
            inv = max(inv, float(np.max(np.abs(pi @ K - pi))))
        offdiag_ok = offdiag_ok and oracle.check_offdiagonal_dominance(Q3, Q4)
        lam_min = min(lam_min, oracle.check_covariance_ordering(Q3, Q4, pi))
        hs = list(np.eye(spec.n)) + [rng.standard_normal(spec.n) for _ in range(10)]
        F = np.repeat(np.array(hs), spec.grid_size, axis=1)
        s_mcc = oracle.exact_asymptotic_variance_alternating(P3, Q3, pi, F)
        s_fcc = oracle.exact_asymptotic_variance_alternating(P3, Q4, pi, F)
        var_gap = max(var_gap, float(np.max(s_mcc - s_fcc)))
        s_gibbs, v_iid = oracle.check_gibbs_iid_bound(spec, lambda m: float(m == 1))
        gibbs_gap = min(gibbs_gap, s_gibbs - v_iid)
    checks.append(("reversibility P3 (<= 1e-12)", rev_p3, rev_p3 <= 1e-12))
    checks.append(("reversibility Q3 (<= 1e-14)", rev_q3, rev_q3 <= 1e-14))
    checks.append(("invariance of pi* (<= 1e-12)", inv, inv <= 1e-12))
    checks.append(("off-diagonal Q3 >= Q4", offdiag_ok, offdiag_ok))
    checks.append(("covariance ordering lambda_min (>= -1e-10)", lam_min, lam_min >= -1e-10))
    checks.append(("variance ordering MCC <= FCC (gap <= 1e-10)", var_gap, var_gap <= 1e-10))
    checks.append(("Gibbs >= iid variance (gap >= -1e-10)", gibbs_gap, gibbs_gap >= -1e-10))
    all_ok = True
    for name, value, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {value}")
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
    try:
        if config.command == "toy":
            report = run_toy_experiment(
                seed=config.seed,
                n_iter=config.iterations,
                burn_in=config.burn_in,
                replicates=config.replicates,
            )
        else:
            report = run_posterior_experiment(
                seed=config.seed,
                n_iter=config.iterations,
                burn_in=config.burn_in,
                replicates=config.replicates,
            )
        files = emit_reports(report, config.output_dir)
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    for name, r in report.results.items():
        acc = "-" if r.acceptance_rate is None else f"{r.acceptance_rate:.3f}"
        print(
            f"{name}: mean_z={r.mean_z:.4f} lag1_acf_m={r.acf_m.values[1]:.4f} "
            f"acceptance={acc} wallclock={r.wall_clock_seconds:.2f}s"
        )
    if report.mu_z_true is not None:
        print(f"true posterior mean: {report.mu_z_true:.4f}")
    print(f"wrote {len(files)} files to {config.output_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
