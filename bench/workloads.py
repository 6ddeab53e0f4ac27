"""The four benchmark workloads and the correctness checks of their outputs.

Each workload builds a *deck* of operation inputs from the benchmark seed
during set-up.  A run cycles through the deck; one operation is one call
into ccmix, timed by the caller, followed by a check of its output that
is not timed.  Studies go through ``ccmix.cli.main`` as a user would;
``oracle-kernels`` calls the ``ccmix.oracle`` library the way the README
shows.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ccmix import cli, oracle
from ccmix.experiments import (
    DEFAULT_DENSITY_GRID_STEP,
    TOY_MEANS,
    true_posterior,
)

# Reduced study size: every study call runs each sampler for
# STUDY_REPLICATES chains of STUDY_ITERS steps (burn-in included), so a
# call takes about a second and a run holds more than ten of them.
STUDY_ITERS = 6000
STUDY_BURN_IN = 1000
STUDY_REPLICATES = 2


@dataclass(frozen=True)
class Study:
    command: str
    samplers: tuple[str, ...]
    # Largest |mean_z - exact mean| a correct first chain of a study call
    # may show, per sampler: 1.5 times the largest of 1500 independent
    # chains of the same size (``bench/calibrate.py``), rounded up.
    # MCC and FCC on the toy target have heavy tails (the pseudo-prior of
    # component 1 is lighter-tailed than the target), so their bounds are
    # wide; the margin keeps a family of checks at a level near 0.999.
    mean_bound: dict[str, float]


STUDIES = {
    "toy": Study(
        "toy", ("gibbs", "cc", "mcc", "fcc"), {"gibbs": 0.55, "cc": 0.14, "mcc": 0.98, "fcc": 1.5}
    ),
    "posterior": Study("posterior", ("mwg", "mcc", "fcc"), {"mwg": 0.36, "mcc": 0.069, "fcc": 0.083}),
}


def exact_mean(study: str) -> float:
    """Exact mean of z under the study's target."""
    if study == "toy":
        return float(np.mean(TOY_MEANS))
    return true_posterior()[0]


@dataclass(frozen=True)
class StudyReference:
    """What a correct study output must agree with."""

    study: Study
    mean: float
    grid: np.ndarray | None = None
    density: np.ndarray | None = None


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"{path.name}: header is not {','.join(header)}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path.name}: a row does not have {len(header)} fields")
    return rows


def _check_acf(path: Path) -> list[str]:
    rows = _read_csv(path, ["lag", "value"])
    lags = [int(r[0]) for r in rows]
    values = np.array([float(r[1]) for r in rows])
    if lags != list(range(len(rows))) or len(rows) < 2:
        return [f"{path.name}: lags are not 0..k"]
    if values[0] != 1.0 or not np.all(np.abs(values) <= 1.0 + 1e-12):
        return [f"{path.name}: autocorrelations outside [-1, 1] or lag 0 != 1"]
    return []


def check_study_dir(ref: StudyReference, out: Path) -> tuple[list[str], dict[str, float]]:
    """Check the CSV files of one study call; returns (problems, mean_z by sampler)."""
    study = ref.study
    expected = {f"acf_{s}_{c}.csv" for s in study.samplers for c in ("m", "z")}
    expected.add("summary.csv")
    if ref.density is not None:
        expected.add("density.csv")
    present = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if present != expected:
        return [f"files {sorted(present ^ expected)} missing or unexpected"], {}
    problems: list[str] = []
    means: dict[str, float] = {}
    try:
        for name in sorted(expected - {"summary.csv", "density.csv"}):
            problems += _check_acf(out / name)
        rows = _read_csv(out / "summary.csv", ["sampler", "mean_z", "acceptance", "wallclock_s"])
        if [r[0] for r in rows] != list(study.samplers):
            problems.append(f"summary.csv samplers {[r[0] for r in rows]}")
        for sid, mean_z, acceptance, wall in rows:
            means[sid] = float(mean_z)
            dev = abs(means[sid] - ref.mean)
            if not dev <= study.mean_bound[sid]:
                problems.append(
                    f"{sid}: mean_z {means[sid]:.4f} is {dev:.4f} from {ref.mean:.4f}, "
                    f"bound {study.mean_bound[sid]}"
                )
            if sid in ("mwg", "mcc"):
                if not 0.0 < float(acceptance) <= 1.0:
                    problems.append(f"{sid}: acceptance {acceptance}")
            elif acceptance != "":
                problems.append(f"{sid}: acceptance reported for an exact sampler")
            if not float(wall) > 0.0:
                problems.append(f"{sid}: wallclock_s {wall}")
        if ref.density is not None:
            rows = _read_csv(out / "density.csv", ["z", "kde", "exact"])
            table = np.array(rows, dtype=float)
            if table.shape[0] != len(ref.grid) or not np.allclose(table[:, 0], ref.grid, rtol=0, atol=1e-12):
                problems.append("density.csv grid differs from the study grid")
            elif not np.allclose(table[:, 2], ref.density, rtol=1e-9, atol=1e-15):
                problems.append("density.csv exact column differs from the quadrature density")
            kde = table[:, 1] if table.shape[0] == len(ref.grid) else np.zeros(1)
            mass = float(np.trapezoid(kde, ref.grid)) if len(kde) > 1 else 0.0
            if np.any(kde < 0) or abs(mass - 1.0) > 1e-3:
                problems.append(f"density.csv kde has mass {mass:.6f} or negative values")
    except (OSError, ValueError) as exc:
        problems.append(str(exc))
    return problems, means


def check_oracle_output(rc: int, text: str) -> list[str]:
    """`ccmix oracle` passes when it exits 0 and every line it prints is PASS."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if not lines:
        problems.append("no check lines printed")
    problems += [ln for ln in lines if not ln.startswith("PASS ")]
    return problems


# The CLI's bounds for criteria 1-3.
REVERSIBILITY_P3_TOL = 1e-12
REVERSIBILITY_Q3_TOL = 1e-14
INVARIANCE_TOL = 1e-12
COVARIANCE_TOL = -1e-10


def kernel_values(pi, P3, Q3, Q4) -> dict[str, float]:
    """Criteria 1-3 for one spec: reversibility, invariance, kernel orderings."""
    inv = max(
        float(np.max(np.abs(pi @ K - pi)))
        for K in (P3.matrix, P3.matrix @ Q3.matrix, P3.matrix @ Q4.matrix)
    )
    return {
        "reversibility_P3": oracle.check_reversibility(P3, pi),
        "reversibility_Q3": oracle.check_reversibility(Q3, pi),
        "invariance": inv,
        "offdiagonal": float(oracle.check_offdiagonal_dominance(Q3, Q4)),
        "lambda_min": oracle.check_covariance_ordering(Q3, Q4, pi),
    }


def check_kernel_values(values: dict[str, float]) -> list[str]:
    ok = {
        "reversibility_P3": values["reversibility_P3"] <= REVERSIBILITY_P3_TOL,
        "reversibility_Q3": values["reversibility_Q3"] <= REVERSIBILITY_Q3_TOL,
        "invariance": values["invariance"] <= INVARIANCE_TOL,
        "offdiagonal": values["offdiagonal"] == 1.0,
        "lambda_min": values["lambda_min"] >= COVARIANCE_TOL,
    }
    return [f"{k} = {values[k]!r}" for k, good in ok.items() if not good]


def verify_spec(spec) -> dict[str, float]:
    """One oracle-kernels operation: build the three kernels and check them."""
    pi = oracle.target_distribution(spec)
    P3 = oracle.build_P3(spec)
    Q3 = oracle.build_Q3(spec)
    Q4 = oracle.build_Q4(spec)
    return kernel_values(pi, P3, Q3, Q4)


def frozen_mixing_time(spec) -> float:
    """1 / (1 - d), d the L2(pi) norm of the frozen sweep P3 off the constants.

    The truncated variance series in ``ccmix oracle`` runs for a number
    of terms proportional to this, so it sets the cost of a spec.
    """
    pi = oracle.target_distribution(spec)
    P = oracle.build_P3(spec).matrix
    s = np.sqrt(pi)
    T = s[:, None] * P / s[None, :]
    proj = np.eye(len(s)) - np.outer(s, s)
    d = float(np.linalg.norm(proj @ T @ proj, 2))
    return math.inf if d >= 1.0 else 1.0 / (1.0 - d)


class Workload:
    """A deck of operation inputs, the timed call and the output check."""

    name: str
    deck: list

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> list[str]:
        raise NotImplementedError

    def fresh_workdir(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class StudyWorkload(Workload):
    """``ccmix toy`` or ``ccmix posterior`` at the reduced size; the deck
    is one study call, repeated, so every call must give the same means."""

    def __init__(self, name: str, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.name = name
        self.study = STUDIES[name]
        self.steps_per_op = len(self.study.samplers) * STUDY_REPLICATES * STUDY_ITERS
        self.first_means: dict[str, float] | None = None

    def setup(self) -> None:
        grid = density = None
        if self.name == "posterior":
            grid = np.arange(-3.0, 3.0 + DEFAULT_DENSITY_GRID_STEP / 2, DEFAULT_DENSITY_GRID_STEP)
            density = true_posterior(grid=grid)[1]
        self.ref = StudyReference(self.study, exact_mean(self.name), grid, density)
        self.fresh_workdir()
        self.deck = [self.seed]

    def run(self, item):
        out = Path(tempfile.mkdtemp(dir=self.workdir))
        argv = [
            self.study.command, "--seed", str(item), "--iters", str(STUDY_ITERS),
            "--burn-in", str(STUDY_BURN_IN), "--replicates", str(STUDY_REPLICATES),
            "--out", str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return rc, out

    def check(self, item, result) -> list[str]:
        rc, out = result
        if rc != 0:
            return [f"exit code {rc}"]
        problems, means = check_study_dir(self.ref, out)
        shutil.rmtree(out, ignore_errors=True)
        if self.first_means is None:
            self.first_means = means
        elif means != self.first_means:
            problems.append("a rerun with the same flags changed mean_z")
        return problems


# Mixing times of the frozen sweep at the 0.1, 0.2, 0.3, 0.45, 0.6 and
# 0.7 quantiles of each (n, G) cell of the CLI's default oracle mix (n in
# {2, 3}, G in {5, 10, 25}), from 400 random specs per cell.  Each cell
# draws ORACLE_CLI_DRAWS random specs and keeps, for each target, the
# unused one whose mixing time is nearest.  The variance series' cost
# grows with the mixing time, so a seed changes the specs but hardly how
# much work the deck holds.  The slowest quarter of the default mix is
# left out: one such spec can take from 2 s to over a minute, longer
# than a run.
ORACLE_CLI_TARGETS = {
    (2, 5): (5.5, 7.6, 9.9, 13.0, 19.0, 26.0),
    (2, 10): (10.0, 15.0, 19.0, 28.0, 43.0, 59.0),
    (2, 25): (23.0, 32.0, 42.0, 65.0, 95.0, 140.0),
    (3, 5): (4.2, 5.4, 6.6, 9.3, 14.0, 19.0),
    (3, 10): (7.7, 9.6, 13.0, 19.0, 29.0, 39.0),
    (3, 25): (19.0, 25.0, 33.0, 49.0, 76.0, 100.0),
}
ORACLE_CLI_DRAWS = 40


class OracleCliWorkload(Workload):
    """``ccmix oracle --spec FILE`` for each spec of a seeded deck."""

    name = "oracle-cli"

    def setup(self) -> None:
        self.fresh_workdir()
        cells = list(ORACLE_CLI_TARGETS)
        np.random.default_rng([self.seed, 1]).shuffle(cells)
        kept = {}
        for n, G in cells:
            rng = np.random.default_rng([self.seed, 2, n, G])
            specs = [oracle.random_spec(rng, n, G) for _ in range(ORACLE_CLI_DRAWS)]
            log_k = np.log([frozen_mixing_time(spec) for spec in specs])
            kept[n, G] = []
            for target in ORACLE_CLI_TARGETS[n, G]:
                i = int(np.argmin(np.abs(log_k - math.log(target))))
                log_k[i] = math.inf
                kept[n, G].append(specs[i])
        # Block b holds target j of cell (b + j) mod 6: every block has
        # each target once, and the deck has each (cell, target) once.
        self.deck = []
        for b in range(len(cells)):
            for j in range(len(kept[cells[0]])):
                n, G = cells[(b + j) % len(cells)]
                path = self.workdir / f"spec-{len(self.deck):03d}-n{n}-G{G}.txt"
                oracle.save_spec(kept[n, G][j], path)
                self.deck.append(path)

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["oracle", "--spec", str(item)])
        return rc, buf.getvalue()

    def check(self, item, result) -> list[str]:
        return check_oracle_output(*result)


# (n, G) cells for the kernel builds, all within MAX_ENUMERATION_TERMS.
# Five cells whose build times differ by 1.7 to 2.3 times from one to
# the next, so the median and the 75th percentile each fall inside one
# cell's cluster of latencies.
ORACLE_KERNEL_CELLS = ((4, 8), (4, 10), (5, 7), (5, 8), (6, 6))
ORACLE_KERNEL_COPIES = 2


class OracleKernelsWorkload(Workload):
    """build_P3/Q3/Q4 and criteria 1-3 on specs with four to six components."""

    name = "oracle-kernels"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        cells = [c for c in ORACLE_KERNEL_CELLS for _ in range(ORACLE_KERNEL_COPIES)]
        rng.shuffle(cells)
        self.deck = [oracle.random_spec(rng, n, G) for n, G in cells]

    def run(self, item):
        return verify_spec(item)

    def check(self, item, result) -> list[str]:
        return check_kernel_values(result)


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    if name in STUDIES:
        return StudyWorkload(name, seed, workdir)
    if name == "oracle-cli":
        return OracleCliWorkload(seed, workdir)
    if name == "oracle-kernels":
        return OracleKernelsWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
