"""Benchmark of ccmix: one workload per process, results as one JSON line.

Run from the repository root::

    python3 bench/run.py --workload toy --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds`` seconds.  With ``--trace 1`` it alternates an untraced and
a traced operation on the same input, until ``--seconds`` have passed
and the deck has been covered once, and reports the per-layer metrics;
the spans go to ``bench/_out/``.  The last line of standard output is
the result object; the lines before it repeat the metrics for people.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: each workload is a single process with no threads of
# its own, on a two-core machine.  Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("toy", "posterior", "oracle-cli", "oracle-kernels")
SETUP_REPEATS = 3
MAX_REPORTED_PROBLEMS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ccmix benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def environment(load_start) -> dict:
    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


class Outcome:
    """Attempted and failed operations of a run, with the first problems seen."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def timed(self, wl, item, call=None) -> float:
        """Run one operation, check its output, and return its latency;
        the clock numbers the call ``clock.calls() - 1``."""
        call = call or wl.run
        box = {}

        def op():
            try:
                box["result"] = call(item)
            except Exception:  # the run goes on; the operation counts as failed
                box["error"] = traceback.format_exc()

        latency = self.clock.time(op)
        problems = [box["error"]] if "error" in box else wl.check(item, box["result"])
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append(f"op {self.attempted}: {'; '.join(problems)}")
        return latency


def measure(wl, seconds: float, outcome: Outcome) -> list[tuple[int, float, int]]:
    """Cycle the deck for ``seconds``, and at least once through; return
    (deck index, latency, clock call number) of every operation."""
    latencies = []
    deadline = time.perf_counter() + seconds
    while len(latencies) < len(wl.deck) or time.perf_counter() < deadline:
        i = len(latencies) % len(wl.deck)
        latencies.append((i, outcome.timed(wl, wl.deck[i]), outcome.clock.calls() - 1))
    return latencies


def measure_traced(wl, seconds: float, outcome: Outcome, spans_path: Path) -> dict[str, float]:
    from collections import Counter

    from ccmix import asymptotic_variance_batch_means
    import numpy as np

    from metrics import per_layer_values
    from spans import LayerTotals, Tracer, captured_chains

    tracer = Tracer()
    run, deck = LayerTotals(), LayerTotals()
    deck_counts: Counter = Counter()
    chains = []
    untraced = traced = 0.0
    n = 0
    deadline = time.perf_counter() + seconds
    while n < len(wl.deck) or time.perf_counter() < deadline:
        item = wl.deck[n % len(wl.deck)]
        with captured_chains() as captured:
            untraced += outcome.timed(wl, item)
        for sid, trace in captured:
            z = np.asarray(trace.z, dtype=float)
            ess = len(z) * float(np.var(z)) / asymptotic_variance_batch_means(z, 20).value
            acc = float("nan") if trace.acceptance_rate is None else trace.acceptance_rate
            wall = trace.wall_clock_seconds
            chains.append((sid, acc, ess / wall, wall / (trace.burn_in + len(z))))
        base = len(tracer)
        before = Counter(tracer.counts)
        with tracer.installed():
            traced += outcome.timed(wl, item, tracer.wrap("op", wl.run))
        arrays = tracer.arrays(base)
        run.add(tracer.names, *arrays, base)
        if n < len(wl.deck):
            deck.add(tracer.names, *arrays, base)
            deck_counts.update(tracer.counts - before)
        else:
            tracer.truncate(base)
        n += 1
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path)
    return per_layer_values(
        run, tracer.counts, n, deck, deck_counts, len(wl.deck), chains, traced / untraced
    )


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "ccmix" / "__init__.py").is_file():
        print(f"error: no ccmix sources under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    from speed import SpeedClock

    clock = SpeedClock()
    import_s = clock.time(lambda: importlib.import_module("ccmix.cli"))
    ccmix_file = Path(sys.modules["ccmix"].__file__).resolve()
    if ccmix_file.parent != SRC / "ccmix":
        print(f"error: imported ccmix from {ccmix_file}, not {SRC}", file=sys.stderr)
        return 2

    from metrics import END_TO_END, PER_LAYER, end_to_end_values, result_line
    from workloads import make_workload

    wl = make_workload(args.workload, args.seed, BENCH / "_work" / f"{args.workload}-{os.getpid()}")
    outcome = Outcome(clock)
    try:
        setups = [(clock.time(wl.setup), clock.calls() - 1) for _ in range(SETUP_REPEATS)]
        setup_s = import_s + statistics.median(t for t, _ in setups)
        setup_ref = import_s * clock.scale(0) + statistics.median(t * clock.scale(k) for t, k in setups)
        if args.trace:
            spans_path = BENCH / "_out" / f"spans-{args.workload}-seed{args.seed}.npz"
            values = measure_traced(wl, args.seconds, outcome, spans_path)
            table = PER_LAYER
        else:
            latencies = measure(wl, args.seconds, outcome)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            measured = end_to_end_values([(i, t) for i, t, _ in latencies], setup_s, rss_mb)
            values = end_to_end_values(
                [(i, t * clock.scale(k)) for i, t, k in latencies], setup_ref, rss_mb
            )
            table = END_TO_END
    finally:
        wl.close()

    print("env " + json.dumps(environment(load_start)))
    for problem in outcome.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}: {outcome.attempted} operations, {outcome.failed} failed, "
          f"deck of {len(wl.deck)}")
    print(f"error_rate = {outcome.failed / outcome.attempted!r} fraction")
    if not args.trace:
        print("times below are in reference seconds (bench/speed.py); measured.* are raw")
        for name, (unit, _) in END_TO_END.items():
            print(f"measured.{name} = {measured[name]!r} {unit}")
        if hasattr(wl, "steps_per_op"):
            print(f"study_steps_per_s = {values['ops_per_s'] * wl.steps_per_op!r} steps/s")
        else:
            print(f"specs_per_s = {values['ops_per_s']!r} specs/s")
            print(f"spec_p50_ms = {values['op_p50_ms']!r} ms")
            print(f"spec_tail_ms = {values['op_p75_ms']!r} ms (75th percentile)")
    for name, (unit, _) in table.items():
        print(f"{name} = {values[name]!r} {unit}")
    result = result_line(outcome.failed == 0, outcome.attempted, outcome.failed, values, table)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
