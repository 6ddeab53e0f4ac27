"""Span tracing of ccmix from outside the program, for the traced run.

``Tracer.installed()`` replaces the module attributes through which the
layers call each other (and the callbacks of the study models) with
wrappers that record one span per call: name, start, end and parent.
Spans are kept in flat arrays in memory and written out at the end.
Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

SAMPLER_IDS = ("gibbs", "mwg", "cc", "mcc", "fcc")
MODEL_FUNCTIONS = (
    "cc_index_weights",
    "conditional_index_weights",
    "draw_index",
    "mh_log_acceptance",
    "State",
)
CALLBACK_KINDS = (
    "target_evals",
    "pseudo_evals",
    "pseudo_draws",
    "proposal_evals",
    "proposal_draws",
    "conditional_draws",
)
ORACLE_CHECKS = (
    "check_reversibility",
    "check_offdiagonal_dominance",
    "check_covariance_ordering",
    "check_gibbs_iid_bound",
)

# (module, attribute, span name) of the plain wrappers.
_SPANS = (
    ("ccmix.cli", "main", "cli.main"),
    ("ccmix.cli", "emit_reports", "cli.emit_reports"),
    ("ccmix.cli", "run_toy_experiment", "experiments.run_toy_experiment"),
    ("ccmix.cli", "run_posterior_experiment", "experiments.run_posterior_experiment"),
    ("ccmix.experiments", "true_posterior", "experiments.true_posterior"),
    ("ccmix.experiments", "acf", "diagnostics.acf"),
    *(("ccmix.samplers", f, f"model.{f}") for f in MODEL_FUNCTIONS),
    ("ccmix.oracle", "build_Q3", "oracle.build_Q3"),
    ("ccmix.oracle", "build_Q4", "oracle.build_Q4"),
    ("ccmix.oracle", "exact_asymptotic_variance_alternating", "oracle.variance"),
    *(("ccmix.oracle", f, f"oracle.{f}") for f in ORACLE_CHECKS),
)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    ``parent[i]`` is the index of span i's parent in the same arrays, or
    a negative number for a root span.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


class Tracer:
    """Records spans of wrapped calls; counts exact work at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stop = array("i")  # one past the last descendant
        self._stack = [-1]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, starts, ends, stops = self.name, self.parent, self.start, self.end, self.stop
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stops.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                stops[i] = len(starts)

        return traced

    def _counted(self, key: str, fn, amount, name: str):
        inner = self.wrap(name, fn)

        def counted(*args, **kwargs):
            self.counts[key] += amount(*args, **kwargs)
            return inner(*args, **kwargs)

        return counted

    def _run_chain(self, fn):
        wrappers = {sid: self.wrap(f"samplers.{sid}", fn) for sid in SAMPLER_IDS}

        def run_chain(config, bundle):
            sid = config.sampler_id.value
            self.counts[f"steps.{sid}"] += config.n_iterations
            return wrappers[sid](config, bundle)

        return run_chain

    def _bundle(self, fn):
        """Wrap a model factory so the bundle it returns has traced callbacks."""
        w = self.wrap

        def factory(*args, **kwargs):
            b = fn(*args, **kwargs)
            t = b.target
            target = dataclasses.replace(
                t,
                log_density=w("callbacks.target_evals", t.log_density),
                conditional_sampler=(
                    None
                    if t.conditional_sampler is None
                    else w("callbacks.conditional_draws", t.conditional_sampler)
                ),
            )
            pseudo = proposal = None
            if b.pseudo is not None:
                pseudo = dataclasses.replace(
                    b.pseudo,
                    log_density=w("callbacks.pseudo_evals", b.pseudo.log_density),
                    sampler=w("callbacks.pseudo_draws", b.pseudo.sampler),
                )
            if b.proposal is not None:
                proposal = dataclasses.replace(
                    b.proposal,
                    log_density=w("callbacks.proposal_evals", b.proposal.log_density),
                    sampler=w("callbacks.proposal_draws", b.proposal.sampler),
                )
            return dataclasses.replace(b, target=target, pseudo=pseudo, proposal=proposal)

        return factory

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into the ccmix modules; restore the originals on exit."""
        patches = [(m, a, lambda fn, n=n: self.wrap(n, fn)) for m, a, n in _SPANS]
        patches += [
            ("ccmix.experiments", "run_chain", self._run_chain),
            ("ccmix.experiments", "toy_model", self._bundle),
            ("ccmix.experiments", "posterior_model", self._bundle),
            (
                "ccmix.experiments",
                "kde",
                lambda fn: self._counted(
                    "kde.pairs", fn, lambda s, g, *a, **k: len(s) * len(g), "diagnostics.kde"
                ),
            ),
            (
                "ccmix.oracle",
                "build_P3",
                lambda fn: self._counted(
                    "build_P3.terms",
                    fn,
                    lambda spec: spec.grid_size ** (spec.n - 1) * spec.n * spec.grid_size,
                    "oracle.build_P3",
                ),
            ),
        ]
        saved = []
        try:
            for module_name, attr, make in patches:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, lo: int = 0) -> tuple[np.ndarray, ...]:
        """(name, parent, start, end, stop) of the spans from index ``lo`` on."""
        return (
            np.frombuffer(self.name, dtype=np.int16)[lo:].copy(),
            np.frombuffer(self.parent, dtype=np.int32)[lo:].copy(),
            np.frombuffer(self.start, dtype=np.float64)[lo:].copy(),
            np.frombuffer(self.end, dtype=np.float64)[lo:].copy(),
            np.frombuffer(self.stop, dtype=np.int32)[lo:].copy(),
        )

    def truncate(self, lo: int) -> None:
        """Drop the spans from index ``lo`` on (all of them must have ended)."""
        for arr in (self.name, self.parent, self.start, self.end, self.stop):
            del arr[lo:]

    def save(self, path: Path) -> None:
        name, parent, start, end, _ = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)


@contextlib.contextmanager
def captured_chains():
    """Collect (sampler id, ChainTrace) of every chain the studies run, without spans."""
    import ccmix.experiments as experiments

    original = experiments.run_chain
    chains: list[tuple[str, object]] = []

    def run_chain(config, bundle):
        trace = original(config, bundle)
        chains.append((config.sampler_id.value, trace))
        return trace

    experiments.run_chain = run_chain
    try:
        yield chains
    finally:
        experiments.run_chain = original


@dataclasses.dataclass
class LayerTotals:
    """Sums over the spans of traced operations, by span name and sampler."""

    dur: Counter = dataclasses.field(default_factory=Counter)
    self_time: Counter = dataclasses.field(default_factory=Counter)
    calls: Counter = dataclasses.field(default_factory=Counter)
    # (sampler, span name) -> calls and time inside that sampler's chains
    in_chain_calls: Counter = dataclasses.field(default_factory=Counter)
    in_chain_dur: Counter = dataclasses.field(default_factory=Counter)

    def add(self, names: list[str], name, parent, start, end, stop, base: int) -> None:
        """Add the spans of one operation, whose first span has index ``base``."""
        local_parent = np.where(parent >= base, parent - base, -1)
        dur = end - start
        own = self_times(local_parent, start, end)
        n_names = len(names)
        for key, values in ((self.dur, dur), (self.self_time, own)):
            sums = np.bincount(name, weights=values, minlength=n_names)
            for i in np.flatnonzero(sums):
                key[names[i]] += float(sums[i])
        for i, c in enumerate(np.bincount(name, minlength=n_names)):
            if c:
                self.calls[names[i]] += int(c)
        chain_ids = [k for k, n in enumerate(names) if n.startswith("samplers.")]
        for i in np.flatnonzero(np.isin(name, chain_ids)):
            sid = names[name[i]].split(".", 1)[1]
            lo, hi = i + 1, stop[i] - base
            inner = name[lo:hi]
            counts = np.bincount(inner, minlength=n_names)
            sums = np.bincount(inner, weights=dur[lo:hi], minlength=n_names)
            for k in np.flatnonzero(counts):
                self.in_chain_calls[sid, names[k]] += int(counts[k])
                self.in_chain_dur[sid, names[k]] += float(sums[k])
