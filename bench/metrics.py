"""Names, units and computation of the benchmark's metrics.

End-to-end metrics come from a run with tracing off; per-layer metrics
from a traced run.  ``BENCHMARK.json`` lists the same names and units.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

from spans import CALLBACK_KINDS, MODEL_FUNCTIONS, ORACLE_CHECKS, SAMPLER_IDS, LayerTotals

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# One operation is one study call (toy, posterior) or one spec verified
# (oracle-cli, oracle-kernels).  name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p75_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer_table() -> dict[str, tuple[str, str]]:
    t = {}
    for sid in SAMPLER_IDS:
        t[f"samplers.{sid}.us_per_step"] = ("us/step", "lower")
        t[f"samplers.{sid}.self_us_per_step"] = ("us/step", "lower")
        t[f"samplers.{sid}.untraced_us_per_step"] = ("us/step", "lower")
    for sid in ("mwg", "mcc"):
        t[f"samplers.{sid}.accept_rate"] = ("ratio", "higher")
    for f in MODEL_FUNCTIONS:
        t[f"model.{f}.us_per_call"] = ("us", "lower")
        t[f"model.{f}.self_us_per_call"] = ("us", "lower")
        t[f"model.{f}.calls_per_step"] = ("1/step", "lower")
    for sid in SAMPLER_IDS:
        for kind in CALLBACK_KINDS:
            t[f"callbacks.{sid}.{kind}_per_step"] = ("1/step", "lower")
        t[f"callbacks.{sid}.us_per_step"] = ("us/step", "lower")
    t["diagnostics.kde.s"] = ("s/op", "lower")
    t["diagnostics.kde.pairs"] = ("count/op", "lower")
    t["diagnostics.kde.ns_per_pair"] = ("ns", "lower")
    t["diagnostics.acf.s"] = ("s/op", "lower")
    t["experiments.true_posterior.s"] = ("s/op", "lower")
    t["experiments.self.s"] = ("s/op", "lower")
    for sid in SAMPLER_IDS:
        t[f"experiments.{sid}.ess_per_s"] = ("1/s", "higher")
    t["cli.emit_reports.s"] = ("s/op", "lower")
    t["cli.self.s"] = ("s/op", "lower")
    t["oracle.variance.s"] = ("s/op", "lower")
    t["oracle.variance.calls"] = ("count/op", "lower")
    t["oracle.build_P3.s"] = ("s/op", "lower")
    t["oracle.build_P3.terms"] = ("count/op", "lower")
    t["oracle.build_Q3.s"] = ("s/op", "lower")
    t["oracle.checks.s"] = ("s/op", "lower")
    t["trace.overhead_ratio"] = ("ratio", "lower")
    return t


PER_LAYER = _per_layer_table()


def weighted_percentile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Percentile ``q`` (0-100) of values with weights, by the midpoint rule."""
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    cdf = (np.cumsum(w) - 0.5 * w) / w.sum()
    return float(np.interp(q / 100.0, cdf, v))


def end_to_end_values(latencies: list[tuple[int, float]], setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics from (deck index, latency in s) of every operation.

    Every deck item weighs the same, however often the run reached it, so
    a run that stops in the middle of a pass keeps the deck's mix:
    throughput is one deck pass over the sum of each item's median
    latency, and percentiles weigh each operation by one over its item's
    count.
    """
    by_item: dict[int, list[float]] = {}
    for item, latency in latencies:
        by_item.setdefault(item, []).append(latency)
    pass_s = sum(float(np.median(v)) for v in by_item.values())
    lat = np.array([latency for _, latency in latencies])
    weight = np.array([1.0 / len(by_item[item]) for item, _ in latencies])
    return {
        "setup_s": setup_s,
        "ops_per_s": len(by_item) / pass_s,
        "op_p50_ms": weighted_percentile(lat, weight, 50) * 1e3,
        "op_p75_ms": weighted_percentile(lat, weight, 75) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 where the layer did no work in this workload."""
    return a / b if b else 0.0


def per_layer_values(
    run: LayerTotals,
    run_counts: Counter,
    run_ops: int,
    deck: LayerTotals,
    deck_counts: Counter,
    deck_ops: int,
    chains: list[tuple[str, float, float, float]],
    overhead_ratio: float,
) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are averaged over all ``run_ops`` traced operations.  Counts
    are taken over the first pass through the deck (``deck_ops``
    operations), so they repeat exactly for a seed.  ``chains`` holds
    (sampler id, acceptance rate or nan, effective samples per second,
    seconds per step) of every chain of the untraced operations.
    """
    v: dict[str, float] = {}
    steps = {sid: run_counts[f"steps.{sid}"] for sid in SAMPLER_IDS}
    deck_steps = {sid: deck_counts[f"steps.{sid}"] for sid in SAMPLER_IDS}
    for sid in SAMPLER_IDS:
        v[f"samplers.{sid}.us_per_step"] = _ratio(run.dur[f"samplers.{sid}"], steps[sid]) * 1e6
        v[f"samplers.{sid}.self_us_per_step"] = _ratio(run.self_time[f"samplers.{sid}"], steps[sid]) * 1e6
        per_step = [t for s, _, _, t in chains if s == sid]
        v[f"samplers.{sid}.untraced_us_per_step"] = float(np.mean(per_step)) * 1e6 if per_step else 0.0
    for sid in ("mwg", "mcc"):
        rates = [acc for s, acc, _, _ in chains if s == sid]
        v[f"samplers.{sid}.accept_rate"] = float(np.mean(rates)) if rates else 0.0
    for f in MODEL_FUNCTIONS:
        name = f"model.{f}"
        v[f"{name}.us_per_call"] = _ratio(run.dur[name], run.calls[name]) * 1e6
        v[f"{name}.self_us_per_call"] = _ratio(run.self_time[name], run.calls[name]) * 1e6
        v[f"{name}.calls_per_step"] = _ratio(deck.calls[name], sum(deck_steps.values()))
    for sid in SAMPLER_IDS:
        for kind in CALLBACK_KINDS:
            v[f"callbacks.{sid}.{kind}_per_step"] = _ratio(
                deck.in_chain_calls[sid, f"callbacks.{kind}"], deck_steps[sid]
            )
        busy = sum(run.in_chain_dur[sid, f"callbacks.{kind}"] for kind in CALLBACK_KINDS)
        v[f"callbacks.{sid}.us_per_step"] = _ratio(busy, steps[sid]) * 1e6
    v["diagnostics.kde.s"] = run.dur["diagnostics.kde"] / run_ops
    v["diagnostics.kde.pairs"] = deck_counts["kde.pairs"] / deck_ops
    v["diagnostics.kde.ns_per_pair"] = _ratio(run.dur["diagnostics.kde"], run_counts["kde.pairs"]) * 1e9
    v["diagnostics.acf.s"] = run.dur["diagnostics.acf"] / run_ops
    v["experiments.true_posterior.s"] = run.dur["experiments.true_posterior"] / run_ops
    v["experiments.self.s"] = (
        run.self_time["experiments.run_toy_experiment"]
        + run.self_time["experiments.run_posterior_experiment"]
    ) / run_ops
    for sid in SAMPLER_IDS:
        rates = [ess for s, _, ess, _ in chains if s == sid]
        v[f"experiments.{sid}.ess_per_s"] = float(np.mean(rates)) if rates else 0.0
    v["cli.emit_reports.s"] = run.dur["cli.emit_reports"] / run_ops
    v["cli.self.s"] = run.self_time["cli.main"] / run_ops
    v["oracle.variance.s"] = run.dur["oracle.variance"] / run_ops
    v["oracle.variance.calls"] = deck.calls["oracle.variance"] / deck_ops
    v["oracle.build_P3.s"] = run.dur["oracle.build_P3"] / run_ops
    v["oracle.build_P3.terms"] = deck_counts["build_P3.terms"] / deck_ops
    v["oracle.build_Q3.s"] = run.dur["oracle.build_Q3"] / run_ops
    v["oracle.checks.s"] = sum(run.self_time[f"oracle.{c}"] for c in ORACLE_CHECKS) / run_ops
    v["trace.overhead_ratio"] = overhead_ratio
    return v


def result_line(correct: bool, attempted: int, failed: int, values: dict[str, float], table) -> dict:
    """The result object; every metric carries the unit from ``table``."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": table[k][0]} for k in table},
    }
