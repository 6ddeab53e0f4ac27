"""Tests of the benchmark harness itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from ccmix import oracle
from metrics import (
    END_TO_END,
    METRIC_NAME,
    PER_LAYER,
    end_to_end_values,
    per_layer_values,
    result_line,
    weighted_percentile,
)
from spans import LayerTotals, Tracer, self_times
from speed import REFERENCE_S, SCALE_WINDOW, SpeedClock
from workloads import (
    StudyWorkload,
    check_kernel_values,
    check_oracle_output,
    check_study_dir,
    kernel_values,
    verify_spec,
)

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def toy_output(tmp_path_factory):
    """One real toy study call at the benchmark's size, and its reference."""
    wl = StudyWorkload("toy", 7, tmp_path_factory.mktemp("toy") / "work")
    wl.setup()
    rc, out = wl.run(wl.deck[0])
    assert rc == 0
    yield wl.ref, out
    wl.close()


def _copy(out: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "copy"
    shutil.copytree(out, dst)
    return dst


def test_study_check_accepts_a_correct_run(toy_output):
    ref, out = toy_output
    problems, means = check_study_dir(ref, out)
    assert problems == []
    assert set(means) == {"gibbs", "cc", "mcc", "fcc"}


def test_study_check_rejects_a_shifted_mean(toy_output, tmp_path):
    ref, out = toy_output
    out = _copy(out, tmp_path)
    summary = out / "summary.csv"
    lines = summary.read_text().splitlines()
    fields = lines[2].split(",")  # the cc row, the best-mixing sampler
    shift = 2.5 * ref.study.mean_bound["cc"]
    fields[1] = repr(float(fields[1]) + shift)
    lines[2] = ",".join(fields)
    summary.write_text("\n".join(lines) + "\n")
    problems, _ = check_study_dir(ref, out)
    assert len(problems) == 1 and problems[0].startswith("cc: mean_z")


def test_study_check_rejects_a_missing_file(toy_output, tmp_path):
    ref, out = toy_output
    out = _copy(out, tmp_path)
    (out / "acf_fcc_z.csv").unlink()
    problems, _ = check_study_dir(ref, out)
    assert problems and "acf_fcc_z.csv" in problems[0]


def test_oracle_output_check():
    assert check_oracle_output(0, "PASS a: 0.0\nPASS b: 1\n") == []
    assert check_oracle_output(0, "PASS a: 0.0\nFAIL b: 1\n") == ["FAIL b: 1"]
    assert check_oracle_output(1, "PASS a: 0.0\n") == ["exit code 1"]
    assert check_oracle_output(0, "") == ["no check lines printed"]


def test_kernel_check_accepts_exact_kernels():
    spec = oracle.random_spec(np.random.default_rng(3), 4, 6)
    assert check_kernel_values(verify_spec(spec)) == []


def test_kernel_check_rejects_a_non_reversible_kernel():
    spec = oracle.random_spec(np.random.default_rng(3), 4, 6)
    pi = oracle.target_distribution(spec)
    P3, Q3, Q4 = oracle.build_P3(spec), oracle.build_Q3(spec), oracle.build_Q4(spec)
    # Move mass from the diagonal to the next state along a cycle: still
    # stochastic, no longer in detailed balance with pi.
    size = spec.n_states
    M = P3.matrix.copy()
    eps = 0.5 * np.min(np.diag(M))
    M[np.arange(size), np.arange(size)] -= eps
    M[np.arange(size), (np.arange(size) + 1) % size] += eps
    broken = oracle.FiniteKernel(M, spec.n, spec.grid_size)
    problems = check_kernel_values(kernel_values(pi, broken, Q3, Q4))
    assert any(p.startswith("reversibility_P3") for p in problems)


def test_self_time_on_nested_spans():
    # root [0, 10] has children a [1, 4] and b [5, 6]; a has child c [2, 3].
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    np.testing.assert_allclose(self_times(parent, start, end), [6.0, 2.0, 1.0, 1.0])


def test_tracer_records_parents_and_layer_totals():
    tracer = Tracer()
    leaf = tracer.wrap("callbacks.target_evals", lambda: None)

    def step():
        leaf()
        leaf()

    chain = tracer.wrap("samplers.fcc", lambda: [step() for _ in range(3)])
    tracer.wrap("op", chain)()
    name, parent, start, end, stop = tracer.arrays()
    assert [tracer.names[i] for i in name] == ["op", "samplers.fcc"] + ["callbacks.target_evals"] * 6
    assert parent.tolist() == [-1, 0] + [1] * 6
    assert stop.tolist() == [8, 8] + list(range(3, 9))
    totals = LayerTotals()
    totals.add(tracer.names, name, parent, start, end, stop, 0)
    assert totals.calls["callbacks.target_evals"] == 6
    assert totals.in_chain_calls["fcc", "callbacks.target_evals"] == 6
    chain_self = totals.self_time["samplers.fcc"]
    leaves = totals.dur["callbacks.target_evals"]
    assert chain_self == pytest.approx(totals.dur["samplers.fcc"] - leaves)


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    tables = {**END_TO_END, **PER_LAYER}
    assert declared == {name: unit for name, (unit, _) in tables.items()}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["better"] == tables[m["name"]][1]
    for name in tables:
        assert METRIC_NAME.fullmatch(name), name


def test_percentiles_weigh_every_deck_item_once():
    # Item 0 ran three times at 10 ms, item 1 once at 30 ms: each item
    # carries half the weight, so the 10 ms points sit at 1/12, 3/12 and
    # 5/12 of the distribution and the 30 ms point at 9/12.
    values = end_to_end_values([(0, 0.01), (1, 0.03), (0, 0.01), (0, 0.01)], 0.5, 40.0)
    assert values["ops_per_s"] == pytest.approx(2 / 0.04)
    assert values["op_p50_ms"] == pytest.approx(15.0)
    assert values["op_p75_ms"] == pytest.approx(30.0)
    lat = np.array([1.0, 2.0, 3.0, 4.0])
    assert weighted_percentile(lat, np.ones(4), 50) == pytest.approx(np.percentile(lat, 50))


def test_speed_scale_uses_the_bursts_nearest_the_call():
    clock = SpeedClock()
    clock.bursts = [REFERENCE_S] * 30 + [2 * REFERENCE_S] * 30
    assert clock.scale(0) == 1.0
    assert clock.scale(59 - SCALE_WINDOW) == 0.5
    assert clock.scale(29) == pytest.approx(2 / 3)  # median of 10 fast and 10 slow bursts


def test_printed_metrics_have_valid_names_and_units():
    values = end_to_end_values([(0, 0.1), (1, 0.2), (0, 0.3)], 0.5, 40.0)
    line = result_line(True, 3, 0, values, END_TO_END)
    assert set(line["metrics"]) == set(END_TO_END)
    from collections import Counter

    layer = per_layer_values(LayerTotals(), Counter(), 1, LayerTotals(), Counter(), 1, [], 1.2)
    line = result_line(True, 2, 0, layer, PER_LAYER)
    assert set(line["metrics"]) == set(PER_LAYER)
    for result in (result_line(True, 3, 0, values, END_TO_END), line):
        for name, metric in result["metrics"].items():
            assert METRIC_NAME.fullmatch(name)
            assert metric["unit"] and isinstance(metric["value"], float)
