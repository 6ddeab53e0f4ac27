"""bench/spans.py patches ccmix attributes by name; renaming or removing
one of them fails here instead of in a traced benchmark run."""

import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ccmix import cli, oracle


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("spans")


def _calls(tracer) -> Counter:
    return Counter(tracer.names[i] for i in tracer.arrays()[0])


def test_tracer_wraps_the_ccmix_names(spans):
    tracer = spans.Tracer()
    with tracer.installed():
        oracle.verify(oracle.random_spec(np.random.default_rng(0), 2, 3), np.eye(2))
    # verify looks the builders up when it calls them, and builds each once.
    calls = _calls(tracer)
    assert [calls[f"oracle.build_{k}"] for k in ("P3", "Q3", "Q4")] == [1, 1, 1]
    assert calls["oracle.variance"] == 3
    assert calls["oracle.check_gibbs_iid_bound"] == 1


def test_tracer_sees_the_posterior_study(spans, tmp_path, capsys):
    # main and the study look the study functions, the sampler runner,
    # the ground truth and the density estimate up when they call them.
    tracer = spans.Tracer()
    argv = ["posterior", "--iters", "600", "--burn-in", "100", "--replicates", "1"]
    with spans.captured_chains() as chains:
        with tracer.installed():
            assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_OK
    capsys.readouterr()
    calls = _calls(tracer)
    for name in (
        "experiments.run_posterior_experiment",
        "samplers.mwg",
        "samplers.mcc",
        "samplers.fcc",
        "experiments.true_posterior",
        "diagnostics.kde",
        "cli.emit_reports",
    ):
        assert calls[name] == 1, name
    assert [sid for sid, _ in chains] == ["mwg", "mcc", "fcc"]
