"""bench/spans.py patches ccmix attributes by name; renaming or removing
one of them fails here instead of in a traced benchmark run."""

import importlib
from collections import Counter
from pathlib import Path

import numpy as np

from ccmix import oracle


def test_tracer_wraps_the_ccmix_names(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracer = importlib.import_module("spans").Tracer()
    with tracer.installed():
        oracle.verify(oracle.random_spec(np.random.default_rng(0), 2, 3), np.eye(2))
    # verify looks the builders up when it calls them, and builds each once.
    calls = Counter(tracer.names[i] for i in tracer.arrays()[0])
    assert [calls[f"oracle.build_{k}"] for k in ("P3", "Q3", "Q4")] == [1, 1, 1]
    assert calls["oracle.variance"] == 3
    assert calls["oracle.check_gibbs_iid_bound"] == 1
