"""Trace diagnostics: autocorrelation, batch-means variance, KDE."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AcfEstimate",
    "AsymptoticVarianceEstimate",
    "ConstantSeries",
    "SeriesTooShort",
    "TooFewBatches",
    "EmptySample",
    "acf",
    "asymptotic_variance_batch_means",
    "kde",
    "DEFAULT_MAX_LAG",
]

DEFAULT_MAX_LAG = 50
# exp(-d*d/2) is exactly 0.0 in float64 once d*d/2 passes about 745.13, so
# samples more than this many bandwidths from a grid point add nothing.
_KDE_REACH = math.sqrt(2.0 * 745.2)


class ConstantSeries(ValueError):
    pass


class SeriesTooShort(ValueError):
    pass


class TooFewBatches(ValueError):
    pass


class EmptySample(ValueError):
    pass


@dataclass(frozen=True)
class AcfEstimate:
    lags: np.ndarray
    values: np.ndarray
    series_length: int


@dataclass(frozen=True)
class AsymptoticVarianceEstimate:
    value: float
    method: str
    batch_count: int


def acf(series, max_lag: int = DEFAULT_MAX_LAG) -> AcfEstimate:
    """Empirical autocorrelation at lags 0..max_lag.

    Uses the biased (1/N) autocovariance estimator, which keeps the
    estimated sequence positive semidefinite.
    """
    x = np.asarray(series, dtype=float)
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if len(x) <= max_lag:
        raise SeriesTooShort(f"need more than {max_lag} points, got {len(x)}")
    x = x - x.mean()
    c0 = float(x @ x) / len(x)
    if c0 == 0.0:
        raise ConstantSeries("autocorrelation of a constant series is undefined")
    values = np.empty(max_lag + 1)
    values[0] = 1.0
    for k in range(1, max_lag + 1):
        values[k] = float(x[:-k] @ x[k:]) / len(x) / c0
    return AcfEstimate(np.arange(max_lag + 1), values, len(x))


def asymptotic_variance_batch_means(
    series, batch_count: int
) -> AsymptoticVarianceEstimate:
    """Batch-means estimate of the asymptotic variance of the path average.

    The series is truncated to a multiple of the batch length; the
    estimate is B * sample-variance of the batch means.
    """
    x = np.asarray(series, dtype=float)
    if batch_count < 10:
        raise TooFewBatches(f"need at least 10 batches, got {batch_count}")
    batch_len = len(x) // batch_count
    if batch_len < 1:
        raise TooFewBatches("series shorter than the requested batch count")
    means = x[: batch_count * batch_len].reshape(batch_count, batch_len).mean(axis=1)
    value = batch_len * float(np.var(means, ddof=1))
    return AsymptoticVarianceEstimate(value, "batch_means", batch_count)


def kde(samples, grid, bandwidth: float) -> np.ndarray:
    """Gaussian kernel density estimate on the given grid.

    The grid must be sorted; the returned values integrate to roughly
    one when the grid spans the sample range plus a few bandwidths.
    """
    x = np.asarray(samples, dtype=float)
    g = np.asarray(grid, dtype=float)
    if len(x) == 0:
        raise EmptySample("cannot estimate a density from zero samples")
    if np.any(np.diff(g) < 0):
        raise ValueError("grid must be sorted ascending")
    h = float(bandwidth)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    norm = len(x) * h * np.sqrt(2.0 * np.pi)
    # Each grid point sums only the sorted samples within _KDE_REACH
    # bandwidths: every term left out is exactly zero, and exp never
    # takes its slow underflow path.
    xs = np.sort(x)
    reach = _KDE_REACH * h
    lo = np.searchsorted(xs, g - reach, side="left").tolist()
    hi = np.searchsorted(xs, g + reach, side="right").tolist()
    out = np.empty(len(g))
    for i, gi in enumerate(g.tolist()):
        d = (gi - xs[lo[i] : hi[i]]) / h
        out[i] = np.exp(-0.5 * d * d).sum()
    return out / norm

