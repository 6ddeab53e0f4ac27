"""Trace diagnostics: autocorrelation, batch-means variance, KDE."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
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
# Within that, a grid point's reach is sqrt(d0^2 + 2 (_KDE_TAIL + ln N))
# bandwidths, d0 the distance to its nearest sample and N the sample count
# with repeats: a term left out is below 2^-60 / N of the nearest term, so
# all of them, counted with their multiplicities, stay below 2^-60 of the sum.
_KDE_TAIL = 60.0 * math.log(2.0)
# Pairs (grid point, distinct sample) that kde weighs in one numpy pass,
# so that its arrays stay at 128 KiB each whatever the input sizes.
_KDE_BLOCK_PAIRS = 2**14


class ConstantSeries(ValueError):
    pass


class SeriesTooShort(ValueError):
    pass


class TooFewBatches(ValueError):
    pass


class EmptySample(ValueError):
    pass


@dataclass(frozen=True)
class AsymptoticVarianceEstimate:
    value: float
    method: str
    batch_count: int


def _series(series) -> np.ndarray:
    """The series as a float array; ValueError unless 1-D and finite."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be one-dimensional, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("series must be finite")
    return x


def acf(series, max_lag: int = DEFAULT_MAX_LAG) -> np.ndarray:
    """Empirical autocorrelation at lags 0..max_lag: a float64 array of
    max_lag + 1 values, 1.0 at lag 0.

    Uses the biased (1/N) autocovariance estimator, which keeps the
    estimated sequence positive semidefinite.  The series must be 1-D and
    finite.
    """
    x = _series(series)
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
    return values


def asymptotic_variance_batch_means(
    series, batch_count: int
) -> AsymptoticVarianceEstimate:
    """Batch-means estimate of the asymptotic variance of the path average.

    The series, 1-D and finite, is truncated to a multiple of the batch
    length; the estimate is B * sample-variance of the batch means.
    """
    x = _series(series)
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

    The samples and grid must be one-dimensional and finite, the grid
    sorted and the bandwidth positive and finite; the returned values
    integrate to roughly one when the grid spans the sample range plus a
    few bandwidths.  A chain repeats its states, so each distinct sample's
    kernel is evaluated once and weighted by its multiplicity.  Each grid
    point weighs only the samples whose terms are at least 2^-60 / N of
    its nearest sample's term, N = len(samples) counting repeats, so the
    terms left out, weighted by their multiplicities, stay below 2^-60 of
    its sum; where the nearest term is subnormal or zero, it weighs every
    sample at which exp is not exactly zero.  Consecutive grid points are
    weighed in blocks, each by one matrix-vector product over the union of
    their windows; the result differs from the sum over every sample only
    in summation order and in those left-out terms.
    """
    x = np.asarray(samples, dtype=float)
    g = np.asarray(grid, dtype=float)
    if x.ndim != 1 or g.ndim != 1:
        raise ValueError("samples and grid must be one-dimensional")
    if len(x) == 0:
        raise EmptySample("cannot estimate a density from zero samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if not np.all(np.isfinite(g)):
        raise ValueError("grid must be finite")
    if np.any(np.diff(g) < 0):
        raise ValueError("grid must be sorted ascending")
    h = float(bandwidth)
    if not 0 < h < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    norm = len(x) * h * np.sqrt(2.0 * np.pi)
    # Each grid point sums only the distinct sorted samples within its own
    # reach (see _KDE_TAIL).  N is len(x), not the distinct count, because
    # a left-out sample weighs in with its multiplicity.  Where the nearest
    # term is subnormal or zero, the reach is all of _KDE_REACH.  d0, and so
    # the reach in bandwidths, moves by at most as much as the grid point,
    # so, up to rounding at the reach's edge, the windows' ends rise with
    # the grid and a block's union of windows holds each of its points'
    # windows.  A block also weighs the pairs at its corners, beyond their
    # grid point's reach: about a fifth of the pairs of the posterior
    # study's estimate.
    xs, counts = np.unique(x, return_counts=True)
    counts = counts.astype(float)
    k = np.searchsorted(xs, g)
    d0 = np.minimum(
        np.abs(g - xs[np.maximum(k - 1, 0)]), np.abs(xs[np.minimum(k, len(xs) - 1)] - g)
    ) / h
    tail = 2.0 * (_KDE_TAIL + math.log(len(x)))
    reach = np.minimum(np.sqrt(d0 * d0 + tail), _KDE_REACH) * h
    lo = np.searchsorted(xs, g - reach, side="left").tolist()
    hi = np.searchsorted(xs, g + reach, side="right").tolist()
    out = np.zeros(len(g))
    i = 0
    while i < len(g):
        # Grid points i..j - 1, while their count times the union of their
        # windows stays within the bound; one point's wider window in parts.
        a, j = lo[i], i + 1
        while j < len(g) and (j + 1 - i) * (hi[j] - a) <= _KDE_BLOCK_PAIRS:
            j += 1
        width = max(_KDE_BLOCK_PAIRS // (j - i), 1)
        for c in range(a, hi[j - 1], width):
            e = min(c + width, hi[j - 1])
            d = (g[i:j, None] - xs[c:e]) / h
            out[i:j] += np.exp(-0.5 * d * d) @ counts[c:e]
        i = j
    return out / norm
