"""Preprocessing stages: outlier removal, gap filling, smoothing,
normalization, rolling-maximum peak extraction.

All stages are pure functions on 1-D float arrays that take data, not
settings. Readiness is one fixed pipeline: clean_axis removes 7-sigma
outliers, fills them and missing values linearly, smooths over 5 samples
and z-scores the axis; run_readiness runs it per axis, takes block peaks
per block size and zips the three axes into a plain (n_blocks, 3) array for
segmentation and clustering.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import AllMissing, AxisLengthMismatch, EmptySeries, WindowTooLarge


# Past 2**_SCALE_EXP a |value|'s square, or the sum of a long series, can
# overflow float64, so statistics are taken on the series divided by a power
# of two. Scaling by 2**k commutes with rounding where nothing overflows or
# underflows, and ordinary input is divided by 1: it keeps every bit.
_SCALE_EXP = 480


def _scale(x: np.ndarray) -> float:
    """The power of two to divide x by before taking statistics: 1.0 unless
    its largest |value| is finite and at least 2**_SCALE_EXP."""
    exp = math.frexp(float(np.abs(x).max()))[1]  # 0 for inf and nan
    return math.ldexp(1.0, exp - _SCALE_EXP) if exp > _SCALE_EXP else 1.0


# Outlier cut in population deviations, above the simulator's 6-sigma noise.
_SIGMA_THRESHOLD = 7.0
# Samples per moving-average window, odd so that the window is centered.
_SMOOTH_WINDOW = 5


def detect_outliers(series) -> np.ndarray:
    """Mask of points strictly beyond 7 (_SIGMA_THRESHOLD) population deviations.

    Mean and sigma are taken over the full input, spikes included (single
    pass, reproducible); non-finite entries are excluded from the statistics
    but never flagged here, they count as missing downstream. sigma == 0
    flags nothing.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        raise EmptySeries("detect_outliers needs a non-empty series")
    finite = np.isfinite(x)
    if not finite.any():
        raise AllMissing("no finite values")
    values = x[finite]
    values = values / _scale(values)
    mu = values.mean()
    sigma = values.std()
    if sigma == 0.0:
        return np.zeros(x.shape, dtype=bool)
    mask = np.zeros(x.shape, dtype=bool)
    mask[finite] = np.abs(values - mu) > _SIGMA_THRESHOLD * sigma
    return mask


def fill_gaps(series, mask) -> np.ndarray:
    """Replace flagged/missing positions: interior points by linear
    interpolation between the nearest valid neighbours, leading/trailing
    ones by the nearest valid value."""
    x = np.asarray(series, dtype=np.float64)
    bad = np.asarray(mask, dtype=bool) | ~np.isfinite(x)
    if bad.all():
        raise AllMissing("cannot fill a fully-missing series")
    if not bad.any():
        return x.copy()
    idx = np.arange(x.size)
    out = x.copy()
    good = x[~bad]
    scale = _scale(good)  # huge neighbours of opposite sign differ past the float range
    out[bad] = np.interp(idx[bad], idx[~bad], good / scale) * scale
    return out


def smooth(series) -> np.ndarray:
    """Centered moving average over _SMOOTH_WINDOW (5) samples; edges use the
    truncated window so length is preserved."""
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        raise EmptySeries("smooth needs a non-empty series")
    if _SMOOTH_WINDOW > x.size:
        raise WindowTooLarge(f"window {_SMOOTH_WINDOW} > length {x.size}")
    half = _SMOOTH_WINDOW // 2
    scale = _scale(x)
    csum = np.concatenate(([0.0], np.cumsum(x / scale)))
    idx = np.arange(x.size)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, x.size)
    means = (csum[hi] - csum[lo]) / (hi - lo)
    if scale != 1.0:
        # the sums' rounding can carry a mean of values at the float limit
        # past it, and no mean leaves the series' range
        np.clip(means, x.min() / scale, x.max() / scale, out=means)
    return means * scale


def zscore_normalize(series) -> np.ndarray:
    """(x - mean) / population std; a constant series maps to all zeros."""
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        raise EmptySeries("zscore_normalize needs a non-empty series")
    x = x / _scale(x)  # the z-score is scale-free
    sigma = x.std()
    if sigma == 0.0:
        return np.zeros_like(x)
    return (x - x.mean()) / sigma


def rolling_max(series, block_size: int) -> np.ndarray:
    """Peak of each non-overlapping block; a partial final block is kept."""
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        raise EmptySeries("rolling_max needs a non-empty series")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    return np.maximum.reduceat(x, np.arange(0, x.size, block_size))


def clean_axis(series) -> np.ndarray:
    """One axis through detect_outliers (7 sigma) -> fill_gaps -> smooth (5
    samples) -> zscore_normalize: everything of readiness but the blocks."""
    mask = detect_outliers(series)
    return zscore_normalize(smooth(fill_gaps(series, mask)))


def run_readiness(
    x: Sequence[float],
    y: Sequence[float],
    z: Sequence[float],
    block_sizes: Sequence[int],
) -> tuple[np.ndarray, ...]:
    """Full per-axis pipeline: clean_axis, then rolling_max, axes zipped into
    3-vectors.

    The three axis series must be time-aligned and equal length. Non-finite
    input values are treated as missing and filled alongside outliers.

    Returns one (n_blocks, 3) peak array per block size, in order: each axis
    is cleaned once and only rolling_max runs per block size. Every axis is
    z-scored, so each peak is finite with |peak| <= sqrt(len(x)).
    """
    if not block_sizes:
        raise ValueError("run_readiness needs at least one block size")
    axes = [np.asarray(a, dtype=np.float64) for a in (x, y, z)]
    lengths = {a.size for a in axes}
    if len(lengths) != 1:
        raise AxisLengthMismatch(f"axis lengths differ: {[a.size for a in axes]}")
    if axes[0].size == 0:
        raise EmptySeries("run_readiness needs non-empty axes")
    cleaned = [clean_axis(axis) for axis in axes]
    return tuple(
        np.column_stack([rolling_max(c, size) for c in cleaned]) for size in block_sizes
    )
