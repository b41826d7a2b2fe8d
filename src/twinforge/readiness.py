"""Preprocessing stages: outlier removal, gap filling, smoothing,
normalization, rolling-maximum peak extraction.

All stages are pure functions on 1-D float arrays. clean_axis composes all
but rolling_max in a fixed order; run_readiness runs it per axis, takes block
peaks per block size and zips the three axes into block-level 3-vectors for
segmentation and clustering.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllMissing, AxisLengthMismatch, EmptySeries, FeatureOutOfRange, WindowTooLarge


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


# The analytics square features unscaled. Below 2**_SCALE_EXP every square
# is below 2**960, so PELT's squared segment sums (under n**2 * 2**960 over n
# blocks), k-means' and silhouette's squared distances over d columns (under
# 4 * d * 2**960) and their sums over n blocks stay below the largest float64,
# about 2**1024, for every window of fewer than 2**31 blocks and d <= 7.
_FEATURE_BOUND = math.ldexp(1.0, _SCALE_EXP)


@dataclass(frozen=True)
class ReadinessConfig:
    sigma_threshold: float = 7.0
    smooth_window: int = 5
    gap_fill: str = "linear"  # or "hold"
    normalize: bool = True

    def __post_init__(self):
        if type(self.smooth_window) is not int:  # a bool is no window
            raise ValueError(f"smooth_window must be an integer, got {self.smooth_window!r}")
        if type(self.sigma_threshold) is bool:
            raise ValueError(f"sigma_threshold must be a number, got {self.sigma_threshold!r}")
        if not 0 < self.sigma_threshold <= sys.float_info.max:  # nan, inf or an int no float holds
            raise ValueError(
                f"sigma_threshold must be positive and finite, got {self.sigma_threshold!r}"
            )
        if self.smooth_window < 1 or self.smooth_window % 2 == 0:
            raise ValueError("smooth_window must be odd and >= 1")
        if type(self.normalize) is not bool:
            raise ValueError(f"normalize must be true or false, got {self.normalize!r}")
        if self.gap_fill not in ("linear", "hold"):
            raise ValueError(f"unknown gap_fill mode {self.gap_fill!r}")


@dataclass(frozen=True)
class FeatureSeries:
    """Block-wise peak vectors: peaks[i] = (x, y, z) peak of block i, each
    finite and below _FEATURE_BOUND in magnitude."""

    peaks: np.ndarray  # (n_blocks, 3)

    def __post_init__(self):
        peak = float(np.abs(self.peaks).max(initial=0.0))  # nan if any is nan
        if not math.isfinite(peak):
            raise FeatureOutOfRange("feature vectors must be finite")
        if peak >= _FEATURE_BOUND:
            raise FeatureOutOfRange(
                f"feature peak {peak:.3g} reaches 2**{_SCALE_EXP}, too large for the analytics"
            )

    def __len__(self) -> int:
        return self.peaks.shape[0]


def detect_outliers(series, sigma_threshold: float = 7.0) -> np.ndarray:
    """Mask of points strictly beyond sigma_threshold population deviations.

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
    mask[finite] = np.abs(values - mu) > sigma_threshold * sigma
    return mask


def fill_gaps(series, mask, mode: str = "linear") -> np.ndarray:
    """Replace flagged/missing positions.

    linear: interior points by interpolation between nearest valid
    neighbours, leading/trailing by the nearest valid value. hold: carry the
    last valid value forward (leading positions take the first valid one).
    """
    x = np.asarray(series, dtype=np.float64)
    bad = np.asarray(mask, dtype=bool) | ~np.isfinite(x)
    if bad.all():
        raise AllMissing("cannot fill a fully-missing series")
    if not bad.any():
        return x.copy()
    idx = np.arange(x.size)
    valid = idx[~bad]
    if mode == "linear":
        out = x.copy()
        out[bad] = np.interp(idx[bad], valid, x[valid])
        return out
    if mode == "hold":
        # index of the most recent valid point at or before each position
        last = np.maximum.accumulate(np.where(~bad, idx, -1))
        last[last < 0] = valid[0]  # leading run: take first valid
        return x[last]
    raise ValueError(f"unknown gap_fill mode {mode!r}")


def smooth(series, window: int) -> np.ndarray:
    """Centered moving average; edges use the truncated window so length is
    preserved."""
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        raise EmptySeries("smooth needs a non-empty series")
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and >= 1")
    if window > x.size:
        raise WindowTooLarge(f"window {window} > length {x.size}")
    if window == 1:
        return x.copy()
    half = window // 2
    scale = _scale(x)
    csum = np.concatenate(([0.0], np.cumsum(x / scale)))
    idx = np.arange(x.size)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, x.size)
    return (csum[hi] - csum[lo]) / (hi - lo) * scale


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


def clean_axis(series, config: ReadinessConfig) -> np.ndarray:
    """One axis through detect_outliers -> fill_gaps -> smooth ->
    zscore_normalize (if enabled): everything of readiness but the blocks."""
    mask = detect_outliers(series, config.sigma_threshold)
    cleaned = smooth(fill_gaps(series, mask, config.gap_fill), config.smooth_window)
    return zscore_normalize(cleaned) if config.normalize else cleaned


def run_readiness(
    x: Sequence[float],
    y: Sequence[float],
    z: Sequence[float],
    config: ReadinessConfig,
    block_sizes: Sequence[int],
) -> tuple[FeatureSeries, ...]:
    """Full per-axis pipeline: clean_axis, then rolling_max, axes zipped into
    3-vectors.

    The three axis series must be time-aligned and equal length. Non-finite
    input values are treated as missing and filled alongside outliers.

    Returns one FeatureSeries per block size, in order: each axis is cleaned
    once and only rolling_max runs per block size.
    """
    if not block_sizes:
        raise ValueError("run_readiness needs at least one block size")
    axes = [np.asarray(a, dtype=np.float64) for a in (x, y, z)]
    lengths = {a.size for a in axes}
    if len(lengths) != 1:
        raise AxisLengthMismatch(f"axis lengths differ: {[a.size for a in axes]}")
    if axes[0].size == 0:
        raise EmptySeries("run_readiness needs non-empty axes")
    cleaned = [clean_axis(axis, config) for axis in axes]
    return tuple(
        FeatureSeries(np.column_stack([rolling_max(c, size) for c in cleaned]))
        for size in block_sizes
    )
