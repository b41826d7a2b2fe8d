"""Change-point detection (exact PELT plus a brute-force DP oracle), seeded
K-means, silhouette scoring, and segment-statistics extraction.

Cost model is multivariate L2: sum over dimensions of within-segment squared
deviation from the segment mean. The objective minimized is
sum(segment costs) + penalty * (number of change points). Everything here is
a pure function, and every floating-point reduction has a fixed order, so
results are identical across runs.

The two long-window kernels, the PELT segment costs and the silhouette
distances, reduce over the feature axis one column at a time in index order:
out = c[:, 0], then out += c[:, 1], and so on. numpy sums an axis shorter
than 8 sequentially from index 0, so for the runtime's 3-axis features (and
any d <= 7) this equals .sum(axis=-1) bit for bit. From d = 8 numpy unrolls
its sum eight ways and the two orders can differ in the last ulp; results
stay deterministic, silhouette stays within 1e-9 of the naive definition, and
PELT still equals brute_force_segment, which shares _segment_costs.

pelt_segment runs every penalty in lockstep and advances one tile of
_PELT_TILE steps at a time: one _segment_costs pass per tile builds the costs
of every live start at every step of the tile, and each step then moves all
penalties as one penalties x starts array. The per-step work is a fixed dozen
numpy calls whatever the number of penalties, which is what a live window of
20 to 40 blocks pays for.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import rng
from .errors import (
    DimensionMismatch,
    EmptyInput,
    KExceedsN,
    LengthMismatch,
    SeriesTooLong,
    SeriesTooShort,
    TooFewPoints,
)
from .readiness import FeatureSeries

BRUTE_FORCE_MAX_N = 512

# Rows of the distance matrix silhouette_score holds at once.
_SILHOUETTE_ROWS = 64

# Steps pelt_segment advances per tile, sharing one segment-cost pass.
_PELT_TILE = 32

# Guard band on the pruning inequality: a candidate within this margin of
# optimal is kept, so rounding noise can never prune a candidate the
# unpruned DP would pick. Costs this close are ties for every practical
# purpose and the tolerance on total_cost is 1e-9 anyway.
_PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class PeltConfig:
    penalty: float = 40.0
    min_segment: int = 2

    def __post_init__(self):
        if self.penalty < 0:
            raise ValueError("penalty must be >= 0")
        if self.min_segment < 1:
            raise ValueError("min_segment must be >= 1")


@dataclass(frozen=True)
class Segmentation:
    """Change points are the first block index of each new segment, strictly
    increasing within (0, n_blocks)."""

    change_points: tuple[int, ...]
    n_blocks: int
    total_cost: float

    @property
    def segments(self) -> list[tuple[int, int]]:
        bounds = (0,) + self.change_points + (self.n_blocks,)
        return list(zip(bounds[:-1], bounds[1:]))


def _as_matrix(features: Union[FeatureSeries, Sequence, np.ndarray]) -> np.ndarray:
    if isinstance(features, FeatureSeries):
        x = features.peaks
    else:
        x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return x


def _prefix_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n, d = x.shape
    s1 = np.zeros((n + 1, d))
    s2 = np.zeros((n + 1, d))
    np.cumsum(x, axis=0, out=s1[1:])
    np.cumsum(x * x, axis=0, out=s2[1:])
    return s1, s2


def _segment_costs(s1: np.ndarray, s2: np.ndarray, starts, ends) -> np.ndarray:
    """L2 costs of the segments [starts, ends), broadcast element-wise: one
    end and a vector of starts, equal-length vectors of starts and ends, or a
    column of ends against a row of starts for a (ends, starts) table. Each
    cost takes the same operations in the same order whatever the shape, so
    it has the same bits. A pair with start >= end is no segment; its entry
    holds a meaningless value (0/0 for start == end, under the caller's
    errstate)."""
    lengths = (ends - starts).astype(np.float64)
    # one column at a time, added in index order: the memory of one column's
    # costs, and the same sum as over the feature axis for d < 8 (module
    # docstring)
    out = None
    for c1, c2 in zip(s1.T, s2.T):
        dsum = c1[ends] - c1[starts]
        c = c2[ends] - c2[starts]
        c -= dsum * dsum / lengths
        if out is None:
            out = c
        else:
            out += c
    return out


def _objectives(s1: np.ndarray, s2: np.ndarray, n: int, cuts, penalties) -> list[float]:
    """Objective value of each segmentation of [0, n), given by its change
    points and penalty, from the prefix sums: its segment costs added in
    order, then its penalties. One _segment_costs call serves them all."""
    starts: list[int] = []
    ends: list[int] = []
    for cps in cuts:
        starts += [0, *cps]
        ends += [*cps, n]
    costs = iter(_segment_costs(s1, s2, np.array(starts), np.array(ends)).tolist())
    out = []
    for cps, penalty in zip(cuts, penalties):
        total = 0.0
        for _ in range(len(cps) + 1):
            total += next(costs)
        out.append(total + penalty * len(cps))
    return out


def _backtrack(prev: np.ndarray, n: int) -> list[int]:
    """Change points of the optimal partition of [0, n) from its back-pointers.
    Each pointer must lie in [0, t); one that does not is a defect of the DP
    that filled prev, and raises instead of looping."""
    cps: list[int] = []
    t = n
    while t > 0:
        s = int(prev[t])
        if not 0 <= s < t:
            raise RuntimeError(f"back-pointer {s} at step {t} is outside [0, {t})")
        if s > 0:
            cps.append(s)
        t = s
    cps.reverse()
    return cps


def pelt_segment(
    features, config: Union[PeltConfig, Sequence[PeltConfig]]
) -> Union[Segmentation, tuple[Segmentation, ...]]:
    """Exact penalized segmentation via PELT.

    Recursion F(t) = min over admissible s of F(s) + C(s, t) + penalty, with
    candidates pruned once F(s) + C(s, t) > F(t). Because segments must be at
    least min_segment blocks, a pruned candidate is only dropped for steps
    past t + min_segment (the dominating split at t is not admissible
    earlier); this keeps the result identical to the unpruned DP.

    config is one PeltConfig, which returns one Segmentation, or a sequence
    of PeltConfigs sharing one min_segment, which returns a tuple of
    Segmentations in the same order. A single config is the one-penalty case
    of the same loop.

    The loop advances _PELT_TILE steps at a time. Per tile, one
    _segment_costs call builds C(s, t) for every step t of the tile and every
    start s that some penalty still holds or that the tile admits, in
    ascending order. Start 0 and starts m..t-m are admissible at step t (m is
    min_segment), so the admissible starts are a prefix of that order. Each
    step then moves all penalties at once as a penalties x starts array: F
    of the admissible starts plus the step's cost row, with the starts past a
    penalty's pruning deadline masked to inf; the first minimum per row (the
    smallest s wins ties) gives F(t) and the back-pointer, and the starts it
    dooms get the deadline t + m unless they have an earlier one. At the end
    of a tile the starts every penalty has dropped are compacted away. Costs
    are computed element by element, so a cost has the same bits whatever
    else the tile holds, and each Segmentation equals the one its config
    gives alone.
    """
    configs = (config,) if isinstance(config, PeltConfig) else tuple(config)
    if not configs:
        raise ValueError("pelt_segment needs at least one config")
    m = configs[0].min_segment
    if any(c.min_segment != m for c in configs):
        found = sorted({c.min_segment for c in configs})
        raise ValueError(f"lockstep configs must share one min_segment, got {found}")
    x = _as_matrix(features)
    n = x.shape[0]
    if n < m:
        raise SeriesTooShort(f"{n} blocks < min_segment {m}")
    s1, s2 = _prefix_sums(x)
    n_pen = len(configs)
    rows = np.arange(n_pen)
    betas = np.array([c.penalty for c in configs], dtype=np.float64)
    f = np.full((n_pen, n + 1), np.inf)
    f[:, 0] = -betas
    prev = np.zeros((n_pen, n + 1), dtype=np.int64)
    # the starts some penalty still holds, ascending, and per penalty the
    # first step at which it drops each of them (never, by default)
    starts = np.zeros(1, dtype=np.int64)
    dead = np.full((n_pen, 1), n + 1, dtype=np.int64)

    for t0 in range(m, n + 1, _PELT_TILE):
        t1 = min(t0 + _PELT_TILE, n + 1)
        steps = np.arange(t0, t1)
        # step t admits start t - m, once that is at least m
        newcomers = np.arange(max(m, t0 - m), t1 - m)
        if newcomers.size:
            starts = np.concatenate((starts, newcomers))
            fresh = np.full((n_pen, newcomers.size), n + 1, dtype=np.int64)
            dead = np.concatenate((dead, fresh), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            costs = _segment_costs(s1, s2, starts, steps[:, None])
        admitted = np.searchsorted(starts, steps - m, side="right").tolist()
        # earliest deadline of any penalty: steps before it need no mask
        first = int(dead.min())
        for t, cost, k in zip(range(t0, t1), costs, admitted):
            held = starts[:k]
            totals = f.take(held, axis=1)
            totals += cost[:k]
            held_dead = dead[:, :k]
            if t >= first:
                totals[held_dead <= t] = np.inf
            best = totals.argmin(axis=1)  # first minimum: smallest s wins ties
            ft = totals[rows, best] + betas
            f[:, t] = ft
            prev[:, t] = held[best]
            # deadlines only grow with t, so the minimum keeps the first one
            doomed = totals > (ft + _PRUNE_SLACK)[:, None]
            if first <= t + m or doomed.any():
                np.minimum(held_dead, t + m, out=held_dead, where=doomed)
                first = min(first, t + m)
        kept = (dead > t1).any(axis=0)
        starts = starts[kept]
        dead = dead[:, kept]

    cuts = [_backtrack(back, n) for back in prev]
    objectives = _objectives(s1, s2, n, cuts, [c.penalty for c in configs])
    out = tuple(
        Segmentation(change_points=tuple(cps), n_blocks=n, total_cost=total)
        for cps, total in zip(cuts, objectives)
    )
    return out[0] if isinstance(config, PeltConfig) else out


def brute_force_segment(features, config: PeltConfig) -> Segmentation:
    """Exact optimal segmentation by full O(n^2) dynamic programming over all
    admissible last-change positions. Exactness oracle for pelt_segment."""
    x = _as_matrix(features)
    n = x.shape[0]
    m = config.min_segment
    beta = config.penalty
    if n < m:
        raise SeriesTooShort(f"{n} blocks < min_segment {m}")
    if n > BRUTE_FORCE_MAX_N:
        raise SeriesTooLong(f"{n} blocks > {BRUTE_FORCE_MAX_N}")
    s1, s2 = _prefix_sums(x)

    f = np.full(n + 1, np.inf)
    f[0] = -beta
    prev = np.zeros(n + 1, dtype=np.int64)
    for t in range(m, n + 1):
        starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.arange(m, t - m + 1, dtype=np.int64))
        )
        totals = f[starts] + _segment_costs(s1, s2, starts, t) + beta
        best = int(np.argmin(totals))
        f[t] = totals[best]
        prev[t] = starts[best]

    cps = _backtrack(prev, n)
    return Segmentation(change_points=tuple(cps), n_blocks=n, total_cost=float(f[n]))


@dataclass(frozen=True)
class KMeansModel:
    k: int
    centroids: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,)
    inertia: float
    seed: int
    iterations_run: int
    inertia_history: tuple[float, ...]


def _kmeanspp_init(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deterministic k-means++ seeding: D^2-weighted draws from a
    counter-based stream keyed on the seed."""
    n = x.shape[0]
    key = rng.stream_key(seed, "kmeans++")
    u = rng.uniforms(key, np.arange(k, dtype=np.uint64))
    first = min(int(u[0] * n), n - 1)
    centroids = [x[first]]
    d2 = ((x - x[first]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(np.searchsorted(np.cumsum(d2), u[j] * total, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = min(int(u[j] * n), n - 1)
        centroids.append(x[idx])
        d2 = np.minimum(d2, ((x - x[idx]) ** 2).sum(axis=1))
    return np.array(centroids)


def kmeans_fit(
    vectors,
    k: int,
    seed: int,
    init: Optional[np.ndarray] = None,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> KMeansModel:
    """Lloyd's algorithm with k-means++ seeding, fully deterministic given
    (vectors, k, seed).

    init, when given, is _kmeanspp_init(vectors, K, seed) for some K >= k,
    and its first k rows are the seeding. Draw j of the seeding depends only
    on the seed and j, never on the number of draws, so those rows equal
    _kmeanspp_init(vectors, k, seed) and one seeding serves every k <= K.

    Assignment ties break toward the lowest centroid index; an empty cluster
    is repaired by re-seeding it on the point farthest from its assigned
    centroid. Iterates until max centroid movement < tol or max_iter.

    For d >= 2 the Lloyd step sums every cluster with one np.add.at into
    +0.0, adding rows in index order: the same additions in the same order
    as each cluster's np.add.reduce(axis=0), which starts from +0.0 too, so
    each centroid equals its cluster's mean(axis=0) bit for bit. numpy sums
    a single column pairwise, so d = 1 keeps one reduce per cluster.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n == 0:
        raise EmptyInput("kmeans_fit needs at least one vector")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise KExceedsN(f"k={k} > n={n}")

    if init is None:
        centroids = _kmeanspp_init(x, k, seed)
    elif len(init) < k:
        raise ValueError(f"init holds {len(init)} centroids, k={k}")
    else:
        centroids = init[:k]
    labels = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        if not counts.all():
            assigned = d2[np.arange(n), labels]
            for j in range(k):
                if not (labels == j).any():
                    p = int(assigned.argmax())
                    labels[p] = j
                    assigned[p] = -1.0
            counts = np.bincount(labels, minlength=k)
        # each row is x[labels == j].mean(axis=0) bit for bit: mean is the
        # same sum followed by a division by the count
        if d > 1:
            new_centroids = np.zeros((k, d))
            np.add.at(new_centroids, labels, x)
        else:
            new_centroids = np.empty((k, d))
            for j in range(k):
                np.add.reduce(x[labels == j], axis=0, out=new_centroids[j])
        new_centroids /= counts[:, None]
        movement = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        history.append(float(((x - centroids[labels]) ** 2).sum()))
        if movement < tol:
            break

    # settle labels against the converged centroids
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    history.append(inertia)
    return KMeansModel(
        k=k,
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        seed=seed,
        iterations_run=iterations,
        inertia_history=tuple(history),
    )


def kmeans_assign(model: KMeansModel, vector) -> int:
    """Index of the nearest centroid (squared Euclidean, ties to lowest)."""
    v = np.asarray(vector, dtype=np.float64)
    if v.shape != (model.centroids.shape[1],):
        raise DimensionMismatch(
            f"vector shape {v.shape} vs centroid dim {model.centroids.shape[1]}"
        )
    return int(((model.centroids - v) ** 2).sum(axis=1).argmin())


class _Labeling:
    """One labeling's clusters for silhouette_score: member indices and sizes
    per cluster, each point's cluster index, and the per-point scores."""

    __slots__ = ("inverse", "members", "sizes", "scores")

    def __init__(self, inverse: np.ndarray, n_clusters: int):
        self.inverse = inverse
        self.members = [np.flatnonzero(inverse == j) for j in range(n_clusters)]
        self.sizes = np.array([m.size for m in self.members])
        self.scores = np.zeros(inverse.size)

    def score_rows(self, lo: int, hi: int, dist: np.ndarray) -> None:
        """Scores of points lo..hi-1 from their distance rows."""
        rows = np.arange(hi - lo)
        own = self.inverse[lo:hi]
        sizes = self.sizes
        sums = np.stack([dist.take(m, axis=1).sum(axis=1) for m in self.members], axis=1)
        # a singleton's a_i is never used (s_i = 0); dividing by 1 avoids 0/0
        a = sums[rows, own] / np.maximum(sizes[own] - 1, 1)
        means = sums / sizes
        means[rows, own] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        block = np.divide(b - a, denom, out=np.zeros(hi - lo), where=denom > 0)
        block[sizes[own] == 1] = 0.0
        self.scores[lo:hi] = block


def silhouette_score(vectors, labels) -> Union[float, tuple[float, ...]]:
    """Mean silhouette in [-1, 1] (Rousseeuw 1987).

    s_i = (b_i - a_i) / max(a_i, b_i) with a_i the mean intra-cluster
    distance and b_i the lowest mean distance to another cluster; singleton
    clusters score 0, as does a degenerate single-cluster labeling.

    labels of shape (n,) returns one float; labels of shape (m, n), m
    labelings of the same points, returns a tuple of m floats. The distance
    matrix is built _SILHOUETTE_ROWS rows at a time and each block serves
    every labeling, so memory is O(rows * n) plus one n-vector per labeling
    rather than O(n^2), and the rows are built once however many labelings
    there are. Squared distances are accumulated one feature column at a time
    in index order, equal to summing over the feature axis for d < 8 (see the
    module docstring). Each per-cluster row sum is taken over a contiguous
    copy of the members' distances in index order, the same reduction as
    summing one row's masked entries, so each score is bit-identical to a
    per-point loop over the full matrix, and to its labeling scored alone:
    it reads the same distance values.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < 2:
        raise TooFewPoints("silhouette needs at least 2 points")
    lab = np.asarray(labels)
    if lab.shape[-1] != n:
        raise LengthMismatch(f"{lab.shape[-1]} labels for {n} points")
    labelings: list[Optional[_Labeling]] = []
    for row in lab if lab.ndim > 1 else (lab,):
        clusters, inverse = np.unique(row, return_inverse=True)
        labelings.append(None if clusters.size == 1 else _Labeling(inverse, clusters.size))
    scored = [lb for lb in labelings if lb is not None]

    if scored:
        cols = [np.ascontiguousarray(x[:, j]) for j in range(x.shape[1])]
        for lo in range(0, n, _SILHOUETTE_ROWS):
            hi = min(lo + _SILHOUETTE_ROWS, n)
            dist = x[lo:hi, 0, None] - cols[0]
            dist *= dist
            for j in range(1, len(cols)):
                d = x[lo:hi, j, None] - cols[j]
                d *= d
                dist += d
            np.sqrt(dist, out=dist)
            for lb in scored:
                lb.score_rows(lo, hi, dist)
    out = tuple(0.0 if lb is None else float(lb.scores.mean()) for lb in labelings)
    return out if lab.ndim > 1 else out[0]


@dataclass(frozen=True)
class SegmentSummary:
    segment_index: int
    block_range: tuple[int, int]
    cluster_label: int
    mean: tuple[float, ...]
    peak: tuple[float, ...]
    duration_blocks: int


def _block_labels(labels, n: int) -> np.ndarray:
    lab = np.asarray(labels, dtype=np.int64)
    if lab.shape[0] != n:
        raise LengthMismatch(f"{lab.shape[0]} labels for {n} blocks")
    return lab


def segment_stats(features, seg: Segmentation) -> list[tuple]:
    """The part of segment_features that depends only on the segmentation:
    per segment, its block range (a, b) with the tuples of its per-axis mean
    and max."""
    x = _as_matrix(features)
    if seg.n_blocks != x.shape[0]:
        raise LengthMismatch(f"segmentation over {seg.n_blocks} != {x.shape[0]} blocks")
    out = []
    for a, b in seg.segments:
        block = x[a:b]
        out.append(((a, b), tuple(block.mean(axis=0).tolist()), tuple(block.max(axis=0).tolist())))
    return out


def label_segments(stats: Sequence[tuple], labels) -> list[SegmentSummary]:
    """The part of segment_features that depends on the labelling: each
    segment of segment_stats' output with its majority block label (ties to
    the lowest label)."""
    lab = _block_labels(labels, stats[-1][0][1])
    return [
        SegmentSummary(
            segment_index=i,
            block_range=(a, b),
            cluster_label=int(np.bincount(lab[a:b]).argmax()),
            mean=mean,
            peak=peak,
            duration_blocks=b - a,
        )
        for i, ((a, b), mean, peak) in enumerate(stats)
    ]


def segment_features(features, seg: Segmentation, labels) -> list[SegmentSummary]:
    """Per-segment statistics: per-axis mean and max, duration, and the
    majority block label (ties to the lowest label). The composition of
    segment_stats, computed once per segmentation, and label_segments, once
    per labelling."""
    x = _as_matrix(features)
    lab = _block_labels(labels, x.shape[0])
    return label_segments(segment_stats(x, seg), lab)
