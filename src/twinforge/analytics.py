"""Change-point detection (exact PELT plus a brute-force DP oracle), seeded
K-means, silhouette scoring, and segment-statistics extraction.

Cost model is multivariate L2: sum over dimensions of within-segment squared
deviation from the segment mean. The objective minimized is
sum(segment costs) + penalty * (number of change points). Everything here is
a pure function, and every floating-point reduction has a fixed order, so
results are identical across runs.

The long-window kernels, the PELT segment costs and the k-means and
silhouette distances, reduce over the feature axis one column at a time in
index order: out = c[:, 0], then out += c[:, 1], and so on. numpy sums an
axis shorter than 8 sequentially from index 0, so for the runtime's 3-axis
features (and any d <= 7) this equals .sum(axis=-1) bit for bit. From d = 8 numpy unrolls
its sum eight ways and the two orders can differ in the last ulp; results
stay deterministic, silhouette stays within 1e-9 of the naive definition, and
PELT still equals brute_force_segment, which shares _segment_costs.

pelt_segment runs every penalty in lockstep and advances one tile of
_PELT_TILE steps at a time: one _segment_costs pass per tile builds the costs
of every live start at every step of the tile, and each step then moves all
penalties as one penalties x starts array. A step only takes the DP minimum,
eight numpy calls whatever the number of penalties, which is what a live
window of 20 to 40 blocks pays for; the pruning runs once per tile.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
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


def check_penalty(penalty) -> None:
    """Raise ValueError unless penalty is a finite number >= 0."""
    if type(penalty) is bool:  # True would run as 1 under another version digest
        raise ValueError(f"penalty must be a number, got {penalty!r}")
    if penalty < 0:
        raise ValueError("penalty must be >= 0")
    if not penalty <= sys.float_info.max:  # nan, inf or an int no float holds
        raise ValueError(f"penalty must be finite, got {penalty!r}")


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
    features, penalties: Sequence[float], min_segment: int = 2
) -> tuple[Segmentation, ...]:
    """Exact penalized segmentation via PELT.

    Recursion F(t) = min over admissible s of F(s) + C(s, t) + penalty, with
    candidates pruned once F(s) + C(s, t) > F(t). Because segments must be at
    least min_segment blocks, a pruned candidate is only dropped for steps
    past t + min_segment (the dominating split at t is not admissible
    earlier); this keeps the result identical to the unpruned DP.

    Returns one Segmentation per penalty, in order; every penalty runs in
    the same loop.

    The loop advances _PELT_TILE steps at a time. Per tile, one
    _segment_costs call builds C(s, t) for every step t of the tile and every
    start s that some penalty still holds or that the tile admits, in
    ascending order. Start 0 and starts m..t-m are admissible at step t (m is
    min_segment), so the admissible starts are a prefix of that order. Each
    step then moves all penalties at once as a penalties x starts array: F
    of the admissible starts plus the step's cost row, whose first minimum
    per row (the smallest s wins ties) gives F(t) and the back-pointer. A
    penalties x steps x starts pass at the end of the tile gives each start
    the deadline t + m for its first step t with F(s) + C(s, t) > F(t) +
    _PRUNE_SLACK, and compacts away the starts every penalty has dropped;
    unmasked until then, such a start trails start t by more than the slack
    from t + m on, so it is never a first minimum. Costs are computed element
    by element, so a cost has the same bits whatever else the tile holds, and
    each Segmentation equals the one its penalty gives alone.
    """
    if not penalties:
        raise ValueError("pelt_segment needs at least one penalty")
    for penalty in penalties:
        check_penalty(penalty)
    if min_segment < 1:
        raise ValueError("min_segment must be >= 1")
    m = min_segment
    x = _as_matrix(features)
    n = x.shape[0]
    if n < m:
        raise SeriesTooShort(f"{n} blocks < min_segment {m}")
    s1, s2 = _prefix_sums(x)
    n_pen = len(penalties)
    rows = np.arange(n_pen)
    betas = np.array(penalties, dtype=np.float64)
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
        starts = np.concatenate((starts, newcomers))
        dead = np.concatenate((dead, np.full((n_pen, newcomers.size), n + 1)), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            costs = _segment_costs(s1, s2, starts, steps[:, None])
        admitted = np.searchsorted(starts, steps - m, side="right")
        for t, cost, k in zip(range(t0, t1), costs, admitted.tolist()):
            held = starts[:k]
            totals = f.take(held, axis=1)
            totals += cost[:k]
            best = totals.argmin(axis=1)  # first minimum: smallest s wins ties
            f[:, t] = totals[rows, best] + betas
            prev[:, t] = held[best]
        # an inadmissible (step, start) pair holds a meaningless cost, so it
        # is masked out after the comparison
        totals = f[:, starts][:, None, :] + costs
        doomed = totals > f[:, t0:t1, None] + _PRUNE_SLACK
        doomed &= np.arange(starts.size) < admitted[:, None]
        # deadlines only grow with t, so the minimum keeps the first one
        np.minimum(dead, t0 + doomed.argmax(axis=1) + m, out=dead, where=doomed.any(axis=1))
        kept = (dead > t1).any(axis=0)
        starts = starts[kept]
        dead = dead[:, kept]

    cuts = [_backtrack(back, n) for back in prev]
    objectives = _objectives(s1, s2, n, cuts, penalties)
    return tuple(
        Segmentation(change_points=tuple(cps), n_blocks=n, total_cost=total)
        for cps, total in zip(cuts, objectives)
    )


def brute_force_segment(features, penalty: float, min_segment: int = 2) -> Segmentation:
    """Exact optimal segmentation by full O(n^2) dynamic programming over all
    admissible last-change positions. Exactness oracle for pelt_segment."""
    check_penalty(penalty)
    if min_segment < 1:
        raise ValueError("min_segment must be >= 1")
    x = _as_matrix(features)
    n = x.shape[0]
    m = min_segment
    if n < m:
        raise SeriesTooShort(f"{n} blocks < min_segment {m}")
    if n > BRUTE_FORCE_MAX_N:
        raise SeriesTooLong(f"{n} blocks > {BRUTE_FORCE_MAX_N}")
    s1, s2 = _prefix_sums(x)

    f = np.full(n + 1, np.inf)
    f[0] = -penalty
    prev = np.zeros(n + 1, dtype=np.int64)
    for t in range(m, n + 1):
        starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.arange(m, t - m + 1, dtype=np.int64))
        )
        totals = f[starts] + _segment_costs(s1, s2, starts, t) + penalty
        best = int(np.argmin(totals))
        f[t] = totals[best]
        prev[t] = starts[best]

    cps = _backtrack(prev, n)
    return Segmentation(change_points=tuple(cps), n_blocks=n, total_cost=float(f[n]))


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,)
    inertia: float
    iterations_run: int


# the k-means++ stream key of a seed, derived once per seed
_kmeanspp_key = lru_cache(maxsize=16)(lambda seed: rng.stream_key(seed, "kmeans++"))


def _sq_dists(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, added one feature column at a time in index
    order: the sum over the feature axis for d < 8 (module docstring)."""
    d2 = np.zeros((len(x), len(centroids)))
    for xj, cj in zip(x.T, centroids.T):
        diff = xj[:, None] - cj
        diff *= diff
        d2 += diff
    return d2


def _kmeanspp_init(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deterministic k-means++ seeding: D^2-weighted draws from a
    counter-based stream keyed on the seed."""
    n = x.shape[0]
    key = _kmeanspp_key(seed)
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
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = _sq_dists(x, centroids)
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
        if movement < tol:
            break

    # settle labels against the converged centroids
    d2 = _sq_dists(x, centroids)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return KMeansModel(
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        iterations_run=iterations,
    )


def kmeans_assign(model: KMeansModel, vector) -> int:
    """Index of the nearest centroid (squared Euclidean, ties to lowest)."""
    v = np.asarray(vector, dtype=np.float64)
    if v.shape != (model.centroids.shape[1],):
        raise DimensionMismatch(
            f"vector shape {v.shape} vs centroid dim {model.centroids.shape[1]}"
        )
    return int(((model.centroids - v) ** 2).sum(axis=1).argmin())


def silhouette_score(vectors, labels) -> Union[float, tuple[float, ...]]:
    """Mean silhouette in [-1, 1] (Rousseeuw 1987).

    s_i = (b_i - a_i) / max(a_i, b_i) with a_i the mean intra-cluster
    distance and b_i the lowest mean distance to another cluster; singleton
    clusters score 0, as does a degenerate single-cluster labeling.

    labels of shape (n,) returns one float; labels of shape (m, n), m
    labelings of the same points, returns a tuple of m floats. The distance
    matrix is built _SILHOUETTE_ROWS rows at a time and each block serves
    every labeling, so memory is O(rows * n) plus a few n-vectors per
    labeling rather than O(n^2), and the rows are built once however many
    labelings there are; a, b and s of every labeling come from one
    labelings x rows x clusters array of row sums. Squared distances are
    accumulated one feature column at a time in index order, equal to
    summing over the feature axis for d < 8 (see the module docstring). Each
    per-cluster row sum is taken over a contiguous copy of the members'
    distances in index order, the same reduction as summing one row's masked
    entries, so each score is bit-identical to a per-point loop over the full
    matrix, and to its labeling scored alone, from the same distances.
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
    # per labeling, each point's cluster index 0..k-1 and the cluster sizes;
    # labels that are 0..k-1 with every cluster present are their own index
    rows = lab if lab.ndim > 1 else lab[None]
    dense = rows.dtype.kind == "i" and rows.size > 0 and rows.min() >= 0 and rows.max() < n
    clusters = []
    for row in rows:
        sizes = np.bincount(row) if dense else None
        if sizes is None or not sizes.all():
            row = np.unique(row, return_inverse=True)[1]
            sizes = np.bincount(row)
        clusters.append((row, sizes))
    scored = [c for c in clusters if c[1].size > 1]  # one cluster scores 0
    k = max((sizes.size for _, sizes in scored), default=0)
    own = np.empty((len(scored), n), dtype=np.intp)
    size = np.ones((len(scored), k), dtype=np.int64)  # any nonzero for a missing cluster
    members = []  # (labeling, cluster, its member indices in index order)
    for l, (row, sizes) in enumerate(scored):
        own[l], size[l, : sizes.size] = row, sizes
        order, ends = row.argsort(kind="stable"), np.cumsum(sizes).tolist()
        members += [(l, j, order[a:b]) for j, (a, b) in enumerate(zip([0, *ends], ends))]
    at_labeling, at_row = np.arange(len(scored))[:, None], np.arange(_SILHOUETTE_ROWS)
    own_size = size[at_labeling, own]
    own_peers = np.maximum(own_size - 1, 1)  # a singleton's a_i is unused: 1 avoids 0/0
    scores = np.zeros((len(scored), n))
    cols = [np.ascontiguousarray(x[:, j]) for j in range(x.shape[1])]
    for lo in range(0, n if scored else 0, _SILHOUETTE_ROWS):
        hi = min(lo + _SILHOUETTE_ROWS, n)
        dist = x[lo:hi, 0, None] - cols[0]
        dist *= dist
        for j in range(1, len(cols)):
            d = x[lo:hi, j, None] - cols[j]
            d *= d
            dist += d
        np.sqrt(dist, out=dist)
        # (labeling, row, cluster) sums, inf for a cluster the labeling lacks
        sums = np.full((len(scored), hi - lo, k), np.inf)
        for l, j, idx in members:
            sums[l, :, j] = dist.take(idx, axis=1).sum(axis=1)
        own_sum = at_labeling, at_row[: hi - lo], own[:, lo:hi]
        a = sums[own_sum] / own_peers[:, lo:hi]
        means = sums / size[:, None, :]
        means[own_sum] = np.inf
        b = means.min(axis=2)
        denom = np.maximum(a, b)
        block = np.divide(b - a, denom, out=np.zeros_like(a), where=denom > 0)
        block[own_size[:, lo:hi] == 1] = 0.0
        scores[:, lo:hi] = block
    # each row's mean is the same pairwise sum as the row's alone
    score_of = iter(scores.mean(axis=1).tolist())
    out = tuple(next(score_of) if sizes.size > 1 else 0.0 for _, sizes in clusters)
    return out if lab.ndim > 1 else out[0]


def segment_stats(features, seg: Segmentation) -> list[tuple]:
    """Per segment of seg, its block range (a, b) with the tuples of its
    per-axis mean and max: everything of a segment's record but its label."""
    x = _as_matrix(features)
    if seg.n_blocks != x.shape[0]:
        raise LengthMismatch(f"segmentation over {seg.n_blocks} != {x.shape[0]} blocks")
    out = []
    for a, b in seg.segments:
        block = x[a:b]
        out.append(((a, b), tuple(block.mean(axis=0).tolist()), tuple(block.max(axis=0).tolist())))
    return out
