"""Change-point detection (exact PELT), seeded K-means and silhouette
scoring.

Cost model is multivariate L2: sum over dimensions of within-segment squared
deviation from the segment mean. The objective minimized is
sum(segment costs) + penalty * (number of change points). Everything here is
a pure function, and every floating-point reduction has a fixed order, so
results are identical across runs. The stages take plain arrays and the
values a sweep varies, no settings; kmeans_fit takes its seeding. Every stage
reads its points through _as_matrix, which refuses a point it could not
square (FeatureOutOfRange), whoever the caller is.

The long-window kernels, PELT's _segment_costs and _sq_dists, the one
squared-distance table (Lloyd's loop, the k-means++ draws and silhouette read
it), reduce over the feature axis one column at a time in index order:
out = c[:, 0], then out += c[:, 1], and so on. numpy sums an axis shorter
than 8 sequentially from index 0, so for d <= 7 (the runtime has 3) this
equals .sum(axis=-1) bit for bit. A small _sq_dists table with d <= 7 is one
broadcast of (d, n, m) squares summed over axis 0: numpy adds a contiguous
array's outermost axis row after row, and should that axis be the only one
left (a one-entry table), d <= 7 still sums it in order. From d = 8 numpy
unrolls its sum eight ways and the orders can differ in the last ulp;
results stay deterministic, silhouette stays within 1e-9 of the naive
definition, and PELT still equals the tests' brute-force DP oracle, which
shares _segment_costs. The one other feature-axis .sum, k-means' movement
test, decides only convergence.

pelt_segment runs every penalty in lockstep. A window of at most two tiles
(2 * _PELT_TILE blocks), every live window of 20 to 40 blocks, is one
min-plus fixpoint over its whole cost table: a round is a few numpy calls
whatever the number of penalties, and the live windows take two or three
rounds, where the tiled loop pays eight calls for each of their 19 to 39
steps. A longer window
advances one tile of _PELT_TILE steps at a time: one _segment_costs pass
per tile builds the costs of every held start at every step of the tile,
each step moves all penalties as one penalties x starts array, and the
pruning runs once per tile, so a batch window pays only for the starts it
still holds, where a fixpoint round pays for its whole quadratic table.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import rng
from .errors import (
    EmptyInput,
    FeatureOutOfRange,
    KExceedsN,
    LengthMismatch,
    SeriesTooShort,
    TooFewPoints,
    shown,
)

# The stages square coordinates unscaled. Below 2**_FEATURE_EXP every square
# is below 2**960, so PELT's squared segment sums (under n**2 * 2**960 over n
# blocks), k-means' and silhouette's squared distances over d columns (under
# 4 * d * 2**960) and their sums over n blocks stay below the largest float64,
# about 2**1024, for every window of fewer than 2**31 blocks and d <= 7.
_FEATURE_EXP = 480
_FEATURE_BOUND = math.ldexp(1.0, _FEATURE_EXP)

# Rows of the distance matrix silhouette_score holds at once.
_SILHOUETTE_ROWS = 64

# Entries of a _sq_dists table built per slice, so that a column's squares
# take scratch of one cached slice, not of a whole silhouette block.
_SQ_DISTS_SLICE = 4096

# Steps pelt_segment advances per tile, sharing one segment-cost pass.
_PELT_TILE = 32

# Blocks per segment at least: a one-block segment costs 0 whatever the block.
_MIN_SEGMENT = 2

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
        raise ValueError(f"penalty must be finite, got {shown(penalty)}")


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


def _as_matrix(points) -> np.ndarray:
    """points as float64 rows, a 1-D series as one column; FeatureOutOfRange
    unless every coordinate is finite and below _FEATURE_BOUND in magnitude."""
    x = np.asarray(points, dtype=np.float64)
    peak = float(np.abs(x).max(initial=0.0))  # the largest |coordinate|, nan if any is
    if not peak < _FEATURE_BOUND:  # nan and inf too
        raise FeatureOutOfRange(
            f"points must be finite and below 2**{_FEATURE_EXP}, got {peak:.3g}"
        )
    return x[:, None] if x.ndim == 1 else x


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


def pelt_segment(features, penalties: Sequence[float]) -> tuple[Segmentation, ...]:
    """Exact penalized segmentation via PELT.

    Recursion F(t) = min over admissible s of F(s) + C(s, t) + penalty, with
    candidates pruned once F(s) + C(s, t) > F(t). Because segments must be at
    least _MIN_SEGMENT (2) blocks, a pruned candidate is only dropped for
    steps past t + _MIN_SEGMENT (the dominating split at t is not admissible
    earlier); this keeps the result identical to the unpruned DP.

    Returns one Segmentation per penalty, in order; every penalty runs in
    the same pass. A window of at most two tiles
    (2 * _PELT_TILE blocks) is solved as one min-plus fixpoint
    (_pelt_fixpoint), a longer one tile by tile (_pelt_tiles); both give
    every penalty the back-pointers of the sequential DP, and each
    Segmentation equals the one its penalty gives alone.
    """
    if not penalties:
        raise ValueError("pelt_segment needs at least one penalty")
    for penalty in penalties:
        check_penalty(penalty)
    m = _MIN_SEGMENT
    x = _as_matrix(features)
    n = x.shape[0]
    if n < m:
        raise SeriesTooShort(f"{n} blocks < min_segment {m}")
    s1, s2 = _prefix_sums(x)
    betas = np.array(penalties, dtype=np.float64)
    solve = _pelt_fixpoint if n <= 2 * _PELT_TILE else _pelt_tiles
    cuts = [_backtrack(back, n) for back in solve(s1, s2, betas)]
    objectives = _objectives(s1, s2, n, cuts, penalties)
    return tuple(
        Segmentation(change_points=tuple(cps), n_blocks=n, total_cost=total)
        for cps, total in zip(cuts, objectives)
    )


def _pelt_fixpoint(s1: np.ndarray, s2: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Back-pointers (penalties, n + 1) of the DP over [0, n), solved as one
    min-plus fixpoint over the whole (ends x starts) cost table.

    Start 0 and starts m..t-m are admissible at step t (m is _MIN_SEGMENT);
    one _segment_costs call builds C(s, t) for every step and every such
    start, the rest +inf. F starts at F(0) = -penalty and +inf elsewhere,
    and each round sets every F(t) at once to the minimum over s of
    F(s) + C(s, t), plus the penalty. F(t) is final once F of every start
    before it is, so F stops changing after at most (n - m) // m + 1 rounds;
    the live windows take 2 or 3. At the fixpoint every total is the IEEE
    sum the sequential DP forms, and one first-minimum argmin (the smallest
    s wins ties) gives its back-pointers: a start the pruned DP drops
    trails by more than _PRUNE_SLACK, so it is never a first minimum."""
    m = _MIN_SEGMENT
    n = len(s1) - 1
    starts = np.concatenate(([0], np.arange(m, n - m + 1)))
    ends = np.arange(m, n + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        costs = _segment_costs(s1, s2, starts, ends)
    costs[starts > ends - m] = np.inf
    # F at the starts: F(0), then F(m..n-m), the first ends' minima
    f = np.full((betas.size, starts.size), np.inf)
    f[:, 0] = -betas
    for _ in range((n - m) // m + 1):
        totals = f[:, None, :] + costs
        reached = totals.min(axis=2)
        reached += betas[:, None]
        if np.array_equal(reached[:, : starts.size - 1], f[:, 1:]):
            break
        f[:, 1:] = reached[:, : starts.size - 1]
    else:
        raise RuntimeError(f"PELT fixpoint over {n} blocks did not converge")
    prev = np.zeros((betas.size, n + 1), dtype=np.int64)
    prev[:, m:] = starts[totals.argmin(axis=2)]
    return prev


def _pelt_tiles(s1: np.ndarray, s2: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Back-pointers (penalties, n + 1) of the DP over [0, n), advancing
    _PELT_TILE steps at a time.

    Per tile, one _segment_costs call builds C(s, t) for every step t of the
    tile and every start s that some penalty still holds or that the tile
    admits, in ascending order. Start 0 and starts m..t-m are admissible at
    step t (m is _MIN_SEGMENT), so the admissible starts are a prefix of
    that order. Each step then moves all penalties at once as a penalties x
    starts array: F of the admissible starts plus the step's cost row, whose
    first minimum per row (the smallest s wins ties) gives F(t) and the
    back-pointer. A penalties x steps x starts pass at the end of the tile
    gives each start the deadline t + m for its first step t with
    F(s) + C(s, t) > F(t) + _PRUNE_SLACK, and compacts away the starts every
    penalty has dropped; unmasked until then, such a start trails start t by
    more than the slack from t + m on, so it is never a first minimum. Costs
    are computed element by element, so a cost has the same bits whatever
    else the tile holds."""
    m = _MIN_SEGMENT
    n = len(s1) - 1
    n_pen = betas.size
    rows = np.arange(n_pen)
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
    return prev


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,)
    iterations_run: int


# Lloyd's loop stops after _KMEANS_MAX_ITER iterations, bounding a fit's
# cost, or once no centroid moves _KMEANS_TOL or more in an iteration.
_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-9

# the k-means++ stream key of a seed, derived once per seed
_kmeanspp_key = lru_cache(maxsize=16)(lambda seed: rng.stream_key(seed, "kmeans++"))


def _sq_dists(x: np.ndarray, others: np.ndarray) -> np.ndarray:
    """(len(x), len(others)) squared distances in column order (module
    docstring); with no feature columns every point coincides at 0.

    A table of at most _SQ_DISTS_SLICE entries with d < 8 columns is one
    broadcast: the (d, n, m) squares of every column, contiguous, summed
    over axis 0, which adds column after column in index order (module
    docstring). A larger or wider table is built slice by slice, a column
    at a time. An entry depends only on its own row and column, so both
    give it the same bits."""
    n, (m, d) = len(x), others.shape
    if n * m <= _SQ_DISTS_SLICE and d < 8:
        diffs = np.ascontiguousarray(x.T)[:, :, None] - np.ascontiguousarray(others.T)[:, None, :]
        np.square(diffs, out=diffs)
        return diffs.sum(axis=0)
    if not d:
        return np.zeros((n, m))
    cols = np.ascontiguousarray(others.T)
    d2 = np.empty((n, m))
    step = max(1, _SQ_DISTS_SLICE // m)
    for lo in range(0, n, step):
        part, rows = d2[lo : lo + step], x[lo : lo + step]
        np.square(rows[:, 0, None] - cols[0], out=part)
        for j in range(1, d):
            part += np.square(rows[:, j, None] - cols[j])
    return d2


def _check_k(k, n: int, stage: str) -> None:
    """Raise unless there is a vector and k, an int or a numpy int, is >= 1."""
    if n == 0:
        raise EmptyInput(f"{stage} needs at least one vector")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):  # True runs as 1
        raise ValueError(f"k must be an integer, got {shown(k)}")
    if k < 1:
        raise ValueError("k must be >= 1")


def kmeanspp_init(vectors, k: int, seed: int) -> np.ndarray:
    """Deterministic k-means++ seeding of k centroids: D^2-weighted draws
    from a counter-based stream, draw j keyed on the seed and j alone, a seed
    in [0, 2**64) as the stream keys on it modulo 2**64 (rng.check_seed)."""
    x = _as_matrix(vectors)
    n = x.shape[0]
    _check_k(k, n, "kmeanspp_init")
    rng.check_seed(seed)
    key = _kmeanspp_key(seed)
    u = rng.uniforms(key, np.arange(k, dtype=np.uint64))
    first = min(int(u[0] * n), n - 1)
    centroids = [x[first]]
    d2 = _sq_dists(x, x[first, None])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(np.searchsorted(np.cumsum(d2), u[j] * total, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = min(int(u[j] * n), n - 1)
        centroids.append(x[idx])
        d2 = np.minimum(d2, _sq_dists(x, x[idx, None])[:, 0])
    return np.array(centroids)


def kmeans_fit(vectors, k: int, init: np.ndarray) -> KMeansModel:
    """Lloyd's loop from a seeding, deterministic given (vectors, k, init).

    It reads init through the same input door as the vectors and starts
    from its first k rows, each as wide as a vector; a k past the number of
    vectors raises KExceedsN before init is read. kmeanspp_init's draw j
    depends only on the seed and j, so one seeding for the largest K serves
    every k <= K.

    Assignment ties break toward the lowest centroid index; in index order,
    an empty cluster j takes the point farthest from its assigned centroid
    whose cluster keeps another member or comes after j, so none stays
    empty. Iterates until max centroid movement < 1e-9 or 100 iterations,
    then settles the labels against the last centroids, unrepaired.

    An iteration whose repaired labels equal the labels its centroids are
    the means of returns at once: equal labels give equal sums, so no
    centroid would move, and its nearest-centroid labels are what the settle
    pass would give. The model is the one the full loop returns, with the
    same iterations_run; the movement test still ends the loop when the
    labels changed.

    For d >= 2 the Lloyd step sums every cluster with one np.add.at into
    +0.0, adding rows in index order: the same additions in the same order
    as each cluster's np.add.reduce(axis=0), which starts from +0.0 too, so
    each centroid equals its cluster's mean(axis=0) bit for bit. numpy sums
    a single column pairwise, so d = 1 keeps one reduce per cluster.
    """
    x = _as_matrix(vectors)
    n, d = x.shape
    _check_k(k, n, "kmeans_fit")
    if k > n:
        raise KExceedsN(f"k={shown(k, str)} > n={n}")
    init = _as_matrix(init)
    if len(init) < k:
        raise ValueError(f"init holds {len(init)} centroids, k={k}")
    centroids = init[:k]
    if centroids.shape != (k, d):
        raise ValueError(f"init rows have shape {centroids.shape[1:]}, points have ({d},)")
    means_of = None  # the labels the centroids are the means of
    for iterations in range(1, _KMEANS_MAX_ITER + 1):
        d2 = _sq_dists(x, centroids)
        nearest = d2.argmin(axis=1)
        labels, counts = nearest, np.bincount(nearest, minlength=k)
        if not counts.all():
            labels, assigned = nearest.copy(), d2[np.arange(n), nearest]
            for j in range(k):
                if counts[j] == 0:
                    ok = (counts[labels] > 1) | (labels > j)
                    p = int(np.where(ok, assigned, -np.inf).argmax())
                    counts[labels[p]] -= 1
                    counts[j] += 1
                    labels[p] = j
        if means_of is not None and np.array_equal(labels, means_of):
            # the means of these labels are the centroids, so none would
            # move, and the nearest labels are the settled ones
            return KMeansModel(centroids=centroids, labels=nearest, iterations_run=iterations)
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
        centroids, means_of = new_centroids, labels
        if movement < _KMEANS_TOL:
            break

    # settle labels against the converged centroids
    labels = _sq_dists(x, centroids).argmin(axis=1)
    return KMeansModel(centroids=centroids, labels=labels, iterations_run=iterations)


def silhouette_score(vectors, labelings) -> tuple[float, ...]:
    """Mean silhouette in [-1, 1] (Rousseeuw 1987) of each labeling.

    s_i = (b_i - a_i) / max(a_i, b_i) with a_i the mean intra-cluster
    distance and b_i the lowest mean distance to another cluster; singleton
    clusters score 0, as does a degenerate single-cluster labeling.

    labelings of shape (m, n), m labelings of the same n points, returns a
    tuple of m floats; an array of any other shape raises ValueError. The
    distance matrix is built _SILHOUETTE_ROWS rows at a time and each block
    serves every labeling, so memory is O(rows * n) plus a few n-vectors per
    labeling rather than O(n^2), and the rows are built once however many
    labelings there are; a, b and s of every labeling come from one
    labelings x rows x clusters array of row sums. A block's distances are
    the square roots of its _sq_dists table against every point. Each
    per-cluster row sum is taken over a contiguous copy of the members'
    distances in index order, the same reduction as summing one row's masked
    entries, so each score is bit-identical to a per-point loop over the full
    matrix, and to its labeling scored alone, from the same distances.
    """
    x = _as_matrix(vectors)
    n = x.shape[0]
    if n < 2:
        raise TooFewPoints("silhouette needs at least 2 points")
    rows = np.asarray(labelings)
    if rows.ndim != 2:
        raise ValueError(f"labelings must be a (labelings, n) array, got shape {rows.shape}")
    if rows.shape[1] != n:
        raise LengthMismatch(f"{rows.shape[1]} labels for {n} points")
    # per labeling, each point's cluster index 0..k-1 and the cluster sizes;
    # labels that are 0..k-1 with every cluster present are their own index
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
    for lo in range(0, n if scored else 0, _SILHOUETTE_ROWS):
        hi = min(lo + _SILHOUETTE_ROWS, n)
        dist = _sq_dists(x[lo:hi], x)
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
    return tuple(next(score_of) if sizes.size > 1 else 0.0 for _, sizes in clusters)

