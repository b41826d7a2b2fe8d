"""Independent oracles shared by the unit and acceptance suites. These stay
deliberately naive: literal definitions, no shortcuts from the library code."""
import json
import math
from typing import Iterable

import numpy as np

import twinforge.rng as rng
from twinforge.analytics import (
    _MIN_SEGMENT,
    KMeansModel,
    Segmentation,
    _as_matrix,
    _backtrack,
    _prefix_sums,
    _segment_costs,
    check_penalty,
    kmeans_fit,
    kmeanspp_init,
    pelt_segment,
    silhouette_score,
)
from twinforge.errors import (
    AxisLengthMismatch,
    EmptyInput,
    KExceedsN,
    LengthMismatch,
    MalformedLine,
    SeriesTooShort,
    TooFewPoints,
)
from twinforge.orchestrator import _REPLICAS, ReplicaResult
from twinforge.readiness import run_readiness
from twinforge.wire import ACCEL_CHANNELS, Channel, Quality, TelemetrySample

_KEYS = {"asset", "ch", "ts", "v", "q"}


def reference_decode_sample(line: str) -> TelemetrySample:
    """The library's original decode_sample, kept verbatim: json.loads,
    enum calls and isinstance checks. wire.decode_sample must accept the same
    lines, return equal samples and raise MalformedLine with the same text,
    except where a defect once escaped as another exception."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLine(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != _KEYS:
        raise MalformedLine(f"wrong key set in {line!r}")
    asset, ch, ts, v, q = obj["asset"], obj["ch"], obj["ts"], obj["v"], obj["q"]
    if not isinstance(asset, str):
        raise MalformedLine("asset must be a string")
    try:
        channel = Channel(ch)
        quality = Quality(q)
    except ValueError as exc:
        raise MalformedLine(str(exc)) from exc
    if isinstance(ts, bool) or not isinstance(ts, int) or ts < 0:
        raise MalformedLine(f"bad ts {ts!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MalformedLine(f"bad value {v!r}")
    sample = TelemetrySample(asset, channel, ts, float(v), quality)
    sample.validate()
    return sample


def naive_silhouette(x, labels):
    """Literal O(n^2) silhouette definition."""
    n = len(x)
    scores = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = sum(math.dist(x[i], x[j]) for j in same) / len(same)
        b = math.inf
        for c in set(labels):
            if c == labels[i]:
                continue
            members = [j for j in range(n) if labels[j] == c]
            b = min(b, sum(math.dist(x[i], x[j]) for j in members) / len(members))
        scores.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return sum(scores) / n


def reference_silhouette_loop(vectors, labels) -> float:
    """Per-point silhouette loop over a full n x n distance matrix, kept
    verbatim from the library's original implementation. The row-blocked
    silhouette_score must equal it bit for bit."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < 2:
        raise TooFewPoints("silhouette needs at least 2 points")
    lab = np.asarray(labels)
    if lab.shape[0] != n:
        raise LengthMismatch(f"{lab.shape[0]} labels for {n} points")
    clusters = np.unique(lab)
    if clusters.size == 1:
        return 0.0

    dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    scores = np.zeros(n)
    masks = {c: lab == c for c in clusters}
    sizes = {c: int(masks[c].sum()) for c in clusters}
    for i in range(n):
        own = lab[i]
        if sizes[own] == 1:
            continue  # singleton: s_i = 0
        a = dist[i, masks[own]].sum() / (sizes[own] - 1)
        b = min(dist[i, masks[c]].mean() for c in clusters if c != own)
        denom = max(a, b)
        scores[i] = (b - a) / denom if denom > 0 else 0.0
    return float(scores.mean())


def reference_segment_costs(s1, s2, starts, end):
    """The library's original L2 segment-cost kernel, summing each row over
    the feature axis with .sum(axis=1)."""
    lengths = (end - starts).astype(np.float64)
    dsum = s1[end] - s1[starts]
    dsq = s2[end] - s2[starts]
    return (dsq - dsum * dsum / lengths[:, None]).sum(axis=1)


def reference_pelt_segment(features, penalty, min_segment=2) -> Segmentation:
    """The library's original pelt_segment, kept verbatim with its own copies
    of the prefix sums, the cost kernel and the objective sum: candidates in a
    Python list, pruning deadlines in a dict. pelt_segment must return an
    equal Segmentation for d <= 7."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    m = min_segment
    beta = penalty
    if n < m:
        raise SeriesTooShort(f"{n} blocks < min_segment {m}")
    s1 = np.zeros((n + 1, x.shape[1]))
    s2 = np.zeros((n + 1, x.shape[1]))
    np.cumsum(x, axis=0, out=s1[1:])
    np.cumsum(x * x, axis=0, out=s2[1:])

    f = np.full(n + 1, np.inf)
    f[0] = -beta
    prev = np.zeros(n + 1, dtype=np.int64)
    cands: list[int] = [0]
    kill: dict[int, int] = {}

    for t in range(m, n + 1):
        newcomer = t - m
        if newcomer >= m:
            cands.append(newcomer)
        if kill:
            cands = [s for s in cands if kill.get(s, t + 1) > t]
        arr = np.asarray(cands, dtype=np.int64)
        costs = reference_segment_costs(s1, s2, arr, t)
        totals = f[arr] + costs
        best = int(np.argmin(totals))  # first minimum: smallest s wins ties
        f[t] = totals[best] + beta
        prev[t] = arr[best]
        doomed = totals > f[t] + 1e-9
        if doomed.any():
            deadline = t + m
            for s in arr[doomed]:
                kill.setdefault(int(s), deadline)

    cps: list[int] = []
    t = n
    while t > 0:
        s = int(prev[t])
        if s > 0:
            cps.append(s)
        t = s
    cps.reverse()
    bounds = [0, *cps, n]
    total = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        total += float(reference_segment_costs(s1, s2, np.array([a]), b)[0])
    return Segmentation(
        change_points=tuple(cps), n_blocks=n, total_cost=total + beta * len(cps)
    )


BRUTE_FORCE_MAX_N = 512


def brute_force_segment(features, penalty: float) -> Segmentation:
    """Exact optimal segmentation by full O(n^2) dynamic programming over all
    admissible last-change positions. Exactness oracle for pelt_segment: it
    takes the library's prefix sums and segment costs (_segment_costs), so
    PELT must equal it bit for bit. A series past BRUTE_FORCE_MAX_N blocks
    is a ValueError."""
    check_penalty(penalty)
    x = _as_matrix(features)
    n = x.shape[0]
    m = _MIN_SEGMENT
    if n < m:
        raise SeriesTooShort(f"{n} blocks < min_segment {m}")
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"{n} blocks > {BRUTE_FORCE_MAX_N}")
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


def reference_objective(features, change_points, penalty) -> float:
    """The segmentation objective by its definition: the naive L2 cost of
    every segment that change_points cut, plus penalty per change point."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    bounds = [0, *change_points, len(x)]
    total = penalty * len(change_points)
    for a, b in zip(bounds[:-1], bounds[1:]):
        segment = x[a:b]
        total += float(((segment - segment.mean(axis=0)) ** 2).sum())
    return total


def exhaustive_segment(features, penalty) -> tuple[tuple[int, ...], float]:
    """(change points, objective) of the best segmentation into segments of
    at least two blocks, found by enumerating every such segmentation; the
    first minimum wins. For short series only: the count grows like the
    Fibonacci numbers."""
    n = len(features)

    def cuts(start):
        # every admissible list of change points after start
        if n - start >= 2:
            yield ()
        for c in range(start + 2, n - 1):
            for rest in cuts(c):
                yield (c, *rest)

    scored = [(reference_objective(features, cps, penalty), cps) for cps in cuts(0)]
    best, cps = min(scored, key=lambda item: item[0])
    return cps, best


def reference_kmeanspp_init(vectors, k: int, seed: int) -> np.ndarray:
    """The library's original k-means++ seeding, kept verbatim but for its
    checks: each draw's D^2 is summed over the feature axis, where
    kmeanspp_init reads _sq_dists. For d < 8 the two are the same bits."""
    x = _as_matrix(vectors)
    n = x.shape[0]
    u = rng.uniforms(rng.stream_key(seed, "kmeans++"), np.arange(k, dtype=np.uint64))
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


def reference_kmeans_fit(
    vectors, k: int, seed: int, max_iter: int = 100, tol: float = 1e-9
) -> KMeansModel:
    """The library's original kmeans_fit, kept verbatim but for the
    inertia, per iteration and final, that it no longer returns, and for the
    repair rule that leaves no cluster empty: a full repair scan every
    iteration and one mean per cluster. kmeans_fit must return equal labels
    and iteration count, and centroids equal byte for byte; max_iter stops
    the loop early for tests of the iterations on the way."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n == 0:
        raise EmptyInput("kmeans_fit needs at least one vector")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise KExceedsN(f"k={k} > n={n}")

    centroids = kmeanspp_init(x, k, seed)
    labels = np.zeros(n, dtype=np.int64)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        assigned = d2[np.arange(n), labels]
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if not (labels == j).any():
                # only a point whose cluster keeps a member or is still to
                # be scanned, so no cluster stays empty
                ok = (counts[labels] > 1) | (labels > j)
                p = int(np.where(ok, assigned, -np.inf).argmax())
                counts[labels[p]] -= 1
                counts[j] += 1
                labels[p] = j
        new_centroids = np.vstack([x[labels == j].mean(axis=0) for j in range(k)])
        movement = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if movement < tol:
            break

    # settle labels against the converged centroids
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    return KMeansModel(centroids=centroids, labels=labels, iterations_run=iterations)


def reference_query_window(archive, q):
    """The library's original query_window over archive.scan: a time filter
    over the whole log in seq order, then a stable sort by ts, which gives
    (ts, seq) order."""
    out = [e for e in archive.scan(q.asset_id) if q.t_start <= e.sample.ts < q.t_end]
    out.sort(key=lambda e: e.sample.ts)
    return out


def reference_axis_series(window: Iterable[TelemetrySample]):
    """The library's original _axis_series, kept verbatim: the row objects of
    a queried window walked one by one. Rows.axis_arrays must return the same
    arrays bit for bit and raise the same AxisLengthMismatch text.

    Split a queried window into three aligned accel arrays plus the ts
    array of the first axis, in one pass that skips every other channel.
    Missing-quality samples become NaN (filled by the readiness stage)."""
    ch_x, ch_y, ch_z = ACCEL_CHANNELS
    missing = Quality.missing
    nan = float("nan")
    xs: list[float] = []
    ys: list[float] = []
    zs: list[float] = []
    ts: list[int] = []
    for s in window:
        ch = s.channel
        if ch is ch_x:
            xs.append(nan if s.quality is missing else s.value)
            ts.append(s.ts)
        elif ch is ch_y:
            ys.append(nan if s.quality is missing else s.value)
        elif ch is ch_z:
            zs.append(nan if s.quality is missing else s.value)
    if not len(xs) == len(ys) == len(zs) or not ts:
        lengths = {ch.value: len(v) for ch, v in zip(ACCEL_CHANNELS, (xs, ys, zs))}
        raise AxisLengthMismatch(f"accel channels misaligned: {lengths}")
    return np.array(xs), np.array(ys), np.array(zs), ts


def reference_replica(window: Iterable[TelemetrySample], hp, seed) -> ReplicaResult:
    """One replica of the grid computed alone, with no plan: the public
    stages chained over its own hyperparameters (readiness over
    [hp.block_size], PELT over [hp.penalty], k-means at hp.k from its own
    k-means++ seeding, the silhouette of its labels), versioned by hp's place
    in the grid. window is one machine's samples, each axis in ts order."""
    x, y, z, ts = reference_axis_series(window)
    (peaks,) = run_readiness(x, y, z, [hp.block_size])
    (segmentation,) = pelt_segment(peaks, [hp.penalty])
    labels = kmeans_fit(peaks, hp.k, kmeanspp_init(peaks, hp.k, seed)).labels
    (silhouette,) = silhouette_score(peaks, labels[None])
    return ReplicaResult(
        replica_version=f"v{_REPLICAS.index(hp) + 1}-{hp.digest()}",
        hyperparams=hp,
        segmentation=segmentation,
        labels=labels,
        silhouette=silhouette,
        peaks=peaks,
        window_start_ts=ts[0],
        per_sample_ns=(ts[-1] - ts[0]) // (len(ts) - 1) if len(ts) > 1 else 0,
    )


def reference_fnv1a64(text: str) -> np.uint64:
    """The library's original rng.fnv1a64, kept verbatim: every step wraps
    the hash in np.uint64. rng.fnv1a64 must return an equal np.uint64."""
    h = np.uint64(0xCBF29CE484222325)
    for b in text.encode("utf-8"):
        h = np.uint64((int(h) ^ b) * int(np.uint64(0x100000001B3)) & 0xFFFFFFFFFFFFFFFF)
    return h


def random_step_series(seed, max_n=128, max_d=3):
    """Mixed step/noise series for segmentation oracle comparisons."""
    key = rng.stream_key(seed, "steps")
    u = rng.uniforms(key, np.arange(4096, dtype=np.uint64))
    n = 4 + int(u[0] * (max_n - 4))
    d = 1 + int(u[1] * max_d)
    n_steps = int(u[2] * 4)
    bounds = sorted({2 + int(u[3 + j] * (n - 4)) for j in range(n_steps)})
    x = np.empty((n, d))
    prev = 0
    ptr = 10
    for b in [*bounds, n]:
        for dim in range(d):
            level = (u[ptr] - 0.5) * 10
            scale = 0.05 + u[ptr + 1]
            noise = u[ptr + 2 : ptr + 2 + (b - prev)] - 0.5
            x[prev:b, dim] = level + scale * noise
            ptr += 2 + (b - prev)
        prev = b
    return x
