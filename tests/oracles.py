"""Independent oracles shared by the unit and acceptance suites. These stay
deliberately naive: literal definitions, no shortcuts from the library code."""
import json
import math

import numpy as np

import twinforge.rng as rng
from twinforge.analytics import KMeansModel, Segmentation, _kmeanspp_init
from twinforge.errors import (
    EmptyInput,
    KExceedsN,
    LengthMismatch,
    MalformedLine,
    SeriesTooShort,
    TooFewPoints,
)
from twinforge.wire import Channel, Quality, TelemetrySample

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


def reference_pelt_segment(features, config) -> Segmentation:
    """The library's original pelt_segment, kept verbatim with its own copies
    of the prefix sums, the cost kernel and objective_cost: candidates in a
    Python list, pruning deadlines in a dict. pelt_segment must return an
    equal Segmentation for d <= 7."""
    x = np.asarray(getattr(features, "peaks", features), dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    m = config.min_segment
    beta = config.penalty
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


def reference_kmeans_fit(
    vectors, k: int, seed: int, max_iter: int = 100, tol: float = 1e-9
) -> KMeansModel:
    """The library's original kmeans_fit, kept verbatim: a full repair scan
    every iteration and one mean per cluster. kmeans_fit must return equal
    labels, inertia, history and iteration count, and centroids equal byte
    for byte."""
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

    centroids = _kmeanspp_init(x, k, seed)
    labels = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        assigned = d2[np.arange(n), labels]
        for j in range(k):
            if not (labels == j).any():
                p = int(assigned.argmax())
                labels[p] = j
                assigned[p] = -1.0
        new_centroids = np.vstack([x[labels == j].mean(axis=0) for j in range(k)])
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


def reference_query_window(archive, q):
    """The library's original query_window over archive.scan: a filter over
    the whole log in seq order, then a stable sort by ts, which gives
    (ts, seq) order."""
    out = []
    for entry in archive.scan(q.asset_id):
        s = entry.sample
        if not q.t_start <= s.ts < q.t_end:
            continue
        if q.channels is not None and s.channel not in q.channels:
            continue
        if q.quality_filter is not None and s.quality not in q.quality_filter:
            continue
        if q.tag_filter and any(entry.tags.get(k) != v for k, v in q.tag_filter.items()):
            continue
        out.append(entry)
    out.sort(key=lambda e: e.sample.ts)
    return out


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
