"""Zero-configuration replication: spawn a hyperparameter grid of pipeline
replicas against an immutable window of archived data, version and rank their
outputs, flag rare-cluster segments as anomalies, and feed augmentation
events back into the twin.

A sweep runs one fixed plan (_plan): each stage reads only part of the
hyperparameters, so each runs once per distinct input, and every replica
then assembles its own versioned result from the shared stage outputs.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from .analytics import (
    PeltConfig,
    Segmentation,
    SegmentSummary,
    _kmeanspp_init,
    kmeans_fit,
    label_segments,
    pelt_segment,
    segment_features,
    segment_stats,
    silhouette_score,
)
from .archive import Archive, SegmentRecord, SegmentStats, WindowQuery
from .errors import (
    AxisLengthMismatch,
    EmptyGrid,
    InvalidSpec,
    MixedVersions,
    NoData,
    NoResults,
    TwinForgeError,
)
from .readiness import FeatureSeries, ReadinessConfig, run_readiness
from .twin import DigitalEvent, LifecyclePhase, TwinInstance
from .wire import ACCEL_CHANNELS, Quality, TelemetrySample

DEFAULT_RARITY_THRESHOLD = 0.05

# ZeroConf sweep: no caller-supplied configuration needed. Read-only: its
# replicas are spawned once, at import (_DEFAULT_REPLICAS).
DEFAULT_GRID: dict[str, list] = {
    "penalty": [10.0, 40.0, 160.0],
    "k": [2, 3, 4, 5],
    "block_size": [25, 50],
}

RANKING_RULE = "silhouette desc, segment_count asc, penalty asc, version asc"

_HP_FIELDS = ("block_size", "penalty", "k")


@dataclass(frozen=True)
class HyperParams:
    block_size: int = 50
    penalty: float = 40.0
    k: int = 4
    readiness: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if type(self.k) is not int or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        PeltConfig(penalty=self.penalty)
        self.readiness_config()

    def readiness_config(self) -> ReadinessConfig:
        return ReadinessConfig(block_size=self.block_size, **dict(self.readiness))

    def canonical(self) -> str:
        return json.dumps(
            {
                "block_size": self.block_size,
                "penalty": self.penalty,
                "k": self.k,
                "readiness": dict(self.readiness),
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def digest(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        # computed once per instance, which is frozen
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:8]


@dataclass(frozen=True)
class ReplicaResult:
    replica_version: str
    hyperparams: HyperParams
    segmentation: Segmentation
    labels: np.ndarray
    silhouette: float
    segment_count: int
    features: FeatureSeries
    segments: tuple[SegmentSummary, ...]
    window_start_ts: int


@dataclass(frozen=True)
class AnomalyEvent:
    machine: str
    replica_version: str
    segment_index: int
    block_range: tuple[int, int]
    cluster_label: int
    rarity: float
    ts: int


@dataclass(frozen=True)
class BenchmarkReport:
    results: tuple[ReplicaResult, ...]
    selected: str
    ranking_rule_applied: str = RANKING_RULE
    per_sample_ns: int = 0  # nominal accel sample spacing of the window


@dataclass(frozen=True)
class Timeline:
    """Segment rows tiling [0, n_blocks) exactly once."""

    rows: tuple[tuple[int, int, int, bool], ...]  # (start, end, cluster, is_anomaly)
    change_points: tuple[int, ...]

    def to_csv(self) -> str:
        lines = ["block_start,block_end,cluster,is_anomaly"]
        for a, b, label, flagged in self.rows:
            lines.append(f"{a},{b},{label},{'true' if flagged else 'false'}")
        return "\n".join(lines) + "\n"


def spawn_replica_grid(grids: Mapping[str, Sequence]) -> list[HyperParams]:
    """Cartesian product of the grid, parameters iterated in sorted-name
    order with values kept in their given order. Unknown parameter names are
    treated as readiness-stage overrides. Raises InvalidSpec, naming the
    parameter, for a value that is not a list or tuple, EmptyGrid for an empty
    one, and InvalidSpec, naming the replica, for one HyperParams rejects."""
    names = sorted(grids)
    for name in names:
        values = grids[name]
        if not isinstance(values, (list, tuple)):
            raise InvalidSpec(
                f"{name!r} must map to a list of values, got {type(values).__name__}"
            )
        if not values:
            raise EmptyGrid(f"empty value list for {name!r}")
    combos = itertools.product(*(grids[name] for name in names))
    out = []
    for combo in combos:
        assignment = dict(zip(names, combo))
        fields = {k: assignment.pop(k) for k in _HP_FIELDS if k in assignment}
        try:
            hp = HyperParams(readiness=tuple(sorted(assignment.items())), **fields)
        except (TypeError, ValueError) as exc:
            raise InvalidSpec(f"{exc}, in replica {dict(zip(names, combo))}") from exc
        out.append(hp)
    return out


_DEFAULT_REPLICAS = tuple(spawn_replica_grid(DEFAULT_GRID))


def _axis_series(window: Sequence[TelemetrySample]):
    """Split a queried window into three aligned accel arrays plus the ts
    array of the first axis. Missing-quality samples become NaN (filled by
    the readiness stage)."""
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


def _group(hps: Sequence[HyperParams], members, field: str) -> dict[str, list[int]]:
    """Indices of members by the repr of one hyperparameter field, in
    first-seen order, so penalties 40 and 40.0 stay distinct stage inputs."""
    groups: dict[str, list[int]] = {}
    for i in members:
        groups.setdefault(repr(getattr(hps[i], field)), []).append(i)
    return groups


def _plan(axes, hps: Sequence[HyperParams], seed: int) -> list[tuple]:
    """Every stage output of the replicas hps over one window's split axes,
    one tuple per replica in order: (features, segmentation, segment stats,
    k-means model, silhouette, window start ts).

    Replicas with the same readiness overrides share one run_readiness call
    over their block sizes. Per block size, one lockstep pelt_segment call
    covers every penalty, segment_stats runs once per penalty, one k-means++
    seeding for the largest k serves kmeans_fit once per k, and one
    silhouette_score call scores every k's labels.
    Replicas share these objects, so their arrays must not be modified in
    place.
    """
    x, y, z, ts = axes
    stages: list = [None] * len(hps)
    for same_readiness in _group(hps, range(len(hps)), "readiness").values():
        by_size = _group(hps, same_readiness, "block_size")
        configs = [hps[members[0]].readiness_config() for members in by_size.values()]
        for same_size, features in zip(by_size.values(), run_readiness(x, y, z, configs)):
            by_penalty = _group(hps, same_size, "penalty")
            by_k = _group(hps, same_size, "k")
            segmentations = pelt_segment(
                features, [PeltConfig(penalty=hps[g[0]].penalty) for g in by_penalty.values()]
            )
            ks = [hps[g[0]].k for g in by_k.values()]
            # a k past the block count raises KExceedsN before init is read;
            # init is passed by position, as the benchmark's tracer digests
            # an array argument by its bytes and a keyword one by its repr
            init = _kmeanspp_init(features.peaks, min(max(ks), len(features.peaks)), seed)
            models = [kmeans_fit(features.peaks, k, seed, init) for k in ks]
            scores = silhouette_score(features.peaks, np.stack([m.labels for m in models]))
            segmentation_of = {}
            for members, segmentation in zip(by_penalty.values(), segmentations):
                stats = segment_stats(features, segmentation)
                segmentation_of.update(dict.fromkeys(members, (segmentation, stats)))
            for members, model, score in zip(by_k.values(), models, scores):
                for i in members:
                    segmentation, stats = segmentation_of[i]
                    stages[i] = (features, segmentation, stats, model, score, ts[0])
    return stages


def run_replica(
    window: Sequence[TelemetrySample],
    hp: HyperParams,
    seed: int,
    seq: int = 1,
    stages: Optional[tuple] = None,
) -> ReplicaResult:
    """One pipeline replica over an immutable window: readiness ->
    segmentation -> clustering + silhouette -> segment stats.

    Deterministic given (window, hp, seed); a TwinForgeError from any stage
    is re-raised annotated with the replica version, other errors as they
    are. This is the one-replica oracle: with stages=None it splits the
    window and runs the sweep's plan over [hp] alone. zeroconf_run passes
    stages, this replica's entry of the plan over the whole grid, and the
    result is the same.
    """
    version = f"v{seq}-{hp.digest()}"
    try:
        if stages is None:
            (stages,) = _plan(_axis_series(window), [hp], seed)
        features, segmentation, stats, model, score, window_start_ts = stages
        summaries = label_segments(stats, model.labels)
    except TwinForgeError as exc:
        raise type(exc)(f"{version}: {exc}") from exc
    return ReplicaResult(
        replica_version=version,
        hyperparams=hp,
        segmentation=segmentation,
        labels=model.labels,
        silhouette=score,
        segment_count=len(segmentation.segments),
        features=features,
        segments=tuple(summaries),
        window_start_ts=window_start_ts,
    )


def rank_replicas(results: Sequence[ReplicaResult]) -> BenchmarkReport:
    """Total order: silhouette desc, then segment count asc, penalty asc,
    version asc; first entry is selected."""
    if not results:
        raise NoResults("no replica results to rank")
    ranked = sorted(
        results,
        key=lambda r: (
            -r.silhouette,
            r.segment_count,
            r.hyperparams.penalty,
            r.replica_version,
        ),
    )
    return BenchmarkReport(results=tuple(ranked), selected=ranked[0].replica_version)


def flag_anomalies(
    records: Sequence[SegmentRecord],
    rarity_threshold: float = DEFAULT_RARITY_THRESHOLD,
    machine: str = "",
) -> list[AnomalyEvent]:
    """Flag every segment whose cluster covers less than rarity_threshold of
    all blocks; rarity is that cluster's block frequency."""
    if not records:
        return []
    versions = {r.replica_version for r in records}
    if len(versions) != 1:
        raise MixedVersions(f"records span versions {sorted(versions)}")
    total_blocks = sum(r.stats.duration_blocks for r in records)
    cluster_blocks: dict[int, int] = {}
    for r in records:
        cluster_blocks[r.cluster_label] = (
            cluster_blocks.get(r.cluster_label, 0) + r.stats.duration_blocks
        )
    events = []
    for r in records:
        rarity = cluster_blocks[r.cluster_label] / total_blocks
        if rarity < rarity_threshold:
            events.append(
                AnomalyEvent(
                    machine=machine,
                    replica_version=r.replica_version,
                    segment_index=r.segment_index,
                    block_range=r.block_range,
                    cluster_label=r.cluster_label,
                    rarity=rarity,
                    ts=r.created_ts,
                )
            )
    return events


def build_timeline(
    features: FeatureSeries,
    segmentation: Segmentation,
    labels,
    anomalies: Sequence[AnomalyEvent],
) -> Timeline:
    """Segment rows (block range, majority cluster, anomaly flag) plus the
    change-point list, tiling [0, n_blocks) exactly once."""
    return _timeline(segment_features(features, segmentation, labels), segmentation, anomalies)


def _timeline(summaries, segmentation: Segmentation, anomalies) -> Timeline:
    """build_timeline from the segmentation's labelled segment summaries."""
    flagged = {a.segment_index for a in anomalies}
    rows = tuple(
        (s.block_range[0], s.block_range[1], s.cluster_label, s.segment_index in flagged)
        for s in summaries
    )
    return Timeline(rows=rows, change_points=segmentation.change_points)


def emit_augmentation_event(
    twin: TwinInstance, anomaly: AnomalyEvent
) -> Optional[DigitalEvent]:
    """Append an anomaly_detected event to a Synchronized twin and return it;
    in any other phase the event is suppressed: nothing is appended and None
    is returned."""
    if twin.phase is LifecyclePhase.Synchronized:
        return twin.append_event("anomaly_detected", ts=anomaly.ts, payload=anomaly)
    return None


def records_for(result: ReplicaResult, block_ns: int) -> list[SegmentRecord]:
    """Materialize a replica's segment summaries as archive records.

    created_ts is the data timestamp of the segment's first block, so records
    are reproducible across runs.
    """
    return [
        SegmentRecord(
            replica_version=result.replica_version,
            segment_index=s.segment_index,
            block_range=s.block_range,
            cluster_label=s.cluster_label,
            stats=SegmentStats(
                mean=s.mean, peak=s.peak, duration_blocks=s.duration_blocks
            ),
            created_ts=result.window_start_ts + s.block_range[0] * block_ns,
        )
        for s in result.segments
    ]


def zeroconf_run(
    archive: Archive,
    machine: str,
    time_range: tuple[int, int],
    grid: Optional[Mapping[str, Sequence]] = None,
    rarity_threshold: float = DEFAULT_RARITY_THRESHOLD,
    twin: Optional[TwinInstance] = None,
    seed: int = 42,
) -> tuple[BenchmarkReport, Timeline, list[AnomalyEvent]]:
    """End-to-end ZeroConf pipeline over one machine's archived window.

    Queries the window, sweeps the default replica grid as one plan,
    ranks by silhouette, records the winner's segment statistics back to the
    archive (idempotent on rerun), flags rare-cluster anomalies, assembles
    the timeline from the winner's labelled segments, and emits augmentation events to the twin when one is
    attached. The raw sample log is never touched.
    """
    query = WindowQuery(
        asset_id=machine,
        t_start=time_range[0],
        t_end=time_range[1],
        channels=frozenset(ACCEL_CHANNELS),
    )
    entries = archive.query_window(query)
    if not entries:
        raise NoData(f"no samples for {machine} in {time_range}")
    window = [e.sample for e in entries]

    hps = _DEFAULT_REPLICAS if grid is None else spawn_replica_grid(grid)
    failure = None
    try:
        axes = _axis_series(window)
        stages = _plan(axes, hps, seed)
    except Exception as exc:
        failure = exc
    if failure is not None:
        # replay through the oracle, outside the handler so that no error
        # chains to the plan's: the first replica that fails, in grid order,
        # raises its own error under its own version
        for i, hp in enumerate(hps):
            run_replica(window, hp, seed, i + 1)
        raise failure
    results = [run_replica(window, hp, seed, i + 1, s) for i, (hp, s) in enumerate(zip(hps, stages))]

    # nominal sample spacing, for reproducible record timestamps
    ts_x = axes[3]
    per_sample_ns = (ts_x[-1] - ts_x[0]) // (len(ts_x) - 1) if len(ts_x) > 1 else 0
    report = replace(rank_replicas(results), per_sample_ns=per_sample_ns)
    winner = report.results[0]
    block_ns = winner.hyperparams.block_size * per_sample_ns
    records = records_for(winner, block_ns)
    if winner.replica_version not in archive.replica_versions():
        for record in records:
            archive.record_segment_stats(record)

    anomalies = flag_anomalies(records, rarity_threshold, machine=machine)
    timeline = _timeline(winner.segments, winner.segmentation, anomalies)
    if twin is not None:
        for anomaly in anomalies:
            emit_augmentation_event(twin, anomaly)
    return report, timeline, anomalies
