"""Zero-configuration replication: spawn a hyperparameter grid of pipeline
replicas against an immutable window of archived data, version and rank their
outputs, flag rare-cluster segments as anomalies, and feed augmentation
events back into the twin.

A sweep runs one fixed plan (_plan): each stage reads only part of the
hyperparameters, so each runs once per distinct input, and the plan's last
step builds every replica's versioned result from the shared stage outputs.
A result's segments are its archive records, labelled when first read.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .analytics import (
    PeltConfig,
    Segmentation,
    _kmeanspp_init,
    kmeans_fit,
    label_segments,
    pelt_segment,
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
    features: FeatureSeries
    segment_stats: list[tuple]  # segment_stats(features, segmentation), shared
    window_start_ts: int  # ts of the window's first accel sample
    per_sample_ns: int  # the window's nominal accel sample spacing

    @property
    def segment_count(self) -> int:
        return len(self.segmentation.change_points) + 1

    @cached_property
    def segments(self) -> tuple[SegmentRecord, ...]:
        """This replica's archive records, labelled at first read: a live
        sweep reads only its winner's. created_ts is the data timestamp of a
        segment's first block at the window's nominal sample spacing, so
        records are reproducible across runs."""
        block_ns = self.hyperparams.block_size * self.per_sample_ns
        return tuple(
            SegmentRecord(
                replica_version=self.replica_version,
                segment_index=s.segment_index,
                block_range=s.block_range,
                cluster_label=s.cluster_label,
                stats=SegmentStats(s.mean, s.peak, s.duration_blocks),
                created_ts=self.window_start_ts + s.block_range[0] * block_ns,
            )
            for s in label_segments(self.segment_stats, self.labels)
        )


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
    results: tuple[ReplicaResult, ...]  # ranked: the first is selected

    @property
    def selected(self) -> str:
        return self.results[0].replica_version


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


def _axis_series(window: Iterable[TelemetrySample]):
    """Split a queried window into three aligned accel arrays plus the ts
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


def _group(hps: Sequence[HyperParams], members, field: str) -> dict[str, list[int]]:
    """Indices of members by the repr of one hyperparameter field, in
    first-seen order, so penalties 40 and 40.0 stay distinct stage inputs."""
    groups: dict[str, list[int]] = {}
    for i in members:
        groups.setdefault(repr(getattr(hps[i], field)), []).append(i)
    return groups


def _version(seq: int, hp: HyperParams) -> str:
    return f"v{seq}-{hp.digest()}"


def _plan(
    window: Iterable[TelemetrySample], hps: Sequence[HyperParams], seed: int
) -> list[ReplicaResult]:
    """The results of the replicas hps over one window, in order, versioned
    v1..vN; the last step per replica is run_replica.

    The window is split into axes once. Replicas with the same readiness
    overrides share one run_readiness call over their block sizes. Per block
    size, one lockstep pelt_segment call covers every penalty, segment_stats
    runs once per penalty, one k-means++ seeding for the largest k serves
    kmeans_fit once per k, and one silhouette_score call scores every k's
    labels.
    Replicas share these objects, so their arrays must not be modified in
    place.

    A TwinForgeError from a stage is re-raised under the version of the first
    replica that stage serves (members), so the first failure in plan order
    names its replica; other errors propagate as they are.
    """
    members = range(len(hps))
    try:
        x, y, z, ts = _axis_series(window)
        per_sample_ns = (ts[-1] - ts[0]) // (len(ts) - 1) if len(ts) > 1 else 0
        results: list = [None] * len(hps)
        for same_readiness in _group(hps, members, "readiness").values():
            members = same_readiness
            by_size = _group(hps, same_readiness, "block_size")
            configs = [hps[g[0]].readiness_config() for g in by_size.values()]
            features_by_size = run_readiness(x, y, z, configs)
            for same_size, features in zip(by_size.values(), features_by_size):
                members = same_size
                by_penalty = _group(hps, same_size, "penalty")
                by_k = _group(hps, same_size, "k")
                segmentations = pelt_segment(
                    features, [PeltConfig(penalty=hps[g[0]].penalty) for g in by_penalty.values()]
                )
                ks = [hps[g[0]].k for g in by_k.values()]
                # init is passed by position, as the benchmark's tracer digests
                # an array argument by its bytes and a keyword one by its repr
                init = _kmeanspp_init(features.peaks, min(max(ks), len(features.peaks)), seed)
                models = []
                for members, k in zip(by_k.values(), ks):
                    # a k past the block count raises KExceedsN before init is read
                    models.append(kmeans_fit(features.peaks, k, seed, init))
                members = same_size
                scores = silhouette_score(features.peaks, np.stack([m.labels for m in models]))
                segmentation_of = {}
                for members, segmentation in zip(by_penalty.values(), segmentations):
                    stats = segment_stats(features, segmentation)
                    segmentation_of.update(dict.fromkeys(members, (segmentation, stats)))
                for same_k, model, score in zip(by_k.values(), models, scores):
                    for i in same_k:
                        segmentation, stats = segmentation_of[i]
                        results[i] = run_replica(
                            hps[i], i + 1, features=features, segmentation=segmentation,
                            segment_stats=stats, labels=model.labels, silhouette=score,
                            window_start_ts=ts[0], per_sample_ns=per_sample_ns,
                        )
    except TwinForgeError as exc:
        i = members[0]
        raise type(exc)(f"{_version(i + 1, hps[i])}: {exc}") from exc
    return results


def run_replica(hp: HyperParams, seq: int, **stages) -> ReplicaResult:
    """Replica seq's versioned result, built from the stage outputs the
    sweep's plan (_plan) shares, given as the rest of ReplicaResult's fields:
    readiness -> segmentation -> clustering + silhouette, its segments
    labelled when first read."""
    return ReplicaResult(replica_version=_version(seq, hp), hyperparams=hp, **stages)


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
    return BenchmarkReport(results=tuple(ranked))


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
    segments: Sequence[SegmentRecord],
    segmentation: Segmentation,
    anomalies: Sequence[AnomalyEvent],
) -> Timeline:
    """Segment rows (block range, majority cluster, anomaly flag) of a
    segmentation's labelled segment records plus its change-point list,
    tiling [0, n_blocks) exactly once."""
    flagged = {a.segment_index for a in anomalies}
    rows = tuple(
        (s.block_range[0], s.block_range[1], s.cluster_label, s.segment_index in flagged)
        for s in segments
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

    Queries the window (every channel, read once by the axis split), sweeps
    the default replica grid as one plan, ranks by silhouette, records the
    winner's segment records back to the archive, flags rare-cluster
    anomalies, assembles the timeline from the same records, and emits
    augmentation events to the twin when one is attached. The raw sample log
    is never touched.

    Records are written only when the winner's version has none archived
    yet. A rerun of the same window is therefore idempotent, but a new window
    won by an already-archived version is silently not recorded.
    """
    entries = archive.query_window(WindowQuery(machine, time_range[0], time_range[1]))
    # the first accel row ends the search; the axis split skips the others
    if not any(e.sample.channel in ACCEL_CHANNELS for e in entries):
        raise NoData(f"no samples for {machine} in {time_range}")

    hps = _DEFAULT_REPLICAS if grid is None else spawn_replica_grid(grid)
    report = rank_replicas(_plan(map(attrgetter("sample"), entries), hps, seed))
    winner = report.results[0]
    if winner.replica_version not in archive.replica_versions():
        for record in winner.segments:
            archive.record_segment_stats(record)

    anomalies = flag_anomalies(winner.segments, rarity_threshold, machine=machine)
    timeline = build_timeline(winner.segments, winner.segmentation, anomalies)
    if twin is not None:
        for anomaly in anomalies:
            emit_augmentation_event(twin, anomaly)
    return report, timeline, anomalies
