"""Zero-configuration replication: run the fixed 24-replica hyperparameter
grid of pipelines against an immutable window of archived data, version and
rank their outputs, flag rare-cluster segments as anomalies, and feed
augmentation events back into the twin. The grid (DEFAULT_GRID), the
rarity cutoff (DEFAULT_RARITY_THRESHOLD) and the k-means++ seed (SWEEP_SEED)
are constants: a sweep takes no settings.

A sweep runs one fixed plan (_plan) that walks DEFAULT_GRID: each stage
reads only part of the grid (readiness, which has no settings, only the block
sizes), so each runs once per distinct input, and the plan's last step builds
every replica's result, under its version (_VERSIONS), from the shared stage
outputs.
A result's segments are its archive records, built from the replica's
segmentation and block labels when first read; the timeline is derived from
the same records.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .analytics import (
    Segmentation,
    kmeans_fit,
    kmeanspp_init,
    pelt_segment,
    silhouette_score,
)
from .archive import Archive, Rows, SegmentRecord, WindowQuery
from .errors import MixedVersions, NoData, NoResults, TwinForgeError
from .readiness import run_readiness
from .twin import DigitalEvent, LifecyclePhase, TwinInstance
from .wire import ACCEL_CHANNELS

DEFAULT_RARITY_THRESHOLD = 0.05
SWEEP_SEED = 42  # every sweep's k-means++ seed

# ZeroConf sweep: no caller-supplied configuration. Read-only: its replicas
# are built once, at import (_REPLICAS).
DEFAULT_GRID: dict[str, list] = {
    "penalty": [10.0, 40.0, 160.0],
    "k": [2, 3, 4, 5],
    "block_size": [25, 50],
}

RANKING_RULE = "silhouette desc, segment_count asc, penalty asc, version asc"


@dataclass(frozen=True)
class HyperParams:
    block_size: int
    penalty: float
    k: int

    def canonical(self) -> str:
        return json.dumps(
            {
                "block_size": self.block_size,
                "penalty": self.penalty,
                "k": self.k,
                "readiness": {},  # readiness has no settings; the key keeps every digest
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:8]


@dataclass(frozen=True)
class ReplicaResult:
    replica_version: str
    hyperparams: HyperParams
    segmentation: Segmentation
    labels: np.ndarray
    silhouette: float
    peaks: np.ndarray  # (n_blocks, 3) readiness block peaks
    window_start_ts: int  # ts of the window's first accel sample
    per_sample_ns: int  # the window's nominal accel sample spacing

    @property
    def segment_count(self) -> int:
        return len(self.segmentation.change_points) + 1

    @cached_property
    def segments(self) -> tuple[SegmentRecord, ...]:
        """This replica's archive records, labelled at first read: a live
        sweep reads only its winner's. A segment's label is its majority
        block label, ties to the lowest. created_ts is the data timestamp of
        a segment's first block at the window's nominal sample spacing, so
        records are reproducible across runs."""
        block_ns = self.hyperparams.block_size * self.per_sample_ns
        return tuple(
            SegmentRecord(
                replica_version=self.replica_version,
                segment_index=i,
                block_range=(a, b),
                cluster_label=int(np.bincount(self.labels[a:b]).argmax()),
                created_ts=self.window_start_ts + a * block_ns,
            )
            for i, (a, b) in enumerate(self.segmentation.segments)
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

    @property
    def change_points(self) -> tuple[int, ...]:
        """The first block of every row but the first: the rows tile the
        blocks, so these are the segmentation's change points."""
        return tuple(row[0] for row in self.rows[1:])

    def to_csv(self) -> str:
        lines = ["block_start,block_end,cluster,is_anomaly"]
        for a, b, label, flagged in self.rows:
            lines.append(f"{a},{b},{label},{'true' if flagged else 'false'}")
        return "\n".join(lines) + "\n"


# the grid's product in (block_size, k, penalty) order and its versions, v1..v24
_REPLICAS = tuple(
    HyperParams(block_size=block_size, penalty=penalty, k=k)
    for block_size, k, penalty in itertools.product(
        DEFAULT_GRID["block_size"], DEFAULT_GRID["k"], DEFAULT_GRID["penalty"]
    )
)
_VERSIONS = tuple(f"v{i + 1}-{hp.digest()}" for i, hp in enumerate(_REPLICAS))


def _plan(window: Rows) -> list[ReplicaResult]:
    """The results of the 24 replicas over one queried window, in replica
    order (_REPLICAS, versioned _VERSIONS); the last step per replica is
    run_replica.

    The window's axes are read from the archive's columns once, and one
    run_readiness call cleans them for every block size of DEFAULT_GRID. Per
    block size, one lockstep pelt_segment call covers every penalty, one
    kmeanspp_init seeding at SWEEP_SEED for the largest k serves
    kmeans_fit(peaks, k, init) once per k, and one silhouette_score call
    scores every k's labels. Replicas share these objects, so their arrays
    must not be modified in place.

    A TwinForgeError from a stage is re-raised under the version of the first
    replica that stage serves (first), so the first failure in plan order
    names its replica; other errors propagate as they are.
    """
    penalties, ks = DEFAULT_GRID["penalty"], DEFAULT_GRID["k"]
    first = 0
    try:
        x, y, z, ts = window.axis_arrays()
        window_start_ts = int(ts[0])
        per_sample_ns = (int(ts[-1]) - window_start_ts) // (len(ts) - 1) if len(ts) > 1 else 0
        results: list[ReplicaResult] = []
        for peaks in run_readiness(x, y, z, DEFAULT_GRID["block_size"]):
            first = len(results)
            segmentations = pelt_segment(peaks, penalties)
            # init is passed by position, as the benchmark's tracer digests
            # an array argument by its bytes and a keyword one by its repr
            init = kmeanspp_init(peaks, min(max(ks), len(peaks)), SWEEP_SEED)
            models = []
            for j, k in enumerate(ks):
                first = len(results) + j * len(penalties)
                # a k past the block count raises KExceedsN before init is read
                models.append(kmeans_fit(peaks, k, init))
            first = len(results)
            scores = silhouette_score(peaks, np.stack([m.labels for m in models]))
            for model, score in zip(models, scores):
                for segmentation in segmentations:
                    i = len(results)
                    results.append(run_replica(
                        _REPLICAS[i], _VERSIONS[i], peaks=peaks, segmentation=segmentation,
                        labels=model.labels, silhouette=score,
                        window_start_ts=window_start_ts, per_sample_ns=per_sample_ns,
                    ))
    except TwinForgeError as exc:
        raise type(exc)(f"{_VERSIONS[first]}: {exc}") from exc
    return results


def run_replica(hp: HyperParams, version: str, **stages) -> ReplicaResult:
    """The replica's result under its version, built from the stage outputs
    the sweep's plan (_plan) shares, given as the rest of ReplicaResult's
    fields: readiness -> segmentation -> clustering + silhouette, its
    segments labelled when first read."""
    return ReplicaResult(replica_version=version, hyperparams=hp, **stages)


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


def flag_anomalies(records: Sequence[SegmentRecord], *, machine: str = "") -> list[AnomalyEvent]:
    """Flag every segment whose cluster covers less than
    DEFAULT_RARITY_THRESHOLD (5%) of all blocks; rarity is that cluster's
    block frequency."""
    if not records:
        return []
    versions = {r.replica_version for r in records}
    if len(versions) != 1:
        raise MixedVersions(f"records span versions {sorted(versions)}")
    cluster_blocks: dict[int, int] = {}
    for r in records:
        a, b = r.block_range
        cluster_blocks[r.cluster_label] = cluster_blocks.get(r.cluster_label, 0) + b - a
    total_blocks = sum(cluster_blocks.values())
    events = []
    for r in records:
        rarity = cluster_blocks[r.cluster_label] / total_blocks
        if rarity < DEFAULT_RARITY_THRESHOLD:
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
    segments: Sequence[SegmentRecord], anomalies: Sequence[AnomalyEvent]
) -> Timeline:
    """Segment rows (block range, majority cluster, anomaly flag) of a
    segmentation's labelled segment records, tiling [0, n_blocks) exactly
    once."""
    flagged = {a.segment_index for a in anomalies}
    rows = tuple(
        (s.block_range[0], s.block_range[1], s.cluster_label, s.segment_index in flagged)
        for s in segments
    )
    return Timeline(rows=rows)


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
    *,
    twin: Optional[TwinInstance] = None,
) -> tuple[BenchmarkReport, Timeline, list[AnomalyEvent]]:
    """End-to-end ZeroConf pipeline over one machine's archived window.

    Queries the window (its accel axes read once from the archive's
    columns), sweeps the 24 replicas of DEFAULT_GRID as one plan, k-means++
    seeded at SWEEP_SEED, ranks by silhouette, records the winner's segment
    records back to the archive, flags rare-cluster anomalies at
    DEFAULT_RARITY_THRESHOLD, assembles the timeline from the same records,
    and emits augmentation events to the twin when one is attached.
    The raw sample log is never touched.

    Records are written only when the winner's version has none archived
    yet. A rerun of the same window is therefore idempotent, but a new window
    won by an already-archived version is silently not recorded.
    """
    window = archive.query_window(WindowQuery(machine, time_range[0], time_range[1]))
    # the first accel row ends the search; the axis read skips the others
    if not any(e.sample.channel in ACCEL_CHANNELS for e in window):
        raise NoData(f"no samples for {machine} in {time_range}")

    report = rank_replicas(_plan(window))
    winner = report.results[0]
    if winner.replica_version not in archive.replica_versions():
        for record in winner.segments:
            archive.record_segment_stats(record)

    anomalies = flag_anomalies(winner.segments, machine=machine)
    timeline = build_timeline(winner.segments, anomalies)
    if twin is not None:
        for anomaly in anomalies:
            emit_augmentation_event(twin, anomaly)
    return report, timeline, anomalies
