"""Versioned append-only time-series archive with tagging, window queries,
quality validation, and segment-statistics memorization.

In-memory store, single logical writer per asset stream, unlimited concurrent
readers. Out-of-order arrivals are stored as-is (seq records arrival order)
and re-sorted at query time, so ingestion stays O(1) and the log remains the
ground truth of what arrived when.
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import OverlappingSegment, UnknownAsset, UnknownReplicaVersion
from .wire import Channel, Quality, TelemetrySample, decode_sample, encode_sample


@dataclass(frozen=True, slots=True)
class ArchiveEntry:
    """One appended sample. tags is read-only and may be shared with other
    entries that carry an equal tag set."""

    seq: int
    sample: TelemetrySample
    tags: Mapping[str, str]


_BY_TS = attrgetter("sample.ts")


@dataclass(frozen=True)
class WindowQuery:
    """Sliding-window selection: [t_start, t_end) plus optional channel, tag
    and quality filters."""

    asset_id: str
    t_start: int
    t_end: int
    channels: Optional[frozenset] = None
    tag_filter: Optional[Mapping[str, str]] = None
    quality_filter: Optional[frozenset] = None

    def __post_init__(self):
        if self.t_start >= self.t_end:
            raise ValueError("t_start must be < t_end")


@dataclass(frozen=True)
class QualityReport:
    freshness_ok: bool
    missing_count: int
    missing_fraction: float
    range_violations: int
    gaps: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SegmentStats:
    mean: tuple[float, float, float]
    peak: tuple[float, float, float]
    duration_blocks: int


@dataclass(frozen=True)
class SegmentRecord:
    """One segment's archived statistics under a replica version."""

    replica_version: str
    segment_index: int
    block_range: tuple[int, int]
    cluster_label: int
    stats: SegmentStats
    created_ts: int


class Archive:
    """Append-only sample log plus versioned segment records."""

    def __init__(self):
        self._lock = threading.RLock()
        self._entries: dict[str, list[ArchiveEntry]] = {}
        self._segments: dict[str, list[SegmentRecord]] = {}
        # tuple(tags.items()) -> read-only view of a private copy, shared by
        # every entry with that tag set
        self._tag_sets: dict[tuple, Mapping[str, str]] = {(): MappingProxyType({})}

    # -- raw samples ---------------------------------------------------------

    def append_sample(
        self, sample: TelemetrySample, tags: Optional[Mapping[str, str]] = None
    ) -> int:
        """Append and return the per-asset sequence number (1-based).

        The entry keeps a read-only copy of tags, so later changes to the
        caller's mapping do not reach it. Equal tag sets share one copy; a
        tag set with an unhashable value gets its own.
        """
        key = tuple(tags.items()) if tags else ()
        with self._lock:
            try:
                stored = self._tag_sets.get(key)
                if stored is None:
                    stored = self._tag_sets[key] = MappingProxyType(dict(key))
            except TypeError:  # unhashable tag value
                stored = MappingProxyType(dict(key))
            log = self._entries.get(sample.asset_id)
            if log is None:
                log = self._entries[sample.asset_id] = []
            seq = len(log) + 1
            log.append(ArchiveEntry(seq, sample, stored))
            return seq

    def assets(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)

    def scan(self, asset_id: str) -> tuple[ArchiveEntry, ...]:
        """Full log for one asset in arrival (seq) order."""
        with self._lock:
            if asset_id not in self._entries:
                raise UnknownAsset(asset_id)
            return tuple(self._entries[asset_id])

    def query_window(self, q: WindowQuery) -> list[ArchiveEntry]:
        """All and only the matching entries, sorted by (ts, seq).

        The result is built from one consistent snapshot of the log: an
        append concurrent with the query is either wholly visible or wholly
        absent, never partial.
        """
        with self._lock:
            if q.asset_id not in self._entries:
                raise UnknownAsset(q.asset_id)
            snapshot = list(self._entries[q.asset_id])
        t_start, t_end = q.t_start, q.t_end
        channels, qualities, tag_filter = q.channels, q.quality_filter, q.tag_filter
        out = []
        for entry in snapshot:
            s = entry.sample
            if not t_start <= s.ts < t_end:
                continue
            if channels is not None and s.channel not in channels:
                continue
            if qualities is not None and s.quality not in qualities:
                continue
            if tag_filter and any(entry.tags.get(k) != v for k, v in tag_filter.items()):
                continue
            out.append(entry)
        out.sort(key=_BY_TS)  # stable on a log in seq order: (ts, seq) order
        return out

    # -- segment records -------------------------------------------------------

    def record_segment_stats(self, record: SegmentRecord) -> None:
        """Persist one segment record; block ranges within a replica version
        must not overlap."""
        a, b = record.block_range
        if a >= b:
            raise ValueError(f"empty block range {record.block_range}")
        with self._lock:
            existing = self._segments.setdefault(record.replica_version, [])
            for other in existing:
                oa, ob = other.block_range
                if a < ob and oa < b:
                    raise OverlappingSegment(
                        f"{record.block_range} overlaps {other.block_range} "
                        f"in {record.replica_version}"
                    )
            existing.append(record)

    def replica_versions(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._segments)

    def segments_for(self, replica_version: str) -> tuple[SegmentRecord, ...]:
        with self._lock:
            if replica_version not in self._segments:
                raise UnknownReplicaVersion(replica_version)
            return tuple(self._segments[replica_version])

    def cluster_frequency_histogram(
        self, replica_version: str, time_range: tuple[int, int]
    ) -> dict[int, int]:
        """Counts of segment records per cluster label with created_ts in
        [t_start, t_end)."""
        t0, t1 = time_range
        records = self.segments_for(replica_version)
        hist: dict[int, int] = {}
        for rec in records:
            if t0 <= rec.created_ts < t1:
                hist[rec.cluster_label] = hist.get(rec.cluster_label, 0) + 1
        return hist

    # -- persistence -----------------------------------------------------------

    def dump(self, trace_path) -> None:
        """Write the raw log in trace format plus a JSON sidecar of segment
        records (trace_path + ".segments.json")."""
        with self._lock:
            entries = [e for asset in sorted(self._entries) for e in self._entries[asset]]
            segments = {v: list(records) for v, records in self._segments.items()}
        with open(trace_path, "w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(encode_sample(entry.sample))
                fh.write("\n")
        sidecar = {
            version: [
                {
                    "segment_index": r.segment_index,
                    "block_range": list(r.block_range),
                    "cluster_label": r.cluster_label,
                    "mean": list(r.stats.mean),
                    "peak": list(r.stats.peak),
                    "duration_blocks": r.stats.duration_blocks,
                    "created_ts": r.created_ts,
                }
                for r in records
            ]
            for version, records in segments.items()
        }
        with open(str(trace_path) + ".segments.json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, trace_path) -> "Archive":
        archive = cls()
        with open(trace_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line:
                    archive.append_sample(decode_sample(line))
        sidecar_path = str(trace_path) + ".segments.json"
        try:
            with open(sidecar_path, encoding="utf-8") as fh:
                sidecar = json.load(fh)
        except FileNotFoundError:
            return archive
        for version, records in sidecar.items():
            for r in records:
                archive.record_segment_stats(
                    SegmentRecord(
                        replica_version=version,
                        segment_index=r["segment_index"],
                        block_range=tuple(r["block_range"]),
                        cluster_label=r["cluster_label"],
                        stats=SegmentStats(
                            mean=tuple(r["mean"]),
                            peak=tuple(r["peak"]),
                            duration_blocks=r["duration_blocks"],
                        ),
                        created_ts=r["created_ts"],
                    )
                )
        return archive


def validate_quality(
    samples: Sequence[TelemetrySample],
    nominal_period: int,
    now: int,
    freshness_timeout: int,
) -> QualityReport:
    """Freshness, missing-value, gap and range checks over a time-ordered
    sample list.

    A gap is any inter-sample spacing over 3x the nominal period; range
    violations count plc_state codes outside 0..3. Empty input reports
    freshness_ok=False with zeros elsewhere.
    """
    if not samples:
        return QualityReport(False, 0, 0.0, 0, ())
    missing = sum(1 for s in samples if s.quality is Quality.missing)
    violations = sum(
        1
        for s in samples
        if s.channel is Channel.plc_state and s.value not in (0.0, 1.0, 2.0, 3.0)
    )
    gaps = []
    for prev, cur in zip(samples, samples[1:]):
        if cur.ts - prev.ts > 3 * nominal_period:
            gaps.append((prev.ts, cur.ts))
    return QualityReport(
        freshness_ok=(now - samples[-1].ts) <= freshness_timeout,
        missing_count=missing,
        missing_fraction=missing / len(samples),
        range_violations=violations,
        gaps=tuple(gaps),
    )
