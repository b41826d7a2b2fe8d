"""Versioned append-only time-series archive with tagging, window queries,
quality validation, and segment-statistics memorization.

In-memory store, single logical writer per asset stream, unlimited concurrent
readers. Out-of-order arrivals are stored as-is (seq records arrival order),
so ingestion stays O(1) and the log remains the ground truth of what arrived
when. Each asset has a time index that queries extend over the rows appended
since that asset's last query: while the rows arrive in ts order the log is
its own index; after the first out-of-order arrival the index is a separate
(ts, seq)-ordered list. A window query is two binary searches and a slice.
"""
from __future__ import annotations

import json
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter, gt
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import OverlappingSegment, UnknownAsset, UnknownReplicaVersion
from .wire import Channel, Quality, TelemetrySample, encode_sample, replay_trace


@dataclass(frozen=True, slots=True)
class ArchiveEntry:
    """One appended sample. tags is read-only and may be shared with other
    entries that carry an equal tag set."""

    seq: int
    sample: TelemetrySample
    tags: Mapping[str, str]


_BY_TS = attrgetter("sample.ts")


class _TimeIndex:
    """One asset's entries log[:upto] in (ts, seq) order. rows is the log
    itself while the log is in ts order, else a permutation of it."""

    __slots__ = ("log", "rows", "upto")

    def __init__(self, log: list):
        self.log = self.rows = log
        self.upto = 0

    def extend(self) -> list:
        """Cover the entries appended since the last call; return rows."""
        log, upto = self.log, self.upto
        n = len(log)
        if upto < n:
            if self.rows is log:
                ts = list(map(_BY_TS, log[max(upto - 1, 0) : n]))
                if any(map(gt, ts, islice(ts, 1, None))):
                    self.rows = log[:upto]  # first out-of-order arrival
            if self.rows is not log:
                _fold_in(self.rows, log[upto:n])
            self.upto = n
        return self.rows


def _fold_in(rows: list, new: list) -> None:
    """Merge later arrivals into rows, a (ts, seq)-ordered list. Every new
    entry has a higher seq than every row, so a stable sort by ts of the
    tail from the earliest new ts on keeps (ts, seq) order."""
    pos = bisect_right(rows, min(map(_BY_TS, new)), key=_BY_TS)
    rows.extend(new)
    rows[pos:] = sorted(rows[pos:], key=_BY_TS)


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
        self._index: dict[str, _TimeIndex] = {}
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

    def _ordered(self, asset_id: str) -> list[ArchiveEntry]:
        """The asset's entries in (ts, seq) order, its time index brought up
        to date. Call with the lock held."""
        index = self._index.get(asset_id)
        if index is None:
            if asset_id not in self._entries:
                raise UnknownAsset(asset_id)
            index = self._index[asset_id] = _TimeIndex(self._entries[asset_id])
        return index.extend()

    def _window_rows(self, asset_id: str, t_start: int, t_end: int) -> list[ArchiveEntry]:
        """Entries with t_start <= ts < t_end in (ts, seq) order: the rows a
        query filters."""
        with self._lock:
            rows = self._ordered(asset_id)
            lo = bisect_left(rows, t_start, key=_BY_TS)
            return rows[lo : bisect_left(rows, t_end, lo, key=_BY_TS)]

    def time_span(self, asset_id: str) -> tuple[int, int]:
        """(min ts, max ts + 1) of the asset's entries: the smallest window
        that holds them all."""
        with self._lock:
            rows = self._ordered(asset_id)
            return rows[0].sample.ts, rows[-1].sample.ts + 1

    def query_window(self, q: WindowQuery) -> list[ArchiveEntry]:
        """All and only the matching entries, sorted by (ts, seq).

        The result is built from one consistent snapshot of the log: an
        append concurrent with the query is either wholly visible or wholly
        absent, never partial.
        """
        rows = self._window_rows(q.asset_id, q.t_start, q.t_end)
        channels, qualities, tag_filter = q.channels, q.quality_filter, q.tag_filter
        out = []
        for entry in rows:
            s = entry.sample
            if channels is not None and s.channel not in channels:
                continue
            if qualities is not None and s.quality not in qualities:
                continue
            if tag_filter and any(entry.tags.get(k) != v for k, v in tag_filter.items()):
                continue
            out.append(entry)
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
        """Read back what dump wrote. A malformed or non-UTF-8 trace line
        raises MalformedLine naming its line number."""
        archive = cls()
        for sample in replay_trace(trace_path):
            archive.append_sample(sample)
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
