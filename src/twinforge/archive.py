"""Versioned append-only time-series archive with tagging, window queries
and versioned segment records.

In-memory store, single logical writer per asset stream, unlimited concurrent
readers. Each asset's rows are typed columns, one array.array each: ts
(int64), value (float64), channel and quality codes (uint8) and the id of the
row's tag set among read-only tag views the whole archive shares. An append
keeps no object per row, so a bulk load starts no garbage collection. A row's
seq is its position plus one. Out-of-order arrivals are stored as-is (seq
records arrival order), so ingestion stays O(1) and the columns remain the
ground truth of what arrived when. Window queries and time_span read one
view of the row positions in (ts, seq) order: the range of all positions
until an append's ts is below the previous row's, and from then on a
permutation that each query extends over the rows appended since. A window
query is two binary searches over that view, keyed by ts.

scan and query_window return Rows, a read-only sequence fixed at query time
that builds each ArchiveEntry, with the public constructors, when it is read:
an entry read back is equal to the one appended, not the same object, and its
tags are the shared view. Rows.axis_arrays reads the accelerometer axes
straight from the columns.
"""
from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Union

import numpy as np

from .errors import AxisLengthMismatch, OverlappingSegment, UnknownAsset, UnknownReplicaVersion
from .wire import ACCEL_CHANNELS, Channel, Quality, TelemetrySample


@dataclass(frozen=True, slots=True)
class ArchiveEntry:
    """One appended sample. tags is read-only and may be shared with other
    entries that carry an equal tag set."""

    seq: int
    sample: TelemetrySample
    tags: Mapping[str, str]


# Column codes: a member's position in its enum. Both enums are str enums
# whose values are their names, so a plain string codes as its member.
_CHANNELS = tuple(Channel)
_QUALITIES = tuple(Quality)
_CHANNEL_CODE = {ch: code for code, ch in enumerate(_CHANNELS)}
_QUALITY_CODE = {q: code for code, q in enumerate(_QUALITIES)}
_ACCEL_CODES = tuple(_CHANNEL_CODE[ch] for ch in ACCEL_CHANNELS)
_MISSING_CODE = _QUALITY_CODE[Quality.missing]


class _Columns:
    """One asset's rows, one typed column per field. Rows are only
    appended, so a prefix of the columns never changes. order is None until
    the first query after an append sets late; from then on it is a
    permutation of rows [0, upto) in (ts, seq) order, and every query
    extends it to the rows appended since."""

    __slots__ = ("asset_id", "ts", "value", "channel", "quality", "tag", "late", "order", "upto")

    def __init__(self, asset_id: str):
        self.asset_id = asset_id
        self.ts = array("q")
        self.value = array("d")
        self.channel = array("B")
        self.quality = array("B")
        self.tag = array("I")
        self.late = False
        self.order: Optional[array] = None
        self.upto = 0

    def fields(self) -> tuple[array, ...]:
        return self.ts, self.value, self.channel, self.quality, self.tag

    def ordered(self) -> Positions:
        """The positions of every row appended so far in (ts, seq) order:
        the rows themselves while none arrived late, else order. Call with
        the lock held."""
        ts = self.ts
        n = len(ts)
        if not self.late:
            return range(n)
        if self.order is None:
            self.order = array("q")
        order, upto = self.order, self.upto
        if upto < n:
            # every new row has a higher seq than every ordered one, so a
            # stable sort by ts of the tail from the earliest new ts keeps
            # the order
            key = ts.__getitem__
            pos = bisect_right(order, min(ts[upto:n]), key=key)
            order[pos:] = array("q", sorted([*order[pos:], *range(upto, n)], key=key))
            self.upto = n
        return order


# Row positions: a range of positions in step 1, or an int64 array.array
# that is the reader's own copy and never grows.
Positions = Union[range, array]


def _gather(column: array, positions: Positions) -> np.ndarray:
    """A copy of column's values at positions. Call with the archive lock
    held: the numpy view of the column lives only inside this call, and an
    array.array refuses to grow while a view of its buffer exists."""
    if not positions:
        return np.empty(0, dtype=column.typecode)
    view = np.frombuffer(column, dtype=column.typecode)
    if type(positions) is range:
        return view[positions.start : positions.stop].copy()
    return view[np.frombuffer(positions, dtype=np.int64)]


class Rows(Sequence):
    """Read-only sequence of archive entries, fixed at query time: it holds
    row positions into its asset's columns, and builds each ArchiveEntry
    when it is read. Equal to a list or tuple of the same entries. The
    columns' rows it names never change, so reading an entry takes no lock;
    axis_arrays takes the archive lock to copy from the columns."""

    __slots__ = ("_lock", "_views", "_cols", "_pos")

    def __init__(self, lock, views: list, cols: _Columns, positions: Positions):
        self._lock, self._views, self._cols, self._pos = lock, views, cols, positions

    def __len__(self) -> int:
        return len(self._pos)

    def _row(self, p: int) -> ArchiveEntry:
        c = self._cols
        sample = TelemetrySample(
            c.asset_id, _CHANNELS[c.channel[p]], c.ts[p], c.value[p], _QUALITIES[c.quality[p]]
        )
        return ArchiveEntry(p + 1, sample, self._views[c.tag[p]])

    def __getitem__(self, i):
        if isinstance(i, slice):
            pos = self._pos[i]
            if type(pos) is range and pos.step != 1:
                pos = array("q", pos)
            return Rows(self._lock, self._views, self._cols, pos)
        return self._row(self._pos[i])

    def __iter__(self):
        return map(self._row, self._pos)

    def __eq__(self, other):
        if not isinstance(other, (Rows, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Rows({list(self)!r})"

    def axis_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The three accel axes of these rows, in row order, plus the ts of
        the first axis: (x, y, z, ts), float64 and int64 arrays copied from
        the columns, every other channel skipped. A missing-quality value
        becomes NaN (filled by the readiness stage).
        Raises AxisLengthMismatch unless the axes have one nonzero length."""
        cols, pos = self._cols, self._pos
        with self._lock:
            channel = _gather(cols.channel, pos)
            value = _gather(cols.value, pos)
            quality = _gather(cols.quality, pos)
            ts = _gather(cols.ts, pos)
        value[quality == _MISSING_CODE] = np.nan
        is_x, is_y, is_z = (channel == code for code in _ACCEL_CODES)
        x, y, z = value[is_x], value[is_y], value[is_z]
        if not len(x) == len(y) == len(z) or not len(x):
            lengths = {ch.value: len(v) for ch, v in zip(ACCEL_CHANNELS, (x, y, z))}
            raise AxisLengthMismatch(f"accel channels misaligned: {lengths}")
        return x, y, z, ts[is_x]


@dataclass(frozen=True)
class WindowQuery:
    """Sliding-window selection: one asset's rows with t_start <= ts < t_end."""

    asset_id: str
    t_start: int
    t_end: int

    def __post_init__(self):
        if self.t_start >= self.t_end:
            raise ValueError("t_start must be < t_end")


@dataclass(frozen=True)
class SegmentRecord:
    """One labelled segment of a replica version's segmentation."""

    replica_version: str
    segment_index: int
    block_range: tuple[int, int]
    cluster_label: int
    created_ts: int


class Archive:
    """Append-only sample columns plus versioned segment records."""

    def __init__(self):
        self._lock = threading.RLock()
        self._columns: dict[str, _Columns] = {}
        self._segments: dict[str, list[SegmentRecord]] = {}
        # a row's tag id indexes _tag_views: read-only views of private
        # copies, one per distinct tag set (tuple(tags.items()) -> id in
        # _tag_ids)
        self._tag_views: list[Mapping[str, str]] = [MappingProxyType({})]
        self._tag_ids: dict[tuple, int] = {(): 0}
        # the last tag set's view and id: a mapping equal to it, with the
        # same key order, skips the key
        self._last_stored = self._tag_views[0]
        self._last_id = 0

    # -- raw samples ---------------------------------------------------------

    def _tag_id(self, tags: Optional[Mapping[str, str]]) -> int:
        """The id of the read-only view of a tags mapping other than the
        last tag set. An unhashable tag value raises TypeError and stores
        nothing. Call with the lock held."""
        key = tuple(tags.items()) if tags else ()
        views = self._tag_views
        tag_id = self._tag_ids.get(key)
        if tag_id is None:
            tag_id = self._tag_ids[key] = len(views)
            views.append(MappingProxyType(dict(key)))
        self._last_stored, self._last_id = views[tag_id], tag_id
        return tag_id

    def append_sample(
        self, sample: TelemetrySample, tags: Optional[Mapping[str, str]] = None
    ) -> int:
        """Append and return the per-asset sequence number (1-based).

        The row keeps a read-only copy of tags, so later changes to the
        caller's mapping do not reach it. Equal tag sets share one copy. A
        tag set with an unhashable value, or a sample no column can hold (a
        ts outside int64, a value that is no float), raises and changes no
        column.
        """
        with self._lock:
            stored = self._last_stored
            if tags == stored and (len(tags) < 2 or list(tags) == list(stored)):
                # the last tag set, its keys in the same order
                tag_id = self._last_id
            else:
                tag_id = self._tag_id(tags)
            asset_id = sample.asset_id
            cols = self._columns.get(asset_id)
            new = cols is None
            if new:
                cols = _Columns(asset_id)
            ts = sample.ts
            ts_col = cols.ts
            n = len(ts_col)
            late = n and ts < ts_col[-1]
            channel = _CHANNEL_CODE[sample.channel]
            quality = _QUALITY_CODE[sample.quality]
            try:
                ts_col.append(ts)
                cols.value.append(sample.value)
                cols.channel.append(channel)
                cols.quality.append(quality)
                cols.tag.append(tag_id)
            except BaseException:
                for column in cols.fields():  # keep the columns aligned
                    del column[n:]
                raise
            if new:
                self._columns[asset_id] = cols
            elif late:
                cols.late = True
            return n + 1

    def assets(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._columns)

    def _cols(self, asset_id: str) -> _Columns:
        cols = self._columns.get(asset_id)
        if cols is None:
            raise UnknownAsset(asset_id)
        return cols

    def _rows(self, cols: _Columns, positions: Positions) -> Rows:
        return Rows(self._lock, self._tag_views, cols, positions)

    def scan(self, asset_id: str) -> Rows:
        """Full log for one asset in arrival (seq) order."""
        with self._lock:
            cols = self._cols(asset_id)
            return self._rows(cols, range(len(cols.ts)))

    def _window_rows(self, cols: _Columns, t_start: int, t_end: int) -> Positions:
        """Positions of the rows with t_start <= ts < t_end in (ts, seq)
        order. Call with the lock held."""
        order, key = cols.ordered(), cols.ts.__getitem__
        lo = bisect_left(order, t_start, key=key)
        return order[lo : bisect_left(order, t_end, lo, key=key)]

    def time_span(self, asset_id: str) -> tuple[int, int]:
        """(min ts, max ts + 1) of the asset's entries: the smallest window
        that holds them all."""
        with self._lock:
            cols = self._cols(asset_id)
            ts, order = cols.ts, cols.ordered()
            return ts[order[0]], ts[order[-1]] + 1

    def query_window(self, q: WindowQuery) -> Rows:
        """All and only the window's entries, sorted by (ts, seq).

        The result is fixed from one consistent snapshot of the columns: an
        append concurrent with the query is either wholly visible or wholly
        absent, never partial.
        """
        with self._lock:
            cols = self._cols(q.asset_id)
            return self._rows(cols, self._window_rows(cols, q.t_start, q.t_end))

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
