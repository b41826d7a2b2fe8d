import dataclasses
import itertools
import sys
import threading
from array import array
from collections.abc import Sequence
import tracemalloc

import numpy as np
import pytest
from oracles import reference_axis_series, reference_query_window

import twinforge.rng as rng
from twinforge import archive as archive_module
from twinforge import wire
from twinforge.archive import (
    Archive,
    ArchiveEntry,
    SegmentRecord,
    SegmentStats,
    WindowQuery,
    validate_quality,
)
from twinforge.errors import (
    AxisLengthMismatch,
    MalformedLine,
    OverlappingSegment,
    UnknownAsset,
    UnknownReplicaVersion,
)
from twinforge.wire import ACCEL_CHANNELS, Channel, Quality, TelemetrySample


def sample(ts, asset="m1", channel=Channel.accel_x, value=0.0, quality=Quality.good):
    return TelemetrySample(asset, channel, ts, value, quality)


def record(version="v1-abc", index=0, block_range=(0, 10), label=0, created_ts=0):
    return SegmentRecord(
        replica_version=version,
        segment_index=index,
        block_range=block_range,
        cluster_label=label,
        stats=SegmentStats(
            mean=(0.0, 0.0, 0.0),
            peak=(1.0, 1.0, 1.0),
            duration_blocks=block_range[1] - block_range[0],
        ),
        created_ts=created_ts,
    )


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # an entry's read-only tags are unhashable
        return type(exc), str(exc)


_SAMPLE_ARGS = ("m1", Channel.plc_state, 7, -0.0, Quality.suspect)
_RECORDS = {
    "sample": (wire._sample, TelemetrySample, _SAMPLE_ARGS),
}


class TestRecordConstructors:
    """decode_sample builds its samples through a private constructor that
    fills the slots directly; the records must be the ones the public
    constructor builds. The archive's reads use the public constructors."""

    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_same_record_as_public_constructor(self, name):
        private, cls, args = _RECORDS[name]
        fast, public = private(*args), cls(*args)
        assert type(fast) is cls
        assert fast == public and public == fast
        assert _hash_or_error(fast) == _hash_or_error(public)
        assert repr(fast) == repr(public)
        for field in dataclasses.fields(cls):
            assert getattr(fast, field.name) is getattr(public, field.name)

    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_frozen_and_slotted(self, name):
        private, cls, args = _RECORDS[name]
        record = private(*args)
        assert not hasattr(record, "__dict__")
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, None)
        assert record == cls(*args)

    def test_decode_and_append_build_equal_records(self):
        line = wire.encode_sample(TelemetrySample(*_SAMPLE_ARGS))
        decoded = wire.decode_sample(line)
        archive = Archive()
        archive.append_sample(decoded, {"phase": "Bound"})
        (entry,) = archive.scan("m1")
        assert entry == ArchiveEntry(1, TelemetrySample("m1", Channel.plc_state, 7, 0.0,
                                                        Quality.suspect), {"phase": "Bound"})
        assert not hasattr(entry, "__dict__") and not hasattr(decoded, "__dict__")
        for field in dataclasses.fields(ArchiveEntry):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(entry, field.name, None)


class TestAppend:
    def test_seq_starts_at_one_and_increments(self):
        archive = Archive()
        assert archive.append_sample(sample(5)) == 1
        assert archive.append_sample(sample(6)) == 2
        assert archive.append_sample(sample(1, asset="m2")) == 1

    def test_read_your_writes(self):
        archive = Archive()
        archive.append_sample(sample(7))
        hits = archive.query_window(WindowQuery("m1", 0, 10))
        assert [e.sample.ts for e in hits] == [7]


class TestTags:
    def test_equal_tag_sets_share_one_mapping(self):
        archive = Archive()
        archive.append_sample(sample(1), {"phase": "Bound"})
        archive.append_sample(sample(2), {"phase": "Bound"})
        archive.append_sample(sample(3, asset="m2"), dict(phase="Bound"))
        archive.append_sample(sample(4), {"phase": "Synchronized"})
        a, b, c = archive.scan("m1")
        (d,) = archive.scan("m2")
        assert a.tags is b.tags is d.tags
        assert c.tags == {"phase": "Synchronized"}

    def test_stored_tags_read_only_and_private(self):
        archive = Archive()
        tags = {"phase": "Bound"}
        archive.append_sample(sample(1), tags)
        tags["phase"] = "Done"
        tags["extra"] = "x"
        (entry,) = archive.scan("m1")
        assert entry.tags == {"phase": "Bound"}
        with pytest.raises(TypeError):
            entry.tags["phase"] = "Done"

    def test_unhashable_tag_value_still_appends(self):
        archive = Archive()
        tags = {"ops": ["a", "b"]}
        assert archive.append_sample(sample(1), tags) == 1
        assert archive.append_sample(sample(2), {"ops": ["a", "b"]}) == 2
        tags["ops"] = []
        first, second = archive.scan("m1")
        assert first.tags == second.tags == {"ops": ["a", "b"]}
        hits = archive.query_window(WindowQuery("m1", 0, 10, tag_filter={"ops": ["a", "b"]}))
        assert [e.seq for e in hits] == [1, 2]

    def test_no_tags_store_empty_mapping(self):
        archive = Archive()
        archive.append_sample(sample(1))
        archive.append_sample(sample(2), {})
        first, second = archive.scan("m1")
        assert first.tags == second.tags == {}
        with pytest.raises(TypeError):
            first.tags["phase"] = "Bound"

    def test_bytes_per_sample(self):
        # each append brings a fresh tags dict, as ingest does
        samples = [sample(i, value=float(i)) for i in range(10_000)]
        phases = ["Bound" if i < 10 else "Synchronized" for i in range(10_000)]
        archive = Archive()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for s, phase in zip(samples, phases):
                archive.append_sample(s, tags={"phase": phase})
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (after - before) / len(samples) <= 32


class TestQuery:
    def build(self):
        archive = Archive()
        # 10-sample fixture with known tags; entries 3,5,8 are Synchronized
        for i in range(10):
            phase = "Synchronized" if i in (3, 5, 8) else "Bound"
            q = Quality.missing if i == 6 else Quality.good
            ch = Channel.accel_y if i % 2 else Channel.accel_x
            archive.append_sample(sample(i * 10, channel=ch, quality=q), {"phase": phase})
        return archive

    def test_everything_ordered(self):
        archive = self.build()
        hits = archive.query_window(WindowQuery("m1", 0, 1000))
        assert [e.sample.ts for e in hits] == [i * 10 for i in range(10)]

    def test_disjoint_range_empty(self):
        assert self.build().query_window(WindowQuery("m1", 5000, 6000)) == []

    def test_tag_filter_exact_subset(self):
        hits = self.build().query_window(
            WindowQuery("m1", 0, 1000, tag_filter={"phase": "Synchronized"})
        )
        # hand enumeration: entries at indices 3, 5, 8
        assert [e.seq for e in hits] == [4, 6, 9]

    def test_channel_and_quality_filters(self):
        archive = self.build()
        accel_x = archive.query_window(
            WindowQuery("m1", 0, 1000, channels=frozenset({Channel.accel_x}))
        )
        assert all(e.sample.channel is Channel.accel_x for e in accel_x)
        assert len(accel_x) == 5
        good = archive.query_window(
            WindowQuery("m1", 0, 1000, quality_filter=frozenset({Quality.good}))
        )
        assert len(good) == 9

    def test_unknown_asset(self):
        with pytest.raises(UnknownAsset):
            self.build().query_window(WindowQuery("ghost", 0, 1))

    def test_out_of_order_arrivals_sorted_at_query(self):
        archive = Archive()
        for ts in (30, 10, 20):
            archive.append_sample(sample(ts))
        hits = archive.query_window(WindowQuery("m1", 0, 100))
        assert [e.sample.ts for e in hits] == [10, 20, 30]
        assert [e.seq for e in hits] == [2, 3, 1]

    def test_equal_ts_kept_in_arrival_order(self):
        archive = Archive()
        for ts in (20, 10, 20, 10, 30):
            archive.append_sample(sample(ts))
        hits = archive.query_window(WindowQuery("m1", 0, 100))
        assert [(e.sample.ts, e.seq) for e in hits] == [(10, 2), (10, 4), (20, 1), (20, 3), (30, 5)]

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            WindowQuery("m1", 5, 5)

    def test_late_arrival_after_in_order_queries(self):
        archive = Archive()
        for ts in (10, 20, 30):
            archive.append_sample(sample(ts))
        assert [e.seq for e in archive.query_window(WindowQuery("m1", 0, 100))] == [1, 2, 3]
        for ts in (40, 15, 20, 5):
            archive.append_sample(sample(ts))
        hits = archive.query_window(WindowQuery("m1", 0, 100))
        assert [(e.sample.ts, e.seq) for e in hits] == [
            (5, 7), (10, 1), (15, 5), (20, 2), (20, 6), (30, 3), (40, 4)
        ]
        assert archive.time_span("m1") == (5, 41)
        archive.append_sample(sample(50))
        hits = archive.query_window(WindowQuery("m1", 15, 45))
        assert [e.seq for e in hits] == [5, 2, 6, 3, 4]

    def test_time_span(self):
        archive = Archive()
        archive.append_sample(sample(30))
        assert archive.time_span("m1") == (30, 31)
        archive.append_sample(sample(10))
        archive.append_sample(sample(20, asset="m2"))
        assert archive.time_span("m1") == (10, 31)
        assert archive.time_span("m2") == (20, 21)
        with pytest.raises(UnknownAsset):
            archive.time_span("ghost")


class TestQualityValidation:
    def test_clean_stream(self):
        samples = [sample(i * 10) for i in range(10)]
        report = validate_quality(samples, nominal_period=10, now=90, freshness_timeout=50)
        assert report.freshness_ok
        assert report.missing_count == 0
        assert report.gaps == ()
        assert report.range_violations == 0

    def test_gap_detection(self):
        # 3x rule: spacing of 10 periods is one gap spanning it
        ts = [0, 10, 20, 120, 130]
        report = validate_quality(
            [sample(t) for t in ts], nominal_period=10, now=130, freshness_timeout=50
        )
        assert report.gaps == ((20, 120),)

    def test_missing_fraction(self):
        samples = [
            sample(i, quality=Quality.missing if i < 2 else Quality.good)
            for i in range(8)
        ]
        report = validate_quality(samples, 1, now=8, freshness_timeout=10)
        assert report.missing_count == 2
        assert report.missing_fraction == pytest.approx(0.25)

    def test_stale_stream(self):
        report = validate_quality([sample(0)], 1, now=100, freshness_timeout=50)
        assert not report.freshness_ok

    def test_empty_input(self):
        report = validate_quality([], 1, now=0, freshness_timeout=1)
        assert not report.freshness_ok
        assert report.missing_count == 0
        assert report.gaps == ()

    def test_plc_range_violation(self):
        bad = sample(0, channel=Channel.plc_state, value=9.0, quality=Quality.suspect)
        report = validate_quality([bad], 1, now=0, freshness_timeout=1)
        assert report.range_violations == 1


class TestSegmentRecords:
    def test_contiguous_accepted_overlap_rejected(self):
        archive = Archive()
        archive.record_segment_stats(record(block_range=(0, 10)))
        archive.record_segment_stats(record(index=1, block_range=(10, 25)))
        with pytest.raises(OverlappingSegment):
            archive.record_segment_stats(record(index=2, block_range=(20, 30)))

    def test_other_version_does_not_collide(self):
        archive = Archive()
        archive.record_segment_stats(record(version="v1-a", block_range=(0, 10)))
        archive.record_segment_stats(record(version="v2-b", block_range=(0, 10)))
        assert set(archive.replica_versions()) == {"v1-a", "v2-b"}

    def test_histogram_counts(self):
        archive = Archive()
        for i, label in enumerate([0, 0, 1, 2, 0]):
            archive.record_segment_stats(
                record(index=i, block_range=(i * 10, (i + 1) * 10), label=label, created_ts=i)
            )
        hist = archive.cluster_frequency_histogram("v1-abc", (0, 100))
        assert hist == {0: 3, 1: 1, 2: 1}

    def test_histogram_time_range(self):
        archive = Archive()
        for i in range(6):
            archive.record_segment_stats(
                record(index=i, block_range=(i * 10, (i + 1) * 10), label=i % 2, created_ts=i * 100)
            )
        hist = archive.cluster_frequency_histogram("v1-abc", (0, 300))
        assert hist == {0: 2, 1: 1}
        assert sum(hist.values()) == 3

    def test_unknown_version(self):
        with pytest.raises(UnknownReplicaVersion):
            Archive().cluster_frequency_histogram("ghost", (0, 1))

    def test_empty_range_empty_map(self):
        archive = Archive()
        archive.record_segment_stats(record(created_ts=1000))
        assert archive.cluster_frequency_histogram("v1-abc", (0, 10)) == {}


class TestPersistence:
    def test_dump_load_round_trip(self, tmp_path):
        archive = Archive()
        for i in range(20):
            archive.append_sample(sample(i, asset="m1" if i % 2 else "m2", value=i / 3))
        archive.record_segment_stats(record(block_range=(0, 5), created_ts=3))
        archive.record_segment_stats(record(index=1, block_range=(5, 9), created_ts=7))
        path = tmp_path / "dump.jsonl"
        archive.dump(path)
        loaded = Archive.load(path)
        for asset in ("m1", "m2"):
            assert [e.sample for e in loaded.scan(asset)] == [
                e.sample for e in archive.scan(asset)
            ]
        assert loaded.segments_for("v1-abc") == archive.segments_for("v1-abc")
        # one machine's log keeps its file order, so its dump is the trace itself
        trace = tmp_path / "m1.jsonl"
        channels = (Channel.accel_x, Channel.accel_y)
        wire.write_trace(trace, [sample(i, channel=channels[i % 2], value=i / 3) for i in range(20)])
        Archive.load(trace).dump(path)
        assert path.read_bytes() == trace.read_bytes()

    @pytest.mark.parametrize(
        "bad, reason",
        [(b'{"asset": "m1"}\n', "wrong key set"), (b"\xff\xfe\n", "not UTF-8")],
    )
    def test_load_names_the_malformed_line(self, tmp_path, bad, reason):
        archive = Archive()
        for i in range(4):
            archive.append_sample(sample(i))
        path = tmp_path / "dump.jsonl"
        archive.dump(path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]) + bad + b"".join(lines[2:]))
        with pytest.raises(MalformedLine, match=f"^line 3: .*{reason}"):
            Archive.load(path)


class TestProperties:
    def test_append_only_audit(self):
        # interleaved appends/queries; the full scan must equal the append log
        archive = Archive()
        key = rng.stream_key(99, "audit")
        u = rng.uniforms(key, np.arange(3000, dtype=np.uint64))
        shadow = {"m1": [], "m2": []}
        for i, x in enumerate(u):
            asset = "m1" if x < 0.5 else "m2"
            s = sample(int(x * 1e6), asset=asset, value=float(i))
            archive.append_sample(s)
            shadow[asset].append(s)
            if i % 17 == 0:
                archive.query_window(WindowQuery(asset, 0, 10**7))
        for asset, expected in shadow.items():
            assert [e.sample for e in archive.scan(asset)] == expected
            assert [e.seq for e in archive.scan(asset)] == list(
                range(1, len(expected) + 1)
            )

    def test_query_partition_by_tag_is_lossless(self):
        archive = Archive()
        key = rng.stream_key(7, "partition")
        u = rng.uniforms(key, np.arange(500, dtype=np.uint64))
        tags = ["a", "b", "c"]
        for i, x in enumerate(u):
            archive.append_sample(sample(i, value=float(x)), {"t": tags[int(x * 3)]})
        everything = archive.query_window(WindowQuery("m1", 0, 10**6))
        parts = [
            archive.query_window(WindowQuery("m1", 0, 10**6, tag_filter={"t": t}))
            for t in tags
        ]
        union = sorted(
            (e for part in parts for e in part), key=lambda e: (e.sample.ts, e.seq)
        )
        assert union == everything

    def test_concurrent_reads_see_consistent_prefixes(self):
        # readers must never observe gaps in seq: an entry is visible only
        # after its append fully completed
        archive = Archive()
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                entries = archive.scan("m1") if "m1" in archive.assets() else ()
                seqs = [e.seq for e in entries]
                if seqs != list(range(1, len(seqs) + 1)):
                    failures.append(seqs)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for i in range(5000):
            archive.append_sample(sample(i, value=float(i)))
        stop.set()
        for t in threads:
            t.join()
        assert not failures


class CountingTs(array):
    """An int64 ts column that records every position read from it."""

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


class TestTimeIndexTracksOrderAtAppend:
    def count_ts_reads(self, archive, asset="m1"):
        cols = archive._columns[asset]
        counted = CountingTs("q", cols.ts)
        counted.reads = []
        cols.ts = counted
        return counted.reads

    def test_in_order_log_is_its_own_index_and_a_query_reads_only_its_bisects(self):
        archive = Archive()
        for ts in range(0, 1000, 10):
            archive.append_sample(sample(ts))
        calls = self.count_ts_reads(archive)
        hits = archive.query_window(WindowQuery("m1", 200, 400))
        reads = len(calls)  # before the entries are read, which reads ts too
        assert [e.sample.ts for e in hits] == list(range(200, 400, 10))
        # two binary searches over 100 rows, no walk over the appended rows
        assert 0 < reads <= 2 * (100).bit_length()
        cols = archive._columns["m1"]
        assert cols.order is None and not cols.late
        for ts in range(1000, 2000, 10):
            archive.append_sample(sample(ts))
        calls.clear()
        archive.query_window(WindowQuery("m1", 1500, 1600))
        assert 0 < len(calls) <= 2 * (200).bit_length()
        assert cols.order is None

    def test_one_late_append_switches_to_a_permutation(self):
        archive = Archive()
        for ts in (10, 20, 20, 30):
            archive.append_sample(sample(ts))
        assert not archive._columns["m1"].late  # an equal ts is in order
        archive.query_window(WindowQuery("m1", 0, 100))
        archive.append_sample(sample(15))
        cols = archive._columns["m1"]
        assert cols.late and cols.order is None
        hits = archive.query_window(WindowQuery("m1", 0, 100))
        assert cols.order is not None
        assert [(e.sample.ts, e.seq) for e in hits] == [(10, 1), (15, 5), (20, 2), (20, 3), (30, 4)]

    def test_unfiltered_query_is_the_window_slice(self):
        archive = Archive()
        for ts in range(10):
            archive.append_sample(sample(ts, channel=CHANNELS[ts % 4]), {"phase": "Bound"})
        hits = archive.query_window(WindowQuery("m1", 2, 8))
        assert hits == reference_query_window(archive, WindowQuery("m1", 2, 8))
        assert hits == list(archive.scan("m1")[2:8])


CHANNELS = tuple(Channel)
QUALITIES = tuple(Quality)
TAG_SETS = (None, {"phase": "Bound"}, {"phase": "Synchronized"}, {"ops": ["a", "b"]})


def random_query(asset, u):
    """A window query drawn from six uniforms in [0, 1)."""
    t0 = int(u[0] * 600) - 100
    channels = None if u[1] < 0.5 else frozenset(CHANNELS[: 1 + int(u[1] * 8) % 4])
    qualities = None if u[2] < 0.6 else frozenset({QUALITIES[int(u[2] * 10) % 3]})
    tag_filter = None if u[3] < 0.5 else TAG_SETS[1 + int(u[3] * 6) % 3]
    return WindowQuery(asset, t0, t0 + 1 + int(u[4] * 600), channels, tag_filter, qualities)


class TestQueryOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleavings_equal_reference(self, seed):
        # each asset starts in ts order; from a random point on some of its
        # rows arrive late or with a repeated ts, so both index forms and
        # the switch between them are queried
        key = rng.stream_key(seed, "archive-oracle")
        u = rng.uniforms(key, np.arange(8 * 1500, dtype=np.uint64)).reshape(1500, 8)
        archive = Archive()
        assets = ("m1", "m2", "m3")
        clock = dict.fromkeys(assets, 0)
        disorder_from = {a: 100 + int(u[i, 0] * 900) for i, a in enumerate(assets)}
        queries = 0
        for i, r in enumerate(u):
            asset = assets[int(r[0] * 3)]
            if r[1] < 0.1 and asset in archive.assets():
                q = random_query(asset, r[2:])
                assert archive.query_window(q) == reference_query_window(archive, q)
                ts = [e.sample.ts for e in archive.scan(asset)]
                assert archive.time_span(asset) == (min(ts), max(ts) + 1)
                queries += 1
                continue
            if i >= disorder_from[asset] and r[2] < 0.15:
                ts = max(0, clock[asset] - int(r[3] * 50))  # late, or a repeat
            else:
                clock[asset] += int(r[3] * 3)  # steps of 0 repeat a ts
                ts = clock[asset]
            s = TelemetrySample(
                asset, CHANNELS[int(r[4] * 4)], ts, float(i), QUALITIES[int(r[5] * 3)]
            )
            tags = TAG_SETS[int(r[6] * 4)]
            archive.append_sample(s, dict(tags) if tags else tags)
        assert queries > 100
        for asset in assets:
            for r in u[:40]:
                q = random_query(asset, r[2:])
                assert archive.query_window(q) == reference_query_window(archive, q)


class TestQueryCostAgainstHistory:
    PERIOD = 10_000_000  # 100 Hz
    WINDOW = 1000  # rows in 10 s

    def candidate_rows(self, archive, query):
        """Rows the query filters, counted at the archive's _window_rows."""
        counts = []
        inner = archive._window_rows

        def counting(*args):
            rows = inner(*args)
            counts.append(len(rows))
            return rows

        archive._window_rows = counting
        try:
            hits = archive.query_window(query)
        finally:
            del archive._window_rows
        return counts[0], hits

    def test_window_rows_do_not_grow_with_history(self):
        per_history = {}
        for factor in (1, 20):
            archive = Archive()
            n = (factor + 1) * self.WINDOW
            for i in range(n):
                archive.append_sample(sample(i * self.PERIOD, value=float(i)))
            t0 = (n - self.WINDOW) * self.PERIOD
            query = WindowQuery("m1", t0, t0 + self.WINDOW * self.PERIOD)
            in_order, hits = self.candidate_rows(archive, query)
            assert len(hits) == self.WINDOW
            # a late row deep in the history: the next query folds it in
            archive.append_sample(sample(self.PERIOD // 2))
            archive.query_window(WindowQuery("m1", 0, 1))
            folded, hits_after = self.candidate_rows(archive, query)
            assert hits_after == hits
            per_history[factor] = (in_order, folded)
        assert per_history[1] == per_history[20] == (self.WINDOW, self.WINDOW)


def rows_of_four():
    archive = Archive()
    for seq, ts in enumerate((30, 10, 20, 20), start=1):
        archive.append_sample(sample(ts, value=seq / 10), {"phase": "Bound"})
    expected = [
        ArchiveEntry(seq, sample(ts, value=seq / 10), {"phase": "Bound"})
        for seq, ts in ((2, 10), (3, 20), (4, 20), (1, 30))
    ]
    return archive, expected


class TestRows:
    def test_sequence_of_entries(self):
        archive, expected = rows_of_four()
        rows = archive.query_window(WindowQuery("m1", 0, 100))
        assert isinstance(rows, Sequence) and len(rows) == 4
        assert rows == expected and expected == rows
        assert rows == tuple(expected) and tuple(expected) == rows
        assert list(rows) == expected
        assert [rows[i] for i in range(-4, 4)] == expected * 2
        assert rows[1:3] == expected[1:3]
        assert rows[::-1] == expected[::-1] and rows[::2] == expected[::2]
        assert rows.index(expected[2]) == 2 and expected[3] in rows
        assert rows != expected[:3] and rows != [*expected[:3], expected[0]]
        assert rows != "rows" and rows != {1: 2}
        with pytest.raises(IndexError):
            rows[4]
        with pytest.raises(TypeError):
            hash(rows)
        scan = archive.scan("m1")
        by_seq = sorted(expected, key=lambda e: e.seq)
        assert scan == by_seq and scan[::-1] == by_seq[::-1] and scan[-1] == by_seq[-1]
        assert repr(scan[:2]) == f"Rows([{scan[0]!r}, {scan[1]!r}])"

    def test_fixed_at_query_time(self):
        archive, expected = rows_of_four()
        rows = archive.query_window(WindowQuery("m1", 0, 100))
        scan = archive.scan("m1")
        for ts in (15, 25, 5):
            archive.append_sample(sample(ts))
        assert rows == expected and len(scan) == 4
        assert len(archive.query_window(WindowQuery("m1", 0, 100))) == 7

    def test_entries_are_built_when_read(self, monkeypatch):
        archive = Archive()
        for ts in range(1000):
            archive.append_sample(sample(ts), {"phase": "Bound"})
        built = []
        entry = archive_module.ArchiveEntry
        monkeypatch.setattr(archive_module, "ArchiveEntry", lambda *a: built.append(a) or entry(*a))
        scan = archive.scan("m1")
        rows = archive.query_window(WindowQuery("m1", 100, 900, tag_filter={"phase": "Bound"}))
        assert (len(scan), len(rows), len(built)) == (1000, 800, 0)
        assert rows[0].seq == 101 and len(built) == 1
        # rebuilt on every read: equal, not the same object; tags are shared
        assert scan[5] == scan[5] and scan[5] is not scan[5]
        assert scan[5].tags is scan[6].tags


class TestAppendThatRaisesChangesNoColumn:
    @pytest.mark.parametrize(
        "bad, error",
        [
            (sample(2**63), OverflowError),
            (sample(-(2**63) - 1), OverflowError),
            (sample(5, value=None), TypeError),
            (sample(5, value="1.5"), TypeError),
            (sample(5, channel="accel_w"), KeyError),
        ],
        ids=["ts-past-int64", "ts-below-int64", "value-none", "value-str", "channel"],
    )
    def test_raises_and_leaves_every_column(self, bad, error):
        archive = Archive()
        for ts in (10, 20):
            archive.append_sample(sample(ts), {"phase": "Bound"})
        cols = archive._columns["m1"]
        before = [column.tolist() for column in cols.fields()]
        with pytest.raises(error):
            archive.append_sample(bad, {"phase": "Synchronized"})
        assert [column.tolist() for column in cols.fields()] == before
        assert not cols.late
        assert archive.append_sample(sample(30)) == 3
        with pytest.raises(error):
            archive.append_sample(dataclasses.replace(bad, asset_id="m2"))
        assert archive.assets() == ("m1",)
        assert [e.sample.ts for e in archive.query_window(WindowQuery("m1", 0, 100))] == [10, 20, 30]

    def test_largest_int64_ts_is_kept(self):
        archive = Archive()
        archive.append_sample(sample(2**63 - 1))
        archive.append_sample(sample(0))
        assert [e.sample.ts for e in archive.scan("m1")] == [2**63 - 1, 0]
        assert archive.time_span("m1") == (0, 2**63)


def axis_outcome(read):
    """read()'s axes as (dtype, bytes) pairs plus its ts as int64 bytes, or
    its AxisLengthMismatch text."""
    try:
        x, y, z, ts = read()
    except AxisLengthMismatch as exc:
        return str(exc)
    return [(a.dtype.str, a.tobytes()) for a in (x, y, z)] + [
        np.array(ts, dtype=np.int64).tobytes()
    ]


class TestAxisArraysOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_windows_equal_reference_by_bits(self, seed):
        # accel triples at one ts, plc_state rows between them, missing and
        # suspect values, -0.0, and from a random point on triples that
        # arrive late or repeat a ts; a dropped row now and then misaligns
        # the windows that hold it
        key = rng.stream_key(seed, "axis-oracle")
        u = rng.uniforms(key, np.arange(8 * 700, dtype=np.uint64)).reshape(700, 8)
        archive = Archive()
        clock, disorder_from = 0, 100 + int(u[0, 0] * 400)
        for i, r in enumerate(u):
            if i >= disorder_from and r[0] < 0.15:
                ts = max(0, clock - int(r[1] * 40))
            else:
                clock += int(r[1] * 3)
                ts = clock
            for j, ch in enumerate(ACCEL_CHANNELS):
                if r[2 + j] < 0.002:
                    continue
                value = -0.0 if r[2 + j] < 0.03 else (r[2 + j] - 0.5) * 10
                quality = QUALITIES[int(r[5] * 3)] if r[5] < 0.3 else Quality.good
                archive.append_sample(TelemetrySample("m1", ch, ts, value, quality),
                                      {"phase": "Bound"})
            if r[6] < 0.3:
                archive.append_sample(sample(ts, channel=Channel.plc_state, value=2.0))
        outcomes = {"aligned": 0, "misaligned": 0}
        span = archive.time_span("m1")
        queries = [WindowQuery("m1", *span)]
        for r in u[:300]:
            t0 = span[0] - 5 + int(r[1] * (span[1] - span[0]))
            tag_filter = {"phase": "Bound"} if r[2] < 0.3 else None
            qualities = frozenset({Quality.good, Quality.suspect}) if r[3] < 0.1 else None
            queries.append(WindowQuery("m1", t0, t0 + 1 + int(r[4] * 80), None, tag_filter,
                                       qualities))
        for q in queries:
            got = axis_outcome(lambda: archive.query_window(q).axis_arrays())
            want = axis_outcome(
                lambda: reference_axis_series(e.sample for e in reference_query_window(archive, q))
            )
            assert got == want, q
            outcomes["misaligned" if isinstance(got, str) else "aligned"] += 1
        assert min(outcomes.values()) > 20, outcomes


class TestConcurrentReadsAndAppends:
    def test_readers_see_fixed_windows_while_a_writer_appends(self):
        # m1 rows arrive in ts order, ts == seq - 1, accel axes in turn; m2
        # rows arrive with some late, so its reads go through the permutation
        archive = Archive()
        n_rows = 3000
        failures: list = []
        done = threading.Event()

        def write():
            try:
                for i in range(n_rows):
                    tags = {"phase": "Bound" if i % 4 else "Synchronized"}
                    quality = Quality.missing if i % 7 == 0 else Quality.good
                    archive.append_sample(
                        TelemetrySample("m1", ACCEL_CHANNELS[i % 3], i, float(i), quality), tags
                    )
                    ts2 = i - 50 if i % 5 == 0 else i
                    archive.append_sample(
                        TelemetrySample("m2", ACCEL_CHANNELS[i % 3], max(ts2, 0), -float(i)), tags
                    )
            except BaseException as exc:
                failures.append(exc)
            finally:
                done.set()

        def read():
            try:
                for k in itertools.count():
                    if done.is_set():
                        break
                    if "m2" not in archive.assets():
                        continue
                    n = len(archive.scan("m1"))
                    end = n - n % 3
                    if not end:
                        continue
                    # every row with ts < end is in: the window is final
                    q = WindowQuery("m1", 0, end)
                    rows = archive.query_window(q)
                    x, y, z, ts = rows.axis_arrays()
                    assert len(ts) == end // 3 and ts[-1] == end - 3
                    if k % 8 == 0:  # the full checks read every entry
                        assert [e.seq for e in rows] == list(range(1, end + 1))
                        assert rows == reference_query_window(archive, q)
                        assert axis_outcome(rows.axis_arrays) == axis_outcome(
                            lambda: reference_axis_series(e.sample for e in rows)
                        )
                        tagged = WindowQuery("m1", 0, end, tag_filter={"phase": "Bound"},
                                             channels=frozenset({Channel.accel_x}))
                        assert archive.query_window(tagged) == reference_query_window(archive, tagged)
                    growing = archive.query_window(WindowQuery("m2", 0, 10**9))
                    seqs = [e.seq for e in growing]
                    assert sorted(seqs) == list(range(1, len(seqs) + 1))
                    assert [e.sample.ts for e in growing] == sorted(e.sample.ts for e in growing)
                    try:
                        growing.axis_arrays()
                    except AxisLengthMismatch:
                        pass  # a window of m2 can end inside a triple
            except BaseException as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            threads.append(threading.Thread(target=write))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[0]
        assert len(archive.scan("m1")) == len(archive.scan("m2")) == n_rows
