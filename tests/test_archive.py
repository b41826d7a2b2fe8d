import threading
import tracemalloc

import numpy as np
import pytest
from oracles import reference_query_window

import twinforge.rng as rng
from twinforge.archive import (
    Archive,
    SegmentRecord,
    SegmentStats,
    WindowQuery,
    validate_quality,
)
from twinforge.errors import (
    MalformedLine,
    OverlappingSegment,
    UnknownAsset,
    UnknownReplicaVersion,
)
from twinforge.wire import Channel, Quality, TelemetrySample


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
        assert (after - before) / len(samples) <= 128


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
