import hashlib
import itertools

import numpy as np
import pytest
from conftest import archive_of
from oracles import (
    reference_kmeans_fit,
    reference_pelt_segment,
    reference_replica,
    reference_silhouette_loop,
)

from twinforge import orchestrator
from twinforge.analytics import Segmentation
from twinforge.archive import SegmentRecord, WindowQuery
from twinforge.cli import report_payload
from twinforge.errors import (
    AxisLengthMismatch,
    KExceedsN,
    MixedVersions,
    NoData,
    NoResults,
    SeriesTooShort,
    WindowTooLarge,
)
from twinforge.orchestrator import (
    DEFAULT_GRID,
    SWEEP_SEED,
    AnomalyEvent,
    HyperParams,
    ReplicaResult,
    build_timeline,
    emit_augmentation_event,
    flag_anomalies,
    rank_replicas,
    zeroconf_run,
)
from twinforge.simulate import default_scenario, simulate_scenario
from twinforge.twin import LifecycleEvent, LifecyclePhase, TwinInstance
from twinforge.wire import ACCEL_CHANNELS, Channel, Quality, TelemetrySample, encode_sample


def anomaly(segment_index=0, block_range=(0, 3), rarity=0.03):
    return AnomalyEvent(
        machine="m1",
        replica_version="v1-x",
        segment_index=segment_index,
        block_range=block_range,
        cluster_label=2,
        rarity=rarity,
        ts=0,
    )


def seg_record(version, index, block_range, label):
    return SegmentRecord(
        replica_version=version,
        segment_index=index,
        block_range=block_range,
        cluster_label=label,
        created_ts=block_range[0] * 1000,
    )


# every replica of a sweep, v1..v24: block_size varies slowest, then k, then
# penalty; a version is its sequence number and its hyperparameters' digest
REPLICA_VERSIONS = [
    "v1-1758d63c", "v2-b99b1fcc", "v3-ed599490", "v4-122e8ea7", "v5-f09ecf9e", "v6-bc5853e5",
    "v7-9af2fafe", "v8-ecce8867", "v9-1a920d91", "v10-7bd83f2e", "v11-40abc517", "v12-e947bd5f",
    "v13-b895a1c7", "v14-d5c08257", "v15-1039b0bb", "v16-3865b3fe", "v17-69a0de55",
    "v18-3b667257", "v19-9e30cafd", "v20-20f89c27", "v21-a37a9777", "v22-62596441",
    "v23-2147182a", "v24-ed1f3426",
]


class TestGrid:
    def test_replicas_are_pinned(self):
        replicas = orchestrator._REPLICAS
        assert [f"v{i + 1}-{hp.digest()}" for i, hp in enumerate(replicas)] == REPLICA_VERSIONS
        assert [(hp.block_size, hp.k, hp.penalty) for hp in replicas] == list(
            itertools.product([25, 50], [2, 3, 4, 5], [10.0, 40.0, 160.0])
        )
        fresh = [hashlib.sha256(hp.canonical().encode()).hexdigest()[:8] for hp in replicas]
        assert [hp.digest() for hp in replicas] == fresh
        assert orchestrator._VERSIONS == tuple(REPLICA_VERSIONS)

    def test_canonical_form_keeps_the_empty_readiness_map(self):
        # readiness has no settings, but its key stays in the hashed form, so
        # the version digests of archived records and goldens do not move
        hp = HyperParams(block_size=50, penalty=40.0, k=4)
        assert hp.canonical() == '{"block_size":50,"k":4,"penalty":40.0,"readiness":{}}'
        assert HyperParams(block_size=25, penalty=40.0, k=2).digest() == "b99b1fcc"

    def test_a_sweep_hashes_nothing(self, monkeypatch):
        # every version is read from _VERSIONS, built once at import
        samples, _ = simulate_scenario(default_scenario(duration_s=6, machines=("m1",)))
        archive = archive_of(samples)
        monkeypatch.setattr(HyperParams, "canonical", lambda self: pytest.fail("hashed"))
        report, _, _ = zeroconf_run(archive, "m1", (0, 10**18))
        assert sorted(r.replica_version for r in report.results) == sorted(REPLICA_VERSIONS)


def clean_three_phase_window():
    """Idle | Active | Waiting, no failure: every boundary is a strong
    contrast, so any grid penalty recovers exactly three segments."""
    from twinforge.simulate import PhaseInterval, ScenarioSpec, simulate_scenario
    from twinforge.wire import MachineState

    spec = ScenarioSpec(
        seed=5,
        machines=("m1",),
        duration_s=60.0,
        sample_rate=100,
        phase_schedule=(
            PhaseInterval("m1", 0.0, 20.0, MachineState.Idle),
            PhaseInterval("m1", 20.0, 40.0, MachineState.Active),
            PhaseInterval("m1", 40.0, 60.0, MachineState.Waiting),
        ),
    )
    samples, truth = simulate_scenario(spec)
    return [s for s in samples if s.channel is not Channel.plc_state], truth


def rows_of(samples):
    """One machine's samples archived and queried back whole: the window a
    sweep reads."""
    archive = archive_of(samples)
    (machine,) = archive.assets()
    return archive.query_window(WindowQuery(machine, *archive.time_span(machine)))


def labelled_segments(peaks, change_points, labels):
    """The segment records of a replica with the given block features,
    change points and block labels."""
    seg = Segmentation(change_points=change_points, n_blocks=len(peaks), total_cost=0.0)
    return ReplicaResult(
        replica_version="v1-x",
        hyperparams=HyperParams(block_size=50, penalty=40.0, k=4),
        segmentation=seg,
        labels=np.array(labels),
        silhouette=0.0,
        peaks=peaks,
        window_start_ts=0,
        per_sample_ns=10**7,
    ).segments


class TestRunReplica:
    def test_recovers_clean_three_phase_segments(self):
        window, truth = clean_three_phase_window()
        hp = HyperParams(block_size=50, penalty=40.0, k=3)
        result = reference_replica(window, hp, seed=42)
        assert result.segment_count == 3
        assert result.segmentation.change_points == truth.machines[
            "m1"
        ].change_point_blocks(50)

    def test_deterministic_including_version(self, small_run):
        _, samples, _, _ = small_run
        window = [s for s in samples if s.channel is not Channel.plc_state]
        hp = HyperParams(block_size=50, penalty=10.0, k=2)
        a = reference_replica(window, hp, seed=1)
        b = reference_replica(window, hp, seed=1)
        assert a.replica_version == b.replica_version
        # block size 50, k 2, penalty 10: the 13th replica of the grid
        assert a.replica_version == REPLICA_VERSIONS[12]
        assert a.segmentation == b.segmentation
        assert np.array_equal(a.labels, b.labels)
        assert a.silhouette == b.silhouette

    def test_segments_are_archive_records_stamped_at_their_first_block(self):
        # 100 Hz from ts 0: a block of 50 samples spans 500 ms of data
        window, _ = clean_three_phase_window()
        result = reference_replica(window, HyperParams(block_size=50, penalty=40.0, k=3), seed=42)
        assert result.window_start_ts == 0 and result.per_sample_ns == 10**7
        assert all(type(s) is SegmentRecord for s in result.segments)
        assert [s.replica_version for s in result.segments] == [result.replica_version] * 3
        assert [s.created_ts for s in result.segments] == [
            a * 50 * 10**7 for a, _ in result.segmentation.segments
        ]

    def peaks(self):
        return np.array([[float(i), -float(i), 0.5] for i in range(9)])

    def test_single_segment_uniform_labels(self):
        (s,) = labelled_segments(self.peaks(), (), [2] * 9)
        assert s.block_range == (0, 9)
        assert s.cluster_label == 2

    def test_segment_takes_its_majority_label(self):
        out = labelled_segments(self.peaks(), (3,), [1, 1, 2, 0, 0, 0, 0, 1, 0])
        assert [s.cluster_label for s in out] == [1, 0]
        assert [s.segment_index for s in out] == [0, 1]

    def test_majority_tie_goes_to_the_lowest_label(self):
        (s,) = labelled_segments(self.peaks(), (), [1, 2, 1, 2, 1, 2, 1, 2, 0])
        assert s.cluster_label == 1

    def test_missing_axis_error_tagged_with_version(self, small_run):
        _, samples, _, _ = small_run
        window = [s for s in samples if s.channel in (Channel.accel_x, Channel.accel_y)]
        with pytest.raises(AxisLengthMismatch, match=r"^v1-"):
            orchestrator._plan(rows_of(window))


class TestAxisSeries:
    def test_missing_becomes_nan_and_plc_state_ignored(self):
        x, y, z = ACCEL_CHANNELS
        window = [
            TelemetrySample("m1", x, 10, 1.0),
            TelemetrySample("m1", Channel.plc_state, 10, 2.0),
            TelemetrySample("m1", y, 10, 2.0, Quality.missing),
            TelemetrySample("m1", z, 10, 3.0, Quality.suspect),
            TelemetrySample("m1", x, 20, 4.0, Quality.missing),
            TelemetrySample("m1", y, 20, 5.0),
            TelemetrySample("m1", z, 20, 6.0),
        ]
        xs, ys, zs, ts = rows_of(window).axis_arrays()
        np.testing.assert_array_equal(xs, [1.0, np.nan])
        np.testing.assert_array_equal(ys, [np.nan, 5.0])
        np.testing.assert_array_equal(zs, [3.0, 6.0])
        assert ts.tolist() == [10, 20]

    @pytest.mark.parametrize(
        "channels, message",
        [
            ((0, 1, 0, 2), "accel channels misaligned: {'accel_x': 2, 'accel_y': 1, 'accel_z': 1}"),
            ((), "accel channels misaligned: {'accel_x': 0, 'accel_y': 0, 'accel_z': 0}"),
        ],
    )
    def test_misaligned_error_text(self, channels, message):
        # a plc_state row, which the axis read skips, keeps the window non-empty
        window = [TelemetrySample("m1", Channel.plc_state, 0, 1.0)]
        window += [TelemetrySample("m1", ACCEL_CHANNELS[c], i, 0.0) for i, c in enumerate(channels)]
        with pytest.raises(AxisLengthMismatch) as exc:
            rows_of(window).axis_arrays()
        assert str(exc.value) == message


class TestRanking:
    def fake(self, version, sil, segs, penalty):
        hp = HyperParams(block_size=50, penalty=penalty, k=4)
        return type(
            "R",
            (),
            {
                "replica_version": version,
                "silhouette": sil,
                "segment_count": segs,
                "hyperparams": hp,
            },
        )()

    def test_single_result_selected(self):
        report = rank_replicas([self.fake("v1-a", 0.5, 3, 10)])
        assert report.selected == "v1-a"

    def test_highest_silhouette_wins(self):
        report = rank_replicas(
            [
                self.fake("v1-a", 0.7, 3, 10),
                self.fake("v2-b", 0.9, 5, 40),
                self.fake("v3-c", 0.4, 2, 160),
            ]
        )
        assert report.selected == "v2-b"

    def test_tie_broken_by_fewer_segments(self):
        report = rank_replicas(
            [self.fake("v1-a", 0.8, 7, 10), self.fake("v2-b", 0.8, 3, 40)]
        )
        assert report.selected == "v2-b"

    def test_then_by_lower_penalty(self):
        report = rank_replicas(
            [self.fake("v1-a", 0.8, 3, 40), self.fake("v2-b", 0.8, 3, 10)]
        )
        assert report.selected == "v2-b"

    def test_no_results(self):
        with pytest.raises(NoResults):
            rank_replicas([])


class TestFlagAnomalies:
    def test_rare_cluster_flagged_with_frequency(self):
        # 100 blocks; cluster 2 covers 3 blocks in one segment
        records = [
            seg_record("v1-x", 0, (0, 50), 0),
            seg_record("v1-x", 1, (50, 53), 2),
            seg_record("v1-x", 2, (53, 100), 1),
        ]
        events = flag_anomalies(records, machine="m1")
        assert len(events) == 1
        assert events[0].segment_index == 1
        assert events[0].rarity == pytest.approx(0.03)
        assert events[0].machine == "m1"

    def test_no_rare_clusters_no_events(self):
        records = [
            seg_record("v1-x", 0, (0, 50), 0),
            seg_record("v1-x", 1, (50, 100), 1),
        ]
        assert flag_anomalies(records) == []

    def test_mixed_versions_rejected(self):
        records = [seg_record("v1-x", 0, (0, 5), 0), seg_record("v2-y", 1, (5, 9), 0)]
        with pytest.raises(MixedVersions):
            flag_anomalies(records)

    def test_split_rare_cluster_flags_all_its_segments(self):
        records = [
            seg_record("v1-x", 0, (0, 96), 0),
            seg_record("v1-x", 1, (96, 98), 1),
            seg_record("v1-x", 2, (98, 100), 1),
        ]
        events = flag_anomalies(records)
        assert [e.segment_index for e in events] == [1, 2]


    @pytest.mark.parametrize(
        "rare, total, flagged",
        [(1, 19, False), (1, 20, False), (1, 21, True), (2, 40, False), (4, 100, True),
         (5, 100, False), (49, 1000, True), (50, 1000, False), (51, 1000, False)],
    )
    def test_cutoff_is_a_strict_five_percent(self, rare, total, flagged):
        # the cutoff is a constant: a cluster is rare below 5% of the blocks,
        # and a share of exactly 5% (1/20, 2/40, 5/100, 50/1000) is not
        # (strict inequality)
        records = [
            seg_record("v1-x", 0, (0, total - rare), 0),
            seg_record("v1-x", 1, (total - rare, total), 1),
        ]
        events = flag_anomalies(records, machine="m1")
        assert [e.segment_index for e in events] == ([1] if flagged else [])
        assert all(e.rarity == rare / total for e in events)


class TestTimeline:
    def test_rows_tile_blocks(self, small_run):
        _, samples, _, archive = small_run
        report, timeline, _ = zeroconf_run(archive, "m1", (0, 10**18))
        rows = timeline.rows
        assert rows[0][0] == 0
        assert rows[-1][1] == len(report.results[0].peaks)
        for (_, b, _, _), (c, _, _, _) in zip(rows, rows[1:]):
            assert b == c

    def test_csv_format(self):
        segments = [
            seg_record("v1-x", 0, (0, 2), 0),
            seg_record("v1-x", 1, (2, 4), 1),
            seg_record("v1-x", 2, (4, 6), 0),
        ]
        timeline = build_timeline(segments, [anomaly(1, (2, 4))])
        assert timeline.change_points == (2, 4)
        text = timeline.to_csv()
        lines = text.splitlines()
        assert lines[0] == "block_start,block_end,cluster,is_anomaly"
        assert lines[1:] == ["0,2,0,false", "2,4,1,true", "4,6,0,false"]


class TestAugmentation:
    def test_synchronized_twin_gets_event(self):
        twin = TwinInstance("m1")
        twin.apply_lifecycle_event(LifecycleEvent.Bind)
        twin.apply_lifecycle_event(LifecycleEvent.SyncEstablished)
        event = emit_augmentation_event(twin, anomaly())
        assert event.name == "anomaly_detected"
        assert twin.snapshot_state().events == (event,)

    def test_out_of_sync_twin_suppressed(self):
        twin = TwinInstance("m1")
        twin.apply_lifecycle_event(LifecycleEvent.Bind)
        twin.apply_lifecycle_event(LifecycleEvent.SyncEstablished)
        twin.apply_lifecycle_event(LifecycleEvent.SyncLost)
        assert emit_augmentation_event(twin, anomaly()) is None
        assert twin.snapshot_state().events == ()
        assert twin.phase is LifecyclePhase.OutOfSync

    def test_no_dedup_of_repeated_anomalies(self):
        twin = TwinInstance("m1")
        twin.apply_lifecycle_event(LifecycleEvent.Bind)
        twin.apply_lifecycle_event(LifecycleEvent.SyncEstablished)
        emit_augmentation_event(twin, anomaly())
        emit_augmentation_event(twin, anomaly())
        assert len(twin.snapshot_state().events) == 2


class TestZeroconf:
    def test_flags_failure_blocks_exactly(self, small_run):
        spec, samples, truth, archive = small_run
        report, timeline, anomalies = zeroconf_run(archive, "m1", (0, 10**18))
        winner = report.results[0]
        mt = truth.machines["m1"]
        bs = winner.hyperparams.block_size
        flagged = set()
        for ev in anomalies:
            flagged.update(range(*ev.block_range))
        assert flagged == set(mt.anomaly_blocks(bs))
        # failure-window boundaries are strong contrasts: matched within +/-2
        fail_bounds = mt.change_point_blocks(bs)[-2:]
        for bound in fail_bounds:
            assert any(abs(cp - bound) <= 2 for cp in winner.segmentation.change_points)

    def test_no_data(self, small_run):
        _, _, _, archive = small_run
        with pytest.raises(NoData):
            zeroconf_run(archive, "m1", (10**17, 10**18))

    def test_window_of_only_plc_state_is_no_data(self):
        archive = archive_of(
            TelemetrySample("m1", Channel.plc_state, ts, 1.0) for ts in range(0, 100, 10)
        )
        with pytest.raises(NoData) as caught:
            zeroconf_run(archive, "m1", (0, 100))
        assert str(caught.value) == "no samples for m1 in (0, 100)"

    def test_master_isolation(self, small_run):
        _, _, _, archive = small_run
        before = [e.sample for e in archive.scan("m1")]
        zeroconf_run(archive, "m1", (0, 10**18))
        after = [e.sample for e in archive.scan("m1")]
        assert [encode_sample(s) for s in before] == [encode_sample(s) for s in after]

    def test_rerun_identical_and_idempotent(self, small_run):
        _, _, _, archive = small_run
        r1 = zeroconf_run(archive, "m1", (0, 10**18))
        records_1 = archive.segments_for(r1[0].selected)
        r2 = zeroconf_run(archive, "m1", (0, 10**18))
        assert r1[0].selected == r2[0].selected
        assert r1[1] == r2[1]
        assert r1[2] == r2[2]
        assert archive.segments_for(r2[0].selected) == records_1

    def test_planned_sweep_equals_independent_replicas(self, small_run):
        _, _, _, archive = small_run
        report, timeline, anomalies = zeroconf_run(archive, "m1", (0, 10**18))

        rows = archive.query_window(WindowQuery("m1", 0, 10**18))
        window = [e.sample for e in rows if e.sample.channel in ACCEL_CHANNELS]
        expected = rank_replicas([reference_replica(window, hp, SWEEP_SEED) for hp in orchestrator._REPLICAS])
        assert len(report.results) == len(expected.results) == 24
        for got, want in zip(report.results, expected.results):
            assert got.replica_version == want.replica_version
            assert got.silhouette == want.silhouette
            assert got.segmentation == want.segmentation
            assert np.array_equal(got.labels, want.labels)
            assert got.segments == want.segments

        ts_x = [s.ts for s in window if s.channel is ACCEL_CHANNELS[0]]
        per_sample_ns = (ts_x[-1] - ts_x[0]) // (len(ts_x) - 1)
        assert {r.per_sample_ns for r in report.results} == {per_sample_ns}
        winner = expected.results[0]
        assert [r.created_ts for r in winner.segments] == [
            winner.window_start_ts + s.block_range[0] * winner.hyperparams.block_size * per_sample_ns
            for s in winner.segments
        ]
        want_anomalies = flag_anomalies(winner.segments, machine="m1")
        assert anomalies == want_anomalies
        assert timeline == build_timeline(winner.segments, want_anomalies)
        assert timeline.change_points == winner.segmentation.change_points

    def test_sweep_runs_each_stage_once_per_distinct_input(self, small_run, monkeypatch):
        calls = dict.fromkeys(("run_readiness", "pelt_segment", "kmeans_fit", "silhouette_score"), 0)

        def counted(attr):
            fn = getattr(orchestrator, attr)

            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return fn(*args, **kwargs)

            return wrapper

        for attr in calls:
            monkeypatch.setattr(orchestrator, attr, counted(attr))
        _, _, _, archive = small_run
        report, _, _ = zeroconf_run(archive, "m1", (0, 10**18))
        assert len(report.results) == 24
        # readiness cleans the axes once for both block sizes; PELT runs every
        # penalty and silhouette every k of a block size in one call
        assert calls == {"run_readiness": 1, "pelt_segment": 2, "kmeans_fit": 8, "silhouette_score": 2}

    def test_kmeans_seeding_once_per_block_size(self, small_run, monkeypatch):
        seedings = []
        seed_for = orchestrator.kmeanspp_init

        def counted(x, k, seed):
            seedings.append((len(x), k))
            return seed_for(x, k, seed)

        monkeypatch.setattr(orchestrator, "kmeanspp_init", counted)
        _, _, _, archive = small_run
        zeroconf_run(archive, "m1", (0, 10**18))
        # one seeding for the largest k of each block size (kmeans_fit takes
        # its seeding and draws none)
        assert [k for _, k in seedings] == [max(DEFAULT_GRID["k"])] * len(DEFAULT_GRID["block_size"])
        assert len({n for n, _ in seedings}) == len(DEFAULT_GRID["block_size"])

    def test_a_sweep_labels_only_the_winners_segments(self, small_run):
        _, _, _, archive = small_run
        report, _, _ = zeroconf_run(archive, "m1", (0, 10**18))
        assert len(report.results) == 24

        def labelled():
            return sum("segments" in vars(r) for r in report.results)

        # a sweep reads only the winner's labelled segments
        assert labelled() == 1
        # reading every replica's segments, twice, labels each other one once
        first = [r.segments for r in report.results]
        assert [r.segments for r in report.results] == first
        assert all(r.segments is s for r, s in zip(report.results, first))
        assert labelled() == 24

    def test_timeline_reuses_the_winners_segments(self, small_run):
        _, _, _, archive = small_run
        report, timeline, anomalies = zeroconf_run(archive, "m1", (0, 10**18))
        winner = report.results[0]
        assert timeline == build_timeline(winner.segments, anomalies)
        # the winner's segments are its labelled segmentation, recomputed:
        # per segment, the most frequent block label (ties to the lowest)
        labels = winner.labels.tolist()
        want = []
        for i, (a, b) in enumerate(winner.segmentation.segments):
            majority = min(set(labels[a:b]), key=lambda l: (-labels[a:b].count(l), l))
            want.append((i, (a, b), majority))
        assert [
            (s.segment_index, s.block_range, s.cluster_label) for s in winner.segments
        ] == want

    def test_archived_records_are_the_winners_segments(self, small_run):
        _, samples, _, _ = small_run
        archive = archive_of(samples)
        report, _, _ = zeroconf_run(archive, "m1", (0, 10**18))
        assert archive.replica_versions() == (report.selected,)
        assert archive.segments_for(report.selected) == report.results[0].segments

    @pytest.mark.parametrize(
        "t_end, error, message",
        [
            # 4 accel samples per axis are fewer than the smoothing window:
            # the one readiness call fails under v1, the first replica it serves
            (4 * 10**7, WindowTooLarge, "v1-1758d63c: window 5 > length 4"),
            # 20 samples are one block at size 25: the first PELT call fails
            (2 * 10**8, SeriesTooShort, "v1-1758d63c: 1 blocks < min_segment 2"),
            # 2 blocks at size 25: k = 3 fails under v4, the first replica at k = 3
            (3 * 10**8, KExceedsN, "v4-122e8ea7: k=3 > n=2"),
            # 4 blocks at size 25: k = 2..4 fit, k = 5 fails under v10
            (10**9, KExceedsN, "v10-7bd83f2e: k=5 > n=4"),
            # the whole 2 s: the plan finishes block size 25, where every k
            # fits, before k = 5 fails at 50 under v22, the first at k = 5
            (10**18, KExceedsN, "v22-62596441: k=5 > n=4"),
        ],
    )
    def test_shared_stage_failure_is_raised_by_its_replica(self, t_end, error, message):
        samples, _ = simulate_scenario(default_scenario(duration_s=2, machines=("m1",)))
        window = archive_of(samples).query_window(WindowQuery("m1", 0, t_end))
        with pytest.raises(error) as info:
            orchestrator._plan(window)
        assert str(info.value) == message

    def test_failing_sweep_runs_its_plan_once(self, monkeypatch):
        calls = {"run_readiness": 0, "pelt_segment": 0}

        def counted(attr):
            fn = getattr(orchestrator, attr)

            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return fn(*args, **kwargs)

            return wrapper

        for attr in calls:
            monkeypatch.setattr(orchestrator, attr, counted(attr))
        samples, _ = simulate_scenario(default_scenario(duration_s=2, machines=("m1",)))
        with pytest.raises(KExceedsN, match=r"^v22-62596441: k=5 > n=4$"):
            zeroconf_run(archive_of(samples), "m1", (0, 10**18))
        # the failing plan names its replica itself: no replica is rerun
        assert calls["run_readiness"] == 1
        assert calls["pelt_segment"] <= 2

    def test_ranking_is_total_order(self, small_run):
        _, samples, _, _ = small_run
        report = rank_replicas(orchestrator._plan(rows_of(samples)))
        keys = [
            (-r.silhouette, r.segment_count, r.hyperparams.penalty, r.replica_version)
            for r in report.results
        ]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)

    def test_anomaly_soundness(self, small_run):
        # recomputing rarity from the recorded segments must stay below the
        # threshold for flagged segments and at/above it for unflagged ones
        _, _, _, archive = small_run
        report, _, anomalies = zeroconf_run(archive, "m1", (0, 10**18))
        records = archive.segments_for(report.selected)
        total = sum(b - a for a, b in (r.block_range for r in records))
        freq = {}
        for r in records:
            a, b = r.block_range
            freq[r.cluster_label] = freq.get(r.cluster_label, 0) + b - a
        flagged = {a.segment_index for a in anomalies}
        for r in records:
            rarity = freq[r.cluster_label] / total
            assert (r.segment_index in flagged) == (rarity < 0.05)
        for a in anomalies:
            assert a.rarity < 0.05

    def test_augmentation_events_reach_twin(self, small_run):
        _, _, _, archive = small_run
        twin = TwinInstance("m1")
        twin.apply_lifecycle_event(LifecycleEvent.Bind)
        twin.apply_lifecycle_event(LifecycleEvent.SyncEstablished)
        _, _, anomalies = zeroconf_run(archive, "m1", (0, 10**18), twin=twin)
        events = twin.snapshot_state().events
        assert len(events) == len(anomalies) > 0
        assert all(e.name == "anomaly_detected" for e in events)


@pytest.fixture(scope="module")
def swept(small_run):
    """The 24 replicas' results over the quiet-failure run, computed once."""
    _, samples, _, _ = small_run
    return orchestrator._plan(rows_of(samples))


class TestReplicas:
    @pytest.mark.parametrize("i", range(24), ids=REPLICA_VERSIONS)
    def test_replica_equals_the_reference_stages(self, swept, i):
        # each replica's shared stage outputs are what the verbatim reference
        # PELT, k-means and silhouette compute from its own block features
        # the plan returns the grid's replicas under their versions, in order
        assert [r.hyperparams for r in swept] == list(orchestrator._REPLICAS)
        assert [r.replica_version for r in swept] == REPLICA_VERSIONS
        result, hp = swept[i], orchestrator._REPLICAS[i]
        peaks = result.peaks
        assert result.segmentation == reference_pelt_segment(peaks, hp.penalty)
        assert np.array_equal(result.labels, reference_kmeans_fit(peaks, hp.k, seed=42).labels)
        assert result.silhouette == reference_silhouette_loop(peaks, result.labels)

    @pytest.mark.parametrize(
        "call",
        [
            lambda archive: zeroconf_run(archive, "m1", (0, 10**18), grid={"k": [2]}),
            lambda archive: zeroconf_run(archive, "m1", (0, 10**18), rarity_threshold=0.02),
            lambda archive: zeroconf_run(archive, "m1", (0, 10**18), seed=7),
            # a grid in its old fourth position would bind to twin and run
            lambda archive: zeroconf_run(archive, "m1", (0, 10**18), {"k": [2]}),
            lambda archive: flag_anomalies([], rarity_threshold=0.05),
            lambda archive: flag_anomalies([], 0.05),
            lambda archive: report_payload(None, "m1", 42, 0.05),
            lambda archive: report_payload(None, "m1", 42),
        ],
        ids=["zeroconf_run-grid", "zeroconf_run-rarity_threshold", "zeroconf_run-seed",
             "zeroconf_run-positional", "flag_anomalies-rarity_threshold",
             "flag_anomalies-positional", "report_payload-threshold", "report_payload-seed"],
    )
    def test_removed_settings_are_refused(self, call):
        # the sweep takes no settings: an old call fails instead of running
        # the fixed sweep, or binding a threshold to another parameter
        samples, _ = simulate_scenario(default_scenario(duration_s=6, machines=("m1",)))
        archive = archive_of(samples)
        with pytest.raises(TypeError):
            call(archive)
        assert archive.replica_versions() == ()
