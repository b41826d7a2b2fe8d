import hashlib
from dataclasses import replace

import numpy as np
import pytest
from conftest import archive_of

from twinforge import analytics, orchestrator
from twinforge.analytics import Segmentation, segment_stats
from twinforge.archive import SegmentRecord, SegmentStats, WindowQuery
from twinforge.errors import (
    AxisLengthMismatch,
    EmptyGrid,
    InvalidSpec,
    KExceedsN,
    MixedVersions,
    NoData,
    NoResults,
    WindowTooLarge,
)
from twinforge.orchestrator import (
    DEFAULT_GRID,
    AnomalyEvent,
    HyperParams,
    ReplicaResult,
    build_timeline,
    emit_augmentation_event,
    flag_anomalies,
    rank_replicas,
    spawn_replica_grid,
    zeroconf_run,
)
from twinforge.readiness import FeatureSeries
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
        stats=SegmentStats(
            mean=(0.0,) * 3,
            peak=(0.0,) * 3,
            duration_blocks=block_range[1] - block_range[0],
        ),
        created_ts=block_range[0] * 1000,
    )


# (grid, the reason its one replica is refused for)
INVALID_REPLICAS = [
    ({"foo": [1]}, "ReadinessConfig.__init__() got an unexpected keyword argument 'foo'"),
    ({"penalty": [-1]}, "penalty must be >= 0"),
    ({"k": [0]}, "k must be an integer >= 1, got 0"),
    ({"block_size": [0]}, "block_size must be >= 1"),
    ({"k": [2.5]}, "k must be an integer >= 1, got 2.5"),
    ({"block_size": [25.5]}, "block_size must be an integer, got 25.5"),
    ({"smooth_window": [3.0]}, "smooth_window must be an integer, got 3.0"),
    ({"block_size": [True]}, "block_size must be an integer, got True"),
    ({"penalty": ["x"]}, "'<' not supported between instances of 'str' and 'int'"),
    ({"smooth_window": [5.0]}, "smooth_window must be an integer, got 5.0"),
    ({"block_size": [50.0]}, "block_size must be an integer, got 50.0"),
    ({"k": [2.0]}, "k must be an integer >= 1, got 2.0"),
    ({"k": [True]}, "k must be an integer >= 1, got True"),
    ({"k": 5}, "'k' must map to a list of values, got int"),
    ({"k": "2"}, "'k' must map to a list of values, got str"),
    ({"gap_fill": "hold"}, "'gap_fill' must map to a list of values, got str"),
    ({"k": {2: 1}}, "'k' must map to a list of values, got dict"),
    # nan fails every comparison and inf passes the sign check: finiteness is its own check
    ({"penalty": [float("nan")]}, "penalty must be finite, got nan"),
    ({"penalty": [float("inf")]}, "penalty must be finite, got inf"),
    ({"sigma_threshold": [float("nan")]}, "sigma_threshold must be positive and finite, got nan"),
    ({"sigma_threshold": [float("inf")]}, "sigma_threshold must be positive and finite, got inf"),
    ({"penalty": [10**400]}, f"penalty must be finite, got {10**400!r}"),
    # rolling_max indexes numpy arrays by block size
    ({"block_size": [2**63]}, "block_size must be at most 2**63 - 1"),
    # a bool is no number: True would run as 1 under another version digest
    ({"penalty": [False]}, "penalty must be a number, got False"),
    ({"penalty": [True]}, "penalty must be a number, got True"),
    ({"sigma_threshold": [True]}, "sigma_threshold must be a number, got True"),
    ({"sigma_threshold": [False]}, "sigma_threshold must be a number, got False"),
]


class TestGrid:
    def test_default_penalty_sweep(self):
        grid = spawn_replica_grid({"penalty": [10, 40, 160]})
        assert [hp.penalty for hp in grid] == [10, 40, 160]

    def test_single_combo(self):
        assert len(spawn_replica_grid({"penalty": [10], "k": [3]})) == 1

    def test_product_in_sorted_name_order(self):
        grid = spawn_replica_grid({"penalty": [10, 40], "k": [2, 3]})
        # "k" sorts before "penalty": k varies slowest
        assert [(hp.k, hp.penalty) for hp in grid] == [
            (2, 10),
            (2, 40),
            (3, 10),
            (3, 40),
        ]

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyGrid):
            spawn_replica_grid({"penalty": []})

    def test_unknown_params_become_readiness_overrides(self):
        grid = spawn_replica_grid({"smooth_window": [3], "k": [2]})
        assert grid[0].readiness == (("smooth_window", 3),)
        assert grid[0].readiness_config().smooth_window == 3

    def test_default_grid_size(self):
        assert len(spawn_replica_grid(DEFAULT_GRID)) == 3 * 4 * 2

    def test_default_replicas_are_the_default_grid(self):
        cached = orchestrator._DEFAULT_REPLICAS
        assert list(cached) == spawn_replica_grid(DEFAULT_GRID)
        fresh = [hashlib.sha256(hp.canonical().encode()).hexdigest()[:8] for hp in cached]
        assert [hp.digest() for hp in cached] == fresh

    def test_digest_is_computed_once(self, monkeypatch):
        hp = HyperParams(k=3)
        first = hp.digest()
        monkeypatch.setattr(HyperParams, "canonical", lambda self: pytest.fail("rehashed"))
        assert hp.digest() == first

    @pytest.mark.parametrize(
        "grid, reason",
        INVALID_REPLICAS,
        ids=[f"grid{i}" for i in range(len(INVALID_REPLICAS))],
    )
    def test_invalid_replica_is_invalid_spec(self, small_run, grid, reason):
        (name, values), = grid.items()
        if isinstance(values, list):
            expected = f"{reason}, in replica {{{name!r}: {values[0]!r}}}"
        else:
            # a value that is not a list is refused by name, before any replica
            # is spawned: a string would otherwise be one replica per character
            expected = reason
        for call in (lambda: spawn_replica_grid(grid),
                     lambda: zeroconf_run(small_run[3], "m1", (0, 10**18), grid=grid)):
            with pytest.raises(InvalidSpec) as info:
                call()
            assert str(info.value) == expected

    def test_empty_value_list_is_empty_grid_in_a_sweep_too(self, small_run):
        with pytest.raises(EmptyGrid):
            zeroconf_run(small_run[3], "m1", (0, 10**18), grid={"k": []})


def clean_three_phase_window():
    """Idle | Active | Waiting, no failure: every boundary is a strong
    contrast, so any grid penalty recovers exactly three segments."""
    from twinforge.simulate import MachineState, PhaseInterval, ScenarioSpec, simulate_scenario

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


def one_replica(window, hp, seed):
    """The one-replica reference: the sweep's plan over [hp] alone, v1, on
    the window of one machine's samples."""
    (result,) = orchestrator._plan(rows_of(window), [hp], seed)
    return result


def labelled_segments(peaks, change_points, labels):
    """The segment records of a replica with the given block features,
    change points and block labels."""
    seg = Segmentation(change_points=change_points, n_blocks=len(peaks), total_cost=0.0)
    return ReplicaResult(
        replica_version="v1-x",
        hyperparams=HyperParams(),
        segmentation=seg,
        labels=np.array(labels),
        silhouette=0.0,
        features=FeatureSeries(peaks),
        segment_stats=segment_stats(peaks, seg),
        window_start_ts=0,
        per_sample_ns=10**7,
    ).segments


class TestRunReplica:
    def test_recovers_clean_three_phase_segments(self):
        window, truth = clean_three_phase_window()
        hp = HyperParams(block_size=50, penalty=40.0, k=3)
        result = one_replica(window, hp, seed=42)
        assert result.segment_count == 3
        assert result.segmentation.change_points == truth.machines[
            "m1"
        ].change_point_blocks(50)

    def test_deterministic_including_version(self, small_run):
        _, samples, _, _ = small_run
        window = [s for s in samples if s.channel is not Channel.plc_state]
        hp = HyperParams(block_size=50, penalty=10.0, k=2)
        a = one_replica(window, hp, seed=1)
        b = one_replica(window, hp, seed=1)
        assert a.replica_version == b.replica_version
        assert a.replica_version.startswith("v1-")
        assert a.segmentation == b.segmentation
        assert np.array_equal(a.labels, b.labels)
        assert a.silhouette == b.silhouette

    def test_plan_versions_replicas_in_grid_order(self, small_run):
        _, samples, _, _ = small_run
        hps = spawn_replica_grid({"penalty": [160, 10], "k": [3, 2], "block_size": [50]})
        results = orchestrator._plan(rows_of(samples), hps, seed=1)
        assert [r.hyperparams for r in results] == hps
        assert [r.replica_version for r in results] == [
            f"v{i + 1}-{hp.digest()}" for i, hp in enumerate(hps)
        ]

    def test_segments_are_archive_records_stamped_at_their_first_block(self):
        # 100 Hz from ts 0: a block of 50 samples spans 500 ms of data
        window, _ = clean_three_phase_window()
        result = one_replica(window, HyperParams(block_size=50, penalty=40.0, k=3), seed=42)
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
        assert s.stats.duration_blocks == 9
        assert s.stats.mean == pytest.approx((4.0, -4.0, 0.5))
        assert s.stats.peak == pytest.approx((8.0, -0.0, 0.5))

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
            orchestrator._plan(rows_of(window), [HyperParams()], seed=1)


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
        hp = HyperParams(penalty=penalty)
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
        events = flag_anomalies(records, rarity_threshold=0.05, machine="m1")
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

    def test_boundary_frequency_not_flagged(self):
        # exactly at the threshold is not rare (strict inequality)
        records = [
            seg_record("v1-x", 0, (0, 95), 0),
            seg_record("v1-x", 1, (95, 100), 1),
        ]
        assert flag_anomalies(records, rarity_threshold=0.05) == []

    def test_split_rare_cluster_flags_all_its_segments(self):
        records = [
            seg_record("v1-x", 0, (0, 96), 0),
            seg_record("v1-x", 1, (96, 98), 1),
            seg_record("v1-x", 2, (98, 100), 1),
        ]
        events = flag_anomalies(records, rarity_threshold=0.05)
        assert [e.segment_index for e in events] == [1, 2]


class TestTimeline:
    def test_rows_tile_blocks(self, small_run):
        _, samples, _, archive = small_run
        report, timeline, _ = zeroconf_run(
            archive, "m1", (0, 10**18), grid={"penalty": [40], "k": [3], "block_size": [50]}
        )
        rows = timeline.rows
        assert rows[0][0] == 0
        assert rows[-1][1] == len(report.results[0].features)
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
        zeroconf_run(archive, "m1", (0, 10**18), grid={"penalty": [10], "k": [2]})
        after = [e.sample for e in archive.scan("m1")]
        assert [encode_sample(s) for s in before] == [encode_sample(s) for s in after]

    def test_rerun_identical_and_idempotent(self, small_run):
        _, _, _, archive = small_run
        grid = {"penalty": [10, 40], "k": [2], "block_size": [50]}
        r1 = zeroconf_run(archive, "m1", (0, 10**18), grid=grid)
        records_1 = archive.segments_for(r1[0].selected)
        r2 = zeroconf_run(archive, "m1", (0, 10**18), grid=grid)
        assert r1[0].selected == r2[0].selected
        assert r1[1] == r2[1]
        assert r1[2] == r2[2]
        assert archive.segments_for(r2[0].selected) == records_1

    def test_planned_sweep_equals_independent_replicas(self, small_run):
        _, _, _, archive = small_run
        grid = {"penalty": [10, 40, 160], "k": [2, 3], "block_size": [25, 50]}
        report, timeline, anomalies = zeroconf_run(archive, "m1", (0, 10**18), grid=grid, seed=7)

        query = WindowQuery("m1", 0, 10**18, channels=frozenset(ACCEL_CHANNELS))
        window = [e.sample for e in archive.query_window(query)]
        expected = rank_replicas(
            [
                replace(one_replica(window, hp, 7), replica_version=f"v{i + 1}-{hp.digest()}")
                for i, hp in enumerate(spawn_replica_grid(grid))
            ]
        )
        assert len(report.results) == len(expected.results) == 12
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
        seed_for = orchestrator._kmeanspp_init

        def counted(x, k, seed):
            seedings.append((len(x), k))
            return seed_for(x, k, seed)

        monkeypatch.setattr(orchestrator, "_kmeanspp_init", counted)
        monkeypatch.setattr(analytics, "_kmeanspp_init", counted)
        _, _, _, archive = small_run
        zeroconf_run(archive, "m1", (0, 10**18))
        # one seeding for the largest k of each block size, none in kmeans_fit
        assert [k for _, k in seedings] == [max(DEFAULT_GRID["k"])] * len(DEFAULT_GRID["block_size"])
        assert len({n for n, _ in seedings}) == len(DEFAULT_GRID["block_size"])

    def test_segment_stats_once_per_segmentation(self, small_run, monkeypatch):
        calls = []
        monkeypatch.setattr(
            orchestrator, "segment_stats", lambda *args: calls.append(args) or segment_stats(*args)
        )
        _, _, _, archive = small_run
        report, _, _ = zeroconf_run(archive, "m1", (0, 10**18))
        assert len(report.results) == 24

        def labelled():
            return sum("segments" in vars(r) for r in report.results)

        # 2 block sizes x 3 penalties segmentations; a sweep reads only the
        # winner's labelled segments
        assert (len(calls), labelled()) == (6, 1)
        # reading every replica's segments, twice, labels each other one once
        first = [r.segments for r in report.results]
        assert [r.segments for r in report.results] == first
        assert all(r.segments is s for r, s in zip(report.results, first))
        assert (len(calls), labelled()) == (6, 24)

    def test_timeline_reuses_the_winners_segments(self, small_run):
        _, _, _, archive = small_run
        report, timeline, anomalies = zeroconf_run(archive, "m1", (0, 10**18))
        winner = report.results[0]
        assert timeline == build_timeline(winner.segments, anomalies)
        # the winner's segments are its labelled segmentation, recomputed:
        # per segment, the most frequent block label (ties to the lowest)
        # and the per-axis mean and max of its block features
        peaks, labels = winner.features.peaks, winner.labels.tolist()
        want = []
        for i, (a, b) in enumerate(winner.segmentation.segments):
            majority = min(set(labels[a:b]), key=lambda l: (-labels[a:b].count(l), l))
            mean, peak = peaks[a:b].mean(axis=0).tolist(), peaks[a:b].max(axis=0).tolist()
            want.append((i, (a, b), majority, tuple(mean), tuple(peak), b - a))
        assert [
            (s.segment_index, s.block_range, s.cluster_label, s.stats.mean, s.stats.peak,
             s.stats.duration_blocks)
            for s in winner.segments
        ] == want

    def test_archived_records_are_the_winners_segments(self, small_run):
        _, samples, _, _ = small_run
        archive = archive_of(samples)
        report, _, _ = zeroconf_run(archive, "m1", (0, 10**18))
        assert archive.replica_versions() == (report.selected,)
        assert archive.segments_for(report.selected) == report.results[0].segments

    @pytest.mark.parametrize(
        "penalties, pelt_penalties",
        [([40, 40.0], [40, 40.0]), ([40, 40], [40]), ([40.0, 40.0], [40.0]), ([50.0, 40, 50], [50.0, 40, 50])],
    )
    def test_penalty_groups_keep_int_and_float_apart(self, small_run, monkeypatch, penalties, pelt_penalties):
        seen = []
        pelt = orchestrator.pelt_segment

        def recording(features, penalties):
            seen.append(list(penalties))
            return pelt(features, penalties)

        monkeypatch.setattr(orchestrator, "pelt_segment", recording)
        _, _, _, archive = small_run
        grid = {"penalty": penalties, "k": [2], "block_size": [50]}
        report, _, _ = zeroconf_run(archive, "m1", (0, 10**18), grid=grid)
        assert len(report.results) == len(penalties)
        assert len(seen) == 1
        assert [(type(p), p) for p in seen[0]] == [(type(p), p) for p in pelt_penalties]

    @pytest.mark.parametrize(
        "grid, error, version",
        [
            # 2 s is 8 blocks at block size 25 and 4 at 50: k = 5 fails only
            # at 50, in v22, although v13 fits every k of that block size
            (None, KExceedsN, "v22-62596441: k=5 > n=4"),
            # v1 and v2 share one PELT call and one k-means call; the k-means
            # failure is raised under v1, the first replica that shares it
            ({"penalty": [10.0, 160.0], "k": [5]}, KExceedsN, "v1-"),
            # a bad penalty or block size is refused when the grid is spawned,
            # as an InvalidSpec, which is also a ValueError
            ({"penalty": [10.0, -1.0], "k": [2]}, ValueError, "penalty must be >= 0"),
            # the replica whose own smooth window fails raises
            ({"smooth_window": [3, 100001], "k": [2]}, WindowTooLarge,
             "v2-37e4fe62: window 100001 > length 200"),
            ({"block_size": [50, 0], "k": [2]}, ValueError, "block_size must be >= 1"),
            # the first failure in plan order raises: the plan finishes the
            # smooth_window=3 readiness group, where k = 5 fails in v7 at
            # block size 50, before it cleans v2's axes with a window of 100001
            ({"block_size": [25, 50], "smooth_window": [3, 100001], "k": [2, 5]}, KExceedsN,
             "v7-14bfcf6b: k=5 > n=4"),
        ],
    )
    def test_shared_stage_failure_is_raised_by_its_replica(self, grid, error, version):
        samples, _ = simulate_scenario(default_scenario(duration_s=2, machines=("m1",)))
        with pytest.raises(error) as info:
            zeroconf_run(archive_of(samples), "m1", (0, 10**18), grid=grid)
        assert str(info.value).startswith(version)

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
        _, _, _, archive = small_run
        report, _, _ = zeroconf_run(
            archive, "m1", (0, 10**18), grid={"penalty": [10, 40], "k": [2, 3]}
        )
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
        total = sum(r.stats.duration_blocks for r in records)
        freq = {}
        for r in records:
            freq[r.cluster_label] = freq.get(r.cluster_label, 0) + r.stats.duration_blocks
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
