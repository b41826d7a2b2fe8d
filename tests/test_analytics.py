import math
import tracemalloc

import numpy as np
import pytest
from oracles import (
    naive_silhouette,
    random_step_series,
    reference_kmeans_fit,
    reference_pelt_segment,
    reference_segment_costs,
    reference_silhouette_loop,
)

import twinforge.rng as rng
from twinforge.analytics import (
    _PELT_TILE,
    _SILHOUETTE_ROWS,
    BRUTE_FORCE_MAX_N,
    PeltConfig,
    Segmentation,
    _backtrack,
    _kmeanspp_init,
    _prefix_sums,
    _segment_costs,
    brute_force_segment,
    kmeans_assign,
    kmeans_fit,
    label_segments,
    pelt_segment,
    segment_features,
    segment_stats,
    silhouette_score,
)
from twinforge.errors import (
    DimensionMismatch,
    EmptyInput,
    KExceedsN,
    LengthMismatch,
    SeriesTooLong,
    SeriesTooShort,
    TooFewPoints,
)


class TestPelt:
    def test_single_step(self):
        x = np.array([0.0] * 10 + [10.0] * 10)
        seg = pelt_segment(x, PeltConfig(penalty=10.0))
        oracle = brute_force_segment(x, PeltConfig(penalty=10.0))
        assert seg.change_points == (10,)
        assert seg.change_points == oracle.change_points

    def test_huge_penalty_no_change_points(self):
        x = np.arange(20.0) % 10
        seg = pelt_segment(x, PeltConfig(penalty=1e9))
        assert seg.change_points == ()

    def test_constant_series_no_change_points(self):
        seg = pelt_segment(np.ones(30), PeltConfig(penalty=1.0))
        assert seg.change_points == ()
        assert seg.total_cost == pytest.approx(0.0, abs=1e-12)

    def test_two_steps(self):
        x = np.array([0.0] * 8 + [5.0] * 8 + [0.0] * 8)
        seg = pelt_segment(x, PeltConfig(penalty=1.0))
        assert seg.change_points == (8, 16)

    def test_lockstep_forms(self):
        x = random_step_series(3)
        cfg = PeltConfig(penalty=10.0)
        assert pelt_segment(x, [cfg]) == (pelt_segment(x, cfg),)
        with pytest.raises(ValueError, match="min_segment"):
            pelt_segment(x, [cfg, PeltConfig(penalty=10.0, min_segment=3)])
        with pytest.raises(ValueError):
            pelt_segment(x, [])
        with pytest.raises(SeriesTooShort):
            pelt_segment(np.zeros(1), [cfg, PeltConfig(penalty=40.0)])

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            pelt_segment(np.zeros(1), PeltConfig(min_segment=2))

    def test_segments_partition_range(self):
        x = random_step_series(123)
        seg = pelt_segment(x, PeltConfig(penalty=5.0))
        segs = seg.segments
        assert segs[0][0] == 0 and segs[-1][1] == len(x)
        for (a, b), (c, d) in zip(segs, segs[1:]):
            assert b == c
        assert all(b - a >= 2 for a, b in segs)

    def test_penalty_monotonicity(self):
        x = random_step_series(9)
        counts = [
            len(pelt_segment(x, PeltConfig(penalty=beta)).change_points)
            for beta in (0.5, 1, 5, 10, 40, 160, 1000)
        ]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_brute_force(self, seed):
        x = random_step_series(seed)
        for beta in (1.0, 10.0, 40.0, 160.0):
            cfg = PeltConfig(penalty=beta)
            fast = pelt_segment(x, cfg)
            oracle = brute_force_segment(x, cfg)
            assert fast.change_points == oracle.change_points
            assert fast.total_cost == pytest.approx(oracle.total_cost, abs=1e-9)

    def test_min_segment_three_matches_oracle(self):
        for seed in range(6):
            x = random_step_series(seed + 500)
            cfg = PeltConfig(penalty=2.0, min_segment=3)
            assert (
                pelt_segment(x, cfg).change_points
                == brute_force_segment(x, cfg).change_points
            )

    def test_brute_force_size_cap(self):
        with pytest.raises(SeriesTooLong):
            brute_force_segment(np.zeros(513), PeltConfig())

    def test_n_equals_min_segment(self):
        seg = brute_force_segment(np.array([1.0, 2.0]), PeltConfig(penalty=1.0))
        assert seg.change_points == ()


class TestKMeans:
    def test_two_tight_pairs(self):
        x = np.array([0.0, 0.1, 10.0, 10.1])
        model = kmeans_fit(x, k=2, seed=1)
        got = sorted(float(c) for c in model.centroids[:, 0])
        assert got == pytest.approx([0.05, 10.05])
        assert model.inertia == pytest.approx(0.01)
        # oracle: exhaustive check over all 2-partitions
        best = math.inf
        for mask in range(1, 15):
            a = [x[i] for i in range(4) if mask & (1 << i)]
            b = [x[i] for i in range(4) if not mask & (1 << i)]
            if not a or not b:
                continue
            cost = sum((v - np.mean(a)) ** 2 for v in a) + sum(
                (v - np.mean(b)) ** 2 for v in b
            )
            best = min(best, cost)
        assert model.inertia == pytest.approx(best)

    def test_k_equals_n(self):
        x = np.array([[0.0], [1.0], [2.0]])
        model = kmeans_fit(x, k=3, seed=0)
        assert model.inertia == pytest.approx(0.0)
        assert sorted(model.labels.tolist()) == [0, 1, 2]

    def test_k_one_centroid_is_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        model = kmeans_fit(x, k=1, seed=0)
        np.testing.assert_allclose(model.centroids[0], x.mean(axis=0))

    def test_errors(self):
        with pytest.raises(EmptyInput):
            kmeans_fit(np.empty((0, 2)), 1, seed=0)
        with pytest.raises(KExceedsN):
            kmeans_fit(np.zeros((3, 2)), 4, seed=0)

    def test_deterministic_bit_for_bit(self):
        x = random_step_series(4, max_n=80)
        a = kmeans_fit(x, k=3, seed=7)
        b = kmeans_fit(x, k=3, seed=7)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia
        assert a.inertia_history == b.inertia_history

    def test_inertia_history_non_increasing(self):
        for seed in range(8):
            x = random_step_series(seed + 40, max_n=100)
            model = kmeans_fit(x, k=min(4, len(x)), seed=seed)
            hist = model.inertia_history
            assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_local_optimality(self):
        # no single-point relabeling lowers inertia at convergence
        x = random_step_series(3, max_n=50)
        model = kmeans_fit(x, k=3, seed=2)
        for i in range(len(x)):
            own = ((x[i] - model.centroids[model.labels[i]]) ** 2).sum()
            for j in range(model.k):
                other = ((x[i] - model.centroids[j]) ** 2).sum()
                assert other >= own - 1e-12

    def test_scale_invariant_labels(self):
        x = random_step_series(12, max_n=60)
        base = kmeans_fit(x, k=3, seed=5)
        scaled = kmeans_fit(x * 3.7, k=3, seed=5)
        assert np.array_equal(base.labels, scaled.labels)


def kmeans_inputs(seed, n, d, kind):
    """Seeded k-means input: normal draws, or the same rounded, duplicated
    or all identical, which leave clusters empty and run the repair loop, or
    shrunk and rounded, mostly +0.0 and -0.0, whose cluster sums depend on
    the sign of the zero they start from."""
    x = np.random.default_rng(seed).normal(size=(n, d))
    if kind == "rounded":
        return np.round(x)
    if kind == "signed_zero":
        return np.round(0.3 * x)
    if kind == "duplicated":
        return np.repeat(x[: (n + 3) // 4], 4, axis=0)[:n]
    if kind == "identical":
        return np.full((n, d), 1.5)
    return x


KMEANS_KINDS = ["normal", "rounded", "duplicated", "identical", "signed_zero"]


def assert_same_fit(got, want):
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert np.array_equal(got.labels, want.labels)
    assert np.float64(got.inertia).tobytes() == np.float64(want.inertia).tobytes()
    assert got.iterations_run == want.iterations_run
    assert np.array(got.inertia_history).tobytes() == np.array(want.inertia_history).tobytes()


class TestKMeansOracle:
    # Fewer distinct points than k can leave a cluster empty after the
    # repair; both versions then divide 0 by 0 (NaN centroids), and the
    # library's mean warns about it.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", KMEANS_KINDS)
    def test_equals_reference_bit_for_bit(self, kind):
        cases = 0
        for d in range(1, 6):
            for k in range(1, 7):
                for rep in range(4):
                    seed = 1000 * d + 10 * k + rep
                    n = k + int(np.random.default_rng(seed).integers(0, 40))
                    x = kmeans_inputs(seed, n, d, kind)
                    assert_same_fit(kmeans_fit(x, k, seed=seed), reference_kmeans_fit(x, k, seed=seed))
                    cases += 1
        assert cases == 5 * 6 * 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", KMEANS_KINDS)
    def test_long_inputs_equal_reference(self, kind):
        # the add.at Lloyd step (d >= 2) over clusters of hundreds of rows,
        # n up to 2,490
        for d in range(2, 8):
            seed = 7000 + d
            n = 1300 + 170 * d
            k = 2 + d % 4
            x = kmeans_inputs(seed, n, d, kind)
            assert_same_fit(kmeans_fit(x, k, seed=seed), reference_kmeans_fit(x, k, seed=seed))

    def test_column_of_negative_zeros_sums_to_positive_zero(self):
        # add.reduce sums from +0.0, so a cluster whose column is all -0.0
        # has the centroid coordinate +0.0; so must the add.at step
        for d in range(2, 8):
            x = kmeans_inputs(7100 + d, 2400, d, "normal")
            x[:, d // 2] = -0.0
            got = kmeans_fit(x, 3, seed=d)
            assert_same_fit(got, reference_kmeans_fit(x, 3, seed=d))
            assert not np.signbit(got.centroids[:, d // 2]).any()

    def test_identical_points_run_the_repair(self):
        # every k-means++ draw picks the same point, so the first assignment
        # puts everything in cluster 0 and the repair fills clusters 1..k-1
        x = np.full((7, 2), -0.25)
        for k in range(2, 7):
            got, want = kmeans_fit(x, k, seed=k), reference_kmeans_fit(x, k, seed=k)
            assert got.centroids.tobytes() == want.centroids.tobytes()
            assert got.inertia_history == want.inertia_history


class TestSharedSeeding:
    """One k-means++ seeding for the largest k serves every smaller k: its
    first k rows are the seeding for k, so the fit is the same bit for bit."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", KMEANS_KINDS)
    def test_prefix_of_a_larger_seeding_gives_the_same_fit(self, kind):
        for d in (1, 3):
            for rep in range(6):
                seed = 500 + 10 * d + rep
                n = 4 + rep * 7  # rep 0: n = 4, so k = n = top is covered
                x = kmeans_inputs(seed, n, d, kind)
                top = min(5, n)
                init = _kmeanspp_init(x, top, seed)
                for k in range(1, top + 1):
                    assert _kmeanspp_init(x, k, seed).tobytes() == init[:k].tobytes()
                    assert_same_fit(kmeans_fit(x, k, seed, init), kmeans_fit(x, k, seed))

    def test_repair_path_with_a_shared_seeding(self):
        # identical points: every draw is one point, so the repair fills
        # clusters 1..k-1 from the shared seeding as from its own
        x = np.full((6, 3), -0.25)
        init = _kmeanspp_init(x, 6, 3)
        for k in range(1, 7):
            assert_same_fit(kmeans_fit(x, k, 3, init), reference_kmeans_fit(x, k, seed=3))

    def test_k_past_n_raises_before_init_is_read(self):
        x = np.zeros((4, 3))
        with pytest.raises(KExceedsN, match="k=5 > n=4"):
            kmeans_fit(x, 5, 0, _kmeanspp_init(x, 4, 0))

    def test_short_init_rejected(self):
        x = kmeans_inputs(1, 10, 3, "normal")
        with pytest.raises(ValueError, match="init holds 2 centroids, k=3"):
            kmeans_fit(x, 3, 1, _kmeanspp_init(x, 2, 1))


class TestAssign:
    def test_exact_centroid(self):
        model = kmeans_fit(np.array([[0.0], [10.0]]), k=2, seed=0)
        for j in range(2):
            assert kmeans_assign(model, model.centroids[j]) == j

    def test_tie_goes_to_lowest_index(self):
        model = kmeans_fit(np.array([[0.0], [0.0], [2.0], [2.0]]), k=2, seed=0)
        centroids = sorted(model.centroids[:, 0])
        midpoint = np.array([(centroids[0] + centroids[1]) / 2])
        assert kmeans_assign(model, midpoint) == 0

    def test_dimension_mismatch(self):
        model = kmeans_fit(np.zeros((4, 2)), k=2, seed=0)
        with pytest.raises(DimensionMismatch):
            kmeans_assign(model, np.zeros(3))


class TestSilhouette:
    def test_two_tight_pairs(self):
        x = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels = [0, 0, 1, 1]
        score = silhouette_score(x, labels)
        # hand computation: a=0.1; b in {9.95, 10.05}
        expected = (
            (10.05 - 0.1) / 10.05
            + (9.95 - 0.1) / 9.95
            + (9.95 - 0.1) / 9.95
            + (10.05 - 0.1) / 10.05
        ) / 4
        assert score == pytest.approx(expected, abs=1e-12)
        assert score == pytest.approx(0.99, abs=1e-3)

    def test_single_cluster_is_zero(self):
        assert silhouette_score(np.random.rand(10, 2), [1] * 10) == 0.0

    def test_singleton_cluster_scores_zero(self):
        x = np.array([[0.0], [0.1], [5.0]])
        score = silhouette_score(x, [0, 0, 1])
        assert score == pytest.approx(naive_silhouette(x.tolist(), [0, 0, 1]), abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            silhouette_score(np.zeros((1, 1)), [0])

    def test_in_range(self):
        key = rng.stream_key(5, "sil")
        u = rng.uniforms(key, np.arange(300, dtype=np.uint64))
        x = u.reshape(100, 3)
        labels = (u[:100] * 4).astype(int)
        assert -1.0 <= silhouette_score(x, labels) <= 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        key = rng.stream_key(seed, "sil-oracle")
        u = rng.uniforms(key, np.arange(400, dtype=np.uint64))
        n = 20 + int(u[0] * 40)
        d = 1 + int(u[1] * 3)
        x = (u[2 : 2 + n * d].reshape(n, d) - 0.5) * 10
        labels = (u[2 + n * d : 2 + n * d + n] * (2 + int(u[1] * 3))).astype(int)
        got = silhouette_score(x, labels)
        want = naive_silhouette(x.tolist(), labels.tolist())
        assert got == pytest.approx(want, abs=1e-9)


def labelled_points(seed, n, d, k, skew=1.0):
    """n points in d dims with k-cluster labels; skew > 1 makes sizes uneven."""
    key = rng.stream_key(seed, "sil-blocks")
    u = rng.uniforms(key, np.arange(n * d + n, dtype=np.uint64))
    x = (u[: n * d].reshape(n, d) - 0.5) * 10
    labels = (u[n * d :] ** skew * k).astype(int)
    return x, labels


class TestSilhouetteRowBlocks:
    """The row-blocked score must equal the original per-point loop exactly
    (==, not approx): report.json carries silhouettes byte for byte."""

    @pytest.mark.parametrize(
        "n",
        [2, 3, _SILHOUETTE_ROWS - 1, _SILHOUETTE_ROWS, _SILHOUETTE_ROWS + 1, 255, 256, 257, 2401],
    )
    def test_equals_per_point_loop(self, n):
        x, labels = labelled_points(n, n, 3, k=min(4, n))
        assert silhouette_score(x, labels) == reference_silhouette_loop(x, labels)

    def test_uneven_clusters_with_singleton(self):
        x, labels = labelled_points(7, 2401, 3, k=5, skew=3.0)
        labels[1234] = 9  # a singleton cluster
        sizes = np.bincount(labels)
        assert sizes[9] == 1 and sizes[0] > 5 * sizes[4] > 0
        assert silhouette_score(x, labels) == reference_silhouette_loop(x, labels)

    def test_one_dimensional_and_string_labels(self):
        x, labels = labelled_points(8, 600, 1, k=3)
        names = np.array(["idle", "active", "failure"])[labels]
        assert silhouette_score(x[:, 0], names) == reference_silhouette_loop(x[:, 0], names)

    def test_single_cluster_labelling(self):
        x, _ = labelled_points(9, 2401, 3, k=1)
        labels = np.full(2401, 3)
        assert silhouette_score(x, labels) == reference_silhouette_loop(x, labels) == 0.0

    def test_memory_stays_in_row_blocks(self):
        x, labels = labelled_points(10, 2400, 3, k=4)
        stack = np.stack([labels, (labels + 1) % 4, labels % 2, np.arange(2400) % 5])
        tracemalloc.start()
        try:
            silhouette_score(x, stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the full n x n x 3 broadcast alone would be 132 MiB
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "d, n",
        [
            (d, n)
            for d in (2, 5, 7)
            for n in (_SILHOUETTE_ROWS - 1, _SILHOUETTE_ROWS, _SILHOUETTE_ROWS + 1, 255, 256, 257)
        ]
        + [(2, 2401)],
    )
    def test_several_labelings_equal_per_point_loop(self, d, n):
        x, labels = labelled_points(d, n, d, k=4)
        singleton = labels.copy()
        singleton[n // 2] = 9
        _, uneven = labelled_points(d + 100, n, d, k=5, skew=3.0)
        stack = np.stack([labels, np.full(n, 3), singleton, uneven])
        got = silhouette_score(x, stack)
        assert got == tuple(reference_silhouette_loop(x, lab) for lab in stack)
        assert got == tuple(silhouette_score(x, lab) for lab in stack)
        assert got[1] == 0.0

    def test_labeling_forms(self):
        x, labels = labelled_points(11, 40, 3, k=3)
        assert silhouette_score(x, labels[None]) == (silhouette_score(x, labels),)
        assert silhouette_score(x, np.empty((0, 40), dtype=int)) == ()
        with pytest.raises(LengthMismatch):
            silhouette_score(x, np.stack([labels, labels])[:, :39])


PENALTIES = (0.0, 0.5, 5.0, 40.0, 1e9)


class TestLongWindowKernels:
    """Per-column cost and distance sums and array-held PELT candidates must
    reproduce the original kernels exactly for d <= 7 (report.json carries
    change points, total costs and silhouettes byte for byte), and stay
    within the documented oracles above that."""

    @pytest.mark.parametrize("seed", range(900, 912))
    def test_pelt_equals_reference(self, seed):
        # seeds 900-911 cover d = 1..5 and n from 59 to 579
        # one lockstep call over all PENALTIES: 0 and 1e9 prune very
        # differently, so the penalties' candidate sets diverge
        x = random_step_series(seed, max_n=600, max_d=5)
        for series in (x, np.round(x)):  # rounded: exact cost ties
            for m in range(1, 5):
                cfgs = [PeltConfig(penalty=beta, min_segment=m) for beta in PENALTIES]
                got = pelt_segment(series, cfgs)
                assert got == tuple(reference_pelt_segment(series, cfg) for cfg in cfgs)
                assert got == tuple(pelt_segment(series, cfg) for cfg in cfgs)
                if len(series) <= BRUTE_FORCE_MAX_N:
                    for seg, cfg in zip(got, cfgs):
                        oracle = brute_force_segment(series, cfg)
                        assert seg.change_points == oracle.change_points
                        # the oracle's F carries -penalty from F(0): up to
                        # half an ulp of the penalty lost per step
                        slack = 1e-9 + len(series) * cfg.penalty * 2.0**-53
                        assert seg.total_cost == pytest.approx(oracle.total_cost, abs=slack)

    def test_pelt_constant_series_and_minimal_length(self):
        for m in range(1, 5):
            for beta in PENALTIES:
                cfg = PeltConfig(penalty=beta, min_segment=m)
                for x in (np.full((97, 3), 2.5), np.arange(m * 3.0).reshape(m, 3)):
                    assert pelt_segment(x, cfg) == reference_pelt_segment(x, cfg)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_segment_costs_equal_axis_sum(self, d):
        key = rng.stream_key(d, "costs")
        x = (rng.uniforms(key, np.arange(300 * d, dtype=np.uint64)).reshape(300, d) - 0.5) * 1e3
        s1, s2 = _prefix_sums(x)
        for end in (1, 2, 150, 300):
            starts = np.arange(end, dtype=np.int64)
            assert np.array_equal(
                _segment_costs(s1, s2, starts, end), reference_segment_costs(s1, s2, starts, end)
            )

    @pytest.mark.parametrize("d", [2, 5, 7])
    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_silhouette_equals_per_point_loop(self, d, scale):
        x, labels = labelled_points(d, 700, d, k=4)
        x *= scale
        assert silhouette_score(x, labels) == reference_silhouette_loop(x, labels)

    @pytest.mark.parametrize("d", [8, 12])
    def test_wide_features_stay_within_oracles(self, d):
        x, labels = labelled_points(d, 80, d, k=3)
        singleton = labels.copy()
        singleton[40] = 9
        _, uneven = labelled_points(d + 100, 80, d, k=4, skew=3.0)
        stack = np.stack([labels, singleton, uneven])
        for got, lab in zip(silhouette_score(x, stack), stack):
            assert got == pytest.approx(naive_silhouette(x.tolist(), lab.tolist()), abs=1e-9)
        series = 0.2 * np.repeat(x[:8], 10, axis=0) + 0.3 * x  # 8 noisy levels
        for beta in (0.5, 5.0, 40.0, 200.0):
            cfg = PeltConfig(penalty=beta)
            fast = pelt_segment(series, cfg)
            oracle = brute_force_segment(series, cfg)
            assert fast.change_points == oracle.change_points
            assert fast.total_cost == pytest.approx(oracle.total_cost, abs=1e-9)


def tile_lengths(m):
    """Series lengths around the tile boundaries of pelt_segment, whose steps
    run from m to n: one step below, at and above one and two full tiles,
    plus the shortest series, n = m."""
    out = {m}
    for tiles in (1, 2):
        out.update(m - 1 + tiles * _PELT_TILE + d for d in (-1, 0, 1))
    return sorted(out)


def tile_series(n, seed):
    """Step, constant and rounded (tied-cost) series of n blocks."""
    key = rng.stream_key(seed, "tiles")
    u = rng.uniforms(key, np.arange(n * 3, dtype=np.uint64)).reshape(n, 3)
    levels = np.repeat(np.array([[0.0, 1.0, -1.0], [4.0, -2.0, 0.5], [1.0, 3.0, 2.0]]), 13, axis=0)
    steps = np.resize(levels, (n, 3)) + 0.4 * (u - 0.5)
    return {
        "step": steps,
        "constant": np.full((n, 2), 1.5),
        "rounded": np.round(2 * steps) / 2,
        "rounded-1d": np.round(steps[:, 0]),
    }


PENALTY_SETS = ((0.0,), (1e6,), (0.0, 1e6), (40.0, 0.0, 5.0), (0.5, 1e6, 0.0, 40.0))


class TestPeltTiles:
    """pelt_segment advances in tiles of _PELT_TILE steps, keeping between
    tiles only the starts some penalty still holds. Results at and around
    the tile boundaries must equal the original per-step code."""

    @pytest.mark.parametrize("m", range(1, 5))
    def test_lockstep_equals_reference_around_tile_boundaries(self, m):
        for n in tile_lengths(m):
            for name, x in tile_series(n, seed=n * 10 + m).items():
                for penalties in PENALTY_SETS:
                    cfgs = [PeltConfig(penalty=beta, min_segment=m) for beta in penalties]
                    got = pelt_segment(x, cfgs)
                    want = tuple(reference_pelt_segment(x, cfg) for cfg in cfgs)
                    assert got == want, (n, name, penalties)
                    for cfg, seg in zip(cfgs, got):
                        assert pelt_segment(x, [cfg]) == (pelt_segment(x, cfg),) == (seg,)


class TestBacktrack:
    def test_follows_pointers_to_the_change_points(self):
        assert _backtrack(np.array([0, 0, 0, 0, 2, 4, 4]), 6) == [2, 4]

    @pytest.mark.parametrize("pointer", [4, 5, -1], ids=["self", "forward", "negative"])
    def test_pointer_outside_its_step_raises(self, pointer):
        prev = np.array([0, 0, 0, 0, pointer, 4])
        with pytest.raises(RuntimeError, match=f"back-pointer {pointer} at step 4"):
            _backtrack(prev, 5)


class TestSegmentStats:
    def test_halves_compose_to_segment_features(self):
        x = random_step_series(5, max_n=60, max_d=3)
        seg = pelt_segment(x, PeltConfig(penalty=1.0))
        stats = segment_stats(x, seg)
        assert [s[0] for s in stats] == seg.segments
        for k in (1, 2, 3):
            labels = np.arange(len(x)) % k
            assert label_segments(stats, labels) == segment_features(x, seg, labels)

    def test_mismatches(self):
        x = np.zeros((9, 2))
        seg = Segmentation(change_points=(4,), n_blocks=9, total_cost=0.0)
        with pytest.raises(LengthMismatch, match="segmentation over 9 != 8 blocks"):
            segment_stats(x[:8], seg)
        with pytest.raises(LengthMismatch, match="8 labels for 9 blocks"):
            label_segments(segment_stats(x, seg), [0] * 8)


class TestSegmentFeatures:
    def features(self):
        return np.array([[float(i), -float(i), 0.5] for i in range(9)])

    def test_single_segment_uniform_labels(self):
        seg = Segmentation(change_points=(), n_blocks=9, total_cost=0.0)
        out = segment_features(self.features(), seg, [2] * 9)
        assert len(out) == 1
        assert out[0].cluster_label == 2
        assert out[0].duration_blocks == 9
        assert out[0].mean == pytest.approx((4.0, -4.0, 0.5))
        assert out[0].peak == pytest.approx((8.0, -0.0, 0.5))

    def test_majority_label(self):
        seg = Segmentation(change_points=(3,), n_blocks=9, total_cost=0.0)
        out = segment_features(self.features(), seg, [1, 1, 2, 0, 0, 0, 0, 1, 0])
        assert out[0].cluster_label == 1
        assert out[1].cluster_label == 0

    def test_tie_to_lowest_label(self):
        seg = Segmentation(change_points=(), n_blocks=9, total_cost=0.0)
        out = segment_features(self.features(), seg, [1, 2, 1, 2, 1, 2, 1, 2, 0])
        assert out[0].cluster_label == 1

    def test_length_mismatch(self):
        seg = Segmentation(change_points=(), n_blocks=9, total_cost=0.0)
        with pytest.raises(LengthMismatch):
            segment_features(self.features(), seg, [0] * 8)
