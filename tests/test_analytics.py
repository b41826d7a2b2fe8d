import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import HUGE_INT, HUGE_INT_SHOWN
from oracles import (
    BRUTE_FORCE_MAX_N,
    brute_force_segment,
    exhaustive_segment,
    naive_silhouette,
    random_step_series,
    reference_kmeans_fit,
    reference_kmeanspp_init,
    reference_objective,
    reference_pelt_segment,
    reference_segment_costs,
    reference_silhouette_loop,
)

import twinforge.rng as rng
from twinforge.analytics import (
    _MIN_SEGMENT,
    _PELT_TILE,
    _SILHOUETTE_ROWS,
    _backtrack,
    _prefix_sums,
    _segment_costs,
    check_penalty,
    kmeans_fit,
    kmeanspp_init,
    pelt_segment,
    silhouette_score,
)
from twinforge.errors import (
    EmptyInput,
    FeatureOutOfRange,
    InvalidSpec,
    KExceedsN,
    LengthMismatch,
    SeriesTooShort,
    TooFewPoints,
)


class TestPelt:
    def test_single_step(self):
        x = np.array([0.0] * 10 + [10.0] * 10)
        (seg,) = pelt_segment(x, [10.0])
        oracle = brute_force_segment(x, 10.0)
        assert seg.change_points == (10,)
        assert seg.change_points == oracle.change_points

    def test_huge_penalty_no_change_points(self):
        x = np.arange(20.0) % 10
        (seg,) = pelt_segment(x, [1e9])
        assert seg.change_points == ()

    def test_constant_series_no_change_points(self):
        (seg,) = pelt_segment(np.ones(30), [1.0])
        assert seg.change_points == ()
        assert seg.total_cost == pytest.approx(0.0, abs=1e-12)

    def test_two_steps(self):
        x = np.array([0.0] * 8 + [5.0] * 8 + [0.0] * 8)
        (seg,) = pelt_segment(x, [1.0])
        assert seg.change_points == (8, 16)

    def test_lockstep_forms(self):
        x = random_step_series(3)
        assert pelt_segment(x, [10.0, 40.0]) == pelt_segment(x, [10.0]) + pelt_segment(x, [40.0])
        with pytest.raises(ValueError):
            pelt_segment(x, [])
        with pytest.raises(SeriesTooShort):
            pelt_segment(np.zeros(1), [10.0, 40.0])

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            pelt_segment(np.zeros(1), [40.0])

    @pytest.mark.parametrize(
        "penalty",
        [-1.0, float("-inf"), float("nan"), float("inf"), pytest.param(10**400, id="401-digit-int")],
    )
    @pytest.mark.parametrize(
        "segment",
        [lambda x, p: pelt_segment(x, [40.0, p]), brute_force_segment],
        ids=["pelt", "brute-force"],
    )
    def test_penalty_must_be_finite_and_non_negative(self, penalty, segment):
        with pytest.raises(ValueError, match="^penalty must be"):
            segment(np.zeros(4), penalty)

    def test_an_int_too_long_to_print_is_shown_by_its_size(self, int_text_limit):
        with pytest.raises(ValueError) as info:
            check_penalty(HUGE_INT)
        assert str(info.value) == f"penalty must be finite, got {HUGE_INT_SHOWN}"

    def test_segments_partition_range(self):
        x = random_step_series(123)
        (seg,) = pelt_segment(x, [5.0])
        segs = seg.segments
        assert segs[0][0] == 0 and segs[-1][1] == len(x)
        for (a, b), (c, d) in zip(segs, segs[1:]):
            assert b == c
        assert all(b - a >= 2 for a, b in segs)

    def test_penalty_monotonicity(self):
        x = random_step_series(9)
        counts = [
            len(pelt_segment(x, [beta])[0].change_points)
            for beta in (0.5, 1, 5, 10, 40, 160, 1000)
        ]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_brute_force(self, seed):
        x = random_step_series(seed)
        for beta in (1.0, 10.0, 40.0, 160.0):
            (fast,) = pelt_segment(x, [beta])
            oracle = brute_force_segment(x, beta)
            assert fast.change_points == oracle.change_points
            assert fast.total_cost == pytest.approx(oracle.total_cost, abs=1e-9)

    def test_brute_force_size_cap(self):
        with pytest.raises(ValueError, match=r"^513 blocks > 512$"):
            brute_force_segment(np.zeros(513), 40.0)

    def test_n_equals_min_segment(self):
        seg = brute_force_segment(np.array([1.0, 2.0]), 1.0)
        assert seg.change_points == ()


class TestBruteForceOracle:
    """The DP oracle that PELT is held to, held in turn to first principles:
    hand-worked optima and every admissible segmentation enumerated."""

    @pytest.mark.parametrize(
        "x, penalty, change_points, objective",
        [
            ([0.0, 0.0, 5.0, 5.0], 1.0, (2,), 1.0),
            # one segment costs 4 * 2.5**2 = 25
            ([0.0, 0.0, 5.0, 5.0], 100.0, (), 25.0),
            # a tie between 25 and 0 + 0 + 25 goes to fewer change points
            ([0.0, 0.0, 5.0, 5.0], 25.0, (), 25.0),
            # three blocks admit no cut: either side would be one block
            ([0.0, 9.0, 0.0], 0.0, (), 54.0),
            ([0.0, 0.0, 0.0, 7.0, 7.0, 7.0], 1.0, (3,), 1.0),
            ([0.0, 0.0, 4.0, 4.0, 0.0, 0.0], 1.0, (2, 4), 2.0),
            # the cost sums over dimensions: 1 + 9 unsplit
            ([[0.0, 0.0], [0.0, 0.0], [1.0, 3.0], [1.0, 3.0]], 1.0, (2,), 1.0),
        ],
        ids=["step", "step-high-penalty", "step-tie", "three-blocks", "wide-step", "two-steps",
             "two-dimensions"],
    )
    def test_hand_worked_optimum(self, x, penalty, change_points, objective):
        x = np.array(x)
        for seg in (brute_force_segment(x, penalty), pelt_segment(x, [penalty])[0]):
            assert seg.change_points == change_points
            assert seg.total_cost == pytest.approx(objective, abs=1e-12)

    @pytest.mark.parametrize("seed", range(24))
    def test_equals_exhaustive_enumeration(self, seed):
        x = random_step_series(seed, max_n=14)  # 4 to 13 blocks
        for penalty in (0.0, 1.0, 10.0, 160.0):
            seg = brute_force_segment(x, penalty)
            change_points, best = exhaustive_segment(x, penalty)
            assert seg.change_points == change_points
            assert seg.total_cost == pytest.approx(best, abs=1e-9)
            assert reference_objective(x, seg.change_points, penalty) == pytest.approx(
                best, abs=1e-9
            )


def inertia(x, model) -> float:
    """Sum of squared distances from each point to its centroid."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return float(((x - model.centroids[model.labels]) ** 2).sum())


class TestKMeans:
    def test_two_tight_pairs(self):
        x = np.array([0.0, 0.1, 10.0, 10.1])
        model = kmeans_fit(x, 2, kmeanspp_init(x, 2, 1))
        got = sorted(float(c) for c in model.centroids[:, 0])
        assert got == pytest.approx([0.05, 10.05])
        assert inertia(x, model) == pytest.approx(0.01)
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
        assert inertia(x, model) == pytest.approx(best)

    def test_k_equals_n(self):
        x = np.array([[0.0], [1.0], [2.0]])
        model = kmeans_fit(x, 3, kmeanspp_init(x, 3, 0))
        assert inertia(x, model) == pytest.approx(0.0)
        assert sorted(model.labels.tolist()) == [0, 1, 2]

    def test_k_one_centroid_is_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        model = kmeans_fit(x, 1, kmeanspp_init(x, 1, 0))
        np.testing.assert_allclose(model.centroids[0], x.mean(axis=0))

    def test_errors(self):
        with pytest.raises(EmptyInput):
            kmeans_fit(np.empty((0, 2)), 1, np.zeros((1, 2)))
        with pytest.raises(EmptyInput, match="^kmeanspp_init needs at least one vector$"):
            kmeanspp_init(np.empty((0, 2)), 1, 0)
        with pytest.raises(KExceedsN):
            kmeans_fit(np.zeros((3, 2)), 4, np.zeros((4, 2)))

    @pytest.mark.parametrize(
        "k, message",
        [(0, "k must be >= 1"), (-1, "k must be >= 1"),
         # a bool would run as 0 or 1 clusters, a float fail as a slice
         (True, "k must be an integer, got True"), (2.0, "k must be an integer, got 2.0"),
         ("2", "k must be an integer, got '2'")],
        ids=["zero", "negative", "bool", "float", "string"],
    )
    @pytest.mark.parametrize(
        "stage",
        [lambda x, k: kmeanspp_init(x, k, 0), lambda x, k: kmeans_fit(x, k, x)],
        ids=["kmeanspp_init", "kmeans_fit"],
    )
    def test_k_must_be_an_integer_of_at_least_one(self, stage, k, message):
        with pytest.raises(ValueError) as info:
            stage(np.zeros((3, 2)), k)
        assert str(info.value) == message

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)], ids=str)
    def test_numpy_int_k_fits_as_its_int(self, k):
        x = np.array([[0.0], [1.0], [5.0], [6.0]])
        assert kmeanspp_init(x, k, 3).tobytes() == kmeanspp_init(x, 2, 3).tobytes()
        assert_same_fit(kmeans_fit(x, k, kmeanspp_init(x, k, 3)),
                        kmeans_fit(x, 2, kmeanspp_init(x, 2, 3)))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 42])
    def test_seed_outside_its_range_is_invalid_spec(self, seed):
        # the k-means++ stream keys on the seed modulo 2**64: -1 would seed
        # as 2**64 - 1 and 2**64 + 42 as 42
        with pytest.raises(InvalidSpec) as info:
            kmeanspp_init(np.array([[0.0], [1.0], [5.0]]), 2, seed)
        assert str(info.value) == f"seed must be in [0, 2**64), got {seed}"

    @pytest.mark.parametrize("seed", [True, 1.5, np.int64(3)], ids=["bool", "float", "numpy-int"])
    def test_seed_must_be_a_python_int(self, seed):
        # True would seed as 1; a float or a numpy int would fail inside the
        # stream key's arithmetic with TypeError or OverflowError
        with pytest.raises(InvalidSpec) as info:
            kmeanspp_init(np.array([[0.0], [1.0], [5.0]]), 2, seed)
        assert str(info.value) == f"seed must be an integer, got {seed!r}"

    @pytest.mark.parametrize("n, k", [(4, 1), (4, 3), (5, 5), (7, 2)])
    def test_zero_width_vectors(self, n, k):
        # with no feature columns every point coincides: k-means++ draws
        # (k, 0) centroids and the fit stops after one iteration with every
        # point settled in cluster 0
        x = np.zeros((n, 0))
        init = kmeanspp_init(x, k, 0)
        assert init.shape == (k, 0)
        model = kmeans_fit(x, k, init)
        assert model.centroids.shape == (k, 0)
        assert model.labels.tolist() == [0] * n
        assert model.iterations_run == 1

    def test_k_too_long_to_print_is_shown_by_its_size(self, int_text_limit):
        with pytest.raises(KExceedsN) as info:
            kmeans_fit(np.zeros((3, 2)), HUGE_INT, np.zeros((3, 2)))
        assert str(info.value) == f"k={HUGE_INT_SHOWN} > n=3"

    def test_deterministic_bit_for_bit(self):
        x = random_step_series(4, max_n=80)
        a = kmeans_fit(x, 3, kmeanspp_init(x, 3, 7))
        b = kmeans_fit(x, 3, kmeanspp_init(x, 3, 7))
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.labels, b.labels)

    def test_inertia_non_increasing_over_iterations(self):
        # stopping Lloyd's loop after j iterations never leaves a higher
        # inertia than stopping it earlier
        for seed in range(8):
            x = random_step_series(seed + 40, max_n=100)
            k = min(4, len(x))
            model = kmeans_fit(x, k, kmeanspp_init(x, k, seed))
            inertias = [
                inertia(x, reference_kmeans_fit(x, k, seed, max_iter=j))
                for j in range(1, model.iterations_run + 1)
            ]
            assert inertias[-1] == inertia(x, model)
            assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_local_optimality(self):
        # no single-point relabeling lowers inertia at convergence
        x = random_step_series(3, max_n=50)
        model = kmeans_fit(x, 3, kmeanspp_init(x, 3, 2))
        for i in range(len(x)):
            own = ((x[i] - model.centroids[model.labels[i]]) ** 2).sum()
            for j in range(len(model.centroids)):
                other = ((x[i] - model.centroids[j]) ** 2).sum()
                assert other >= own - 1e-12

    def test_scale_invariant_labels(self):
        x = random_step_series(12, max_n=60)
        base = kmeans_fit(x, 3, kmeanspp_init(x, 3, 5))
        scaled = kmeans_fit(x * 3.7, 3, kmeanspp_init(x * 3.7, 3, 5))
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
    assert got.iterations_run == want.iterations_run


class TestKMeansOracle:
    @pytest.mark.parametrize("kind", KMEANS_KINDS)
    def test_equals_reference_bit_for_bit(self, kind):
        cases = 0
        for d in range(1, 6):
            for k in range(1, 7):
                for rep in range(4):
                    seed = 1000 * d + 10 * k + rep
                    n = k + int(np.random.default_rng(seed).integers(0, 40))
                    x = kmeans_inputs(seed, n, d, kind)
                    got = kmeans_fit(x, k, kmeanspp_init(x, k, seed))
                    assert_same_fit(got, reference_kmeans_fit(x, k, seed=seed))
                    cases += 1
        assert cases == 5 * 6 * 4

    @pytest.mark.parametrize("kind", KMEANS_KINDS)
    def test_long_inputs_equal_reference(self, kind):
        # the add.at Lloyd step (d >= 2) over clusters of hundreds of rows,
        # n up to 2,490
        for d in range(2, 8):
            seed = 7000 + d
            n = 1300 + 170 * d
            k = 2 + d % 4
            x = kmeans_inputs(seed, n, d, kind)
            got = kmeans_fit(x, k, kmeanspp_init(x, k, seed))
            assert_same_fit(got, reference_kmeans_fit(x, k, seed=seed))

    def test_column_of_negative_zeros_sums_to_positive_zero(self):
        # add.reduce sums from +0.0, so a cluster whose column is all -0.0
        # has the centroid coordinate +0.0; so must the add.at step
        for d in range(2, 8):
            x = kmeans_inputs(7100 + d, 2400, d, "normal")
            x[:, d // 2] = -0.0
            got = kmeans_fit(x, 3, kmeanspp_init(x, 3, d))
            assert_same_fit(got, reference_kmeans_fit(x, 3, seed=d))
            assert not np.signbit(got.centroids[:, d // 2]).any()

    @pytest.mark.parametrize("kind", KMEANS_KINDS)
    def test_nine_features_draw_the_axis_sum_seeding(self, kind):
        # numpy unrolls a feature-axis sum from d = 8, so a draw's D^2 from
        # _sq_dists can differ from the original seeding's in the last ulp;
        # on these inputs no draw moves, and neither does the fit
        for rep in range(8):
            seed = 9000 + rep
            n, k = 12 + 37 * rep, 1 + rep % 6
            x = kmeans_inputs(seed, n, 9, kind)
            init = kmeanspp_init(x, k, seed)
            assert init.tobytes() == reference_kmeanspp_init(x, k, seed).tobytes()
            assert_same_fit(kmeans_fit(x, k, init), reference_kmeans_fit(x, k, seed=seed))

    def test_repair_leaves_no_cluster_empty(self):
        # 5 distinct points for k = 6: the repair used to take the only
        # member of a cluster its scan had passed, leaving a 0/0 mean, a NaN
        # centroid and every later label 0 (warnings are errors here)
        x = [[-1, -1], [0, -1], [0, -1], [1, 1], [0, -1], [0, 1], [-1, 0], [-1, 0]]
        got = kmeans_fit(x, 6, kmeanspp_init(x, 6, 1453))
        assert np.isfinite(got.centroids).all()
        assert got.iterations_run == 2
        assert_same_fit(got, reference_kmeans_fit(x, 6, seed=1453))

    def test_identical_points_run_the_repair(self):
        # every k-means++ draw picks the same point, so the first assignment
        # puts everything in cluster 0 and the repair fills clusters 1..k-1
        x = np.full((7, 2), -0.25)
        for k in range(2, 7):
            got = kmeans_fit(x, k, kmeanspp_init(x, k, k))
            assert_same_fit(got, reference_kmeans_fit(x, k, seed=k))


class TestSharedSeeding:
    """One k-means++ seeding for the largest k serves every smaller k: its
    first k rows are the seeding for k, so the fit is the same bit for bit."""

    @pytest.mark.parametrize("kind", KMEANS_KINDS)
    def test_prefix_of_a_larger_seeding_gives_the_same_fit(self, kind):
        for d in (1, 3):
            for rep in range(6):
                seed = 500 + 10 * d + rep
                n = 4 + rep * 7  # rep 0: n = 4, so k = n = top is covered
                x = kmeans_inputs(seed, n, d, kind)
                top = min(5, n)
                init = kmeanspp_init(x, top, seed)
                for k in range(1, top + 1):
                    own = kmeanspp_init(x, k, seed)
                    assert own.tobytes() == init[:k].tobytes()
                    assert_same_fit(kmeans_fit(x, k, init), kmeans_fit(x, k, own))

    def test_repair_path_with_a_shared_seeding(self):
        # identical points: every draw is one point, so the repair fills
        # clusters 1..k-1 from the shared seeding as from its own
        x = np.full((6, 3), -0.25)
        init = kmeanspp_init(x, 6, 3)
        for k in range(1, 7):
            assert_same_fit(kmeans_fit(x, k, init), reference_kmeans_fit(x, k, seed=3))

    def test_k_past_n_raises_before_init_is_read(self):
        x = np.zeros((4, 3))
        with pytest.raises(KExceedsN, match="k=5 > n=4"):
            kmeans_fit(x, 5, kmeanspp_init(x, 4, 0))

    def test_short_init_rejected(self):
        x = kmeans_inputs(1, 10, 3, "normal")
        with pytest.raises(ValueError, match="init holds 2 centroids, k=3"):
            kmeans_fit(x, 3, kmeanspp_init(x, 2, 1))

    @pytest.mark.parametrize(
        "init, shown",
        [(np.zeros((2, 2)), "(2,)"), (np.zeros(2), "(1,)"), (np.zeros((2, 4)), "(4,)"),
         (np.zeros((2, 3, 1)), "(3, 1)")],
        ids=["narrow", "one-dimensional", "wide", "three-dimensional"],
    )
    def test_init_rows_must_be_as_wide_as_the_points(self, init, shown):
        message = rf"^init rows have shape {re.escape(shown)}, points have \(3,\)$"
        with pytest.raises(ValueError, match=message) as caught:
            kmeans_fit(np.eye(4, 3), 2, init)
        assert caught.type is ValueError

    def test_a_list_init_fits_as_its_array(self):
        x, init = np.eye(4, 3), [[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]]
        assert_same_fit(kmeans_fit(x, 2, init), kmeans_fit(x, 2, np.array(init)))


class TestSilhouette:
    def test_two_tight_pairs(self):
        x = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels = [0, 0, 1, 1]
        (score,) = silhouette_score(x, [labels])
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
        assert silhouette_score(np.random.rand(10, 2), [[1] * 10]) == (0.0,)

    def test_singleton_cluster_scores_zero(self):
        x = np.array([[0.0], [0.1], [5.0]])
        (score,) = silhouette_score(x, [[0, 0, 1]])
        assert score == pytest.approx(naive_silhouette(x.tolist(), [0, 0, 1]), abs=1e-12)

    def test_zero_width_points_coincide(self):
        # no feature columns: every distance is 0, so every point scores 0
        assert silhouette_score(np.zeros((4, 0)), [[0, 0, 1, 1]]) == (0.0,)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            silhouette_score(np.zeros((1, 1)), [[0]])

    def test_in_range(self):
        key = rng.stream_key(5, "sil")
        u = rng.uniforms(key, np.arange(300, dtype=np.uint64))
        x = u.reshape(100, 3)
        labels = (u[:100] * 4).astype(int)
        (score,) = silhouette_score(x, labels[None])
        assert -1.0 <= score <= 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        key = rng.stream_key(seed, "sil-oracle")
        u = rng.uniforms(key, np.arange(400, dtype=np.uint64))
        n = 20 + int(u[0] * 40)
        d = 1 + int(u[1] * 3)
        x = (u[2 : 2 + n * d].reshape(n, d) - 0.5) * 10
        labels = (u[2 + n * d : 2 + n * d + n] * (2 + int(u[1] * 3))).astype(int)
        (got,) = silhouette_score(x, labels[None])
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
        assert silhouette_score(x, labels[None]) == (reference_silhouette_loop(x, labels),)

    def test_uneven_clusters_with_singleton(self):
        x, labels = labelled_points(7, 2401, 3, k=5, skew=3.0)
        labels[1234] = 9  # a singleton cluster
        sizes = np.bincount(labels)
        assert sizes[9] == 1 and sizes[0] > 5 * sizes[4] > 0
        assert silhouette_score(x, labels[None]) == (reference_silhouette_loop(x, labels),)

    def test_one_dimensional_and_string_labels(self):
        x, labels = labelled_points(8, 600, 1, k=3)
        names = np.array(["idle", "active", "failure"])[labels]
        want = reference_silhouette_loop(x[:, 0], names)
        assert silhouette_score(x[:, 0], names[None]) == (want,)

    def test_single_cluster_labelling(self):
        x, _ = labelled_points(9, 2401, 3, k=1)
        labels = np.full(2401, 3)
        assert reference_silhouette_loop(x, labels) == 0.0
        assert silhouette_score(x, labels[None]) == (0.0,)

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
        assert got == tuple(silhouette_score(x, [lab])[0] for lab in stack)
        assert got[1] == 0.0

    @pytest.mark.parametrize("n", [20, 40, _SILHOUETTE_ROWS + 1])
    def test_label_values_in_one_call_each_equal_alone(self, n):
        x, labels = labelled_points(n + 1, n, 3, k=4)
        labels[:4] = np.arange(4)  # every cluster present: the labels are the index
        gapped = labels * 3
        ints = np.stack(
            [labels, labels - 2, gapped, np.full(n, 7), np.where(labels == 2, 0, labels)]
        )
        floats = np.stack([labels / 2, gapped - 0.5, np.full(n, 1.5)])
        for stack in (ints, floats):
            got = silhouette_score(x, stack)
            assert got == tuple(silhouette_score(x, [lab])[0] for lab in stack)
            for score, lab in zip(got, stack):
                if len(set(lab.tolist())) > 1:  # the literal definition has no one-cluster case
                    want = naive_silhouette(x.tolist(), lab.tolist())
                    assert score == pytest.approx(want, abs=1e-9)
        assert silhouette_score(x, ints)[3] == silhouette_score(x, floats)[2] == 0.0
        # the same partition under other label values scores the same
        assert silhouette_score(x, ints)[:3] == silhouette_score(x, labels[None]) * 3

    def test_labeling_forms(self):
        # one form: a (labelings, n) array, scored as a tuple
        x, labels = labelled_points(11, 40, 3, k=3)
        assert silhouette_score(x, np.empty((0, 40), dtype=int)) == ()
        for wrong in (labels, labels[None, None]):
            with pytest.raises(ValueError, match=r"must be a \(labelings, n\) array"):
                silhouette_score(x, wrong)
        with pytest.raises(LengthMismatch):
            silhouette_score(x, np.stack([labels, labels])[:, :39])


PENALTIES = (0.0, 0.5, 5.0, 40.0, 1e9)


class TestLongWindowKernels:
    """Per-column cost and distance sums and array-held PELT candidates must
    reproduce the original kernels exactly for d <= 7 (report.json carries
    change points, total costs and silhouettes byte for byte), and stay
    within the documented oracles above that."""

    @pytest.mark.parametrize("seed", range(900, 948))
    def test_pelt_equals_reference(self, seed):
        # seeds 900-947 cover d = 1..5 and n from 28 to 589
        # one lockstep call over all PENALTIES: 0 and 1e9 prune very
        # differently, so the penalties' candidate sets diverge
        x = random_step_series(seed, max_n=600, max_d=5)
        for series in (x, np.round(x)):  # rounded: exact cost ties
            got = pelt_segment(series, PENALTIES)
            assert got == tuple(reference_pelt_segment(series, beta) for beta in PENALTIES)
            assert got == tuple(pelt_segment(series, [beta])[0] for beta in PENALTIES)
            if len(series) <= BRUTE_FORCE_MAX_N:
                for seg, beta in zip(got, PENALTIES):
                    oracle = brute_force_segment(series, beta)
                    assert seg.change_points == oracle.change_points
                    # the oracle's F carries -penalty from F(0): up to
                    # half an ulp of the penalty lost per step
                    slack = 1e-9 + len(series) * beta * 2.0**-53
                    assert seg.total_cost == pytest.approx(oracle.total_cost, abs=slack)

    def test_pelt_constant_series_and_minimal_length(self):
        for beta in PENALTIES:
            for x in (np.full((97, 3), 2.5), np.arange(6.0).reshape(2, 3)):
                assert pelt_segment(x, [beta]) == (reference_pelt_segment(x, beta),)

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
        assert silhouette_score(x, labels[None]) == (reference_silhouette_loop(x, labels),)

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
            (fast,) = pelt_segment(series, [beta])
            oracle = brute_force_segment(series, beta)
            assert fast.change_points == oracle.change_points
            assert fast.total_cost == pytest.approx(oracle.total_cost, abs=1e-9)


def tile_lengths():
    """Series lengths around the tile boundaries of pelt_segment, whose steps
    run from m = _MIN_SEGMENT to n: one step below, at and above one and two
    full tiles, plus the shortest series, n = m."""
    m = _MIN_SEGMENT
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

    @pytest.mark.parametrize("rep", range(1, 5))
    def test_lockstep_equals_reference_around_tile_boundaries(self, rep):
        for n in tile_lengths():
            for name, x in tile_series(n, seed=n * 10 + rep).items():
                for penalties in PENALTY_SETS:
                    got = pelt_segment(x, penalties)
                    want = tuple(reference_pelt_segment(x, beta) for beta in penalties)
                    assert got == want, (n, name, penalties)
                    for beta, seg in zip(penalties, got):
                        assert pelt_segment(x, [beta]) == (seg,)

    @pytest.mark.parametrize("rep", range(1, 4))
    def test_many_penalties_equal_reference(self, rep):
        penalties = (0.0, 0.01, 0.5, 5.0, 40.0, 160.0, 1e6)
        for n in tile_lengths() + [_MIN_SEGMENT - 1 + 3 * _PELT_TILE]:
            for name, x in tile_series(n, seed=n * 7 + rep).items():
                got = pelt_segment(x, penalties)
                want = tuple(reference_pelt_segment(x, beta) for beta in penalties)
                assert got == want, (n, name)


class TestBacktrack:
    def test_follows_pointers_to_the_change_points(self):
        assert _backtrack(np.array([0, 0, 0, 0, 2, 4, 4]), 6) == [2, 4]

    @pytest.mark.parametrize("pointer", [4, 5, -1], ids=["self", "forward", "negative"])
    def test_pointer_outside_its_step_raises(self, pointer):
        prev = np.array([0, 0, 0, 0, pointer, 4])
        with pytest.raises(RuntimeError, match=f"back-pointer {pointer} at step 4"):
            _backtrack(prev, 5)



# each stage called on four 3-d points, with valid values for the rest;
# kmeans-init takes them as its seeding
STAGES = {
    "pelt": lambda points: pelt_segment(points, [10.0]),
    "kmeanspp": lambda points: kmeanspp_init(points, 2, 0),
    "kmeans": lambda points: kmeans_fit(points, 2, np.zeros((2, 3))),
    "kmeans-init": lambda points: kmeans_fit(np.eye(4, 3), 4, points),
    "silhouette": lambda points: silhouette_score(points, [[0, 0, 1, 1]]),
}


class TestInputDoor:
    """Every stage reads its points through one door that refuses a point
    the stages could not square, whoever the caller is."""

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize(
        "value, shown",
        [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf"), (2.0**480, "3.12e+144"),
         (-(2.0**480), "3.12e+144"), (1e160, "1e+160"), (1.7e308, "1.7e+308")],
    )
    def test_a_point_the_stages_cannot_square_is_refused(self, stage, value, shown):
        points = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 1.0, value], [0.5, 0.5, 0.5]])
        message = rf"^points must be finite and below 2\*\*480, got {re.escape(shown)}$"
        # a FeatureOutOfRange is a ValueError, as invalid features always were
        with pytest.raises(ValueError, match=message) as caught:
            STAGES[stage](points)
        assert caught.type is FeatureOutOfRange

    @pytest.mark.parametrize("stage", STAGES)
    def test_points_just_below_the_bound_are_taken(self, stage):
        below = np.nextafter(2.0**480, 0.0)
        points = np.array(
            [[below, -below, 0.0], [0.0, below, -below], [-below, 0.0, below], [0.0, 0.0, 0.0]]
        )
        STAGES[stage](points)
