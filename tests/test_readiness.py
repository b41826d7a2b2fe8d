import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import twinforge.rng as rng
from twinforge.errors import (
    AllMissing,
    AxisLengthMismatch,
    EmptySeries,
    WindowTooLarge,
)
from twinforge.readiness import (
    clean_axis,
    detect_outliers,
    fill_gaps,
    rolling_max,
    run_readiness,
    smooth,
    zscore_normalize,
)


def bounded_base(n, seed=0):
    """Sinusoid plus uniform noise: |x - mu| <= 3 sigma everywhere."""
    key = rng.stream_key(seed, "base")
    u = rng.uniforms(key, np.arange(n, dtype=np.uint64))
    t = np.arange(n) / 100.0
    return np.sin(2 * np.pi * 5 * t) + (2.0 * u - 1.0)


def inject_spikes(base, n_spikes, magnitude_sigma=15.0, seed=0):
    """Isolated, non-adjacent, alternating-sign spikes of the given size (in
    base-sigma units). Returns (spiked series, spike index array)."""
    x = base.copy()
    sigma = base.std()
    stride = len(base) // n_spikes
    offset = 1 + (seed % max(1, stride - 2))
    positions = np.arange(n_spikes) * stride + offset
    signs = np.where(np.arange(n_spikes) % 2 == 0, 1.0, -1.0)
    x[positions] = base.mean() + signs * magnitude_sigma * sigma
    return x, positions


# any float64, huge, subnormal, nan and inf included, and the extremes named
ADVERSARIAL_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([1.7e308, -1.7e308, 5e-324, -5e-324, np.nan, np.inf, -np.inf]),
)


@st.composite
def adversarial_axes(draw):
    """Three equal-length axes, each constant or of adversarial values, each
    with a finite value (an all-missing axis is refused)."""
    n = draw(st.integers(5, 120))
    axes = []
    for _ in range(3):
        if draw(st.booleans()):
            values = [draw(st.floats(allow_nan=False, allow_infinity=False))] * n
        else:
            values = draw(st.lists(ADVERSARIAL_VALUES, min_size=n, max_size=n))
        axes.append(np.array(values))
    assume(all(np.isfinite(axis).any() for axis in axes))
    return axes


class TestDetectOutliers:
    def test_single_huge_spike_flagged(self):
        series = np.array([1.0] * 100 + [1000.0])
        # direct arithmetic oracle on the contaminated stats
        mu = series.sum() / len(series)
        sigma = np.sqrt(((series - mu) ** 2).sum() / len(series))
        assert abs(1000.0 - mu) > 7 * sigma
        assert abs(1.0 - mu) <= 7 * sigma
        mask = detect_outliers(series)
        assert mask.sum() == 1 and mask[-1]

    def test_constant_series_no_flags(self):
        assert not detect_outliers(np.ones(50)).any()

    def test_boundary_value_survives(self):
        # value exactly at mu + 7 sigma is NOT flagged (strict inequality)
        x = np.array([-1.0, 1.0] * 50)
        mu, sigma = x.mean(), x.std()
        x2 = np.append(x, mu + 7 * sigma)
        # appending shifts the stats; recompute and place exactly at threshold
        for _ in range(50):
            mu2, sigma2 = x2.mean(), x2.std()
            x2[-1] = mu2 + 7 * sigma2
        mu2, sigma2 = x2.mean(), x2.std()
        if abs(x2[-1] - mu2) <= 7 * sigma2:  # converged onto the boundary
            assert not detect_outliers(x2)[-1]

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            detect_outliers([])


class TestFillGaps:
    def test_linear_midpoint(self):
        out = fill_gaps([1.0, np.nan, 3.0], [False, True, False])
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_leading_hold(self):
        out = fill_gaps([np.nan, 5.0, 5.0], [True, False, False])
        assert out.tolist() == [5.0, 5.0, 5.0]

    def test_trailing_takes_the_last_valid(self):
        out = fill_gaps([1.0, 2.0, 9.0, np.nan], [False, False, True, False])
        assert out.tolist() == [1.0, 2.0, 2.0, 2.0]

    def test_no_missing_is_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert fill_gaps(x, np.zeros(3, dtype=bool)).tolist() == x.tolist()

    def test_all_missing(self):
        with pytest.raises(AllMissing):
            fill_gaps([np.nan, np.nan], [True, True])

    def test_nan_treated_as_missing_without_mask(self):
        out = fill_gaps([1.0, np.nan, 3.0], np.zeros(3, dtype=bool))
        assert out.tolist() == [1.0, 2.0, 3.0]


class TestSmooth:
    def test_truncated_edges(self):
        # the window is 5: edges average 3 and 4 samples
        assert smooth([0.0, 6.0, 0.0, 6.0, 0.0]).tolist() == [2.0, 3.0, 2.4, 3.0, 2.0]

    def test_constant_unchanged(self):
        assert smooth(np.full(10, 2.5)).tolist() == [2.5] * 10

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge, match="^window 5 > length 4$"):
            smooth([1.0, 2.0, 3.0, 4.0])

    def test_matches_naive_oracle(self):
        key = rng.stream_key(1, "smooth")
        x = rng.uniforms(key, np.arange(101, dtype=np.uint64))
        got = smooth(x)
        for i in range(101):
            window = x[max(0, i - 2) : min(101, i + 3)]
            assert got[i] == pytest.approx(window.mean(), abs=1e-12)


class TestNormalize:
    def test_constant_maps_to_zeros(self):
        assert zscore_normalize([1.0, 1.0, 1.0]).tolist() == [0.0, 0.0, 0.0]

    def test_symmetric_pair(self):
        assert zscore_normalize([0.0, 2.0]).tolist() == [-1.0, 1.0]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_moments(self, values):
        x = np.array(values)
        out = zscore_normalize(x)
        if x.std() > 1e-6:
            assert abs(out.mean()) < 1e-9
            assert abs(out.std() - 1.0) < 1e-9
        else:
            assert np.all(np.isfinite(out))


class TestHugeValues:
    """Values whose squares or running sums overflow float64 are cleaned as
    the same series scaled down by a power of two, with no overflow warning
    (warnings are errors under the test configuration)."""

    @pytest.mark.parametrize("huge", [1e155, 1e300, 1.7e308, -1.7e308])
    def test_one_spike_is_flagged(self, huge):
        x = bounded_base(1200)
        x[500] = huge
        assert np.flatnonzero(detect_outliers(x)).tolist() == [500]

    def test_clean_axis_removes_the_spike_as_any_other(self):
        x = bounded_base(1200)
        spiked = x.copy()
        spiked[500] = 1e155
        small = x.copy()
        small[500] = 1e6  # flagged at ordinary magnitude: filled the same way
        assert clean_axis(spiked).tolist() == clean_axis(small).tolist()

    @pytest.mark.parametrize("scale_exp", [500, 1000])
    def test_stages_commute_with_power_of_two_scaling(self, scale_exp):
        x = bounded_base(301)
        big = x * 2.0**scale_exp  # exact; |big| reaches about 2**(scale_exp + 1)
        assert zscore_normalize(big).tolist() == zscore_normalize(x).tolist()
        assert (smooth(big) / 2.0**scale_exp).tolist() == smooth(x).tolist()
        spiked, positions = inject_spikes(bounded_base(1200), 3)
        mask = detect_outliers(spiked * 2.0**scale_exp)
        assert np.flatnonzero(mask).tolist() == positions.tolist()

    def test_a_gap_between_huge_values_of_opposite_sign_is_filled_finite(self):
        # unscaled, the neighbours' difference is past the float range
        filled = fill_gaps([1.7e308, np.nan, -1.7e308], np.zeros(3, dtype=bool))
        assert filled.tolist() == [1.7e308, 0.0, -1.7e308]

    @pytest.mark.parametrize("limit", [np.finfo(np.float64).max, -np.finfo(np.float64).max])
    def test_a_plateau_at_the_float_limit_smooths_to_itself(self, limit):
        # the prefix sums' rounding would carry some means past the limit
        assert smooth(np.full(1000, limit)).tolist() == [limit] * 1000

    def test_ordinary_input_keeps_every_bit(self):
        x = bounded_base(301) * 1e100
        sigma = x.std()
        assert zscore_normalize(x).tolist() == ((x - x.mean()) / sigma).tolist()
        csum = np.concatenate(([0.0], np.cumsum(x)))
        idx = np.arange(x.size)
        lo, hi = np.maximum(idx - 2, 0), np.minimum(idx + 3, x.size)
        assert smooth(x).tolist() == ((csum[hi] - csum[lo]) / (hi - lo)).tolist()


class TestRollingMax:
    def test_direct(self):
        assert rolling_max([1, 5, 2, 4, 4, 1], 3).tolist() == [5.0, 4.0]

    def test_block_one_identity(self):
        assert rolling_max([1.0, 2.0], 1).tolist() == [1.0, 2.0]

    def test_partial_block_kept(self):
        assert rolling_max([1, 2, 3, 9], 3).tolist() == [3.0, 9.0]

    def test_length_is_ceil(self):
        for n in (1, 49, 50, 51, 149):
            assert len(rolling_max(np.zeros(n), 50)) == -(-n // 50)

    @pytest.mark.parametrize("block_size", [4, 10**18, 2**63 - 1])
    def test_block_past_the_series_is_one_block(self, block_size):
        # no n_blocks * block_size buffer: a block size no array could hold still works
        assert rolling_max([1.0, 7.0, 3.0], block_size).tolist() == [7.0]


class TestPipeline:
    def test_constant_input_all_zero_features(self):
        x = np.ones(200)
        (peaks,) = run_readiness(x, x, x, [50])
        assert peaks.shape == (4, 3)
        assert np.all(peaks == 0.0)

    def test_spike_free_equivalence(self):
        # a 10-sigma spike on a linear ramp: interpolation reproduces the
        # ramp exactly, so features match the spike-free run
        n = 1000
        base = np.linspace(0.0, 1.0, n)
        spiked = base.copy()
        spiked[400] = base.mean() + 10 * base.std()
        (clean,) = run_readiness(base, base, base, [50])
        (despiked,) = run_readiness(spiked, spiked, spiked, [50])
        np.testing.assert_allclose(despiked, clean, atol=1e-9)

    def test_axis_length_mismatch(self):
        with pytest.raises(AxisLengthMismatch):
            run_readiness(np.zeros(100), np.zeros(100), np.zeros(99), [50])

    @pytest.mark.parametrize("n", [1, 4])
    def test_axes_shorter_than_the_smoothing_window_are_refused(self, n):
        x = np.arange(n, dtype=np.float64)
        with pytest.raises(WindowTooLarge, match=f"window 5 > length {n}"):
            run_readiness(x, x, x, [50])

    def test_partial_final_block_is_kept(self):
        (peaks,) = run_readiness(np.zeros(130), np.zeros(130), np.zeros(130), [50])
        assert len(peaks) == 3

    def test_deterministic(self):
        x = bounded_base(500, seed=5)
        (a,) = run_readiness(x, x + 1, x - 1, [50])
        (b,) = run_readiness(x, x + 1, x - 1, [50])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("magnitude_sigma, removed", [(5.0, False), (6.5, False), (7.5, True), (15.0, True)])
    def test_clean_axis_fills_only_spikes_past_seven_sigma(self, magnitude_sigma, removed):
        # one spike on a 3-sigma-bounded base barely moves the statistics, so
        # it is filled exactly when it lies past the fixed 7-sigma threshold
        spiked, (position,) = inject_spikes(bounded_base(5000, seed=3), 1, magnitude_sigma)
        mask = np.zeros(spiked.size, dtype=bool)
        mask[position] = removed
        want = zscore_normalize(smooth(fill_gaps(spiked, mask)))
        assert np.array_equal(clean_axis(spiked), want)

    def test_huge_axes_are_normalized_into_ordinary_features(self):
        x = bounded_base(500) * 1e160
        (peaks,) = run_readiness(x, x, x, [50])
        assert np.abs(peaks).max() < 10

    @given(adversarial_axes(), st.integers(1, 60))
    def test_every_peak_is_finite_and_at_most_root_n(self, axes, block_size):
        # z-scored axes keep |value| <= sqrt(n), which is why no trace reaches
        # the analytics' FeatureOutOfRange
        n = axes[0].size
        (peaks,) = run_readiness(*axes, [block_size])
        assert peaks.shape == (-(-n // block_size), 3)
        assert np.isfinite(peaks).all()
        assert np.abs(peaks).max() <= math.sqrt(n)


def spiked_window_with_gaps(n=997):
    """Three axes with injected spikes and NaN runs, including at the edges."""
    axes = []
    for seed in range(3):
        x, _ = inject_spikes(bounded_base(n, seed=seed), n_spikes=12, seed=seed)
        x[[0, 1, 300, 301, 302, 640, n - 1]] = np.nan
        axes.append(x)
    return axes


class TestSequenceForm:
    # 7 does not divide n; 997 is the whole window and 10**6 is past it
    @pytest.mark.parametrize("sizes", [[25, 50, 7], [997, 1, 10**6]])
    def test_each_series_equals_its_single_size_call(self, sizes):
        x, y, z = spiked_window_with_gaps()
        many = run_readiness(x, y, z, sizes)
        assert isinstance(many, tuple) and len(many) == 3
        for size, got in zip(sizes, many):
            (want,) = run_readiness(x, y, z, [size])
            assert np.array_equal(got, want)

    def test_no_block_size_rejected(self):
        x = bounded_base(200)
        with pytest.raises(ValueError, match="at least one block size"):
            run_readiness(x, x, x, [])

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_clean_axis_is_the_per_axis_prefix(self, axis):
        # the fixed pipeline: 7-sigma outliers, linear fill, a 5-sample window, z-score
        x = spiked_window_with_gaps()[axis]
        want = zscore_normalize(smooth(fill_gaps(x, detect_outliers(x))))
        assert np.array_equal(clean_axis(x), want)
        (peaks,) = run_readiness(x, x, x, [50])
        assert np.array_equal(peaks[:, 0], rolling_max(want, 50))


class TestSpikeRemovalGuarantee:
    @pytest.mark.parametrize("seed", range(5))
    def test_injected_spikes_removed_exactly(self, seed):
        base = bounded_base(5000, seed=seed)
        assert np.abs(base - base.mean()).max() <= 3 * base.std()
        spiked, positions = inject_spikes(base, n_spikes=50, seed=seed)
        mask = detect_outliers(spiked)
        assert set(np.flatnonzero(mask)) == set(positions)
        filled = fill_gaps(spiked, mask)
        non_spike = np.ones(len(base), dtype=bool)
        non_spike[positions] = False
        np.testing.assert_array_equal(filled[non_spike], spiked[non_spike])

    def test_idempotent_on_cleaned_series(self):
        base = bounded_base(5000, seed=11)
        spiked, _ = inject_spikes(base, n_spikes=50, seed=11)
        cleaned = fill_gaps(spiked, detect_outliers(spiked))
        assert not detect_outliers(cleaned).any()

    def test_length_conserved_by_every_stage_but_rolling_max(self):
        x = bounded_base(501, seed=2)
        mask = detect_outliers(x)
        assert len(mask) == 501
        assert len(fill_gaps(x, mask)) == 501
        assert len(smooth(x)) == 501
        assert len(zscore_normalize(x)) == 501
        assert len(rolling_max(x, 50)) == 11

