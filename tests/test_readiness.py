import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import twinforge.rng as rng
from twinforge.errors import (
    AllMissing,
    AxisLengthMismatch,
    EmptySeries,
    WindowTooLarge,
)
from twinforge.readiness import (
    FeatureSeries,
    ReadinessConfig,
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


class TestDetectOutliers:
    def test_single_huge_spike_flagged(self):
        series = np.array([1.0] * 100 + [1000.0])
        # direct arithmetic oracle on the contaminated stats
        mu = series.sum() / len(series)
        sigma = np.sqrt(((series - mu) ** 2).sum() / len(series))
        assert abs(1000.0 - mu) > 7 * sigma
        assert abs(1.0 - mu) <= 7 * sigma
        mask = detect_outliers(series, 7.0)
        assert mask.sum() == 1 and mask[-1]

    def test_constant_series_no_flags(self):
        assert not detect_outliers(np.ones(50), 7.0).any()

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
            assert not detect_outliers(x2, 7.0)[-1]

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            detect_outliers([], 7.0)


class TestFillGaps:
    def test_linear_midpoint(self):
        out = fill_gaps([1.0, np.nan, 3.0], [False, True, False])
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_leading_hold(self):
        out = fill_gaps([np.nan, 5.0, 5.0], [True, False, False])
        assert out.tolist() == [5.0, 5.0, 5.0]

    def test_no_missing_is_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert fill_gaps(x, np.zeros(3, dtype=bool)).tolist() == x.tolist()

    def test_hold_mode(self):
        out = fill_gaps([1.0, 0.0, 0.0, 4.0], [False, True, True, False], mode="hold")
        assert out.tolist() == [1.0, 1.0, 1.0, 4.0]

    def test_all_missing(self):
        with pytest.raises(AllMissing):
            fill_gaps([np.nan, np.nan], [True, True])

    def test_nan_treated_as_missing_without_mask(self):
        out = fill_gaps([1.0, np.nan, 3.0], np.zeros(3, dtype=bool))
        assert out.tolist() == [1.0, 2.0, 3.0]


class TestSmooth:
    def test_window_one_identity(self):
        x = np.array([3.0, 1.0, 4.0])
        assert smooth(x, 1).tolist() == x.tolist()

    def test_truncated_edges(self):
        assert smooth([0.0, 3.0, 0.0], 3).tolist() == [1.5, 1.0, 1.5]

    def test_constant_unchanged(self):
        assert smooth(np.full(10, 2.5), 5).tolist() == [2.5] * 10

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            smooth([1.0, 2.0], 3)

    def test_matches_naive_oracle(self):
        key = rng.stream_key(1, "smooth")
        x = rng.uniforms(key, np.arange(101, dtype=np.uint64))
        got = smooth(x, 7)
        for i in range(101):
            window = x[max(0, i - 3) : min(101, i + 4)]
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
        assert np.flatnonzero(detect_outliers(x, 7.0)).tolist() == [500]

    def test_clean_axis_removes_the_spike_as_any_other(self):
        x = bounded_base(1200)
        spiked = x.copy()
        spiked[500] = 1e155
        small = x.copy()
        small[500] = 1e6  # flagged at ordinary magnitude: filled the same way
        assert clean_axis(spiked, ReadinessConfig()).tolist() == (
            clean_axis(small, ReadinessConfig()).tolist()
        )

    @pytest.mark.parametrize("scale_exp", [500, 1000])
    def test_stages_commute_with_power_of_two_scaling(self, scale_exp):
        x = bounded_base(301)
        big = x * 2.0**scale_exp  # exact; |big| reaches about 2**(scale_exp + 1)
        assert zscore_normalize(big).tolist() == zscore_normalize(x).tolist()
        assert (smooth(big, 5) / 2.0**scale_exp).tolist() == smooth(x, 5).tolist()
        spiked, positions = inject_spikes(bounded_base(1200), 3)
        mask = detect_outliers(spiked * 2.0**scale_exp, 7.0)
        assert np.flatnonzero(mask).tolist() == positions.tolist()

    def test_ordinary_input_keeps_every_bit(self):
        x = bounded_base(301) * 1e100
        sigma = x.std()
        assert zscore_normalize(x).tolist() == ((x - x.mean()) / sigma).tolist()
        csum = np.concatenate(([0.0], np.cumsum(x)))
        idx = np.arange(x.size)
        lo, hi = np.maximum(idx - 2, 0), np.minimum(idx + 3, x.size)
        assert smooth(x, 5).tolist() == ((csum[hi] - csum[lo]) / (hi - lo)).tolist()


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
        fs = run_readiness(x, x, x, ReadinessConfig(block_size=50))
        assert fs.peaks.shape == (4, 3)
        assert np.all(fs.peaks == 0.0)

    def test_spike_free_equivalence(self):
        # a 10-sigma spike on a linear ramp: interpolation reproduces the
        # ramp exactly, so features match the spike-free run
        n = 1000
        base = np.linspace(0.0, 1.0, n)
        spiked = base.copy()
        spiked[400] = base.mean() + 10 * base.std()
        cfg = ReadinessConfig(block_size=50)
        clean = run_readiness(base, base, base, cfg)
        despiked = run_readiness(spiked, spiked, spiked, cfg)
        np.testing.assert_allclose(despiked.peaks, clean.peaks, atol=1e-9)

    def test_axis_length_mismatch(self):
        with pytest.raises(AxisLengthMismatch):
            run_readiness(np.zeros(100), np.zeros(100), np.zeros(99))

    def test_block_spans_cover_input(self):
        fs = run_readiness(np.zeros(130), np.zeros(130), np.zeros(130), ReadinessConfig(block_size=50))
        assert fs.spans == ((0, 50), (50, 100), (100, 130))

    def test_deterministic(self):
        x = bounded_base(500, seed=5)
        a = run_readiness(x, x + 1, x - 1)
        b = run_readiness(x, x + 1, x - 1)
        assert np.array_equal(a.peaks, b.peaks)

    def test_feature_series_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureSeries(
                peaks=np.array([[np.nan, 0, 0]]),
                spans=((0, 50),),
                config_used=ReadinessConfig(),
            )


def spiked_window_with_gaps(n=997):
    """Three axes with injected spikes and NaN runs, including at the edges."""
    axes = []
    for seed in range(3):
        x, _ = inject_spikes(bounded_base(n, seed=seed), n_spikes=12, seed=seed)
        x[[0, 1, 300, 301, 302, 640, n - 1]] = np.nan
        axes.append(x)
    return axes


class TestSequenceForm:
    @pytest.mark.parametrize("overrides", [{}, {"gap_fill": "hold", "normalize": False, "smooth_window": 9}])
    def test_each_series_equals_its_single_config_call(self, overrides):
        x, y, z = spiked_window_with_gaps()
        configs = [ReadinessConfig(block_size=b, **overrides) for b in (25, 50, 7)]  # 7 does not divide n
        many = run_readiness(x, y, z, configs)
        assert isinstance(many, tuple) and len(many) == 3
        for cfg, got in zip(configs, many):
            want = run_readiness(x, y, z, cfg)
            assert np.array_equal(got.peaks, want.peaks)
            assert got.spans == want.spans
            assert got.config_used == want.config_used == cfg

    @pytest.mark.parametrize(
        "configs",
        [
            [],
            [ReadinessConfig(block_size=25), ReadinessConfig(block_size=50, sigma_threshold=5.0)],
        ],
        ids=["empty", "sigma_threshold"],
    )
    def test_configs_that_differ_beyond_block_size_rejected(self, configs):
        x = bounded_base(200)
        with pytest.raises(ValueError, match="at least one config|differ only in block_size"):
            run_readiness(x, x, x, configs)

    @pytest.mark.parametrize("overrides", [{}, {"gap_fill": "hold"}, {"normalize": False}])
    def test_clean_axis_is_the_per_axis_prefix(self, overrides):
        x = spiked_window_with_gaps()[0]
        cfg = ReadinessConfig(**overrides)
        want = smooth(fill_gaps(x, detect_outliers(x, cfg.sigma_threshold), cfg.gap_fill), cfg.smooth_window)
        if cfg.normalize:
            want = zscore_normalize(want)
        assert np.array_equal(clean_axis(x, cfg), want)
        assert np.array_equal(run_readiness(x, x, x, cfg).peaks[:, 0], rolling_max(want, cfg.block_size))


class TestSpikeRemovalGuarantee:
    @pytest.mark.parametrize("seed", range(5))
    def test_injected_spikes_removed_exactly(self, seed):
        base = bounded_base(5000, seed=seed)
        assert np.abs(base - base.mean()).max() <= 3 * base.std()
        spiked, positions = inject_spikes(base, n_spikes=50, seed=seed)
        mask = detect_outliers(spiked, 7.0)
        assert set(np.flatnonzero(mask)) == set(positions)
        filled = fill_gaps(spiked, mask)
        non_spike = np.ones(len(base), dtype=bool)
        non_spike[positions] = False
        np.testing.assert_array_equal(filled[non_spike], spiked[non_spike])

    def test_idempotent_on_cleaned_series(self):
        base = bounded_base(5000, seed=11)
        spiked, _ = inject_spikes(base, n_spikes=50, seed=11)
        cleaned = fill_gaps(spiked, detect_outliers(spiked, 7.0))
        assert not detect_outliers(cleaned, 7.0).any()

    def test_length_conserved_by_every_stage_but_rolling_max(self):
        x = bounded_base(501, seed=2)
        mask = detect_outliers(x, 7.0)
        assert len(mask) == 501
        assert len(fill_gaps(x, mask)) == 501
        assert len(smooth(x, 5)) == 501
        assert len(zscore_normalize(x)) == 501
        assert len(rolling_max(x, 50)) == 11


class TestConfig:
    def test_defaults(self):
        cfg = ReadinessConfig()
        assert (cfg.sigma_threshold, cfg.smooth_window, cfg.block_size) == (7.0, 5, 50)
        assert cfg.gap_fill == "linear" and cfg.normalize

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma_threshold": 0},
            {"smooth_window": 4},
            {"smooth_window": 0},
            {"block_size": 0},
            {"gap_fill": "cubic"},
            # a float or bool window or block size never reaches a readiness pass
            {"smooth_window": 5.0},
            {"block_size": 50.0},
            {"smooth_window": True},
            {"block_size": True},
            # nan fails every comparison and inf passes the sign check: finiteness is its own check
            {"sigma_threshold": float("nan")},
            {"sigma_threshold": float("inf")},
            {"sigma_threshold": 10**400},
            # rolling_max indexes numpy arrays by block size
            {"block_size": 2**63},
            {"normalize": ["x"]},
            {"normalize": 0},
            {"normalize": "false"},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ReadinessConfig(**kwargs)
