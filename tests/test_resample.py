import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seisreg.resample import (
    DegenerateRange,
    DepthOutOfRange,
    DownsampleRequested,
    TargetOutsideSpan,
    TimeSeries,
    TooFewPatterns,
    VelocityProfile,
    ZeroVariance,
    depth_to_time,
    minmax_to_band,
    sinc_resample,
    split_patterns,
    zscore,
)


class TestDepthToTime:
    def test_identity_mapping(self):
        vp = VelocityProfile([(0.0, 0.0), (1000.0, 1000.0)])
        depths = np.arange(0.0, 101.0, 1.0)
        values = np.sin(depths / 7.0)
        out = depth_to_time(depths, values, vp, 1.0)
        np.testing.assert_allclose(out.values, values, atol=1e-12)

    def test_constant_survives_warp(self):
        vp = VelocityProfile([(0.0, 0.0), (1000.0, 500.0)])
        depths = np.arange(0.0, 1001.0, 1.0)
        out = depth_to_time(depths, np.full(len(depths), 3.25), vp, 1.0)
        assert out.t0_ms == 0.0
        assert abs(out.times_ms[-1] - 500.0) <= 1.0
        np.testing.assert_allclose(out.values, 3.25, atol=1e-12)

    def test_ramp_slope_halved(self):
        # time = 2 * depth, so value = a*depth becomes value = (a/2)*time
        vp = VelocityProfile([(0.0, 0.0), (1000.0, 2000.0)])
        depths = np.arange(0.0, 1000.5, 0.5)
        a = 0.3
        out = depth_to_time(depths, a * depths, vp, 1.0)
        expected = (a / 2.0) * out.times_ms
        np.testing.assert_allclose(out.values, expected, atol=1e-9)

    def test_depth_out_of_range(self):
        vp = VelocityProfile([(100.0, 80.0), (1000.0, 800.0)])
        with pytest.raises(DepthOutOfRange):
            depth_to_time([50.0, 200.0], [1.0, 2.0], vp, 1.0)


class TestSincResample:
    def test_exact_on_source_grid(self):
        rng = np.random.default_rng(0)
        ts = TimeSeries(10.0, 2.0, rng.standard_normal(64))
        out = sinc_resample(ts, 10.0, 2.0, 64)
        np.testing.assert_array_equal(out.values, ts.values)

    def test_exact_at_source_instants_mid_series(self):
        # t0 is source sample 10 and dt/4 puts every 4th output on a sample
        rng = np.random.default_rng(1)
        ts = TimeSeries(10.0, 2.0, rng.standard_normal(64))
        out = sinc_resample(ts, 30.0, 0.5, 129)
        np.testing.assert_array_equal(out.values[::4], ts.values[10:43])
        assert not np.isin(out.values[1::4], ts.values).any()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_src=st.integers(2, 600),
           target_dt=st.sampled_from([0.15, 0.25, 2.0]),
           start=st.floats(0.0, 1.0),
           on_grid=st.booleans())
    def test_matches_direct_sinc_sum(self, seed, n_src, target_dt, start, on_grid):
        rng = np.random.default_rng(seed)
        ts = TimeSeries(13.0, 2.0, rng.standard_normal(n_src))
        span = ts.dt_ms * (n_src - 1)
        offset = start * span
        if on_grid:
            offset = ts.dt_ms * np.floor(offset / ts.dt_ms)
        n_out = int((span - offset) / target_dt) + 1
        out = sinc_resample(ts, ts.t0_ms + offset, target_dt, n_out)
        kernel = np.sinc((out.times_ms[:, None] - ts.times_ms[None, :]) / ts.dt_ms)
        reference = kernel @ ts.values
        # relative to the trace's scale: single outputs may sit at a zero
        np.testing.assert_allclose(out.values, reference, rtol=0,
                                   atol=1e-12 * np.abs(reference).max())

    def test_sine_reconstruction(self):
        # 50 Hz tone at 2 ms, rebuilt at 0.15 ms: interior max error < 1e-3
        n = 512
        t = np.arange(n) * 2.0
        ts = TimeSeries(0.0, 2.0, np.sin(2 * np.pi * 50 * t / 1000.0))
        n_out = int(t[-1] / 0.15)
        out = sinc_resample(ts, 0.0, 0.15, n_out)
        truth = np.sin(2 * np.pi * 50 * out.times_ms / 1000.0)
        mid = slice(n_out // 4, 3 * n_out // 4)
        assert np.max(np.abs(out.values[mid] - truth[mid])) < 1e-3

    def test_interior_error_shrinks_with_window(self):
        # nested evaluation windows away from the edges improve monotonically
        n = 512
        t = np.arange(n) * 2.0
        ts = TimeSeries(0.0, 2.0, np.sin(2 * np.pi * 40 * t / 1000.0))
        n_out = int(t[-1] / 0.25)
        out = sinc_resample(ts, 0.0, 0.25, n_out)
        truth = np.sin(2 * np.pi * 40 * out.times_ms / 1000.0)
        err = np.abs(out.values - truth)
        maxes = [err[n_out // d: -n_out // d].max() for d in (8, 4, 3)]
        assert maxes[0] > maxes[1] > maxes[2]

    def test_target_outside_span(self):
        ts = TimeSeries(100.0, 2.0, np.zeros(16))
        with pytest.raises(TargetOutsideSpan):
            sinc_resample(ts, 99.0, 1.0, 10)

    def test_downsample_rejected(self):
        ts = TimeSeries(0.0, 2.0, np.zeros(16))
        with pytest.raises(DownsampleRequested):
            sinc_resample(ts, 0.0, 4.0, 4)


class TestZscore:
    def test_hand_computed(self):
        scored, stats = zscore(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(scored[:, 0], [-1.224744871, 0.0, 1.224744871],
                                   atol=1e-8)

    def test_stats_reuse_is_exact(self):
        rng = np.random.default_rng(2)
        table = rng.uniform(0, 10, (50, 3))
        scored, stats = zscore(table)
        again, _ = zscore(scored)
        # already-standardized columns stay put when re-scored fresh
        np.testing.assert_allclose(again, scored, atol=1e-12)
        np.testing.assert_array_equal(stats.apply(table), scored)

    def test_fresh_stats_properties(self):
        rng = np.random.default_rng(3)
        scored, _ = zscore(rng.uniform(-5, 5, (200, 4)))
        assert np.abs(scored.mean(axis=0)).max() < 1e-10
        assert np.abs(scored.std(axis=0) - 1.0).max() < 1e-10

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            zscore(np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]]))


class TestMinMax:
    def test_endpoints(self):
        mapped, stats = minmax_to_band(np.array([0.0, 1.0]))
        np.testing.assert_allclose(mapped, [0.1, 0.9], atol=1e-15)

    def test_midpoint_preserved(self):
        mapped, _ = minmax_to_band(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(mapped, [0.1, 0.5, 0.9], atol=1e-15)

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            minmax_to_band(np.array([2.0, 2.0, 2.0]))

    def test_inverse_identity(self):
        rng = np.random.default_rng(4)
        series = rng.uniform(-3, 9, 100)
        mapped, stats = minmax_to_band(series)
        np.testing.assert_allclose(stats.invert(mapped), series, atol=1e-12)


def _provenance_split(sizes, seed):
    """The split as it was made when each pooled row carried a (well, time)
    provenance tuple and the rows were grouped back into wells by it: the
    reference split_patterns must match index for index."""
    provenance = [(well, float(k)) for well, n in sizes.items() for k in range(n)]
    rng = np.random.default_rng(seed)
    by_well = {}
    for i, (well, _) in enumerate(provenance):
        by_well.setdefault(well, []).append(i)
    train_idx, leftover = [], []
    for well in dict.fromkeys(w for w, _ in provenance):
        idx = np.array(by_well[well])
        perm = idx[rng.permutation(len(idx))]
        n_train = int(round(0.7 * len(idx)))
        train_idx.extend(perm[:n_train].tolist())
        leftover.extend(perm[n_train:].tolist())
    leftover = np.array(leftover)
    leftover = leftover[rng.permutation(len(leftover))]
    half = len(leftover) // 2
    return np.array(train_idx), leftover[:half], leftover[half:]


class TestSplitPatterns:
    def test_single_well_70_15_15(self):
        train, test, val = split_patterns({"A": 100}, seed=1)
        assert (len(train), len(test), len(val)) == (70, 15, 15)

    def test_deterministic(self):
        a = split_patterns({"A": 60, "B": 40}, seed=5)
        b = split_patterns({"A": 60, "B": 40}, seed=5)
        for rows_a, rows_b in zip(a, b):
            np.testing.assert_array_equal(rows_a, rows_b)

    def test_per_well_stratification(self):
        train, _, _ = split_patterns({w: 100 for w in "ABCD"}, seed=2)
        assert len(train) == 280
        # well k's rows are the block 100k..100k+99
        assert np.bincount(train // 100).tolist() == [70] * 4

    def test_partition(self):
        split = split_patterns({"A": 57, "B": 43}, seed=9)
        rows = np.concatenate(split)
        # every row exactly once: a union of the 100 rows with no repeats
        np.testing.assert_array_equal(np.sort(rows), np.arange(100))

    @pytest.mark.parametrize("sizes", [
        {w: 1427 for w in "ABCD"}, {"A": 10}, {"A": 10, "B": 11, "C": 57},
        {"B": 43, "A": 57}])
    @pytest.mark.parametrize("seed", [0, 7, 11, 2**40])
    def test_matches_provenance_split(self, sizes, seed):
        for rows, expected in zip(split_patterns(sizes, seed),
                                  _provenance_split(sizes, seed)):
            assert rows.dtype.kind == "i"
            np.testing.assert_array_equal(rows, expected)

    def test_too_few_patterns(self):
        with pytest.raises(TooFewPatterns, match="'B'"):
            split_patterns({"A": 100, "B": 5}, seed=0)
