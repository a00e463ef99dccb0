import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from seisreg import emdreg
from seisreg.emdreg import (
    SiftParams,
    _natural_spline,
    emd,
    envelope_mean,
    find_extrema,
    regularize_emd,
    zero_crossings,
)
from seisreg.errors import ConfigError
from seisreg.metrics import series_entropy
from seisreg.resample import TimeSeries


def tone(n=512, cycles=8.0, dt_ms=1.0, amplitude=1.0, phase=0.0):
    t = np.arange(n)
    return TimeSeries(0.0, dt_ms, amplitude * np.sin(2 * np.pi * cycles * t / n + phase))


class TestFindExtrema:
    def test_single_peak(self):
        maxima, minima = find_extrema([0.0, 1.0, 0.0])
        assert maxima.tolist() == [1] and minima.tolist() == []

    def test_monotone(self):
        maxima, minima = find_extrema(np.arange(10.0))
        assert len(maxima) == 0 and len(minima) == 0

    def test_plateau_midpoint_rounds_down(self):
        maxima, _ = find_extrema([0.0, 1.0, 1.0, 0.0])
        assert maxima.tolist() == [1]

    def test_wider_plateau(self):
        maxima, _ = find_extrema([0.0, 2.0, 2.0, 2.0, 0.0])
        assert maxima.tolist() == [2]

    def test_minima(self):
        _, minima = find_extrema([1.0, 0.0, 1.0, -1.0, 2.0])
        assert minima.tolist() == [1, 3]

    @pytest.mark.parametrize("x,maxima,minima", [
        # endpoints above their neighbours, then below them
        ([5.0, 0.0, 1.0, 0.0, 5.0], [2], [1, 3]),
        ([-5.0, 0.0, -1.0, 0.0, -5.0], [1, 3], [2]),
        # plateaus that touch the ends
        ([2.0, 2.0, 0.0, 1.0, 0.0, 2.0, 2.0], [3], [2, 4]),
    ])
    def test_endpoints_never_extrema(self, x, maxima, minima):
        # the mirrored envelope knots rely on this rule
        got_max, got_min = find_extrema(x)
        assert (got_max.tolist(), got_min.tolist()) == (maxima, minima)

    @pytest.mark.parametrize("n", [3, 4, 7, 50, 400])
    def test_matches_three_point_loop(self, n):
        def reference(x):
            maxima, minima = [], []
            i = 1
            while i < len(x) - 1:
                j = i          # x[i..j] is one plateau
                while j + 1 < len(x) and x[j + 1] == x[i]:
                    j += 1
                if j == len(x) - 1:
                    break
                if x[i - 1] < x[i] > x[j + 1]:
                    maxima.append((i + j) // 2)
                elif x[i - 1] > x[i] < x[j + 1]:
                    minima.append((i + j) // 2)
                i = j + 1
            return maxima, minima

        rng = np.random.default_rng(n)
        for _ in range(20):
            # one decimal leaves many equal neighbours (plateaus)
            x = rng.normal(0.0, 0.3, n).round(1)
            for got, want in zip(find_extrema(x), reference(x)):
                assert got.dtype == np.dtype(int)
                assert got.tolist() == want


# knot gaps like extrema spacings and off the integer grid; knot values with
# exact zeros of both signs and repeats among ordinary floats
_GAPS = st.one_of(st.integers(1, 60), st.floats(0.5, 200.0))
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(-1e3, 1e3, allow_nan=False))


class TestNaturalSpline:
    # the solver is set once per test, not per example
    @pytest.mark.parametrize("solver", [
        pytest.param("numpy", marks=pytest.mark.skipif(
            emdreg._DGTSV is None, reason="numpy's LAPACK has no scipy_dgtsv_64_")),
        "scipy"])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(knots=st.lists(st.tuples(_GAPS, _VALUES), min_size=6, max_size=40),
           start=st.floats(0.0, 1.0), end=st.floats(0.0, 1.0))
    # a gap much wider than the one before it makes dgtsv swap rows
    @example(knots=list(zip([0, 1, 1, 1, 90, 1, 200],
                            [0.0, -0.0, 3.5, 3.5, -2.0, 1.0, 0.0])),
             start=0.5, end=1.0)
    @example(knots=list(zip([0, 2, 2, 3, 40, 2, 2, 70, 3],
                            [1.0, 1.0, -1.0, -1.0, 0.0, 2.0, 2.0, 2.0, -0.0])),
             start=0.0, end=0.5)
    # -0.0 at knot 0: only PPoly's leading 0.0 + keeps sample 0 at +0.0
    @example(knots=list(zip([0, 3, 1, 1, 1, 2],
                            [-0.0, -1.0, -1.0, 1.0, -1.0, -1.0])),
             start=0.0, end=1.0)
    def test_bit_identical_to_scipy(self, solver, monkeypatch, knots, start, end):
        if solver == "scipy":
            monkeypatch.setattr(emdreg, "_DGTSV", None)
        gaps, y = np.array(knots, dtype=np.float64).T
        x = np.cumsum(gaps) - gaps[0]
        x -= start * (x[-1] - 1.0)                  # x[0] <= 0 < 1 <= x[-1]
        n = 1 + int(end * np.floor(x[-1]))          # n - 1 <= x[-1]
        got = _natural_spline(x, y, n)
        want = CubicSpline(x, y, bc_type="natural")(np.arange(n))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 60),
           knots=st.lists(st.one_of(st.integers(-80, 140), st.floats(-80, 140)),
                          min_size=2, max_size=30))
    # mirrored extrema 1, 3, 5, 7 on 0..8, integer knots on the grid, and
    # knots all left of it, all right of it and straddling both ends
    @example(n=9, knots=[-3, -1, 1, 3, 5, 7, 9, 11])
    @example(n=10, knots=list(range(10)))
    @example(n=10, knots=[-7.5, -2.0])
    @example(n=10, knots=[9.5, 50.0, 60.0])
    @example(n=10, knots=[-1.5, 100.5])
    def test_sample_intervals_match_searchsorted(self, n, knots):
        x = np.unique(np.array(knots, dtype=np.float64))
        assume(len(x) >= 2)
        grid = np.arange(n, dtype=np.float64)
        want = np.clip(np.searchsorted(x, grid, side="right") - 1, 0, len(x) - 2)
        got = emdreg._sample_intervals(x, grid)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestEnvelopeMean:
    def test_sinusoid_mean_near_zero(self):
        x = tone(cycles=6.0).values
        m = envelope_mean(x, *find_extrema(x))
        mid = slice(len(x) // 4, 3 * len(x) // 4)
        assert np.abs(m[mid]).max() < 0.02  # 2% of unit amplitude

    def test_offset_passes_to_mean(self):
        x = tone(cycles=6.0).values
        m = envelope_mean(x + 1.7, *find_extrema(x + 1.7))
        mid = slice(len(x) // 4, 3 * len(x) // 4)
        assert np.abs(m[mid] - 1.7).max() < 0.02


class TestEmd:
    def test_monotone_terminates_empty(self):
        ts = TimeSeries(0.0, 1.0, np.linspace(0.0, 1.0, 64))
        d = emd(ts)
        assert len(d) == 0
        np.testing.assert_array_equal(d.residue.values, ts.values)

    def test_too_few_extrema_terminates_empty(self):
        # two maxima and one minimum cannot support a lower envelope
        values = np.concatenate([np.linspace(0.0, 1.0, 5),
                                 np.linspace(0.8, 0.0, 5),
                                 np.linspace(0.2, 1.0, 5),
                                 np.linspace(0.9, 0.0, 5)])
        maxima, minima = find_extrema(values)
        assert (len(maxima), len(minima)) == (2, 1)
        ts = TimeSeries(0.0, 1.0, values)
        d = emd(ts)
        assert len(d) == 0
        np.testing.assert_array_equal(d.residue.values, ts.values)

    def test_extrema_found_once_per_candidate(self, monkeypatch):
        calls = {"find_extrema": 0, "envelope_mean": 0}

        def counted(name):
            fn = getattr(emdreg, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(emdreg, name, wrapper)

        counted("find_extrema")
        counted("envelope_mean")
        rng = np.random.default_rng(36)
        d = emd(TimeSeries(0.0, 1.0, rng.standard_normal(512)))
        assert len(d) >= 1
        assert calls["find_extrema"] <= calls["envelope_mean"] + len(d) + 1

    def test_single_tone(self):
        ts = tone(cycles=8.0)
        d = emd(ts)
        assert len(d) >= 1
        assert np.corrcoef(d.imfs[0].values, ts.values)[0, 1] > 0.99
        residue_rms = np.sqrt(np.mean(d.residue.values ** 2))
        assert residue_rms < 0.05 * np.sqrt(np.mean(ts.values ** 2))

    def test_two_tone_separation(self):
        n = 512
        t = np.arange(n)
        fast = np.sin(2 * np.pi * 64 * t / n)
        slow = np.sin(2 * np.pi * 8 * t / n)
        d = emd(TimeSeries(0.0, 1.0, fast + slow))
        mid = slice(n // 4, 3 * n // 4)
        assert np.corrcoef(d.imfs[0].values[mid], fast[mid])[0, 1] > 0.95

    def test_completeness(self):
        rng = np.random.default_rng(31)
        for values in (rng.standard_normal(256),
                       np.sin(np.linspace(0, 40, 300)) + np.linspace(0, 2, 300)):
            ts = TimeSeries(0.0, 1.0, values)
            d = emd(ts)
            err = d.reconstruct() - values
            assert np.sqrt(np.mean(err ** 2)) < 1e-8

    def test_imf_count_property(self):
        rng = np.random.default_rng(32)
        d = emd(TimeSeries(0.0, 1.0, rng.standard_normal(512)))
        for imf in d.imfs:
            maxima, minima = find_extrema(imf.values)
            extrema = len(maxima) + len(minima)
            assert abs(extrema - zero_crossings(imf.values)) <= 1

    def test_frequency_ordering(self):
        rng = np.random.default_rng(33)
        d = emd(TimeSeries(0.0, 1.0, rng.standard_normal(1024)))
        rates = [zero_crossings(imf.values) for imf in d.imfs]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_smooth_signal_fewer_imfs_than_broadband(self):
        rng = np.random.default_rng(34)
        n = 1024
        smooth = np.sin(2 * np.pi * 4 * np.arange(n) / n)
        broadband = smooth + rng.standard_normal(n)
        n_smooth = len(emd(TimeSeries(0.0, 1.0, smooth)))
        n_broad = len(emd(TimeSeries(0.0, 1.0, broadband)))
        assert n_smooth < n_broad

    def test_too_short(self):
        from seisreg.errors import DataError
        with pytest.raises(DataError):
            emd(TimeSeries(0.0, 1.0, np.zeros(8)))

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            SiftParams(sd_threshold=1.5)
        with pytest.raises(ConfigError):
            SiftParams(sd_threshold=0.0)


class TestRegularizeEmd:
    def test_two_tone_slow_recovered(self):
        n = 512
        t = np.arange(n)
        fast = np.sin(2 * np.pi * 64 * t / n)
        slow = np.sin(2 * np.pi * 8 * t / n)
        ts = TimeSeries(0.0, 1.0, fast + slow)
        out, report = regularize_emd(ts, emd(ts), p1=1)
        mid = slice(n // 4, 3 * n // 4)
        assert np.corrcoef(out.values[mid], slow[mid])[0, 1] > 0.95

    def test_p1_equal_to_count_rejected(self):
        ts = tone(cycles=8.0)
        d = emd(ts)
        with pytest.raises(ConfigError, match=f"p1={len(d)} outside 1..{len(d) - 1}"):
            regularize_emd(ts, d, p1=len(d))

    def test_monotone_input_rejected(self):
        ts = TimeSeries(0.0, 1.0, np.linspace(0.0, 1.0, 64))
        with pytest.raises(ConfigError, match="input has no IMFs"):
            regularize_emd(ts, emd(ts), p1=1)

    def test_entropy_drops_on_noisy_fixture(self):
        rng = np.random.default_rng(35)
        n = 1024
        values = np.sin(2 * np.pi * 4 * np.arange(n) / n) + 0.5 * rng.standard_normal(n)
        ts = TimeSeries(0.0, 1.0, values)
        out, _ = regularize_emd(ts, emd(ts), p1=1)
        assert series_entropy(out) < series_entropy(ts)
