import numpy as np
import pytest

from seisreg.emdreg import (
    P1OutOfRange,
    SiftParams,
    TooFewExtrema,
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


class TestEnvelopeMean:
    def test_sinusoid_mean_near_zero(self):
        ts = tone(cycles=6.0)
        m = envelope_mean(ts)
        mid = slice(len(ts) // 4, 3 * len(ts) // 4)
        assert np.abs(m.values[mid]).max() < 0.02  # 2% of unit amplitude

    def test_offset_passes_to_mean(self):
        ts = tone(cycles=6.0)
        offset = ts.with_values(ts.values + 1.7)
        m = envelope_mean(offset)
        mid = slice(len(ts) // 4, 3 * len(ts) // 4)
        assert np.abs(m.values[mid] - 1.7).max() < 0.02

    def test_too_few_extrema(self):
        # two maxima, one minimum
        x = np.array([0.0, 1.0, 0.5, 0.0, 0.5, 1.0, 0.0])
        with pytest.raises(TooFewExtrema):
            envelope_mean(x)


class TestEmd:
    def test_monotone_terminates_empty(self):
        ts = TimeSeries(0.0, 1.0, np.linspace(0.0, 1.0, 64))
        d = emd(ts)
        assert len(d) == 0
        np.testing.assert_array_equal(d.residue.values, ts.values)

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
            SiftParams(max_sift_iters=0)


class TestRegularizeEmd:
    def test_two_tone_slow_recovered(self):
        n = 512
        t = np.arange(n)
        fast = np.sin(2 * np.pi * 64 * t / n)
        slow = np.sin(2 * np.pi * 8 * t / n)
        out, report = regularize_emd(TimeSeries(0.0, 1.0, fast + slow), p1=1)
        mid = slice(n // 4, 3 * n // 4)
        assert np.corrcoef(out.values[mid], slow[mid])[0, 1] > 0.95

    def test_p1_equal_to_count_rejected(self):
        d = emd(tone(cycles=8.0))
        with pytest.raises(P1OutOfRange):
            regularize_emd(tone(cycles=8.0), p1=len(d))

    def test_monotone_input_rejected(self):
        ts = TimeSeries(0.0, 1.0, np.linspace(0.0, 1.0, 64))
        with pytest.raises(P1OutOfRange):
            regularize_emd(ts, p1=1)

    def test_entropy_drops_on_noisy_fixture(self):
        rng = np.random.default_rng(35)
        n = 1024
        values = np.sin(2 * np.pi * 4 * np.arange(n) / n) + 0.5 * rng.standard_normal(n)
        ts = TimeSeries(0.0, 1.0, values)
        out, _ = regularize_emd(ts, p1=1)
        assert series_entropy(out) < series_entropy(ts)

    def test_precomputed_decomposition(self):
        ts = tone(cycles=8.0)
        d = emd(ts)
        if len(d) < 2:
            values = ts.values + 0.3 * np.sin(2 * np.pi * 64 * np.arange(len(ts)) / len(ts))
            ts = ts.with_values(values)
            d = emd(ts)
        out1, _ = regularize_emd(ts, p1=1)
        out2, _ = regularize_emd(ts, p1=1, decomposition=d)
        np.testing.assert_array_equal(out1.values, out2.values)
