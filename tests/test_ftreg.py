import numpy as np
import pytest

from seisreg.errors import ConfigError
from seisreg.ftreg import (
    BandTooNarrow,
    FtRegParams,
    default_zeta_max,
    dft,
    idft,
    regularize_ft,
)
from seisreg.resample import TimeSeries


def brute_force_dft(x):
    """Direct O(N^2) sum of the transform definition."""
    n = len(x)
    omega = np.exp(-2j * np.pi / n)
    return np.array([sum(x[j] * omega ** (j * k) for j in range(n))
                     for k in range(n)])


class TestDft:
    def test_inversion_non_power_of_two(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(257)
        ts = TimeSeries(0.0, 1.0, x)
        back = idft(dft(ts))
        assert np.max(np.abs(back.values - x)) < 1e-10

    def test_constant_is_dc_only(self):
        spectrum = dft(TimeSeries(0.0, 1.0, np.full(8, 3.0)))
        assert spectrum.coeffs[0] == pytest.approx(24.0)
        assert np.abs(spectrum.coeffs[1:]).max() < 1e-12

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64)
        spectrum = dft(TimeSeries(0.0, 1.0, x))
        np.testing.assert_allclose(spectrum.coeffs, brute_force_dft(x),
                                   rtol=0, atol=1e-9)


def two_tone(n=1024, dt_ms=1.0, k_low=10, k_high=100):
    fs = 1000.0 / dt_ms
    t_s = np.arange(n) * dt_ms / 1000.0
    low = np.sin(2 * np.pi * (k_low * fs / n) * t_s)
    high = np.sin(2 * np.pi * (k_high * fs / n) * t_s)
    return TimeSeries(0.0, dt_ms, low + high), low, high, fs


class TestRegularizeFt:
    def test_passband_identity(self):
        n = 512
        fs = 1000.0
        f1 = 15 * fs / n  # bin-aligned tone well below the cutoff
        t_s = np.arange(n) / fs
        x = np.sin(2 * np.pi * f1 * t_s)
        out, _ = regularize_ft(TimeSeries(0.0, 1.0, x), FtRegParams(100.0))
        assert np.max(np.abs(out.values - x)) < 1e-9

    def test_two_tone_truncation(self):
        ts, low, high, fs = two_tone()
        zeta = 15 * fs / len(ts)  # between the two bin frequencies
        out, report = regularize_ft(ts, FtRegParams(zeta))
        assert np.sqrt(np.mean((out.values - low) ** 2)) < 1e-9

    def test_cutoff_bin_retained(self):
        # the band is closed: a tone exactly at zeta_max survives
        n = 512
        fs = 1000.0
        k = 40
        t_s = np.arange(n) / fs
        x = np.sin(2 * np.pi * (k * fs / n) * t_s)
        out, _ = regularize_ft(TimeSeries(0.0, 1.0, x), FtRegParams(k * fs / n))
        assert np.max(np.abs(out.values - x)) < 1e-9

    def test_zero_phase(self):
        ts, low, _, fs = two_tone()
        out, _ = regularize_ft(ts, FtRegParams(15 * fs / len(ts)))
        xcorr = np.correlate(out.values, ts.values, mode="full")
        assert np.argmax(xcorr) - (len(ts) - 1) == 0

    def test_output_is_real(self):
        rng = np.random.default_rng(2)
        ts = TimeSeries(0.0, 1.0, rng.standard_normal(300))
        out, _ = regularize_ft(ts, FtRegParams(120.0))
        assert np.isrealobj(out.values)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        ts = TimeSeries(0.0, 1.0, rng.standard_normal(256))
        once, _ = regularize_ft(ts, FtRegParams(90.0))
        twice, _ = regularize_ft(once, FtRegParams(90.0))
        assert np.max(np.abs(twice.values - once.values)) < 1e-9

    def test_energy_monotone(self):
        rng = np.random.default_rng(4)
        ts = TimeSeries(0.0, 1.0, rng.standard_normal(256))
        out, _ = regularize_ft(ts, FtRegParams(90.0))
        assert np.dot(out.values, out.values) <= np.dot(ts.values, ts.values)

    def test_band_too_narrow(self):
        ts = TimeSeries(0.0, 1.0, np.sin(np.arange(64.0)))
        with pytest.raises(BandTooNarrow):
            regularize_ft(ts, FtRegParams(1e-6))

    def test_zeta_above_nyquist_rejected(self):
        ts = TimeSeries(0.0, 1.0, np.sin(np.arange(64.0)))
        with pytest.raises(ConfigError):
            regularize_ft(ts, FtRegParams(600.0))


class TestDefaultZetaMax:
    def test_band_edge_of_tone(self):
        n = 1000
        fs = 1000.0
        t_s = np.arange(n) / fs
        ts = TimeSeries(0.0, 1.0, np.sin(2 * np.pi * 50.0 * t_s))
        zeta = default_zeta_max(ts)
        assert 50.0 <= zeta <= 80.0  # 50 Hz line, widened by 25%

    def test_below_nyquist(self):
        rng = np.random.default_rng(7)
        ts = TimeSeries(0.0, 1.0, rng.standard_normal(512))
        assert default_zeta_max(ts) < ts.fs_hz / 2
