import math

import numpy as np
import pytest

from seisreg.errors import ConfigError
from seisreg.metrics import series_entropy
from seisreg.waveletreg import (
    SpecMismatch,
    TooManyLevels,
    WaveletSpec,
    available_wavelets,
    dwt,
    idwt,
    regularize_wd,
)
from seisreg.resample import TimeSeries

SQRT2 = math.sqrt(2.0)


class TestFilterTables:
    @pytest.mark.parametrize("name", ["haar", "db2", "db4", "db8"])
    def test_lowpass_sums_to_sqrt2(self, name):
        spec = WaveletSpec.named(name)
        assert abs(spec.dec_lo.sum() - SQRT2) < 1e-12

    @pytest.mark.parametrize("name", ["haar", "db2", "db4", "db8"])
    def test_orthonormal_shifts(self, name):
        h = WaveletSpec.named(name).dec_lo
        L = len(h)
        for m in range(L // 2):
            want = 1.0 if m == 0 else 0.0
            assert abs(np.dot(h[:L - 2 * m], h[2 * m:]) - want) < 1e-10

    @pytest.mark.parametrize("name", ["haar", "db2", "db4", "db8"])
    def test_quadrature_mirror(self, name):
        spec = WaveletSpec.named(name)
        L = spec.length
        for k in range(L):
            assert spec.dec_hi[k] == pytest.approx(
                (-1.0) ** k * spec.dec_lo[L - 1 - k], abs=1e-15)

    def test_unknown_wavelet(self):
        with pytest.raises(ConfigError):
            WaveletSpec.named("sym5")

    def test_registry(self):
        assert available_wavelets() == ["db2", "db4", "db8", "haar"]


class TestDwt:
    def test_haar_hand_computed(self):
        # orthonormal Haar: pairwise (a+b)/sqrt(2) and (a-b)/sqrt(2)
        coeffs = dwt(np.array([1.0, 1.0, 1.0, 1.0]), "haar", levels=1)
        np.testing.assert_allclose(coeffs.approx, [SQRT2, SQRT2], atol=1e-14)
        np.testing.assert_allclose(coeffs.details[0], [0.0, 0.0], atol=1e-14)

    def test_constant_annihilated_by_db4(self):
        coeffs = dwt(np.full(128, 4.2), "db4", levels=3)
        for d in coeffs.details:
            assert np.abs(d).max() < 1e-10

    def test_ramp_details_vanish_interior(self):
        # db4 has two vanishing moments; only boundary coefficients survive
        coeffs = dwt(np.linspace(0.0, 1.0, 256), "db4", levels=1)
        interior = coeffs.details[0][4:-4]
        assert np.abs(interior).max() < 1e-10

    def test_too_many_levels(self):
        # symmetric-mode lengths shrink as (n + L - 1) // 2: 32, 23, 19, 17,
        # 16 ... the sixth level would see 15 < 16 taps
        with pytest.raises(TooManyLevels):
            dwt(np.zeros(32), "db8", levels=6)
        dwt(np.zeros(32), "db8", levels=5)


class TestIdwt:
    @pytest.mark.parametrize("name", ["haar", "db2", "db4", "db8"])
    @pytest.mark.parametrize("n", [64, 100, 1024, 4097])
    def test_perfect_reconstruction(self, name, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        for levels in (1, 3, 6):
            coeffs = dwt(x, name, levels=levels)
            back = idwt(coeffs, name)
            assert back.shape == x.shape
            assert np.abs(back - x).max() < 1e-10

    def test_odd_lengths(self):
        rng = np.random.default_rng(13)
        for n in (65, 99, 333):
            x = rng.standard_normal(n)
            coeffs = dwt(x, "db4", levels=2)
            assert np.abs(idwt(coeffs, "db4") - x).max() < 1e-10

    def test_zeroed_approx_haar(self):
        coeffs = dwt(np.array([1.0, 1.0, 1.0, 1.0]), "haar", levels=1)
        coeffs.approx = np.zeros_like(coeffs.approx)
        out = idwt(coeffs, "haar")
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_branch_additivity(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(256)
        full = dwt(x, "db2", levels=4)
        approx_only = dwt(x, "db2", levels=4)
        approx_only.details = [np.zeros_like(d) for d in approx_only.details]
        details_only = dwt(x, "db2", levels=4)
        details_only.approx = np.zeros_like(details_only.approx)
        total = idwt(approx_only, "db2") + idwt(details_only, "db2")
        assert np.abs(total - x).max() < 1e-10

    def test_spec_mismatch(self):
        coeffs = dwt(np.zeros(64), "db4", levels=2)
        with pytest.raises(SpecMismatch):
            idwt(coeffs, "haar")

    def test_energy_split_periodization(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(1024)
        x /= np.linalg.norm(x)  # unit energy, so the bound is scale-free
        coeffs = dwt(x, "db4", levels=6, boundary_mode="periodization")
        energy = np.dot(coeffs.approx, coeffs.approx) + \
            sum(np.dot(d, d) for d in coeffs.details)
        assert abs(energy - 1.0) < 1e-9


def trend_plus_noise(n=1024, seed=21):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n)
    trend = 0.5 + 0.3 * np.sin(2 * np.pi * 1.5 * t) + 0.2 * t
    return TimeSeries(0.0, 0.15, trend + 0.1 * rng.standard_normal(n))


class TestRegularizeWd:
    def test_empty_truncation_is_noop(self):
        ts = trend_plus_noise()
        out, _ = regularize_wd(ts, truncate_details=set())
        assert np.abs(out.values - ts.values).max() < 1e-10

    def test_energy_bookkeeping(self):
        # orthonormal split: removed signal energy equals the energy of the
        # zeroed coefficients (periodization keeps this exact)
        ts = trend_plus_noise()
        coeffs = dwt(ts, "db4", levels=6, boundary_mode="periodization")
        expected = sum(float(np.dot(coeffs.details[l - 1], coeffs.details[l - 1]))
                       for l in range(1, 7))
        out, detail = regularize_wd(ts, levels=6, truncate_details=range(1, 7),
                                    boundary_mode="periodization")
        removed = float(np.dot(ts.values - out.values, ts.values - out.values))
        assert removed == pytest.approx(expected, rel=1e-9)
        assert detail["removed_energy"] == pytest.approx(expected, rel=1e-12)

    def test_noise_variance_reduced(self):
        rng = np.random.default_rng(22)
        ts = TimeSeries(0.0, 0.15, rng.standard_normal(2048))
        out, _ = regularize_wd(ts, truncate_details={1})
        assert out.values.var() < ts.values.var()

    def test_trend_preserved(self):
        ts = trend_plus_noise()
        out, _ = regularize_wd(ts)  # default: all but the coarsest level
        assert np.corrcoef(out.values, ts.values)[0, 1] > 0

    def test_entropy_drops(self):
        ts = trend_plus_noise()
        out, _ = regularize_wd(ts)
        assert series_entropy(out) < series_entropy(ts)

    def test_bad_truncation_levels(self):
        with pytest.raises(ConfigError):
            regularize_wd(trend_plus_noise(), levels=6, truncate_details={7})
