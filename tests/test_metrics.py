import math

import numpy as np
import pytest

from seisreg.ftreg import FtRegParams, default_zeta_max, regularize_ft
from seisreg.metrics import (
    ConstantActual,
    DegenerateMarginal,
    LengthMismatch,
    Psd,
    TooShort,
    ZeroPower,
    entropy_report,
    evaluate,
    mutual_information,
    nmi,
    psd,
    spectral_entropy,
)
from seisreg.resample import TimeSeries


def brute_force_psd(values, fs):
    """O(N^2) direct-sum periodogram oracle, mean removed."""
    x = np.asarray(values, dtype=np.float64)
    x = x - x.mean()
    n = len(x)
    out = []
    for k in range(n // 2 + 1):
        coeff = sum(x[j] * np.exp(-2j * np.pi * j * k / n) for j in range(n))
        out.append(abs(coeff) ** 2 / (n * fs))
    return np.array(out)


class TestPsd:
    def test_tone_at_bin_is_single_line(self):
        n = 64
        x = np.sin(2 * np.pi * 8 * np.arange(n) / n)
        p = psd(TimeSeries(0.0, 1.0, x))
        peak = p.power.max()
        assert np.argmax(p.power) == 8
        others = np.delete(p.power, 8)
        assert others.max() < 1e-10 * peak

    def test_constant_series_no_power(self):
        p = psd(TimeSeries(0.0, 1.0, np.full(16, 2.5)))
        assert p.power.max() < 1e-20

    def test_white_noise_matches_direct_dft(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(48)
        series = TimeSeries(0.0, 2.0, x)
        p = psd(series)
        oracle = brute_force_psd(x, series.fs_hz)
        np.testing.assert_allclose(p.power, oracle, rtol=1e-9, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(TooShort):
            psd(TimeSeries(0.0, 1.0, np.zeros(3)))


class TestSpectralEntropy:
    def test_uniform_eight_bins(self):
        assert spectral_entropy(Psd(np.arange(8.0), np.ones(8))) == pytest.approx(3.0)

    def test_single_bin(self):
        p = Psd(np.arange(4.0), np.array([0.0, 5.0, 0.0, 0.0]))
        assert spectral_entropy(p) == 0.0

    def test_two_equiprobable(self):
        p = Psd(np.arange(4.0), np.array([0.5, 0.5, 0.0, 0.0]))
        assert spectral_entropy(p) == pytest.approx(1.0)

    def test_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            power = rng.uniform(0, 1, 32)
            h = spectral_entropy(Psd(np.arange(32.0), power))
            assert 0.0 <= h <= math.log2(32) + 1e-12

    def test_zero_power(self):
        with pytest.raises(ZeroPower):
            spectral_entropy(Psd(np.arange(4.0), np.zeros(4)))


class TestEntropyGate:
    def test_regularized_equals_predictor_passes(self):
        rng = np.random.default_rng(5)
        broadband = TimeSeries(0.0, 1.0, rng.standard_normal(512))
        narrow, _ = regularize_ft(broadband, FtRegParams(60.0))
        result = entropy_report(broadband, narrow, narrow, tol_bits=0.0)
        assert result["gate_passed"]

    def test_unfiltered_fails_strict_decrease(self):
        rng = np.random.default_rng(6)
        broadband = TimeSeries(0.0, 1.0, rng.standard_normal(512))
        result = entropy_report(broadband, broadband, broadband, tol_bits=1.0)
        assert not result["gate_passed"]

    def test_benchmark_gate_at_band_edge(self, bench_well_a):
        # the flat-spectrum impedance attribute is the reference; zeta at its
        # 95%-cumulative band edge brings the target's entropy alongside
        imp = bench_well_a["attrs"]["imp"]
        target = bench_well_a["sf_norm"]
        zeta = default_zeta_max(imp, coverage=0.95, widen=1.0)
        out, _ = regularize_ft(target, FtRegParams(zeta))
        report = entropy_report(target, out, imp, 0.05)
        assert report["gate_passed"]
        assert report["entropy_regularized"] < report["entropy_original"]


class TestMutualInformation:
    def test_identical_two_bins(self):
        x = np.arange(100.0)
        assert mutual_information(x, x, bins=2) == pytest.approx(1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal(100_000)
        y = rng.standard_normal(100_000)
        assert mutual_information(x, y, bins=8) < 0.01

    def test_negation_invariant(self):
        x = np.arange(100.0)
        assert mutual_information(x, -x, bins=2) == \
            pytest.approx(mutual_information(x, x, bins=2))

    def test_self_mi_equals_binned_entropy(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 5000)
        counts, _ = np.histogram(x, bins=16)
        p = counts / counts.sum()
        h = -(p[p > 0] * np.log2(p[p > 0])).sum()
        assert mutual_information(x, x, bins=16) == pytest.approx(h, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.standard_normal(500)
            y = rng.standard_normal(500)
            assert mutual_information(x, y, bins=8) >= -1e-9

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mutual_information(np.zeros(5), np.zeros(6), bins=2)


class TestNmi:
    def test_identical_is_one(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 2000)
        assert nmi(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateMarginal):
            nmi(np.arange(100.0), np.full(100, 3.0))

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(3000)
        y = x + rng.standard_normal(3000)
        assert nmi(x, y) == pytest.approx(nmi(y, x), abs=1e-12)

    def test_noise_level_monotone(self):
        # between the identical and independent extremes, NMI falls as noise grows
        rng = np.random.default_rng(6)
        x = rng.standard_normal(20_000)
        values = []
        for level in (0.0, 0.5, 4.0):
            y = x + level * rng.standard_normal(20_000)
            values.append(nmi(x, y, bins=8))
        assert values[0] > values[1] > values[2]
        assert values[0] == pytest.approx(1.0, abs=1e-9)


class TestEvaluate:
    def test_perfect_prediction(self):
        actual = np.array([0.2, 0.4, 0.6])
        r = evaluate(actual, actual)
        assert (r.cc, r.rmse, r.aem, r.si) == (pytest.approx(1.0), 0.0, 0.0, 0.0)

    def test_hand_computed(self):
        r = evaluate([0.0, 0.0], [3.0, 4.0])
        assert r.rmse == pytest.approx(math.sqrt(12.5))
        assert r.aem == pytest.approx(3.5)
        assert r.si == pytest.approx(math.sqrt(12.5) / 3.5)
        assert not r.cc_defined  # constant prediction leaves CC undefined

    def test_anticorrelation(self):
        actual = np.array([-1.0, 0.0, 1.0])
        r = evaluate(-actual, actual)
        assert r.cc == pytest.approx(-1.0)

    def test_rmse_at_least_aem(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            r = evaluate(rng.standard_normal(50), rng.standard_normal(50) + 1.0)
            assert r.rmse >= r.aem - 1e-15

    def test_cc_affine_invariant(self):
        rng = np.random.default_rng(11)
        predicted = rng.standard_normal(100)
        actual = predicted + 0.3 * rng.standard_normal(100) + 2.0
        base = evaluate(predicted, actual).cc
        scaled = evaluate(3.0 * predicted + 7.0, actual).cc
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_constant_actual_raises(self):
        with pytest.raises(ConstantActual):
            evaluate([1.0, 2.0], [5.0, 5.0])

    def test_zero_mean_actual_flags_si(self):
        r = evaluate([0.1, -0.2], [1.0, -1.0])
        assert not r.si_defined
        assert r.rmse > 0 and r.cc_defined
