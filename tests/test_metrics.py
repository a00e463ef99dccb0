import math

import numpy as np
import pytest

from seisreg.errors import DataError
from seisreg.ftreg import FtRegParams, default_zeta_max, regularize_ft
from seisreg.metrics import (
    Psd,
    entropy_report,
    evaluate,
    nmi,
    psd,
    series_entropy,
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
        with pytest.raises(DataError, match="need at least 4 samples, got 3"):
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
        with pytest.raises(DataError, match="PSD has no power"):
            spectral_entropy(Psd(np.arange(4.0), np.zeros(4)))


class TestEntropyReport:
    def test_three_entropies_at_band_edge(self, bench_well_a):
        # the flat-spectrum impedance attribute is the reference; zeta at its
        # 95%-cumulative band edge lowers the target's entropy
        imp = bench_well_a["attrs"]["imp"]
        target = bench_well_a["sf_norm"]
        zeta = default_zeta_max(imp, coverage=0.95, widen=1.0)
        out, _ = regularize_ft(target, FtRegParams(zeta))
        report = entropy_report(target, out, imp)
        assert report == {"entropy_original": series_entropy(target),
                          "entropy_regularized": series_entropy(out),
                          "entropy_predictor": series_entropy(imp)}
        assert report["entropy_regularized"] < report["entropy_original"]


def binned_entropy(counts):
    p = counts.ravel() / counts.sum()
    return -(p[p > 0] * np.log2(p[p > 0])).sum()


class TestMutualInformation:
    """The mutual information inside nmi, through its normalization by the
    smaller marginal entropy."""

    def test_identical_two_bins(self):
        # one bit shared, one bit per marginal
        x = np.arange(100.0)
        assert nmi(x, x, bins=2) == pytest.approx(1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal(100_000)
        y = rng.standard_normal(100_000)
        assert nmi(x, y, bins=8) < 0.01

    def test_negation_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1000)
        y = x + rng.standard_normal(1000)
        assert nmi(x, -y, bins=8) == pytest.approx(nmi(x, y, bins=8))

    def test_self_mi_equals_binned_entropy(self):
        # against I(X;Y) = H(X) + H(Y) - H(X,Y) from numpy's own histograms
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 5000)
        y = x ** 2 + 0.1 * rng.standard_normal(5000)
        joint, _, _ = np.histogram2d(x, y, bins=16)
        hx = binned_entropy(np.histogram(x, bins=16)[0])
        hy = binned_entropy(np.histogram(y, bins=16)[0])
        mi = hx + hy - binned_entropy(joint)
        assert nmi(x, y, bins=16) == pytest.approx(mi / min(hx, hy), abs=1e-12)
        assert nmi(x, x, bins=16) == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.standard_normal(500)
            y = rng.standard_normal(500)
            assert nmi(x, y, bins=8) >= -1e-9

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="series lengths differ: 5 vs 6"):
            nmi(np.zeros(5), np.zeros(6), bins=2)


class TestNmi:
    def test_identical_is_one(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 2000)
        assert nmi(x, x, bins=16) == pytest.approx(1.0, abs=1e-12)

    def test_constant_degenerate(self):
        with pytest.raises(DataError, match="a marginal has zero entropy"):
            nmi(np.arange(100.0), np.full(100, 3.0), bins=16)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(3000)
        y = x + rng.standard_normal(3000)
        assert nmi(x, y, bins=16) == pytest.approx(nmi(y, x, bins=16), abs=1e-12)

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
        assert (r["cc"], r["rmse"], r["aem"], r["si"]) == (
            pytest.approx(1.0), 0.0, 0.0, 0.0)

    def test_hand_computed(self):
        r = evaluate([0.0, 0.0], [3.0, 4.0])
        assert r["rmse"] == pytest.approx(math.sqrt(12.5))
        assert r["aem"] == pytest.approx(3.5)
        assert r["si"] == pytest.approx(math.sqrt(12.5) / 3.5)
        assert math.isnan(r["cc"])  # constant prediction leaves CC undefined

    def test_anticorrelation(self):
        actual = np.array([-1.0, 0.0, 1.0])
        r = evaluate(-actual, actual)
        assert r["cc"] == pytest.approx(-1.0)

    def test_rmse_at_least_aem(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            r = evaluate(rng.standard_normal(50), rng.standard_normal(50) + 1.0)
            assert r["rmse"] >= r["aem"] - 1e-15

    def test_cc_affine_invariant(self):
        rng = np.random.default_rng(11)
        predicted = rng.standard_normal(100)
        actual = predicted + 0.3 * rng.standard_normal(100) + 2.0
        base = evaluate(predicted, actual)["cc"]
        scaled = evaluate(3.0 * predicted + 7.0, actual)["cc"]
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_constant_actual_raises(self):
        with pytest.raises(DataError, match="actual series is constant"):
            evaluate([1.0, 2.0], [5.0, 5.0])

    def test_zero_mean_actual_flags_si(self):
        r = evaluate([0.1, -0.2], [1.0, -1.0])
        assert math.isnan(r["si"])
        assert r["rmse"] > 0 and not math.isnan(r["cc"])
