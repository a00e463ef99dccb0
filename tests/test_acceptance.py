"""Acceptance suite: one test per criterion, each at its stated tolerance.

Criteria 6 and 7 run on the default synthetic benchmark (seed 7); the
committed golden report (tests/golden/benchmark_baseline.json) records the
calibration those margins rest on, and fresh runs are checked against it.
"""

import filecmp
import json
import math
import os
import shutil

import numpy as np
import pytest

from seisreg import cli, emdreg, mlp, pipeline, volpost, waveletreg
from seisreg.formats import (
    InconsistentTraceLength,
    TruncatedFile,
    UnsupportedFormatCode,
    parse_las,
    parse_segy,
    volume_from_traces,
    write_las,
)
from seisreg.formats.volume import SeismicVolume
from seisreg.ftreg import FtRegParams, regularize_ft
from seisreg.resample import TimeSeries

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "benchmark_baseline.json")


def announce(criterion, passed=True):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")


class TestCriterion1PerfectReconstruction:
    def test_wavelet_reconstruction_grid(self):
        worst = 0.0
        for w_idx, name in enumerate(("haar", "db2", "db4", "db8")):
            for n in (64, 100, 1024, 4097):
                rng = np.random.default_rng([w_idx, n])
                x = rng.standard_normal(n)
                for levels in range(1, 7):
                    coeffs = waveletreg.dwt(x, name, levels=levels)
                    back = waveletreg.idwt(coeffs, name)
                    worst = max(worst, float(np.abs(back - x).max()))
        assert worst < 1e-10
        announce("1 (wavelet perfect reconstruction)")


class TestCriterion2GradientFidelity:
    def test_backprop_vs_central_differences(self):
        rng = np.random.default_rng(202)
        h = 1e-6
        worst = 0.0
        for trial in range(20):
            model = mlp.init_model(3, 5, seed=trial)
            X = rng.standard_normal((20, 3))
            d = rng.uniform(0.1, 0.9, 20)
            bp = mlp.gradient(model, X, d)
            w0 = model.flatten()
            fd = np.zeros_like(w0)
            for i in range(len(w0)):
                wp, wm = w0.copy(), w0.copy()
                wp[i] += h
                wm[i] -= h
                fd[i] = (mlp.loss(model.with_flat(wp), X, d)
                         - mlp.loss(model.with_flat(wm), X, d)) / (2 * h)
            # relative to the gradient's scale: component-wise denominators
            # underflow where true components vanish
            scale = max(float(np.abs(fd).max()), 1e-12)
            worst = max(worst, float(np.abs(bp - fd).max()) / scale)
        assert worst < 1e-6
        announce("2 (gradient fidelity)")


class TestCriterion3ScgContract:
    def test_realizable_fixture(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-3, 3, size=(200, 3))
        d = 1.0 / (1.0 + np.exp(-0.5 * X[:, 0]))
        params = mlp.ScgParams(max_iters=500)
        assert 0.0 < params.sigma <= 1e-4 and 0.0 < params.lambda1 <= 1e-4
        trained, history = mlp.scg_train(mlp.init_model(3, 5, seed=1), X, d, params)
        accepted = [l for l, a in zip(history.loss, history.accepted) if a]
        assert all(b <= a for a, b in zip(accepted, accepted[1:]))
        assert all(c > 0 for c in history.curvature)
        rmse = math.sqrt(np.mean((mlp.forward_batch(trained, X) - d) ** 2))
        assert rmse < 0.01 and history.iterations <= 500
        with pytest.raises(Exception):
            mlp.ScgParams(sigma=2e-4)
        announce("3 (SCG contract)")


class TestCriterion4EmdInvariants:
    def test_fixture_family(self):
        n = 512
        t = np.arange(n)
        rng = np.random.default_rng(4)
        fast = np.sin(2 * np.pi * 64 * t / n)
        slow = np.sin(2 * np.pi * 8 * t / n)
        fixtures = {
            "tone": TimeSeries(0.0, 1.0, slow),
            "two_tone": TimeSeries(0.0, 1.0, fast + slow),
            "noisy": TimeSeries(0.0, 1.0, slow + 0.3 * rng.standard_normal(n)),
        }
        for name, ts in fixtures.items():
            d = emdreg.emd(ts)
            err = d.reconstruct() - ts.values
            assert np.sqrt(np.mean(err ** 2)) < 1e-8, name
            for imf in d.imfs:
                maxima, minima = emdreg.find_extrema(imf.values)
                extrema = len(maxima) + len(minima)
                assert abs(extrema - emdreg.zero_crossings(imf.values)) <= 1, name
        two = emdreg.emd(fixtures["two_tone"])
        mid = slice(n // 4, 3 * n // 4)
        assert np.corrcoef(two.imfs[0].values[mid], fast[mid])[0, 1] > 0.95
        mono = emdreg.emd(TimeSeries(0.0, 1.0, np.linspace(0, 1, 64)))
        assert len(mono) == 0
        announce("4 (EMD invariants)")


class TestCriterion5FtTruncation:
    def test_bin_aligned_two_tone(self):
        n = 1024
        fs = 1000.0
        t_s = np.arange(n) / fs
        low = np.sin(2 * np.pi * (10 * fs / n) * t_s)
        high = np.sin(2 * np.pi * (100 * fs / n) * t_s)
        ts = TimeSeries(0.0, 1.0, low + high)
        out, _ = regularize_ft(ts, FtRegParams(15 * fs / n))
        assert np.sqrt(np.mean((out.values - low) ** 2)) < 1e-9
        xcorr = np.correlate(out.values, ts.values, mode="full")
        assert np.argmax(xcorr) - (n - 1) == 0
        announce("5 (FT truncation exactness and phase)")


class TestCriterion6EntropyNmiDirections:
    def test_directions_on_benchmark(self, workflow_reports):
        # raw target carries more information than any predictor
        tables_none = workflow_reports["none"].final["tables"]
        for well_id, tables in tables_none.items():
            h = tables["entropy_bits"]
            for predictor in ("impedance", "amplitude", "inst_frequency"):
                assert h["original_sf"] > h[predictor], well_id
        # each method lowers target entropy and raises NMI for >= 2 of 3
        for method in ("ft", "wd", "emd"):
            tables = workflow_reports[method].final["tables"]
            for well_id, t in tables.items():
                h = t["entropy_bits"]
                assert h["regularized_sf"] < h["original_sf"], (method, well_id)
                ups = sum(1 for row in t["nmi"].values()
                          if row["regularized"] > row["original"])
                assert ups >= 2, (method, well_id, ups)
        announce("6 (entropy and NMI directions)")


class TestCriterion7RegularizationBenefit:
    def test_validation_ordering_and_good_fit(self, workflow_reports):
        cc = {m: workflow_reports[m].final["validation_pooled"]["cc"]
              for m in pipeline.METHODS}
        best = max(cc["ft"], cc["wd"], cc["emd"])
        assert cc["none"] < cc["avg9"]
        assert cc["avg9"] < best  # plain averaging sits between raw and best
        assert cc["none"] + 0.05 <= best
        best_method = max(("ft", "wd", "emd"), key=lambda m: cc[m])
        good = workflow_reports[best_method].final["good_fit"]
        assert sum(good.values()) >= 3
        announce("7 (regularization benefit)")

    def test_matches_golden_baseline(self, workflow_reports):
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        assert golden["bench_seed"] == 7
        # the committed calibration must itself carry the required margins
        g_cc = {m: golden["methods"][m]["validation_pooled"]["cc"]
                for m in pipeline.METHODS}
        assert g_cc["none"] < g_cc["avg9"]
        assert g_cc["none"] + 0.05 <= max(g_cc["ft"], g_cc["wd"], g_cc["emd"])
        # and fresh runs may not drift from it (0.02 absorbs BLAS variation)
        for method, entry in golden["methods"].items():
            fresh = workflow_reports[method].final["validation_pooled"]
            for key in ("cc", "rmse", "aem", "si"):
                assert fresh[key] == pytest.approx(
                    entry["validation_pooled"][key], abs=0.02), (method, key)
        announce("7 (golden baseline)")


class TestCriterion8MedianFilter:
    def test_median_rules(self):
        cube = np.arange(1.0, 28.0).reshape(3, 3, 3)
        vol = SeismicVolume(inlines=[1, 2, 3], xlines=[1, 2, 3], t0_ms=0.0,
                            dt_ms=2.0, data=cube)
        assert volpost.median_filter_3d(vol).data[1, 1, 1] == 14.0

        spike = np.full((5, 5, 5), 2.0)
        spike[2, 2, 2] = 1e9
        vol = SeismicVolume(inlines=range(5), xlines=range(5), t0_ms=0.0,
                            dt_ms=2.0, data=spike)
        assert volpost.median_filter_3d(vol).data[2, 2, 2] == 2.0

        rng = np.random.default_rng(8)
        data = rng.uniform(0, 1, (4, 4, 8))
        vol = SeismicVolume(inlines=range(4), xlines=range(4), t0_ms=0.0,
                            dt_ms=2.0, data=data)
        a, b = 3.5, -1.25
        scaled = SeismicVolume(inlines=range(4), xlines=range(4), t0_ms=0.0,
                               dt_ms=2.0, data=a * data + b)
        np.testing.assert_array_equal(
            volpost.median_filter_3d(scaled).data,
            a * volpost.median_filter_3d(vol).data + b)
        announce("8 (median filter)")


class TestCriterion9ParserFidelity:
    def test_formats(self):
        from test_formats import MINIMAL_LAS, make_segy
        rng = np.random.default_rng(9)
        samples = rng.uniform(-500.0, 500.0, 32).tolist()
        ieee = volume_from_traces(parse_segy(make_segy([(1, 1, samples)], fmt=5)))
        ibm = volume_from_traces(parse_segy(make_segy([(1, 1, samples)], fmt=1)))
        rel = np.abs(ibm.data - ieee.data) / np.abs(ieee.data)
        assert rel.max() < 1e-6

        with pytest.raises(TruncatedFile):
            parse_segy(b"short")
        with pytest.raises(UnsupportedFormatCode):
            parse_segy(make_segy([(1, 1, [0.0] * 4)], fmt=2))
        bad = np.asarray([1.0, 2.0, 3.0], dtype=">f4").tobytes()
        with pytest.raises(InconsistentTraceLength):
            parse_segy(make_segy([(1, 1, [0.0] * 4)], samples_per_trace=4,
                                 payload_override=bad))
        from seisreg.formats import (DuplicateTrace, MissingSection, RaggedRow,
                                     VersionUnsupported)
        with pytest.raises(DuplicateTrace):
            volume_from_traces(parse_segy(make_segy([(1, 1, [0.0, 1.0]),
                                                     (1, 1, [2.0, 3.0])])))
        with pytest.raises(RaggedRow):
            parse_las(MINIMAL_LAS.replace("1000.5 0.5", "1000.5"))
        with pytest.raises(MissingSection):
            parse_las(MINIMAL_LAS.replace("~Curve", "~Parameters"))
        with pytest.raises(VersionUnsupported):
            parse_las(MINIMAL_LAS.replace("2.0", "1.2"))

        log = parse_las(MINIMAL_LAS)
        again = parse_las(write_las(log))
        np.testing.assert_array_equal(log.rows, again.rows)
        assert log.curve_names == again.curve_names
        announce("9 (parser fidelity)")


class TestCriterion10Determinism:
    def test_run_twice_byte_identical(self, bench_config_text, tmp_path):
        config_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        lines = ["method = ft", "max_iters = 300", "predict = true",
                 f"outdir = {outdir}"]
        config_path.write_text(bench_config_text + "\n".join(lines) + "\n")

        snapshot = tmp_path / "snapshot"
        for round_no in range(2):
            shutil.rmtree(outdir, ignore_errors=True)
            assert cli.main(["run", "--config", str(config_path)]) == 0
            if round_no == 0:
                shutil.copytree(outdir, snapshot)
        names = sorted(os.listdir(outdir))
        assert {"report.json", "sf_pred.svol", "sf_pred_med.svol"} <= set(names)
        for name in names:
            assert filecmp.cmp(outdir / name, snapshot / name, shallow=False), name
        announce("10 (end-to-end determinism)")
