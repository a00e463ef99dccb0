import json
import math
import pathlib

import numpy as np
import pytest

from seisreg import resample, synthbench
from seisreg.errors import ConfigError, DataError
from seisreg.ftreg import BandTooNarrow
from seisreg.pipeline import (
    METHODS,
    PARAMS,
    RunConfig,
    RunReport,
    SpanTooLarge,
    WellConfig,
    WellData,
    moving_average_baseline,
    parse_config,
    read_patterns_csv,
    render_config,
    report_tables,
    run_workflow,
    write_patterns_csv,
)
from seisreg.resample import TimeSeries


class TestMovingAverage:
    def test_constant_unchanged(self):
        ts = TimeSeries(0.0, 1.0, np.full(32, 1.5))
        out = moving_average_baseline(ts, span=9)
        np.testing.assert_allclose(out.values, 1.5, atol=1e-15)

    def test_impulse_response(self):
        values = np.zeros(21)
        values[10] = 1.0
        out = moving_average_baseline(TimeSeries(0.0, 1.0, values), span=9)
        np.testing.assert_allclose(out.values[6:15], 1.0 / 9.0, atol=1e-15)
        assert out.values[5] == 0.0 and out.values[15] == 0.0

    def test_edges_shrink(self):
        out = moving_average_baseline(TimeSeries(0.0, 1.0, np.arange(12.0)), span=5)
        assert out.values[0] == pytest.approx(np.mean([0, 1, 2]))
        assert out.values[-1] == pytest.approx(np.mean([9, 10, 11]))

    def test_span_too_large(self):
        with pytest.raises(SpanTooLarge):
            moving_average_baseline(TimeSeries(0.0, 1.0, np.zeros(5)), span=7)

    def test_even_span_rejected(self):
        with pytest.raises(ConfigError):
            moving_average_baseline(TimeSeries(0.0, 1.0, np.zeros(12)), span=4)


BENCH_RENDERED = """\
vol.imp = /bench/imp.svol
vol.amp = /bench/amp.svol
vol.freq = /bench/freq.svol
method = ft
dt_ms = 0.15
wavelet = db4
wd_levels = 6
p1 = 1
sd_threshold = 0.2
avg_span = 9
mi_bins = 16
split_seed = 7
hidden = 10
max_iters = 2000
train_seed = 7
sigma = 0.0001
lambda1 = 0.0001
target_loss = 0.0
validation_cc_threshold = 0.8
max_attempts = 3
predict = False
filter_window = 3
outdir =\x20
wells = A,B,C,D
well.A.las = /bench/well_A.las
well.A.velocity = /bench/vel_A.csv
well.B.las = /bench/well_B.las
well.B.velocity = /bench/vel_B.csv
well.C.las = /bench/well_C.las
well.C.velocity = /bench/vel_C.csv
well.D.las = /bench/well_D.las
well.D.velocity = /bench/vel_D.csv
"""


class TestConfig:
    def test_parse_and_render_roundtrip(self, bench_config_text):
        for method in METHODS:
            config = parse_config(bench_config_text, {
                "method": method, "zeta_max_hz": "90.5", "truncate": "1,2",
                "p1": "2"})
            assert (config.zeta_max_hz, config.truncate_details, config.p1) == (
                90.5, [1, 2], 2)
            again = parse_config(render_config(config))
            assert again == config, method

    def test_render_bench_config_exact(self):
        config = parse_config(synthbench.config_text("/bench"))
        assert render_config(config) == BENCH_RENDERED

    @pytest.mark.parametrize("key,value", [
        ("truncate", "1,a"), ("well.A.inline", "3.5"), ("well.A.xline", "x"),
        ("predict", "ture")])
    def test_bad_numeric_value_is_config_error(self, key, value):
        text = "wells = A\nwell.A.las = a.las\nwell.A.velocity = a.csv\n"
        with pytest.raises(ConfigError, match=key):
            parse_config(text, {key: value})

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("True", True), ("YES", True),
        ("0", False), ("false", False), ("False", False), ("No", False)])
    def test_bool_spellings(self, value, expected):
        # render_config writes True/False, which must parse back
        assert parse_config("", {"predict": value}).predict is expected

    def test_unknown_key_rejected(self):
        for text in ("mystery = 1", "gate_tol_bits = 0.05"):
            with pytest.raises(ConfigError):
                parse_config(text)

    @pytest.mark.parametrize("key", ["well.A.inlin", "well.Z.las"])
    def test_unknown_well_key_rejected(self, key):
        text = "wells = A\nwell.A.las = a.las\nwell.A.velocity = a.csv\n"
        with pytest.raises(ConfigError, match=key):
            parse_config(text, {key: "3"})

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("method = pca")

    def test_missing_well_paths(self):
        with pytest.raises(ConfigError):
            parse_config("wells = A\nwell.A.las = x.las")

    def test_overrides_win(self):
        config = parse_config("method = ft\nhidden = 10", {"hidden": "4"})
        assert config.hidden == 4

    def test_comments_ignored(self):
        config = parse_config("# a comment\nmethod = emd  # trailing\n")
        assert config.method == "emd"


class TestMethodParams:
    def test_readme_key_table(self):
        # every row of the README's per-method table is one tunable, by key,
        # flag and the methods that take it
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        lines = readme.read_text().splitlines()
        start = lines.index("| key | flag | method | default |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            rows.append(tuple(c.strip().strip("`") for c in line.split("|")[1:4]))
        assert sorted(rows) == sorted(
            (p.key, p.flag, ", ".join(m.name for m in METHODS.values()
                                      if p in m.params))
            for p in PARAMS.values())

    def test_tightening_schedule(self):
        tightened = lambda config: METHODS[config.method].tighten(config)
        ft = RunConfig(method="ft", zeta_max_hz=100.0)
        assert tightened(ft).zeta_max_hz == pytest.approx(80.0)
        wd = RunConfig(method="wd", wd_levels=6, truncate_details=[1, 2, 3, 4, 5])
        assert tightened(wd).truncate_details == [1, 2, 3, 4, 5, 6]
        assert tightened(tightened(wd)) is None
        emd = RunConfig(method="emd", p1=1)
        assert tightened(emd).p1 == 2
        assert tightened(RunConfig(method="none")) is None
        assert tightened(RunConfig(method="avg9")) is None


class TestPatternsCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        wells = [
            WellData(well_id=w, t0_ms=100.0, dt_ms=0.5,
                     sf=rng.uniform(0, 1, 20), imp=rng.uniform(5e3, 9e3, 20),
                     amp=rng.standard_normal(20), freq=rng.uniform(10, 60, 20))
            for w in "AB"
        ]
        path = tmp_path / "patterns.csv"
        write_patterns_csv(path, wells)
        again = read_patterns_csv(path)
        assert [w.well_id for w in again] == ["A", "B"]
        for w1, w2 in zip(wells, again):
            np.testing.assert_array_equal(w1.sf, w2.sf)
            np.testing.assert_array_equal(w1.imp, w2.imp)
            assert w2.dt_ms == pytest.approx(0.5)

    def test_bytes_match_per_row_format_and_values_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        special = [-0.0, 0.0, 5e-324, -1e-310, 1e300, -1e300, 3.0, -7.0, 6000.0]

        def column(n=40):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            values[:len(special)] = rng.permutation(special)
            return values

        names = ("imp", "amp", "freq", "sf")
        wells = [WellData(w, t0, 0.15, **{name: column() for name in names})
                 for w, t0 in (("A", 2208.0), ("B%d", -3.5))]
        path = tmp_path / "patterns.csv"
        write_patterns_csv(path, wells)
        expected = "well,time_ms,imp,amp,freq,sf\n" + "".join(
            f"{w.well_id},{t:.17g},{w.imp[k]:.17g},{w.amp[k]:.17g},"
            f"{w.freq[k]:.17g},{w.sf[k]:.17g}\n"
            for w in wells for k, t in enumerate(w.times_ms))
        assert path.read_bytes() == expected.encode()
        again = read_patterns_csv(path)
        assert [w.well_id for w in again] == ["A", "B%d"]
        for w1, w2 in zip(wells, again):
            assert w2.t0_ms == w1.t0_ms
            for name in names:
                np.testing.assert_array_equal(getattr(w2, name).view(np.int64),
                                              getattr(w1, name).view(np.int64))


class TestWorkflow:
    def test_structure_and_disjointness(self, bench_config_text):
        config = parse_config(bench_config_text,
                              {"method": "none", "max_iters": "60"})
        report, bundle, volumes = run_workflow(config)
        final = report.final
        assert set(final["validation"]) == set("ABCD")
        assert final["train"]["iterations"] <= 60
        assert volumes is None
        assert bundle.model.n_in == 3
        # every attempt carries the complete table set
        for attempt in report.attempts:
            assert set(attempt["tables"]) == set("ABCD")

    def test_retrain_loop_bounded_and_logged(self, bench_config_text):
        config = parse_config(bench_config_text, {
            "method": "ft", "max_iters": "40",
            "validation_cc_threshold": "0.999", "max_attempts": "3",
        })
        report, _, _ = run_workflow(config)
        assert len(report.attempts) == 3
        zetas = [a["method_params"]["zeta_max_hz"] for a in report.attempts]
        assert zetas[1] == pytest.approx(zetas[0] * 0.8)
        assert zetas[2] == pytest.approx(zetas[0] * 0.64)

    def test_rejected_tightening_keeps_completed_attempts(self, bench_config_text):
        settings = {"method": "ft", "zeta_max_hz": "5", "max_iters": "20",
                    "validation_cc_threshold": "0.999", "max_attempts": "3"}
        report, _, _ = run_workflow(parse_config(bench_config_text, settings))
        # 5 Hz leaves 3 bins; the tightened 4 Hz leaves 1 and is rejected
        assert [a["attempt"] for a in report.attempts] == [0]
        assert report.chosen_attempt == 0
        assert report.final["tightening_stopped"].startswith("attempt 1: ")
        assert "need >= 3" in report.final["tightening_stopped"]
        # a first attempt the engine rejects still fails the run
        with pytest.raises(BandTooNarrow):
            run_workflow(parse_config(bench_config_text,
                                      {**settings, "zeta_max_hz": "4"}))

    def test_overlap_checked_on_every_attempt(self, bench_config_text,
                                              monkeypatch):
        split_patterns = resample.split_patterns
        calls = []

        def overlapping_once(sizes, seed):
            train, test, validation = split_patterns(sizes, seed)
            calls.append(seed)
            if len(calls) == 1:
                # one training row also lands in validation
                validation = np.append(validation, train[0])
            return train, test, validation

        monkeypatch.setattr(resample, "split_patterns", overlapping_once)
        config = parse_config(bench_config_text, {
            "method": "ft", "max_iters": "20",
            "validation_cc_threshold": "0.999", "max_attempts": "2"})
        with pytest.raises(DataError, match="overlaps"):
            run_workflow(config)

    def test_no_tightening_for_none(self, bench_config_text):
        config = parse_config(bench_config_text, {
            "method": "none", "max_iters": "40",
            "validation_cc_threshold": "0.999", "max_attempts": "3",
        })
        report, _, _ = run_workflow(config)
        assert len(report.attempts) == 1

    def test_report_json_roundtrip(self, bench_config_text):
        config = parse_config(bench_config_text,
                              {"method": "none", "max_iters": "40"})
        report, _, _ = run_workflow(config)
        data = json.loads(report.to_json())
        again = RunReport(config_text=data["config"], attempts=data["attempts"],
                          chosen_attempt=data["chosen_attempt"],
                          model=data["model"])
        assert report_tables(again) == report_tables(report)


def fake_report(cc=1.0, rmse=0.0, aem=0.0, si=0.0):
    wells = {"A": {"cc": cc, "rmse": rmse, "aem": aem, "si": si}}
    pooled = dict(wells["A"])
    good = (not math.isnan(cc) and cc > 0.80 and rmse < 0.15 and aem < 0.15
            and not math.isnan(si) and si < 0.35)
    attempt = {
        "method_params": {"method": "ft"},
        "tables": {"A": {"entropy_bits": {"original_sf": 1.0},
                         "nmi": {"impedance": {"original": 0.1,
                                               "regularized": 0.2}}}},
        "train": {"iterations": 1, "final_loss": 0.0, "stop_reason": "test"},
        "test": pooled, "validation": wells, "validation_pooled": pooled,
        "good_fit": {"A": good},
    }
    return RunReport(config_text="", attempts=[attempt], chosen_attempt=0)


class TestReportTables:
    def test_perfect_predictions_all_pass(self):
        text = report_tables(fake_report())
        assert "A  1.0000  0.0000  0.0000  0.0000  pass" in text

    def test_undefined_cc_is_failure(self):
        text = report_tables(fake_report(cc=math.nan))
        assert "FAIL" in text and "nan" in text

    def test_csv_format(self):
        csv = report_tables(fake_report(), fmt="csv")
        assert "well,cc,rmse,aem,si,verdict" in csv
