import itertools
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seisreg import cli, pipeline, resample, synthbench
from seisreg.errors import ConfigError, DataError
from seisreg.formats.svol import read_svol, write_svol
from seisreg.formats.volume import ATTRIBUTE_LONG_NAMES, SeismicVolume
from seisreg.pipeline import (
    METHODS,
    PARAMS,
    RunConfig,
    WellConfig,
    WellData,
    moving_average_baseline,
    open_attributes,
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
        with pytest.raises(ConfigError, match="span 7 exceeds series length 5"):
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

    @pytest.mark.parametrize("value", [",", "1,,2", "1,", ",1", "1, ,2"])
    def test_empty_list_item_is_config_error(self, value):
        with pytest.raises(ConfigError, match="truncate"):
            parse_config("", {"truncate": value})

    def test_empty_list_is_set_not_default(self):
        assert parse_config("truncate =").truncate_details == []
        assert parse_config("").truncate_details is None

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("True", True), ("YES", True),
        ("0", False), ("false", False), ("False", False), ("No", False)])
    def test_bool_spellings(self, value, expected):
        # render_config writes True/False, which must parse back
        assert parse_config("", {"predict": value,
                                 "outdir": "out"}).predict is expected

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


def _whole_file_reader(path) -> list:
    """read_patterns_csv as it was before it read in chunks: the whole body
    at once, one np.loadtxt over every row, and a nan or inf cell rejects
    its row.  The chunked reader must give the same wells, or the same
    error, on any file."""
    def parse(rows):
        table = np.loadtxt(rows, delimiter=",", usecols=(1, 2, 3, 4, 5),
                           comments=None, ndmin=2)
        if not np.isfinite(table).all():
            raise ValueError("non-finite cell")
        return table

    def bad_row(lines):
        for lineno, line in enumerate(lines, 2):
            line = line.strip()
            if not line:
                continue
            try:
                if line.count(",") != 5:
                    raise ValueError
                parse([line])
            except ValueError:
                return DataError(f"{path}:{lineno}: expected a well id and five "
                                 f"numbers, got {line!r}")
        return DataError(f"{path}: expected a well id and five numbers per row")

    with open(path) as fh:
        header = fh.readline().strip()
        if header != "well,time_ms,imp,amp,freq,sf":
            raise DataError(f"unexpected pattern CSV header: {header!r}")
        body = fh.read()
    lines = body.split("\n")
    rows = [row for row in map(str.strip, lines) if row]
    if not rows:
        raise DataError(f"{path}: no pattern rows after the header")
    try:
        table = parse(rows)
    except ValueError:
        raise bad_row(lines) from None
    if body.count(",") != 5 * len(rows):
        raise bad_row(lines)
    by_well = {}
    start = 0
    for well_id, run in itertools.groupby(row[:row.index(",")] for row in rows):
        stop = start + len(list(run))
        by_well.setdefault(well_id, []).append(np.arange(start, stop))
        start = stop
    wells = []
    for well_id, runs in by_well.items():
        arr = table[np.concatenate(runs)]
        times = arr[:, 0]
        steps = np.diff(times)
        if len(steps) == 0:
            raise DataError(f"well {well_id}: need at least 2 rows")
        dt = float(np.median(steps))
        if not np.allclose(steps, dt, rtol=0, atol=1e-6 * dt):
            raise DataError(f"well {well_id}: time column is not uniform")
        wells.append(WellData(
            well_id=well_id, t0_ms=float(times[0]), dt_ms=dt,
            sf=arr[:, 4], attrs=arr[:, 1:4]))
    return wells


def _read_or_error(read, path):
    """The wells `read` gives for path, or the text of its DataError."""
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


HEADER = "well,time_ms,imp,amp,freq,sf\n"
# one kind of line each: kept rows, skipped lines and rejected rows
LINE_KINDS = {
    "good": "{well},{t!r},1.5,-2.25,30.0,0.5",
    "blank": "",
    "spaces": "  \t ",
    "short": "{well},{t!r},1.0,2.0,3.0",
    "seven": "{well},{t!r},1.0,2.0,3.0,0.5,0.5",
    "text": "{well},{t!r},1.0,two,3.0,0.5",
    "nan": "{well},{t!r},1.0,2.0,nan,0.5",
    "inf": "{well},{t!r},1.0,2.0,3.0,-inf",
}
# mostly good rows, so that some drawn files hold a whole pattern set
DRAWN_KINDS = ["good"] * 25 + sorted(set(LINE_KINDS) - {"good"})


def _pattern_lines(kinds):
    """One line per kind; each well's rows advance its own clock by 0.5."""
    clock = {}
    lines = []
    for well, kind in kinds:
        t = clock.get(well, 100.0)
        if kind not in ("blank", "spaces"):
            clock[well] = t + 0.5
        lines.append(LINE_KINDS[kind].format(well=well, t=t))
    return lines


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of three lines, so that every rule of the pattern reader
    meets a chunk edge."""
    monkeypatch.setattr(pipeline, "PATTERN_CHUNK_LINES", 3)


class TestPatternsCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        wells = [
            WellData(well_id=w, t0_ms=100.0, dt_ms=0.5,
                     sf=rng.uniform(0, 1, 20),
                     attrs=np.column_stack([rng.uniform(5e3, 9e3, 20),
                                            rng.standard_normal(20),
                                            rng.uniform(10, 60, 20)]))
            for w in "AB"
        ]
        path = tmp_path / "patterns.csv"
        write_patterns_csv(path, wells)
        again = read_patterns_csv(path)
        assert [w.well_id for w in again] == ["A", "B"]
        for w1, w2 in zip(wells, again):
            np.testing.assert_array_equal(w1.sf, w2.sf)
            np.testing.assert_array_equal(w1.attrs, w2.attrs)
            assert w2.dt_ms == pytest.approx(0.5)

    def test_bytes_match_per_row_format_and_values_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        special = [-0.0, 0.0, 5e-324, -1e-310, 1e300, -1e300, 3.0, -7.0, 6000.0]

        def column(n=40):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            values[:len(special)] = rng.permutation(special)
            return values

        wells = [WellData(w, t0, 0.15, sf=column(),
                          attrs=np.column_stack([column() for _ in range(3)]))
                 for w, t0 in (("A", 2208.0), ("B%d", -3.5))]
        path = tmp_path / "patterns.csv"
        write_patterns_csv(path, wells)
        expected = "well,time_ms,imp,amp,freq,sf\n" + "".join(
            f"{w.well_id},{t:.17g},{w.attrs[k, 0]:.17g},{w.attrs[k, 1]:.17g},"
            f"{w.attrs[k, 2]:.17g},{w.sf[k]:.17g}\n"
            for w in wells for k, t in enumerate(w.times_ms))
        assert path.read_bytes() == expected.encode()
        again = read_patterns_csv(path)
        assert [w.well_id for w in again] == ["A", "B%d"]
        for w1, w2 in zip(wells, again):
            assert w2.t0_ms == w1.t0_ms
            for name in ("sf", "attrs"):
                np.testing.assert_array_equal(getattr(w2, name).view(np.int64),
                                              getattr(w1, name).view(np.int64))

    @pytest.mark.usefixtures("small_chunks")
    def test_multi_chunk_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        wells = [WellData(w, 100.0 + k, 0.5, rng.standard_normal(11),
                          rng.standard_normal((11, 3)))
                 for k, w in enumerate("AB")]
        path = tmp_path / "patterns.csv"
        write_patterns_csv(path, wells)
        again = read_patterns_csv(path)
        assert [w.well_id for w in again] == ["A", "B"]
        for w1, w2 in zip(wells, again):
            assert (w2.t0_ms, w2.dt_ms) == (w1.t0_ms, w1.dt_ms)
            for name in ("sf", "attrs"):
                np.testing.assert_array_equal(getattr(w2, name),
                                              getattr(w1, name))

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("kind", ["short", "seven", "text", "nan", "inf"])
    def test_bad_row_in_a_later_chunk_names_its_line(self, tmp_path, kind):
        lines = _pattern_lines([("A", "good")] * 7 + [("A", kind)]
                               + [("A", "good")] * 2)
        path = tmp_path / "later.csv"
        path.write_text(HEADER + "\n".join(lines) + "\n")
        # the header is line 1, so the eighth row is line 9
        with pytest.raises(DataError) as raised:
            read_patterns_csv(path)
        assert str(raised.value).startswith(f"{path}:9: expected a well id")

    @pytest.mark.usefixtures("small_chunks")
    def test_blank_lines_across_a_chunk_edge_are_skipped(self, tmp_path):
        # the second chunk of three lines holds no row at all
        kinds = [("A", "good"), ("A", "good"), ("A", "blank"), ("A", "spaces"),
                 ("A", "blank"), ("A", "spaces"), ("A", "good"), ("A", "spaces"),
                 ("A", "good")]
        path = tmp_path / "blanks.csv"
        path.write_text(HEADER + "\n".join(_pattern_lines(kinds)) + "\n")
        [well] = read_patterns_csv(path)
        assert (well.t0_ms, well.dt_ms) == (100.0, 0.5)
        np.testing.assert_array_equal(well.sf, [0.5] * 4)

    @pytest.mark.usefixtures("small_chunks")
    def test_header_only_is_3(self, tmp_path, capsys):
        path = tmp_path / "header_only.csv"
        path.write_text(HEADER + "\n \n\n\n\n")
        assert cli.main(["metrics", str(path)]) == 3
        assert f"{path}: no pattern rows after the header" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.tuples(st.sampled_from("AB"),
                                    st.sampled_from(DRAWN_KINDS)),
                          max_size=16),
           chunk=st.integers(1, 5),
           newline=st.booleans())
    def test_matches_whole_file_reader(self, kinds, chunk, newline):
        text = HEADER + "\n".join(_pattern_lines(kinds)) + "\n" * newline
        with tempfile.TemporaryDirectory() as folder, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "PATTERN_CHUNK_LINES", chunk)
            path = pathlib.Path(folder) / "mixed.csv"
            path.write_text(text)
            got = _read_or_error(read_patterns_csv, path)
            want = _read_or_error(_whole_file_reader, path)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
            return
        assert [w.well_id for w in got] == [w.well_id for w in want]
        for w1, w2 in zip(got, want):
            assert (w1.t0_ms, w1.dt_ms) == (w2.t0_ms, w2.dt_ms)
            for name in ("sf", "attrs"):
                np.testing.assert_array_equal(getattr(w1, name),
                                              getattr(w2, name))


class TestOpenAttributes:
    """The one gate of the model's inputs: it opens the volumes, then checks
    their count, each name against its position, then their geometry."""

    def _paths(self, folder, names, t0s=(0.0, 0.0, 0.0)):
        paths = []
        for k, (name, t0) in enumerate(zip(names, t0s)):
            path = pathlib.Path(folder) / f"{k}_{name or 'unnamed'}.svol"
            write_svol(path, SeismicVolume(
                inlines=[1, 2], xlines=[1], t0_ms=t0, dt_ms=2.0,
                data=np.full((2, 1, 3), 1.0 + k), attribute_name=name))
            paths.append(path)
        return paths

    def test_unnamed_volumes_bind_by_position(self, tmp_path):
        # convert --segy leaves attribute_name empty unless --attribute is
        # set; either spelling of a name binds too
        for names in (("", "", ""), ("impedance", "amp", "")):
            with open_attributes(self._paths(tmp_path, names)) as volumes:
                assert [v.attribute_name for v in volumes] == list(names)
                assert [v.read(0, 1)[0][0] for v in volumes] == [1.0, 2.0, 3.0]

    def test_geometry_mismatch(self, tmp_path):
        paths = self._paths(tmp_path, ("imp", "amp", "freq"), (0.0, 2.0, 0.0))
        with pytest.raises(DataError, match="^amp volume geometry differs from imp$"):
            with open_attributes(paths):
                pass

    def test_misnamed_volume_rejected(self, tmp_path):
        # amp in the impedance position would feed amplitude to that input;
        # names are checked before geometry
        paths = self._paths(tmp_path, ("amp", "imp", "freq"), (0.0, 2.0, 0.0))
        with pytest.raises(ConfigError, match="attribute volume 1 is 'amp'; the "
                                              "model expects 'imp' there"):
            with open_attributes(paths):
                pass
        # the order a model names is the one checked
        with open_attributes(paths[:1] + paths[2:], ["amp", "freq"]) as volumes:
            assert len(volumes) == 2

    def test_count_mismatch(self, tmp_path):
        paths = self._paths(tmp_path, ("imp", "amp"))
        with pytest.raises(DataError, match="model expects 3 attribute volumes, got 2"):
            with open_attributes(paths):
                pass


class TestPrepareWell:
    def test_one_sinc_call_per_well_on_the_attribute_block(
            self, bench_config_text, monkeypatch):
        config = parse_config(bench_config_text)
        volumes = [read_svol(getattr(config, f"vol_{name}"))
                   for name in ATTRIBUTE_LONG_NAMES]
        sinc = resample.sinc_resample
        shapes = []

        def counted(trace, *args):
            shapes.append(trace.values.shape)
            return sinc(trace, *args)

        monkeypatch.setattr(resample, "sinc_resample", counted)
        for wc in config.wells:
            well = pipeline.prepare_well(wc, volumes, config.dt_ms)
            assert well.attrs.shape == (len(well.sf), 3)
        n_src = volumes[0].n_samples
        assert shapes == [(n_src, 3)] * len(config.wells)


class TestWorkflow:
    def test_structure_and_disjointness(self, bench_config_text):
        config = parse_config(bench_config_text,
                              {"method": "none", "max_iters": "60"})
        report, bundle = run_workflow(config)
        final = report.final
        assert set(final["validation"]) == set("ABCD")
        assert final["train"]["iterations"] <= 60
        assert bundle.model.n_in == 3
        # every attempt carries the complete table set
        for attempt in report.attempts:
            assert set(attempt["tables"]) == set("ABCD")

    def test_retrain_loop_bounded_and_logged(self, bench_config_text):
        config = parse_config(bench_config_text, {
            "method": "ft", "max_iters": "40",
            "validation_cc_threshold": "0.999", "max_attempts": "3",
        })
        report, _ = run_workflow(config)
        assert len(report.attempts) == 3
        zetas = [a["method_params"]["zeta_max_hz"] for a in report.attempts]
        assert zetas[1] == pytest.approx(zetas[0] * 0.8)
        assert zetas[2] == pytest.approx(zetas[0] * 0.64)

    @pytest.mark.parametrize("settings", [{}, {"truncate": ""}])
    def test_reported_truncation_is_the_engines(self, bench_config_text, settings):
        # the second attempt checks the list _tighten_wd started from
        config = parse_config(bench_config_text, {
            "method": "wd", "max_iters": "20", "validation_cc_threshold": "0.999",
            "max_attempts": "2", **settings})
        report, _ = run_workflow(config)
        assert len(report.attempts) == 2
        for attempt in report.attempts:
            for detail in attempt["regularization"].values():
                assert attempt["method_params"]["truncate"] == detail["truncated"]
        first = report.attempts[0]["method_params"]["truncate"]
        assert first == ([] if settings else [1, 2, 3, 4, 5])

    def test_rejected_tightening_keeps_completed_attempts(self, bench_config_text):
        settings = {"method": "ft", "zeta_max_hz": "5", "max_iters": "20",
                    "validation_cc_threshold": "0.999", "max_attempts": "3"}
        report, _ = run_workflow(parse_config(bench_config_text, settings))
        # 5 Hz leaves 3 bins; the tightened 4 Hz leaves 1 and is rejected
        assert [a["attempt"] for a in report.attempts] == [0]
        assert report.chosen_attempt == 0
        assert report.final["tightening_stopped"].startswith("attempt 1: ")
        assert "need >= 3" in report.final["tightening_stopped"]
        # a first attempt the engine rejects still fails the run
        with pytest.raises(DataError, match=r"bin\(s\) inside 4.0 Hz; need >= 3"):
            run_workflow(parse_config(bench_config_text,
                                      {**settings, "zeta_max_hz": "4"}))

    def test_emd_retries_stop_at_a_wells_imf_count(self, bench_config_text):
        settings = {"method": "emd", "max_iters": "20",
                    "validation_cc_threshold": "0.999", "max_attempts": "14"}
        report, _ = run_workflow(parse_config(bench_config_text, settings))
        # every attempt suppresses one more IMF in every well, as reported
        for k, attempt in enumerate(report.attempts):
            assert attempt["method_params"]["p1"] == k + 1
            assert {d["p1"] for d in attempt["regularization"].values()} == {k + 1}
        # the schedule ends when a well has no IMF left to suppress
        fewest = min(d["imf_count"]
                     for d in report.final["regularization"].values())
        assert len(report.attempts) == fewest - 1
        assert report.final["tightening_stopped"].startswith(
            f"attempt {fewest - 1}: p1={fewest} outside 1..")
        # a first attempt beyond a well's IMFs fails the run
        with pytest.raises(ConfigError, match=f"p1={fewest} outside 1.."):
            run_workflow(parse_config(bench_config_text,
                                      {**settings, "p1": str(fewest)}))

    def test_tables_hold_the_reports_entropies(self, workflow_reports):
        # the tables score every attribute column themselves; the amplitude
        # column is the predictor the report scored, so the bits agree
        amplitude = ATTRIBUTE_LONG_NAMES["amp"]
        for method, report in workflow_reports.items():
            final = report.final
            for well_id, tables in final["tables"].items():
                h = tables["entropy_bits"]
                rep = final["regularization"][well_id]
                assert h[amplitude] == rep["entropy_predictor"], (method, well_id)
                assert h["original_sf"] == rep["entropy_original"]
                assert h["regularized_sf"] == rep["entropy_regularized"]

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
        report, _ = run_workflow(config)
        assert len(report.attempts) == 1

    def test_report_json_roundtrip(self, bench_config_text):
        config = parse_config(bench_config_text,
                              {"method": "none", "max_iters": "40"})
        report, _ = run_workflow(config)
        data = json.loads(report.to_json())
        assert data["chosen_attempt"] == report.chosen_attempt
        again = data["attempts"][data["chosen_attempt"]]
        assert report_tables(again) == report_tables(report.final)


def fake_attempt(cc=1.0, rmse=0.0, aem=0.0, si=0.0):
    wells = {"A": {"cc": cc, "rmse": rmse, "aem": aem, "si": si}}
    pooled = dict(wells["A"])
    good = (not math.isnan(cc) and cc > 0.80 and rmse < 0.15 and aem < 0.15
            and not math.isnan(si) and si < 0.35)
    return {
        "method_params": {"method": "ft"},
        "tables": {"A": {"entropy_bits": {"original_sf": 1.0},
                         "nmi": {"impedance": {"original": 0.1,
                                               "regularized": 0.2}}}},
        "train": {"iterations": 1, "final_loss": 0.0, "stop_reason": "test"},
        "test": pooled, "validation": wells, "validation_pooled": pooled,
        "good_fit": {"A": good},
    }


class TestReportTables:
    def test_perfect_predictions_all_pass(self):
        text = report_tables(fake_attempt())
        assert "A  1.0000  0.0000  0.0000  0.0000  pass" in text

    def test_undefined_cc_is_failure(self):
        text = report_tables(fake_attempt(cc=math.nan))
        assert "FAIL" in text and "nan" in text

    def test_csv_format(self):
        csv = report_tables(fake_attempt(), fmt="csv")
        assert "well,cc,rmse,aem,si,verdict" in csv
