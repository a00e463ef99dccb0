import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from seisreg import cli, emdreg, metrics, mlp, pipeline, synthbench
from seisreg.errors import DataError
from seisreg.formats import svol, volume
from seisreg.formats.segy import TraceLayout
from seisreg.formats.las import parse_las, write_las
from seisreg.formats.svol import open_svol, read_svol, write_svol
from seisreg.formats.volume import SeismicVolume
from seisreg.resample import MinMaxStats, ZscoreStats
from seisreg.synthbench import SynthFieldParams
from test_formats import make_segy


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestExitCodes:
    def test_config_error_is_2(self, workdir):
        # --vol needs exactly three paths
        assert run("predict", "--model", workdir / "nope.json",
                   "--vol", "a.svol", "--out", workdir / "x.svol") == 2

    def test_swapped_volume_order_is_2(self, workdir, bench):
        # the bench volumes carry their attribute names; amp before imp
        # would feed amplitude to the impedance input
        model = workdir / "untrained.json"
        mlp.save_model(model, mlp.ModelBundle(
            model=mlp.init_model(3, 2, seed=0),
            input_stats=ZscoreStats(mean=np.zeros(3), std=np.ones(3)),
            target_stats=MinMaxStats(data_min=0.0, data_max=1.0), seed=0))
        vols = ",".join(str(bench / f"{n}.svol") for n in ("amp", "imp", "freq"))
        assert run("predict", "--model", model, "--vol", vols,
                   "--out", workdir / "swapped.svol") == 2
        assert not (workdir / "swapped.svol").exists()

    SWAPPED = ("config error: attribute volume 1 is 'amplitude'; the model "
               "expects 'imp' there (order imp,amp,freq)\n")

    def test_swapped_prep_volumes_are_2(self, workdir, bench, capsys):
        # refused when the volumes are opened, before any well is read
        out = workdir / "swapped.csv"
        assert run("prep", "--imp", bench / "amp.svol", "--amp", bench / "imp.svol",
                   "--freq", bench / "freq.svol", "--out", out,
                   "--well", f"A:{bench}/well_A.las:{bench}/vel_A.csv") == 2
        assert not out.exists()
        assert capsys.readouterr().err == self.SWAPPED

    @pytest.mark.parametrize("predict", ["false", "true"])
    def test_swapped_run_volumes_are_2_before_training(self, workdir, bench,
                                                       predict, capsys,
                                                       monkeypatch):
        trained = []
        monkeypatch.setattr(mlp, "scg_train", lambda *args: trained.append(args))
        cfg = workdir / "swapped.cfg"
        cfg.write_text(synthbench.config_text(bench).replace("vol.imp", "vol.x")
                       .replace("vol.amp", "vol.imp").replace("vol.x", "vol.amp"))
        outdir = workdir / f"swapped_predict_{predict}"
        assert run("run", "--config", cfg, "--set", f"predict={predict}",
                   "--set", "max_iters=20", "--set", f"outdir={outdir}") == 2
        assert not outdir.exists()
        assert not trained
        assert capsys.readouterr().err == self.SWAPPED

    def test_data_error_is_3(self, workdir):
        bad = workdir / "bad.sgy"
        bad.write_bytes(b"too short")
        assert run("convert", "--segy", bad, "--out", workdir / "x.svol") == 3

    def test_missing_file_is_3(self, workdir):
        assert run("filter", "--in", workdir / "missing.svol",
                   "--out", workdir / "y.svol") == 3

    def test_bad_numeric_flag_is_2(self, workdir, patterns):
        assert run("regularize", patterns, "--method", "wd", "--truncate", "1,a",
                   "--out", workdir / "x.csv", "--report", workdir / "x.json") == 2

    @pytest.mark.parametrize("bins", [0, -3, 1])
    def test_too_few_bins_is_2(self, patterns, bins, capsys):
        assert run("metrics", patterns, "--bins", bins) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--seed", "--split-seed"])
    def test_negative_train_seed_is_2(self, workdir, patterns, flag):
        assert run("train", patterns, flag, -1, "--out", workdir / "m.json") == 2

    def test_negative_synth_seed_is_2(self, workdir):
        assert run("synth", "--seed", -1, "--out", workdir / "neg") == 2

    @pytest.mark.parametrize("flag,value", [
        ("--samples", 4), ("--samples", 16), ("--samples", 60),
        ("--noise", "nan"), ("--noise", "inf"),
        ("--wavelet-freq", "nan"), ("--wavelet-freq", 0),
        ("--wavelet-freq", "inf"),
    ])
    def test_bad_synth_flag_is_2(self, workdir, flag, value):
        out = workdir / f"synth{flag}{value}"
        assert run("synth", "--seed", 7, flag, value, "--out", out) == 2
        assert not out.exists()

    def test_bad_emd_dump_sd_is_2(self, workdir, patterns):
        out = workdir / "emd_bad_sd"
        assert run("emd-dump", patterns, "--sd", 5, "--out", out) == 2
        assert not out.exists()

    def test_negative_run_seed_is_2(self, workdir, bench):
        cfg = workdir / "neg_seed.cfg"
        cfg.write_text(synthbench.config_text(bench))
        assert run("run", "--config", cfg, "--set", "train_seed=-1") == 2

    @pytest.mark.parametrize("setting", ["dt_ms=nan", "zeta_max_hz=nan"])
    def test_nan_run_setting_is_2(self, workdir, bench, setting):
        cfg = workdir / "nan.cfg"
        cfg.write_text(synthbench.config_text(bench))
        assert run("run", "--config", cfg, "--set", "method=ft",
                   "--set", setting) == 2

    @pytest.mark.parametrize("setting", [
        "filter_window=2", "filter_window=0", "filter_window=-1",
        "target_loss=nan", "validation_cc_threshold=nan",
        "dt_ms=inf", "dt_ms=-inf",
        "sigma=2e-4", "lambda1=0", "max_iters=-1", "hidden=0", "mi_bins=1",
        "wavelet=sym5", "wd_levels=0", "truncate=9", "p1=0", "avg_span=4",
        "sd_threshold=5", "zeta_max_hz=-1", "predict=true"])
    def test_bad_run_setting_is_2_before_reading_inputs(self, workdir, setting):
        # the inputs do not exist: reading any of them would exit 3.  Every
        # case but predict=true alone runs with predict and its outdir set.
        missing = workdir / "missing"
        cfg = workdir / "bad_setting.cfg"
        cfg.write_text(synthbench.config_text(missing))
        predict = [] if setting == "predict=true" else [
            "--set", "predict=true", "--set", f"outdir={missing / 'out'}"]
        assert run("run", "--config", cfg, *predict, "--set", setting) == 2

    @pytest.mark.parametrize("dt", ["nan", "inf", "0", "-1"])
    def test_bad_prep_dt_is_2(self, workdir, bench, capsys, dt):
        out = workdir / f"dt_{dt}.csv"
        assert run("prep", "--imp", bench / "imp.svol", "--amp", bench / "amp.svol",
                   "--freq", bench / "freq.svol",
                   "--well", f"A:{bench}/well_A.las:{bench}/vel_A.csv",
                   "--dt", dt, "--out", out) == 2
        assert "config error: dt_ms must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["prep", "--imp", "imp.svol", "--amp", "amp.svol", "--freq", "freq.svol",
         "--well", "A:a.las:a.csv", "--well", "A:b.las:b.csv", "--out", "OUT"],
        ["filter", "--in", "in.svol", "--window", "2", "--out", "OUT"],
        ["metrics", "p.csv", "--bins", "1"],
        ["train", "p.csv", "--hidden", "0", "--out", "OUT"],
        ["train", "p.csv", "--max-iters", "-1", "--out", "OUT"],
        ["convert", "--segy", "in.sgy", "--inline-byte", "999", "--out", "OUT"],
        ["convert", "--segy", "in.sgy", "--xline-byte", "0", "--out", "OUT"],
        ["regularize", "p.csv", "--method", "ft", "--zeta-max", "inf",
         "--out", "OUT", "--report", "OUT"],
    ], ids=["prep-well", "filter-window", "metrics-bins", "train-hidden",
            "train-max-iters", "convert-inline-byte", "convert-xline-byte",
            "regularize-zeta-max"])
    def test_bad_flag_is_2_before_reading_inputs(self, tmp_path, capsys, argv):
        # no input exists: opening any of them would exit 3 with an io error
        out = tmp_path / "out"
        argv = [str(out) if a == "OUT" else a for a in argv]
        argv = [str(tmp_path / a) if a.endswith((".svol", ".csv", ".sgy")) else a
                for a in argv]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert captured.out == ""
        assert not out.exists()

    def test_out_of_memory_is_3(self, patterns, capsys, monkeypatch):
        # a stand-in for numpy refusing a huge array; a real one of that
        # size could succeed under overcommit and then touch its pages
        def refuse(*args):
            raise MemoryError("Unable to allocate 71.1 PiB for an array")
        monkeypatch.setattr(cli.metrics, "nmi", refuse)
        assert run("metrics", patterns, "--bins", 100000000) == 3
        assert capsys.readouterr().err == (
            "out of memory: Unable to allocate 71.1 PiB for an array\n")

    @pytest.mark.parametrize("name, text", [
        ("short_row.csv", "A,0.0,1.0,2.0,3.0"),
        ("text_cell.csv", "A,0.0,1.0,two,3.0,0.5"),
        ("long_row.csv", "A,0.0,1.0,2.0,3.0,0.5,0.5"),
        ("blank_then_bad.csv", "A,0.0,1.0,2.0,3.0,0.5\n\nA,0.15,1.0,2.0,3.0")])
    def test_malformed_patterns_is_3(self, workdir, capsys, name, text):
        # the bad row is the last line of `text`; the header is line 1
        path = workdir / name
        path.write_text(f"well,time_ms,imp,amp,freq,sf\n{text}\n")
        assert run("metrics", path) == 3
        assert f"{path}:{2 + text.count(chr(10))}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "metrics", "regularize"])
    def test_header_only_patterns_is_3(self, workdir, capsys, command):
        # a header and no pattern rows is no pattern set, for every consumer
        path = workdir / "header_only.csv"
        path.write_text("well,time_ms,imp,amp,freq,sf\n\n")
        outputs = {"train": ["--out", workdir / "unused.json"],
                   "metrics": [],
                   "regularize": ["--method", "ft", "--out", workdir / "unused.csv",
                                  "--report", workdir / "unused_report.json"]}
        assert run(command, path, *outputs[command]) == 3
        assert str(path) in capsys.readouterr().err

    def test_malformed_velocity_is_3(self, workdir, bench):
        vel = workdir / "three_columns.csv"
        vel.write_text("depth_m,time_ms\n1,2,3\n")
        assert run("prep", "--imp", bench / "imp.svol", "--amp", bench / "amp.svol",
                   "--freq", bench / "freq.svol",
                   "--well", f"A:{bench}/well_A.las:{vel}",
                   "--out", workdir / "unused.csv") == 3

    @pytest.mark.parametrize("text", ["{not json", "{}"])
    def test_malformed_model_is_3(self, workdir, bench, text):
        model = workdir / "malformed_model.json"
        model.write_text(text)
        vols = ",".join(str(bench / f"{n}.svol") for n in ("imp", "amp", "freq"))
        assert run("predict", "--model", model, "--vol", vols,
                   "--out", workdir / "unused.svol") == 3

    def test_malformed_report_is_3(self, workdir):
        report = workdir / "malformed_report.json"
        for text in ("{}", "[]", '{"attempts": [], "chosen_attempt": 0}',
                     '{"attempts": [{}], "chosen_attempt": 0}'):
            report.write_text(text)
            assert run("report", report) == 3, text

    def test_model_stats_width_mismatch_is_3(self, workdir, patterns, bench):
        model = workdir / "narrow_stats.json"
        assert run("train", patterns, "--max-iters", 20, "--out", model) == 0
        bundle = json.loads(model.read_text())
        assert bundle["layer_sizes"][0] == 3
        bundle["input_stats"]["mean"] = bundle["input_stats"]["mean"][:2]
        model.write_text(json.dumps(bundle))
        vols = ",".join(str(bench / f"{n}.svol") for n in ("imp", "amp", "freq"))
        assert run("predict", "--model", model, "--vol", vols,
                   "--out", workdir / "unused.svol") == 3

    NON_FINITE = "model weights and stats must be finite, with every input std > 0"

    @pytest.mark.parametrize("keys, value, message", [
        (("weights", 0), float("nan"), NON_FINITE),
        (("input_stats", "mean", 1), float("inf"), NON_FINITE),
        (("input_stats", "std", 2), 0.0, NON_FINITE),
        (("target_stats", "data_min"), "x", "not a model file (ValueError"),
        (("target_stats", "data_min"), 1e9, NON_FINITE),
        (("target_stats", "hi"), 0.1, NON_FINITE),
    ], ids=["nan_weight", "inf_mean", "zero_std", "text_data_min",
            "data_min_above_max", "hi_at_lo"])
    def test_bad_model_stats_are_3_before_any_volume_is_read(
            self, workdir, patterns, bench, keys, value, message, capsys,
            monkeypatch):
        model = workdir / "bad_stats.json"
        assert run("train", patterns, "--max-iters", 20, "--out", model) == 0
        bundle = json.loads(model.read_text())
        *path, last = keys
        node = bundle
        for key in path:
            node = node[key]
        node[last] = value
        model.write_text(json.dumps(bundle))
        opened = []
        monkeypatch.setattr(pipeline, "open_svol", opened.append)
        out = workdir / "bad_stats.svol"
        vols = ",".join(str(bench / f"{n}.svol") for n in ("imp", "amp", "freq"))
        capsys.readouterr()
        assert run("predict", "--model", model, "--vol", vols, "--out", out) == 3
        assert message in capsys.readouterr().err
        assert not opened
        assert not out.exists()

    @pytest.mark.parametrize("names", [["imp"], [1, 2, 3]])
    def test_bad_model_attribute_names_is_3(self, workdir, patterns, bench,
                                            names, capsys):
        # with amp and freq swapped, only a check of every name against the
        # layer width can stop the sweep
        model = workdir / "bad_names.json"
        assert run("train", patterns, "--max-iters", 20, "--out", model) == 0
        bundle = json.loads(model.read_text())
        bundle["attribute_names"] = names
        model.write_text(json.dumps(bundle))
        out = workdir / "bad_names.svol"
        vols = ",".join(str(bench / f"{n}.svol") for n in ("imp", "freq", "amp"))
        capsys.readouterr()
        assert run("predict", "--model", model, "--vol", vols, "--out", out) == 3
        assert "attribute_names must be a list of 3 strings" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_pattern_cell_is_3(self, workdir, patterns, cell, capsys):
        lines = patterns.read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = cell
        lines[5] = ",".join(cells)
        path = workdir / f"{cell}_cell.csv"
        path.write_text("\n".join(lines) + "\n")
        out = workdir / "non_finite_model.json"
        assert run("train", path, "--out", out) == 3
        assert f"{path}:6: expected a well id and five numbers" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kept, on_grid", [([], 0), ([100], 1),
                                               ([100, 101], 1)])
    def test_sf_log_without_two_samples_is_3(self, workdir, bench, kept, on_grid,
                                             capsys):
        # an all-NULL SF curve, one with a single valid sample, and one whose
        # two valid samples, one depth step apart, are closer than one dt
        log = parse_las((bench / "well_A.las").read_text())
        sf = log.rows[:, 1].copy()
        log.rows[:, 1] = np.nan
        log.rows[kept, 1] = sf[kept]
        las = workdir / f"sf_{len(kept)}_samples.las"
        las.write_text(write_las(log))
        out = workdir / "short_sf.csv"
        assert run("prep", *_prep_volumes(bench), "--out", out,
                   "--well", f"A:{las}:{bench}/vel_A.csv") == 3
        cfg = workdir / "short_sf.cfg"
        cfg.write_text(synthbench.config_text(bench).replace(
            str(bench / "well_A.las"), str(las)))
        assert run("run", "--config", cfg) == 3
        err = capsys.readouterr().err
        assert err.count("well A: need at least 2 SF samples on the 0.15 ms grid, "
                         f"got {on_grid}") == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "12.7", "five"])
    def test_las_position_not_a_whole_number_is_3(self, workdir, bench, value,
                                                  capsys):
        log = parse_las((bench / "well_A.las").read_text())
        log.well_meta["ILIN"] = (value, "")
        las = workdir / f"ilin_{value}.las"
        las.write_text(write_las(log))
        out = workdir / "bad_ilin.csv"
        assert run("prep", *_prep_volumes(bench), "--out", out,
                   "--well", f"A:{las}:{bench}/vel_A.csv") == 3
        assert not out.exists()
        cfg = workdir / "bad_ilin.cfg"
        cfg.write_text(synthbench.config_text(bench).replace(
            str(bench / "well_A.las"), str(las)))
        assert run("run", "--config", cfg) == 3
        assert capsys.readouterr().err.count(
            "well A: LAS ~W ILIN must be a whole number") == 2

    @pytest.mark.parametrize("value", [None, ""])
    def test_las_position_absent_or_blank_is_2(self, workdir, bench, value,
                                               capsys):
        log = parse_las((bench / "well_A.las").read_text())
        if value is None:
            del log.well_meta["ILIN"]
        else:
            log.well_meta["ILIN"] = (value, "")
        las = workdir / f"ilin_{value!r}.las"
        las.write_text(write_las(log))
        out = workdir / "no_ilin.csv"
        assert run("prep", *_prep_volumes(bench), "--out", out,
                   "--well", f"A:{las}:{bench}/vel_A.csv") == 2
        assert not out.exists()
        assert "well A: no inline/xline in config or LAS ~W" in capsys.readouterr().err

    def test_las_position_as_whole_float_is_read(self, workdir, bench):
        log = parse_las((bench / "well_A.las").read_text())
        log.well_meta["ILIN"] = (log.well_meta["ILIN"][0] + ".0", "")
        las = workdir / "ilin_float.las"
        las.write_text(write_las(log))
        outs = [workdir / "ilin_int.csv", workdir / "ilin_float.csv"]
        for out, path in zip(outs, [bench / "well_A.las", las]):
            assert run("prep", *_prep_volumes(bench), "--out", out,
                       "--well", f"A:{path}:{bench}/vel_A.csv") == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("setting, message", [
        ("well.B.inline=99", "well B: inline 99 not in volume"),
        ("well.B.xline=0", "well B: xline 0 not in volume"),
        ("well.A.velocity=SLOW", "well A: target ["),
    ], ids=["inline", "xline", "time_span"])
    def test_well_position_errors_name_the_well(self, workdir, bench, setting,
                                                message, capsys):
        # velocities 1% slower move well A's time span to start before the
        # volume's first sample
        slow = workdir / "vel_A_slow.csv"
        header, *knots = (bench / "vel_A.csv").read_text().splitlines()
        slow.write_text("\n".join([header] + [
            f"{depth},{float(time) * 0.99!r}"
            for depth, time in (knot.split(",") for knot in knots)]) + "\n")
        cfg = workdir / "bench.cfg"
        cfg.write_text(synthbench.config_text(bench))
        capsys.readouterr()
        setting = setting.replace("SLOW", str(slow))
        assert run("run", "--config", cfg, "--set", setting,
                   "--set", "max_iters=20") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {message}")
        assert err.count("well ") == 1

    @pytest.mark.parametrize("change", ["extra_inline", "later_start"])
    def test_volume_geometry_mismatch_is_3(self, workdir, bench, change, capsys):
        vol = read_svol(bench / "amp.svol")
        if change == "extra_inline":
            vol = SeismicVolume(
                inlines=np.append(vol.inlines, vol.inlines[-1] + 1),
                xlines=vol.xlines, t0_ms=vol.t0_ms, dt_ms=vol.dt_ms,
                data=np.concatenate([vol.data, vol.data[-1:]]),
                attribute_name=vol.attribute_name)
        else:
            vol.t0_ms += 4.0
        amp = workdir / f"amp_{change}.svol"
        write_svol(amp, vol)
        out = workdir / "mismatch.csv"
        volumes = _prep_volumes(bench)
        volumes[volumes.index("--amp") + 1] = amp
        assert run("prep", *volumes, "--out", out,
                   "--well", f"A:{bench}/well_A.las:{bench}/vel_A.csv") == 3
        assert not out.exists()
        cfg = workdir / "mismatch.cfg"
        cfg.write_text(synthbench.config_text(bench).replace(
            str(bench / "amp.svol"), str(amp)))
        assert run("run", "--config", cfg) == 3
        assert capsys.readouterr().err.count(
            "data error: amp volume geometry differs from imp\n") == 2

    # (field, its offset in the header, a value no time axis may have)
    @pytest.mark.parametrize("field, offset, value", [
        *(("dt_ms", 32, v) for v in (0.0, -2.0, float("nan"), float("inf"))),
        *(("t0_ms", 24, v) for v in (float("nan"), float("inf"), float("-inf")))])
    def test_bad_time_axis_is_3_before_any_output(self, tmp_path, bench, field,
                                                  offset, value, capsys):
        names = ("imp", "amp", "freq")
        for name in names:
            blob = bytearray((bench / f"{name}.svol").read_bytes())
            struct.pack_into("<d", blob, offset, value)
            (tmp_path / f"{name}.svol").write_bytes(bytes(blob))
        message = f"{field} must be finite"
        for read in (open_svol, read_svol):
            with pytest.raises(DataError, match=f"^{message}"):
                read(tmp_path / "imp.svol")
        volumes = [arg for name in names
                   for arg in (f"--{name}", tmp_path / f"{name}.svol")]
        inline = int(read_svol(bench / "imp.svol").inlines[0])
        capsys.readouterr()
        assert run("prep", *volumes, "--out", tmp_path / "patterns.csv",
                   "--well", f"A:{bench}/well_A.las:{bench}/vel_A.csv") == 3
        assert f"data error: {message}" in capsys.readouterr().err
        assert run("slice", "--in", tmp_path / "imp.svol", "--inline", inline,
                   "--out", tmp_path / "slice.csv") == 3
        assert run("filter", "--in", tmp_path / "imp.svol",
                   "--out", tmp_path / "med.svol") == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(f"{name}.svol" for name in names)

    def test_non_utf8_attribute_name_is_3(self, workdir, bench):
        blob = bytearray((bench / "imp.svol").read_bytes())
        blob[64] = 0xFF     # first byte of the attribute name
        bad = workdir / "bad_name.svol"
        bad.write_bytes(bytes(blob))
        assert run("filter", "--in", bad, "--out", workdir / "unused.svol") == 3

    @pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3), (2, 3, 0)])
    def test_zero_dimension_svol_is_3(self, workdir, shape, capsys):
        n_il, n_xl, ns = shape
        blob = svol.HEADER.pack(svol.MAGIC, n_il, n_xl, ns, 0, 0.0, 1.0).ljust(
            svol.HEADER_LEN, b"\x00")
        blob += np.arange(n_il, dtype="<i4").tobytes()
        blob += np.arange(n_xl, dtype="<i4").tobytes()
        bad = workdir / "empty_{}x{}x{}.svol".format(*shape)
        bad.write_bytes(blob)      # the mask and sample sections are empty
        assert run("filter", "--in", bad, "--out", workdir / "unused.svol") == 3
        assert run("slice", "--in", bad, "--inline", 0) == 3
        assert "empty volume" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section", ["header", "name", "inlines", "xlines", "mask", "samples"])
    def test_truncated_svol_is_3(self, workdir, bench, section):
        blob = (bench / "imp.svol").read_bytes()
        n_il, n_xl, ns, name_len = struct.unpack_from("<4I", blob, 8)
        sizes = {"header": 64, "name": name_len, "inlines": 4 * n_il,
                 "xlines": 4 * n_xl, "mask": n_il * n_xl * ns,
                 "samples": 8 * n_il * n_xl * ns}
        start = 0
        for name, size in sizes.items():
            if name == section:
                break
            start += size
        bad = workdir / f"cut_{section}.svol"
        bad.write_bytes(blob[:start + sizes[section] // 2])
        assert run("filter", "--in", bad, "--out", workdir / "unused.svol") == 3

    def test_nan_in_valid_sample_fails_run_before_any_output(self, workdir,
                                                             bench):
        # a NaN far from every well: only the check made when the volume is
        # opened can see it, before training and before outdir exists
        blob = bytearray((bench / "imp.svol").read_bytes())
        n_il, n_xl, ns, name_len = struct.unpack_from("<4I", blob, 8)
        n = n_il * n_xl * ns
        mask_at = 64 + name_len + 4 * (n_il + n_xl)
        k = max(i for i in range(n) if blob[mask_at + i])
        struct.pack_into("<d", blob, mask_at + n + 8 * k, float("nan"))
        bad = workdir / "nan_sample.svol"
        bad.write_bytes(bytes(blob))
        cfg = workdir / "nan_sample.cfg"
        cfg.write_text(synthbench.config_text(bench).replace(
            str(bench / "imp.svol"), str(bad)))
        outdir = workdir / "nan_sample_out"
        assert run("run", "--config", cfg, "--set", "predict=true",
                   "--set", "max_iters=20", "--set", f"outdir={outdir}") == 3
        assert not outdir.exists() or not any(outdir.iterdir())

    @pytest.mark.parametrize("offset", [0, 238, 239])
    def test_header_offset_outside_trace_header_is_2(self, workdir, offset):
        sgy = workdir / "offsets.sgy"
        sgy.write_bytes(make_segy([(1, 1, [0.0, 1.0])]))
        assert run("convert", "--segy", sgy, "--out", workdir / "unused.svol",
                   "--inline-byte", offset) == 2

    def test_repeated_well_is_2(self, workdir, bench):
        cfg = workdir / "repeated.cfg"
        cfg.write_text(synthbench.config_text(bench).replace(
            "wells = A,B,C,D", "wells = A,A,B"))
        assert run("run", "--config", cfg) == 2

    @pytest.mark.parametrize("ids", [("A", "A"), ("A,B",), ("B", "A", "B"),
                                     ("",), ("B", "  "), ("A", " A ")])
    def test_bad_prep_well_id_is_2(self, workdir, bench, ids):
        # a pattern CSV with these ids would be rejected by every reader
        out = workdir / "bad_ids.csv"
        args = ["prep", "--imp", bench / "imp.svol", "--amp", bench / "amp.svol",
                "--freq", bench / "freq.svol", "--out", out]
        for well_id in ids:
            args += ["--well", f"{well_id}:{bench}/well_A.las:{bench}/vel_A.csv"]
        assert run(*args) == 2
        assert not out.exists()

    def test_prep_well_id_is_stripped(self, workdir, bench, capsys):
        # the pattern CSV reader strips each row, so prep strips the id
        out = workdir / "spaced_id.csv"
        assert run("prep", "--imp", bench / "imp.svol", "--amp", bench / "amp.svol",
                   "--freq", bench / "freq.svol", "--out", out,
                   "--well", f" A :{bench}/well_A.las:{bench}/vel_A.csv") == 0
        assert out.read_text().splitlines()[1].startswith("A,")
        capsys.readouterr()
        assert run("metrics", out) == 0
        assert "# nmi well=A\n" in capsys.readouterr().out

    @pytest.mark.parametrize("window", [2, 0, -1])
    def test_bad_filter_window_is_2(self, workdir, bench, window):
        assert run("filter", "--in", bench / "imp.svol", "--window", window,
                   "--out", workdir / "unused.svol") == 2


class TestFlagDefaults:
    @pytest.mark.parametrize("argv, defaults, flags", [
        (["convert", "--out", "x.svol"], TraceLayout(),
         {"inline_byte": "inline_byte_offset", "xline_byte": "xline_byte_offset"}),
        (["synth", "--seed", "0", "--out", "d"], SynthFieldParams(seed=0),
         {"inlines": "n_inlines", "xlines": "n_xlines", "samples": "n_samples",
          "layers": "layer_count", "wavelet_freq": "wavelet_center_freq_hz",
          "noise": "noise_level"}),
    ])
    def test_defaults_are_dataclass_defaults(self, argv, defaults, flags):
        args = cli.build_parser().parse_args(argv)
        for dest, attr in flags.items():
            assert getattr(args, dest) == getattr(defaults, attr), (argv[0], dest)

    def test_defaults_are_run_config_defaults(self):
        parser = cli.build_parser()
        cases = [
            (["train", "p.csv", "--out", "m.json"],
             {"hidden": "hidden", "max_iters": "max_iters", "seed": "train_seed",
              "split_seed": "split_seed", "target_loss": "target_loss"}),
            (["prep", "--imp", "i", "--amp", "a", "--freq", "f",
              "--well", "A:a.las:a.csv", "--out", "p.csv"], {"dt": "dt_ms"}),
            (["metrics", "p.csv"], {"bins": "mi_bins"}),
            (["emd-dump", "p.csv", "--out", "d"], {"sd": "sd_threshold"}),
            (["filter", "--in", "a.svol", "--out", "b.svol"],
             {"window": "filter_window"}),
        ]
        defaults = pipeline.RunConfig()
        for argv, flags in cases:
            args = parser.parse_args(argv)
            for dest, attr in flags.items():
                assert getattr(args, dest) == getattr(defaults, attr), (argv[0], dest)


class TestConvert:
    def test_las_to_csv(self, workdir):
        from test_formats import MINIMAL_LAS
        las = workdir / "log.las"
        las.write_text(MINIMAL_LAS)
        out = workdir / "log.csv"
        assert run("convert", "--las", las, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "DEPT,SF"
        assert len(lines) == 4

    def test_las_to_csv_matches_per_row_rendering(self, workdir):
        from test_formats import MINIMAL_LAS_HEADER
        las = workdir / "cells.las"
        las.write_text(MINIMAL_LAS_HEADER +
                       " 999.5 -0\n 1000.0 inf\n 1000.5 -999.25\n"
                       " 1001.0 -inf\n 1001.5 0.1\n 1002.0 -999.25\n")
        out = workdir / "cells.csv"
        assert run("convert", "--las", las, "--out", out) == 0
        rows = parse_las(las.read_text()).rows
        assert out.read_text() == "DEPT,SF\n" + "".join(
            ",".join("" if np.isnan(v) else f"{v:.17g}" for v in row) + "\n"
            for row in rows)
        assert out.read_text().count(",\n") == 2

    def test_convert_needs_one_input(self, workdir):
        assert run("convert", "--out", workdir / "x.svol") == 2

    def test_segy_to_svol(self, workdir):
        sgy = workdir / "tiny.sgy"
        sgy.write_bytes(make_segy([(1, 1, [0.0, 1.0, -1.0, 0.5]),
                                   (1, 2, [0.5, 0.25, 0.0, -0.5])]))
        out = workdir / "tiny.svol"
        assert run("convert", "--segy", sgy, "--out", out,
                   "--attribute", "amp") == 0
        vol = read_svol(out)
        assert vol.attribute_name == "amp"
        assert vol.data.shape == (1, 2, 4)
        np.testing.assert_array_equal(vol.data[0, 0], [0.0, 1.0, -1.0, 0.5])


def _prep_volumes(bench) -> list:
    """The volume flags of `seisreg prep` for the bench field."""
    return ["--imp", bench / "imp.svol", "--amp", bench / "amp.svol",
            "--freq", bench / "freq.svol"]


@pytest.fixture(scope="module")
def bench(workdir):
    out = workdir / "bench"
    assert run("synth", "--seed", 7, "--out", out,
               "--inlines", 8, "--xlines", 8) == 0
    return out


@pytest.fixture(scope="module")
def patterns(workdir, bench):
    path = workdir / "patterns.csv"
    args = ["prep", "--imp", bench / "imp.svol", "--amp", bench / "amp.svol",
            "--freq", bench / "freq.svol", "--out", path]
    for well_id in "ABCD":
        args += ["--well",
                 f"{well_id}:{bench}/well_{well_id}.las:{bench}/vel_{well_id}.csv"]
    assert run(*args) == 0
    return path


class TestEndToEnd:
    """synth -> prep -> metrics -> regularize -> train -> predict -> filter
    -> slice, chained through real files."""

    def test_synth_outputs(self, bench):
        names = sorted(os.listdir(bench))
        assert "imp.svol" in names and "well_A.las" in names and "vel_D.csv" in names

    def test_metrics_table(self, patterns, capsys):
        assert run("metrics", patterns) == 0
        out = capsys.readouterr().out
        assert "entropy_bits well=A" in out and "impedance" in out

    def test_metrics_csv_rows(self, patterns, capsys):
        # each well's section of tables.txt, with the raw target as the one
        # target: entropies and NMI in sorted rows, then a blank line
        assert run("metrics", patterns, "--format", "csv") == 0
        want, bins = [], pipeline.RunConfig.mi_bins
        for w in pipeline.read_patterns_csv(patterns):
            columns = dict(zip(("impedance", "amplitude", "inst_frequency"), w.attrs.T))
            entropy = {**columns, "original_sf": w.sf}
            want += [f"# entropy_bits well={w.well_id}", "variable,entropy_bits",
                     *(f"{name},{pipeline._fmt(metrics.series_entropy(w.series(vals)))}"
                       for name, vals in sorted(entropy.items())),
                     f"# nmi well={w.well_id}", "predictor,vs_original_sf",
                     *(f"{name},{pipeline._fmt(metrics.nmi(vals, w.sf, bins))}"
                       for name, vals in sorted(columns.items())),
                     ""]
        assert capsys.readouterr().out.splitlines() == want

    def test_regularize_and_train_and_volume_ops(self, workdir, bench, patterns,
                                                 capsys):
        reg = workdir / "patterns_ft.csv"
        report = workdir / "reg_report.json"
        assert run("regularize", patterns, "--method", "ft",
                   "--out", reg, "--report", report) == 0
        with open(report) as fh:
            rep = json.load(fh)
        assert set(rep) == set("ABCD")
        for well in rep.values():
            assert well["entropy_regularized"] < well["entropy_original"]

        model = workdir / "model.json"
        assert run("train", reg, "--max-iters", 300, "--out", model) == 0
        out = capsys.readouterr().out
        assert "validation" in out

        pred = workdir / "sf_pred.svol"
        vols = ",".join(str(bench / f"{n}.svol") for n in ("imp", "amp", "freq"))
        assert run("predict", "--model", model, "--vol", vols, "--out", pred) == 0
        vol = read_svol(pred)
        assert vol.attribute_name == "sand_fraction"
        assert 0.0 <= vol.data.min() and vol.data.max() <= 1.0

        smoothed = workdir / "sf_med.svol"
        assert run("filter", "--in", pred, "--window", 3, "--out", smoothed) == 0
        med = read_svol(smoothed)
        assert med.data.shape == vol.data.shape

        csv_path = workdir / "slice.csv"
        assert run("slice", "--in", smoothed, "--inline", int(vol.inlines[0]),
                   "--out", csv_path) == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("time_ms,xline_")

    def test_filter_in_place_matches_new_path(self, workdir, bench):
        # the filter reads its input whole and writes through a temporary
        # file, so --out may name --in
        vol = workdir / "in_place.svol"
        vol.write_bytes((bench / "imp.svol").read_bytes())
        fresh = workdir / "in_place_fresh.svol"
        assert run("filter", "--in", vol, "--out", fresh) == 0
        assert run("filter", "--in", vol, "--out", vol) == 0
        assert vol.read_bytes() == fresh.read_bytes()
        assert not list(workdir.glob(".in_place*"))

    def test_regularize_report_keys(self, workdir, patterns):
        common = {"method", "entropy_original", "entropy_regularized",
                  "entropy_predictor"}
        detail = {"none": set(), "avg9": {"span"},
                  "ft": {"zeta_max_hz", "retained_bins"},
                  "wd": {"wavelet", "levels", "truncated", "removed_energy"},
                  "emd": {"p1", "imf_count"}}
        for method, keys in detail.items():
            report = workdir / f"keys_{method}.json"
            assert run("regularize", patterns, "--method", method,
                       "--out", workdir / f"keys_{method}.csv",
                       "--report", report) == 0
            with open(report) as fh:
                for well in json.load(fh).values():
                    assert set(well) == common | keys, method

    def test_emd_dump(self, workdir, patterns):
        out = workdir / "emd"
        assert run("emd-dump", patterns, "--out", out) == 0
        path = out / "emd_A.csv"
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "time_ms" and header[1] == "imf_1"
        assert header[-1] == "residue"
        # every file, byte for byte, against a row-by-row rendering
        for w in pipeline.read_patterns_csv(patterns):
            decomposition = emdreg.emd(w.series(w.sf))
            cols = [imf.values for imf in decomposition.imfs]
            cols.append(decomposition.residue.values)
            names = [f"imf_{i + 1}" for i in range(len(cols) - 1)]
            want = "time_ms," + ",".join(names + ["residue"]) + "\n" + "".join(
                f"{t:.17g}," + ",".join(f"{c[k]:.17g}" for c in cols) + "\n"
                for k, t in enumerate(w.times_ms))
            assert (out / f"emd_{w.well_id}.csv").read_text() == want

    def test_run_and_report(self, workdir, bench, capsys):
        cfg = workdir / "run.cfg"
        outdir = workdir / "run_out"
        cfg.write_text(synthbench.config_text(bench) + "method = wd\n"
                       f"max_iters = 200\noutdir = {outdir}\n")
        assert run("run", "--config", cfg) == 0
        capsys.readouterr()
        assert run("report", outdir / "report.json") == 0
        out = capsys.readouterr().out
        assert "# validation per well" in out
        assert out == (outdir / "tables.txt").read_text()
        assert run("report", outdir / "report.json", "--format", "csv") == 0
        assert capsys.readouterr().out == (outdir / "tables.csv").read_text()


def test_slice_peak_does_not_grow_with_inlines(tmp_path, monkeypatch, capsys):
    # slice holds one inline, after a check that reads CHECK_ROWS voxels at
    # a time; the whole volume would double with the inlines
    monkeypatch.setattr(volume, "CHECK_ROWS", 1 << 10)
    rng = np.random.default_rng(3)
    peaks = []
    for n_inlines in (16, 32):
        shape = (n_inlines, 32, 64)
        path = tmp_path / f"v_{n_inlines}.svol"
        write_svol(path, SeismicVolume(
            inlines=np.arange(n_inlines), xlines=np.arange(32), t0_ms=0.0,
            dt_ms=2.0, data=rng.uniform(0, 1, shape),
            mask=rng.uniform(0, 1, shape) > 0.1))
        argv = ("slice", "--in", path, "--inline", 5, "--out", tmp_path / "s.csv")
        assert run(*argv) == 0      # the first call fills lazy caches
        tracemalloc.start()
        try:
            assert run(*argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 16 more inlines add 288 KiB of samples and mask; the parser and the
    # CSV text of one inline move the peak by about 16 KiB from call to call
    assert peaks[1] < peaks[0] + 16 * 32 * 64 * 9 / 4
    # 32x32x64 voxels: the samples alone are 0.5 MiB
    assert peaks[1] < 32 * 32 * 64 * 8


def _modules_after(code):
    """The modules a fresh interpreter holds after running code, by full name."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint(sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


class TestImports:
    """scipy serves only `seisreg synth`, plus the EMD engine's tridiagonal
    solve on a numpy whose LAPACK has no `scipy_dgtsv_64_`; no other command
    pays for loading scipy.  Each check runs in a fresh interpreter, because
    this one has imported synthbench and scipy.interpolate for the tests."""

    def test_importing_the_cli_loads_no_scipy(self):
        # nor the thread pool that only `seisreg synth` uses
        modules = _modules_after(
            "import seisreg.cli, seisreg.pipeline\nimport threading\n"
            "assert threading.active_count() == 1, threading.enumerate()")
        assert "'scipy'" not in modules
        assert "'concurrent.futures'" not in modules

    def test_ft_run_with_predict_loads_no_scipy(self, workdir, bench):
        cfg = workdir / "noscipy.cfg"
        cfg.write_text(synthbench.config_text(bench))
        argv = ["run", "--config", str(cfg), "--set", "method=ft",
                "--set", "predict=true", "--set", "max_iters=20",
                "--set", "max_attempts=1",
                "--set", f"outdir={workdir / 'noscipy'}"]
        modules = _modules_after(
            f"from seisreg import cli\nassert cli.main({argv!r}) == 0")
        assert (workdir / "noscipy" / "sf_pred_med.svol").is_file()
        assert "'scipy'" not in modules

    @pytest.mark.skipif(emdreg._DGTSV is None,
                        reason="numpy's LAPACK has no scipy_dgtsv_64_")
    @pytest.mark.parametrize("command", ["regularize", "run"])
    def test_emd_loads_no_scipy(self, workdir, bench, patterns, command):
        out = workdir / f"emd_imports_{command}"
        if command == "regularize":
            argv = ["regularize", str(patterns), "--method", "emd",
                    "--out", str(out), "--report", str(out) + ".json"]
        else:
            cfg = workdir / "emd_imports.cfg"
            cfg.write_text(synthbench.config_text(bench))
            argv = ["run", "--config", str(cfg), "--set", "method=emd",
                    "--set", "max_iters=20", "--set", "max_attempts=1",
                    "--set", f"outdir={out}"]
        modules = _modules_after(
            f"from seisreg import cli\nassert cli.main({argv!r}) == 0")
        assert out.exists()
        assert "'scipy'" not in modules
