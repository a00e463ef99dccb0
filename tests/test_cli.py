import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from seisreg import cli, mlp, pipeline, synthbench
from seisreg.formats.segy import TraceLayout
from seisreg.formats.svol import read_svol
from seisreg.resample import MinMaxStats, ZscoreStats
from seisreg.synthparams import SynthFieldParams
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
        "sd_threshold=5", "zeta_max_hz=-1"])
    def test_bad_run_setting_is_2_before_reading_inputs(self, workdir, setting):
        # the inputs do not exist: reading any of them would exit 3
        missing = workdir / "missing"
        cfg = workdir / "bad_setting.cfg"
        cfg.write_text(synthbench.config_text(missing))
        assert run("run", "--config", cfg, "--set", "predict=true",
                   "--set", setting) == 2

    def test_nan_prep_dt_is_2(self, workdir, bench):
        assert run("prep", "--imp", bench / "imp.svol", "--amp", bench / "amp.svol",
                   "--freq", bench / "freq.svol",
                   "--well", f"A:{bench}/well_A.las:{bench}/vel_A.csv",
                   "--dt", "nan", "--out", workdir / "nan.csv") == 2

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
        report = workdir / "empty_report.json"
        report.write_text("{}")
        assert run("report", report) == 3

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

    @pytest.mark.parametrize("command", ["filter", "slice"])
    def test_nan_dt_header_is_3(self, workdir, bench, command):
        blob = bytearray((bench / "imp.svol").read_bytes())
        blob[32:40] = struct.pack("<d", float("nan"))   # dt_ms, docs/format.md
        bad = workdir / "nan_dt.svol"
        bad.write_bytes(bytes(blob))
        extra = ["--inline", int(read_svol(bench / "imp.svol").inlines[0])] \
            if command == "slice" else []
        assert run(command, "--in", bad, *extra,
                   "--out", workdir / f"unused_{command}.out") == 3

    def test_non_utf8_attribute_name_is_3(self, workdir, bench):
        blob = bytearray((bench / "imp.svol").read_bytes())
        blob[64] = 0xFF     # first byte of the attribute name
        bad = workdir / "bad_name.svol"
        bad.write_bytes(bytes(blob))
        assert run("filter", "--in", bad, "--out", workdir / "unused.svol") == 3

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
        os.makedirs(out, exist_ok=True)
        assert run("emd-dump", patterns, "--out", out) == 0
        path = out / "emd_A.csv"
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "time_ms" and header[1] == "imf_1"
        assert header[-1] == "residue"

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
    """scipy serves only `seisreg synth` and the EMD engine, which loads
    `scipy.linalg` for its tridiagonal solve and never `scipy.interpolate`;
    no other command pays for loading scipy.  Each check runs in a fresh
    interpreter, because this one has imported synthbench and
    scipy.interpolate for the tests."""

    def test_importing_the_cli_loads_no_scipy(self):
        assert "'scipy'" not in _modules_after(
            "import seisreg.cli, seisreg.pipeline")

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

    def test_emd_regularize_loads_no_scipy_interpolate(self, workdir, patterns):
        out = workdir / "emd_imports.csv"
        argv = ["regularize", str(patterns), "--method", "emd", "--out", str(out),
                "--report", str(workdir / "emd_imports.json")]
        modules = _modules_after(
            f"from seisreg import cli\nassert cli.main({argv!r}) == 0")
        assert out.is_file()
        assert "'scipy.linalg.lapack'" in modules
        assert "'scipy.interpolate'" not in modules
