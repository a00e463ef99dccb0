import json
import os

import numpy as np
import pytest

from seisreg import cli, pipeline, synthbench
from seisreg.formats.svol import read_svol
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
    def test_too_few_bins_is_2(self, patterns, bins):
        assert run("metrics", patterns, "--bins", bins) == 2

    @pytest.mark.parametrize("flag", ["--seed", "--split-seed"])
    def test_negative_train_seed_is_2(self, workdir, patterns, flag):
        assert run("train", patterns, flag, -1, "--out", workdir / "m.json") == 2

    def test_negative_synth_seed_is_2(self, workdir):
        assert run("synth", "--seed", -1, "--out", workdir / "neg") == 2

    def test_negative_run_seed_is_2(self, workdir, bench):
        cfg = workdir / "neg_seed.cfg"
        cfg.write_text(synthbench.config_text(bench))
        assert run("run", "--config", cfg, "--set", "train_seed=-1") == 2

    def test_repeated_well_is_2(self, workdir, bench):
        cfg = workdir / "repeated.cfg"
        cfg.write_text(synthbench.config_text(bench).replace(
            "wells = A,B,C,D", "wells = A,A,B"))
        assert run("run", "--config", cfg) == 2


class TestFlagDefaults:
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

    def test_regularize_report_keys(self, workdir, patterns):
        gated = {"method", "entropy_original", "entropy_regularized",
                 "entropy_predictor", "gate_tol_bits", "gate_passed"}
        detail = {"ft": {"zeta_max_hz", "retained_bins"},
                  "wd": {"wavelet", "levels", "truncated", "removed_energy"},
                  "emd": {"p1", "imf_count"}}
        for method, keys in detail.items():
            report = workdir / f"keys_{method}.json"
            assert run("regularize", patterns, "--method", method,
                       "--out", workdir / f"keys_{method}.csv",
                       "--report", report) == 0
            with open(report) as fh:
                for well in json.load(fh).values():
                    assert set(well) == gated | keys, method

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
