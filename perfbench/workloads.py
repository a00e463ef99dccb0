"""The three benchmark workloads: their fields, the commands of one pass,
and the checks each command's outputs must pass.

Every pass is a closed loop of ``seisreg`` commands: the next command starts
when the previous one returns.  Inputs come only from the field that
``make_field.py`` generated from the workload seed.
"""

import json
import os
from dataclasses import dataclass, field

WELLS = "ABCD"
METHODS = ("none", "avg9", "ft", "wd", "emd")
REG_ENGINES = ("ft", "wd", "emd")
GOLDEN = os.path.join("tests", "golden", "benchmark_baseline.json")
GOLDEN_TOL = 0.02
BENEFIT_MARGIN = 0.05
FIELD_SEED_STRIDE = 10_000


def field_seed(seed: int, index: int) -> int:
    """Synth seed of a run's index-th field; field 0 uses the workload seed."""
    return seed + FIELD_SEED_STRIDE * index


@dataclass
class Command:
    label: str
    argv: list
    outputs: list = field(default_factory=list)   # files or dirs to digest


@dataclass
class CommandResult:
    command: Command
    code: int             # exit code; -1 when cli.main raised
    stdout: str
    stderr: str
    seconds: float
    digest: str = ""

    @property
    def label(self):
        return self.command.label

    @property
    def outdir(self):
        return self.command.outputs[0]


def write_config(field_dir, wl) -> None:
    lines = [f"vol.{name} = {os.path.join(field_dir, name)}.svol"
             for name in ("imp", "amp", "freq")]
    lines.append("wells = " + ",".join(WELLS))
    for w in WELLS:
        lines.append(f"well.{w}.las = {os.path.join(field_dir, f'well_{w}.las')}")
        lines.append(f"well.{w}.velocity = "
                     f"{os.path.join(field_dir, f'vel_{w}.csv')}")
    with open(os.path.join(field_dir, "run.cfg"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_argv(field_dir, outdir, settings: dict) -> list:
    argv = ["run", "--config", os.path.join(field_dir, "run.cfg")]
    for key, value in {**settings, "outdir": outdir}.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def _pooled(outdir) -> dict:
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)["attempts"][-1]["validation_pooled"]


class WellsDefault:
    """Default-size field, one `seisreg run` per method at the golden
    settings: SCG training dominates, the volume layers idle."""

    name = "wells_default"
    n_inlines, n_xlines, n_samples = 16, 16, 116
    fields = 1
    settings = {"max_iters": 1500, "max_attempts": 1, "predict": "false"}

    def commands(self, field_dir, out_dir):
        return [Command(f"run:{m}",
                        _run_argv(field_dir, os.path.join(out_dir, m),
                                  {"method": m, **self.settings}),
                        [os.path.join(out_dir, m)])
                for m in METHODS]

    def check(self, results, seed, root):
        """Golden metrics (golden seed only) and the criterion-7 ordering;
        returns {label: [failure, ...]}."""
        fails = {r.label: [] for r in results}
        cc = {}
        golden = None
        with open(os.path.join(root, GOLDEN)) as fh:
            doc = json.load(fh)
        if doc["bench_seed"] == seed:
            golden = doc["methods"]
        for r in results:
            if r.code != 0:
                continue
            method = r.label.split(":", 1)[1]
            pooled = _pooled(r.outdir)
            cc[method] = pooled["cc"]
            if golden is not None:
                want = golden[method]["validation_pooled"]
                for key in ("cc", "rmse", "aem", "si"):
                    if not abs(pooled[key] - want[key]) <= GOLDEN_TOL:
                        fails[r.label].append(
                            f"golden {key} {pooled[key]:.4f} vs {want[key]:.4f}")
        if len(cc) == len(METHODS):
            best = max(cc[m] for m in REG_ENGINES)
            if not (cc["none"] < cc["avg9"] < best
                    and cc["none"] + BENEFIT_MARGIN <= best):
                # the ordering needs every run; book it to the last one
                fails[results[-1].label].append(f"criterion-7 ordering {cc}")
        return fails

    def quality(self, results, field_dir):
        ccs = [_pooled(r.outdir)["cc"] for r in results if r.code == 0]
        return {"validation_cc": sum(ccs) / len(ccs) if ccs else None}


class VolumeScaled:
    """64x64x256 field, one FT run with the volume sweep and median
    filter: svol I/O, bulk inference and the 27-plane median dominate."""

    name = "volume_scaled"
    n_inlines, n_xlines, n_samples = 64, 64, 256
    fields = 1
    settings = {"method": "ft", "max_iters": 300, "max_attempts": 1,
                "predict": "true", "filter_window": 3}

    def commands(self, field_dir, out_dir):
        outdir = os.path.join(out_dir, "ft")
        return [Command("run:ft", _run_argv(field_dir, outdir, self.settings),
                        [outdir])]

    def check(self, results, seed, root):
        fails = {r.label: [] for r in results}
        for r in results:
            for name in ("sf_pred.svol", "sf_pred_med.svol"):
                if r.code == 0 and not os.path.isfile(
                        os.path.join(r.outdir, name)):
                    fails[r.label].append(f"missing {name}")
        return fails

    def quality(self, results, field_dir):
        import numpy as np
        from seisreg.formats.svol import read_svol
        r = results[0]
        if r.code != 0:
            return {"validation_cc": None, "volume_cc": None}
        pred = read_svol(os.path.join(r.outdir, "sf_pred_med.svol"))
        truth = read_svol(os.path.join(field_dir, "sf.svol"))
        valid = pred.mask & truth.mask
        volume_cc = float(np.corrcoef(pred.data[valid], truth.data[valid])[0, 1])
        return {"validation_cc": _pooled(r.outdir)["cc"], "volume_cc": volume_cc}


class PreprocessLong:
    """16x16x512 field (about 6,700 fine samples per well): `prep`, then
    `regularize` with each engine, then `metrics`.  Sinc reconstruction and
    EMD sifting dominate; no training, no volume sweep.

    EMD's sifting work varies by about a quarter from one field to the
    next, so a run draws four fields from its seed and its passes take them
    in whole cycles; the mean pass of a cycle depends less on one field's
    luck."""

    name = "preprocess_long"
    n_inlines, n_xlines, n_samples = 16, 16, 512
    fields = 4

    def commands(self, field_dir, out_dir):
        patterns = os.path.join(out_dir, "patterns.csv")
        prep = ["prep"] + [arg for name in ("imp", "amp", "freq") for arg in
                           (f"--{name}", os.path.join(field_dir, f"{name}.svol"))]
        for w in WELLS:
            prep += ["--well", f"{w}:{os.path.join(field_dir, f'well_{w}.las')}:"
                               f"{os.path.join(field_dir, f'vel_{w}.csv')}"]
        cmds = [Command("prep", prep + ["--out", patterns], [patterns])]
        for m in REG_ENGINES:
            out = os.path.join(out_dir, f"patterns_{m}.csv")
            report = os.path.join(out_dir, f"reg_{m}.json")
            cmds.append(Command(f"regularize:{m}",
                                ["regularize", patterns, "--method", m,
                                 "--out", out, "--report", report],
                                [out, report]))
        cmds.append(Command("metrics", ["metrics", patterns]))
        return cmds

    def check(self, results, seed, root):
        """Every engine must lower every well's target entropy."""
        fails = {r.label: [] for r in results}
        for r in results:
            if r.code != 0 or not r.label.startswith("regularize:"):
                continue
            with open(r.command.outputs[1]) as fh:
                reports = json.load(fh)
            if sorted(reports) != list(WELLS):
                fails[r.label].append(f"reports for wells {sorted(reports)}")
            for well, rep in sorted(reports.items()):
                if not rep["entropy_regularized"] < rep["entropy_original"]:
                    fails[r.label].append(f"well {well}: entropy not lowered")
        return fails

    def quality(self, results, field_dir):
        return {}


WORKLOADS = {wl.name: wl for wl in (WellsDefault(), VolumeScaled(),
                                    PreprocessLong())}
