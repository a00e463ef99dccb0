"""End-to-end workflow: ingest, depth-to-time, attribute reconstruction,
normalization, target regularization, split/train/validate, and the
bounded retrain-on-weak-validation loop, plus table rendering.

Every numbered stage is a thin call into the owning module; this file owns
sequencing, configuration and reporting only.
"""

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import emdreg, ftreg, metrics, mlp, resample, volpost, waveletreg
from .errors import ConfigError, DataError
from .formats.las import parse_las
from .formats.svol import open_svol, read_svol
from .formats.svol import write_svol  # noqa: F401  only for perfbench/spans.py
from .resample import TimeSeries


class SpanTooLarge(ConfigError):
    pass


def moving_average_baseline(series: TimeSeries, span: int = 9) -> TimeSeries:
    """Centered moving mean; edge windows shrink to the valid part."""
    if span % 2 == 0 or span < 1:
        raise ConfigError(f"span must be odd and >= 1, got {span}")
    n = len(series)
    if span > n:
        raise SpanTooLarge(f"span {span} exceeds series length {n}")
    half = span // 2
    padded = np.concatenate([np.zeros(1), np.cumsum(series.values)])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return series.with_values((padded[hi] - padded[lo]) / (hi - lo))


GOOD_FIT = {"cc_min": 0.80, "rmse_max": 0.15, "aem_max": 0.15, "si_max": 0.35}


@dataclass(frozen=True)
class Param:
    """A method tunable: its RunConfig field (which declares its type and
    default), config key, `seisreg regularize` flag and the name it is
    reported under in method_params, with `shown(config)` as its value there
    when that is not the field's own."""

    attr: str
    key: str
    flag: str
    label: str
    shown: Callable | None = None
    help: str | None = None


@dataclass(frozen=True)
class Method:
    """A regularization method: its tunables, `shape(target, config,
    predictor) -> (TimeSeries, detail dict)`, the engine call, and
    `tighten(config)`, one step of its fixed tightening schedule (None:
    nothing left to tighten)."""

    name: str
    params: tuple
    shape: Callable
    tighten: Callable = lambda config: None

    def describe(self, config) -> dict:
        return {"method": self.name,
                **{p.label: p.shown(config) if p.shown else getattr(config, p.attr)
                   for p in self.params}}

    def regularize(self, target, config, predictor):
        """The shaped target and its report: the engine's detail and the
        spectral entropies of target, output and predictor."""
        out, detail = self.shape(target, config, predictor)
        return out, {"method": self.name, **detail,
                     **metrics.entropy_report(target, out, predictor)}


# The adapters reach the engines through their modules, so a wrapper set on
# a module attribute at run time (perfbench/spans.py) sees every call.

def _regularize_avg9(target, config, predictor):
    return moving_average_baseline(target, config.avg_span), {"span": config.avg_span}


def _regularize_ft(target, config, predictor):
    zeta = config.zeta_max_hz
    if zeta is None:
        zeta = ftreg.default_zeta_max(predictor)
    return ftreg.regularize_ft(target, ftreg.FtRegParams(zeta))


def _regularize_wd(target, config, predictor):
    return waveletreg.regularize_wd(
        target, wavelet=config.wavelet, levels=config.wd_levels,
        truncate_details=config.truncate_details)


def _regularize_emd(target, config, predictor):
    decomposition = emdreg.emd(target, emdreg.SiftParams(config.sd_threshold))
    return emdreg.regularize_emd(target, decomposition,
                                 min(config.p1, len(decomposition) - 1))


def _wd_truncation(config) -> list:
    """The detail levels wd truncates; by default all but the coarsest."""
    if config.truncate_details is None:
        return list(range(1, config.wd_levels))
    return sorted(set(config.truncate_details))


def _tighten_wd(config):
    current = set(_wd_truncation(config))
    missing = sorted(set(range(1, config.wd_levels + 1)) - current)
    if not missing:
        return None
    return replace(config, truncate_details=sorted(current | {missing[0]}))


METHODS = {m.name: m for m in (
    Method("none", (), lambda target, config, predictor: (target, {})),
    Method("avg9", (Param("avg_span", "avg_span", "--span", "span",
                          help="window (avg9)"),), _regularize_avg9),
    Method("ft", (Param("zeta_max_hz", "zeta_max_hz", "--zeta-max", "zeta_max_hz",
                        help="Hz (ft)"),),
           _regularize_ft,
           lambda config: replace(config, zeta_max_hz=(config.zeta_max_hz or 0) * 0.8)),
    Method("wd", (Param("wavelet", "wavelet", "--wavelet", "wavelet"),
                  Param("wd_levels", "wd_levels", "--levels", "levels"),
                  Param("truncate_details", "truncate", "--truncate", "truncate",
                        _wd_truncation, help="e.g. 1,2,3,4,5 (wd)")),
           _regularize_wd, _tighten_wd),
    Method("emd", (Param("p1", "p1", "--p1", "p1", help="IMFs to suppress (emd)"),
                   Param("sd_threshold", "sd_threshold", "--sd", "sd_threshold",
                         help="sift threshold (emd)")),
           _regularize_emd, lambda config: replace(config, p1=config.p1 + 1)),
)}

# every method tunable once, by RunConfig field
PARAMS = {p.attr: p for m in METHODS.values() for p in m.params}


@dataclass
class WellConfig:
    well_id: str
    las_path: str
    velocity_path: str
    inline: int | None = None
    xline: int | None = None
    sf_curve: str = "SF"


@dataclass
class RunConfig:
    """Every run setting.  The field order is the key order of render_config."""

    vol_imp: str = ""
    vol_amp: str = ""
    vol_freq: str = ""
    wells: list = field(default_factory=list)   # of WellConfig
    method: str = "ft"
    dt_ms: float = 0.15
    zeta_max_hz: float | None = None            # None -> predictor-derived
    wavelet: str = "db4"
    wd_levels: int = 6
    p1: int = 1
    sd_threshold: float = 0.2
    avg_span: int = 9
    mi_bins: int = 16
    split_seed: int = 7
    hidden: int = 10
    max_iters: int = 2000
    train_seed: int = 7
    sigma: float = 1e-4
    lambda1: float = 1e-4
    target_loss: float = 0.0
    validation_cc_threshold: float = 0.80
    max_attempts: int = 3
    predict: bool = False
    filter_window: int = 3
    outdir: str = ""
    truncate_details: list | None = None        # None -> 1..levels-1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {tuple(METHODS)}, "
                              f"got {self.method!r}")
        if not (math.isfinite(self.dt_ms) and self.dt_ms > 0):
            raise ConfigError(f"dt_ms must be finite and > 0, got {self.dt_ms}")
        for name in ("target_loss", "validation_cc_threshold"):
            if math.isnan(getattr(self, name)):
                raise ConfigError(f"{name} must be a number, got nan")
        for name in ("filter_window", "avg_span"):
            value = getattr(self, name)
            if value < 1 or value % 2 == 0:
                raise ConfigError(f"{name} must be odd and >= 1, got {value}")
        for name, least in (("max_attempts", 1), ("train_seed", 0),
                            ("split_seed", 0), ("hidden", 1), ("mi_bins", 2),
                            ("wd_levels", 1), ("p1", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, "
                                  f"got {getattr(self, name)}")
        levels = range(1, self.wd_levels + 1)
        if not set(self.truncate_details or ()) <= set(levels):
            raise ConfigError(f"truncate {self.truncate_details} outside "
                              f"1..{self.wd_levels}")
        # the engines' own validators, so a bad value exits 2 before any
        # input is read
        mlp.ScgParams(sigma=self.sigma, lambda1=self.lambda1,
                      max_iters=self.max_iters, target_loss=self.target_loss)
        emdreg.SiftParams(self.sd_threshold)
        waveletreg.WaveletSpec.named(self.wavelet)
        if self.zeta_max_hz is not None:
            ftreg.FtRegParams(self.zeta_max_hz)


_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}
_CONVERTERS = {str: str, int: int, float: float,
               bool: lambda s: _BOOLS[s.lower()],
               list: lambda s: [int(v) for v in s.split(",")] if s else []}


def _converter(f):
    """A dataclass field's converter from text, by its type (`X | None` as X)."""
    args = [t for t in getattr(f.type, "__args__", ()) if t is not type(None)]
    return _CONVERTERS[args[0] if args else f.type]


# config key -> (RunConfig field, converter), in field order
CONFIG_KEYS = {
    PARAMS[f.name].key if f.name in PARAMS else f.name.replace("vol_", "vol."):
        (f.name, _converter(f))
    for f in fields(RunConfig) if f.name != "wells"}
# `well.<id>.<key>` keys: the WellConfig fields after well_id, minus "_path"
_WELL_KEYS = [(f, f.name.removesuffix("_path")) for f in fields(WellConfig)[1:]]


def _convert(key: str, conv, value: str):
    try:
        return conv(value)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {key}: {value!r}")


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Flat `key = value` lines; '#' starts a comment.  Wells are declared
    as `wells = A,B,...` with per-well `well.<id>.las` / `well.<id>.velocity`
    (and optional .inline/.xline/.sf_curve) keys."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = line.split("=", 1)
        raw[key.strip()] = value.strip()
    raw.update(overrides or {})

    well_ids = [w.strip() for w in raw.get("wells", "").split(",") if w.strip()]
    if len(set(well_ids)) < len(well_ids):
        raise ConfigError(f"wells: repeated well id in {raw['wells']!r}")
    well_keys = {f"well.{w}.{key}" for w in well_ids for _, key in _WELL_KEYS}

    kwargs = {}
    for key, value in raw.items():
        if key in CONFIG_KEYS:
            attr, conv = CONFIG_KEYS[key]
            kwargs[attr] = _convert(key, conv, value)
        elif key != "wells" and key not in well_keys:
            raise ConfigError(f"unknown config key {key!r}")

    wells = []
    for well_id in well_ids:
        prefix = f"well.{well_id}."
        given = {f.name: _convert(prefix + key, _converter(f), raw[prefix + key])
                 for f, key in _WELL_KEYS if prefix + key in raw}
        if not given.get("las_path") or not given.get("velocity_path"):
            raise ConfigError(f"well {well_id}: need {prefix}las and {prefix}velocity")
        wells.append(WellConfig(well_id=well_id, **given))
    kwargs["wells"] = wells
    return RunConfig(**kwargs)


def render_config(config: RunConfig) -> str:
    """The resolved flat-file form of a config (written next to run outputs)."""
    lines = []
    for key, (attr, _) in CONFIG_KEYS.items():
        value = getattr(config, attr)
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(str(i) for i in value)
        lines.append(f"{key} = {value}")
    lines.append("wells = " + ",".join(w.well_id for w in config.wells))
    for w in config.wells:
        for f, key in _WELL_KEYS:
            value = getattr(w, f.name)
            if value != f.default:
                lines.append(f"well.{w.well_id}.{key} = {value}")
    return "\n".join(lines) + "\n"


@dataclass
class WellData:
    """One well's target and attributes on the shared fine time grid."""

    well_id: str
    t0_ms: float
    dt_ms: float
    sf: np.ndarray
    imp: np.ndarray
    amp: np.ndarray
    freq: np.ndarray

    @property
    def times_ms(self):
        return self.t0_ms + self.dt_ms * np.arange(len(self.sf))

    def series(self, values) -> TimeSeries:
        return TimeSeries(self.t0_ms, self.dt_ms, values)


def prepare_well(well_cfg: WellConfig, volumes: dict, dt_ms: float) -> WellData:
    """LAS + velocity + attribute volumes -> aligned fine-grid arrays.

    Reads only the well's own trace of each volume, so `volumes` may be
    open `.svol` readers as well as volumes in memory."""
    with open(well_cfg.las_path) as fh:
        log = parse_las(fh.read())
    vp = resample.load_velocity_csv(well_cfg.velocity_path)
    sf = log.curve(well_cfg.sf_curve)
    depths = log.depths
    ok = ~np.isnan(sf)
    sf_ts = resample.depth_to_time(depths[ok], sf[ok], vp, dt_ms)

    inline = well_cfg.inline
    xline = well_cfg.xline
    if inline is None:
        inline = log.meta_float("ILIN")
        inline = int(inline) if inline is not None else None
    if xline is None:
        xline = log.meta_float("XLIN")
        xline = int(xline) if xline is not None else None
    if inline is None or xline is None:
        raise ConfigError(
            f"well {well_cfg.well_id}: no inline/xline in config or LAS ~W (ILIN/XLIN)"
        )

    traces = {}
    for name, vol in volumes.items():
        samples, mask = vol.trace(inline, xline)
        if not mask.all():
            raise DataError(f"well {well_cfg.well_id}: {name} trace is masked at "
                            f"({inline}, {xline})")
        trace_ts = TimeSeries(vol.t0_ms, vol.dt_ms, samples)
        traces[name] = resample.sinc_resample(trace_ts, sf_ts.t0_ms, dt_ms,
                                              len(sf_ts)).values
    return WellData(
        well_id=well_cfg.well_id, t0_ms=sf_ts.t0_ms, dt_ms=dt_ms, sf=sf_ts.values,
        imp=traces["imp"], amp=traces["amp"], freq=traces["freq"],
    )


def _well_tables(well: WellData, scored: dict, sf_norm: TimeSeries,
                 sf_reg: TimeSeries, reg_report: dict, bins: int) -> dict:
    # the report holds the entropies of both targets and of the predictor,
    # the z-scored amplitude column
    entropy = {row: reg_report[key] for key, row in (
        ("entropy_original", "original_sf"),
        ("entropy_regularized", "regularized_sf"),
        ("entropy_predictor", "amplitude"))}
    for name in ("impedance", "inst_frequency"):
        entropy[name] = metrics.series_entropy(well.series(scored[name]))
    nmi_rows = {}
    for name, vals in scored.items():
        nmi_rows[name] = {
            "original": metrics.nmi(vals, sf_norm.values, bins),
            "regularized": metrics.nmi(vals, sf_reg.values, bins),
        }
    return {"entropy_bits": entropy, "nmi": nmi_rows}


def _good_fit(report: metrics.MetricsReport) -> bool:
    return (report.cc_defined and report.cc > GOOD_FIT["cc_min"]
            and report.rmse < GOOD_FIT["rmse_max"]
            and report.aem < GOOD_FIT["aem_max"]
            and report.si_defined and report.si < GOOD_FIT["si_max"])


@dataclass
class RunReport:
    config_text: str
    attempts: list
    chosen_attempt: int
    model: dict | None = None

    @property
    def final(self) -> dict:
        return self.attempts[self.chosen_attempt]

    def to_dict(self):
        return {"attempts": self.attempts, "chosen_attempt": self.chosen_attempt,
                "config": self.config_text, "model": self.model}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"


def pool_patterns(wells):
    """Inputs z-scored and targets min-max mapped into the band, each pooled
    over all wells: (inputs, input_stats, targets, target_stats)."""
    raw_inputs = np.vstack([np.column_stack([w.imp, w.amp, w.freq])
                            for w in wells])
    inputs, input_stats = resample.zscore(raw_inputs)
    targets, target_stats = resample.minmax_to_band(
        np.concatenate([w.sf for w in wells]))
    return inputs, input_stats, targets, target_stats


def train_model(wells, config: RunConfig, inputs, input_stats, targets,
                target_stats):
    """Split the pooled rows per well and train the MLP by SCG on the
    training rows.  Returns (ModelBundle, TrainHistory, (train, test,
    validation) row indices)."""
    split = resample.split_patterns({w.well_id: len(w.sf) for w in wells},
                                    seed=config.split_seed)
    train, test, validation = split
    # validation rows must be disjoint from training/testing; checked on
    # every split rather than trusting the splitter
    if np.intersect1d(validation, np.concatenate([train, test])).size:
        raise DataError("validation overlaps train/test")
    model = mlp.init_model(3, config.hidden, seed=config.train_seed)
    scg = mlp.ScgParams(sigma=config.sigma, lambda1=config.lambda1,
                        max_iters=config.max_iters,
                        target_loss=config.target_loss)
    trained, history = mlp.scg_train(model, inputs[train], targets[train], scg)
    bundle = mlp.ModelBundle(model=trained, input_stats=input_stats,
                             target_stats=target_stats, seed=config.train_seed)
    return bundle, history, split


def evaluate_subset(bundle: mlp.ModelBundle, inputs,
                    targets) -> metrics.MetricsReport:
    """The four evaluators on the given rows, in target units."""
    invert = bundle.target_stats.invert
    pred = invert(mlp.forward_batch(bundle.model, inputs))
    return metrics.evaluate(pred, invert(targets))


def _regularize_wells(wells, bounds, config: RunConfig, inputs, targets):
    """Regularize each well's target: (pooled targets, reports, tables)."""
    method = METHODS[config.method]
    reg_targets = []
    reg_reports = {}
    tables = {}
    for w, lo, hi in zip(wells, bounds, bounds[1:]):
        scored = {"impedance": inputs[lo:hi, 0], "amplitude": inputs[lo:hi, 1],
                  "inst_frequency": inputs[lo:hi, 2]}
        sf_norm = w.series(targets[lo:hi])
        sf_reg, rep = method.regularize(sf_norm, config,
                                        w.series(scored["amplitude"]))
        reg_targets.append(sf_reg.values)
        reg_reports[w.well_id] = rep
        tables[w.well_id] = _well_tables(w, scored, sf_norm, sf_reg, rep,
                                         config.mi_bins)
    return np.concatenate(reg_targets), reg_reports, tables


def _run_attempt(wells, bounds, config: RunConfig, inputs, input_stats,
                 target_stats, regularized):
    """One split -> train -> evaluate pass on regularized targets."""
    reg_targets, reg_reports, tables = regularized
    bundle, history, (_, test, held_out) = train_model(
        wells, config, inputs, input_stats, reg_targets, target_stats)
    score = lambda rows: evaluate_subset(bundle, inputs[rows], reg_targets[rows])
    test_report = score(test)
    # each validation row's well: the block of the pooled table it falls in
    well_of = np.searchsorted(bounds, held_out, side="right") - 1
    validation = {w.well_id: score(held_out[well_of == k])
                  for k, w in enumerate(wells)}
    pooled = score(held_out)

    attempt = {
        "method_params": METHODS[config.method].describe(config),
        "regularization": reg_reports,
        "tables": tables,
        "train": {"iterations": history.iterations,
                  "final_loss": history.final_loss,
                  "stop_reason": history.stop_reason},
        "test": test_report.to_dict(),
        "validation": {wid: r.to_dict() for wid, r in validation.items()},
        "validation_pooled": pooled.to_dict(),
        "good_fit": {wid: _good_fit(r) for wid, r in validation.items()},
    }
    return attempt, bundle


def run_workflow(config: RunConfig):
    """Execute the full three-stage workflow.

    Returns (RunReport, ModelBundle, volumes dict or None).  When the
    pooled validation CC falls below the configured threshold the
    regularization is tightened per the fixed schedule and the model
    building stage repeats, at most max_attempts times, every attempt
    logged.  A tightened setting the engine rejects ends the schedule: the
    completed attempts stand, the last one recording why
    (`tightening_stopped`).

    The attribute volumes are read by block and never held whole.  With
    `predict` set, the predicted and filtered volumes are returned in
    memory; with `outdir` also set, they go to disk as they are computed
    and the third item is None."""
    if not config.wells:
        raise ConfigError("no wells configured")
    with contextlib.ExitStack() as stack:
        # opening checks every valid sample, so a NaN fails the run before
        # any training or output
        volumes = {name: stack.enter_context(
                       open_svol(getattr(config, f"vol_{name}")))
                   for name in ("imp", "amp", "freq")}
        for name in ("amp", "freq"):
            if not volumes["imp"].same_geometry(volumes[name]):
                raise DataError(f"{name} volume geometry differs from imp")
        wells = [prepare_well(wc, volumes, config.dt_ms) for wc in config.wells]
        report, bundle = _build_model(config, wells)
        out_volumes = None
        if config.predict:
            out_volumes = _post_process(config, bundle, list(volumes.values()))
    if config.outdir:
        write_run_outputs(config, report, bundle)
    return report, bundle, out_volumes


def _build_model(config: RunConfig, wells):
    """Regularize, train and validate, retrying with tightened settings;
    returns (RunReport, ModelBundle of the last attempt)."""
    inputs, input_stats, targets, target_stats = pool_patterns(wells)
    # well k's rows of the pooled table are bounds[k]:bounds[k + 1]
    bounds = np.cumsum([0] + [len(w.sf) for w in wells])

    params = config
    if config.method == "ft" and config.zeta_max_hz is None:
        # resolve the predictor-derived default once so the tightening
        # schedule and the report see one concrete number; the widest well
        # wins so no well starts over-truncated
        params = replace(config, zeta_max_hz=max(
            ftreg.default_zeta_max(w.series(inputs[lo:hi, 1]))
            for w, lo, hi in zip(wells, bounds, bounds[1:])
        ))
    attempts = []
    bundle = None
    for attempt_no in range(config.max_attempts):
        try:
            regularized = _regularize_wells(wells, bounds, params, inputs,
                                            targets)
        except (ConfigError, DataError) as exc:
            if not attempts:
                raise
            attempts[-1]["tightening_stopped"] = f"attempt {attempt_no}: {exc}"
            break
        attempt, bundle = _run_attempt(wells, bounds, params, inputs,
                                       input_stats, target_stats, regularized)
        attempt["attempt"] = attempt_no
        attempts.append(attempt)
        pooled_cc = attempt["validation_pooled"]["cc"]
        if not math.isnan(pooled_cc) and pooled_cc >= config.validation_cc_threshold:
            break
        tightened = METHODS[params.method].tighten(params)
        if tightened is None:
            break
        params = tightened

    report = RunReport(config_text=render_config(config), attempts=attempts,
                       chosen_attempt=len(attempts) - 1,
                       model=bundle.to_dict())
    return report, bundle


def _post_process(config: RunConfig, bundle: mlp.ModelBundle, sources):
    """Sweep the model over the attribute volumes and median filter the
    prediction.  Without an outdir both volumes are returned in memory;
    with one they stream into sf_pred.svol and sf_pred_med.svol, the
    filter reading the prediction back whole as its input, and None is
    returned."""
    if not config.outdir:
        predicted = volpost.predict_volume(bundle, sources)
        filtered = volpost.median_filter_3d(predicted, config.filter_window)
        return {"sf_pred": predicted, "sf_pred_med": filtered}
    os.makedirs(config.outdir, exist_ok=True)
    predicted = os.path.join(config.outdir, "sf_pred.svol")
    volpost.predict_volume(bundle, sources, predicted)
    volpost.median_filter_3d(read_svol(predicted), config.filter_window,
                             os.path.join(config.outdir, "sf_pred_med.svol"))
    return None


def write_run_outputs(config: RunConfig, report: RunReport,
                      bundle: mlp.ModelBundle) -> None:
    os.makedirs(config.outdir, exist_ok=True)
    join = lambda name: os.path.join(config.outdir, name)
    with open(join("report.json"), "w") as fh:
        fh.write(report.to_json())
    with open(join("resolved.cfg"), "w") as fh:
        fh.write(report.config_text)
    with open(join("tables.txt"), "w") as fh:
        fh.write(report_tables(report, fmt="text"))
    with open(join("tables.csv"), "w") as fh:
        fh.write(report_tables(report, fmt="csv"))
    mlp.save_model(join("model.json"), bundle)


def _fmt(x) -> str:
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.4f}"
    return str(x)


def report_tables(report: RunReport, fmt: str = "text") -> str:
    """Render the entropy, NMI and per-well validation tables of the chosen
    attempt, with the good-fit verdict per well."""
    final = report.final
    out = io.StringIO()
    sep = "," if fmt == "csv" else "  "

    def emit(*cells):
        print(sep.join(str(c) for c in cells), file=out)

    for well_id in sorted(final["tables"]):
        tables = final["tables"][well_id]
        emit(f"# entropy_bits well={well_id}")
        emit("variable", "entropy_bits")
        for name in sorted(tables["entropy_bits"]):
            emit(name, _fmt(tables["entropy_bits"][name]))
        emit(f"# nmi well={well_id}")
        emit("predictor", "vs_original_sf", "vs_regularized_sf")
        for name in sorted(tables["nmi"]):
            row = tables["nmi"][name]
            emit(name, _fmt(row["original"]), _fmt(row["regularized"]))
        emit()
    emit("# validation per well "
         f"(good fit: CC>{GOOD_FIT['cc_min']}, RMSE<{GOOD_FIT['rmse_max']}, "
         f"AEM<{GOOD_FIT['aem_max']}, SI<{GOOD_FIT['si_max']})")
    emit("well", "cc", "rmse", "aem", "si", "verdict")
    for well_id in sorted(final["validation"]):
        row = final["validation"][well_id]
        verdict = "pass" if final["good_fit"][well_id] else "FAIL"
        emit(well_id, _fmt(row["cc"]), _fmt(row["rmse"]), _fmt(row["aem"]),
             _fmt(row["si"]), verdict)
    pooled = final["validation_pooled"]
    emit("pooled", _fmt(pooled["cc"]), _fmt(pooled["rmse"]),
         _fmt(pooled["aem"]), _fmt(pooled["si"]), "")
    emit()
    emit("# test (pooled)")
    test = final["test"]
    emit("cc", "rmse", "aem", "si")
    emit(_fmt(test["cc"]), _fmt(test["rmse"]), _fmt(test["aem"]),
         _fmt(test["si"]))
    return out.getvalue()


def write_patterns_csv(path, wells: list) -> None:
    """Pattern file: well,time_ms,imp,amp,freq,sf — raw (unnormalized).

    Every number is written as `%.17g`, which round-trips a float64
    exactly; one format string covers all of a well's rows.
    """
    with open(path, "w") as fh:
        fh.write("well,time_ms,imp,amp,freq,sf\n")
        for w in wells:
            row = w.well_id.replace("%", "%%") + ",%.17g,%.17g,%.17g,%.17g,%.17g\n"
            table = np.column_stack([w.times_ms, w.imp, w.amp, w.freq, w.sf])
            fh.write(row * len(table) % tuple(table.ravel().tolist()))


def _parse_pattern_rows(rows: list) -> np.ndarray:
    """The five numeric cells of each `id,t,imp,amp,freq,sf` row.

    A row with fewer than six cells is a ValueError; cells past the sixth
    are not looked at.
    """
    return np.loadtxt(rows, delimiter=",", usecols=(1, 2, 3, 4, 5),
                      comments=None, ndmin=2)


def _bad_pattern_row(path, lines: list) -> DataError:
    """The error naming the first of `lines` (file line 2 onwards) that is
    neither blank nor a well id and five numbers."""
    for lineno, line in enumerate(lines, 2):
        line = line.strip()
        if not line:
            continue
        try:
            if line.count(",") != 5:
                raise ValueError
            _parse_pattern_rows([line])
        except ValueError:
            return DataError(f"{path}:{lineno}: expected a well id and five "
                             f"numbers, got {line!r}")
    return DataError(f"{path}: expected a well id and five numbers per row")


def read_patterns_csv(path) -> list:
    """Inverse of write_patterns_csv; returns a list of WellData.

    Blank lines are skipped.  A row that is not a well id and five numbers
    is a DataError naming its `path:line`, and so is a file with no rows
    after its header.
    """
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
        table = _parse_pattern_rows(rows)
    except ValueError:
        raise _bad_pattern_row(path, lines) from None
    # every row has at least five commas, so this total means exactly five
    if body.count(",") != 5 * len(rows):
        raise _bad_pattern_row(path, lines)
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
            sf=arr[:, 4], imp=arr[:, 1], amp=arr[:, 2], freq=arr[:, 3]))
    return wells
