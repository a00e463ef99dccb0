"""seisreg command line interface.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
divergence.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import emdreg, metrics, mlp, pipeline, synthbench, volpost
from .errors import ConfigError, DataError, DivergenceError
from .formats.las import parse_las
from .formats.segy import TraceLayout, parse_segy
from .formats.svol import open_svol, read_svol, write_svol
from .formats.volume import ATTRIBUTE_LONG_NAMES


def _cmd_convert(args):
    if bool(args.segy) == bool(args.las):
        raise ConfigError("convert needs exactly one of --segy or --las")
    if args.segy:
        layout = TraceLayout(args.inline_byte, args.xline_byte)
        with open(args.segy, "rb") as fh:
            vol = parse_segy(fh.read(), layout)
        vol.attribute_name = args.attribute
        write_svol(args.out, vol)
        print(f"wrote {args.out}: {len(vol.inlines)}x{len(vol.xlines)}x"
              f"{vol.n_samples} at dt={vol.dt_ms} ms")
        return
    with open(args.las) as fh:
        log = parse_las(fh.read())
    # %.17g writes only a NaN as "nan"; a NaN cell is written empty
    row = ",".join(["%.17g"] * len(log.curves)) + "\n"
    body = row * len(log.rows) % tuple(log.rows.ravel().tolist())
    with open(args.out, "w") as fh:
        fh.write(",".join(log.curve_names) + "\n")
        fh.write(body.replace("nan", ""))
    print(f"wrote {args.out}: {log.rows.shape[0]} rows, "
          f"{len(log.curves)} curves")


def _cmd_synth(args):
    params = synthbench.SynthFieldParams(
        seed=args.seed, n_inlines=args.inlines, n_xlines=args.xlines,
        n_samples=args.samples, layer_count=args.layers,
        wavelet_center_freq_hz=args.wavelet_freq, noise_level=args.noise)
    field = synthbench.generate_field(params)
    synthbench.write_field(field, args.out)
    print(f"wrote benchmark field to {args.out} "
          f"({len(field.wells)} wells, seed {args.seed})")


def _well_configs(args):
    wells = []
    for spec in args.well:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--well needs ID:las_path:velocity_csv, got {spec!r}")
        # the id is the first column of the pattern CSV that prep writes,
        # and its reader strips each row
        well_id = parts[0].strip()
        if not well_id or "," in well_id:
            raise ConfigError(f"--well id {parts[0]!r} is empty or contains a comma")
        if well_id in (w.well_id for w in wells):
            raise ConfigError(f"--well: repeated well id {well_id!r}")
        wells.append(pipeline.WellConfig(well_id=well_id, las_path=parts[1],
                                         velocity_path=parts[2]))
    return wells


def _cmd_prep(args):
    pipeline.RunConfig(dt_ms=args.dt)       # checks --dt before any input is read
    configs = _well_configs(args)
    paths = [getattr(args, name) for name in ATTRIBUTE_LONG_NAMES]
    with pipeline.open_attributes(paths) as volumes:
        wells = [pipeline.prepare_well(wc, volumes, args.dt) for wc in configs]
    pipeline.write_patterns_csv(args.out, wells)
    total = sum(len(w.sf) for w in wells)
    print(f"wrote {args.out}: {total} patterns from {len(wells)} wells at "
          f"dt={args.dt} ms")


def _cmd_metrics(args):
    pipeline.RunConfig(mi_bins=args.bins)   # checks --bins before the file is read
    wells = pipeline.read_patterns_csv(args.patterns)
    # built whole, so a failure part way (a bad --bins) prints nothing
    tables = {w.well_id: pipeline.well_tables(w, {"original": w.series(w.sf)}, args.bins)
              for w in wells}
    sys.stdout.write(pipeline.tables_text(tables, args.format))


def _cmd_regularize(args):
    settings = {p.key: getattr(args, p.key) for p in pipeline.PARAMS.values()
                if getattr(args, p.key) is not None}
    config = pipeline.parse_config("", {**settings, "method": args.method})
    wells = pipeline.read_patterns_csv(args.patterns)
    pairs, reports = pipeline.regularize_wells(wells, config)
    for w, (_, shaped) in zip(wells, pairs):
        w.sf = shaped.values
    pipeline.write_patterns_csv(args.out, wells)
    with open(args.report, "w") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} and {args.report}")


def _cmd_emd_dump(args):
    params = emdreg.SiftParams(sd_threshold=args.sd)
    wells = pipeline.read_patterns_csv(args.patterns)
    os.makedirs(args.out, exist_ok=True)
    for w in wells:
        decomposition = emdreg.emd(w.series(w.sf), params)
        path = os.path.join(args.out, f"emd_{w.well_id}.csv")
        names = [f"imf_{i + 1}" for i in range(len(decomposition))]
        with open(path, "w") as fh:
            fh.write("time_ms," + ",".join(names + ["residue"]) + "\n")
            table = np.column_stack([w.times_ms]
                                    + [imf.values for imf in decomposition.imfs]
                                    + [decomposition.residue.values])
            row = ",".join(["%.17g"] * table.shape[1]) + "\n"
            fh.write(row * len(table) % tuple(table.ravel().tolist()))
        print(f"wrote {path}: {len(decomposition)} IMFs + residue")


def _cmd_train(args):
    config = pipeline.RunConfig(hidden=args.hidden, max_iters=args.max_iters,
                                train_seed=args.seed, split_seed=args.split_seed,
                                target_loss=args.target_loss)
    wells = pipeline.read_patterns_csv(args.patterns)
    inputs, input_stats, targets, target_stats = pipeline.pool_patterns(wells)
    bundle, history, (_, test, validation) = pipeline.train_model(
        wells, config, inputs, input_stats, targets, target_stats)
    mlp.save_model(args.out, bundle)

    def describe(rows):
        scores = pipeline.evaluate_subset(bundle, inputs[rows], targets[rows])
        return " ".join(f"{k}={scores[k]:.4f}" for k in metrics.EVALUATORS)

    print(f"trained {history.iterations} iterations "
          f"(stop: {history.stop_reason}, loss {history.final_loss:.3e})")
    print(f"test:       {describe(test)}")
    print(f"validation: {describe(validation)}")
    print(f"wrote {args.out}")


def _cmd_predict(args):
    paths = args.vol.split(",")
    if len(paths) != 3:
        raise ConfigError("--vol needs imp.svol,amp.svol,freq.svol")
    bundle = mlp.load_model(args.model)
    with pipeline.open_attributes(paths, bundle.attribute_names) as vols:
        volpost.predict_volume(bundle, vols, args.out)
    print(f"wrote {args.out}")


def _cmd_filter(args):
    pipeline.RunConfig(filter_window=args.window)   # checks --window first
    vol = read_svol(args.infile)
    volpost.median_filter_3d(vol, args.window, args.out)
    print(f"wrote {args.out}")


def _cmd_slice(args):
    with open_svol(args.infile) as reader:
        csv = volpost.heatmap_csv(reader, args.inline)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv)


def _cmd_run(args):
    with open(args.config) as fh:
        text = fh.read()
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    config = pipeline.parse_config(text, overrides)
    report, _ = pipeline.run_workflow(config)
    final = report.final
    pooled = final["validation_pooled"]
    print(f"method={final['method_params']['method']} "
          f"attempts={len(report.attempts)} "
          f"validation_cc={pooled['cc']:.4f} rmse={pooled['rmse']:.4f}")
    if config.outdir:
        print(f"outputs in {config.outdir}")
    else:
        sys.stdout.write(pipeline.report_tables(final))


def _cmd_report(args):
    with open(args.report) as fh:
        try:
            data = json.load(fh)
            text = pipeline.report_tables(
                data["attempts"][data["chosen_attempt"]], fmt=args.format)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise DataError(f"{args.report}: not a run report "
                            f"({type(exc).__name__}: {exc})") from None
    sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seisreg",
        description="Sand fraction from seismic attributes: preprocessing, "
                    "SCG-trained MLP, volume post-processing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="SEG-Y to .svol, or LAS to CSV")
    p.add_argument("--segy", default="")
    p.add_argument("--las", default="")
    p.add_argument("--out", required=True)
    p.add_argument("--attribute", default="")
    p.add_argument("--inline-byte", type=int,
                   default=TraceLayout.inline_byte_offset)
    p.add_argument("--xline-byte", type=int,
                   default=TraceLayout.xline_byte_offset)
    p.set_defaults(func=_cmd_convert)

    synth = synthbench.SynthFieldParams
    p = sub.add_parser("synth", help="generate the synthetic benchmark field")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--inlines", type=int, default=synth.n_inlines)
    p.add_argument("--xlines", type=int, default=synth.n_xlines)
    p.add_argument("--samples", type=int, default=synth.n_samples)
    p.add_argument("--layers", type=int, default=synth.layer_count)
    p.add_argument("--wavelet-freq", type=float,
                   default=synth.wavelet_center_freq_hz)
    p.add_argument("--noise", type=float, default=synth.noise_level)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("prep", help="LAS + velocity + volumes to pattern CSV")
    for name in ATTRIBUTE_LONG_NAMES:
        p.add_argument(f"--{name}", required=True)
    p.add_argument("--well", action="append", required=True,
                   metavar="ID:las:velocity_csv")
    p.add_argument("--dt", type=float, default=pipeline.RunConfig.dt_ms)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prep)

    p = sub.add_parser("metrics", help="the per-well entropy and NMI tables of a "
                       "run's tables.txt for a pattern CSV, raw target only")
    p.add_argument("patterns")
    p.add_argument("--bins", type=int, default=pipeline.RunConfig.mi_bins)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("regularize", help="filter the target column of a pattern CSV")
    p.add_argument("patterns")
    p.add_argument("--method", choices=tuple(pipeline.METHODS), required=True)
    for param in pipeline.PARAMS.values():
        # unset flags keep the RunConfig defaults
        p.add_argument(param.flag, dest=param.key, help=param.help)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("emd-dump", help="write each IMF and the residue as CSV")
    p.add_argument("patterns")
    p.add_argument("--sd", type=float, default=pipeline.RunConfig.sd_threshold)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_emd_dump)

    p = sub.add_parser("train", help="train the MLP on a pattern CSV")
    p.add_argument("patterns")
    p.add_argument("--hidden", type=int, default=pipeline.RunConfig.hidden)
    p.add_argument("--max-iters", type=int, default=pipeline.RunConfig.max_iters)
    p.add_argument("--seed", type=int, default=pipeline.RunConfig.train_seed)
    p.add_argument("--split-seed", type=int, default=pipeline.RunConfig.split_seed)
    p.add_argument("--target-loss", type=float,
                   default=pipeline.RunConfig.target_loss)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="sweep a trained model over a volume")
    p.add_argument("--model", required=True)
    p.add_argument("--vol", required=True, metavar="imp.svol,amp.svol,freq.svol")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("filter", help="3-D median filter a .svol volume")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", type=int, default=pipeline.RunConfig.filter_window)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("slice", help="inline section as heatmap CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--inline", type=int, required=True)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("run", help="full workflow from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="key=value",
                   help="override a config key")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="render tables from a report.json")
    p.add_argument("report")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
