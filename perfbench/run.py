"""seisreg benchmark: runs one workload for a fixed time and prints its
metrics, as one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload wells_default --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 35 --trace 1

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off.  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics.  The names and units of both sets come from
BENCHMARK.json at the checkout root.  See perfbench/README.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import env  # first: pins the BLAS threads before numpy loads
import workloads
from spans import Tracer, median_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(env.ROOT, ".perfbench_work")
SETUP_TIMEOUT_S = 170
WORKLOAD_TIMEOUT_S = 900
MIN_PASSES = 2            # passes per untraced run, whatever --seconds says


def _digest(result) -> str:
    """sha256 over the command's output files (sorted) and its stdout."""
    h = hashlib.sha256(result.stdout.encode())
    for out in result.command.outputs:
        paths = [out]
        if os.path.isdir(out):
            paths = sorted(os.path.join(d, f) for d, _, files in os.walk(out)
                           for f in files)
        for path in paths:
            h.update(os.path.relpath(path, out).encode())
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_pass(commands) -> list:
    """One closed-loop pass: each command starts when the previous returns."""
    from seisreg import cli
    results = []
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(cmd.argv)
        except (Exception, SystemExit) as exc:
            code = -1
            err.write(f"{type(exc).__name__}: {exc}\n")
        results.append(workloads.CommandResult(
            cmd, code, out.getvalue(), err.getvalue(),
            time.perf_counter() - start))
    return results


class Run:
    """The passes of one run, their timings and their failures."""

    def __init__(self, wl, seed, field_dirs, out_dir):
        self.wl = wl
        self.seed = seed
        self.commands = [wl.commands(d, out_dir) for d in field_dirs]
        self.passes = []        # (seconds, results, traced)
        self.failures = []      # (pass index, label, reason)
        self.reference = {}     # field -> digests of its first pass

    def measure(self, field, traced, tracer=None):
        """Run and check one pass over the field-th field."""
        def body():
            return run_pass(self.commands[field])

        start = time.perf_counter()
        if tracer is None:
            results = body()
        else:
            results = tracer.run_pass(len(self.passes), body)
        elapsed = time.perf_counter() - start
        self._check(results, field, traced)
        self.passes.append((elapsed, results, traced))

    def _check(self, results, field, traced):
        n = len(self.passes)
        fails = self.wl.check(results, workloads.field_seed(self.seed, field),
                              env.ROOT)
        for r in results:
            if r.code != 0:
                fails[r.label].append(f"exit {r.code}: {r.stderr.strip()[-300:]}")
            r.digest = _digest(r)
        digests = {r.label: r.digest for r in results}
        reference = self.reference.setdefault(field, digests)
        what = "traced output" if traced else "repeat output"
        for label, d in digests.items():
            if d != reference[label]:
                fails[label].append(f"{what} differs from the first pass")
        for label, reasons in fails.items():
            for reason in reasons:
                self.failures.append((n, label, reason))

    def times(self, traced):
        return [p[0] for p in self.passes if p[2] == traced]

    @property
    def attempted(self):
        return sum(len(p[1]) for p in self.passes)

    @property
    def failed(self):
        return len({(n, label) for n, label, _ in self.failures})


def _keep_going(run, start, seconds, min_untraced, min_traced, step=1):
    """Start another `step` passes while a minimum is unmet or that many
    median passes still fit in the --seconds budget."""
    if (len(run.times(False)) < min_untraced
            or len(run.times(True)) < min_traced):
        return True
    elapsed = time.perf_counter() - start
    median = statistics.median(p[0] for p in run.passes)
    return elapsed + step * median <= seconds


def _setup(wl, seed, field_root):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "make_field.py"), "--workload",
         wl.name, "--seed", str(seed), "--out", field_root],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=env.ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_workload(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK, wl.name)
    field_root, out_dir = os.path.join(work, "field"), os.path.join(work, "out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(field_root)
    os.makedirs(out_dir)
    setup = _setup(wl, args.seed, field_root)
    field_dirs = [os.path.join(field_root, str(i)) for i in range(wl.fields)]
    run = Run(wl, args.seed, field_dirs, out_dir)
    from seisreg import cli  # noqa: F401  (its imports stay out of the first pass)
    start = time.perf_counter()
    values = {}
    if not args.trace:
        # passes take the run's fields in whole cycles, so that every field
        # weighs the same; run_s is the median over cycles of the mean pass
        cycle_s = []
        while _keep_going(run, start, args.seconds, MIN_PASSES, 0, wl.fields):
            for field in range(wl.fields):
                run.measure(field, traced=False)
            cycle_s.append(statistics.fmean(run.times(False)[-wl.fields:]))
        values["setup_s"] = setup["setup_s"]
        values["run_s"] = statistics.median(cycle_s)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        declared = _declared("end_to_end")
    else:
        # untraced and traced passes over the first field alternate after an
        # untraced first pass, which warms up and is left out of the overhead
        tracer = Tracer()
        per_pass = []
        while _keep_going(run, start, args.seconds, 2, 1):
            pid = len(run.passes)
            if pid % 2 == 0:
                run.measure(0, traced=False)
                continue
            tracer.install()
            try:
                run.measure(0, traced=True, tracer=tracer)
            finally:
                tracer.uninstall()
            per_pass.append(tracer.pass_metrics(pid))
        values = median_metrics(per_pass)
        traced_s = statistics.median(run.times(True))
        untraced_s = statistics.median(run.times(False)[1:])
        values["synthbench.generate_s"] = setup["generate_s"]
        values["trace.run_s"] = traced_s
        values["trace.untraced_run_s"] = untraced_s
        values["trace.overhead_s"] = traced_s - untraced_s
        values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        values["trace.accounted_frac"] = statistics.median(
            p["trace.pass_span_s"] / t for p, t in zip(per_pass, run.times(True)))
        if values["trace.min_self_s"] < -1e-6:
            run.failures.append((0, "trace", "negative self time"))
        if abs(values["trace.accounted_frac"] - 1.0) > 0.01:
            run.failures.append((0, "trace", "self times do not add up to run_s"))
        tracer.write(os.path.join(work, f"trace-seed{args.seed}.json"),
                     {"workload": wl.name, "env": env.record(args.seed)})
        declared = _declared("per_layer")

    quality = wl.quality(run.passes[0][1], field_dirs[0])
    if args.trace:
        # 0 on the workloads without a volume sweep, like every unused layer
        values["volpost.volume_cc"] = quality.get("volume_cc") or 0.0
    missing = sorted(set(declared) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    summary = {
        "workload": wl.name,
        "env": env.record(args.seed),
        "pass_s": [round(p[0], 4) for p in run.passes],
        "command_s": [[round(r.seconds, 4) for r in p[1]] for p in run.passes],
        "traced_passes": len(run.times(True)),
        "setup_reps": setup["reps"],
        "fail_frac": run.failed / run.attempted,
        **quality,
    }
    for n, label, reason in run.failures:
        print(f"# FAIL pass {n} {label}: {reason}", file=sys.stderr)
    print("# summary " + json.dumps(summary, sort_keys=True))
    for name in declared:
        print(f"# {name} = {values[name]:.6g} {declared[name]}")
    shutil.rmtree(field_root, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, so peak RSS is per workload;
    prints one table of every end-to-end metric."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S,
            cwd=env.ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        summary = next(json.loads(line[len("# summary "):]) for line in lines
                       if line.startswith("# summary "))
        results[name] = (summary, json.loads(lines[-1]))
    print(f"env {json.dumps(summary['env'], sort_keys=True)}")
    print(f"{'workload':16s} {'metric':32s} {'value':>14s}  unit")
    for name, (summary, result) in results.items():
        rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
        rows.append(("fail_frac", summary["fail_frac"], "ratio"))
        for key in ("validation_cc", "volume_cc"):
            if summary.get(key) is not None:
                rows.append((key, summary[key], "cc"))
        for metric, value, unit in rows:
            print(f"{name:16s} {metric:32s} {value:14.6g}  {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results.values()),
        "attempted": sum(r["attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
        "metrics": {f"{name}.{m}": v for name, (_, r) in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        env.import_seisreg()
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
