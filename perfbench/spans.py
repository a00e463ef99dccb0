"""Spans around the calls into seisreg's layers, recorded from outside.

The tracer replaces a public function at the module attribute its caller
resolves at call time (``pipeline.read_svol``, ``mlp.gradient``,
``emdreg.find_extrema``...) with a wrapper that records one span per call:
its name, start, end, parent span and pass id.  Spans stay in memory until
the run ends.  ``uninstall`` puts every original function back, so the
untraced passes run the program exactly as shipped.

A span's layer is the part of its name before the first dot.  ``pass`` (one
workload pass) and ``cli`` (argument parsing and dispatch) are glue and are
booked to ``pipeline``, so the per-layer self times of a pass add up to the
pass's duration.
"""

import importlib
import inspect
import json
import os
import statistics
import time

GLUE_LAYERS = {"pass": "pipeline", "cli": "pipeline"}


# Counter hooks take the call's arguments by parameter name, and its result.

def _read_bytes(arg, result):
    return {"formats.svol_bytes_read": os.path.getsize(arg["path"])}


def _written_bytes(arg, result):
    return {"formats.svol_bytes_written": os.path.getsize(arg["path"])}


def _sinc_elems(arg, result):
    # the full-support kernel is n_out x n_src
    return {"resample.sinc_kernel_elems": arg["n_out"] * len(arg["trace"])}


def _imf_count(arg, result):
    return {"emdreg.imf_count": len(result)}


def _scg_history(arg, result):
    history = result[1]
    return {"mlp.scg_iterations": history.iterations,
            "mlp.scg_accepted": sum(history.accepted)}


def _forward_rows(arg, result):
    return {"mlp.forward_rows": len(result)}


def _median_counts(arg, result):
    voxels = arg["vol"].data.size
    window = arg["window"]
    edges = (window,) * 3 if isinstance(window, int) else tuple(window)
    cells = edges[0] * edges[1] * edges[2]
    # one float64 stack plane plus one bool validity plane per window cell
    return {"volpost.voxels": voxels,
            "volpost.median_stack_bytes": cells * voxels * 9}


def _workflow_report(arg, result):
    # counters add up over a pass; each workload runs a method at most once
    # per pass, so the sum is that run's CC
    report = result[0]
    method = report.final["method_params"]["method"]
    return {"pipeline.attempts": len(report.attempts),
            f"pipeline.validation_cc.{method}":
                report.final["validation_pooled"]["cc"]}


# (module, attribute, span name, counter hook).  A function imported into
# several modules is wrapped at each binding that the commands reach.
INSTRUMENTS = [
    ("cli", "main", "cli.main", None),
    ("cli", "read_svol", "formats.read_svol", _read_bytes),
    ("pipeline", "read_svol", "formats.read_svol", _read_bytes),
    ("pipeline", "write_svol", "formats.write_svol", _written_bytes),
    ("pipeline", "parse_las", "formats.parse_las", None),
    ("pipeline", "prepare_well", "resample.prepare_well", None),
    ("resample", "sinc_resample", "resample.sinc_resample", _sinc_elems),
    ("ftreg", "regularize_ft", "ftreg.regularize_ft", None),
    ("ftreg", "default_zeta_max", "ftreg.default_zeta_max", None),
    ("waveletreg", "regularize_wd", "waveletreg.regularize_wd", None),
    ("emdreg", "emd", "emdreg.emd", _imf_count),
    ("emdreg", "regularize_emd", "emdreg.regularize_emd", None),
    ("emdreg", "envelope_mean", "emdreg.envelope_mean", None),
    ("emdreg", "find_extrema", "emdreg.find_extrema", None),
    ("metrics", "psd", "metrics.psd", None),
    ("metrics", "spectral_entropy", "metrics.spectral_entropy", None),
    ("ftreg", "psd", "metrics.psd", None),
    ("ftreg", "spectral_entropy", "metrics.spectral_entropy", None),
    ("waveletreg", "psd", "metrics.psd", None),
    ("waveletreg", "spectral_entropy", "metrics.spectral_entropy", None),
    ("emdreg", "psd", "metrics.psd", None),
    ("emdreg", "spectral_entropy", "metrics.spectral_entropy", None),
    ("metrics", "nmi", "metrics.nmi", None),
    ("mlp", "scg_train", "mlp.scg_train", _scg_history),
    ("mlp", "gradient", "mlp.gradient", None),
    ("mlp", "loss", "mlp.loss", None),
    ("mlp", "forward_batch", "mlp.forward_batch", _forward_rows),
    ("volpost", "predict_volume", "volpost.predict_volume", None),
    ("volpost", "median_filter_3d", "volpost.median_filter_3d", _median_counts),
    ("pipeline", "run_workflow", "pipeline.run_workflow", _workflow_report),
    ("pipeline", "write_run_outputs", "pipeline.write_run_outputs", None),
    ("pipeline", "read_patterns_csv", "pipeline.read_patterns_csv", None),
    ("pipeline", "write_patterns_csv", "pipeline.write_patterns_csv", None),
]

LAYERS = ("formats", "resample", "ftreg", "waveletreg", "emdreg", "metrics",
          "mlp", "volpost", "pipeline")


class Tracer:
    """Span recorder; install() wraps the layer entry points, uninstall()
    restores them."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, pass id]
        self.counters = {}     # pass id -> {counter: value}
        self._stack = []
        self._pass = None
        self._saved = []

    def install(self):
        for mod_name, attr, span_name, hook in INSTRUMENTS:
            module = importlib.import_module(f"seisreg.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, hook))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, self._pass]
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = self.counters[self._pass]
                for key, value in hook(bound.arguments, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def run_pass(self, pass_id, body):
        """Run body() as the root span of one pass; returns its result."""
        self._pass = pass_id
        self.counters[pass_id] = {}
        root = self._wrap("pass", body, None)
        try:
            return root()
        finally:
            self._pass = None

    def pass_metrics(self, pass_id) -> dict:
        """Per-layer times and counts of one pass."""
        idx = [i for i, s in enumerate(self.spans) if s[4] == pass_id]
        dur = {i: self.spans[i][2] - self.spans[i][1] for i in idx}
        child_time = {i: 0.0 for i in idx}
        for i in idx:
            parent = self.spans[i][3]
            if parent >= 0:
                child_time[parent] += dur[i]
        self_s = {layer: 0.0 for layer in LAYERS}
        calls, incl = {}, {}
        for i in idx:
            name = self.spans[i][0]
            layer = name.split(".", 1)[0]
            layer = GLUE_LAYERS.get(layer, layer)
            self_s[layer] += dur[i] - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur[i]
        root = [i for i in idx if self.spans[i][0] == "pass"]

        def outer_time(names):
            """Time inside any of `names`, not counting nested repeats."""
            total = 0.0
            for i in idx:
                if self.spans[i][0] not in names:
                    continue
                parent = self.spans[i][3]
                while parent >= 0 and self.spans[parent][0] not in names:
                    parent = self.spans[parent][3]
                if parent < 0:
                    total += dur[i]
            return total

        c = self.counters[pass_id]
        n_iter = c.get("mlp.scg_iterations", 0)
        evals = calls.get("mlp.gradient", 0) + calls.get("mlp.loss", 0)
        out = {
            "formats.read_svol_s": incl.get("formats.read_svol", 0.0),
            "formats.write_svol_s": incl.get("formats.write_svol", 0.0),
            "formats.svol_bytes_read": c.get("formats.svol_bytes_read", 0),
            "formats.svol_bytes_written": c.get("formats.svol_bytes_written", 0),
            "formats.parse_las_s": incl.get("formats.parse_las", 0.0),
            "resample.prepare_well_s": incl.get("resample.prepare_well", 0.0),
            "resample.sinc_resample_s": incl.get("resample.sinc_resample", 0.0),
            "resample.sinc_calls": calls.get("resample.sinc_resample", 0),
            "resample.sinc_kernel_elems": c.get("resample.sinc_kernel_elems", 0),
            "ftreg.regularize_s": incl.get("ftreg.regularize_ft", 0.0),
            "waveletreg.regularize_s": incl.get("waveletreg.regularize_wd", 0.0),
            "emdreg.regularize_s": outer_time({"emdreg.emd",
                                               "emdreg.regularize_emd"}),
            "emdreg.find_extrema_s": incl.get("emdreg.find_extrema", 0.0),
            "emdreg.find_extrema_calls": calls.get("emdreg.find_extrema", 0),
            "emdreg.envelope_mean_calls": calls.get("emdreg.envelope_mean", 0),
            "emdreg.imf_count": c.get("emdreg.imf_count", 0),
            "metrics.entropy_s": outer_time({"metrics.psd",
                                             "metrics.spectral_entropy"}),
            "metrics.entropy_calls": calls.get("metrics.spectral_entropy", 0),
            "metrics.nmi_s": incl.get("metrics.nmi", 0.0),
            "metrics.nmi_calls": calls.get("metrics.nmi", 0),
            "mlp.scg_train_s": incl.get("mlp.scg_train", 0.0),
            "mlp.gradient_s": incl.get("mlp.gradient", 0.0),
            "mlp.gradient_calls": calls.get("mlp.gradient", 0),
            "mlp.loss_s": incl.get("mlp.loss", 0.0),
            "mlp.loss_calls": calls.get("mlp.loss", 0),
            "mlp.scg_iterations": n_iter,
            "mlp.evals_per_iter": evals / n_iter if n_iter else 0.0,
            "mlp.accept_ratio":
                c.get("mlp.scg_accepted", 0) / n_iter if n_iter else 0.0,
            "mlp.forward_batch_s": incl.get("mlp.forward_batch", 0.0),
            "mlp.forward_rows": c.get("mlp.forward_rows", 0),
            "volpost.predict_volume_s": incl.get("volpost.predict_volume", 0.0),
            "volpost.median_filter_s": incl.get("volpost.median_filter_3d", 0.0),
            "volpost.voxels": c.get("volpost.voxels", 0),
            "volpost.median_stack_bytes": c.get("volpost.median_stack_bytes", 0),
            "pipeline.run_workflow_s": incl.get("pipeline.run_workflow", 0.0),
            "pipeline.write_outputs_s":
                incl.get("pipeline.write_run_outputs", 0.0),
            "pipeline.read_patterns_s":
                incl.get("pipeline.read_patterns_csv", 0.0),
            "pipeline.write_patterns_s":
                incl.get("pipeline.write_patterns_csv", 0.0),
            "pipeline.attempts": c.get("pipeline.attempts", 0),
            "trace.spans": len(idx),
            "trace.pass_span_s": sum(dur[i] for i in root),
            "trace.min_self_s": min(
                (dur[i] - child_time[i] for i in idx), default=0.0),
        }
        for method in ("none", "avg9", "ft", "wd", "emd"):
            key = f"pipeline.validation_cc.{method}"
            out[key] = c.get(key, 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def write(self, path, extra: dict):
        """Write every span and counter as JSON (names interned)."""
        names = sorted({s[0] for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "pass"]
        doc["span_names"] = names
        doc["spans"] = [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        doc["counters"] = {str(k): v for k, v in self.counters.items()}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes."""
    return {key: statistics.median(p[key] for p in per_pass)
            for key in per_pass[0]}
