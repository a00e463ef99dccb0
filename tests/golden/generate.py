"""Regenerate the committed benchmark baseline (benchmark_baseline.json).

Run from the repository root after any intentional change to the synthetic
benchmark or the workflow:

    python tests/golden/generate.py

The file records, per regularization method, the validation metrics the
default-seed benchmark produces with the acceptance-run settings.  The
acceptance suite checks fresh runs against these numbers, so regenerating
it is a deliberate re-calibration, not a routine step.
"""

import json
import os
import sys
import tempfile

from seisreg import pipeline, synthbench

BENCH_SEED = 7
ACCEPTANCE_OVERRIDES = {"max_iters": "1500", "max_attempts": "1"}


def build_baseline():
    baseline = {"bench_seed": BENCH_SEED, "overrides": ACCEPTANCE_OVERRIDES,
                "methods": {}}
    with tempfile.TemporaryDirectory() as outdir:
        field = synthbench.generate_field(
            synthbench.SynthFieldParams(seed=BENCH_SEED))
        synthbench.write_field(field, outdir)
        text = synthbench.config_text(outdir)
        for method in pipeline.METHODS:
            config = pipeline.parse_config(
                text, {**ACCEPTANCE_OVERRIDES, "method": method})
            report, _, _ = pipeline.run_workflow(config)
            final = report.final
            baseline["methods"][method] = {
                "validation_pooled": final["validation_pooled"],
                "validation": final["validation"],
                "good_fit": final["good_fit"],
            }
    return baseline


def main():
    path = os.path.join(os.path.dirname(__file__), "benchmark_baseline.json")
    baseline = build_baseline()
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    for method, entry in baseline["methods"].items():
        pooled = entry["validation_pooled"]
        print(f"  {method:5s} cc={pooled['cc']:.4f} rmse={pooled['rmse']:.4f}")


if __name__ == "__main__":
    sys.exit(main())
