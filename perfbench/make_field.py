"""Set-up step of one benchmark run, in a process of its own.

Generates the workload's synthetic fields from the seed with ``seisreg
synth`` and writes them to DIR/0, DIR/1, ..., several times over, and
prints the timings as one JSON line.  It runs apart from the measured process so that the
field generator's memory does not count toward the workload's peak RSS.

    python3 perfbench/make_field.py --workload NAME --seed N --out DIR
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time

import env  # first: pins the BLAS threads before numpy loads
import workloads

MIN_REPS = 3
MAX_REPS = 50
MIN_TOTAL_S = 3.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    env.import_seisreg()
    from seisreg import cli, synthbench

    wl = workloads.WORKLOADS[args.workload]
    generate = synthbench.generate_field
    gen_s = []      # per repeat: time inside generate_field

    def timed_generate(params):
        start = time.perf_counter()
        field = generate(params)
        gen_s[-1] += time.perf_counter() - start
        return field

    synthbench.generate_field = timed_generate
    dirs = [os.path.join(args.out, str(i)) for i in range(wl.fields)]
    argvs = [["synth", "--seed", str(workloads.field_seed(args.seed, i)),
              "--out", d, "--inlines", str(wl.n_inlines),
              "--xlines", str(wl.n_xlines), "--samples", str(wl.n_samples)]
             for i, d in enumerate(dirs)]
    setup_s = []
    while len(setup_s) < MAX_REPS and (
            len(setup_s) < MIN_REPS or sum(setup_s) < MIN_TOTAL_S):
        gen_s.append(0.0)
        start = time.perf_counter()
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                print(f"seisreg synth exited {code}", file=sys.stderr)
                return 1
        setup_s.append(time.perf_counter() - start)
    synthbench.generate_field = generate
    for d in dirs:
        workloads.write_config(d, wl)
    print(json.dumps({"setup_s": statistics.median(setup_s),
                      "generate_s": statistics.median(gen_s),
                      "reps": len(setup_s)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
