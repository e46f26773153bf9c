"""fracstab benchmark: four workloads, end-to-end metrics, traced layer metrics.

    python3 bench/run.py --workload {certify,propagate,abm,cli-suite}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over fresh interpreters of the time from spawn to the
               first item starting (imports plus input construction)
  pass_s       median wall seconds of one pass over the workload's items;
               passes repeat until S seconds have elapsed
  peak_rss_mb  peak resident memory (for cli-suite the largest child)
--trace 1 spends half of S on untraced passes (per-item times, baseline)
and half on traced passes, then reports the per-layer metrics of one pass.

Every item is checked after it runs; the last line of standard output is
one JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracstab"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPS = 3
WRONG_REFERENCE_SCALE = 1.01


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True,
                   choices=("certify", "propagate", "abm", "cli-suite"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print time.monotonic() and exit (used for setup_s)")
    return p.parse_args(argv)


def prepare(workload, seed, work_dir, scale=1.0):
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads.build(workload, seed, work_dir, scale)


def main(argv):
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: no fracstab package at {PACKAGE}", file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    import shutil

    try:
        if args.setup_probe:
            prepare(args.workload, args.seed, work_dir)
            print(repr(time.monotonic()))
            return 0
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def measure(args, work_dir):
    import json
    import statistics

    from runner import (
        machine, ml_band_probe, peak_rss_mb, run_passes, setup_seconds,
        traced_run, write_trace,
    )

    setups = [] if args.trace else setup_seconds(args, SETUP_REPS)
    items, inputs, suite = prepare(args.workload, args.seed, work_dir / "main")
    import fracstab

    if Path(fracstab.__file__).resolve().parent != PACKAGE.resolve():
        print(f"bench: imported fracstab from {fracstab.__file__}", file=sys.stderr)
        return 2
    # two passes at least: cli-suite compares the bytes of two passes, and a
    # run-level median needs more than one sample; a certify pass alone
    # outlasts a run
    min_passes = 1 if args.workload == "certify" else 2
    problems = []
    budget = args.seconds / 2.0 if args.trace else args.seconds
    plain = run_passes(items, suite, budget, min_passes)
    log, attempted, failed = plain.log, plain.attempted, plain.failed
    if args.trace:
        traced, metrics, dump = traced_run(args, items, suite, plain, problems)
        metrics.update(ml_band_probe(args.seed, problems))
        log += traced.log
        attempted += traced.attempted
        failed += traced.failed
        metrics["fail_frac"] = (failed / attempted, "ratio")
        metrics["pass_s.samples"] = (len(plain.pass_s), "count")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(plain.pass_s), "s"),
            "peak_rss_mb": (peak_rss_mb(suite), "MB"),
        }
        log.append("setup_s samples: " + " ".join(f"{v:.3f}" for v in setups))
    log.append(f"pass_s samples {len(plain.pass_s)}: "
               + " ".join(f"{v:.3f}" for v in plain.pass_s))

    # self-checks: the seed changes the inputs, and a wrong reference
    # counts as a failure
    _, other_inputs, _ = prepare(args.workload, args.seed + 1, work_dir / "other")
    if json.dumps(other_inputs) == json.dumps(inputs):
        problems.append("changing the seed did not change the inputs")
    wrong, _, _ = prepare(args.workload, args.seed, work_dir / "wrong",
                          WRONG_REFERENCE_SCALE)
    if not any(w.check(plain.outputs[w.name]) for w in wrong):
        problems.append("a wrong reference value was not counted as a failure")

    for line in log + problems:
        print(line)
    print(json.dumps({"machine": machine(), "workload": args.workload,
                      "seed": args.seed, "inputs": inputs}))
    if args.trace:
        print(f"spans written to {write_trace(args, dump, metrics)}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main(sys.argv[1:]))
