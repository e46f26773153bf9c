"""Alternating parent/change runs of bench/run.py, with a gain verdict.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W
                                   [--pairs 10 --seconds 8 --seed S]

DIR is the root of a checkout.  Pair i runs `bench/run.py --workload W
--seed S+i --seconds SECONDS` once in each checkout, the parent first on
even pairs and the change first on odd ones.  Any run that reports
`correct: false` or `failed > 0` stops the script with exit status 1.

It prints every run's end-to-end metrics, then each side's median and
quartiles per metric, and a verdict per metric:

  gain        the change is better in at least 9/10 of the pairs (ties
              count for neither) and the medians differ by more than the
              parent's interquartile range
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json, relative to the parent
  unresolved  the parent's own spread (IQR over median) is wider than the
              bound, and not every change run beats every parent run
  no gain     none of the above

The exit status is 1 when a metric regresses.  The script writes nothing;
bench/run.py cleans up its own work directory.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def quartiles(values):
    """(first quartile, median, third quartile) of a list of numbers."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Compare paired runs of one end-to-end metric; parent[i] and
    change[i] come from pair i.  `better` is "lower" or "higher"; `bound`
    is the largest tolerated worsening of the median, as a fraction of the
    parent's median."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs on each side")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    iqr = p3 - p1
    gain_by = sign * (p_med - c_med)
    if gain_by < -bound * abs(p_med):
        kind = "regression"
    elif wins >= WIN_SHARE * len(parent) and gain_by > iqr:
        kind = "gain"
    elif iqr > bound * abs(p_med) and not all(
        sign * (c - q) < 0.0 for c in change for q in parent
    ):
        kind = "unresolved"
    else:
        kind = "no gain"
    return {
        "verdict": kind,
        "wins": wins,
        "pairs": len(parent),
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": iqr,
    }


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: {checkout}: bench/run.py exited "
                         f"{proc.returncode} without a result")
    if not result.get("correct") or result.get("failed", 0) > 0:
        print("\n".join(lines))
        raise SystemExit(f"bench_pairs: {checkout} seed {seed}: correct "
                         f"{result.get('correct')}, failed {result.get('failed')}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=9300)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(values)
            print(f"pair {i} seed {seed} {side:6s} " + " ".join(
                f"{m['name']} {values[m['name']]:.4f}" for m in metrics), flush=True)
    regressed = False
    print(f"\n{args.workload}: {args.pairs} pairs, {args.seconds:g} s runs")
    for m in metrics:
        name = m["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        v = verdict(parent, change, m["better"], m["bound"])
        for side, vals in (("parent", parent), ("change", change)):
            q1, q2, q3 = quartiles(vals)
            print(f"  {name} {side}: median {q2:.4f} quartiles {q1:.4f}-{q3:.4f}")
        print(f"  {name}: {v['verdict']} (change better in {v['wins']}/{v['pairs']}"
              f" pairs, medians {v['parent_median']:.4f} -> {v['change_median']:.4f},"
              f" parent IQR {v['parent_iqr']:.4f}, bound {m['bound']:g})")
        regressed |= v["verdict"] == "regression"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
