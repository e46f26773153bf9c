"""Pass loop, setup timing, traced per-layer metrics and the ML band probe."""

import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import BANDS, Tracer, aggregate, band_counts

BENCH_DIR = Path(__file__).resolve().parent

WORKLOAD_ITEMS = {
    "certify": ("rotation-decaying", "diag3-saturating"),
    "propagate": ("lp-graded-scalar", "lp-uniform-rotation", "exact-graded-rotation"),
    "abm": ("abm-uniform-scalar", "abm-graded-saturating", "boundedness-diag2",
            "abm-rotation-ensemble"),
    "cli-suite": ("ml", "solve", "analyze", "fit", "demo", "cex", "bnd"),
}
LAYERS = ("special_fn", "matfun", "quad", "solver", "stability", "cli")
POINT_FUNCTIONS = ("special_fn.ml", "special_fn.ml_many", "special_fn.ml_dlambda",
                   "special_fn.ml_log_positive")
PROBE_POINTS = 200
PROBE_ULP_TOL = 1e-15


@dataclass
class Passes:
    pass_s: list = field(default_factory=list)
    item_s: dict = field(default_factory=lambda: defaultdict(list))
    outputs: dict = field(default_factory=dict)   # last pass
    digests: dict = field(default_factory=dict)   # first pass
    attempted: int = 0
    failed: int = 0
    log: list = field(default_factory=list)


def run_passes(items, suite, budget, min_passes, tracer=None):
    """Repeat passes over the items until `budget` seconds have passed and
    at least `min_passes` are done; check every item after it runs."""
    res = Passes()
    deadline = time.monotonic() + budget
    while len(res.pass_s) < min_passes or time.monotonic() < deadline:
        if suite is not None:
            suite.begin_pass()
        total = 0.0
        for item in items:
            if tracer is not None:
                tracer.begin_item(item.name)
            t0 = time.perf_counter()
            try:
                out = item.run()
                error = None
            except Exception as exc:  # an item that raises counts as failed
                out = None
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            total += elapsed
            bad = [error] if error else item.check(out)
            res.attempted += 1
            if bad:
                res.failed += 1
                res.log.append(f"FAIL {item.name}: " + "; ".join(bad))
            res.item_s[item.name].append(elapsed)
            res.outputs[item.name] = out
            if item.name not in res.digests and error is None:
                res.digests[item.name] = item.digest(out)
        if tracer is not None:
            tracer.begin_item(None)
        res.pass_s.append(total)
    return res


def setup_seconds(args, reps):
    """Spawn-to-first-item seconds of `reps` fresh interpreters."""
    out = []
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(reps):
        t0 = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True, check=True)
        out.append(float(done.stdout.split()[-1]) - t0)
    return out


def peak_rss_mb(suite):
    if suite is not None:
        return max(c["rss_kb"] for c in suite.children) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# -- traced run -------------------------------------------------------------


def traced_run(args, items, suite, plain, problems):
    """Traced passes for the second half of the run; returns them, the
    per-layer metrics of one pass, and the raw spans and counts."""
    if tuple(item.name for item in items) != WORKLOAD_ITEMS[args.workload]:
        problems.append("WORKLOAD_ITEMS does not list this workload's items")
    tracer = Tracer()
    tracer.install("fracstab")
    left = tracer.unwrapped_entry_points("fracstab", [sys.modules["workloads"]])
    if left:
        problems.append("unwrapped entry points after install: " + ", ".join(left))
    if suite is not None:
        suite.trace = True
        first_child = len(suite.children)
    try:
        traced = run_passes(items, suite, args.seconds / 2.0, 1, tracer)
    finally:
        tracer.uninstall()
        if suite is not None:
            suite.trace = False
    for name, digest in plain.digests.items():
        if traced.digests.get(name) != digest:
            problems.append(f"traced output of {name} differs from the untraced one")

    spans = list(tracer.spans)
    counts = Counter(tracer.counts)
    startup = 0.0
    files = written = 0
    if suite is not None:
        # child span ids become (child number, id), unique after the merge
        for k, child in enumerate(suite.children[first_child:], start=1):
            for sid, parent, name, t0, t1, item in child.get("spans", []):
                spans.append(((k, sid), (k, parent) if parent else 0,
                              name, t0, t1, item))
            counts.update(child.get("counts", {}))
            startup += child.get("startup_s", 0.0)
        for out in traced.outputs.values():   # the last traced pass
            files += len(out["files"])
            written += sum(len(b) for b in out["files"].values())

    n = len(traced.pass_s)
    calls, total, self_s, by_parent = aggregate(spans)

    def per_pass(x):
        return x / n

    def layer_self(prefix):
        return per_pass(sum(v for k, v in self_s.items() if k.startswith(prefix + ".")))

    def ratio(num, den):
        return num / den if den else 0.0

    points = counts["special_fn.points"]
    point_self = sum(self_s[f] for f in POINT_FUNCTIONS)
    repeat_names = ("matfun.kernel_integral", "matfun.sup_ml_norm",
                    "special_fn.estimate_decay_constant")
    m = {
        "special_fn.us_per_point": (1e6 * ratio(point_self, points), "us"),
        "special_fn.calls": (per_pass(counts["special_fn.point_calls"]), "count"),
        "special_fn.points": (per_pass(points), "count"),
        "special_fn.points_per_call": (ratio(points, counts["special_fn.point_calls"]),
                                       "ratio"),
    }
    for band in BANDS:
        m[f"special_fn.points.{band}"] = (per_pass(counts[f"special_fn.points.{band}"]),
                                          "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    mm = "matfun.ml_matrix"
    m.update({
        "matfun.ml_matrix.calls": (per_pass(calls[mm]), "count"),
        "matfun.ml_matrix.self_s": (per_pass(self_s[mm]), "s"),
        "matfun.ml_matrix.repeat_frac": (ratio(counts[mm + ".repeats"], calls[mm]), "ratio"),
        "matfun.kernel_integral.calls": (per_pass(calls["matfun.kernel_integral"]), "count"),
        "matfun.kernel_integral.s": (per_pass(total["matfun.kernel_integral"]), "s"),
        "matfun.sup_ml_norm.calls": (per_pass(calls["matfun.sup_ml_norm"]), "count"),
        "matfun.sup_ml_norm.s": (per_pass(total["matfun.sup_ml_norm"]), "s"),
        "matfun.repeat_frac": (ratio(sum(counts[r + ".repeats"] for r in repeat_names),
                                     sum(calls[r] for r in repeat_names)), "ratio"),
        "scipy.quad.calls": (per_pass(counts["scipy.quad.calls"]), "count"),
        "scipy.quad.evals": (per_pass(counts["scipy.quad.evals"]), "count"),
        "stability.classify.calls": (per_pass(calls["stability.classify"]), "count"),
        "stability.classify.self_s": (per_pass(self_s["stability.classify"]), "s"),
        "stability.qscan.ml_matrix_calls": (
            per_pass(by_parent[(mm, "stability.classify")]), "count"),
        "stability.beta_norm_certificate.s": (
            per_pass(total["stability.beta_norm_certificate"]), "s"),
        "stability.beta_norm_certificate.ml_matrix_calls": (
            per_pass(by_parent[(mm, "stability.beta_norm_certificate")]), "count"),
        "quad.convolve_singular.calls": (per_pass(calls["quad.convolve_singular"]), "count"),
        "quad.convolve_singular.self_s": (per_pass(self_s["quad.convolve_singular"]), "s"),
        "quad.convolve_singular.kernel_calls": (
            per_pass(counts["quad.convolve_singular.kernel_calls"]), "count"),
        "quad.singular_weights.calls": (per_pass(calls["quad.singular_weights"]), "count"),
        "quad.singular_weights.self_s": (per_pass(self_s["quad.singular_weights"]), "s"),
        "solver.solve_abm.calls": (per_pass(calls["solver.solve_abm"]), "count"),
        "solver.solve_abm.self_s": (per_pass(self_s["solver.solve_abm"]), "s"),
        "solver.field_evals": (per_pass(counts["solver.field_evals"]), "count"),
        "solver.nodes": (per_pass(counts["solver.nodes"]), "count"),
        "solver.lyapunov_perron_iterate.s": (
            per_pass(total["solver.lyapunov_perron_iterate"]), "s"),
        "solver.lp.iterations": (per_pass(counts["solver.lp.iterations"]), "count"),
        "solver.solve_linear_exact.s": (per_pass(total["solver.solve_linear_exact"]), "s"),
        "cli.child_startup_s": (per_pass(startup), "s"),
        "cli.files_written": (files, "count"),
        "cli.bytes_written": (written, "count"),
        "norms.operator_norm.calls": (per_pass(counts["norms.operator_norm.calls"]),
                                      "count"),
        "trace.overhead_frac": (
            statistics.median(traced.pass_s) / statistics.median(plain.pass_s) - 1.0,
            "ratio"),
    })
    for workload, names in WORKLOAD_ITEMS.items():
        for name in names:
            times = plain.item_s.get(name) if workload == args.workload else None
            m[f"item.{workload}.{name}.s"] = (statistics.median(times) if times else 0.0, "s")
    return traced, m, {"spans": spans, "counts": counts}


def write_trace(args, dump, metrics):
    """Write the spans, counts and metrics of a traced run, gzipped JSON,
    under .bench_trace/ in the checkout; returns the path."""
    out = BENCH_DIR.parent / ".bench_trace" / f"{args.workload}-seed{args.seed}.json.gz"
    out.parent.mkdir(exist_ok=True)
    payload = dict(dump, metrics={k: v for k, (v, _u) in metrics.items()},
                   span_fields=["id", "parent", "name", "start", "end", "item"])
    with gzip.open(out, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return out.relative_to(BENCH_DIR.parent)


# -- ML band probe ----------------------------------------------------------


def probe_points(seed, alpha):
    """PROBE_POINTS complex arguments per |z| band, away from overflow."""
    rng = np.random.default_rng([seed, 9])
    ranges = {"absz_le_1": (0.05, 1.0), "absz_1_50": (1.0, 50.0),
              "absz_gt_50": (50.0, 500.0)}
    out = {}
    for band, (lo, hi) in ranges.items():
        pts = []
        while len(pts) < PROBE_POINTS:
            r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            th = rng.uniform(-math.pi, math.pi)
            if r ** (1.0 / alpha) * math.cos(th / alpha) > 500.0:
                continue
            pts.append(r * complex(math.cos(th), math.sin(th)))
        z = np.array(pts)
        assert band_counts(np.abs(z))[BANDS.index(band)] == len(z)
        out[band] = z
    return out


def ml_band_probe(seed, problems):
    """Scalar `ml` against batched `ml_many` on seeded points per band:
    microseconds per point for both paths.  The values must agree to
    PROBE_ULP_TOL relative; points that differ at all are counted in
    special_fn.probe.bit_mismatch (about 1 in 6,000 do, by one unit in the
    last place of a component)."""
    from fracstab.special_fn import MLParams, ml, ml_many

    params = MLParams(0.5, 1.0)
    metrics = {}
    mismatch = 0
    for band, z in probe_points(seed, params.alpha).items():
        scalar = np.array([ml(params, v) for v in z])
        batched = ml_many(params, z)
        mismatch += int(np.count_nonzero(scalar != batched))
        rel = np.abs(scalar - batched) / np.maximum(np.abs(scalar), 1e-300)
        if not np.all(rel <= PROBE_ULP_TOL):
            problems.append(f"ml and ml_many differ by {np.max(rel):.3e} relative "
                            f"on {band} points")
        reps = []
        for _ in range(3):
            t0 = time.perf_counter()
            for v in z:
                ml(params, v)
            reps.append(time.perf_counter() - t0)
        metrics[f"special_fn.probe.us_per_point.{band}.scalar"] = (
            1e6 * statistics.median(reps) / len(z), "us")
        reps = []
        for _ in range(5):
            t0 = time.perf_counter()
            ml_many(params, z)
            reps.append(time.perf_counter() - t0)
        metrics[f"special_fn.probe.us_per_point.{band}.batched"] = (
            1e6 * statistics.median(reps) / len(z), "us")
    metrics["special_fn.probe.bit_mismatch"] = (mismatch, "count")
    return metrics
