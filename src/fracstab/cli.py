"""Command-line front end: config ingestion, experiment runs, serialization.

One JSON config describes one experiment; every run writes its outputs
atomically into a directory.  Output formatting is pinned down to the
byte: shortest round-trip decimals, line-feed newlines, UTF-8, no locale
dependence, so repeated runs with the same seed diff clean.

Exit status: 0 success, 1 analysis finished without a conclusive
certificate (report still written), 2 input error, 3 numerical failure.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError, DomainError, FracstabError, SectorViolationError
from .matfun import _DIM_CAP, as_square_matrix, check_spectral_condition, ml_matrix
from .norms import VECTOR_NORMS, operator_norm, vector_norm
from .quad import TimeGrid, graded_grid, uniform_grid
from .solver import (
    LinearConstant,
    LinearDecaying,
    LinearTable,
    NonlinearSaturating,
    NonlinearTable,
    as_perturbation,
    residual_check,
    solve_abm,
    solve_rl_scalar_exact,
)
from .special_fn import MLParams
from .stability import STABLE_VERDICTS, boundedness_probe, classify

# kinds whose certificates need a strictly fractional order
_FRACTIONAL_KINDS = ("Analyze", "DecayFit", "RobustDemo", "BoundednessProbe")
FORMATS = ("json", "csv")
COUNTEREXAMPLE_HORIZON = 50.0
DEMO_POINTS = 10
DEMO_TARGET = 0.1
# a graded Solve's residual check builds a dense ((n + 1) d)^2 operator
_GRADED_SOLVE_CAP = 2048


def _fail(msg):
    raise ConfigError(msg)


def _as_float(value, what):
    # JSON numbers only: float() would also take true and "0.5"
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(f"{what} must be a number, got {value!r}")
    # nan and inf fail this test, and so do ints too large for a float
    if not abs(value) <= sys.float_info.max:
        _fail(f"{what} must be finite, got {value!r}")
    return float(value)


def _as_matrix(value, what):
    if not isinstance(value, list) or not value:
        _fail(f"{what} must be a nonempty nested list")
    rows = []
    for row in value:
        if not isinstance(row, list) or len(row) != len(value):
            _fail(f"{what} must be square")
        rows.append([_as_float(v, f"{what} entry") for v in row])
    return rows


def _get(mapping, key, what, default=_fail):
    if key not in mapping:
        if default is _fail:
            _fail(f"missing {what}")
        return default
    return mapping[key]


def parse_config(raw):
    """Validate a config mapping and return it in canonical form.

    The canonical form fills every optional field with its default, so
    parsing is idempotent: parse(serialize(parse(raw))) == parse(raw).
    """
    if not isinstance(raw, dict):
        _fail("config must be a JSON object")
    name = _get(raw, "name", "config name")
    if not isinstance(name, str) or not name:
        _fail("name must be a nonempty string")
    kind = _get(raw, "kind", "experiment kind")
    if kind not in KINDS:
        _fail(f"unknown experiment kind {kind!r}, expected one of {KINDS}")

    system = _get(raw, "system", "system block")
    if not isinstance(system, dict):
        _fail("system must be an object")
    alpha = _as_float(_get(system, "alpha", "system.alpha"), "system.alpha")
    if not 0.0 < alpha <= 1.0:
        _fail(f"system.alpha must lie in (0, 1], got {alpha!r}")
    a = _as_matrix(_get(system, "a", "system.a"), "system.a")
    if len(a) > _DIM_CAP:
        _fail(f"system.a has dimension {len(a)}, above the cap {_DIM_CAP}")
    try:
        as_square_matrix(a)
    except DomainError as exc:
        _fail(f"system.a: {exc}")
    norm = _get(system, "norm", "system.norm", "max")
    if norm not in VECTOR_NORMS:
        _fail(f"system.norm must be one of {VECTOR_NORMS}, got {norm!r}")
    d = len(a)
    x0_raw = _get(system, "x0", "system.x0", None)
    if x0_raw is None:
        x0 = [1.0] * d
    else:
        if not isinstance(x0_raw, list) or len(x0_raw) != d:
            _fail(f"system.x0 must be a list of length {d}")
        x0 = [_as_float(v, "system.x0 entry") for v in x0_raw]

    pert = _parse_perturbation(_get(raw, "perturbation", "", {"kind": "none"}), d)

    grid = _get(raw, "grid", "grid block")
    if not isinstance(grid, dict):
        _fail("grid must be an object")
    t_max = _as_float(_get(grid, "t_max", "grid.t_max"), "grid.t_max")
    if t_max <= 0.0:
        _fail(f"grid.t_max must be positive, got {t_max!r}")
    n = _get(grid, "n", "grid.n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        _fail(f"grid.n must be an integer >= 2, got {n!r}")
    grading = _as_float(_get(grid, "grading", "", 1.0), "grid.grading")
    if grading < 1.0:
        _fail(f"grid.grading must be >= 1, got {grading!r}")

    seed = _get(raw, "seed", "", 42)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2 ** 64:
        _fail(f"seed must be an unsigned 64-bit integer, got {seed!r}")

    output = _get(raw, "output", "", {})
    if not isinstance(output, dict):
        _fail("output must be an object")
    directory = _get(output, "directory", "", None)
    if directory is not None and (not isinstance(directory, str) or not directory):
        _fail("output.directory must be a nonempty string")
    formats = _get(output, "formats", "", list(FORMATS))
    if (
        not isinstance(formats, list)
        or not formats
        or any(f not in FORMATS for f in formats)
        or len(set(formats)) != len(formats)
    ):
        _fail(f"output.formats must be a nonempty subset of {FORMATS}")

    params = _get(raw, "params", "", {})
    if not isinstance(params, dict):
        _fail("params must be an object")
    canon_params = {}
    if kind == "Counterexample":
        lam = _as_float(_get(params, "lam", "", 1.0), "params.lam")
        if lam <= 0.0:
            _fail(f"params.lam must be positive, got {lam!r}")
        canon_params = {"lam": lam, "x0": _as_float(_get(params, "x0", "", 1.0), "params.x0")}
    elif params:
        _fail(f"params not accepted for kind {kind!r}")

    if kind in _FRACTIONAL_KINDS and alpha == 1.0:
        _fail(f"system.alpha must lie in (0, 1) for kind {kind!r}, got 1.0")

    if kind == "DecayFit" and n < 4:
        # fewer nodes can leave one point in the fitted last decade
        _fail(f"decay fit needs grid.n >= 4, got {n!r}")

    size = (n + 1) * d
    if kind == "Solve" and grading > 1.0 and size > _GRADED_SOLVE_CAP:
        _fail(f"graded solve has (grid.n + 1) * d = {size}, above the cap {_GRADED_SOLVE_CAP}")

    if kind == "BoundednessProbe":
        if t_max < 100.0:
            _fail("boundedness probe needs grid.t_max >= 100")
        if not _PERTURBATIONS[pert["kind"]][0].is_linear:
            _fail("boundedness probe needs a linear perturbation kind")

    return {
        "name": name,
        "kind": kind,
        "system": {"alpha": alpha, "a": a, "norm": norm, "x0": x0},
        "perturbation": pert,
        "grid": {"t_max": t_max, "n": n, "grading": grading},
        "seed": seed,
        "output": {"directory": directory, "formats": sorted(formats)},
        "params": canon_params,
    }


def _number(value, what, d):
    return _as_float(value, what)


def _square(value, what, d):
    m = _as_matrix(value, what)
    if len(m) != d:
        _fail(f"{what} dimension does not match system.a")
    return m


def _list_of(shape):
    def parse(value, what, d):
        if not isinstance(value, list) or not value:
            _fail(f"{what} must be a nonempty list")
        return [shape(v, f"{what} entry", d) for v in value]
    return parse


_NUMBERS = _list_of(_number)
# config kind -> (its PerturbationSpec class, its config fields in
# constructor order as (name, JSON shape, default)); the class checks ranges.
# The kind none has no fields: it is the zero gain of system.a's size.
_PERTURBATIONS = {
    "none": (LinearConstant, ()),
    "linear_constant": (LinearConstant, (("q0", _square, _fail),)),
    "linear_decaying": (LinearDecaying, (("q0", _square, _fail), ("gamma", _number, _fail))),
    "linear_table": (LinearTable, (("times", _NUMBERS, _fail), ("matrices", _list_of(_square), _fail))),
    "nonlinear_saturating": (NonlinearSaturating, (("c", _number, _fail), ("gamma", _number, 0.0))),
    "nonlinear_table": (NonlinearTable, (("times", _NUMBERS, _fail), ("values", _NUMBERS, _fail))),
}


def _parse_perturbation(raw, d):
    if not isinstance(raw, dict):
        _fail("perturbation must be an object")
    kind = _get(raw, "kind", "perturbation.kind")
    if not isinstance(kind, str) or kind not in _PERTURBATIONS:
        _fail(f"unknown perturbation kind {kind!r}")
    pert = {"kind": kind}
    for name, shape, default in _PERTURBATIONS[kind][1]:
        what = f"perturbation.{name}"
        pert[name] = shape(_get(raw, name, what, default), what, d)
    try:
        _build_perturbation(pert, d)
    except DomainError as exc:
        _fail(f"perturbation {kind}: {exc}")
    return pert


def _build_perturbation(pert, d):
    cls, fields = _PERTURBATIONS[pert["kind"]]
    if not fields:
        return as_perturbation(None, d)
    return cls(*(pert[name] for name, _, _ in fields))


def _build_grid(cfg):
    g = cfg["grid"]
    if g["grading"] == 1.0:
        return uniform_grid(g["t_max"], g["n"])
    return graded_grid(g["t_max"], g["n"], g["grading"])


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _trajectory_table(traj, norms):
    header = ["t", *(f"x_{i}" for i in range(traj.states.shape[1])), "norm"]
    rows = (
        [float(t), *(float(v) for v in x), float(n)]
        for t, x, n in zip(traj.times, traj.states, norms)
    )
    return "trajectory.csv", header, rows


def _rhs(m, pert):
    def field(t, x):
        return m @ x + pert.field(t, x)

    return field


def _ml_norms(cfg, ts):
    """||E_alpha(A t^alpha)|| and ||E_alpha,alpha(A t^alpha)|| at the times ts."""
    system = cfg["system"]
    al = system["alpha"]
    m = as_square_matrix(system["a"])
    return [
        operator_norm(ml_matrix(MLParams(al, beta), ts, m), system["norm"])
        for beta in (1.0, al)
    ]


# Each runner takes a validated config and returns its exit code, its
# report fields and its CSV table (file name, header, lazy rows) or None.


def _run_ml_eval(cfg):
    grid = uniform_grid(cfg["grid"]["t_max"], cfg["grid"]["n"])
    n_ea, n_eaa = _ml_norms(cfg, grid.nodes)
    fields = {
        "t_max": grid.horizon,
        "sup_norm_ml": float(n_ea.max()),
        "sup_norm_ml_kernel": float(n_eaa.max()),
        "horizon_norm_ml": float(n_ea[-1]),
        "horizon_norm_ml_kernel": float(n_eaa[-1]),
    }
    rows = ([float(t), float(a), float(b)] for t, a, b in zip(grid.nodes, n_ea, n_eaa))
    return 0, fields, ("decay.csv", ["t", "norm_Ea", "norm_Eaa"], rows)


def _run_solve(cfg):
    system = cfg["system"]
    al = system["alpha"]
    m = as_square_matrix(system["a"])
    pert = _build_perturbation(cfg["perturbation"], m.shape[0])
    grid = _build_grid(cfg)
    traj = solve_abm(al, _rhs(m, pert), np.array(system["x0"]), grid)
    norms = vector_norm(traj.states, system["norm"])
    residual = residual_check(traj, al, m, pert=pert, norm=system["norm"])
    fields = {
        "method": traj.meta["method"],
        "t_max": grid.horizon,
        "final_norm": float(norms[-1]),
        "sup_norm": float(norms.max()),
        "residual": float(residual),
    }
    return 0, fields, _trajectory_table(traj, norms)


def _classify(cfg):
    system = cfg["system"]
    pert = _build_perturbation(cfg["perturbation"], len(system["a"]))
    report = classify(system["a"], system["alpha"], pert, norm=system["norm"])
    return {**dataclasses.asdict(report), "notes": list(report.notes)}


def _run_analyze(cfg):
    fields = _classify(cfg)
    return int(fields["verdict"] == "Inconclusive"), fields, None


def _run_decay_fit(cfg):
    al = cfg["system"]["alpha"]
    if not check_spectral_condition(as_square_matrix(cfg["system"]["a"]), al)["satisfied"]:
        raise SectorViolationError("decay fit requires the eigenvalue sector condition")
    t_max = cfg["grid"]["t_max"]
    ts = np.geomspace(t_max / 100.0, t_max, cfg["grid"]["n"])
    norms = _ml_norms(cfg, ts)
    last = ts >= t_max / 10.0
    slopes = [float(np.polyfit(np.log(ts[last]), np.log(n[last]), 1)[0]) for n in norms]
    fields = {
        "t_min": float(ts[0]),
        "t_max": float(ts[-1]),
        "fitted_slope_Ea": slopes[0],
        "fitted_slope_Eaa": slopes[1],
    }
    header = ["t", "norm_Ea", "norm_Eaa", "fitted_slope_Ea", "fitted_slope_Eaa"]
    rows = ([float(t), float(a), float(b), *slopes] for t, a, b in zip(ts, *norms))
    return 0, fields, ("decay.csv", header, rows)


def _run_robust_demo(cfg):
    fields = _classify(cfg)
    delta = fields["delta"] if fields["verdict"] in STABLE_VERDICTS else None
    if delta is not None and delta <= 0.0:
        fields["notes"].append("delta is 0: there is no initial ball to demonstrate on")
    if delta is None or delta <= 0.0:
        fields["demo"] = None
        return 1, fields, None

    system = cfg["system"]
    al = system["alpha"]
    norm = system["norm"]
    m = as_square_matrix(system["a"])
    field = _rhs(m, _build_perturbation(cfg["perturbation"], m.shape[0]))
    grid = _build_grid(cfg)
    rng = np.random.default_rng(cfg["seed"])
    radius = delta / 2.0
    ratios = []
    worst = None
    for _ in range(DEMO_POINTS):
        direction = rng.standard_normal(m.shape[0])
        x0 = radius * direction / vector_norm(direction, norm)
        traj = solve_abm(al, field, x0, grid)
        ratio = float(
            vector_norm(traj.states[-1], norm) / vector_norm(x0, norm)
        )
        ratios.append(ratio)
        if worst is None or ratio > worst[0]:
            worst = (ratio, traj)
    fields["demo"] = {
        "radius": radius,
        "t_max": grid.horizon,
        "ratios": ratios,
        "max_ratio": max(ratios),
        "target": DEMO_TARGET,
        "contracted": max(ratios) <= DEMO_TARGET,
    }
    return 0, fields, _trajectory_table(worst[1], vector_norm(worst[1].states, norm))


def _counterexample_grid():
    # piecewise-geometric nodes that contain exactly t = 1 and t = 50,
    # the two times the divergence ratio is read at
    nodes = np.concatenate(
        [[0.0], np.geomspace(0.01, 1.0, 25), np.geomspace(1.0, COUNTEREXAMPLE_HORIZON, 35)[1:]]
    )
    return TimeGrid(nodes)


def _counterexample_verdict(ts, values, x0):
    if x0 == 0.0:
        return "trivial"
    at_one = float(values[np.where(ts == 1.0)[0][0]])
    final = float(values[-1])
    increasing = values[-3] < values[-2] < values[-1]
    if increasing and final > 1e3 * at_one:
        return "diverges"
    return "decays"


def _run_counterexample(cfg):
    al = cfg["system"]["alpha"]
    lam = cfg["params"]["lam"]
    x0 = cfg["params"]["x0"]
    grid = _counterexample_grid()
    ts = grid.nodes[1:]

    driven = solve_rl_scalar_exact(al, lam, 2.0 * lam, x0, grid)
    control = solve_rl_scalar_exact(al, lam, 0.0, x0, grid)
    driven_abs = np.abs(driven.states[:, 0])
    control_abs = np.abs(control.states[:, 0])

    at_one = float(driven_abs[np.where(ts == 1.0)[0][0]])
    fields = {
        "lam": lam,
        "x0": x0,
        "verdict": _counterexample_verdict(ts, driven_abs, x0),
        "control_verdict": _counterexample_verdict(ts, control_abs, x0),
        "abs_x_at_1": at_one,
        "abs_x_at_horizon": float(driven_abs[-1]),
        "growth_ratio": float(driven_abs[-1] / at_one) if at_one > 0.0 else 0.0,
        "control_abs_at_horizon": float(control_abs[-1]),
    }
    rows = (
        [float(t), float(x), float(abs(x)), float(c)]
        for t, x, c in zip(ts, driven.states[:, 0], control_abs)
    )
    return 0, fields, ("trajectory.csv", ["t", "x_0", "norm", "control_norm"], rows)


def _run_boundedness(cfg):
    system = cfg["system"]
    m = as_square_matrix(system["a"])
    pert = _build_perturbation(cfg["perturbation"], m.shape[0])
    grid = _build_grid(cfg)

    def coeff(t):
        return m + pert.q_matrix(t)

    out = boundedness_probe(coeff, system["alpha"], grid, norm=system["norm"])
    fields = {
        "t_max": grid.horizon,
        "per_basis_bounded": out["per_basis_bounded"],
        # a failed basis solve has no sup; its note says why (strict JSON has no inf)
        "sup_norms": [s if math.isfinite(s) else None for s in out["sup_norms"]],
        "inferred_stable": out["inferred_stable"],
        "notes": out["notes"],
    }
    return 0, fields, None


# subcommand -> (config kind, runner); KINDS keeps the table's order
_SUBCOMMANDS = {
    "ml-eval": ("MlEval", _run_ml_eval),
    "solve": ("Solve", _run_solve),
    "analyze": ("Analyze", _run_analyze),
    "decay-fit": ("DecayFit", _run_decay_fit),
    "robust-demo": ("RobustDemo", _run_robust_demo),
    "counterexample": ("Counterexample", _run_counterexample),
    "boundedness": ("BoundednessProbe", _run_boundedness),
}
KINDS = tuple(kind for kind, _ in _SUBCOMMANDS.values())
_RUNNERS = dict(_SUBCOMMANDS.values())


def run(cfg, out_dir):
    """Run one validated config; write report.json into out_dir, and the
    runner's CSV table when "csv" is among the output formats.  out_dir
    is created once the runner has returned, so a failed run leaves none."""
    code, fields, table = _RUNNERS[cfg["kind"]](cfg)
    os.makedirs(out_dir, exist_ok=True)
    system = cfg["system"]
    report = {
        "name": cfg["name"],
        "kind": cfg["kind"],
        "alpha": system["alpha"],
        "norm": system["norm"],
        "seed": cfg["seed"],
        **fields,
    }
    _write_atomic(os.path.join(out_dir, "report.json"), json.dumps(report, indent=2) + "\n")
    if table is not None and "csv" in cfg["output"]["formats"]:
        name, header, rows = table
        lines = [",".join(header), *(",".join(map(repr, row)) for row in rows)]
        _write_atomic(os.path.join(out_dir, name), "\n".join(lines) + "\n")
    return code


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc


def _parser():
    parser = argparse.ArgumentParser(
        prog="fracstab",
        description="Run stability experiments for Caputo fractional systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--norm", choices=VECTOR_NORMS, default=None, help="norm override")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        raw = _read_json(args.config)
        # the overrides go through the same validation as the file's values
        if isinstance(raw, dict) and args.seed is not None:
            raw["seed"] = args.seed
        if isinstance(raw, dict) and isinstance(raw.get("system"), dict) and args.norm is not None:
            raw["system"]["norm"] = args.norm
        cfg = parse_config(raw)
        expected = _SUBCOMMANDS[args.command][0]
        if cfg["kind"] != expected:
            raise ConfigError(
                f"config kind {cfg['kind']!r} does not match subcommand "
                f"{args.command!r} (expected {expected!r})"
            )
        out_dir = args.out if args.out is not None else cfg["output"]["directory"]
        if out_dir is None:
            raise ConfigError("no output directory: set output.directory or pass --out")
        return run(cfg, out_dir)
    except ConfigError as exc:
        print(f"fracstab: input error: {exc}", file=sys.stderr)
        return 2
    except FracstabError as exc:
        print(f"fracstab: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
