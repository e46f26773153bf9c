"""The benchmark's workloads: seeded inputs, the calls, and their checks.

Every workload is a list of `Item`s.  An item runs one user-level task
through fracstab's public functions and returns its output; `check` lists
what is wrong with that output (empty when correct) and `digest` gives a
string that must not change between a traced and an untraced pass.

Systems and grids are fixed, because the accuracy anchors pin them; the
seed sets initial states, ensemble directions, and the seed handed to
`classify` and to the CLI.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# calls go through the module attributes, so the tracer's wrappers see them
from fracstab import quad, solver, stability
from fracstab.solver import LinearConstant, LinearDecaying, NonlinearSaturating

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

ALPHA = 0.5
ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
DIAG3 = np.diag([-1.0, -2.0, -3.0])
DIAG2 = np.diag([-1.0, -2.0])
A_NEG = np.array([[-1.0]])

# anchors recorded at the commit the benchmark was written against
Q_ROTATION = 0.15275253801627572
Q_DIAG3 = 0.0835498713605879
EPS_ROTATION = 0.22512
BETA_CONTRACTION_MAX = 0.55
LP_RATIO_MAX = 0.55

# the graded 3-d saturating ABM run is nonlinear in x0, so its initial
# components are drawn from this table, for which references are stored
SATURATING_MAGNITUDES = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
ENSEMBLE_SIZE = 10
REFERENCE_POINTS = 101


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], str]


# -- systems, grids and the raw calls (shared with make_reference.py) -----


def rotation_decaying():
    return LinearDecaying(0.2 * np.eye(2), gamma=1.0)


def diag3_saturating():
    return NonlinearSaturating(0.3, gamma=2.0)


def linear_field(a, pert):
    def field(t, x):
        return a @ x + pert.field(t, x)

    return field


def reference_index(n_nodes):
    return np.unique(np.linspace(0, n_nodes - 1, REFERENCE_POINTS).round().astype(int))


def lp_graded_scalar(x0):
    return solver.lyapunov_perron_iterate(
        ALPHA, A_NEG, LinearConstant(np.array([[0.5]])), x0, quad.graded_grid(5.0, 128, 4.0)
    )


def lp_uniform_rotation(x0):
    return solver.lyapunov_perron_iterate(
        ALPHA, ROTATION, rotation_decaying(), x0, quad.uniform_grid(5.0, 512)
    )


def exact_graded_rotation(x0):
    return solver.solve_linear_exact(ALPHA, ROTATION, x0, quad.graded_grid(5.0, 800, 4.0))


def abm_uniform_scalar(x0):
    return solver.solve_abm(ALPHA, lambda t, x: -x, x0, quad.uniform_grid(50.0, 3200))


def abm_graded_saturating(x0, a=DIAG3):
    return solver.solve_abm(
        ALPHA, linear_field(a, diag3_saturating()), x0, quad.graded_grid(20.0, 3200, 4.0)
    )


def abm_rotation(x0):
    return solver.solve_abm(
        ALPHA, linear_field(ROTATION, rotation_decaying()), x0, quad.uniform_grid(200.0, 800)
    )


def boundedness_diag2():
    return stability.boundedness_probe(lambda t: DIAG2, ALPHA, quad.uniform_grid(200.0, 800))


def load_reference():
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


# -- checks -----------------------------------------------------------------


def rel_error(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return np.inf
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale


def linear_reference(basis_refs, x0):
    """Reference states for x0 from the stored states of the basis runs."""
    refs = np.asarray(basis_refs, dtype=float)      # (d, points, d)
    return np.einsum("i,ipk->pk", np.atleast_1d(x0), refs)


def state_problems(traj, want, tol):
    got = traj.states[reference_index(len(traj.states))]
    err = rel_error(got, want)
    return [] if err <= tol else [f"states off the reference by {err:.3e} > {tol:g}"]


def _digest_states(traj):
    return traj.states.tobytes().hex()


def linear_item(name, fn, x0, basis_refs, tol, ratio_max=None):
    """Item for a system linear in x0, checked against the basis runs; for
    Lyapunov-Perron runs also the largest iteration ratio."""
    def check(traj):
        bad = state_problems(traj, linear_reference(basis_refs, x0), tol)
        ratios = traj.meta.get("ratios") or [0.0]
        if ratio_max is not None and max(ratios) > ratio_max:
            bad.append(f"iteration ratio {max(ratios):.4f} > {ratio_max}")
        return bad

    return Item(name, lambda: fn(x0), check, _digest_states)


# -- workloads --------------------------------------------------------------


def certify(seed, ref, scale):
    rng = np.random.default_rng([seed, 1])
    cls_seed = int(rng.integers(2 ** 31))
    cases = {
        "rotation-decaying": (ROTATION, rotation_decaying(), scale * Q_ROTATION),
        "diag3-saturating": (DIAG3, diag3_saturating(), scale * Q_DIAG3),
    }

    def make(name, a, pert, q_ref):
        def run():
            return stability.classify(a, ALPHA, pert, "max", seed=cls_seed)

        def check(rep):
            bad = []
            if rep.verdict != "DecayingStable":
                bad.append(f"verdict {rep.verdict}")
            if rep.beta_contraction is None or rep.beta_contraction > BETA_CONTRACTION_MAX:
                bad.append(f"beta_contraction {rep.beta_contraction}")
            if rep.q is None or abs(rep.q - q_ref) > 1e-8 * q_ref:
                bad.append(f"q {rep.q!r} vs {q_ref!r}")
            if name == "rotation-decaying" and (
                rep.epsilon is None or abs(rep.epsilon - scale * EPS_ROTATION) > 5e-4
            ):
                bad.append(f"epsilon {rep.epsilon!r}")
            return bad

        return Item(name, run, check, repr)

    return [make(n, a, p, q) for n, (a, p, q) in cases.items()], {"classify_seed": cls_seed}


def propagate(seed, ref, scale):
    rng = np.random.default_rng([seed, 2])
    x_scalar = np.array([rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)])
    x_lp = rng.uniform(-1.0, 1.0, 2)
    x_exact = rng.uniform(-1.0, 1.0, 2)
    refs = ref["propagate"]
    items = [
        linear_item("lp-graded-scalar", lp_graded_scalar, x_scalar,
                    refs["lp-graded-scalar"], 1e-8, LP_RATIO_MAX),
        linear_item("lp-uniform-rotation", lp_uniform_rotation, x_lp,
                    refs["lp-uniform-rotation"], 1e-8, LP_RATIO_MAX),
        linear_item("exact-graded-rotation", exact_graded_rotation, x_exact,
                    refs["exact-graded-rotation"], 1e-8),
    ]
    return items, {"x0": [x_scalar.tolist(), x_lp.tolist(), x_exact.tolist()]}


def abm(seed, ref, scale):
    rng = np.random.default_rng([seed, 3])
    x_scalar = np.array([rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)])
    mag_idx = rng.integers(len(SATURATING_MAGNITUDES), size=3)
    signs = rng.choice([-1.0, 1.0], size=3)
    x_sat = signs * np.array([SATURATING_MAGNITUDES[k] for k in mag_idx])
    directions = rng.standard_normal((ENSEMBLE_SIZE, 2))
    x_ens = directions / np.max(np.abs(directions), axis=1, keepdims=True)
    refs = ref["abm"]

    # tanh is odd and the field componentwise: component i of the reference
    # is the stored scalar run at |x0_i|, with the sign of x0_i
    sat_ref = np.stack(
        [signs[i] * np.asarray(refs["abm-graded-saturating"][i][mag_idx[i]])
         for i in range(3)],
        axis=1,
    )

    def ensemble():
        return [abm_rotation(x0) for x0 in x_ens]

    def ensemble_check(trajs):
        bad = []
        for x0, traj in zip(x_ens, trajs):
            want = linear_reference(refs["abm-rotation-ensemble"], x0)
            bad += state_problems(traj, want, 1e-10)
        return bad

    def bounded_check(out):
        bad = []
        if out["per_basis_bounded"] != [True, True]:
            bad.append(f"boundedness flags {out['per_basis_bounded']}")
        err = rel_error(out["sup_norms"], refs["boundedness-diag2"])
        if err > 1e-10:
            bad.append(f"sup norms off the reference by {err:.3e}")
        return bad

    items = [
        linear_item("abm-uniform-scalar", abm_uniform_scalar, x_scalar,
                    refs["abm-uniform-scalar"], 1e-10),
        Item("abm-graded-saturating", lambda: abm_graded_saturating(x_sat),
             lambda tr: state_problems(tr, sat_ref, 1e-10), _digest_states),
        Item("boundedness-diag2", boundedness_diag2, bounded_check, repr),
        Item("abm-rotation-ensemble", ensemble, ensemble_check,
             lambda trajs: "".join(_digest_states(t) for t in trajs)),
    ]
    return items, {"x0": [x_scalar.tolist(), x_sat.tolist(), x_ens.tolist()]}


# -- cli-suite --------------------------------------------------------------


def suite_configs():
    """The criterion-10 configs: every subcommand once."""
    base = {"alpha": 0.5, "a": [[-1.0]], "norm": "max"}
    return [
        ("ml-eval", {"name": "ml", "kind": "MlEval", "system": dict(base),
                     "grid": {"t_max": 10.0, "n": 100}}),
        ("solve", {"name": "solve", "kind": "Solve", "system": dict(base),
                   "perturbation": {"kind": "linear_constant", "q0": [[0.5]]},
                   "grid": {"t_max": 20.0, "n": 400}}),
        ("analyze", {"name": "analyze", "kind": "Analyze", "system": dict(base),
                     "perturbation": {"kind": "linear_decaying", "q0": [[3.0]], "gamma": 2.0},
                     "grid": {"t_max": 40.0, "n": 320}}),
        ("decay-fit", {"name": "fit", "kind": "DecayFit", "system": dict(base),
                       "grid": {"t_max": 1e5, "n": 33}}),
        ("robust-demo", {"name": "demo", "kind": "RobustDemo", "system": dict(base),
                         "perturbation": {"kind": "linear_constant", "q0": [[0.5]]},
                         "grid": {"t_max": 200.0, "n": 800}}),
        ("counterexample", {"name": "cex", "kind": "Counterexample", "system": dict(base),
                            "grid": {"t_max": 50.0, "n": 60},
                            "params": {"lam": 1.0, "x0": 1.0}}),
        ("boundedness", {"name": "bnd", "kind": "BoundednessProbe",
                         "system": {"alpha": 0.5, "a": [[-1.0, 0.0], [0.0, -2.0]],
                                    "norm": "max"},
                         "grid": {"t_max": 200.0, "n": 800}}),
    ]


def _cli_content_problems(sub, out, scale):
    if out["code"] != 0:
        return [f"exit code {out['code']}: {out['stderr'][-300:]}"]
    if "report.json" not in out["files"]:
        return ["no report.json written"]
    rep = json.loads(out["files"]["report.json"])
    bad = []
    if sub == "analyze" and abs(rep["epsilon"] - scale * 0.5) > 1e-3:
        bad.append(f"epsilon {rep['epsilon']!r}")
    if sub == "robust-demo":
        if abs(rep["q"] - scale * 0.5) > 1e-3:
            bad.append(f"q {rep['q']!r}")
        if not (rep.get("demo") or {}).get("contracted"):
            bad.append("demo did not contract")
    if sub == "counterexample" and rep["verdict"] != "diverges":
        bad.append(f"verdict {rep['verdict']}")
    return bad


class CliSuite:
    """Runs each subcommand in its own child interpreter through
    cli_child.py, one child at a time, as a shell user would."""

    def __init__(self, seed, work_dir, scale=1.0):
        self.scale = scale
        rng = np.random.default_rng([seed, 4])
        self.cli_seed = int(rng.integers(2 ** 31))
        self.work = Path(work_dir)
        self.work.mkdir(parents=True, exist_ok=True)
        self.configs = []
        for sub, cfg in suite_configs():
            path = self.work / f"{cfg['name']}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.configs.append((sub, cfg["name"], path))
        self.trace = False
        self.pass_no = 0
        self.first_files = {}
        self.children = []   # per child: startup seconds, peak RSS, trace dump

    def begin_pass(self):
        self.pass_no += 1

    def _run_child(self, sub, name, cfg_path):
        out_dir = self.work / f"pass{self.pass_no}" / name
        trace_file = self.work / f"trace-{self.pass_no}-{name}.json"
        argv = [
            sys.executable, str(BENCH_DIR / "cli_child.py"),
            repr(time.monotonic()), str(trace_file) if self.trace else "-",
            sub, "--config", str(cfg_path), "--out", str(out_dir),
            "--seed", str(self.cli_seed),
        ]
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        stderr = proc.stderr.read()
        proc.stderr.close()
        # reap it here, for the child's own peak RSS
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        files = {}
        if out_dir.is_dir():
            for f in sorted(out_dir.iterdir()):
                files[f.name] = f.read_bytes()
            shutil.rmtree(out_dir)
        child = {"rss_kb": usage.ru_maxrss, "item": name}
        if trace_file.exists():
            child.update(json.loads(trace_file.read_text(encoding="utf-8")))
            trace_file.unlink()
        self.children.append(child)
        return {"code": proc.returncode, "files": files,
                "stderr": stderr.decode("utf-8", "replace")}

    def items(self):
        out = []
        for sub, name, path in self.configs:
            def run(sub=sub, name=name, path=path):
                return self._run_child(sub, name, path)

            def check(res, sub=sub, name=name):
                bad = _cli_content_problems(sub, res, self.scale)
                first = self.first_files.setdefault(name, res["files"])
                if res["files"] != first:
                    bad.append("output bytes differ from the first pass")
                return bad

            out.append(Item(name, run, check,
                            lambda res: repr(sorted(res["files"].items()))))
        return out


def _scaled(value, scale):
    if isinstance(value, dict):
        return {k: _scaled(v, scale) for k, v in value.items()}
    return (scale * np.asarray(value, dtype=float)).tolist()


def build(workload, seed, work_dir, scale=1.0):
    """Items and a description of the generated inputs for one workload.

    `scale` multiplies every reference value and anchor; the self-check
    uses a scale off one to show a wrong reference is counted as a failure.
    For cli-suite the suite object is returned as the third element so the
    runner can switch child tracing and read per-child measurements."""
    if workload == "cli-suite":
        suite = CliSuite(seed, work_dir, scale)
        return suite.items(), {"cli_seed": suite.cli_seed}, suite
    ref = _scaled(load_reference(), scale)
    maker = {"certify": certify, "propagate": propagate, "abm": abm}[workload]
    items, inputs = maker(seed, ref, scale)
    return items, inputs, None
