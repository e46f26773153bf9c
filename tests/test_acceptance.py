"""Acceptance suite: one test per shipped claim, at the stated tolerance.

Each test prints a single pass line with its runtime; a failing assert is
the corresponding fail line.  Budgets are asserted, not aspirational.
"""

import json
import math
import os
import random
import time

import numpy as np
import pytest

from fracstab.cli import main
from fracstab.matfun import kernel_integral, ml_matrix
from fracstab.norms import operator_norm, vector_norm
from fracstab.quad import graded_grid, uniform_grid
from fracstab.solver import (
    LinearConstant,
    LinearDecaying,
    lyapunov_perron_iterate,
    residual_check,
    solve_abm,
    solve_linear_exact,
)
from fracstab.special_fn import MLParams, gamma, ml
from fracstab.stability import (
    boundedness_probe,
    classify,
)
from fracstab.errors import SectorViolationError

A_NEG = np.array([[-1.0]])
ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


class _Budget:
    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        assert elapsed <= self.seconds, (
            f"criterion {self.number}: runtime {elapsed:.1f}s over budget {self.seconds}s"
        )
        print(
            f"criterion {self.number:2d}: PASS - {self.label} "
            f"({elapsed:.1f}s <= {self.seconds}s)"
        )


def test_criterion_01_special_function_identities():
    budget = _Budget(1, "special-function identities", 10)
    rng = random.Random(42)
    p_exp = MLParams(1.0, 1.0)
    for _ in range(200):
        r = 30.0 * math.sqrt(rng.random())
        th = rng.uniform(-math.pi, math.pi)
        z = r * complex(math.cos(th), math.sin(th))
        want = np.exp(z)
        assert abs(ml(p_exp, z) - want) <= 1e-12 * abs(want)

    p_half = MLParams(0.5, 1.0)
    for z in np.linspace(-5.0, 0.0, 20):
        want = math.exp(z * z) * math.erfc(-z)
        assert abs(ml(p_half, z).real - want) <= 1e-9

    for _ in range(500):
        alpha = rng.uniform(0.15, 1.0)
        beta = rng.uniform(0.2, 2.0)
        r = math.exp(rng.uniform(math.log(0.05), math.log(60.0)))
        th = rng.uniform(-math.pi, math.pi)
        if r ** (1.0 / alpha) * math.cos(th / alpha) > 500.0:
            continue
        z = r * complex(math.cos(th), math.sin(th))
        lhs = ml(MLParams(alpha, beta), z)
        rhs = z * ml(MLParams(alpha, alpha + beta), z) + 1.0 / gamma(beta)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)
    budget.done()


def test_criterion_02_matrix_decay_rates():
    budget = _Budget(2, "matrix propagator decay rates", 30)
    ts = np.geomspace(1e3, 1e5, 25)
    log_ts = np.log(ts)
    for a in (A_NEG, ROTATION, np.diag([-1.0, -3.0])):
        for alpha in (0.3, 0.5, 0.8):
            for beta, target, tol in (
                (1.0, -alpha, 0.05),
                (alpha, -2.0 * alpha, 0.1),
            ):
                params = MLParams(alpha, beta)
                norms = [
                    operator_norm(ml_matrix(params, t, a), "max") for t in ts
                ]
                slope = float(np.polyfit(log_ts, np.log(norms), 1)[0])
                assert slope == pytest.approx(target, abs=tol), (a, alpha, beta)
    budget.done()


def test_criterion_03_kernel_integral_identity():
    budget = _Budget(3, "kernel-integral identity", 10)
    for lam in (0.5, 1.0, 2.0, 4.0):
        for alpha in (0.3, 0.5, 0.8):
            value = kernel_integral(np.array([[-lam]]), alpha)["value"]
            assert value == pytest.approx(1.0 / lam, abs=1e-3), (lam, alpha)
    budget.done()


def test_criterion_04_solver_convergence_order():
    budget = _Budget(4, "predictor-corrector convergence order", 20)
    for alpha in (0.4, 0.7):
        errs = {}
        for n in (128, 512):
            g = graded_grid(5.0, n, 2.0 / alpha)
            exact = solve_linear_exact(alpha, A_NEG, 1.0, g)
            approx = solve_abm(alpha, lambda t, x: -x, 1.0, g)
            errs[n] = float(np.max(np.abs(exact.states - approx.states)))
        order = math.log2(errs[128] / errs[512]) / 2.0
        assert order >= min(2.0, 1.0 + alpha) - 0.15, (alpha, order)
    budget.done()


def test_criterion_05_fixed_point_contraction():
    budget = _Budget(5, "fixed-point contraction rates", 30)
    g = uniform_grid(5.0, 512)
    for c in (0.3, 0.5, 0.8):
        pert = LinearConstant(np.array([[c]]))
        lp = lyapunov_perron_iterate(0.5, A_NEG, pert, 1.0, g)
        assert max(lp.meta["ratios"]) <= c + 0.05, c
        assert classify(A_NEG, 0.5, pert).q == pytest.approx(c, abs=1e-3), c
        assert residual_check(lp, 0.5, A_NEG, pert=pert) <= 1e-6, c
    budget.done()


def _canonical_cases():
    return {
        "constant_half": (A_NEG, 0.5, LinearConstant(np.array([[0.5]]))),
        "unstable": (np.array([[1.0]]), 0.5, LinearConstant(np.array([[0.5]]))),
        "decaying": (A_NEG, 0.5, LinearDecaying(np.array([[3.0]]), 2.0)),
    }


def test_criterion_06_classification_matrix():
    budget = _Budget(6, "stability classification matrix", 60)
    cases = _canonical_cases()
    reports = {name: classify(a, al, pert) for name, (a, al, pert) in cases.items()}
    assert reports["constant_half"].verdict == "RobustStable"
    assert reports["constant_half"].q == pytest.approx(0.5, abs=1e-3)
    assert reports["unstable"].verdict == "SectorViolated"
    assert reports["decaying"].verdict == "DecayingStable"

    assert reports["constant_half"].epsilon == pytest.approx(0.5, abs=1e-3)
    assert classify(np.array([[-4.0]]), 0.5).epsilon == pytest.approx(2.0, abs=1e-2)
    assert reports["unstable"].epsilon is None
    with pytest.raises(SectorViolationError):
        kernel_integral(np.array([[1.0]]), 0.5)
    budget.done()


def test_criterion_07_stable_cases_contract_trajectories():
    budget = _Budget(7, "certified-stable trajectory contraction", 120)
    grid = uniform_grid(200.0, 800)
    for name, (a, al, pert) in _canonical_cases().items():
        report = classify(a, al, pert)
        if report.verdict not in ("RobustStable", "UniformSmallStable", "DecayingStable"):
            continue
        assert report.delta is not None and report.delta > 0.0

        def field(t, x, a=a, pert=pert):
            return a @ x + pert.field(t, x)

        rng = np.random.default_rng(42)
        radius = report.delta / 2.0
        d = a.shape[0]
        for _ in range(10):
            direction = rng.standard_normal(d)
            x0 = radius * direction / vector_norm(direction, "max")
            traj = solve_abm(al, field, x0, grid)
            final = vector_norm(traj.states[-1], "max")
            assert final <= 0.1 * vector_norm(x0, "max"), name
    budget.done()


def test_criterion_08_counterexample_run(tmp_path):
    budget = _Budget(8, "divergent-perturbation counterexample", 5)
    cfg = {
        "name": "cex",
        "kind": "Counterexample",
        "system": {"alpha": 0.5, "a": [[-1.0]], "norm": "max"},
        "grid": {"t_max": 50.0, "n": 60},
        "params": {"lam": 1.0, "x0": 1.0},
    }
    path = tmp_path / "cex.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["counterexample", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["verdict"] == "diverges"
    assert report["growth_ratio"] > 1e3
    assert report["control_verdict"] == "decays"
    budget.done()


def test_criterion_09_boundedness_probe():
    budget = _Budget(9, "basis-trajectory boundedness probe", 30)
    grid = uniform_grid(200.0, 800)
    stable = boundedness_probe(lambda t: np.diag([-1.0, -2.0]), 0.5, grid)
    assert stable["per_basis_bounded"] == [True, True]
    assert stable["inferred_stable"]
    unstable = boundedness_probe(lambda t: np.array([[1.0]]), 0.5, grid)
    assert unstable["per_basis_bounded"] == [False]
    budget.done()


def _suite_configs():
    base = {"alpha": 0.5, "a": [[-1.0]], "norm": "max"}
    return [
        (
            "ml-eval",
            {
                "name": "ml",
                "kind": "MlEval",
                "system": dict(base),
                "grid": {"t_max": 10.0, "n": 100},
            },
        ),
        (
            "solve",
            {
                "name": "solve",
                "kind": "Solve",
                "system": dict(base),
                "perturbation": {"kind": "linear_constant", "q0": [[0.5]]},
                "grid": {"t_max": 20.0, "n": 400},
            },
        ),
        (
            "analyze",
            {
                "name": "analyze",
                "kind": "Analyze",
                "system": dict(base),
                "perturbation": {"kind": "linear_decaying", "q0": [[3.0]], "gamma": 2.0},
                "grid": {"t_max": 40.0, "n": 320},
            },
        ),
        (
            "decay-fit",
            {
                "name": "fit",
                "kind": "DecayFit",
                "system": dict(base),
                "grid": {"t_max": 1e5, "n": 33},
            },
        ),
        (
            "robust-demo",
            {
                "name": "demo",
                "kind": "RobustDemo",
                "system": dict(base),
                "perturbation": {"kind": "linear_constant", "q0": [[0.5]]},
                "grid": {"t_max": 200.0, "n": 800},
            },
        ),
        (
            "counterexample",
            {
                "name": "cex",
                "kind": "Counterexample",
                "system": dict(base),
                "grid": {"t_max": 50.0, "n": 60},
                "params": {"lam": 1.0, "x0": 1.0},
            },
        ),
        (
            "boundedness",
            {
                "name": "bnd",
                "kind": "BoundednessProbe",
                "system": {"alpha": 0.5, "a": [[-1.0, 0.0], [0.0, -2.0]], "norm": "max"},
                "grid": {"t_max": 200.0, "n": 800},
            },
        ),
    ]


def test_criterion_10_full_suite_determinism(tmp_path):
    budget = _Budget(10, "byte-identical reruns of the full suite", 300)
    outputs = []
    for run in ("one", "two"):
        files = []
        for sub, cfg in _suite_configs():
            path = tmp_path / f"{cfg['name']}-{run}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            out = tmp_path / run / cfg["name"]
            code = main(
                [sub, "--config", str(path), "--out", str(out), "--seed", "42"]
            )
            assert code == 0, (sub, code)
            for fname in sorted(os.listdir(out)):
                files.append((cfg["name"], fname, (out / fname).read_bytes()))
        outputs.append(files)
    assert outputs[0] == outputs[1]
    budget.done()
