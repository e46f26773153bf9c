"""Tests for config parsing, the CLI subcommands, and output determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fracstab
from fracstab.cli import main, parse_config
from fracstab.errors import ConfigError

BASE_SYSTEM = {"alpha": 0.5, "a": [[-1.0]], "norm": "max"}


def _config(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _analyze_cfg(**overrides):
    cfg = {
        "name": "analyze",
        "kind": "Analyze",
        "system": dict(BASE_SYSTEM),
        "perturbation": {"kind": "linear_constant", "q0": [[0.5]]},
        "grid": {"t_max": 40.0, "n": 320},
    }
    cfg.update(overrides)
    return cfg


def _counterexample_cfg():
    return {
        "name": "cex",
        "kind": "Counterexample",
        "system": dict(BASE_SYSTEM),
        "grid": {"t_max": 50.0, "n": 60},
        "params": {"lam": 1.0, "x0": 1.0},
    }


def test_parse_fills_defaults_and_is_idempotent():
    raw = _analyze_cfg()
    cfg = parse_config(raw)
    assert cfg["seed"] == 42
    assert cfg["system"]["x0"] == [1.0]
    assert cfg["grid"]["grading"] == 1.0
    assert cfg["output"]["formats"] == ["csv", "json"]
    # canonical form round-trips through serialization unchanged
    again = parse_config(json.loads(json.dumps(cfg)))
    assert again == cfg


def test_parse_rejects_malformed_configs():
    good = _analyze_cfg()
    bad = [
        {},
        {**good, "kind": "Probe"},
        {**good, "name": ""},
        {**good, "system": {"alpha": 1.5, "a": [[-1.0]]}},
        {**good, "system": {"alpha": 0.5, "a": [[1.0, 2.0]]}},
        {**good, "system": {"alpha": 0.5, "a": [[-1.0]], "norm": "sup"}},
        {**good, "system": {**BASE_SYSTEM, "x0": [1.0, 2.0]}},
        {**good, "grid": {"t_max": -1.0, "n": 320}},
        {**good, "grid": {"t_max": 40.0, "n": 1}},
        {**good, "grid": {"t_max": 40.0, "n": 320, "grading": 0.5}},
        {**good, "seed": -1},
        {**good, "seed": 2 ** 64},
        {**good, "perturbation": {"kind": "white_noise"}},
        {**good, "perturbation": {"kind": "linear_constant", "q0": [[1.0, 0.0], [0.0, 1.0]]}},
        {**good, "output": {"formats": ["json", "yaml"]}},
        {**good, "params": {"lam": 1.0}},
        # the perturbation kinds check their own ranges; the CLI reports them
        {**good, "perturbation": {"kind": "linear_table", "times": [1.0, 0.5],
                                  "matrices": [[[0.1]], [[0.1]]]}},
        {**good, "perturbation": {"kind": "linear_table", "times": [-1.0, 0.5],
                                  "matrices": [[[0.1]], [[0.1]]]}},
        {**good, "perturbation": {"kind": "linear_decaying", "q0": [[0.1]], "gamma": 0}},
        {**good, "perturbation": {"kind": "nonlinear_saturating", "c": 0.1, "gamma": -1.0}},
        {**good, "perturbation": {"kind": "nonlinear_table", "times": [0.0, 1.0],
                                  "values": [0.1, -0.1]}},
        {**good, "perturbation": {"kind": "linear_table", "times": [], "matrices": []}},
        {**good, "perturbation": {"kind": "linear_table", "times": [0.0, 1.0],
                                  "matrices": [[[0.1]]]}},
        # finite entries whose norm overflows
        {**good, "system": {**BASE_SYSTEM, "a": [[-1.0, 0.0], [0.0, -1.0]], "x0": [1.0, 1.0]},
         "perturbation": {"kind": "linear_constant", "q0": [[1e308, 1e308], [0.0, 0.0]]}},
        # the same overflow in the system matrix itself
        {**good, "system": {**BASE_SYSTEM, "a": [[-1e308, 1e308], [0.0, -1e308]],
                            "x0": [1.0, 1.0]}, "perturbation": {"kind": "none"}},
        # above the propagator's dimension cap
        {**good, "system": {"alpha": 0.5, "a": (-np.eye(65)).tolist()}},
        # three nodes can leave one point in the fitted last decade
        {**good, "kind": "DecayFit", "perturbation": {"kind": "none"},
         "grid": {"t_max": 1e3, "n": 3}},
        # numbers are JSON numbers: no booleans, no numeric strings, and
        # no integer too large for a float
        {**good, "kind": "Solve", "system": {**BASE_SYSTEM, "alpha": True},
         "grid": {"t_max": 40.0, "n": 320}},
        {**good, "kind": "Solve", "grid": {"t_max": True, "n": 320}},
        {**good, "system": {**BASE_SYSTEM, "alpha": "0.5"}},
        {**good, "system": {**BASE_SYSTEM, "a": [["-1"]]}},
        {**good, "system": {**BASE_SYSTEM, "x0": [True]}},
        {**good, "system": {**BASE_SYSTEM, "x0": [10 ** 400]}},
        {**good, "perturbation": {"kind": "linear_decaying", "q0": [[0.1]], "gamma": True}},
    ]
    for raw in bad:
        with pytest.raises(ConfigError):
            parse_config(raw)


def test_load_config_missing_file(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["analyze", "--config", str(tmp_path / "absent.json"), "--out", out]) == 2
    assert "input error: cannot read config" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["analyze", "--config", str(broken), "--out", out]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_analyze_robust_case(tmp_path):
    path = _config(tmp_path, "a", _analyze_cfg())
    out = tmp_path / "out"
    assert main(["analyze", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["verdict"] == "RobustStable"
    assert report["q"] == pytest.approx(0.5, abs=1e-3)
    assert report["seed"] == 42


def test_analyze_jordan_block(tmp_path):
    # a defective matrix needs no declared structure: exit 0, not 3
    cfg = _analyze_cfg(
        system={"alpha": 0.5, "a": [[-1.0, 1.0], [0.0, -1.0]]},
        perturbation={"kind": "linear_constant", "q0": [[0.05, 0.0], [0.0, 0.05]]},
    )
    path = _config(tmp_path, "j", cfg)
    out = tmp_path / "out"
    assert main(["analyze", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["verdict"] == "RobustStable"


def test_analyze_sector_violation_still_succeeds(tmp_path):
    cfg = _analyze_cfg(system={"alpha": 0.5, "a": [[1.0]]})
    path = _config(tmp_path, "s", cfg)
    out = tmp_path / "out"
    assert main(["analyze", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["verdict"] == "SectorViolated"


def test_analyze_inconclusive_exits_one_with_report(tmp_path):
    cfg = _analyze_cfg(
        perturbation={
            "kind": "linear_table",
            "times": [0.0, 5.0],
            "matrices": [[[8.0]], [[0.45]]],
        }
    )
    path = _config(tmp_path, "i", cfg)
    out = tmp_path / "out"
    assert main(["analyze", "--config", path, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["verdict"] == "Inconclusive"


def test_exit_codes_for_bad_inputs(tmp_path):
    nonsquare = _config(
        tmp_path,
        "ns",
        _analyze_cfg(system={"alpha": 0.5, "a": [[1.0, 2.0]]}),
    )
    assert main(["analyze", "--config", nonsquare, "--out", str(tmp_path / "x")]) == 2
    assert main(["analyze", "--config", str(tmp_path / "gone.json"), "--out", str(tmp_path / "x")]) == 2
    mismatch = _config(tmp_path, "mm", _analyze_cfg())
    assert main(["solve", "--config", mismatch, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "command, kind",
    [
        ("analyze", "Analyze"),
        ("decay-fit", "DecayFit"),
        ("robust-demo", "RobustDemo"),
        ("boundedness", "BoundednessProbe"),
    ],
)
def test_alpha_one_is_an_input_error(tmp_path, capsys, command, kind):
    cfg = {
        "name": "one",
        "kind": kind,
        "system": {**BASE_SYSTEM, "alpha": 1.0},
        "grid": {"t_max": 200.0, "n": 40},
    }
    path = _config(tmp_path, "one", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "x")]) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_decay_fit_slopes_and_sector_failure(tmp_path):
    cfg = {
        "name": "fit",
        "kind": "DecayFit",
        "system": dict(BASE_SYSTEM),
        "grid": {"t_max": 1e5, "n": 33},
    }
    path = _config(tmp_path, "f", cfg)
    out = tmp_path / "out"
    assert main(["decay-fit", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["fitted_slope_Ea"] == pytest.approx(-0.5, abs=0.05)
    assert report["fitted_slope_Eaa"] == pytest.approx(-1.0, abs=0.1)
    table = (out / "decay.csv").read_text(encoding="utf-8").splitlines()
    assert table[0] == "t,norm_Ea,norm_Eaa,fitted_slope_Ea,fitted_slope_Eaa"
    assert len(table) == 34

    bad = _config(
        tmp_path,
        "fb",
        {**cfg, "system": {"alpha": 0.5, "a": [[1.0]]}},
    )
    assert main(["decay-fit", "--config", bad, "--out", str(tmp_path / "y")]) == 3
    # a numerical failure leaves no output directory behind
    assert not (tmp_path / "y").exists()


def test_counterexample_verdicts(tmp_path):
    path = _config(tmp_path, "c", _counterexample_cfg())
    out = tmp_path / "out"
    assert main(["counterexample", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["verdict"] == "diverges"
    assert report["control_verdict"] == "decays"
    assert report["growth_ratio"] > 1e3
    rows = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "t,x_0,norm,control_norm"
    # every row parses back to the same float that was written
    for row in rows[1:]:
        t, x, n, c = (float(v) for v in row.split(","))
        assert n == abs(x)

    trivial = _counterexample_cfg()
    trivial["params"]["x0"] = 0.0
    path2 = _config(tmp_path, "c0", trivial)
    out2 = tmp_path / "out0"
    assert main(["counterexample", "--config", path2, "--out", str(out2)]) == 0
    report2 = json.loads((out2 / "report.json").read_text(encoding="utf-8"))
    assert report2["verdict"] == "trivial"


def test_solve_writes_trajectory(tmp_path):
    cfg = {
        "name": "solve",
        "kind": "Solve",
        "system": dict(BASE_SYSTEM),
        "perturbation": {"kind": "linear_constant", "q0": [[0.5]]},
        "grid": {"t_max": 20.0, "n": 400},
    }
    path = _config(tmp_path, "s", cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["method"] == "abm"
    assert report["final_norm"] < 1.0
    assert report["residual"] < 0.02
    rows = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "t,x_0,norm"
    assert len(rows) == 402


def _graded_solve_cfg(n, d):
    return {
        "name": "graded",
        "kind": "Solve",
        "system": {"alpha": 0.5, "a": (-np.eye(d)).tolist()},
        "grid": {"t_max": 20.0, "n": n, "grading": 2.0},
    }


def test_graded_solve_size_is_capped(tmp_path, capsys):
    # the residual check's dense operator has ((n + 1) d)^2 entries on a
    # graded grid; at the cap that is 2048 x 2048
    assert parse_config(_graded_solve_cfg(1023, 2))["grid"]["n"] == 1023
    assert parse_config(_graded_solve_cfg(400, 2))["grid"]["grading"] == 2.0
    uniform = _graded_solve_cfg(4000, 2)
    uniform["grid"]["grading"] = 1.0
    assert parse_config(uniform)["grid"]["n"] == 4000
    for n, d in ((1024, 2), (2048, 1), (4000, 2)):
        with pytest.raises(ConfigError, match="above the cap 2048"):
            parse_config(_graded_solve_cfg(n, d))
    path = _config(tmp_path, "big", _graded_solve_cfg(4000, 2))
    assert main(["solve", "--config", path, "--out", str(tmp_path / "x")]) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_ml_eval_norm_table(tmp_path):
    cfg = {
        "name": "ml",
        "kind": "MlEval",
        "system": dict(BASE_SYSTEM),
        "grid": {"t_max": 10.0, "n": 100},
    }
    path = _config(tmp_path, "m", cfg)
    out = tmp_path / "out"
    assert main(["ml-eval", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["sup_norm_ml"] == pytest.approx(1.0, rel=1e-9)
    assert report["horizon_norm_ml"] < 0.2
    rows = (out / "decay.csv").read_text(encoding="utf-8").splitlines()
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert np.all(np.diff(values[:, 1]) < 0.0)



def test_ml_eval_overflow_is_a_numerical_failure(tmp_path, capsys):
    # exp(t (0.1 +- i)) overflows before t = 7100; the report once held
    # "sup_norm_ml": NaN, which is not JSON, and the run exited 0
    cfg = {
        "name": "alpha-one",
        "kind": "MlEval",
        "system": {"alpha": 1.0, "a": [[0.1, 1.0], [-1.0, 0.1]]},
        "grid": {"t_max": 7100.0, "n": 100},
    }
    path = _config(tmp_path, "m", cfg)
    assert main(["ml-eval", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_robust_demo_contracts(tmp_path):
    cfg = {
        "name": "demo",
        "kind": "RobustDemo",
        "system": dict(BASE_SYSTEM),
        "perturbation": {"kind": "linear_constant", "q0": [[0.5]]},
        "grid": {"t_max": 200.0, "n": 800},
    }
    path = _config(tmp_path, "d", cfg)
    out = tmp_path / "out"
    assert main(["robust-demo", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    demo = report["demo"]
    assert len(demo["ratios"]) == 10
    assert demo["contracted"]
    assert demo["max_ratio"] <= 0.1
    assert (out / "trajectory.csv").exists()

    unstable = _config(tmp_path, "du", {**cfg, "system": {"alpha": 0.5, "a": [[1.0]]}})
    out2 = tmp_path / "out2"
    assert main(["robust-demo", "--config", unstable, "--out", str(out2)]) == 1
    report2 = json.loads((out2 / "report.json").read_text(encoding="utf-8"))
    assert report2["demo"] is None


def test_robust_demo_without_a_delta_ball(tmp_path):
    # a decaying gain whose certified delta underflows to 0: no demo, exit 1,
    # and a report.json that stays valid JSON (no NaN ratios)
    cfg = {
        "name": "demo0",
        "kind": "RobustDemo",
        "system": dict(BASE_SYSTEM),
        "perturbation": {"kind": "linear_decaying", "q0": [[12.0]], "gamma": 2.0},
        "grid": {"t_max": 10.0, "n": 200},
    }
    path = _config(tmp_path, "d0", cfg)
    out = tmp_path / "out"
    assert main(["robust-demo", "--config", path, "--out", str(out)]) == 1
    text = (out / "report.json").read_text(encoding="utf-8")
    assert "NaN" not in text
    report = json.loads(text)
    assert report["verdict"] == "DecayingStable"
    assert report["delta"] == 0.0
    assert report["demo"] is None
    assert any("delta is 0" in note for note in report["notes"])
    assert not (out / "trajectory.csv").exists()


def test_boundedness_subcommand(tmp_path):
    cfg = {
        "name": "bnd",
        "kind": "BoundednessProbe",
        "system": {"alpha": 0.5, "a": [[-1.0, 0.0], [0.0, -2.0]], "norm": "max"},
        "grid": {"t_max": 200.0, "n": 800},
    }
    path = _config(tmp_path, "b", cfg)
    out = tmp_path / "out"
    assert main(["boundedness", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["per_basis_bounded"] == [True, True]
    assert report["inferred_stable"]

    short = _config(tmp_path, "bs", {**cfg, "grid": {"t_max": 50.0, "n": 200}})
    assert main(["boundedness", "--config", short, "--out", str(tmp_path / "y")]) == 2


def test_boundedness_report_is_strict_json(tmp_path):
    # the basis solve overflows: its sup norm is written as null, not Infinity
    cfg = {
        "name": "huge",
        "kind": "BoundednessProbe",
        "system": {"alpha": 0.5, "a": [[1e300]]},
        "grid": {"t_max": 120.0, "n": 300},
    }
    path = _config(tmp_path, "h", cfg)
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        assert main(["boundedness", "--config", path, "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads((out / "report.json").read_text(encoding="utf-8"), parse_constant=reject)
    assert report["sup_norms"] == [None]
    assert report["per_basis_bounded"] == [False]
    assert "solver failed" in report["notes"][0]


def test_seed_and_norm_overrides(tmp_path):
    path = _config(tmp_path, "a", _analyze_cfg())
    out = tmp_path / "out"
    rc = main(
        ["analyze", "--config", path, "--out", str(out), "--seed", "7", "--norm", "euclidean"]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["seed"] == 7
    assert report["norm"] == "euclidean"
    # an override passes the same validation as the config's own value
    assert main(["analyze", "--config", path, "--out", str(out), "--seed", "-1"]) == 2


def test_out_dir_falls_back_to_config(tmp_path):
    target = tmp_path / "from_config"
    cfg = _analyze_cfg(output={"directory": str(target)})
    path = _config(tmp_path, "a", cfg)
    assert main(["analyze", "--config", path]) == 0
    assert (target / "report.json").exists()
    missing = _config(tmp_path, "a2", _analyze_cfg())
    assert main(["analyze", "--config", missing]) == 2


def test_runs_are_byte_identical(tmp_path):
    configs = [
        ("analyze", _analyze_cfg()),
        ("counterexample", _counterexample_cfg()),
    ]
    digests = []
    for run in ("one", "two"):
        blob = []
        for sub, cfg in configs:
            path = _config(tmp_path, f"{sub}-{run}", cfg)
            out = tmp_path / run / sub
            assert main([sub, "--config", path, "--out", str(out)]) == 0
            for fname in sorted(os.listdir(out)):
                blob.append((fname, (out / fname).read_bytes()))
        digests.append(blob)
    assert digests[0] == digests[1]
    assert not any(name.endswith(".tmp") for name, _ in digests[0])


def test_package_imports_without_scipy():
    src = os.path.dirname(os.path.dirname(fracstab.__file__))
    code = (
        "import fracstab, fracstab.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
