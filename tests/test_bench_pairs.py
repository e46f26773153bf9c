"""Tests for the verdict rule of scripts/bench_pairs.py (no runs made)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_clear_win_is_a_gain():
    change = [p - 0.2 for p in PARENT]
    v = verdict(PARENT, change, "lower", 0.25)
    assert v["verdict"] == "gain"
    assert v["wins"] == 10 and v["pairs"] == 10
    assert v["parent_median"] == pytest.approx(1.0)
    assert v["change_median"] == pytest.approx(0.8)


def test_nine_of_ten_wins_is_enough_and_eight_is_not():
    change = [p - 0.2 for p in PARENT]
    change[0] = PARENT[0] + 0.5
    assert verdict(PARENT, change, "lower", 0.25)["verdict"] == "gain"
    change[1] = PARENT[1]  # a tie counts for neither side
    v = verdict(PARENT, change, "lower", 0.25)
    assert v["wins"] == 8
    assert v["verdict"] == "no gain"


def test_a_median_shift_inside_the_parent_iqr_is_no_gain():
    # wins every pair, but by less than the parent's own quartile spread
    change = [p - 0.005 for p in PARENT]
    v = verdict(PARENT, change, "lower", 0.25)
    assert v["wins"] == 10
    assert v["parent_iqr"] > 0.005
    assert v["verdict"] == "no gain"


def test_worse_than_the_bound_is_a_regression():
    assert verdict(PARENT, [1.3] * 10, "lower", 0.25)["verdict"] == "regression"
    assert verdict(PARENT, [1.2] * 10, "lower", 0.25)["verdict"] == "no gain"


def test_higher_is_better_flips_the_comparison():
    assert verdict(PARENT, [p + 0.2 for p in PARENT], "higher", 0.25)["verdict"] == "gain"
    assert verdict(PARENT, [0.7] * 10, "higher", 0.25)["verdict"] == "regression"


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 2.0, 0.5, 1.5, 0.8, 1.9, 0.6, 1.2, 1.7, 0.4]
    assert verdict(wide, list(wide), "lower", 0.25)["verdict"] == "unresolved"
    # unless every change run beats every parent run
    assert verdict(wide, [0.35] * 10, "lower", 0.25)["verdict"] == "no gain"
    assert verdict(wide, [0.35] * 9 + [2.5], "lower", 0.25)["verdict"] == "unresolved"


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:-1], "lower", 0.25)
    with pytest.raises(ValueError):
        verdict([], [], "lower", 0.25)
