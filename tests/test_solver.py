"""Solver tests: exact propagators, the predictor-corrector, the fixed-point
iteration, and the integral-equation residual."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfcx

from fracstab import quad, solver
from fracstab.errors import (
    DomainError,
    GridError,
    IterationDivergenceError,
    NonFiniteStateError,
)
from fracstab.norms import operator_norm, vector_norm
from fracstab.quad import TimeGrid, graded_grid, uniform_grid
from fracstab.solver import (
    LinearConstant,
    LinearDecaying,
    LinearTable,
    NonlinearSaturating,
    NonlinearTable,
    Trajectory,
    as_perturbation,
    lyapunov_perron_iterate,
    residual_check,
    solve_abm,
    solve_linear_exact,
    solve_rl_scalar_exact,
)
from fracstab.special_fn import MLParams, ml

A_NEG = np.array([[-1.0]])


def kink_grid(horizon, n, alpha):
    # grading 2/alpha resolves the t^alpha initial layer of Caputo paths
    return graded_grid(horizon, n, 2.0 / alpha)


def trapezoid_row(grid, alpha, n):
    """The product-trapezoid row of node n, from the nodes' own lags."""
    t = grid.nodes[: n + 1]
    dt = np.diff(t)
    return quad._product_rows(t[-1] - t, dt, 1.0 / dt, alpha, np.empty((3, n + 1)))[1]


# ---------------------------------------------------------------------------
# perturbation kinds


def test_no_perturbation_and_coercion():
    p = as_perturbation(None, 2)
    assert isinstance(p, LinearConstant)
    assert np.array_equal(p.q0, np.zeros((2, 2)))
    assert p.envelope(3.0) == 0.0
    assert np.all(p.field(1.0, np.array([2.0, -1.0])) == 0.0)
    with pytest.raises(DomainError):
        as_perturbation(0.5, 1)


def test_perturbation_validation():
    with pytest.raises(DomainError):
        LinearDecaying([[0.5]], gamma=0.0)
    with pytest.raises(DomainError):
        LinearConstant([[1.0, 2.0]])
    with pytest.raises(DomainError):
        LinearTable([0.0, 0.0], [np.eye(1), np.eye(1)])
    with pytest.raises(DomainError):
        LinearTable([], [])
    with pytest.raises(DomainError):
        NonlinearTable([0.0, 1.0], [0.5, -0.1])
    with pytest.raises(DomainError):
        NonlinearSaturating(math.inf)


@pytest.mark.parametrize(
    "times, message",
    [
        ([[0.0, 1.0]], "equal nonzero length"),
        ([0.0], "equal nonzero length"),
        ([0.0, math.nan], "finite and strictly increasing"),
        ([1.0, 0.5], "finite and strictly increasing"),
        ([-1.0, 0.5], "times must be nonnegative"),
    ],
)
def test_tables_check_their_times_alike(times, message):
    with pytest.raises(DomainError, match=message):
        LinearTable(times, [np.eye(1), np.eye(1)])
    with pytest.raises(DomainError, match=message):
        NonlinearTable(times, [0.5, 0.1])


def test_linear_envelope_equals_norm_for_constant():
    q = np.array([[0.3, -0.1], [0.2, 0.05]])
    p = LinearConstant(q)
    for norm in ("max", "euclidean", "one"):
        assert p.envelope(0.0, norm) == operator_norm(q, norm)
        assert p.envelope(17.2, norm) == operator_norm(q, norm)
    x = np.array([1.0, -2.0])
    assert np.allclose(p.field(5.0, x), q @ x)


def test_decaying_envelope_tracks_matrix():
    p = LinearDecaying([[0.8]], gamma=2.0)
    for t in (0.0, 1.0, 9.0):
        assert p.envelope(t) == pytest.approx(0.8 / (1.0 + t) ** 2)
        assert p.q_matrix(t)[0, 0] == pytest.approx(0.8 / (1.0 + t) ** 2)
    assert p.limit_envelope() == 0.0


def test_table_envelope_dominates_interpolated_norm():
    rng = np.random.default_rng(20240813)
    for _ in range(10):
        times = np.sort(rng.uniform(0.0, 8.0, size=4))
        times[0] = 0.0
        mats = rng.normal(size=(4, 2, 2))
        p = LinearTable(times, mats)
        for t in np.linspace(0.0, 10.0, 41):
            for norm in ("max", "euclidean", "one"):
                assert p.envelope(t, norm) >= operator_norm(p.q_matrix(t), norm) - 1e-12
        # constant extrapolation past the table
        assert np.allclose(p.q_matrix(9.5), mats[-1])


def test_kinds_evaluate_arrays_of_times_like_single_times():
    rng = np.random.default_rng(20260418)
    knots = np.array([0.5, 1.25, 3.0, 4.0])
    mats = rng.normal(size=(4, 2, 2))
    kinds = [
        as_perturbation(None, 2),
        LinearConstant(mats[0]),
        LinearDecaying(mats[1], gamma=1.5),
        LinearTable(knots, mats),
        LinearTable([2.0], mats[:1]),
        NonlinearSaturating(-0.4, gamma=1.5),
        NonlinearTable(knots, [0.5, 0.1, 0.3, 0.2]),
    ]
    # before, at and between the knots, and past the last one
    ts = np.concatenate([[0.0, 0.2], knots, [0.8, 2.1, 3.99, 4.5, 1e3]])
    for p in kinds:
        for norm in ("max", "euclidean", "one"):
            env = p.envelope(ts, norm)
            assert env.shape == ts.shape
            assert np.array_equal(env, [p.envelope(t, norm) for t in ts])
            assert np.ndim(p.envelope(ts[3], norm)) == 0
        if p.is_linear:
            q = p.q_matrix(ts)
            assert q.shape == ts.shape + (2, 2)
            assert np.array_equal(q, np.stack([p.q_matrix(t) for t in ts]))
            assert p.q_matrix(ts[3]).shape == (2, 2)
    table = kinds[3]
    assert np.array_equal(table.q_matrix(knots), mats)
    assert np.array_equal(table.q_matrix([0.0, 9.0]), mats[[0, -1]])
    # the field takes n times with the (n, d) states at them
    xs = rng.normal(size=ts.shape + (2,)) * 3.0
    for p in kinds:
        f = p.field(ts, xs)
        assert f.shape == xs.shape
        per_node = np.stack([p.field(t, x) for t, x in zip(ts, xs)])
        assert np.max(np.abs(f - per_node)) <= 1e-15 * max(np.max(np.abs(per_node)), 1e-300)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_single_state_fields_give_the_batched_bits(d):
    """A time with a 1-d float state takes the short path of the kinds that
    have one; its value is, bit for bit, the batched code's for the same
    time and the state as one row."""
    rng = np.random.default_rng([20261020, d])
    mats = rng.normal(size=(2, d, d))
    kinds = [
        LinearConstant(mats[0]),
        LinearDecaying(mats[1], gamma=1.5),
        NonlinearSaturating(-0.4, gamma=1.5),
    ]
    ts = np.array([0.0, 0.2, 1.25, 3.99, 1e3])
    xs = rng.normal(size=ts.shape + (d,)) * 3.0
    assert solver._one_state(xs[0]) and not solver._one_state(list(xs[0]))
    for p in kinds:
        for t, x in zip(ts, xs):
            for one_t in (t, float(t)):
                single = p.field(one_t, x)
                assert single.shape == (d,)
                assert single.tobytes() == p.field(one_t, x[None, :])[0].tobytes(), (p, t)


def test_nonlinear_kinds_vanish_at_zero_and_are_lipschitz():
    rng = np.random.default_rng(20240814)
    kinds = [
        NonlinearSaturating(0.7),
        NonlinearSaturating(-0.4, gamma=1.5),
        NonlinearTable([0.0, 2.0, 5.0], [0.5, 0.1, 0.3]),
    ]
    for p in kinds:
        assert np.all(p.field(1.3, np.zeros(3)) == 0.0)
        for _ in range(25):
            t = rng.uniform(0.0, 6.0)
            x = rng.normal(size=3) * 3.0
            y = rng.normal(size=3) * 3.0
            for norm in ("max", "euclidean", "one"):
                lhs = vector_norm(p.field(t, x) - p.field(t, y), norm)
                assert lhs <= p.envelope(t, norm) * vector_norm(x - y, norm) + 1e-12
    assert NonlinearSaturating(0.7).limit_envelope() == pytest.approx(0.7)
    assert NonlinearSaturating(-0.4, gamma=1.5).limit_envelope() == 0.0
    assert NonlinearTable([0.0, 1.0], [0.5, 0.2]).limit_envelope() == pytest.approx(0.2)


def _seeded_tables(rng, count):
    """Tables with 1-8 knots: some reach past 2^15, and some have equal
    node norms in every norm (a unit entry moving along the diagonal)."""
    for i in range(count):
        n = int(rng.integers(1, 9))
        start = 2.0 ** 15 - 40.0 if i % 3 == 1 else 0.0
        times = start + np.cumsum(rng.uniform(0.01, 30.0, n))
        if i % 2 == 0:
            times -= times[0] - start
        if i % 4 == 2:
            mats = np.stack([np.diag(np.roll([1.5, 0.0], k)) for k in range(n)])
            values = np.full(n, 1.5)
        else:
            mats = rng.normal(size=(n, 2, 2))
            values = rng.uniform(0.0, 3.0, n)
        yield LinearTable(times, mats)
        yield NonlinearTable(times, values)


def test_envelope_sup_and_limit_follow_the_kinds_contract():
    rng = np.random.default_rng(20261019)
    kinds = [
        as_perturbation(None, 2),
        LinearConstant([[0.3, -0.2], [0.1, 0.4]]),
        LinearDecaying([[0.3, -0.2], [0.1, 0.4]], gamma=1.5),
        NonlinearSaturating(0.7),
        NonlinearSaturating(-0.4, gamma=1.5),
        *_seeded_tables(rng, 24),
    ]
    for p in kinds:
        knots = np.asarray(p.breakpoints())
        last = knots[-1] if knots.size else 0.0
        starts = [0.0, 2.0 ** 15, last + 1.0, rng.uniform(0.0, last + 1.0), *knots[:2]]
        for norm in ("max", "euclidean", "one"):
            assert p.limit_envelope(norm) == p.envelope(np.inf, norm)
            for t0 in starts:
                grid = np.linspace(t0, max(t0, last) + 10.0, 2001)
                dense = np.concatenate([grid, knots[knots >= t0]])
                peak = np.max(p.envelope(dense, norm))
                # linear interpolation can round a few ulps past its ends
                assert p.envelope_sup(t0, norm) >= peak - 4.0 * np.spacing(peak)


# ---------------------------------------------------------------------------
# exact linear propagator


def test_exact_linear_zero_state():
    g = uniform_grid(3.0, 16)
    traj = solve_linear_exact(0.6, A_NEG, 0.0, g)
    assert np.all(traj.states == 0.0)
    assert traj.meta["method"] == "linear_exact"


def test_exact_linear_classical_limit_is_exp():
    g = uniform_grid(2.0, 20)
    traj = solve_linear_exact(1.0, A_NEG, 1.0, g)
    assert np.allclose(traj.states[:, 0], np.exp(-g.nodes), atol=1e-12)


def test_exact_linear_half_order_matches_scaled_erfc():
    # E_{1/2}(-sqrt(t)) = exp(t) erfc(sqrt(t))
    g = uniform_grid(4.0, 32)
    traj = solve_linear_exact(0.5, A_NEG, 1.0, g)
    want = erfcx(np.sqrt(g.nodes))
    assert np.allclose(traj.states[:, 0], want, rtol=1e-10, atol=1e-13)
    assert traj.states[0, 0] == 1.0


def test_solvers_take_the_fractional_order_range_plus_one():
    g = uniform_grid(1.0, 8)
    zero_field = lambda t, x: 0.0 * x
    assert np.all(solve_abm(1.0, zero_field, 1.0, g).states == 1.0)
    for bad in (0.0, 1.5, math.nan):
        with pytest.raises(DomainError):
            solve_abm(bad, zero_field, 1.0, g)
        with pytest.raises(DomainError):
            solve_linear_exact(bad, A_NEG, 1.0, g)


# ---------------------------------------------------------------------------
# predictor-corrector


def test_abm_zero_field_holds_initial_state():
    g = uniform_grid(5.0, 32)
    traj = solve_abm(0.5, lambda t, x: 0.0 * x, np.array([2.0, -1.0]), g)
    assert np.all(traj.states == np.array([2.0, -1.0]))


def test_abm_matches_exact_linear():
    # the pinned case first, then the alpha sweep on kink-resolving grids
    g = kink_grid(5.0, 256, 0.6)
    ex = solve_linear_exact(0.6, A_NEG, 1.0, g)
    ab = solve_abm(0.6, lambda t, x: -x, 1.0, g)
    assert np.max(np.abs(ex.states - ab.states)) <= 5e-4
    for alpha in (0.3, 0.5, 0.8):
        g = kink_grid(5.0, 256, alpha)
        ex = solve_linear_exact(alpha, A_NEG, 1.0, g)
        ab = solve_abm(alpha, lambda t, x: -x, 1.0, g, corrector_sweeps=2)
        assert np.max(np.abs(ex.states - ab.states)) <= 5e-4


def test_abm_order_reaches_advertised_rate():
    for alpha in (0.4, 0.7):
        errs = {}
        for n in (128, 512):
            g = kink_grid(5.0, n, alpha)
            ex = solve_linear_exact(alpha, A_NEG, 1.0, g)
            ab = solve_abm(alpha, lambda t, x: -x, 1.0, g)
            errs[n] = np.max(np.abs(ex.states - ab.states))
        order = math.log2(errs[128] / errs[512]) / 2.0
        assert order >= min(2.0, 1.0 + alpha) - 0.15


def test_abm_blowup_raises_nonfinite():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError):
            solve_abm(0.8, lambda t, x: x ** 3, 3.0, uniform_grid(5.0, 128))


@pytest.mark.parametrize(
    "alpha, grid, x0, t_stop",
    [
        (0.6, graded_grid(5.0, 256, 2.0), 1.0, 0.37384033203125),
        (0.5, graded_grid(4.0, 300, 3.0), np.array([0.5, 1.0]), 0.2137625185185185),
    ],
)
def test_abm_graded_blowup_names_its_step(alpha, grid, x0, t_stop):
    # the step whose state first overflows, as the solver has always named it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError, match=re.escape(f"at t = {t_stop}")):
                solve_abm(alpha, lambda t, x: x ** 2, x0, grid)


@pytest.mark.parametrize("grid", [uniform_grid(5.0, 128), graded_grid(5.0, 128, 2.0)], ids=["uniform", "graded"])
def test_abm_nan_component_raises_at_its_step(grid):
    t_nan = grid.nodes[40]

    def field(t, x):
        return -x if t < t_nan else np.array([-x[0], np.nan, -x[2]])

    # NaN arithmetic raises no floating-point flag, so nothing may warn here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError, match=re.escape(f"at t = {t_nan}")):
            solve_abm(0.6, field, np.array([1.0, 2.0, 3.0]), grid)
        # one step short of the NaN, the solve finishes
        short = TimeGrid(grid.nodes[:40], r=grid.r)
        assert np.all(np.isfinite(solve_abm(0.6, field, np.array([1.0, 2.0, 3.0]), short).states))


def test_abm_rejects_zero_sweeps():
    with pytest.raises(DomainError):
        solve_abm(0.5, lambda t, x: -x, 1.0, uniform_grid(1.0, 4), corrector_sweeps=0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_abm_tabulated_weights_match_the_per_step_path(alpha):
    g = uniform_grid(7.0, 150)
    # the same nodes with r != 1 take the per-step weights
    graded = TimeGrid(g.nodes, r=2.0)
    a = np.array([[-0.2, 1.0], [-1.0, -0.2]])
    cases = [
        (lambda t, x: -x + 0.3 * np.sin(t) * np.tanh(x), 1.0),
        (lambda t, x: a @ x + 0.3 * np.sin(t) * np.tanh(x), np.array([1.0, -0.5])),
    ]
    for field, x0 in cases:
        for sweeps in (1, 2):
            tab = solve_abm(alpha, field, x0, g, corrector_sweeps=sweeps).states
            row = solve_abm(alpha, field, x0, graded, corrector_sweeps=sweeps).states
            assert np.max(np.abs(tab - row)) <= 1e-13 * np.max(np.abs(row))
    # uneven nodes take the per-step weights even with the default r
    uneven = graded_grid(7.0, 60, 2.0)
    field = cases[0][0]
    assert np.array_equal(
        solve_abm(alpha, field, 1.0, TimeGrid(uneven.nodes)).states,
        solve_abm(alpha, field, 1.0, uneven).states,
    )
    # the solver's rows of step n, read through its own history product: with
    # the identity as the history, zero start and unit scale the product
    # returns the rows themselves
    step = solver._abm_sums(g, alpha, np.zeros(len(g)), 1.0, np.eye(len(g)))
    for n in (1, 2, 17, 150):
        sums, last = step(n)
        rect, w = sums[0, :n], np.append(sums[1, :n], last)
        ref = trapezoid_row(g, alpha, n)
        # step n weighs only the nodes before it
        assert not sums[:, n:].any()
        assert np.max(np.abs(w - ref)) <= 1e-13 * np.max(np.abs(ref))
        # both rules integrate the kernel itself exactly
        total = g.nodes[n] ** alpha / alpha
        assert rect.sum() == pytest.approx(total, rel=1e-13)
        assert w.sum() == pytest.approx(total, rel=1e-13)


def test_abm_weight_work_per_grid_kind(monkeypatch):
    moments, rows = [], []

    def counting(calls, original):
        def counted(*args):
            calls.append(args[3])
            return original(*args)

        return counted

    # every product rule takes its moments from quad._lag_moments, and the
    # solver its weight rows from quad._product_rows
    monkeypatch.setattr(quad, "_lag_moments", counting(moments, quad._lag_moments))
    monkeypatch.setattr(solver, "_product_rows", counting(rows, quad._product_rows))

    def count(grid):
        moments.clear()
        rows.clear()
        solve_abm(0.5, lambda t, x: -x, 1.0, grid)
        return len(moments), len(rows)

    # uniform: one moment evaluation and one row pair, whatever the step count
    assert count(uniform_grid(5.0, 64)) == count(uniform_grid(5.0, 256)) == (1, 1)
    # graded: one row pair per step, from one moment evaluation
    for n in (64, 256):
        assert count(graded_grid(5.0, n, 2.0)) == (n, n)


def _exact_rows(lags, alpha, mp):
    """Rectangle and trapezoid rows of the product rules for the lags
    lags[0] > ... > lags[n] = 0 (mpmath numbers), and the kernel's
    integral lags[0]^alpha / alpha, which both rows sum to."""
    n = len(lags) - 1
    rect, trap = [], [mp.mpf(0)] * (n + 1)
    for j in range(n):
        left, right = lags[j], lags[j + 1]
        m0 = (left ** alpha - right ** alpha) / alpha
        m1 = left * m0 - (left ** (alpha + 1) - right ** (alpha + 1)) / (alpha + 1)
        rect.append(m0)
        trap[j] += m0 - m1 / (left - right)
        trap[j + 1] += m1 / (left - right)
    return rect, trap, lags[0] ** alpha / alpha


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_abm_weights_match_mpmath(alpha):
    """The solver's rectangle and trapezoid rows, and the trapezoid row of
    the nodes' own lags, against the rules' moments at 40 digits, as a
    share of the weight sum.

    A graded row takes the lags t_n - t_j of its nodes.  The uniform table
    takes the lag of node j at step n to be the node t_{n-j}, which is
    where its rows are exact; the evenly spaced nodes differ from that by
    their rounding, which the row near lag 0 feels most (the last step's
    rows at alpha = 0.3 read 2.8e-15 of the sum against t_n - t_j)."""
    mp = pytest.importorskip("mpmath")
    n_max = 400
    for g in (uniform_grid(5.0, n_max), graded_grid(5.0, n_max, 2.0), graded_grid(5.0, n_max, 4.0)):
        t = g.nodes
        step = solver._abm_sums(g, alpha, np.zeros(len(g)), 1.0, np.eye(len(g)))
        for n in (1, 2, 17, n_max):
            sums, last = step(n)
            rows = [sums[0, :n], np.append(sums[1, :n], last)]
            with mp.workdps(40):
                a = mp.mpf(alpha)
                node = _exact_rows([mp.mpf(t[n]) - mp.mpf(x) for x in t[: n + 1]], a, mp)
                # (computed row, exact row, weight sum, bound)
                checks = [(trapezoid_row(g, alpha, n), node[1], node[2], 1e-15)]
                if g.is_uniform:
                    table = _exact_rows([mp.mpf(x) for x in t[n::-1]], a, mp)
                    checks += [(r, e, table[2], 1e-15) for r, e in zip(rows, table)]
                    checks += [(r, e, node[2], 4e-15) for r, e in zip(rows, node)]
                else:
                    checks += [(r, e, node[2], 1e-15) for r, e in zip(rows, node)]
                for got, want, total, bound in checks:
                    err = max(abs(mp.mpf(x) - y) for x, y in zip(got, want))
                    assert err <= bound * total, (g.r, n, bound)


def _reference_abm(alpha, field, x0, grid, sweeps):
    """The predictor-corrector step by step: corrector weights from the
    trapezoid row of the nodes' own lags, rectangle weights from the lag
    powers."""
    t = grid.nodes
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    c = 1.0 / math.gamma(alpha)
    states, fs = [x], [np.broadcast_to(field(t[0], x), x.shape)]
    for n in range(1, t.size):
        w = trapezoid_row(grid, alpha, n)
        lags = t[n] - t[: n + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            rect = lags[1:] ** alpha * np.expm1(alpha * np.log1p(-np.diff(lags) / lags[1:]))
        rect[-1] = lags[-2] ** alpha
        hist = np.array(fs)
        state = x + c * ((rect / alpha) @ hist)
        base = x + c * (w[:n] @ hist)
        for _ in range(sweeps):
            state = base + c * w[n] * field(t[n], state)
        states.append(state)
        fs.append(np.broadcast_to(field(t[n], state), x.shape))
    return np.array(states)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("grid", [uniform_grid(6.0, 120), graded_grid(6.0, 120, 2.0)], ids=["uniform", "graded"])
def test_abm_matches_a_step_by_step_reference(alpha, grid):
    a = np.array([[-0.2, 1.0], [-1.0, -0.2]])
    cases = [
        (lambda t, x: -x + 0.3 * np.sin(t) * np.tanh(x), 1.0),
        (lambda t, x: a @ x + 0.3 * np.sin(t) * np.tanh(x), np.array([1.0, -0.5])),
    ]
    for field, x0 in cases:
        for sweeps in (1, 2):
            got = solve_abm(alpha, field, x0, grid, corrector_sweeps=sweeps).states
            want = _reference_abm(alpha, field, x0, grid, sweeps)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_abm_checks_the_field_shape_once():
    g = uniform_grid(2.0, 16)
    x0 = np.array([1.0, -0.5])
    for bad in (np.ones(3), np.ones((2, 1))):
        with pytest.raises(DomainError, match="does not broadcast"):
            solve_abm(0.5, lambda t, x, bad=bad: bad, x0, g)
    # a scalar field value stands for every component
    scalar = solve_abm(0.5, lambda t, x: -1.0, x0, g).states
    vector = solve_abm(0.5, lambda t, x: -np.ones(2), x0, g).states
    assert np.array_equal(scalar, vector)


# ---------------------------------------------------------------------------
# fixed-point iteration


def test_iteration_without_perturbation_stops_after_one_pass():
    g = uniform_grid(3.0, 64)
    lp = lyapunov_perron_iterate(0.5, A_NEG, None, 1.0, g)
    ex = solve_linear_exact(0.5, A_NEG, 1.0, g)
    assert np.array_equal(lp.states, ex.states)
    assert lp.meta["iterations"] == 1


def test_iteration_contracts_at_half_strength():
    # scalar A=-1: q equals the perturbation strength c = 0.5
    g = uniform_grid(5.0, 512)
    lp = lyapunov_perron_iterate(0.5, A_NEG, LinearConstant([[0.5]]), 1.0, g)
    assert lp.meta["residual"] <= 1e-10
    assert lp.meta["ratios"]
    assert max(lp.meta["ratios"]) <= 0.55


def test_iteration_diverges_at_strong_perturbation():
    g = uniform_grid(50.0, 400)
    with pytest.raises(IterationDivergenceError, match="last ratio"):
        lyapunov_perron_iterate(0.5, A_NEG, LinearConstant([[1.5]]), 1.0, g)


@pytest.mark.parametrize(
    "grid, finite_ratio",
    [(uniform_grid(20.0, 200), "18.7325"), (graded_grid(20.0, 100, 2.0), "21.2848")],
    ids=["uniform", "graded"],
)
def test_iteration_overflow_ends_without_warnings(grid, finite_ratio):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IterationDivergenceError) as err:
            lyapunov_perron_iterate(0.5, A_NEG, LinearConstant([[1000.0]]), 1.0, grid)
    msg = str(err.value)
    assert re.fullmatch(r"no convergence: iteration \d+ overflowed; last finite ratio \d+\.?\d*", msg), msg
    # a divergence that stays finite keeps its message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IterationDivergenceError) as err:
            lyapunov_perron_iterate(0.5, A_NEG, LinearConstant([[50.0]]), 1.0, grid)
    assert str(err.value) == f"no convergence after 200 iterations; last ratio {finite_ratio}"


def test_bench_systems_keep_their_iteration_counts(monkeypatch):
    graded = lyapunov_perron_iterate(
        0.5, A_NEG, LinearConstant([[0.5]]), 1.0, graded_grid(5.0, 128, 4.0)
    )
    assert graded.meta["iterations"] == 19
    calls = []
    original = np.convolve

    def counted(x, y, *args, **kwargs):
        calls.append(len(x))
        return original(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "convolve", counted)
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    uniform = lyapunov_perron_iterate(
        0.5, rotation, LinearDecaying(0.2 * np.eye(2), gamma=1.0), np.array([1.0, -0.5]),
        uniform_grid(5.0, 512),
    )
    assert uniform.meta["iterations"] == 10
    # d^2 = 4 convolutions per application
    assert len(calls) == 40


def test_iteration_and_abm_agree_on_perturbed_system():
    g = uniform_grid(0.25, 6144)
    lp = lyapunov_perron_iterate(0.5, A_NEG, LinearConstant([[0.2]]), 1.0, g)
    ab = solve_abm(0.5, lambda t, x: -x + 0.2 * x, 1.0, g)
    assert np.max(np.abs(lp.states - ab.states)) <= 1e-5


def test_iteration_on_coupled_system():
    a = np.array([[-1.0, 0.0], [0.0, -2.0]])
    q = np.array([[0.0, 0.2], [0.1, 0.0]])
    g = uniform_grid(0.5, 2048)
    lp = lyapunov_perron_iterate(0.5, a, LinearConstant(q), np.array([1.0, -1.0]), g)
    ab = solve_abm(0.5, lambda t, x: a @ x + q @ x, np.array([1.0, -1.0]), g)
    assert max(lp.meta["ratios"]) < 0.5
    assert np.max(np.abs(lp.states - ab.states)) <= 2e-4


def test_iteration_evaluates_the_kernel_once(monkeypatch):
    betas = []
    original = solver.ml_matrix

    def counted(params, t, a):
        betas.append(params.beta)
        return original(params, t, a)

    monkeypatch.setattr(solver, "ml_matrix", counted)
    g = graded_grid(5.0, 32, 4.0)
    lp = lyapunov_perron_iterate(0.5, A_NEG, LinearConstant([[0.5]]), 1.0, g)
    assert lp.meta["iterations"] > 1
    # one call for the linear part (beta = 1), one for the kernel (beta = alpha)
    assert betas == [1.0, 0.5]


@pytest.mark.parametrize(
    "grid", [uniform_grid(5.0, 64), graded_grid(5.0, 32, 2.0)], ids=["uniform", "graded"]
)
def test_iteration_kernel_stack_is_built_in_blocks(monkeypatch, grid):
    # the graded grid's 561 lags take 81 blocks of at most 7; each slice of
    # ml_matrix depends on its own time alone, so the states keep their bits
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    pert = LinearDecaying(0.2 * np.eye(2), gamma=1.0)
    x0 = np.array([1.0, -0.5])
    one_block = lyapunov_perron_iterate(0.5, rotation, pert, x0, grid)
    sizes = []
    original = solver.ml_matrix

    def counted(params, t, a):
        if params.beta == params.alpha:
            sizes.append(np.asarray(t).size)
        return original(params, t, a)

    monkeypatch.setattr(solver, "ml_matrix", counted)
    monkeypatch.setattr(solver, "_LP_KERNEL_BLOCK", 7)
    blocked = lyapunov_perron_iterate(0.5, rotation, pert, x0, grid)
    assert len(sizes) > 1 and max(sizes) <= 7
    assert blocked.states.tobytes() == one_block.states.tobytes()


def test_iteration_builds_the_convolution_once(monkeypatch):
    calls = []
    original = quad._lag_moments

    def counted(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(quad, "_lag_moments", counted)
    pert = LinearConstant([[0.5]])
    for g in (uniform_grid(5.0, 64), graded_grid(5.0, 64, 2.0)):
        calls.clear()
        quad._convolution_operator(g, 0.5, lambda lags: np.ones((lags.size, 1, 1)))
        one_build = len(calls)
        calls.clear()
        lp = lyapunov_perron_iterate(0.5, A_NEG, pert, 1.0, g)
        assert lp.meta["iterations"] >= 5
        # the moments are computed for the build, not per iteration
        assert len(calls) == one_build
        calls.clear()
        residual_check(lp, 0.5, A_NEG, pert)
        assert len(calls) == one_build


# ---------------------------------------------------------------------------
# Riemann-Liouville closed form


def test_rl_growth_under_constant_feedback():
    # b = 2*lambda flips the sign of the effective coefficient
    g = uniform_grid(20.0, 40)
    rl = solve_rl_scalar_exact(0.5, 1.0, 2.0, 1.0, g)
    assert rl.start_index == 1
    assert rl.times[0] > 0.0
    t = rl.times
    x = rl.states[:, 0]
    i10 = int(np.argmin(np.abs(t - 10.0)))
    i20 = int(np.argmin(np.abs(t - 20.0)))
    assert x[i20] > 10.0 * x[i10]


def test_rl_unperturbed_decays():
    g = uniform_grid(20.0, 40)
    rl = solve_rl_scalar_exact(0.5, 1.0, 0.0, 1.0, g)
    x = rl.states[:, 0]
    assert np.all(x > 0.0)
    assert np.all(np.diff(x) < 0.0)
    # envelope decays like t^(-alpha-1); a 40x time range gives ~1/90 here
    assert x[-1] < 0.02 * x[0]


def test_rl_zero_state_and_validation():
    g = uniform_grid(5.0, 10)
    rl = solve_rl_scalar_exact(0.4, 2.0, 1.0, 0.0, g)
    assert np.all(rl.states == 0.0)
    with pytest.raises(DomainError):
        solve_rl_scalar_exact(0.4, -1.0, 0.0, 1.0, g)


# ---------------------------------------------------------------------------
# residual


def test_exact_trajectory_is_a_fixed_point():
    g = uniform_grid(4.0, 64)
    ex = solve_linear_exact(0.5, A_NEG, 1.0, g)
    assert residual_check(ex, 0.5, A_NEG) <= 1e-10


def test_residual_flags_corrupted_state():
    g = uniform_grid(4.0, 64)
    ex = solve_linear_exact(0.5, A_NEG, 1.0, g)
    states = ex.states.copy()
    states[32] += 0.1
    bad = Trajectory(grid=g, states=states, meta=dict(ex.meta))
    assert residual_check(bad, 0.5, A_NEG) >= 0.05


def test_residual_shrinks_at_solver_order():
    cases = [
        (0.7, lambda n: kink_grid(4.0, n, 0.7)),
        (0.95, lambda n: uniform_grid(4.0, n)),
    ]
    for alpha, make in cases:
        pert = LinearConstant([[0.2]])
        res = {}
        for n in (128, 256):
            g = make(n)
            ab = solve_abm(alpha, lambda t, x: -x + 0.2 * x, 1.0, g)
            res[n] = residual_check(ab, alpha, A_NEG, pert)
        expected = 2.0 ** min(2.0, 1.0 + alpha)
        ratio = res[128] / res[256]
        assert expected * 0.75 <= ratio <= expected * 1.3


def test_residual_rejects_mismatched_trajectories():
    g = uniform_grid(2.0, 8)
    rl = solve_rl_scalar_exact(0.5, 1.0, 0.0, 1.0, g)
    with pytest.raises(GridError):
        residual_check(rl, 0.5, A_NEG)
    ex = solve_linear_exact(0.5, A_NEG, 1.0, g)
    with pytest.raises(GridError):
        residual_check(ex, 0.5, np.diag([-1.0, -2.0]))


# ---------------------------------------------------------------------------
# degenerate grids, long horizons, and the kernel identity


def test_single_node_grid_returns_initial_state():
    g = TimeGrid(np.array([0.0]))
    x0 = np.array([1.5, -0.5])
    a = np.diag([-1.0, -2.0])
    for traj in (
        solve_linear_exact(0.5, a, x0, g),
        solve_abm(0.5, lambda t, x: a @ x, x0, g),
        lyapunov_perron_iterate(0.5, a, None, x0, g),
    ):
        assert traj.states.shape == (1, 2)
        assert np.all(traj.states[0] == x0)
        assert traj.meta["residual"] == 0.0
    assert residual_check(solve_linear_exact(0.5, a, x0, g), 0.5, a) == 0.0


def test_perturbed_decay_over_long_horizon():
    # spectrally stable with q < 1: the tail must sit well under the start
    for alpha in (0.5, 0.8):
        g = uniform_grid(200.0, 1024)
        ab = solve_abm(alpha, lambda t, x: -x + 0.3 * x, 1.0, g)
        tail = np.max(np.abs(ab.states[3 * len(g) // 4 :]))
        assert tail < 0.1


def test_ml_kernel_antiderivative_identity():
    # E_a(-l t^a) = 1 - l * integral_0^t tau^(a-1) E_{a,a}(-l tau^a) dtau,
    # evaluated through the substitution v = tau^a
    for alpha in (0.3, 0.5, 0.8):
        p1 = MLParams(alpha, 1.0)
        paa = MLParams(alpha, alpha)
        for lam in (1.0, 2.0):
            for t in (0.25, 1.0, 4.0):
                part, _ = integrate.quad(
                    lambda v: ml(paa, -lam * v).real, 0.0, t ** alpha,
                    limit=200, epsabs=1e-12, epsrel=1e-10,
                )
                lhs = ml(p1, -lam * t ** alpha).real
                assert abs(lhs - (1.0 - lam * part / alpha)) <= 1e-6
