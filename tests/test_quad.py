"""Tests for the product-integration quadrature layer."""
import math
import random

import numpy as np
import pytest
from scipy import integrate

from fracstab import quad
from fracstab.errors import GridError
from fracstab.quad import TimeGrid, _GK21_X, graded_grid, uniform_grid
from fracstab.matfun import ml_matrix
from fracstab.special_fn import MLParams, ml, ml_many


def trapezoid_row(grid, alpha, n):
    """The product-trapezoid row of node n, from the nodes' own lags."""
    t = grid.nodes[: n + 1]
    dt = np.diff(t)
    return quad._product_rows(t[-1] - t, dt, 1.0 / dt, alpha, np.empty((3, n + 1)))[1]


def convolve(grid, alpha, vals, kernel):
    """The convolution operator of the grid, built and applied once."""
    return quad._convolution_operator(grid, alpha, kernel)(vals)


def unit_kernel(lags):
    return np.ones((lags.size, 1, 1))


def gk21(f, a, b, epsabs, epsrel, limit, points=()):
    """The one-span family of f over (a, b) cut at the points."""
    return quad._gk21_family(lambda x, owner: f(x), [(a, b, points)], epsabs, epsrel, limit)[0]


# ---------------------------------------------------------------------------
# grids


def test_uniform_grid_shape():
    g = uniform_grid(2.0, 8)
    assert len(g) == 9
    assert g.is_uniform
    assert g.horizon == 2.0


def test_graded_grid_clusters_at_origin():
    g = graded_grid(1.0, 10, 2.0)
    assert g.nodes[1] == pytest.approx(0.01)
    assert not g.is_uniform
    # uneven nodes are not uniform whatever r says
    assert not TimeGrid(g.nodes).is_uniform
    assert TimeGrid(uniform_grid(7.0, 300).nodes).is_uniform


@pytest.mark.parametrize(
    "nodes",
    [
        [0.1, 0.2],        # does not start at zero
        [0.0, 0.5, 0.5],   # not strictly increasing
        [0.0, math.inf],   # not finite
    ],
)
def test_grid_validation(nodes):
    with pytest.raises(GridError):
        TimeGrid(np.array(nodes))


def test_degenerate_single_node_grid_is_allowed():
    g = TimeGrid(np.array([0.0]))
    assert len(g) == 1 and g.horizon == 0.0


# ---------------------------------------------------------------------------
# singular weights


def test_weights_alpha_one_is_trapezoid():
    g = uniform_grid(1.0, 4)
    w = trapezoid_row(g, 1.0, 4)
    assert np.allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125], atol=1e-14)


def test_weights_constant_exactness():
    """sum w_j = t_n^alpha / alpha, the integral of the bare kernel."""
    rng = random.Random(5)
    for _ in range(30):
        alpha = rng.uniform(0.05, 1.0)
        n = rng.randrange(1, 40)
        g = uniform_grid(rng.uniform(0.1, 20.0), 40)
        w = trapezoid_row(g, alpha, n)
        tn = g.nodes[n]
        assert w.sum() == pytest.approx(tn ** alpha / alpha, rel=1e-12)


def test_weights_beta_identity():
    """g(tau) = tau is integrated exactly: B(2, 1/2) = 4/3."""
    g = uniform_grid(1.0, 64)
    w = trapezoid_row(g, 0.5, 64)
    assert float(w @ g.nodes) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_weights_piecewise_linear_exactness():
    """Random piecewise-linear g is reproduced to near machine precision;
    oracle is adaptive quadrature split at the nodes."""
    rng = np.random.default_rng(11)
    for alpha in (0.3, 0.62, 0.9):
        n = 12
        g = graded_grid(3.0, n, 1.7)
        vals = rng.uniform(-1.0, 1.0, size=n + 1)
        w = trapezoid_row(g, alpha, n)
        got = float(w @ vals)
        ghat = lambda x: np.interp(x, g.nodes, vals)
        tn = g.horizon
        want = 0.0
        for a, b in zip(g.nodes[:-1], g.nodes[1:]):
            want += integrate.quad(
                lambda x: (tn - x) ** (alpha - 1.0) * ghat(x), a, b
            )[0]
        assert got == pytest.approx(want, rel=1e-9)


def test_weights_nonnegative_on_uniform_grids():
    rng = random.Random(17)
    for _ in range(25):
        alpha = rng.uniform(0.05, 1.0)
        g = uniform_grid(rng.uniform(0.5, 10.0), 64)
        n = rng.randrange(1, 65)
        assert np.all(trapezoid_row(g, alpha, n) >= 0.0)


# ---------------------------------------------------------------------------
# singular convolution


def test_convolve_zero_values():
    g = uniform_grid(2.0, 16)
    out = convolve(g, 0.5, np.zeros((17, 1)), unit_kernel)
    assert np.all(out == 0.0)


def test_convolve_identity_kernel_constant_values():
    g = uniform_grid(3.0, 48)
    c = 0.7
    out = convolve(g, 0.4, np.full((49, 1), c), unit_kernel)[:, 0]
    want = c * g.nodes ** 0.4 / 0.4
    assert np.allclose(out, want, rtol=1e-12, atol=1e-13)


def test_convolve_vector_values_matrix_kernel():
    g = uniform_grid(1.0, 24)
    vals = np.column_stack([np.ones(25), g.nodes])
    K = np.array([[0.0, 1.0], [1.0, 0.0]])  # swaps the two components
    out = convolve(g, 0.5, vals, lambda lags: np.broadcast_to(K, (lags.size, 2, 2)))
    w = trapezoid_row(g, 0.5, 24)
    assert out[-1][0] == pytest.approx(float(w @ g.nodes), rel=1e-12)
    assert out[-1][1] == pytest.approx(float(w.sum()), rel=1e-12)


def test_convolve_ml_kernel_antiderivative_identity():
    """∫_0^t (t-s)^(a-1) E_{a,a}(-(t-s)^a) ds = 1 - E_a(-t^a).

    The integrand behaves like lag^(2a-1) at zero lag, so the observed
    rate is min(2, 3*alpha); the cases below bracket that range.
    """
    for alpha, tol64, rate in ((0.5, 6e-3, 2.2), (0.8, 7e-4, 3.5)):
        p_aa = MLParams(alpha, alpha)
        p_a1 = MLParams(alpha, 1.0)
        kernel = lambda lags: ml_many(p_aa, -(lags ** alpha)).real[:, None, None]
        errs = []
        for n in (64, 128):
            g = uniform_grid(4.0, n)
            out = convolve(g, alpha, np.ones((n + 1, 1)), kernel)
            want = 1.0 - ml(p_a1, -(4.0 ** alpha)).real
            errs.append(abs(out[-1, 0] - want))
        assert errs[0] < tol64
        assert errs[1] < errs[0] / rate


def test_convolve_smooth_order_two():
    """Against a 30-digit reference of ∫_0^2 (2-s)^(-1/2) cos(s) ds."""
    want = 0.49709612481454346
    errs = {}
    for n in (128, 256):
        g = uniform_grid(2.0, n)
        out = convolve(g, 0.5, np.cos(g.nodes)[:, None], unit_kernel)
        errs[n] = abs(out[-1, 0] - want)
    order = math.log2(errs[128] / errs[256])
    assert order >= 1.8


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_convolve_uniform_and_per_row_branches_agree(alpha):
    g = uniform_grid(4.0, 96)
    # the same nodes with r != 1 take the per-row branch
    rowwise = TimeGrid(g.nodes, r=1.5)
    a = np.array([[-1.0, 3.0], [0.0, -0.4]])  # non-normal
    p = MLParams(alpha, alpha)
    rng = np.random.default_rng(2026)
    kernels = {
        1: lambda lags: ml_many(p, -(lags ** alpha)).real[:, None, None],
        2: lambda lags: ml_matrix(p, lags, a),
    }
    for d, kernel in kernels.items():
        vals = np.column_stack([np.cos(g.nodes + k) for k in range(d)])
        vals += 0.1 * rng.normal(size=vals.shape)
        fast = convolve(g, alpha, vals, kernel)
        ref = convolve(rowwise, alpha, vals, kernel)
        assert fast.shape == ref.shape == (len(g), d)
        assert np.max(np.abs(fast - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_row_coeffs_match_mpmath(alpha):
    """All four moment coefficients of the Lyapunov-Perron build, against
    their defining powers at 40 digits, on uniform and graded rows; the
    error is measured against the row's sum of each coefficient."""
    mp = pytest.importorskip("mpmath")

    def exact(la, lb, a):
        dy = la ** a - lb ** a
        m1t = (la ** (a + 1) - lb ** (a + 1)) / (a + 1)
        m2t = (la ** (2 * a + 1) - lb ** (2 * a + 1)) / (2 * a + 1)
        c_psi_u = dy / (2 * a)
        return dy / a, la * dy / a - m1t, c_psi_u, la * c_psi_u - (m2t - lb ** a * m1t) / dy

    for g in (uniform_grid(5.0, 800), graded_grid(5.0, 800, 2.0), graded_grid(5.0, 800, 4.0)):
        for n in (1, 2, 800):
            lags = g.nodes[n] - g.nodes[: n + 1]
            got = np.column_stack(quad._row_coeffs(lags[:-1], lags[1:], alpha))
            with mp.workdps(40):
                want = [
                    exact(mp.mpf(la), mp.mpf(lb), mp.mpf(alpha))
                    for la, lb in zip(lags[:-1], lags[1:])
                ]
                for j in range(4):
                    err = max(abs(mp.mpf(x) - w[j]) for x, w in zip(got[:, j], want))
                    assert err <= 6e-13 * sum(abs(w[j]) for w in want), (g.r, n, j)


NON_NORMAL = {
    1: np.array([[-0.7]]),
    2: np.array([[-1.0, 3.0], [0.0, -0.4]]),
    3: np.array([[-1.0, 2.0, 0.0], [0.0, -0.5, 1.5], [0.3, 0.0, -2.0]]),
}


def per_interval_reference(grid, alpha, vals, kernel):
    """The product rule summed interval by interval, row by row: interval j
    of row n adds P u_j + Q (u_{j+1} - u_j) / dt_j, with the blocks P and Q
    of the kernel at its two lags and its _row_coeffs moments."""
    t = grid.nodes
    out = np.zeros_like(vals)
    for n in range(1, t.size):
        lags = t[n] - t[: n + 1]
        k = kernel(lags)
        c_phi_u, c_phi_v, c_psi_u, c_psi_v = (
            c[:, None, None] for c in quad._row_coeffs(lags[:-1], lags[1:], alpha)
        )
        p = k[1:] * (c_phi_u - c_psi_u) + k[:-1] * c_psi_u
        q = k[1:] * (c_phi_v - c_psi_v) + k[:-1] * c_psi_v
        slopes = np.diff(vals[: n + 1], axis=0) / np.diff(t[: n + 1])[:, None]
        out[n] = np.einsum("jab,jb->a", p, vals[:n]) + np.einsum("jab,jb->a", q, slopes)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "grid",
    [
        uniform_grid(4.0, 48),
        graded_grid(4.0, 48, 2.0),
        graded_grid(4.0, 48, 4.0),
        # r = 1 with uneven steps takes the matrix branch
        TimeGrid(np.concatenate([[0.0], np.cumsum(np.random.default_rng(5).uniform(0.02, 0.15, 48))])),
    ],
    ids=["uniform", "graded-r2", "graded-r4", "uneven-r1"],
)
def test_convolve_matches_the_per_interval_sum(grid, d):
    alpha = 0.6
    a = NON_NORMAL[d]
    p = MLParams(alpha, alpha)
    kernel = lambda lags: ml_matrix(p, lags, a)
    rng = np.random.default_rng(d)
    vals = np.column_stack([np.cos(grid.nodes + k) for k in range(d)])
    vals += 0.1 * rng.normal(size=vals.shape)
    ref = per_interval_reference(grid, alpha, vals, kernel)
    out = convolve(grid, alpha, vals, kernel)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_uniform_application_is_d_squared_convolutions(monkeypatch, d):
    g = uniform_grid(3.0, 64)
    a = NON_NORMAL[d]
    p = MLParams(0.5, 0.5)
    apply = quad._convolution_operator(g, 0.5, lambda lags: ml_matrix(p, lags, a))
    calls = []
    original = np.convolve

    def counted(x, y, *args, **kwargs):
        calls.append(len(x))
        return original(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "convolve", counted)
    apply(np.ones((len(g), d)))
    assert len(calls) == d * d


# ---------------------------------------------------------------------------
# batched adaptive Gauss-Kronrod integrator


def test_gk21_exact_to_degree_31():
    val, err = gk21(lambda x: x ** 30, 0.0, 1.0, 1e-12, 1e-8, 50)
    assert val == pytest.approx(1.0 / 31.0, abs=1e-15)
    assert err <= 1e-12


def test_gk21_kink_meets_absolute_tolerance():
    # the kink at 1/3 is never a panel edge, so it is refined by bisection
    val, err = gk21(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, 1e-12, 0.0, 300)
    assert err <= 1e-12
    assert abs(val - 5.0 / 18.0) <= 1e-12


def test_gk21_matches_scipy_quad_on_oscillation():
    val, _ = gk21(lambda x: np.cos(20.0 * x) * np.exp(-x), 0.0, 5.0, 1e-12, 1e-8, 300)
    want, _ = integrate.quad(
        lambda x: math.cos(20.0 * x) * math.exp(-x), 0.0, 5.0,
        epsabs=1e-12, epsrel=1e-8, limit=300,
    )
    assert val == pytest.approx(want, abs=1e-10)


def test_gk21_one_array_call_per_round():
    lo, hi = 0.0, 5.0
    calls = []

    def f(x):
        assert isinstance(x, np.ndarray) and x.ndim == 1
        calls.append(x.copy())
        return np.cos(20.0 * x) * np.exp(-x)

    gk21(f, lo, hi, 1e-12, 1e-8, 300)
    assert 1 <= len(calls) <= 20
    # round k evaluates every open panel, all of them bisected k times
    for k, x in enumerate(calls):
        panels = x.reshape(-1, _GK21_X.size)
        width = 2.0 * np.ptp(panels, axis=1) / np.ptp(_GK21_X)
        assert np.allclose(width, (hi - lo) / 2.0 ** k, rtol=1e-12)


def test_gk21_panel_budget_returns_best_estimate():
    # a jump the rule cannot resolve in 8 panels: no exception, a large error
    val, err = gk21(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0, 1e-14, 0.0, 8)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-2)
    assert err > 1e-14


def _round_panels(x):
    """(lo, hi) of the panels whose nodes one round passed to f."""
    panels = x.reshape(-1, _GK21_X.size)
    half = np.ptp(panels, axis=1) / np.ptp(_GK21_X)
    centre = panels[:, _GK21_X.size // 2]
    return centre - half, centre + half


def test_gk21_points_one_call_per_round_over_every_piece():
    calls = []

    def f(x):
        calls.append(x.copy())
        return np.cos(40.0 * x)

    val, _ = gk21(f, 0.0, 4.0, 1e-12, 1e-8, 300, points=[3.0, 1.0, 2.0, 9.0])
    assert val == pytest.approx(math.sin(160.0) / 40.0, abs=1e-10)
    # the points inside (0, 4) are the starting panels, and every round is
    # one call over open panels of all four pieces
    lo, hi = _round_panels(calls[0])
    assert np.allclose(lo, [0.0, 1.0, 2.0, 3.0]) and np.allclose(hi, [1.0, 2.0, 3.0, 4.0])
    assert len(calls) >= 2
    for x in calls:
        lo, _ = _round_panels(x)
        assert set(np.floor(lo + 1e-9).astype(int)) == {0, 1, 2, 3}


def test_gk21_points_at_the_kink_are_exact_in_one_round():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.abs(x - 1.0 / 3.0)

    val, err = gk21(f, 0.0, 1.0, 1e-12, 0.0, 300, points=[1.0 / 3.0])
    assert len(calls) == 1
    assert err <= 1e-12
    assert abs(val - 5.0 / 18.0) <= 1e-12


def test_gk21_budget_on_unequal_pieces():
    # a tall jump in a piece 1000 times narrower than the other, which has
    # two low jumps: the budget goes to the densest errors, so the narrow
    # piece is refined in every round, and the partition never holds more
    # than `limit` panels per piece
    calls = []

    def f(x):
        calls.append(x.copy())
        return 10.0 * (x > 1e-3 / 3.0) + (x > 0.37) + (x > 0.81)

    limit = 3
    gk21(f, 0.0, 1.0, 1e-12, 0.0, limit, points=[1e-3])
    evaluated = sum(x.size for x in calls) // _GK21_X.size
    # each bisection turns one panel into two, from the 2 starting panels
    assert 2 + (evaluated - 2) // 2 <= 2 * limit
    assert len(calls) >= 3
    assert all(np.any(_round_panels(x)[1] <= 1e-3) for x in calls)


# spans of different widths, cut points inside and outside (a, b),
# finishing after 3, 1, 10, 14 and 2 rounds, and the jump span runs out of
# its panel budget
_FAMILY_FS = [
    lambda x: np.cos(5.0 * x) * np.exp(-x),
    lambda x: np.abs(x - 1.0 / 3.0),
    lambda x: 10.0 * (x > 1e-3 / 3.0) + (x > 0.37),
    np.sqrt,
    lambda x: np.exp(-x),
]
_FAMILY_SPANS = [
    (0.0, 5.0, ()),
    (0.0, 1.0, [1.0 / 3.0]),
    (0.0, 1.0, [1e-3, 2.0, -1.0]),
    (0.0, 0.01, [0.005]),
    (-3.0, 40.0, [0.0, 50.0]),
]
_FAMILY_ROUNDS = [3, 1, 10, 14, 2]


def _check_family_against_one_span(order):
    """The family of the spans _FAMILY_SPANS[k], k in order, gives each
    span bit for bit what its one-span family gives it, in as many rounds."""
    fs = [_FAMILY_FS[k] for k in order]
    spans = [_FAMILY_SPANS[k] for k in order]
    limit = 10
    rounds = [0] * len(fs)

    def family_f(x, owner):
        out = np.empty_like(x)
        for j, f in enumerate(fs):
            mine = owner == j
            if mine.any():
                rounds[j] += 1
                out[mine] = f(x[mine])
        return out

    got = quad._gk21_family(family_f, spans, 1e-12, 1e-8, limit)
    for (a, b, points), f, (val, err), n in zip(spans, fs, got, rounds):
        calls = []

        def alone(x, f=f):
            calls.append(1)
            return f(x)

        want = gk21(alone, a, b, 1e-12, 1e-8, limit, points=points)
        assert np.array([val, err]).tobytes() == np.array(want).tobytes()
        assert n == len(calls)
    assert rounds == [_FAMILY_ROUNDS[k] for k in order]
    for k, (v, e) in zip(order, got):
        if k == 2:
            # only the jump span stops on its budget, above its tolerance
            assert e > 1e-8 * abs(v)
        else:
            assert e <= max(1e-12, 1e-8 * abs(v))


def test_gk21_family_matches_gk21_quad_bit_for_bit():
    _check_family_against_one_span(range(len(_FAMILY_SPANS)))


@pytest.mark.parametrize(
    "order", [[4, 2, 0, 3, 1], [0, 2, 1, 2, 3, 4, 0]], ids=["permuted", "duplicated"]
)
def test_gk21_family_bit_for_bit_in_any_span_order(order):
    # one rule pass and one set of segment sums serve all spans of a round,
    # yet no span's result depends on its position or its neighbours
    _check_family_against_one_span(order)


def test_gk21_family_one_rule_pass_per_round(monkeypatch):
    # 120 spans that finish after different numbers of rounds: each round
    # is one call of f and one rule pass over every open panel of them all
    rule_rows = []
    f_rows = []
    rule = quad._gk21_rule

    def counted(fx, half):
        rule_rows.append(fx.shape[0])
        return rule(fx, half)

    monkeypatch.setattr(quad, "_gk21_rule", counted)
    freq = np.linspace(1.0, 60.0, 120)

    def f(x, owner):
        f_rows.append(x.size // _GK21_X.size)
        return np.cos(freq[owner] * x)

    got = quad._gk21_family(f, [(0.0, 2.0, ()) for _ in freq], 1e-12, 1e-10, 300)
    assert rule_rows == f_rows
    assert len(f_rows) >= 3 and f_rows[0] == freq.size
    for w, (val, err) in zip(freq, got):
        assert err <= 1e-10 * abs(val) + 1e-12
        assert val == pytest.approx(math.sin(2.0 * w) / w, abs=1e-10)
