"""Tests for the product-integration quadrature layer."""
import math
import random

import numpy as np
import pytest
from scipy import integrate

from fracstab.errors import DomainError, GridError
from fracstab.quad import (
    TimeGrid,
    _GK21_X,
    _gk21_quad,
    convolve_singular,
    graded_grid,
    singular_weights,
    uniform_grid,
)
from fracstab.special_fn import MLParams, ml, ml_many


# ---------------------------------------------------------------------------
# grids


def test_uniform_grid_shape():
    g = uniform_grid(2.0, 8)
    assert len(g) == 9
    assert g.is_uniform
    assert g.step == pytest.approx(0.25)
    assert g.horizon == 2.0


def test_graded_grid_clusters_at_origin():
    g = graded_grid(1.0, 10, 2.0)
    assert g.nodes[1] == pytest.approx(0.01)
    assert not g.is_uniform
    with pytest.raises(GridError):
        g.step


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
    w = singular_weights(g, 1.0, 4)
    assert np.allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125], atol=1e-14)


def test_weights_constant_exactness():
    """sum w_j = t_n^alpha / alpha, the integral of the bare kernel."""
    rng = random.Random(5)
    for _ in range(30):
        alpha = rng.uniform(0.05, 1.0)
        n = rng.randrange(1, 40)
        g = uniform_grid(rng.uniform(0.1, 20.0), 40)
        w = singular_weights(g, alpha, n)
        tn = g.nodes[n]
        assert w.sum() == pytest.approx(tn ** alpha / alpha, rel=1e-12)


def test_weights_beta_identity():
    """g(tau) = tau is integrated exactly: B(2, 1/2) = 4/3."""
    g = uniform_grid(1.0, 64)
    w = singular_weights(g, 0.5, 64)
    assert float(w @ g.nodes) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_weights_piecewise_linear_exactness():
    """Random piecewise-linear g is reproduced to near machine precision;
    oracle is adaptive quadrature split at the nodes."""
    rng = np.random.default_rng(11)
    for alpha in (0.3, 0.62, 0.9):
        n = 12
        g = graded_grid(3.0, n, 1.7)
        vals = rng.uniform(-1.0, 1.0, size=n + 1)
        w = singular_weights(g, alpha, n)
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
        assert np.all(singular_weights(g, alpha, n) >= 0.0)


def test_weights_bad_index():
    g = uniform_grid(1.0, 4)
    with pytest.raises(GridError):
        singular_weights(g, 0.5, 0)
    with pytest.raises(GridError):
        singular_weights(g, 0.5, 5)


# ---------------------------------------------------------------------------
# singular convolution


def test_convolve_zero_values():
    g = uniform_grid(2.0, 16)
    out = convolve_singular(g, 0.5, np.zeros(17), lambda lag: 1.0)
    assert np.all(out == 0.0)


def test_convolve_identity_kernel_constant_values():
    g = uniform_grid(3.0, 48)
    c = 0.7
    out = convolve_singular(g, 0.4, np.full(49, c), lambda lag: 1.0)
    want = c * g.nodes ** 0.4 / 0.4
    assert np.allclose(out, want, rtol=1e-12, atol=1e-13)


def test_convolve_vector_values_matrix_kernel():
    g = uniform_grid(1.0, 24)
    vals = np.column_stack([np.ones(25), g.nodes])
    K = np.array([[0.0, 1.0], [1.0, 0.0]])  # swaps the two components
    out = convolve_singular(g, 0.5, vals, lambda lag: K)
    w = singular_weights(g, 0.5, 24)
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
            out = convolve_singular(g, alpha, np.ones(n + 1), kernel)
            want = 1.0 - ml(p_a1, -(4.0 ** alpha)).real
            errs.append(abs(out[-1] - want))
        assert errs[0] < tol64
        assert errs[1] < errs[0] / rate


def test_convolve_smooth_order_two():
    """Against a 30-digit reference of ∫_0^2 (2-s)^(-1/2) cos(s) ds."""
    want = 0.49709612481454346
    errs = {}
    for n in (128, 256):
        g = uniform_grid(2.0, n)
        out = convolve_singular(g, 0.5, np.cos(g.nodes), lambda lag: 1.0)
        errs[n] = abs(out[-1] - want)
    order = math.log2(errs[128] / errs[256])
    assert order >= 1.8


def test_convolve_length_mismatch():
    g = uniform_grid(1.0, 8)
    with pytest.raises(GridError):
        convolve_singular(g, 0.5, np.ones(4), lambda lag: 1.0)


def test_convolve_kernel_shape_mismatch():
    g = uniform_grid(1.0, 4)
    vals = np.ones((5, 2))
    with pytest.raises(DomainError):
        convolve_singular(g, 0.5, vals, lambda lag: np.eye(3))


# ---------------------------------------------------------------------------
# batched adaptive Gauss-Kronrod integrator


def test_gk21_exact_to_degree_31():
    val, err = _gk21_quad(lambda x: x ** 30, 0.0, 1.0, 1e-12, 1e-8, 50)
    assert val == pytest.approx(1.0 / 31.0, abs=1e-15)
    assert err <= 1e-12


def test_gk21_kink_meets_absolute_tolerance():
    # the kink at 1/3 is never a panel edge, so it is refined by bisection
    val, err = _gk21_quad(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, 1e-12, 0.0, 300)
    assert err <= 1e-12
    assert abs(val - 5.0 / 18.0) <= 1e-12


def test_gk21_matches_scipy_quad_on_oscillation():
    val, _ = _gk21_quad(lambda x: np.cos(20.0 * x) * np.exp(-x), 0.0, 5.0, 1e-12, 1e-8, 300)
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

    _gk21_quad(f, lo, hi, 1e-12, 1e-8, 300)
    assert 1 <= len(calls) <= 20
    # round k evaluates every open panel, all of them bisected k times
    for k, x in enumerate(calls):
        panels = x.reshape(-1, _GK21_X.size)
        width = 2.0 * np.ptp(panels, axis=1) / np.ptp(_GK21_X)
        assert np.allclose(width, (hi - lo) / 2.0 ** k, rtol=1e-12)


def test_gk21_panel_budget_returns_best_estimate():
    # a jump the rule cannot resolve in 8 panels: no exception, a large error
    val, err = _gk21_quad(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0, 1e-14, 0.0, 8)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-2)
    assert err > 1e-14
