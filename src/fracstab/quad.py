"""Quadrature for weakly singular convolution kernels.

The central integral is ∫_0^t (t-tau)^(alpha-1) g(tau) dtau with alpha in
(0,1): the kernel factor is integrated exactly against the piecewise-linear
interpolant of g (product trapezoidal rule), so the endpoint singularity
never enters a function evaluation.  The certificates' smooth integrals use
an adaptive Gauss–Kronrod rule that evaluates its integrand on arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError

__all__ = [
    "TimeGrid",
    "uniform_grid",
    "graded_grid",
    "singular_weights",
    "convolve_singular",
]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes starting at 0; r = 1 means uniform."""

    nodes: np.ndarray
    r: float = 1.0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 1:
            raise GridError("grid needs a 1-d array of at least one node")
        if not np.all(np.isfinite(nodes)):
            raise GridError("grid nodes must be finite")
        if nodes[0] != 0.0:
            raise GridError("grid must start at t = 0")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0.0):
            raise GridError("grid nodes must be strictly increasing")
        if not (self.r >= 1.0):
            raise GridError("grading exponent must satisfy r >= 1")

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def is_uniform(self) -> bool:
        return self.r == 1.0

    @property
    def step(self) -> float:
        """Node spacing; only meaningful on uniform grids."""
        if not self.is_uniform:
            raise GridError("step is undefined on a graded grid")
        if self.nodes.size < 2:
            raise GridError("degenerate grid has no step")
        return float(self.nodes[1] - self.nodes[0])

    def __len__(self) -> int:
        return int(self.nodes.size)


def uniform_grid(horizon: float, n_steps: int) -> TimeGrid:
    if not (horizon > 0.0) or not math.isfinite(horizon):
        raise GridError("horizon must be positive and finite")
    if n_steps < 1:
        raise GridError("need at least one step")
    return TimeGrid(np.linspace(0.0, horizon, n_steps + 1))


def graded_grid(horizon: float, n_steps: int, r: float) -> TimeGrid:
    """Nodes t_k = T (k/N)^r, clustering near t = 0 for r > 1."""
    if not (horizon > 0.0) or not math.isfinite(horizon):
        raise GridError("horizon must be positive and finite")
    if n_steps < 1:
        raise GridError("need at least one step")
    if not (r >= 1.0):
        raise GridError("grading exponent must satisfy r >= 1")
    k = np.arange(n_steps + 1, dtype=float)
    return TimeGrid(horizon * (k / n_steps) ** r, r=r)


def _power_diff(a, b, p):
    """a**p - b**p without cancellation when a and b are close.

    Requires a >= b >= 0 elementwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty_like(a)
    zero = b <= 0.0
    out[zero] = a[zero] ** p
    nz = ~zero
    with np.errstate(divide="ignore"):
        out[nz] = b[nz] ** p * np.expm1(p * np.log1p((a[nz] - b[nz]) / b[nz]))
    return out


def singular_weights(grid: TimeGrid, alpha, target_index: int) -> np.ndarray:
    """Product-trapezoidal weights w_j with
    sum_j w_j g(t_j) = ∫_0^{t_n} (t_n - tau)^(alpha-1) ghat(tau) dtau
    exact for the piecewise-linear interpolant ghat; n = target_index."""
    a = float(alpha)
    if not (0.0 < a <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    n = int(target_index)
    if n < 1 or n >= len(grid):
        raise GridError("target_index must name an interior or final node")
    t = grid.nodes[: n + 1]
    tn = t[-1]
    left = tn - t[:-1]
    right = tn - t[1:]
    dt = t[1:] - t[:-1]
    seg0 = _power_diff(left, right, a) / a
    seg1 = left * seg0 - _power_diff(left, right, a + 1.0) / (a + 1.0)
    w = np.zeros(n + 1)
    w[:-1] += seg0 - seg1 / dt
    w[1:] += seg1 / dt
    return w


def _kernel_stack(raw, n_lags, d):
    """Kernel values as an (n_lags, d, d) stack; a scalar or a (d, d)
    matrix stands for the same value at every lag."""
    k = np.asarray(raw, dtype=float)
    if k.ndim == 0:
        k = float(k) * np.eye(d)
    if k.shape == (d, d):
        return np.broadcast_to(k, (n_lags, d, d))
    if k.shape != (n_lags, d, d):
        raise DomainError(
            f"kernel shape {k.shape} does not match {n_lags} lags "
            f"of state dimension {d}"
        )
    return k


def convolve_singular(grid: TimeGrid, alpha, values, kernel_matrix_at):
    """Product-integration approximation of the singular convolution

        out[n] = ∫_0^{t_n} (t_n - tau)^(alpha-1) K(t_n - tau) g(tau) dtau.

    The values g interpolate linearly in tau.  The kernel interpolates
    linearly in y = lag^alpha, the variable in which the intended kernels
    E_{alpha,alpha}(lag^alpha A) are entire; a kernel that is constant
    between nodes reduces the rule to the plain product trapezoid.

    kernel_matrix_at is called once, with the 1-d array of every lag the
    grid needs: the nodes themselves on a uniform grid (O(N) lags), the
    row lags t_n - t_0, ..., t_n - t_n of each row in turn on a graded one
    (O(N^2) lags).  It returns a scalar, a (d, d) matrix or the
    (n_lags, d, d) stack of kernel values at those lags.
    """
    a_ = float(alpha)
    if not (0.0 < a_ <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] != len(grid):
        raise GridError("values length must equal the grid length")
    scalar_input = vals.ndim == 1
    work = vals[:, None] if scalar_input else vals
    if work.ndim != 2:
        raise DomainError("values must be a list of scalars or of vectors")
    d = work.shape[1]

    n_nodes = len(grid)
    out = np.zeros_like(work)
    t = grid.nodes
    dt = np.diff(t)
    u_all = work[:-1]
    v_all = np.diff(work, axis=0) / dt[:, None]

    def row_coeffs(lag_a, lag_b):
        # per-interval moment coefficients multiplying the value samples;
        # the u-part of (second moment - yb * first moment) collapses to
        # dy^2 / (2 alpha), which keeps the cross term stable near lag 0
        dy = _power_diff(lag_a, lag_b, a_)
        m1 = dy / a_
        m1t = _power_diff(lag_a, lag_b, a_ + 1.0) / (a_ + 1.0)
        m2t = _power_diff(lag_a, lag_b, 2.0 * a_ + 1.0) / (2.0 * a_ + 1.0)
        yb = lag_b ** a_
        c_phi_u = m1
        c_phi_v = lag_a * m1 - m1t
        c_psi_u = dy / (2.0 * a_)
        c_psi_v = lag_a * c_psi_u - (m2t - yb * m1t) / dy
        return c_phi_u, c_phi_v, c_psi_u, c_psi_v

    if grid.is_uniform and n_nodes > 2:
        # on a uniform grid interval j of row n sees lags that depend only
        # on n - j, so moments and kernel samples tabulate once
        cpu, cpv, csu, csv = row_coeffs(t[1:], t[:-1])
        kstack = _kernel_stack(kernel_matrix_at(t), n_nodes, d)
        for n in range(1, n_nodes):
            r = slice(n - 1, None, -1)
            phi0 = u_all[:n] * cpu[r][:, None] + v_all[:n] * cpv[r][:, None]
            psi = u_all[:n] * csu[r][:, None] + v_all[:n] * csv[r][:, None]
            out[n] = np.einsum(
                "jab,jb->a", kstack[n - 1 :: -1], phi0 - psi
            ) + np.einsum("jab,jb->a", kstack[n:0:-1], psi)
        return out[:, 0] if scalar_input else out

    # row n needs the lags t_n - t_j, j = 0..n, stored from offset start[n]
    lags = np.concatenate([t[n] - t[: n + 1] for n in range(n_nodes)])
    start = np.concatenate([[0], np.cumsum(np.arange(1, n_nodes + 1))])
    kall = _kernel_stack(kernel_matrix_at(lags), lags.size, d)
    for n in range(1, n_nodes):
        row = lags[start[n] : start[n + 1]]
        k = kall[start[n] : start[n + 1]]
        # interval j of the row runs from lag row[j] down to lag row[j + 1]
        cpu, cpv, csu, csv = row_coeffs(row[:-1], row[1:])
        phi0 = u_all[:n] * cpu[:, None] + v_all[:n] * cpv[:, None]
        psi = u_all[:n] * csu[:, None] + v_all[:n] * csv[:, None]
        out[n] = np.einsum("jab,jb->a", k[1:], phi0 - psi) + np.einsum(
            "jab,jb->a", k[:-1], psi
        )
    return out[:, 0] if scalar_input else out


# 21-point Gauss–Kronrod rule on [-1, 1] (QUADPACK qk21): the positive
# Kronrod nodes, their weights, then the centre's; the 10-point Gauss rule
# uses every second positive node.
_GK21_POS = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_GK21_WK_POS = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208323186530, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_GK21_WK_MID = 0.149445554002916905664936468389821
_G10_W = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GK21_X = np.concatenate([np.negative(_GK21_POS), [0.0], _GK21_POS])
_GK21_WK = np.concatenate([_GK21_WK_POS, [_GK21_WK_MID], _GK21_WK_POS])
_GK21_WG = np.zeros(21)
_GK21_WG[1:10:2] = _GK21_WG[12::2] = _G10_W
_EPS = np.finfo(float).eps


def _gk21_panels(f, lo, hi):
    """(values, error estimates) of the rule on the panels [lo_i, hi_i],
    from one call of f on the (n_panels * 21) nodes."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = centre[:, None] + half[:, None] * _GK21_X
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    resk = fx @ _GK21_WK
    resg = fx @ _GK21_WG
    resabs = np.abs(fx) @ _GK21_WK * np.abs(half)
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _GK21_WK * np.abs(half)
    err = np.abs((resk - resg) * half)
    # QUADPACK's rescaling: trust the Kronrod-Gauss gap only as far as the
    # integrand's spread allows, and never below roundoff in |f|
    scaled = (resasc != 0.0) & (err != 0.0)
    err[scaled] = resasc[scaled] * np.minimum(
        1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5
    )
    return resk * half, np.maximum(50.0 * _EPS * resabs, err)


def _gk21_quad(f, a, b, epsabs, epsrel, limit):
    """Adaptive 21-point Gauss–Kronrod integral of f over [a, b]; returns
    (value, error estimate).

    The rule and its error estimate are QUADPACK's qk21.  Each round
    applies the rule to every open panel through one call f(x) on the 1-d
    array of all their nodes; f returns the values as an array of the same
    length.  A panel is retired once its error fits its share of the
    tolerance max(epsabs, epsrel * |value|), in proportion to its width,
    and the others are bisected.  The partition holds at most `limit`
    panels: when bisecting every failing panel would exceed that, only the
    worst that fit are bisected, and with no room left (or nothing left to
    bisect) the current value and error are returned without raising.
    """
    lo = np.array([a], dtype=float)
    hi = np.array([b], dtype=float)
    done_val = 0.0
    done_err = 0.0
    n_done = 0
    while True:
        val, err = _gk21_panels(f, lo, hi)
        value = done_val + float(val.sum())
        error = done_err + float(err.sum())
        tol = max(epsabs, epsrel * abs(value))
        room = limit - n_done - lo.size
        split = err > tol * (hi - lo) / (b - a)
        if error <= tol or room <= 0 or not split.any():
            return value, error
        if split.sum() > room:
            # the open panels of a round share one width, so the failing
            # ones are exactly those with the largest errors
            worst = np.argsort(err)[::-1][:room]
            split = np.zeros_like(split)
            split[worst] = True
        done_val += float(val[~split].sum())
        done_err += float(err[~split].sum())
        n_done += int((~split).sum())
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
