"""Time grids, and quadrature for weakly singular convolution kernels.

The central integral is ∫_0^t (t-tau)^(alpha-1) g(tau) dtau with alpha in
(0, 1]: the kernel factor is integrated exactly against the piecewise-linear
interpolant of g (product integration), so the endpoint singularity never
enters a function evaluation.  `_product_rows` gives a row of the rectangle
and trapezoid rules, ABM's weights.  `_convolution_operator` builds the
Lyapunov–Perron convolution with a matrix kernel once per grid into d x d
weights per node, so that each application to values is one product: on a
uniform grid the weights depend only on the lag index and it is a discrete
convolution summed directly (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
Comput. 6, 1985), on any other one a lower-triangular matrix product.  The
certificates' smooth integrals use `_gk21_family`, an adaptive Gauss–Kronrod
rule that integrates many spans at once and evaluates on arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError

__all__ = ["TimeGrid", "uniform_grid", "graded_grid"]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes starting at 0; r is the grading exponent of
    graded_grid, and r = 1 with evenly spaced nodes is a uniform grid."""

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
        """r = 1 and nodes evenly spaced up to the rounding of their values."""
        dt = np.diff(self.nodes)
        spread = dt.max() - dt.min() if dt.size else 0.0
        return self.r == 1.0 and bool(spread <= 4.0 * np.finfo(float).eps * self.horizon)

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


def _lag_moments(left, right, gap, alpha, seg0, seg1):
    """∫ lag^(alpha-1) and ∫ (left - lag) lag^(alpha-1) d(lag) over the
    intervals [right, left] of widths gap, written into seg0 and seg1.

    right holds the right lags of the leading intervals, all positive; the
    intervals past them start at lag 0.  One division, one log ratio and
    one power per lag serve both moments: left^a - right^a is
    right^a expm1(a log1p(gap / right)), free of cancellation when left and
    right are close, and left^(a+1) - right^(a+1) = left (left^a - right^a)
    + gap right^a gives the second.  An interval from lag 0 has left^a."""
    k = right.size
    inner = gap[:k]
    # the leading part of seg1 holds expm1(a log1p(gap / right)) until seg1
    # is written
    lead = np.divide(inner, right, out=seg1[:k])
    np.log1p(lead, out=lead)
    lead *= alpha
    np.expm1(lead, out=lead)
    right_pow = right ** alpha
    np.multiply(right_pow, lead, out=seg0[:k])
    seg0[k:] = left[k:] ** alpha
    seg0 *= 1.0 / alpha
    np.multiply(left, seg0, out=seg1)
    right_pow *= inner
    lead -= right_pow
    seg1 *= 1.0 / (alpha + 1.0)


def _product_rows(lags, dt, inv_dt, alpha, out):
    """The product-integration weights of one row, written into the
    (3, n + 1) array out and returned; lags[j] = t_n - t_j, lags[n] = 0, and
    interval j runs from lag lags[j] down to lags[j + 1], of width dt[j].

    out[0, :n] is the rectangle rule (the first moments), out[1] the
    trapezoid rule, and out[2, j] interval j's share of the trapezoid weight
    of its left node, which is node 0's whole weight when interval j is the
    first; out[0, n] and out[2, n] are left as they were.  The trapezoid
    gives each interval's second moment over its width to its right node
    and the rest of its first moment to its left one."""
    n = dt.size
    rect, trap, first = out[0, :n], out[1], out[2, :n]
    share = trap[1:]
    _lag_moments(lags[:-1], lags[1:-1], dt, alpha, rect, share)
    share *= inv_dt
    np.subtract(rect, share, out=first)
    trap[0] = 0.0
    trap[:n] += first
    return out


def _row_coeffs(lag_a, lag_b, a_):
    """Per-interval moment coefficients (c_phi_u, c_phi_v, c_psi_u, c_psi_v)
    of the intervals running from lag_a down to lag_b.

    The phi pair is the product trapezoid's (seg0, seg1) of _lag_moments.
    The psi pair weighs the same moments by the kernel's hat
    (lag^alpha - yb) / dy, with yb = lag_b^alpha and dy = alpha seg0.  With
    lag_a^(2a+1) - lag_b^(2a+1) = lag_a^(a+1) dy + yb (lag_a^(a+1) -
    lag_b^(a+1)) they reduce to seg0 / 2 and
    (lag_a seg0 / 2 - yb seg1 / seg0) / (2 alpha + 1), so yb is the only
    new power.
    """
    # _lag_moments takes the intervals from lag 0 after all the others
    zero = lag_b <= 0.0
    order = np.argsort(zero, kind="stable")
    inner = order[: zero.size - np.count_nonzero(zero)]
    ordered = np.empty((2, lag_a.size))
    _lag_moments(lag_a[order], lag_b[inner], (lag_a - lag_b)[order], a_, *ordered)
    seg0, seg1 = np.empty_like(ordered)
    seg0[order], seg1[order] = ordered
    c_psi_u = 0.5 * seg0
    c_psi_v = (lag_a * c_psi_u - lag_b ** a_ * seg1 / seg0) / (2.0 * a_ + 1.0)
    return seg0, seg1, c_psi_u, c_psi_v


def _interval_weights(lag_a, lag_b, dt, a_):
    """Scalar weights (ca_b, ca_a, cb_b, cb_a) of the intervals running from
    lag_a down to lag_b, of steps dt: an interval adds (ca_b K_b + ca_a K_a)
    u_a + (cb_b K_b + cb_a K_a) u_b for the kernel K and the values u at its
    nodes of lag lag_a and lag_b.  That is the _row_coeffs blocks P against
    the value u_a and Q against the slope (u_b - u_a) / dt, folded."""
    c_phi_u, c_phi_v, c_psi_u, c_psi_v = _row_coeffs(lag_a, lag_b, a_)
    cb_b, cb_a = (c_phi_v - c_psi_v) / dt, c_psi_v / dt
    return c_phi_u - c_psi_u - cb_b, c_psi_u - cb_a, cb_b, cb_a


def _convolution_operator(grid: TimeGrid, alpha, kernel_matrix_at):
    """Build the product-integration rule for the singular convolution

        out[n] = ∫_0^{t_n} (t_n - tau)^(alpha-1) K(t_n - tau) g(tau) dtau

    once: returns apply(work), which maps the (len(grid), d) values g to
    their integrals.  The values interpolate linearly in tau, the kernel
    linearly in y = lag^alpha, the variable in which the intended kernels
    E_{alpha,alpha}(lag^alpha A) are entire; a kernel that is constant
    between nodes reduces the rule to the plain product trapezoid.

    kernel_matrix_at is called once, with the 1-d array of every lag the
    grid needs: the nodes themselves on a uniform grid, the row lags
    t_n - t_0, ..., t_n - t_n of every row n on any other one.  It must
    return the (n_lags, d, d) stack of kernel values at those lags.  They
    are folded into d x d weights per node here, so that each application
    is one product with the values: d^2 direct convolutions of O(N) weights
    on a uniform grid, one matrix product with O(N^2) weights otherwise.
    """
    t = grid.nodes
    n_int = t.size - 1
    dt = np.diff(t)

    if grid.is_uniform and n_int > 0:
        # interval j of row n runs from lag t_{m+1} down to lag t_m with
        # m = n - 1 - j; it weighs node j with to_a[m] and node j + 1 with
        # to_b[m], the first term of toeplitz.  So node k >= 1 of row n
        # weighs toeplitz[n - k] = to_b[n - k] + to_a[n - k - 1], and node
        # 0, with no interval before it, to_a[n - 1].  One step stands for all.
        k = kernel_matrix_at(t)
        d = k.shape[-1]
        ca_b, ca_a, cb_b, cb_a = (c[:, None, None] for c in _interval_weights(t[1:], t[:-1], dt, alpha))
        to_a = k[:-1] * ca_b + k[1:] * ca_a
        toeplitz = k[:-1] * cb_b + k[1:] * cb_a
        toeplitz[1:] += to_a[:-1]

        def apply(work):
            out = np.zeros_like(work)
            for a in range(d):
                for b in range(d):
                    out[1:, a] += np.convolve(toeplitz[:, a, b], work[1:, b])[:n_int]
            out[1:] += to_a @ work[0]
            return out

        return apply

    # the lags t_n - t_j of the rows n, j = 0..n, in the row-major order of
    # the lower triangle; interval j of row n runs from the lag at a position
    # p in `upper` down to the one at p + 1.  A node's weight sums its two
    # intervals' shares: c_prev, c_self and c_next times the kernel at the
    # lags before, at and after its own.
    tri = np.tri(t.size, dtype=bool)
    lags = (t[:, None] - t)[tri]
    kall = kernel_matrix_at(lags)
    d = kall.shape[-1]
    rows, cols = np.nonzero(tri)
    upper = np.flatnonzero(cols < rows)
    ca_b, ca_a, cb_b, cb_a = _interval_weights(lags[upper], lags[upper + 1], dt[cols[upper]], alpha)
    c_prev, c_self, c_next = np.zeros((3, lags.size, 1, 1))
    c_next[upper, 0, 0], c_self[upper, 0, 0], c_prev[upper + 1, 0, 0] = ca_b, ca_a, cb_a
    c_self[upper + 1, 0, 0] += cb_b
    node_w = kall * c_self
    node_w[:-1] += kall[1:] * c_next[:-1]
    node_w[1:] += kall[:-1] * c_prev[1:]
    del kall  # gone before the matrix comes: the kernel evaluation stays the peak
    # block (n, j) of the node-weight matrix is weights[n, :, j, :]
    weights = np.zeros((t.size, d, t.size, d))
    weights.transpose(1, 3, 0, 2)[:, :, tri] = node_w.transpose(1, 2, 0)
    weights = weights.reshape(t.size * d, t.size * d)
    return lambda work: (weights @ work.reshape(-1)).reshape(work.shape)


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


def _gk21_rule(fx, half):
    """(values, error estimates) of the rule on panels of half-widths
    `half`, from the (n_panels, 21) values fx at their nodes."""
    resk = (fx * _GK21_WK).sum(axis=1)
    resg = (fx * _GK21_WG).sum(axis=1)
    resabs = (np.abs(fx) * _GK21_WK).sum(axis=1) * np.abs(half)
    resasc = (np.abs(fx - 0.5 * resk[:, None]) * _GK21_WK).sum(axis=1) * np.abs(half)
    err = np.abs((resk - resg) * half)
    # QUADPACK's rescaling: trust the Kronrod-Gauss gap only as far as the
    # integrand's spread allows, and never below roundoff in |f|
    scaled = (resasc != 0.0) & (err != 0.0)
    err[scaled] = resasc[scaled] * np.minimum(
        1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5
    )
    return resk * half, np.maximum(50.0 * _EPS * resabs, err)


def _gk21_family(f, spans, epsabs, epsrel, limit):
    """Adaptive 21-point Gauss–Kronrod integrals of f over every span
    (a, b, points) at once; returns one (value, error estimate) per span.

    The rule and its error estimate are QUADPACK's qk21.  As in qagp, the
    `points` inside (a, b) cut the span into its starting panels, and its
    integral stays one adaptive integral over all of them.  A panel retires
    once its error fits its width's share of the span's tolerance
    max(epsabs, epsrel * |value|); the others are bisected.  A span holds at
    most `limit` panels per starting panel: when bisecting every failing
    panel would exceed that, those with the largest error per unit width
    go first, and with no room left (or nothing left to bisect) the span's
    current value and error are returned without raising.

    Each round is one call f(x, owner), which returns the values at x, on
    the 1-d array of the nodes of every open panel of every unfinished
    span, owner[i] being the index of the span of node x[i] (each span's
    nodes contiguous and in order), and one rule pass over those panels.  Each span's sums are segment sums
    (`np.add.reduceat`) over its run of panels, and the rule sums each
    panel's row on its own, since a matrix-vector product may round a row
    differently with the number of rows.  So each result is bit for bit
    the one the family of that span alone gives.
    """
    cuts = [np.array([a, *sorted({float(p) for p in points if a < p < b}), b], dtype=float)
            for a, b, points in spans]
    lo = np.concatenate([c[:-1] for c in cuts] + [np.empty(0)])
    hi = np.concatenate([c[1:] for c in cuts] + [np.empty(0)])
    width = np.array([b - a for a, b, _ in spans], dtype=float)
    # the open spans, and the number of panels of each in its run
    ids = np.arange(len(spans))
    sizes = np.array([c.size - 1 for c in cuts], dtype=int)
    budget = limit * sizes
    # per span: the retired panels' value, error and count, and the sums
    # of its last round
    done_val, done_err, value, error = np.zeros((4, len(spans)))
    n_done = np.zeros(len(spans), dtype=int)
    while ids.size:
        span = np.repeat(ids, sizes)
        starts = np.cumsum(sizes) - sizes
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK21_X
        fx = np.asarray(f(x.ravel(), np.repeat(span, _GK21_X.size)), dtype=float)
        val, err = _gk21_rule(fx.reshape(x.shape), half)
        value[ids] = done_val[ids] + np.add.reduceat(val, starts)
        error[ids] = done_err[ids] + np.add.reduceat(err, starts)
        tol = np.fmax(epsabs, epsrel * np.abs(value[ids]))
        room = budget[ids] - n_done[ids] - sizes
        split = err > np.repeat(tol, sizes) * (hi - lo) / width[span]
        n_split = np.add.reduceat(split.astype(int), starts)
        go = ~(error[ids] <= tol) & (room > 0) & (n_split > 0)
        crowded = go & (n_split > room)
        for k in np.flatnonzero(crowded):
            # bisect the failing panels whose error is densest; a panel's
            # share of the tolerance is proportional to its width
            rows = slice(starts[k], starts[k] + sizes[k])
            worst = np.argsort(err[rows] / (hi[rows] - lo[rows]))[::-1][:room[k]]
            split[rows] = False
            split[rows.start + worst] = True
        n_split = np.where(crowded, room, n_split)
        # the panels kept whole retire; a span's sums skip its split ones
        done_val[ids] += np.add.reduceat(np.where(split, 0.0, val), starts)
        done_err[ids] += np.add.reduceat(np.where(split, 0.0, err), starts)
        n_done[ids] += sizes - n_split
        # the bisected panels of each span: left halves first, then right
        cut = split & np.repeat(go, sizes)
        mid = 0.5 * (lo[cut] + hi[cut])
        order = np.argsort(np.tile(span[cut], 2), kind="stable")
        lo = np.concatenate([lo[cut], mid])[order]
        hi = np.concatenate([mid, hi[cut]])[order]
        ids, sizes = ids[go], 2 * n_split[go]
    return [(float(v), float(e)) for v, e in zip(value, error)]
