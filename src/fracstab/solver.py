"""Trajectory solvers for Caputo systems ^C D^alpha x = A x + f(t, x).

Provides the exact linear propagator, a fractional Adams-Bashforth-Moulton
predictor-corrector, the Lyapunov-Perron fixed-point iteration on the
variation-of-constants form, and the closed-form Riemann-Liouville scalar
solution used by the divergence demonstration.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainError,
    GridError,
    IterationDivergenceError,
    NonFiniteStateError,
)
from .matfun import as_square_matrix, ml_matrix
from .norms import check_norm, operator_norm, vector_norm
from .quad import TimeGrid, _convolution_operator, _lag_moments, _trapezoid_weights
from .special_fn import MLParams, _order_incl_one, ml_many

_LP_TOL = 1e-10
_LP_MAX_ITER = 200
# lags per ml_matrix call when the Lyapunov-Perron kernel stack is built:
# bounds the evaluation's temporaries, not the stack itself
_LP_KERNEL_BLOCK = 1 << 16


def _as_state(x0, d=None):
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.ndim != 1:
        raise DomainError("initial state must be a scalar or a vector")
    if not np.all(np.isfinite(x)):
        raise DomainError("initial state must be finite")
    if d is not None and x.shape[0] != d:
        raise DomainError(f"initial state has length {x.shape[0]}, expected {d}")
    return x


def _as_q_matrix(q0):
    m = np.atleast_2d(np.asarray(q0, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise DomainError("perturbation matrix must be square")
    # the absolute entry sum bounds every supported operator norm
    with np.errstate(over="ignore"):
        if not np.isfinite(np.abs(m).sum()):
            raise DomainError("perturbation matrix entries must be finite, with a finite sum")
    return m


def _table_times(times, n_rows, rows):
    """A table's times as a float array: one per row of the table's n_rows
    rows (named rows in the message), at least one, finite, strictly
    increasing and nonnegative."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or len(ts) != n_rows or n_rows < 1:
        raise DomainError(f"table times and {rows} must have equal nonzero length")
    if not np.all(np.isfinite(ts)) or np.any(np.diff(ts) <= 0.0):
        raise DomainError("table times must be finite and strictly increasing")
    if ts[0] < 0.0:
        raise DomainError("table times must be nonnegative")
    return ts


def _per_time(values, t):
    """values broadcast over the times t: a scalar t gives the values
    themselves, an array of n times an (n, ...) stack."""
    values = np.asarray(values, dtype=float)
    return np.broadcast_to(values, np.shape(t) + values.shape)[()]


def _growth(t, gamma):
    """(1 + t)^gamma for a time or an array of times.  One time keeps
    Python's float power, which ABM's per-step calls have always used;
    np.power can differ from it in the last bit.  (np.ndim would cost those
    calls about a microsecond each.)"""
    if getattr(t, "ndim", 0):
        return np.power(1.0 + np.asarray(t, dtype=float), gamma)
    return (1.0 + float(t)) ** gamma


class PerturbationSpec:
    """Base class for the perturbation f(t, x); subclasses are the kinds.

    Every kind defines the value f(t, x), the Lipschitz envelope K(t) with
    K(t) >= ||Q(t)|| for the linear kinds, the breakpoints of K and, if
    linear, the matrix Q(t).  The contract on K: between consecutive
    breakpoints, and from t = 0 to the first and past the last, K is
    nonincreasing or affine, and `envelope(np.inf)` is its limit.  The
    base class derives the limit and the sup of K from that.
    `envelope` and `q_matrix` take a time or an array of n times: a time
    gives a number or a (d, d) matrix, the array an (n,) vector or an
    (n, d, d) stack.  `field` takes a time and a (d,) state, or an array of
    n times and the (n, d) states at them, and gives a (d,) vector or an
    (n, d) stack.  The constant-matrix and scalar-gain kinds work on the
    transposed states, whose columns line up with the times; for one state
    the transposes do nothing, so a single call does exactly the arithmetic
    it always did.
    """

    is_linear = False

    def field(self, t, x):
        raise NotImplementedError

    def envelope(self, t, norm="max"):
        raise NotImplementedError

    def limit_envelope(self, norm="max"):
        """The limit of K(t) as t -> infinity."""
        return float(self.envelope(np.inf, norm))

    def envelope_sup(self, t0, norm="max"):
        """The sup of K over [t0, infinity): by the contract, the max of
        K at t0, at every later breakpoint and at infinity."""
        knots = np.asarray(self.breakpoints(), dtype=float)
        ts = np.concatenate([[t0], knots[knots > t0], [np.inf]])
        return float(np.max(self.envelope(ts, norm)))

    def breakpoints(self):
        """Times other than t = 0 where the envelope can peak."""
        return np.empty(0)

    def q_matrix(self, t):
        raise DomainError(f"{type(self).__name__} has no perturbation matrix")


@dataclass(frozen=True)
class NoPerturbation(PerturbationSpec):
    """f identically zero."""

    is_linear = True

    def field(self, t, x):
        return np.zeros_like(np.atleast_1d(np.asarray(x, dtype=float)))

    def envelope(self, t, norm="max"):
        return _per_time(0.0, t)

    def q_matrix(self, t):
        return None


@dataclass(frozen=True)
class LinearConstant(PerturbationSpec):
    """f(t, x) = Q0 x; the envelope equals ||Q0|| by construction."""

    q0: np.ndarray

    is_linear = True

    def __post_init__(self):
        object.__setattr__(self, "q0", _as_q_matrix(self.q0))

    def field(self, t, x):
        return (self.q0 @ np.atleast_1d(np.asarray(x, dtype=float)).T).T

    def envelope(self, t, norm="max"):
        return _per_time(operator_norm(self.q0, norm), t)

    def q_matrix(self, t):
        return _per_time(self.q0, t)


@dataclass(frozen=True)
class LinearDecaying(PerturbationSpec):
    """f(t, x) = Q0 x / (1+t)^gamma with gamma > 0."""

    q0: np.ndarray
    gamma: float

    is_linear = True

    def __post_init__(self):
        object.__setattr__(self, "q0", _as_q_matrix(self.q0))
        g = float(self.gamma)
        if not math.isfinite(g) or g <= 0.0:
            raise DomainError(f"decay exponent must be positive, got {self.gamma!r}")
        object.__setattr__(self, "gamma", g)

    def field(self, t, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return (self.q0 @ x.T / _growth(t, self.gamma)).T

    def envelope(self, t, norm="max"):
        decay = np.power(1.0 + np.asarray(t, dtype=float), self.gamma)
        return operator_norm(self.q0, norm) / decay

    def q_matrix(self, t):
        decay = np.power(1.0 + np.asarray(t, dtype=float)[..., None, None], self.gamma)
        return self.q0 / decay


@dataclass(frozen=True)
class LinearTable(PerturbationSpec):
    """f(t, x) = Q(t) x with Q interpolated linearly between table rows.

    Beyond the last table time the last matrix is held constant.  The
    envelope interpolates the node norms, which dominates the norm of the
    interpolated matrix by convexity.
    """

    times: np.ndarray
    matrices: np.ndarray

    is_linear = True

    def __post_init__(self):
        ts = _table_times(self.times, len(self.matrices), "matrices")
        ms = np.stack([_as_q_matrix(m) for m in self.matrices])
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "matrices", ms)

    def q_matrix(self, t):
        knots, mats = self.times, self.matrices
        if len(knots) == 1:
            return _per_time(mats[0], t)
        # clamped to the table, an end time lands on its row exactly (w = 0 or 1)
        tc = np.clip(np.asarray(t, dtype=float), knots[0], knots[-1])
        k = np.clip(np.searchsorted(knots, tc) - 1, 0, len(knots) - 2)
        w = ((tc - knots[k]) / (knots[k + 1] - knots[k]))[..., None, None]
        return (1.0 - w) * mats[k] + w * mats[k + 1]

    def field(self, t, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.matmul(self.q_matrix(t), x[..., None])[..., 0]

    def envelope(self, t, norm="max"):
        return np.interp(t, self.times, operator_norm(self.matrices, norm))

    def breakpoints(self):
        return self.times


@dataclass(frozen=True)
class NonlinearSaturating(PerturbationSpec):
    """f(t, x) = c (1+t)^(-gamma) tanh(x) componentwise.

    tanh is the fixed saturation map: smooth, tanh(0) = 0, derivative
    bounded by one, so |c| (1+t)^(-gamma) is a Lipschitz envelope in each
    of the supported norms.  gamma = 0 gives a constant envelope.
    """

    c: float
    gamma: float = 0.0

    def __post_init__(self):
        c = float(self.c)
        g = float(self.gamma)
        if not math.isfinite(c):
            raise DomainError("saturation gain must be finite")
        if not math.isfinite(g) or g < 0.0:
            raise DomainError(f"decay exponent must be >= 0, got {self.gamma!r}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "gamma", g)

    def field(self, t, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return (self.c * _growth(t, -self.gamma) * np.tanh(x).T).T

    def envelope(self, t, norm="max"):
        return abs(self.c) * np.power(1.0 + np.asarray(t, dtype=float), -self.gamma)


@dataclass(frozen=True)
class NonlinearTable(PerturbationSpec):
    """f(t, x) = K(t) tanh(x) with K interpolated linearly between rows."""

    times: np.ndarray
    k_values: np.ndarray

    def __post_init__(self):
        ks = np.asarray(self.k_values, dtype=float)
        # values that are not a vector have no rows
        ts = _table_times(self.times, len(ks) if ks.ndim == 1 else 0, "values")
        if not np.all(np.isfinite(ks)) or np.any(ks < 0.0):
            raise DomainError("table values must be finite and nonnegative")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "k_values", ks)

    def _k(self, t):
        return np.interp(t, self.times, self.k_values)

    def field(self, t, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return (self._k(t) * np.tanh(x).T).T

    def envelope(self, t, norm="max"):
        return self._k(t)

    def breakpoints(self):
        return self.times


def as_perturbation(pert) -> PerturbationSpec:
    """None means no perturbation; anything else must already be a kind."""
    if pert is None:
        return NoPerturbation()
    if not isinstance(pert, PerturbationSpec):
        raise DomainError(f"expected a PerturbationSpec, got {type(pert).__name__}")
    return pert


@dataclass(frozen=True)
class Trajectory:
    """States on a time grid plus solver metadata.

    states[k] belongs to grid.nodes[start_index + k]; start_index is zero
    for every Caputo path and one for the Riemann-Liouville closed form,
    whose states are singular at t = 0.
    """

    grid: TimeGrid
    states: np.ndarray
    meta: dict = dataclass_field(default_factory=dict)
    start_index: int = 0

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if states.shape[0] != len(self.grid) - self.start_index:
            raise GridError("states length must match the grid length")
        object.__setattr__(self, "states", states)

    @property
    def times(self):
        return self.grid.nodes[self.start_index :]


def solve_linear_exact(alpha, a, x0, grid: TimeGrid) -> Trajectory:
    """states[n] = E_alpha(t_n^alpha A) x0, the exact linear solution."""
    al = _order_incl_one(alpha)
    m = as_square_matrix(a)
    x = _as_state(x0, m.shape[0])
    states = np.empty((len(grid), m.shape[0]))
    states[0] = x
    states[1:] = ml_matrix(MLParams(al, 1.0), grid.nodes[1:], m) @ x
    return Trajectory(
        grid=grid,
        states=states,
        meta={"method": "linear_exact", "iterations": 0, "residual": 0.0},
    )


def _abm_weights(grid: TimeGrid, al):
    """Predictor (product-rectangle) and corrector (product-trapezoid)
    weights of steps n = 1, 2, ...; the rectangle weights are the first
    moments, and w lives in one buffer until the next step.  On a uniform
    grid interval j of step n has lags t_{n-j} down to t_{n-j-1}, so the
    moments tabulate once, and so do the weights: step n shares nodes 1..n
    with the last n of the final step's weights; only node 0 differs."""
    t = grid.nodes
    dt = np.diff(t)
    w = np.empty(t.size)
    if grid.is_uniform:
        seg0, seg1 = _lag_moments(t[1:], t[:-1], al)
        last = _trapezoid_weights(seg0[::-1], seg1[::-1], dt[::-1], np.empty(t.size))
        first, rect_tab = seg0 - seg1 / dt, seg0[::-1].copy()
        for n in range(1, t.size):
            w[0], w[1 : n + 1] = first[n - 1], last[t.size - n :]
            yield rect_tab[t.size - 1 - n :], w[: n + 1]
        return
    for n in range(1, t.size):
        seg0, seg1 = _lag_moments(t[n] - t[:n], t[n] - t[1 : n + 1], al)
        yield seg0, _trapezoid_weights(seg0, seg1, dt[:n], w[: n + 1])


def solve_abm(alpha, field: Callable, x0, grid: TimeGrid, corrector_sweeps: int = 1) -> Trajectory:
    """Fractional Adams-Bashforth-Moulton predictor-corrector.

    Predictor: product-rectangle rule over the field history.  Corrector:
    product-trapezoid rule, swept corrector_sweeps times.  Global order is
    min(2, 1 + alpha) for smooth fields.  On a uniform grid the weights are
    tabulated once per solve; a graded grid computes them step by step.
    The field's value must broadcast to the state shape (d,).
    """
    al = _order_incl_one(alpha)
    sweeps = int(corrector_sweeps)
    if sweeps < 1:
        raise DomainError("corrector_sweeps must be >= 1")
    x = _as_state(x0)
    d = x.shape[0]
    n_nodes = len(grid)
    states = np.empty((n_nodes, d))
    states[0] = x
    if n_nodes == 1:
        return Trajectory(
            grid=grid,
            states=states,
            meta={"method": "abm", "iterations": sweeps, "residual": 0.0},
        )
    t = grid.nodes
    inv_gamma = 1.0 / math.gamma(al)
    fhist = np.empty((n_nodes, d))
    f0 = np.asarray(field(t[0], x), dtype=float)
    try:
        fhist[0] = np.broadcast_to(f0, (d,))
    except ValueError:
        raise DomainError(f"field value of shape {f0.shape} does not broadcast to ({d},)") from None
    for n, (rect, w) in enumerate(_abm_weights(grid, al), start=1):
        predictor = x + inv_gamma * (rect @ fhist[:n])
        base = x + inv_gamma * (w[:n] @ fhist[:n])
        state = predictor
        for _ in range(sweeps):
            state = base + inv_gamma * w[n] * np.asarray(field(t[n], state), dtype=float)
        if not np.isfinite(state).all():
            raise NonFiniteStateError(f"state left the representable range at t = {t[n]}")
        states[n] = state
        fhist[n] = field(t[n], state)
    return Trajectory(
        grid=grid,
        states=states,
        meta={"method": "abm", "iterations": sweeps, "residual": None},
    )


def _lp_operator(grid, al, m, linear_states, pert):
    """xi -> T(xi), the discretized variation-of-constants operator.  Its
    convolution with the kernel E_{alpha,alpha}(lag^alpha A) is built here,
    once per solve; each application evaluates the field and applies it.
    The kernel stack is filled in blocks of _LP_KERNEL_BLOCK lags, and a
    slice of ml_matrix depends on its own time alone, so the blocks give
    the one-call stack bit for bit."""
    params = MLParams(al, al)

    def kernel(lags):
        stack = np.empty((lags.size,) + m.shape)
        for start in range(0, lags.size, _LP_KERNEL_BLOCK):
            block = lags[start : start + _LP_KERNEL_BLOCK]
            stack[start : start + block.size] = ml_matrix(params, block, m)
        return stack

    convolve = _convolution_operator(grid, al, kernel, m.shape[0])
    return lambda states: linear_states + convolve(pert.field(grid.nodes, states))


def lyapunov_perron_iterate(
    alpha,
    a,
    pert,
    x0,
    grid: TimeGrid,
    max_iter: int = _LP_MAX_ITER,
    tol: float = _LP_TOL,
    norm: str = "max",
) -> Trajectory:
    """Fixed-point iteration on the variation-of-constants operator.

    Starts from the unperturbed solution and applies the discretized
    operator T(xi)(t) = E_alpha(t^alpha A) x0 + convolution of the kernel
    E_{alpha,alpha} with f(., xi(.)) until the successive sup-norm
    difference falls below tol.  Iteration ratios are recorded in
    meta["ratios"].
    """
    al = _order_incl_one(alpha)
    m = as_square_matrix(a)
    pert = as_perturbation(pert)
    check_norm(norm)
    max_iter = int(max_iter)
    if max_iter < 1:
        raise DomainError("max_iter must be >= 1")
    tol = float(tol)
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    x = _as_state(x0, m.shape[0])
    linear = solve_linear_exact(al, m, x, grid).states
    if len(grid) == 1:
        return Trajectory(
            grid=grid,
            states=linear,
            meta={"method": "lyapunov_perron", "iterations": 0, "residual": 0.0, "ratios": []},
        )
    operator = _lp_operator(grid, al, m, linear, pert)
    states = linear
    ratios = []
    prev_diff = None
    # a diverging iteration may overflow; its first non-finite difference ends it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iter + 1):
            new_states = operator(states)
            diff = float(np.max(vector_norm(new_states - states, norm)))
            if not math.isfinite(diff):
                break
            if prev_diff is not None and prev_diff > 0.0:
                ratios.append(diff / prev_diff)
            states = new_states
            if diff <= tol:
                meta = {"method": "lyapunov_perron", "iterations": k, "residual": diff, "ratios": ratios}
                return Trajectory(grid=grid, states=states, meta=meta)
            prev_diff = diff
    last_ratio = ratios[-1] if ratios else math.inf
    raise IterationDivergenceError(
        f"no convergence after {k} iterations; last ratio {last_ratio:.6g}"
        if math.isfinite(diff)
        else f"no convergence: iteration {k} overflowed; last finite ratio {last_ratio:.6g}"
    )


def solve_rl_scalar_exact(alpha, lam, b, x0, grid: TimeGrid) -> Trajectory:
    """Closed form t^(alpha-1) E_{alpha,alpha}((-lambda+b) t^alpha) x0.

    Solves the scalar Riemann-Liouville problem with constant coefficient
    b; states start at the first positive node because the solution is
    singular at t = 0.
    """
    al = _order_incl_one(alpha)
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam!r}")
    b = float(b)
    if not math.isfinite(b):
        raise DomainError("b must be finite")
    x = float(np.asarray(x0, dtype=float).reshape(()))
    ts = grid.nodes[1:]
    values = ml_many(MLParams(al, al), (-lam + b) * ts ** al).real
    states = (ts ** (al - 1.0) * values * x)[:, None]
    return Trajectory(
        grid=grid,
        states=states,
        meta={"method": "rl_exact", "iterations": 0, "residual": None},
        start_index=1,
    )


def residual_check(traj: Trajectory, alpha, a, pert=None, norm: str = "max") -> float:
    """Defect of the variation-of-constants equation along a trajectory.

    Returns the max over nodes of ||xi(t_n) - (T xi)(t_n)|| with T the same
    discretized operator the fixed-point iteration applies.
    """
    al = _order_incl_one(alpha)
    m = as_square_matrix(a)
    pert = as_perturbation(pert)
    check_norm(norm)
    if traj.start_index != 0:
        raise GridError("residual check requires a trajectory defined from t = 0")
    if traj.states.shape[0] != len(traj.grid):
        raise GridError("trajectory states do not cover its grid")
    if traj.states.shape[1] != m.shape[0]:
        raise GridError("trajectory dimension does not match the matrix")
    grid = traj.grid
    if len(grid) == 1:
        return 0.0
    x = traj.states[0]
    linear = solve_linear_exact(al, m, x, grid).states
    image = _lp_operator(grid, al, m, linear, pert)(traj.states)
    return float(np.max(vector_norm(image - traj.states, norm)))
