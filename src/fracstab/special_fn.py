"""Scalar special functions: Gamma and the two-parameter Mittag-Leffler family.

Gamma comes from the standard library (math.gamma, math.lgamma); the
reciprocal Gamma behind every series coefficient is built on it.

The Mittag-Leffler evaluator dispatches on |z| between a Taylor series, a
parabolic-contour Laplace inversion, and a truncated asymptotic expansion.
Region boundaries are deterministic and the adjacent methods are
cross-validated on overlap annuli by the test suite.  The series is a
Horner sum over a coefficient table built once per (alpha, beta, derivative
order), whose length the disk radius fixes.  The contour's
trapezoid node count is chosen per point: it starts at the coarsest of a
set of nested levels whose step meets the target error at the rate that the
pole's clearance from the contour predicts, and each refinement adds only
the midpoints, until two consecutive levels agree; the nodes and the
integrand factors that do not depend on z are tabulated once per (alpha,
beta, mu, level), and each level is one pass over the call's pending
points, in slices under a node budget.  Derivatives with respect to the
eigenvalue argument (up to order 6), which the propagator's cluster blocks
take, reuse the same three regimes.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    OverflowSignal,
    QuadratureConvergenceError,
    UnsupportedOrderError,
)

__all__ = [
    "MLParams",
    "gamma",
    "ml",
    "ml_many",
    "ml_dlambda",
]


# ---------------------------------------------------------------------------
# domain value objects


@dataclass(frozen=True)
class MLParams:
    """Parameter pair (alpha, beta) of the Mittag-Leffler function, with
    alpha in (0, 1], the orders the solvers take (_order_incl_one)."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        a = _order_incl_one(self.alpha)
        b = float(self.beta)
        if not math.isfinite(b):
            raise DomainError(f"ml parameter beta must be finite, got {self.beta!r}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def _order_value(alpha):
    """Order of the certificates and their kernel quantities: a float in
    the open interval (0, 1)."""
    a = float(alpha)
    if not math.isfinite(a) or not 0.0 < a < 1.0:
        raise DomainError(f"fractional order must lie in (0, 1), got {a!r}")
    return a


def _order_incl_one(alpha):
    """Order of the solvers and quadrature rules: _order_value's range
    (0, 1), plus alpha = 1 so classical first-order problems remain
    available as sanity limits."""
    if float(alpha) == 1.0:
        return 1.0
    return _order_value(alpha)


# ---------------------------------------------------------------------------
# Gamma, from the standard library's math.gamma and math.lgamma

# Gamma overflows the double range just above this argument.
_GAMMA_MAX_X = 171.624376956302

_PI = math.pi


def _sinpi(x):
    """sin(pi*x) with argument reduction, exact at integers."""
    r = x - 2.0 * math.floor(x / 2.0)
    if r < 0.5:
        return math.sin(_PI * r)
    if r < 1.5:
        return math.sin(_PI * (1.0 - r))
    return -math.sin(_PI * (2.0 - r))


def _rgamma(x):
    """Reciprocal Gamma on the reals; zero at the poles, never raises."""
    if x >= 0.5:
        return 0.0 if x > _GAMMA_MAX_X else 1.0 / math.gamma(x)
    # reflection: 1/Gamma(x) = sin(pi x) Gamma(1 - x) / pi
    y = 1.0 - x
    s = _sinpi(x)
    if s == 0.0:
        return 0.0
    if y > _GAMMA_MAX_X:
        # |1/Gamma| grows factorially here; overflow to +-inf is the honest answer.
        v = math.lgamma(y) + math.log(abs(s) / _PI)
        if v > 709.0:
            return math.copysign(math.inf, s)
        return math.copysign(math.exp(v), s)
    return s * math.gamma(y) / _PI


def gamma(x):
    """Gamma function for real x > 0, via the standard library's math.gamma.

    Raises DomainError off the positive axis and OverflowSignal past the
    representable range.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    if x > _GAMMA_MAX_X:
        raise OverflowSignal(f"gamma({x}) exceeds the double range")
    return math.gamma(x)


# ---------------------------------------------------------------------------
# evaluation regions

_ASYM_RADIUS = 50.0
# Taylor is safe while the largest series term stays below e**L_CAP; the
# radius min(5, 6**alpha) keeps float64 cancellation under the 1e-12 budget.
_SERIES_LOG_CAP = 6.0


def _series_radius(alpha):
    return min(5.0, _SERIES_LOG_CAP ** alpha)


def _series_disk(alpha, l):
    # differentiated series terms carry k^l weights that amplify the
    # alternating-sum cancellation, so hand the edge over to the contour
    return _series_radius(alpha) * (1.0 - 0.06 * min(l, _DERIV_CAP))


# ---------------------------------------------------------------------------
# Taylor regime

_SERIES_KMAX = 20000
# the table ends where the dropped tail, bounded over the whole disk, falls
# below this fraction of the largest term: the sum's roundoff is of the
# order 1e-16 times the same largest term
_SERIES_TAIL = 1e-17


@functools.lru_cache(maxsize=128)
def _series_table(alpha, beta, l):
    """Series coefficients c_k = k!/(k-l)! / Gamma(alpha k + beta) for
    k = l..K, highest k first, as Horner takes them.

    K is fixed by the disk radius r0 alone.  Once alpha (k-1) + beta > 0,
    the ratio b_k/b_{k-1} of the term bounds b_k = |c_k| r0^(k-l) only
    falls (log Gamma is convex), so past their peak the tail from k on is
    at most b_k / (1 - b_k/b_{k-1}); the table stops at the first k where
    that bound is below _SERIES_TAIL times the largest b_k."""
    r0 = _series_disk(alpha, l)
    coef = []
    fall = float(math.factorial(l))  # k!/(k-l)! at k = l
    peak = prev = 0.0
    for k in range(l, _SERIES_KMAX):
        c = fall * _rgamma(alpha * k + beta)
        bound = abs(c) * r0 ** (k - l)
        if (
            alpha * (k - 1) + beta > 0.0
            and bound < prev
            and bound / (1.0 - bound / prev) <= _SERIES_TAIL * peak
        ):
            return tuple(reversed(coef))
        coef.append(c)
        peak = max(peak, bound)
        prev = bound
        fall = fall * (k + 1) / (k + 1 - l)
    raise QuadratureConvergenceError("Taylor series failed to settle")


def _ml_series(alpha, beta, z, l=0):
    """Differentiated Taylor series, valid inside the cancellation-safe disk.

    Computes d^l/dz^l E_{alpha,beta}(z) = sum_{k>=l} k!/(k-l)! z^{k-l} /
    Gamma(alpha k + beta) by Horner's rule over _series_table; each
    point's value depends on that point alone.
    """
    z = np.asarray(z, dtype=complex)
    table = _series_table(alpha, beta, l)
    acc = np.full_like(z, table[0])
    # out of place: numpy's in-place complex multiply rounds a one-element
    # array differently from a longer one
    for c in table[1:]:
        acc = acc * z + c
    return acc


# ---------------------------------------------------------------------------
# exponential part shared by the asymptotic and contour regimes


def _exp_part_terms(alpha, beta, l):
    """Coefficient stack for d^l/dz^l [(1/alpha) z^{(1-beta)/alpha}
    exp(z^{1/alpha})], as pairs (p, c) meaning c * z^p * exp(z^{1/alpha})."""
    p0 = (1.0 - beta) / alpha
    c0 = 1.0 / alpha
    terms = [(p0, c0)]
    for _ in range(l):
        nxt = []
        for p, c in terms:
            if c * p != 0.0:
                nxt.append((p - 1.0, c * p))
            nxt.append((p + 1.0 / alpha - 1.0, c / alpha))
        terms = nxt
    return terms


def _eval_exp_part(alpha, beta, z, l):
    z = np.asarray(z, dtype=complex)
    w = z ** (1.0 / alpha)
    out = np.zeros_like(z)
    live = w.real > -700.0  # otherwise exp underflows to an exact 0
    if not live.any():
        return out
    zl = z[live]
    wl = w[live]
    with np.errstate(over="ignore", invalid="ignore"):
        ew = np.exp(wl)
        val = np.zeros_like(zl)
        for p, c in _exp_part_terms(alpha, beta, l):
            val += c * zl ** p
        val = val * ew
    out[live] = val
    return out


def _require_finite(values, z):
    """values, unless the exponential part behind one of them left the
    double range: then OverflowSignal names the first such argument."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise OverflowSignal(
            f"Mittag-Leffler exponential part overflows at z = {z[bad][0]} (or its conjugate)"
        )
    return values


# ---------------------------------------------------------------------------
# asymptotic regime

_ASYM_KMAX = 400


def _rgamma_log_envelope(x):
    """log of the smooth majorant of |1/Gamma(x)|, sine oscillation removed.

    The raw term magnitudes of the algebraic expansion oscillate through the
    zeros of sin(pi x); truncating on them directly stops the sum several
    hundred terms early.
    """
    if x >= 0.5:
        return -math.inf if x > _GAMMA_MAX_X else -math.lgamma(x)
    return math.lgamma(1.0 - x) - math.log(_PI)


@functools.lru_cache(maxsize=128)
def _asymptotic_table(alpha, beta, l):
    """Terms k = 1, 2, ... of the differentiated algebraic expansion as
    pairs (c_k, e_k): c_k = (-1)^l k(k+1)...(k+l-1) / Gamma(beta - alpha k)
    is the coefficient of z^-(k+l), and e_k - (k+l) log|z| is the log of
    the term's smooth majorant."""
    rising = float(math.factorial(l))  # (k)(k+1)...(k+l-1) at k = 1 is l!
    sign = -1.0 if l % 2 else 1.0
    terms = []
    for k in range(1, _ASYM_KMAX + 1):
        arg = beta - alpha * k
        if arg < -160.0:
            break
        terms.append(
            (sign * rising * _rgamma(arg), _rgamma_log_envelope(arg) + math.log(rising))
        )
        rising = rising * (k + l) / k
    return tuple(terms)


def _ml_asymptotic(alpha, beta, z, l=0):
    """Truncated large-|z| expansion; the exponential branch enters on the
    wedge |arg z| <= alpha*pi where it is not transcendentally small."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    wedge = np.abs(np.angle(z)) <= alpha * _PI + 1e-14
    if wedge.any():
        out[wedge] += _eval_exp_part(alpha, beta, z[wedge], l)
    # algebraic series, truncated where its smooth envelope turns upward
    ln_az = np.log(np.abs(z))
    zin = 1.0 / z
    power = zin ** (l + 1)
    prev_env = np.full(z.shape, np.inf)
    env_head = None
    active = np.ones(z.shape, dtype=bool)
    for k, (coef, log_env) in enumerate(_asymptotic_table(alpha, beta, l), start=1):
        env = log_env - (k + l) * ln_az
        if env_head is None:
            env_head = env
        active &= (env < prev_env) & (env - env_head > -45.0)
        if not active.any():
            break
        term = coef * power
        out[active] -= term[active]
        prev_env = env
        power = power * zin
    return out


# ---------------------------------------------------------------------------
# contour regime: Laplace inversion over a leftward parabola

_MU_CANDIDATES = (3.0, 4.5, 2.0, 5.5, 1.2)
# trapezoid node counts; each level halves the step of the one before, so a
# level's sum reuses every node of the level below and adds only midpoints
_CONTOUR_LEVELS = (11, 21, 41, 81, 161, 321, 641, 1281, 2561)
_CONTOUR_RTOL = 1e-12
# the most integrand values (points x nodes) in one slice of a level's pass:
# a slice's complex work arrays are 128 KB each
_CONTOUR_NODES = 8192


def _principal_poles(alpha, z):
    """The pole z^(1/alpha) of 1/(s^alpha - z), per point, and whether it
    lies on the principal sheet: for alpha <= 1 there is at most one."""
    ang = np.angle(z)
    pole = np.abs(z) ** (1.0 / alpha) * np.exp(1j * (ang / alpha))
    return pole, np.abs(ang) < alpha * _PI - 1e-13


def _clearance(mu, pole):
    """Signed distance of a pole from the integration axis in the plane of
    the contour parameter u, where s = mu*(1+iu)^2.

    The pole pulls the integrand's nearest u-plane singularity to height
    |Re sqrt(pole/mu) - 1| above the axis, which sets the trapezoid's
    geometric convergence rate; the sign (positive: right of the contour)
    decides residue pickup."""
    return np.sqrt(pole / mu).real - 1.0


def _separation(mu, poles):
    """|clearance| of the principal-sheet pole; inf where there is none."""
    pole, ok = poles
    return np.where(ok, np.abs(_clearance(mu, pole)), np.inf)


_MU_MIN_SEP = 0.35


def _choose_mu(alpha, z, poles):
    """The first mu candidate whose separation is at least _MU_MIN_SEP.

    A point fails candidate c only where x = Re sqrt(pole) lies in
    (0.65 sqrt(c), 1.35 sqrt(c)), and no x lies in all five of these
    intervals (0.65 sqrt(5.5) > 1.35 sqrt(1.2)), so every point has one."""
    mu = np.zeros(z.shape)
    for cand in _MU_CANDIDATES:
        free = mu == 0.0
        if not free.any():
            break
        mu[free & (_separation(cand, poles) >= _MU_MIN_SEP)] = cand
    return mu


def _u_max(mu):
    # the contour stops where exp(Re s) = exp(-41.5), about 1e-18
    return np.sqrt(1.0 + 41.5 / mu)


def _first_level(mu, poles):
    """Index of each point's first level, from its pole clearance.

    The integrand is analytic in the strip |Im u| < d with d = min(1,
    clearance): the branch point of s^alpha sits at u = i.  The trapezoid
    error decays like exp(-2 pi d / h), so the first level is the coarsest
    whose step h meets _CONTOUR_RTOL at that rate."""
    d = np.minimum(1.0, _separation(mu, poles))
    need = _u_max(mu) * math.log(1.0 / _CONTOUR_RTOL) / (_PI * d) + 1.0
    k = np.searchsorted(_CONTOUR_LEVELS, need)
    # level 0 only ever serves as the first check's S_half
    return np.clip(k, 1, len(_CONTOUR_LEVELS) - 1)


@functools.lru_cache(maxsize=128)
def _contour_nodes(alpha, beta, mu, n_nodes, odd):
    """The factors of the contour integrand that do not depend on z, as
    read-only (1, nodes) rows: s^alpha, exp(s) s^(alpha-beta) and ds/du at
    the n_nodes-point trapezoid nodes of the contour for mu (with odd=True,
    its odd-indexed nodes only)."""
    mu = np.array([mu])
    base = np.linspace(-1.0, 1.0, n_nodes)
    if odd:
        base = base[1::2]
    iu1 = 1.0 + 1j * (base[None, :] * _u_max(mu)[:, None])
    s = mu[:, None] * iu1 * iu1
    ds = 2j * mu[:, None] * iu1
    logs = np.log(s)
    nodes = (np.exp(alpha * logs), np.exp(s + (alpha - beta) * logs), ds)
    for row in nodes:
        row.flags.writeable = False
    return nodes


def _contour_integrand(nodes, z, l):
    """Integrand of the Laplace inversion at a node table, one row per
    point."""
    sa, num, ds = nodes
    gap = sa - z[:, None]
    # gap ** 1 gives the same bits (bar the sign of an exact zero) through
    # numpy's general complex power, at over ten times the division's cost
    return num / (gap if l == 0 else gap ** (l + 1)) * ds


def _contour_sum(alpha, beta, z, l, mu, n_nodes, odd=False):
    """n_nodes-point trapezoid value of the contour integral and its
    absolute mass, per point.  With odd=True only the odd-indexed nodes are
    summed: the midpoints that the level below n_nodes lacks."""
    u_max = _u_max(mu)
    scale = 2.0 * u_max / (n_nodes - 1) * (math.factorial(l) / (2.0 * _PI))
    total = np.empty_like(z)
    mass = np.empty(z.shape)
    # the points share one node table per contour, so group them by mu, and
    # cut each group into slices of at most _CONTOUR_NODES integrand values
    for m in set(mu.tolist()):
        nodes = _contour_nodes(alpha, beta, m, n_nodes, odd)
        group = np.flatnonzero(mu == m)
        rows = max(1, _CONTOUR_NODES // nodes[0].shape[1])
        for start in range(0, group.size, rows):
            on = group[start : start + rows]
            integrand = _contour_integrand(nodes, z[on], l)
            tot = integrand.sum(axis=1)
            mas = np.abs(integrand).sum(axis=1)
            if not odd:
                # trapezoid end weights 1/2: a full-weight end adds an O(h)
                # error where a pole sits near a contour end
                ends = integrand[:, [0, -1]]
                tot -= 0.5 * ends.sum(axis=1)
                mas -= 0.5 * np.abs(ends).sum(axis=1)
            total[on], mass[on] = tot, mas
    return total * (scale / 1j), mass * scale


def _contour_residues(alpha, beta, z, l, mu, poles):
    """Residue of the pole where it lies right of the contour."""
    pole, ok = poles
    right = ok & (_clearance(mu, pole) > 0.0)
    res = np.zeros_like(z)
    if right.any():
        res[right] += _eval_exp_part(alpha, beta, z[right], l)
    return _require_finite(res, z)


def _ml_contour(alpha, beta, z, l=0):
    """Contour regime on a 1-d array.  The poles, mu, residues and first
    levels are found once per call; each level is then one pass over every
    point still pending.  Each point starts at its own first level and moves
    up one level at a time until the level's value and the level below it
    agree; a point's value depends on that point alone."""
    z = np.asarray(z, dtype=complex)
    poles = _principal_poles(alpha, z)
    mu = _choose_mu(alpha, z, poles)
    res = _contour_residues(alpha, beta, z, l, mu, poles)
    first = _first_level(mu, poles)
    val = np.zeros_like(z)
    mass = np.zeros(z.shape)
    pending = np.ones(z.shape, dtype=bool)
    for k in range(first.min(initial=len(_CONTOUR_LEVELS)), len(_CONTOUR_LEVELS)):
        new = first == k
        if new.any():
            val[new], mass[new] = _contour_sum(
                alpha, beta, z[new], l, mu[new], _CONTOUR_LEVELS[k - 1]
            )
        run = pending & (first <= k)
        half = val[run]
        mid, mid_mass = _contour_sum(
            alpha, beta, z[run], l, mu[run], _CONTOUR_LEVELS[k], odd=True
        )
        full = 0.5 * half + mid
        full_mass = 0.5 * mass[run] + mid_mass
        err = np.abs(full - half)
        scale = np.maximum(np.abs(full + res[run]), np.abs(full)) + 1e-290
        # the refinement estimate cannot drop below summation roundoff,
        # which scales with the integrand's absolute mass
        floor = 4e-16 * full_mass
        pending[run] = ~(err <= _CONTOUR_RTOL * scale + floor + 1e-250)
        val[run], mass[run] = full, full_mass
        if not pending.any():
            break
    if pending.any():
        worst = z[pending][0]
        raise QuadratureConvergenceError(
            f"contour quadrature failed its error estimate near z = {worst} (or its conjugate)"
        )
    return val + res


# ---------------------------------------------------------------------------
# dispatch


def _ml_core(alpha, beta, z, l=0):
    """Vectorized d^l/dz^l E_{alpha,beta}(z) with regime dispatch.

    The series has real coefficients, so E(conj z) = conj E(z): a point
    below the real axis is evaluated at its conjugate and reflected back,
    which makes the symmetry exact to the bit."""
    z = np.asarray(z, dtype=complex)
    if alpha == 1.0 and beta == 1.0:
        with np.errstate(over="ignore"):
            return _require_finite(np.exp(z), z)  # every z-derivative of exp is exp
    low = z.imag < 0.0
    if low.any():
        z = np.where(low, z.conj(), z)
    out = np.empty_like(z)
    az = np.abs(z)
    ser = az <= _series_disk(alpha, l)
    asym = az > _ASYM_RADIUS
    mid = ~ser & ~asym
    if ser.any():
        out[ser] = _ml_series(alpha, beta, z[ser], l)
    if mid.any():
        out[mid] = _ml_contour(alpha, beta, z[mid], l)
    if asym.any():
        out[asym] = _require_finite(_ml_asymptotic(alpha, beta, z[asym], l), z[asym])
    return np.conjugate(out, out=out, where=low)


def ml(params, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Target relative error is 1e-10 or better for |z| <= 100.  Accepts real
    or complex z; returns a complex value.  Raises OverflowSignal where the
    value's exponential part leaves the double range.
    """
    if not isinstance(params, MLParams):
        raise DomainError("ml expects MLParams")
    val = _ml_core(params.alpha, params.beta, np.array([complex(z)]))
    return complex(val[0])


def ml_many(params, z_values):
    """Vectorized ml over an array of arguments."""
    if not isinstance(params, MLParams):
        raise DomainError("ml expects MLParams")
    z_values = np.asarray(z_values, dtype=complex)
    return _ml_core(params.alpha, params.beta, z_values)


_DERIV_CAP = 6


def ml_dlambda(params, t, lam, l):
    """l-th derivative of lambda -> E_{alpha,beta}(lambda t^alpha).

    Equals t^(alpha*l) times the l-th argument derivative of the
    Mittag-Leffler function at z = lambda t^alpha; supported for l <= 6.
    """
    if not isinstance(params, MLParams):
        raise DomainError("ml_dlambda expects MLParams")
    l = int(l)
    if l < 0 or l > _DERIV_CAP:
        raise UnsupportedOrderError(f"derivative order {l} outside 0..{_DERIV_CAP}")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"ml_dlambda requires t >= 0, got {t!r}")
    # the batched path's numpy powers round differently from Python's, so
    # a single point goes through it too
    val = _ml_dlambda_many(params.alpha, params.beta, np.array([t]) ** params.alpha, complex(lam), l)
    return complex(val[0])


def _ml_dlambda_many(alpha, beta, v, lam, l):
    """v^l E^(l)(lam v) on an array of scaled times v = t^alpha."""
    v = np.asarray(v, dtype=float)
    return (v ** l) * _ml_core(alpha, beta, lam * v.astype(complex), l)


# ---------------------------------------------------------------------------
# log of E_alpha on the positive axis (used by weighted-norm certificates,
# where the weight overflows the double range long before the ratio does)

_LOG_SWITCH_W = 45.0


def _ml_log_positive_many(alpha, x):
    """log E_alpha(x) on a float array of x >= 0, stable far beyond double
    overflow, with one ml_many call."""
    out = np.zeros_like(x)
    w = x ** (1.0 / alpha)
    # E_alpha(x) = exp(w)/alpha + O(1/x); past the switch the algebraic
    # part is exp(-w)-small relative to the leading term
    far = w > _LOG_SWITCH_W
    out[far] = w[far] - math.log(alpha)
    near = (x > 0.0) & ~far
    out[near] = np.log(ml_many(MLParams(alpha, 1.0), x[near]).real)
    return out
