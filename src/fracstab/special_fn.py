"""Scalar special functions: Gamma and the two-parameter Mittag-Leffler family.

The Mittag-Leffler evaluator dispatches on |z| between a Taylor series, a
parabolic-contour Laplace inversion, and a truncated asymptotic expansion.
Region boundaries are deterministic and the adjacent methods are
cross-validated on overlap annuli by the test suite.  Derivatives with
respect to the eigenvalue argument (up to order 6) reuse the same three
regimes, which keeps decay-constant estimation stable out to t = 1e6.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    OverflowSignal,
    QuadratureConvergenceError,
    SectorViolationError,
    UnsupportedOrderError,
)

__all__ = [
    "FracOrder",
    "MLParams",
    "gamma",
    "ml",
    "ml_many",
    "ml_dlambda",
    "ml_log_positive",
    "estimate_decay_constant",
    "DecayEstimate",
]


# ---------------------------------------------------------------------------
# domain value objects


@dataclass(frozen=True)
class FracOrder:
    """Caputo order restricted to the open interval (0, 1)."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a) or not 0.0 < a < 1.0:
            raise DomainError(f"fractional order must lie in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)

    def __float__(self):
        return self.alpha


@dataclass(frozen=True)
class MLParams:
    """Parameter pair (alpha, beta) of the Mittag-Leffler function."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        a = float(self.alpha)
        b = float(self.beta)
        if not math.isfinite(a) or a <= 0.0:
            raise DomainError(f"ml parameter alpha must be positive, got {self.alpha!r}")
        if not math.isfinite(b):
            raise DomainError(f"ml parameter beta must be finite, got {self.beta!r}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def _order_value(alpha):
    """Accept FracOrder or a bare float, returning the validated float."""
    if isinstance(alpha, FracOrder):
        return alpha.alpha
    return FracOrder(float(alpha)).alpha


# ---------------------------------------------------------------------------
# Gamma: Lanczos rational approximation with fixed coefficients (g = 7)

_LANCZOS_G = 7.0
_LANCZOS_COF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_SQRT_TWO_PI = 2.5066282746310002
# Gamma overflows the double range just above this argument.
_GAMMA_MAX_X = 171.624376956302

_PI = math.pi


def _lanczos_pos(x):
    """Gamma(x) for x >= 0.5 via the fixed-coefficient Lanczos sum."""
    ser = _LANCZOS_COF[0]
    for i in range(1, 9):
        ser += _LANCZOS_COF[i] / (x + i - 1.0)
    t = x + _LANCZOS_G - 0.5
    # Split the power so intermediates stay inside the double range.
    half = t ** ((x - 0.5) / 2.0)
    return _SQRT_TWO_PI * ser * half * math.exp(-t) * half


def _sinpi(x):
    """sin(pi*x) with argument reduction, exact at integers."""
    r = x - 2.0 * math.floor(x / 2.0)
    if r < 0.5:
        return math.sin(_PI * r)
    if r < 1.5:
        return math.sin(_PI * (1.0 - r))
    return -math.sin(_PI * (2.0 - r))


def _gamma_real(x):
    """Gamma on the reals away from poles; reflection below 0.5."""
    if x >= 0.5:
        return _lanczos_pos(x)
    s = _sinpi(x)
    if s == 0.0:
        return math.inf
    return _PI / (s * _lanczos_pos(1.0 - x))


def _rgamma(x):
    """Reciprocal Gamma on the reals; zero at the poles, never raises."""
    if x >= 0.5:
        if x > _GAMMA_MAX_X:
            return 0.0
        return 1.0 / _lanczos_pos(x)
    y = 1.0 - x
    s = _sinpi(x)
    if y > _GAMMA_MAX_X:
        # |1/Gamma| grows factorially here; overflow to +-inf is the honest answer.
        if s == 0.0:
            return 0.0
        try:
            lg = math.lgamma(y)
        except ValueError:
            return 0.0
        v = lg + math.log(abs(s) / _PI)
        if v > 709.0:
            return math.copysign(math.inf, s)
        return math.copysign(math.exp(v), s)
    return s * _lanczos_pos(y) / _PI


def gamma(x):
    """Gamma function for real x > 0.

    Relative error is at or below 1e-13 across (0, 170].  Raises DomainError
    off the positive axis and OverflowSignal past the representable range.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    if x > _GAMMA_MAX_X:
        raise OverflowSignal(f"gamma({x}) exceeds the double range")
    return _lanczos_pos(x) if x >= 0.5 else _PI / (_sinpi(x) * _lanczos_pos(1.0 - x))


# ---------------------------------------------------------------------------
# evaluation regions

_ASYM_RADIUS = 50.0
# Taylor is safe while the largest series term stays below e**L_CAP; the
# radius min(5, 6**alpha) keeps float64 cancellation under the 1e-12 budget.
_SERIES_LOG_CAP = 6.0


def _series_radius(alpha):
    return min(5.0, _SERIES_LOG_CAP ** alpha)


# ---------------------------------------------------------------------------
# Taylor regime

_SERIES_KMAX = 20000


def _ml_series(alpha, beta, z, l=0):
    """Differentiated Taylor series, valid inside the cancellation-safe disk.

    Computes d^l/dz^l E_{alpha,beta}(z) = sum_{k>=l} k!/(k-l)! z^{k-l} /
    Gamma(alpha k + beta).
    """
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    # k = l term: power z^0 = 1 regardless of z (including z = 0).
    power = np.ones_like(z)
    fall = math.factorial(l)  # k!/(k-l)! at k = l
    settled = np.zeros(z.shape, dtype=int)
    for k in range(l, _SERIES_KMAX):
        term = (fall * _rgamma(alpha * k + beta)) * power
        acc += term
        small = np.abs(term) <= 1e-17 * (np.abs(acc) + 1e-300)
        settled = np.where(small, settled + 1, 0)
        if np.all(settled >= 3) and k > l + 2:
            break
        power = power * z
        fall = fall * (k + 1) / (k + 1 - l)
    else:
        raise QuadratureConvergenceError("Taylor series failed to settle")
    return acc


# ---------------------------------------------------------------------------
# exponential part shared by the asymptotic and contour regimes


def _exp_part_terms(alpha, beta, l, omega):
    """Coefficient stack for d^l/dz^l [(1/alpha) (omega z^{1/alpha})^{1-beta}
    exp(omega z^{1/alpha})], as pairs (p, c) meaning c * z^p * exp(omega z^{1/alpha})."""
    p0 = (1.0 - beta) / alpha
    c0 = (omega ** (1.0 - beta)) / alpha
    terms = [(p0, c0)]
    for _ in range(l):
        nxt = []
        for p, c in terms:
            if c * p != 0.0:
                nxt.append((p - 1.0, c * p))
            nxt.append((p + 1.0 / alpha - 1.0, c * omega / alpha))
        terms = nxt
    return terms


def _eval_exp_part(alpha, beta, z, l, omega=1.0 + 0.0j):
    z = np.asarray(z, dtype=complex)
    w = omega * z ** (1.0 / alpha)
    out = np.zeros_like(z)
    live = w.real > -700.0  # otherwise exp underflows to an exact 0
    if not np.any(live):
        return out
    zl = z[live]
    wl = w[live]
    with np.errstate(over="ignore", invalid="ignore"):
        ew = np.exp(wl)
        val = np.zeros_like(zl)
        for p, c in _exp_part_terms(alpha, beta, l, omega):
            val += c * zl ** p
        val = val * ew
    out[live] = val
    return out


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
        if x > _GAMMA_MAX_X:
            return -math.inf
        return -math.log(_lanczos_pos(x))
    return math.lgamma(1.0 - x) - math.log(_PI)


def _ml_asymptotic(alpha, beta, z, l=0):
    """Truncated large-|z| expansion; the exponential branch enters on the
    wedge |arg z| <= alpha*pi where it is not transcendentally small."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for j in ((0, -1, 1) if alpha > 1.0 else (0,)):
        wedge = np.abs(np.angle(z) + 2.0 * _PI * j) <= alpha * _PI + 1e-14
        if np.any(wedge):
            omega = complex(np.exp(2j * _PI * j / alpha))
            out[wedge] += _eval_exp_part(alpha, beta, z[wedge], l, omega)
    # algebraic series, truncated where its smooth envelope turns upward
    ln_az = np.log(np.abs(z))
    zin = 1.0 / z
    power = zin ** (l + 1)
    rising = float(math.factorial(l))  # (k)(k+1)...(k+l-1) at k = 1 is l!
    sign = -1.0 if l % 2 else 1.0
    prev_env = np.full(z.shape, np.inf)
    env_head = None
    active = np.ones(z.shape, dtype=bool)
    for k in range(1, _ASYM_KMAX + 1):
        arg = beta - alpha * k
        if arg < -160.0:
            break
        env = _rgamma_log_envelope(arg) + math.log(rising) - (k + l) * ln_az
        if env_head is None:
            env_head = env
        active &= (env < prev_env) & (env - env_head > -45.0)
        if not np.any(active):
            break
        term = (sign * rising * _rgamma(arg)) * power
        out[active] -= term[active]
        prev_env = env
        power = power * zin
        rising = rising * (k + l) / k
    return out


# ---------------------------------------------------------------------------
# contour regime: Laplace inversion over a leftward parabola

_MU_CANDIDATES = (3.0, 4.5, 2.0, 5.5, 1.2, 7.0, 0.8)
_CONTOUR_NODES = (241, 481, 961, 1921)
_CONTOUR_RTOL = 1e-12
# points per contour batch: keeps the (points x nodes) work arrays at a
# few MB, small enough to stay in cache when ml_many gets thousands of points
_CONTOUR_CHUNK = 64


def _principal_poles(alpha, z):
    """Poles of 1/(s^alpha - z) on the principal sheet, per point."""
    ang = np.angle(z)
    rad = np.abs(z) ** (1.0 / alpha)
    poles = []
    for j in ((0, -1, 1) if alpha > 1.0 else (0,)):
        theta = (ang + 2.0 * _PI * j) / alpha
        ok = np.abs(ang + 2.0 * _PI * j) < alpha * _PI - 1e-13
        poles.append((rad * np.exp(1j * theta), ok, j))
    return poles


def _clearance(mu, pole):
    """Signed distance of a pole from the integration axis in the plane of
    the contour parameter u, where s = mu*(1+iu)^2.

    The pole pulls the integrand's nearest u-plane singularity to height
    |Re sqrt(pole/mu) - 1| above the axis, which sets the trapezoid's
    geometric convergence rate; the sign (positive: right of the contour)
    decides residue pickup."""
    return np.sqrt(pole / mu).real - 1.0


_MU_MIN_SEP = 0.35


def _choose_mu(alpha, z, poles):
    mu = np.full(z.shape, _MU_CANDIDATES[0])
    best_sep = np.full(z.shape, -np.inf)
    chosen = np.zeros(z.shape, dtype=bool)
    for cand in _MU_CANDIDATES:
        sep = np.full(z.shape, np.inf)
        for pole, ok, _ in poles:
            c = np.abs(_clearance(cand, pole))
            sep = np.where(ok, np.minimum(sep, c), sep)
        take = ~chosen & (sep >= _MU_MIN_SEP)
        mu[take] = cand
        chosen |= take
        better = ~chosen & (sep > best_sep)
        mu[better] = cand
        best_sep = np.maximum(best_sep, sep)
        if np.all(chosen):
            break
    return mu


def _contour_sum(alpha, beta, z, l, mu, n_nodes):
    u_max = np.sqrt(1.0 + 41.5 / mu)
    base = np.linspace(-1.0, 1.0, n_nodes)
    u = base[None, :] * u_max[:, None]
    h = 2.0 * u_max / (n_nodes - 1)
    iu1 = 1.0 + 1j * u
    s = mu[:, None] * iu1 * iu1
    ds = 2j * mu[:, None] * iu1
    logs = np.log(s)
    denom = (np.exp(alpha * logs) - z[:, None]) ** (l + 1)
    integrand = np.exp(s + (alpha - beta) * logs) / denom * ds
    total = integrand.sum(axis=1)
    mass = np.abs(integrand).sum(axis=1)
    scale = h * math.factorial(l) / (2.0 * _PI)
    return total * (scale / 1j), mass * scale


def _ml_contour(alpha, beta, z, l=0):
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for start in range(0, z.size, _CONTOUR_CHUNK):
        zc = z.reshape(-1)[start : start + _CONTOUR_CHUNK]
        poles = _principal_poles(alpha, zc)
        mu = _choose_mu(alpha, zc, poles)
        res = np.zeros_like(zc)
        for pole, ok, j in poles:
            right = ok & (_clearance(mu, pole) > 0.0)
            if np.any(right):
                omega = complex(np.exp(2j * _PI * j / alpha))
                res[right] += _eval_exp_part(alpha, beta, zc[right], l, omega)
        prev = None
        val = None
        converged = np.zeros(zc.shape, dtype=bool)
        for n_nodes in _CONTOUR_NODES:
            val, mass = _contour_sum(alpha, beta, zc, l, mu, n_nodes)
            if prev is not None:
                err = np.abs(val - prev)
                scale = np.maximum(np.abs(val + res), np.abs(val)) + 1e-290
                # the refinement estimate cannot drop below summation
                # roundoff, which scales with the integrand's absolute mass
                floor = 4e-16 * mass
                converged = err <= _CONTOUR_RTOL * scale + floor + 1e-250
                if np.all(converged):
                    break
            prev = val
        if not np.all(converged):
            worst = zc[~converged][0]
            raise QuadratureConvergenceError(
                f"contour quadrature failed its error estimate near z = {worst}"
            )
        out.reshape(-1)[start : start + _CONTOUR_CHUNK] = val + res
    return out


# ---------------------------------------------------------------------------
# dispatch


def _ml_core(alpha, beta, z, l=0):
    """Vectorized d^l/dz^l E_{alpha,beta}(z) with regime dispatch."""
    z = np.asarray(z, dtype=complex)
    if alpha == 1.0 and beta == 1.0:
        with np.errstate(over="ignore"):
            return np.exp(z)  # every z-derivative of exp is exp
    out = np.empty_like(z)
    az = np.abs(z)
    # differentiated series terms carry k^l weights that amplify the
    # alternating-sum cancellation, so hand the edge over to the contour
    r0 = _series_radius(alpha) * (1.0 - 0.06 * min(l, _DERIV_CAP))
    ser = az <= r0
    asym = az > _ASYM_RADIUS
    mid = ~ser & ~asym
    if np.any(ser):
        out[ser] = _ml_series(alpha, beta, z[ser], l)
    if np.any(mid):
        out[mid] = _ml_contour(alpha, beta, z[mid], l)
    if np.any(asym):
        out[asym] = _ml_asymptotic(alpha, beta, z[asym], l)
    return out


def ml(params, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Target relative error is 1e-10 or better for |z| <= 100.  Accepts real
    or complex z; returns a complex value.
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
    ta = t ** params.alpha
    z = complex(lam) * ta
    val = _ml_core(params.alpha, params.beta, np.array([z]), l)[0]
    return complex(ta ** l * val)


def _ml_dlambda_many(alpha, beta, times, lam, l):
    times = np.asarray(times, dtype=float)
    ta = times ** alpha
    vals = _ml_core(alpha, beta, lam * ta.astype(complex), l)
    return (ta ** l) * vals


# ---------------------------------------------------------------------------
# log of E_alpha on the positive axis (used by weighted-norm certificates,
# where the weight overflows the double range long before the ratio does)

_LOG_SWITCH_W = 45.0


def ml_log_positive(alpha, x):
    """log E_alpha(x) for real x >= 0, stable far beyond double overflow."""
    alpha = float(alpha)
    x = float(x)
    if x < 0.0:
        raise DomainError("ml_log_positive requires x >= 0")
    return float(_ml_log_positive_many(alpha, np.array([x]))[0])


def _ml_log_positive_many(alpha, x):
    """ml_log_positive on a float array of x >= 0, with one ml_many call."""
    out = np.zeros_like(x)
    w = x ** (1.0 / alpha)
    # E_alpha(x) = exp(w)/alpha + O(1/x); past the switch the algebraic
    # part is exp(-w)-small relative to the leading term
    far = w > _LOG_SWITCH_W
    out[far] = w[far] - math.log(alpha)
    near = (x > 0.0) & ~far
    out[near] = np.log(ml_many(MLParams(alpha, 1.0), x[near]).real)
    return out


# ---------------------------------------------------------------------------
# empirical decay constants for the sector case


@dataclass(frozen=True)
class DecayEstimate:
    """Stabilized envelope constant and the onset time it was read from."""

    constant: float
    t0: float


_DECAY_T_END = 1.0e6
_DECAY_PTS_PER_DECADE = 24


def _sector_margin(alpha, lam):
    lam = complex(lam)
    if lam == 0:
        return -alpha * _PI / 2.0
    return abs(np.angle(lam)) - alpha * _PI / 2.0


def estimate_decay_constant(alpha, lam, l, which="E_alpha"):
    """Empirical constant in the algebraic decay law of the sector case.

    For eigenvalue arguments outside the sector, t^alpha (respectively
    t^(2 alpha) for the beta = alpha kernel) times the l-th eigenvalue
    derivative of the Mittag-Leffler propagator stays bounded; the constant
    is the grid sup after it has stabilized to within 1%.
    """
    alpha = _order_value(alpha)
    if which not in ("E_alpha", "E_alpha_alpha"):
        raise DomainError(f"unknown decay kind {which!r}")
    l = int(l)
    if l < 0 or l > _DERIV_CAP:
        raise UnsupportedOrderError(f"derivative order {l} outside 0..{_DERIV_CAP}")
    if _sector_margin(alpha, lam) <= 0.0:
        raise SectorViolationError(
            f"lambda = {lam} lies inside the sector |arg| <= alpha*pi/2"
        )
    beta = 1.0 if which == "E_alpha" else alpha
    weight_pow = alpha if which == "E_alpha" else 2.0 * alpha
    decades = math.log10(_DECAY_T_END) - math.log10(0.1)
    times = np.geomspace(0.1, _DECAY_T_END, int(decades * _DECAY_PTS_PER_DECADE) + 1)
    vals = _ml_dlambda_many(alpha, beta, times, complex(lam), l)
    prod = times ** weight_pow * np.abs(vals)
    suffix = np.maximum.accumulate(prod[::-1])[::-1]
    target = suffix[np.searchsorted(times, _DECAY_T_END / 10.0)]
    idx = int(np.argmax(suffix <= 1.01 * target))
    return DecayEstimate(constant=float(suffix[idx]), t0=float(times[idx]))
