"""Stability certificates for perturbed Caputo systems ^C D^alpha x = Ax + f.

Two sufficient conditions are checked.  The first is the contraction of
the Lyapunov-Perron operator, sup_t I(t) < 1 for the kernel-weighted
perturbation integral I: it is read at the smaller of two bounds, the
scanned sup q plus its error estimate, and sup K times the kernel
integral (every kind has K >= ||Q||).  The second is a weighted-norm
contraction certificate for perturbations whose envelope decays.
`classify` is the one entry point to them: it runs the eigenvalue sector
check and both certificates, and its report carries q, q_error, the
uniform threshold epsilon and the initial-ball radius delta.
`beta_norm_certificate` exposes the weighted-norm certificate alone;
`boundedness_probe` infers stability of a time-varying linear system
from the boundedness of its basis trajectories.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, FracstabError, GridError, NoDecayError
from .matfun import (
    _norm_kinks,
    _propagators,
    _time_scales,
    as_square_matrix,
    check_spectral_condition,
    kernel_integral,
    ml_matrix,
    sup_ml_norm,
)
from .norms import check_norm, operator_norm, vector_norm
from .quad import TimeGrid, _gk21_family, uniform_grid
from .solver import as_perturbation, solve_abm
from .special_fn import MLParams, _ml_log_positive_many, _order_value, gamma

_HORIZONS = tuple(float(2 ** k) for k in range(-6, 17))
_FAR_TIME = float(2 ** 15)   # split point for the beyond-horizon tail bound
_LAST_LAG = 2.0 * _HORIZONS[-1]  # the largest lag a horizon's polish reaches
_CONTRACTION_PASS = 0.5      # the theorem's contraction factor; the value is a bound
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# lag-integral (epsabs, epsrel, limit): the decay certificate is gated at 0.5
# with its error added, so it needs less than q
_Q_TOL = (1e-12, 1e-8, 300)
_CERT_TOL = (1e-6, 1e-4, 300)

STABLE_VERDICTS = ("RobustStable", "DecayingStable")
_VERDICTS = (*STABLE_VERDICTS, "Inconclusive", "SectorViolated")


def _q_bound(q, q_error, sup_envelope, epsilon):
    """Bound on sup_t I(t), the contraction gate's value: the smaller of
    q + q_error (None reads as 0) and sup K * kernel integral, which is
    sup_envelope / (2 epsilon).  None when neither is available."""
    bounds = []
    if q is not None:
        bounds.append(q + (0.0 if q_error is None else q_error))
    if sup_envelope is not None and epsilon is not None:
        bounds.append(sup_envelope / (2.0 * epsilon))
    return min(bounds, default=None)


@dataclass(frozen=True)
class StabilityReport:
    """Everything the certificates produced for one system.

    Numeric fields are None when the quantity was not computable for the
    input (a violated sector condition leaves only the sector block).
    `delta` is reported for a unit target ball and scales linearly with
    the ball radius.
    """

    sector: dict
    verdict: str
    q: Optional[float] = None
    q_error: Optional[float] = None
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    m_pair: Optional[dict] = None
    t_decay: Optional[float] = None
    beta_contraction: Optional[float] = None
    sup_envelope: Optional[float] = None
    notes: tuple = ()

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise DomainError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "RobustStable":
            q_bound = _q_bound(self.q, self.q_error, self.sup_envelope, self.epsilon)
            if q_bound is None or not q_bound < 1.0:
                raise DomainError(
                    "RobustStable requires min(q + q_error, sup K * kernel integral) < 1"
                )
        if self.verdict == "DecayingStable":
            if (
                self.beta_contraction is None
                or not self.beta_contraction <= _CONTRACTION_PASS
            ):
                raise DomainError(
                    "DecayingStable requires the weighted-norm contraction "
                    f"bound <= {_CONTRACTION_PASS}"
                )


def _golden_max(f, lo, hi, xtol):
    """Largest value of f met by a golden-section search for its maximum
    on [lo, hi]; the bracket shrinks until it is shorter than xtol."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xtol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
    return max(f1, f2)


def _far_tail_term(m, al, norm, sup_k, env_far, kint_value):
    """Bound on the integral values past the largest sampled horizon.

    Splits the integral at lag 2^15: the recent-past part sees the
    envelope only from time 2^15 on, where env_far is its sup, and the
    distant-past part sees at most sup_k, over a kernel tail bounded
    through the algebraic decay of the propagator.  Charging env_far over
    the whole kernel integral leaves sup_k - env_far for the tail, so a
    constant envelope's bound is its limit.
    """
    params = MLParams(al, al)
    c_hat = (
        operator_norm(ml_matrix(params, _FAR_TIME, m), norm)
        * _FAR_TIME ** (2.0 * al)
    )
    kernel_tail = c_hat * _FAR_TIME ** (-al) / al
    return env_far * kint_value + (sup_k - env_far) * kernel_tail


def _weighted_norms(e, taus, norm, pert):
    """The certificates' integrand, one value per propagator slice e[i]:
    ||e[i] Q(taus[i])|| for a linear kind pert, else ||e[i]|| K(taus[i])
    for its envelope K."""
    if pert.is_linear:
        return operator_norm(e @ pert.q_matrix(taus), norm)
    return operator_norm(e, norm) * pert.envelope(taus, norm)


def _lag_integrals(m, al, norm, pert):
    """integrate(ts, tol, log_beta=None, t_freeze=None): one (value, error
    estimate) per time t in ts of the certificates' lag integral

        int_0^t s^(alpha-1) ||E_{alpha,alpha}(s^alpha A) Q(t - s)|| w ds

    (||E_{alpha,alpha}(s^alpha A)|| K(t - s) for the envelope K of a
    nonlinear kind pert).  In v = s^alpha, free of the kernel
    singularity, all times advance in lockstep through one `_gk21_family`
    with tol = (epsabs, epsrel, limit).  The weight w is 1, or given the log
    of a nondecreasing weight beta below T = t_freeze, the ratio
    beta(min(t - s, T)) / beta(min(t, T)), exactly 1 once t - s >= T.  The
    propagator does not depend on t, so each node v is evaluated once, at v
    itself (`matfun._propagators`), for every call of integrate and kept in
    a table: sorted keys over an append-only store.  Each span [0, t^alpha]
    starts cut at the octaves v = 2^j from the least of 1 and
    2^floor(alpha log2 fast) up, with fast the spectrum's time scale
    (`matfun._time_scales`), where the kernel's mass sits and then decays
    algebraically, at its norm kinks below t (`matfun._norm_kinks` over
    [1e-3 fast, 2^17], searched once, with R = Q(0) for a linear kind, exact
    for the constant and decaying ones, else I), at the lags of the kind's
    knots and of T, and for w = 1 and an envelope that varies at the lags
    2^j < t.
    """
    params = MLParams(al, al)
    knots = np.asarray(pert.breakpoints(), dtype=float)
    fast, _ = _time_scales(m, al)
    first = min(0, math.floor(al * math.log2(fast)))
    # v at the norm kinks, searched on the first call, under its failure handling
    kink_v = None
    # only an envelope that varies can decay algebraically from the recent past
    graded = pert.envelope_sup(0.0, norm) > pert.limit_envelope(norm)
    # the evaluated nodes in increasing order after a sentinel no lookup
    # returns, each with the row of its propagator in the store, whose
    # capacity doubles as it fills
    keys, rows = np.array([np.inf]), np.array([-1])
    store, used = np.empty((0,) + m.shape), 0

    def propagators(v):
        nonlocal keys, rows, store, used
        s = np.sort(v)
        at = np.searchsorted(keys, s)
        new = (keys[at] != s) & np.append(True, s[1:] != s[:-1])
        if new.any():
            fresh = _propagators(params, s[new], m)
            stop = used + len(fresh)
            if stop > len(store):
                grown = np.empty((max(stop, 2 * used),) + m.shape)
                grown[:used] = store[:used]
                store = grown
            store[used:stop] = fresh
            keys = np.insert(keys, at[new], s[new])
            rows = np.insert(rows, at[new], np.arange(used, stop))
            used = stop
        return store[rows[np.searchsorted(keys, v)]]

    def integrate(ts, tol, log_beta=None, t_freeze=None):
        nonlocal kink_v
        ts = np.asarray(ts, dtype=float)
        if kink_v is None:
            right = pert.q_matrix(0.0) if pert.is_linear else None
            kink_v = _norm_kinks(m, al, norm, _LAST_LAG, right)
        lagged = knots if t_freeze is None else np.append(knots, t_freeze)
        if log_beta is not None:
            lb_t = log_beta(np.minimum(ts, t_freeze))

        def f(v, owner):
            taus = np.maximum(ts[owner] - v ** (1.0 / al), 0.0)
            vals = _weighted_norms(propagators(v), taus, norm, pert)
            if log_beta is not None:
                low = taus < t_freeze
                vals[low] *= np.exp(log_beta(taus[low]) - lb_t[owner[low]])
            return vals

        # the octaves and the kinks give every t the same first panels
        spans = []
        for t in ts:
            lags = lagged[(lagged > 0.0) & (lagged < t)]
            if log_beta is None and graded:
                lags = np.append(lags, np.exp2(np.arange(math.ceil(math.log2(t)))))
            powers = np.exp2(np.arange(first, math.floor(al * math.log2(t)) + 1))
            spans.append((0.0, t ** al, [*powers, *kink_v, *(t - lags) ** al]))
        return [(val / al, e / al) for val, e in _gk21_family(f, spans, *tol)]

    return integrate


def _q_scan(m, al, norm, pert, kint_value, sup_k, lim_k, integrate):
    """(q, error estimate): the contraction constant, the sup over the
    geometric horizons 2^-6, 2^-5, ..., 2^16 of the lag integral of
    `_lag_integrals` with weight 1, given the kernel integral kint_value
    and the envelope's (sup, limit) from `_envelope_stats`.

    A linear kind integrates the norm of the matrix product, a nonlinear
    kind the majorant ||E|| K.  A linear kind's matrix that settles to a
    constant gives the integral a t -> infinity value, evaluated
    analytically through the kernel integral; it enters the sup as the
    limit, not as a bound on the finite horizons.  An interior peak is
    polished inside its bracketing octaves, and the error estimate adds
    the far tail past the last horizon.
    """
    if sup_k == 0.0:
        return 0.0, 0.0
    if not pert.is_linear or lim_k == 0.0:
        # K >= ||Q||, so a vanishing envelope limit leaves Q(inf) = 0
        limit_value = lim_k * kint_value
    else:
        limit_value = kernel_integral(m, al, norm, right=pert.q_matrix(np.inf))["value"]
    env_far = pert.envelope_sup(_FAR_TIME, norm)

    best = 0.0
    best_t = _HORIZONS[0]
    err = 0.0
    for t, (val, e) in zip(_HORIZONS, integrate(_HORIZONS, _Q_TOL)):
        if val > best:
            best, best_t = val, t
        err = max(err, e)
    if best > limit_value:
        # peak sits at a finite horizon; polish it inside the bracketing octaves
        polished = _golden_max(
            lambda t: integrate([t], _Q_TOL)[0][0], best_t / 2.0, best_t * 2.0, best_t * 1e-4
        )
        best = max(best, polished)
    value = max(best, limit_value)
    if env_far == 0.0:
        # vanished envelope: past the last horizon the integral only decays
        tail_excess = 0.0
    else:
        tail = _far_tail_term(m, al, norm, sup_k, env_far, kint_value)
        tail_excess = max(0.0, tail - value)
    return float(value), float(err + tail_excess)


def _envelope_stats(pert, norm):
    """(sup, limit) of the envelope K(t) of a perturbation kind."""
    sup_k, lim_k = pert.envelope_sup(0.0, norm), pert.limit_envelope(norm)
    if not (math.isfinite(sup_k) and lim_k >= 0.0):
        raise DomainError("envelope must be finite and nonnegative")
    return sup_k, lim_k


def _certificate_inputs(m, al, norm, pert):
    """What both certificates read, computed once per system: the kernel
    integral, sup ||E_{alpha,alpha}||, the envelope's (sup, limit) and the
    `_lag_integrals`, whose propagator table and kink search they share."""
    kint_value = kernel_integral(m, al, norm)["value"]
    sup_e = sup_ml_norm(m, al, norm, beta=al)
    return (kint_value, sup_e, *_envelope_stats(pert, norm), _lag_integrals(m, al, norm, pert))


def beta_norm_certificate(a, alpha, pert, grid, norm="max"):
    """Contraction factor of the operator in a growth-weighted norm.

    Computes the smallest constant M >= 1 with
    Gamma(alpha) * sup||E_{alpha,alpha}|| * sup K <= M and
    kernel integral <= M, takes as T the first grid node from which the
    envelope stays below 1/(5M) at every later grid node and knot of the
    kind (a piecewise-linear envelope peaks at a knot), and weights
    trajectories by beta(t) = E_alpha(5 M t^alpha) frozen past T.  The
    contraction is the operator's weighted norm bound at evaluation
    times t up to the grid horizon (a sample of the grid nodes, a bracket
    around T, T itself and every knot of the kind), the max of
    int_0^t ||E_{alpha,alpha}((t-tau)^alpha A) Q(tau)|| beta(tau)/beta(t)
    dtau (with ||E_{alpha,alpha}|| K(tau) in place of the product for
    the nonlinear kinds) plus its quadrature error estimate: the same
    integrand the contraction constant q integrates, through the same
    `_lag_integrals`.  The weight ratio enters at each quadrature node
    as a difference of logs, so steep weights neither overflow nor need
    a fine grid.

    The result also carries log beta(T), the weight's largest value.
    Raises NoDecayError when the envelope is not below 1/(5M) at the
    last grid node or at a knot at or past it, so that T would lie past
    the grid horizon.
    """
    m = as_square_matrix(a)
    al = _order_value(alpha)
    check_norm(norm)
    if not isinstance(grid, TimeGrid):
        raise GridError("grid must be a TimeGrid")
    pert = as_perturbation(pert, m.shape[0])
    return _beta_norm_core(al, pert, grid, norm, *_certificate_inputs(m, al, norm, pert))


def _beta_norm_core(al, pert, grid, norm, m_int, sup_e, sup_k, lim_k, integrate):
    """beta_norm_certificate on validated inputs, given the kernel integral
    m_int, sup_e = sup ||E_{alpha,alpha}||, the envelope's (sup, limit) and
    the `_lag_integrals` of the system."""
    m_gamma = gamma(al) * sup_e * sup_k
    big_m = max(1.0, m_gamma, m_int)
    threshold = 1.0 / (5.0 * big_m)

    horizon = grid.nodes[-1]
    # T is the grid node after the last grid node or knot at or above the
    # threshold: a piecewise-linear envelope peaks at a knot
    ts = np.concatenate([grid.nodes, pert.breakpoints()])
    above = ts[pert.envelope(ts, norm) >= threshold]
    i_decay = int(np.searchsorted(grid.nodes, above.max(), "right")) if above.size else 0
    if not lim_k < threshold or i_decay == len(grid.nodes):
        raise NoDecayError(
            f"envelope does not fall below {threshold:.6g} "
            f"within the grid horizon {horizon:.6g}"
        )
    t_decay = float(grid.nodes[i_decay])

    def log_beta(taus):
        # the weight itself overflows doubles long before the horizon for
        # steep 5M, so it enters the integrand as a difference of logs
        return _ml_log_positive_many(al, 5.0 * big_m * taus ** al)

    knots = pert.breakpoints()
    # a table's integral can peak at a knot, and the weight freezes at T
    eval_ts = {*grid.nodes[1:: max(1, len(grid.nodes) // 48)], *knots[knots <= horizon], t_decay}
    if 0.0 < t_decay < horizon:
        # bracket the weight-freeze time, where the flat region begins
        lo = max(grid.nodes[1], t_decay / 8.0)
        hi = min(horizon, max(4.0 * t_decay, 2.0 * lo))
        eval_ts.update(np.geomspace(lo, hi, 16))
    if sup_k == 0.0:
        # with nothing to contract, the weight beta = 1 serves
        results, log_beta_t = [(0.0, 0.0)], 0.0
    else:
        results = integrate(sorted(t for t in eval_ts if t > 0.0), _CERT_TOL, log_beta, t_decay)
        log_beta_t = float(log_beta(np.array([t_decay]))[0])

    return {
        "M": float(big_m),
        "T": t_decay,
        "contraction": float(max(val + e for val, e in results)),
        "log_beta_T": log_beta_t,
        "M_gamma": float(m_gamma),
        "M_int": float(m_int),
    }


def classify(a, alpha, pert=None, norm="max", seed=42):
    """Run the certificates and report the verdict they support.

    This is the one public source of the certificate quantities: the
    report carries the contraction constant q (the scan of `_q_scan`,
    which integrates ||E Q|| for a linear kind and ||E|| K for a
    nonlinear one) with its error estimate q_error, the uniform
    threshold epsilon = 1 / (2 * kernel integral), below which a
    constant envelope keeps the contraction under 1/2, and delta, the
    initial-ball radius for a unit target ball (a ball of radius r takes
    r * delta).

    After the sector check, the contraction bound
    min(q + q_error, sup K * kernel integral) is always computed, and the
    decay certificate runs only where it can decide: for an envelope that
    vanishes at infinity, or when the bound fails.  The verdict is
    DecayingStable when the decay certificate passes, else RobustStable
    when the bound is below 1, else Inconclusive.  delta is
    (1 - bound) / sup ||E_alpha|| whenever the bound passes, and otherwise
    a DecayingStable verdict takes it from the weighted-norm bound.
    A report of Inconclusive is not an instability claim: all
    certificates are sufficient conditions only.
    Failures inside individual certificates are recorded as notes and
    degrade the verdict rather than raising.

    Every certificate is deterministic: seed is accepted for callers that
    pass one, and no certificate depends on it.
    """
    m = as_square_matrix(a)
    al = _order_value(alpha)
    check_norm(norm)
    pert = as_perturbation(pert, m.shape[0])

    full_sector = check_spectral_condition(m, al)
    sector = {
        "satisfied": bool(full_sector["satisfied"]),
        "margin": float(full_sector["margin"]),
    }
    if not sector["satisfied"]:
        return StabilityReport(
            sector=sector,
            verdict="SectorViolated",
            notes=("eigenvalue sector condition fails",),
        )

    kint, sup_e_aa, sup_k, lim_k, integrate = _certificate_inputs(m, al, norm, pert)
    epsilon = float(0.5 / kint)
    notes = []
    q_value = q_error = None
    try:
        q_value, q_error = _q_scan(m, al, norm, pert, kint, sup_k, lim_k, integrate)
    except FracstabError as exc:
        notes.append(f"contraction constant unavailable: {exc}")
    q_bound = _q_bound(q_value, q_error, sup_k, epsilon)

    cert = None
    if lim_k == 0.0 < sup_k or not q_bound < 1.0:
        try:
            cert = _beta_norm_core(
                al, pert, uniform_grid(40.0, 320), norm, kint, sup_e_aa, sup_k, lim_k, integrate
            )
        except FracstabError as exc:
            notes.append(f"decay certificate unavailable: {exc}")
    if cert is not None and cert["contraction"] <= _CONTRACTION_PASS:
        verdict = "DecayingStable"
    elif q_bound < 1.0:
        verdict = "RobustStable"
    else:
        verdict = "Inconclusive"
        notes.append("no certificate passed; this is not an instability claim")
        if 0.0 < lim_k < epsilon:
            notes.append(
                "envelope limit is positive but below the uniform threshold; "
                "no implemented certificate covers that regime"
            )

    sup_e_alpha = sup_ml_norm(m, al, norm)
    delta = None
    if q_bound < 1.0:
        delta = float((1.0 - q_bound) / sup_e_alpha)
    elif verdict == "DecayingStable":
        # the operator's beta-norm is at most c, and beta >= 1 is
        # nondecreasing and frozen past T, so |x(t)| <= beta(T) ||x||_beta
        # <= beta(T) sup||E_alpha|| |x0| / (1 - c)
        log_delta = (
            math.log1p(-cert["contraction"]) - math.log(sup_e_alpha) - cert["log_beta_T"]
        )
        delta = math.exp(log_delta)
        notes.append("delta from the weighted-norm bound, weight beta(T) included")
        if delta == 0.0:
            notes.append(f"delta underflows: log delta = {log_delta:.6g}")

    return StabilityReport(
        sector=sector,
        verdict=verdict,
        q=q_value,
        q_error=q_error,
        epsilon=epsilon,
        delta=delta,
        m_pair={"M_gamma": float(gamma(al) * sup_e_aa * sup_k), "M_int": float(kint)},
        t_decay=cert["T"] if cert is not None else None,
        beta_contraction=cert["contraction"] if cert is not None else None,
        sup_envelope=sup_k,
        notes=tuple(notes),
    )


def boundedness_probe(b, alpha, grid, norm="max"):
    """Boundedness of basis trajectories of ^C D^alpha x = B(t) x.

    Solves from each standard basis vector and flags a trajectory
    bounded when its running sup over the second half of the horizon
    exceeds the first-half sup by less than 1%.  All flags true infers
    stability of the trivial solution; the inference is a finite-horizon
    heuristic, reported as such.  Solver failures mark the trajectory
    unbounded with a note.
    """
    if not isinstance(grid, TimeGrid):
        raise GridError("grid must be a TimeGrid")
    if grid.nodes[-1] < 100.0:
        raise GridError(
            f"horizon {grid.nodes[-1]:g} too short; boundedness needs >= 100"
        )
    if not callable(b):
        raise DomainError("b must map time to a square matrix")
    al = _order_value(alpha)
    # ABM calls the field at t_n for the corrector and again for the
    # history; B is read and validated once per new time
    last = [0.0, as_square_matrix(b(0.0))]
    d = last[1].shape[0]

    def field(t, x):
        if t != last[0]:
            last[:] = t, as_square_matrix(b(t))
        return last[1] @ x

    half = grid.nodes[-1] / 2.0
    first = grid.nodes <= half
    per_basis = []
    sup_norms = []
    notes = []
    for i in range(d):
        x0 = np.zeros(d)
        x0[i] = 1.0
        try:
            # an overflowing state is reported by the solver as a failure
            with np.errstate(over="ignore", invalid="ignore"):
                traj = solve_abm(al, field, x0, grid)
        except FracstabError as exc:
            per_basis.append(False)
            sup_norms.append(math.inf)
            notes.append(f"basis {i}: solver failed ({exc})")
            continue
        norms = vector_norm(traj.states, norm)
        sup_first = float(norms[first].max())
        sup_second = float(norms[~first].max()) if np.any(~first) else 0.0
        sup_norms.append(float(norms.max()))
        per_basis.append(sup_second < 1.01 * sup_first)
    return {
        "per_basis_bounded": per_basis,
        "sup_norms": sup_norms,
        "inferred_stable": all(per_basis),
        "notes": notes,
    }
