"""Stability certificates for perturbed Caputo systems ^C D^alpha x = Ax + f.

Three sufficient conditions are checked, in increasing order of machinery:
a contraction constant q < 1 for the weighted perturbation integral, a
uniform-envelope threshold epsilon derived from the kernel integral, and a
weighted-norm contraction certificate for perturbations whose envelope
decays.  `classify` combines them with the eigenvalue sector check into a
single report; `boundedness_probe` infers stability of a time-varying
linear system from the boundedness of its basis trajectories.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize

from .errors import (
    DomainError,
    FracstabError,
    GridError,
    NoDecayError,
    NonFiniteStateError,
)
from .matfun import (
    as_square_matrix,
    check_spectral_condition,
    kernel_integral,
    ml_matrix,
    spectral_decompose,
    sup_ml_norm,
)
from .norms import check_norm, operator_norm, vector_norm
from .quad import TimeGrid, _gk21_quad, uniform_grid
from .solver import as_perturbation, solve_abm
from .special_fn import MLParams, _ml_log_positive_many, _order_value, gamma

_HORIZONS = tuple(float(2 ** k) for k in range(-6, 17))
_LIMIT_TIME = 1e18           # stand-in for t -> infinity when probing envelopes
_FAR_TIME = float(2 ** 15)   # split point for the beyond-horizon tail bound
_CONTRACTION_PASS = 0.55     # analytic factor 1/2 plus reporting tolerance
_PROBE_COUNT = 20
_TSEARCH_SPAN = 1e6          # decay search extends this far past the grid

_VERDICTS = (
    "RobustStable",
    "UniformSmallStable",
    "DecayingStable",
    "Inconclusive",
    "SectorViolated",
)


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
            if self.q is None or not self.q < 1.0:
                raise DomainError("RobustStable requires q < 1")
        if self.verdict == "UniformSmallStable":
            if (
                self.sup_envelope is None
                or self.epsilon is None
                or not self.sup_envelope < self.epsilon
            ):
                raise DomainError(
                    "UniformSmallStable requires sup envelope < epsilon"
                )
        if self.verdict == "DecayingStable":
            if (
                self.beta_contraction is None
                or not self.beta_contraction <= _CONTRACTION_PASS
            ):
                raise DomainError(
                    "DecayingStable requires the weighted-norm contraction "
                    f"estimate <= {_CONTRACTION_PASS}"
                )


def _split_quad(f, hi):
    """Integrate f on [0, hi] piecewise; returns (value, error estimate).

    The integrand mixes a fast transient near 0 with a slow algebraic
    tail, so [0, hi] is cut at 1 and at sqrt(hi) and each piece gets its
    own adaptive Gauss–Kronrod integral.  f takes an array of points: each
    refinement round of a piece is one call of f on every node it needs.
    """
    cuts = sorted({0.0, min(1.0, hi), math.sqrt(hi) if hi > 1.0 else hi, hi})
    total = 0.0
    err = 0.0
    for lo, up in zip(cuts[:-1], cuts[1:]):
        if up <= lo:
            continue
        val, e = _gk21_quad(f, lo, up, epsabs=1e-12, epsrel=1e-8, limit=300)
        total += val
        err += e
    return total, err


def _far_tail_term(m, al, spec, norm, sup_k, env_far, kint_value):
    """Bound on the integral values past the largest sampled horizon.

    Splits the integral at lag 2^15: the recent-past part is bounded by
    the envelope value there times the full kernel integral, the
    distant-past part through the algebraic decay of the propagator.
    """
    params = MLParams(al, al)
    c_hat = (
        operator_norm(ml_matrix(params, _FAR_TIME, m, spec), norm)
        * _FAR_TIME ** (2.0 * al)
    )
    kernel_tail = c_hat * _FAR_TIME ** (-al) / al
    return env_far * kint_value + sup_k * kernel_tail


def _q_scan(m, al, norm, envelope, lim_k, q_matrix=None, kint_value=None):
    """(q, error estimate): sup over geometric horizons of the contraction
    integral.

    The integrand at kernel lag s and absolute time tau = t - s is
    ||E_{alpha,alpha}(s^alpha A) Q(tau)|| when q_matrix gives Q, else
    ||E_{alpha,alpha}(s^alpha A)|| K(tau) for the envelope K with limit
    lim_k; the substitution v = s^alpha removes the kernel singularity.
    """
    sup_k, lim_k = _envelope_stats(envelope, lim_k)
    if sup_k == 0.0:
        return 0.0, 0.0
    spec = spectral_decompose(m)
    if kint_value is None:
        kint_value = kernel_integral(m, al, norm, spec=spec)["value"]
    if q_matrix is None:
        limit_value = lim_k * kint_value

        def weigher(e, taus):
            k_taus = np.array([float(envelope(tau)) for tau in taus])
            return operator_norm(e, norm) * k_taus

    else:
        # a matrix that settles to a constant makes the integral monotone
        # up to this infinite-horizon limit
        limit_value = kernel_integral(
            m, al, norm, spec=spec, right=q_matrix(_LIMIT_TIME)
        )["value"]

        def weigher(e, taus):
            q_mats = np.stack([q_matrix(tau) for tau in taus])
            return operator_norm(e @ q_mats, norm)

    if float(envelope(0.0)) == lim_k == sup_k:
        # constant envelope: the integral grows monotonically to its limit
        return float(limit_value), 0.0
    env_far = float(envelope(_FAR_TIME))
    params = MLParams(al, al)

    def value_at(t):
        def f(v):
            lags = v ** (1.0 / al)
            e = ml_matrix(params, lags, m, spec)
            return weigher(e, np.maximum(t - lags, 0.0))

        val, e = _split_quad(f, t ** al)
        return val / al, e / al

    best = 0.0
    best_t = _HORIZONS[0]
    err = 0.0
    for t in _HORIZONS:
        val, e = value_at(t)
        if val > best:
            best, best_t = val, t
        err = max(err, e)
    if best > limit_value:
        # peak sits at a finite horizon; polish it inside the bracketing octaves
        res = optimize.minimize_scalar(
            lambda t: -value_at(t)[0],
            bounds=(best_t / 2.0, best_t * 2.0),
            method="bounded",
            options={"xatol": best_t * 1e-4},
        )
        best = max(best, -res.fun)
    value = max(best, limit_value)
    if env_far == 0.0 and sup_k > 0.0:
        # vanished envelope: past the last horizon the integral only decays
        tail_excess = 0.0
    else:
        tail = _far_tail_term(m, al, spec, norm, sup_k, env_far, kint_value)
        tail_excess = max(0.0, tail - value)
    return float(value), float(err + tail_excess)


def _envelope_stats(envelope, lim_k):
    """(sup, limit) of the envelope K(t), with the sup taken over t = 0,
    200 geometric sample times in [1e-3, 1e6] and the limit lim_k."""
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 200)])
    vals = np.array([float(envelope(t)) for t in ts] + [float(lim_k)])
    if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
        raise DomainError("envelope must be finite and nonnegative")
    return float(vals.max()), float(lim_k)


def _pert_envelope(pert, norm):
    """The envelope callable and limit of a perturbation kind."""
    return (lambda t: pert.envelope(t, norm)), pert.limit_envelope(norm)


def compute_q_linear(a, alpha, pert, norm="max", mode="product"):
    """Contraction constant of the perturbation integral, linear kinds.

    Takes the sup over geometric horizons 1, 2, ..., 2^16 of the
    product-integrated kernel-weighted perturbation, with the norm on the
    matrix product inside the integrand (mode "product"); mode "bound"
    uses the cheaper majorant ||E|| * envelope instead.  A perturbation
    matrix that settles to a constant makes the integral monotone up to
    its infinite-horizon limit, which is evaluated analytically through
    the kernel integral and included in the sup.
    """
    m = as_square_matrix(a)
    al = _order_value(alpha)
    check_norm(norm)
    pert = as_perturbation(pert)
    if not pert.is_linear:
        raise DomainError("compute_q_linear requires a linear perturbation kind")
    if mode not in ("product", "bound"):
        raise DomainError(f"unknown mode {mode!r}")
    q_matrix = pert.q_matrix if mode == "product" else None
    return _q_scan(m, al, norm, *_pert_envelope(pert, norm), q_matrix)[0]


def compute_q_nonlinear(a, alpha, k, norm="max"):
    """Contraction constant with the Lipschitz envelope outside the norm.

    Same horizon construction as the linear variant but with integrand
    ||E|| * K(tau), matching the certificate available when only a
    Lipschitz envelope of the perturbation is known.
    """
    m = as_square_matrix(a)
    al = _order_value(alpha)
    check_norm(norm)
    if not callable(k):
        raise DomainError("envelope must be callable")
    return _q_scan(m, al, norm, k, k(_LIMIT_TIME))[0]


def epsilon_threshold(a, alpha, norm="max"):
    """Uniform-envelope threshold 1 / (2 * kernel integral).

    Any perturbation whose envelope stays below this value keeps the
    contraction constant under 1/2; the sector condition is required and
    its violation raises.
    """
    return 0.5 / kernel_integral(a, alpha, norm)["value"]


def delta_of_epsilon(q, eps_ball, a, alpha, norm="max"):
    """Initial-ball radius guaranteeing trajectories stay in eps_ball.

    Implements (1 - q) * eps_ball / sup_t ||E_alpha(t^alpha A)||; the
    guarantee is analytic, i.e. at the level of the exact solution
    operator, not of any particular discretization.
    """
    q = float(q)
    eps_ball = float(eps_ball)
    if not math.isfinite(q) or q < 0.0:
        raise DomainError("q must be finite and nonnegative")
    if q >= 1.0:
        raise DomainError("q >= 1 certifies no contraction ball")
    if not eps_ball > 0.0:
        raise DomainError("eps_ball must be positive")
    return (1.0 - q) * eps_ball / sup_ml_norm(a, alpha, norm)


def _probe_family(rng, d, horizon, t_switch):
    """20 difference trajectories of weighted-norm size one.

    Three deterministic shapes (all mass, late mass, early mass) plus
    seeded smooth oscillations, each paired with a fixed unit direction.
    """
    dense = np.linspace(0.0, horizon, 2001)
    probes = []

    def direction(i):
        if i < d:
            vec = np.zeros(d)
            vec[i] = 1.0
            return vec
        vec = rng.standard_normal(d)
        return vec / np.max(np.abs(vec))

    probes.append((lambda t: np.ones_like(t), direction(0)))
    probes.append((lambda t: (t >= t_switch).astype(float), direction(1 % d)))
    probes.append((lambda t: (t < t_switch).astype(float), direction(2 % d)))
    while len(probes) < _PROBE_COUNT:
        amps = rng.standard_normal(4)
        freqs = rng.uniform(0.05, 3.0, 4)
        phases = rng.uniform(0.0, 2.0 * math.pi, 4)

        def shape(t, amps=amps, freqs=freqs, phases=phases):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            return np.cos(np.outer(t, freqs) + phases) @ amps

        scale = np.max(np.abs(shape(dense)))
        probes.append(
            (lambda t, shape=shape, scale=scale: shape(t) / scale,
             direction(len(probes)))
        )
    return probes


def beta_norm_certificate(a, alpha, pert, grid, norm="max", seed=42):
    """Contraction estimate for the operator in a growth-weighted norm.

    Computes the smallest constant M >= 1 with
    Gamma(alpha) * sup||E_{alpha,alpha}|| * sup K <= M and
    kernel integral <= M, locates the first time T from which every
    sampled envelope value stays below 1/(5M), weights trajectories by
    beta(t) = E_alpha(5 M t^alpha) frozen past T, and measures the
    largest amplification the discretized operator achieves on a family
    of 20 seeded difference trajectories of weighted-norm one.  The
    weight growth is folded into the quadrature analytically (in log
    space), so steep weights do not need a fine grid.

    Raises NoDecayError when the envelope never falls below 1/(5M) on
    the searchable horizon (the grid extended geometrically beyond its
    end).
    """
    m = as_square_matrix(a)
    al = _order_value(alpha)
    check_norm(norm)
    if not isinstance(grid, TimeGrid):
        raise GridError("grid must be a TimeGrid")
    pert = as_perturbation(pert)
    spec = spectral_decompose(m)
    kint_value = kernel_integral(m, al, norm, spec=spec)["value"]
    sup_e = sup_ml_norm(m, al, norm, spec=spec, beta=al)
    return _beta_norm_core(m, al, pert, grid, norm, seed, spec, kint_value, sup_e)


def _beta_norm_core(m, al, pert, grid, norm, seed, spec, m_int, sup_e):
    """beta_norm_certificate on validated inputs, given the spectral data,
    the kernel integral m_int and sup_e = sup ||E_{alpha,alpha}||."""
    d = m.shape[0]
    sup_k, lim_k = _envelope_stats(*_pert_envelope(pert, norm))
    m_gamma = gamma(al) * sup_e * sup_k
    big_m = max(1.0, m_gamma, m_int)
    threshold = 1.0 / (5.0 * big_m)

    horizon = grid.nodes[-1]
    search_ts = np.concatenate(
        [grid.nodes, np.geomspace(horizon, horizon * _TSEARCH_SPAN, 160)[1:]]
    )
    k_vals = np.array([pert.envelope(t, norm) for t in search_ts])
    t_decay = None
    if lim_k < threshold:
        below = k_vals < threshold
        for i in range(len(search_ts)):
            if below[i:].all():
                t_decay = float(search_ts[i])
                break
    if t_decay is None:
        raise NoDecayError(
            f"envelope never falls below {threshold:.6g} "
            f"on the searchable horizon {search_ts[-1]:.3g}"
        )

    if sup_k == 0.0:
        return {
            "M": float(big_m),
            "T": t_decay,
            "contraction": 0.0,
            "M_gamma": float(m_gamma),
            "M_int": float(m_int),
        }

    # log of the weight, tabulated once; the weight itself overflows
    # doubles long before the horizon for steep 5M
    tau_tab = np.concatenate([[0.0], np.geomspace(1e-8, max(horizon, 2 * t_decay), 3000)])
    lb_tab = _ml_log_positive_many(
        al, 5.0 * big_m * np.minimum(tau_tab, t_decay) ** al
    )

    def log_beta(ts):
        return np.interp(ts, tau_tab, lb_tab)

    eval_ts = set(grid.nodes[1:: max(1, len(grid.nodes) // 48)])
    if 0.0 < t_decay < horizon:
        # bracket the weight-freeze time, where the flat region begins
        lo = max(grid.nodes[1], t_decay / 8.0)
        hi = min(horizon, max(4.0 * t_decay, 2.0 * lo))
        eval_ts.update(np.geomspace(lo, hi, 16))
    eval_ts = sorted(eval_ts)

    params = MLParams(al, al)
    rng = np.random.default_rng(seed)
    probes = _probe_family(rng, d, horizon, t_decay)

    worst = 0.0
    for t in eval_ts:
        ua = t ** al
        v = np.concatenate([[0.0], np.geomspace(ua * 1e-14, ua, 500)])
        lags = v ** (1.0 / al)
        taus = np.maximum(t - lags, 0.0)
        damp = np.exp(log_beta(taus) - log_beta(np.array([t]))[0])
        e_mats = ml_matrix(params, lags, m, spec)
        if pert.is_linear:
            q_mats = np.stack([pert.q_matrix(tau) for tau in taus])
            core = np.einsum("vij,vjk->vik", e_mats, q_mats)
            for shape, dirvec in probes:
                weights = shape(taus) * damp
                integrand = np.einsum("vij,j->vi", core, dirvec) * weights[:, None]
                acc = np.trapezoid(integrand, v, axis=0) / al
                worst = max(worst, float(vector_norm(acc, norm)))
        else:
            e_norms = operator_norm(e_mats, norm)
            k_taus = np.array([pert.envelope(tau, norm) for tau in taus])
            base = e_norms * k_taus * damp
            for shape, _ in probes:
                integrand = base * np.abs(shape(taus))
                acc = np.trapezoid(integrand, v) / al
                worst = max(worst, float(acc))

    return {
        "M": float(big_m),
        "T": t_decay,
        "contraction": worst,
        "M_gamma": float(m_gamma),
        "M_int": float(m_int),
    }


def classify(a, alpha, pert=None, norm="max", seed=42):
    """Run every certificate and report the first that passes.

    The gate order is: sector check, then for perturbations whose
    envelope vanishes at infinity the decay certificate (the machinery
    built for exactly that shape), then the contraction constant q < 1,
    then the uniform threshold sup K < epsilon; for non-vanishing
    envelopes q and the threshold come first and the decay certificate
    is the fallback.  A report of Inconclusive is not an instability
    claim: all certificates are sufficient conditions only.  Failures
    inside individual certificates are recorded as notes and degrade the
    verdict rather than raising.
    """
    m = as_square_matrix(a)
    al = _order_value(alpha)
    check_norm(norm)
    pert = as_perturbation(pert)

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

    notes = []
    spec = spectral_decompose(m)
    kint = kernel_integral(m, al, norm, spec=spec)
    epsilon = float(0.5 / kint["value"])
    sup_e_aa = sup_ml_norm(m, al, norm, spec=spec, beta=al)
    envelope, lim_k = _pert_envelope(pert, norm)
    sup_k, lim_k = _envelope_stats(envelope, lim_k)

    q_value = None
    q_error = None
    try:
        q_matrix = pert.q_matrix if pert.is_linear else None
        q_value, q_error = _q_scan(
            m, al, norm, envelope, lim_k, q_matrix, kint_value=kint["value"]
        )
    except FracstabError as exc:
        notes.append(f"contraction constant unavailable: {exc}")

    decaying = lim_k == 0.0 and sup_k > 0.0
    cert = None
    cert_attempted = False

    def run_certificate():
        nonlocal cert, cert_attempted
        cert_attempted = True
        try:
            cert = _beta_norm_core(
                m, al, pert, uniform_grid(40.0, 320), norm, seed, spec,
                kint["value"], sup_e_aa,
            )
        except FracstabError as exc:
            notes.append(f"decay certificate unavailable: {exc}")

    verdict = None
    if decaying:
        run_certificate()
        if cert is not None and cert["contraction"] <= _CONTRACTION_PASS:
            verdict = "DecayingStable"
    if verdict is None and q_value is not None and q_value < 1.0:
        verdict = "RobustStable"
    if verdict is None and sup_k < epsilon:
        verdict = "UniformSmallStable"
    if verdict is None and not cert_attempted:
        run_certificate()
        if cert is not None and cert["contraction"] <= _CONTRACTION_PASS:
            verdict = "DecayingStable"
    if verdict is None:
        verdict = "Inconclusive"
        notes.append("no certificate passed; this is not an instability claim")

    if verdict == "Inconclusive" and 0.0 < lim_k < epsilon:
        notes.append(
            "envelope limit is positive but below the uniform threshold; "
            "no implemented certificate covers that regime"
        )

    sup_e_alpha = sup_ml_norm(m, al, norm, spec=spec)
    m_pair = {
        "M_gamma": float(gamma(al) * sup_e_aa * sup_k),
        "M_int": float(kint["value"]),
    }

    delta = None
    if verdict == "RobustStable":
        delta = float((1.0 - q_value) / sup_e_alpha)
    elif verdict == "UniformSmallStable":
        delta = float((1.0 - sup_k * kint["value"]) / sup_e_alpha)
    elif verdict == "DecayingStable":
        if q_value is not None and q_value < 1.0:
            delta = float((1.0 - q_value) / sup_e_alpha)
        else:
            # past T the envelope is under 1/(5M) <= 1/(5 kint), so the
            # restarted system has contraction constant at most 1/5
            delta = float(0.8 / sup_e_alpha)
            notes.append("delta from the post-decay tail bound")

    return StabilityReport(
        sector=sector,
        verdict=verdict,
        q=q_value,
        q_error=q_error,
        epsilon=epsilon,
        delta=delta,
        m_pair=m_pair,
        t_decay=cert["T"] if cert is not None else None,
        beta_contraction=cert["contraction"] if cert is not None else None,
        sup_envelope=sup_k,
        notes=tuple(notes),
    )


def boundedness_probe(b, alpha, grid, norm="max", corrector_sweeps=1):
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
    b0 = as_square_matrix(b(0.0))
    d = b0.shape[0]

    def field(t, x):
        return as_square_matrix(b(t)) @ x

    half = grid.nodes[-1] / 2.0
    first = grid.nodes <= half
    per_basis = []
    sup_norms = []
    notes = []
    for i in range(d):
        x0 = np.zeros(d)
        x0[i] = 1.0
        try:
            traj = solve_abm(al, field, x0, grid, corrector_sweeps=corrector_sweeps)
        except (NonFiniteStateError, FracstabError) as exc:
            per_basis.append(False)
            sup_norms.append(math.inf)
            notes.append(f"basis {i}: solver failed ({exc})")
            continue
        norms = np.array([vector_norm(s, norm) for s in traj.states])
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
