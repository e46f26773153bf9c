"""Tests for the stability certificates and the classification report."""

import math
import warnings

import numpy as np
import pytest

from fracstab import matfun, quad, special_fn, stability
from fracstab.errors import (
    DomainError,
    FracstabError,
    GridError,
    NoDecayError,
    SectorViolationError,
)
from fracstab.matfun import kernel_integral, sup_ml_norm
from fracstab.quad import graded_grid, uniform_grid
from fracstab.special_fn import MLParams, ml
from fracstab.solver import (
    LinearConstant,
    LinearDecaying,
    LinearTable,
    NonlinearSaturating,
    NonlinearTable,
    lyapunov_perron_iterate,
    residual_check,
    solve_abm,
    solve_linear_exact,
)
from fracstab.stability import (
    StabilityReport,
    beta_norm_certificate,
    boundedness_probe,
    classify,
)

A_NEG = np.array([[-1.0]])
A_POS = np.array([[1.0]])
A_DIAG = np.diag([-1.0, -2.0])
ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
CERT_GRID = uniform_grid(40.0, 320)
# whole-trajectory check of a reported delta
DELTA_GRID = uniform_grid(10.0, 2000)

# grid-maximization oracle for sup_t ||E_{1/2}(t^{1/2} ROTATION)||, max norm
SUP_ROTATION_HALF = 1.2611620384
# adaptive-quadrature reference for the contraction sup with Q(t) = 3/(1+t)^2
# on the scalar system; the sup sits near t = 0.24, not at the horizon limit
Q_DECAY3 = 0.8354987136
# same reference for a constant mixed-row perturbation on the diagonal system,
# where the heavy row feeds the fast-decaying direction
Q_MIXED_PRODUCT = 0.254066
# contraction constants of the benchmark's two certify cases, recorded when
# the q-scan still integrated one propagator per quadrature point
Q_ROTATION_DECAYING = 0.15275253801627572
Q_DIAG3_SATURATING = 0.0835498713605879


def _decay3():
    return LinearDecaying(np.array([[3.0]]), 2.0)


def _scan(a, pert):
    """(q, q_error) of the contraction scan on the inputs classify gives it."""
    kint = kernel_integral(a, 0.5)["value"]
    return stability._q_scan(
        a, 0.5, "max", pert, kint, *stability._envelope_stats(pert, "max"),
        stability._lag_integrals(a, 0.5, "max", pert),
    )


def test_q_zero_perturbations():
    assert classify(A_NEG, 0.5, None).q == 0.0
    assert classify(A_NEG, 0.5, LinearConstant(np.zeros((1, 1)))).q == 0.0


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_q_constant_scaling_law(lam, alpha):
    # for a scalar system the contraction constant is gain / |eigenvalue|,
    # independent of the order
    q = classify(
        np.array([[-lam]]), alpha, LinearConstant(np.array([[0.3]]))
    ).q
    assert q == pytest.approx(0.3 / lam, abs=1e-3)


def test_q_constant_monotone_in_gain():
    qs = [
        classify(A_NEG, 0.5, LinearConstant(np.array([[c]]))).q
        for c in (0.2, 0.5, 0.8)
    ]
    assert qs[0] < qs[1] < qs[2]
    assert qs[1] == pytest.approx(0.5, abs=1e-3)


def test_q_decaying_envelope():
    q = classify(A_NEG, 0.5, _decay3()).q
    assert q == pytest.approx(Q_DECAY3, abs=5e-4)
    q_slow = classify(A_NEG, 0.5, LinearDecaying(np.array([[0.4]]), 1.0)).q
    assert 0.05 < q_slow < 0.4


def test_q_modes_agree_for_scalar_systems():
    # the product ||E Q|| of a linear kind and the majorant ||E|| K of a
    # nonlinear kind with the same envelope 3 / (1 + t)^2
    qp = classify(A_NEG, 0.5, _decay3()).q
    qb = classify(A_NEG, 0.5, NonlinearSaturating(3.0, gamma=2.0)).q
    assert qp == pytest.approx(qb, rel=1e-9)


def test_q_bound_mode_majorizes_product():
    # the saturating kind has the mixed matrix's envelope, its max-norm 0.5
    mixed = LinearConstant(np.array([[0.1, 0.05], [0.2, 0.3]]))
    product = classify(A_DIAG, 0.5, mixed)
    majorant = classify(A_DIAG, 0.5, NonlinearSaturating(0.5))
    assert product.sup_envelope == majorant.sup_envelope == pytest.approx(0.5, rel=1e-12)
    qp, qb = product.q, majorant.q
    assert qp == pytest.approx(Q_MIXED_PRODUCT, abs=2e-3)
    assert qb == pytest.approx(0.5, abs=1e-3)
    assert qp < qb


def test_q_nonlinear_constant_envelope():
    assert classify(A_NEG, 0.5, NonlinearSaturating(0.7)).q == pytest.approx(
        0.7, abs=1e-3
    )
    assert classify(A_DIAG, 0.5, NonlinearSaturating(0.5)).q == pytest.approx(
        0.5, abs=1e-3
    )


def test_q_nonlinear_decaying_envelope():
    q = classify(A_NEG, 0.5, NonlinearSaturating(0.5, gamma=1.0)).q
    assert 0.0 < q < 0.5


def test_q_nonlinear_rejects_bad_envelopes():
    with pytest.raises(DomainError):
        classify(A_NEG, 0.5, 0.3)
    with pytest.raises(DomainError):
        classify(A_NEG, 0.5, lambda t: 0.3)
    with pytest.raises(DomainError):
        classify(A_NEG, 0.5, NonlinearTable([0.0], [-1.0]))
    with pytest.raises(DomainError):
        classify(A_NEG, 0.5, NonlinearSaturating(math.nan))


def test_q_below_one_for_gains_under_threshold():
    # a constant gain strictly below the uniform threshold always yields a
    # contraction constant below one, for any stable system
    rng = np.random.default_rng(20240813)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        b = rng.standard_normal((d, d))
        shift = max(np.real(np.linalg.eigvals(b))) + 0.5
        a = b - shift * np.eye(d)
        eps = 0.5 / kernel_integral(a, 0.5)["value"]
        report = classify(a, 0.5, LinearConstant(0.9 * eps * np.eye(d)))
        assert report.epsilon == eps
        assert report.q < 1.0


def test_q_rotation_anchor_with_batched_propagator(monkeypatch):
    calls = []
    real = stability._propagators

    def counted(params, v, m):
        calls.append(v.tobytes())
        return real(params, v, m)

    monkeypatch.setattr(stability, "_propagators", counted)
    pert = LinearDecaying(0.2 * np.eye(2), gamma=1.0)
    q, _ = _scan(ROTATION, pert)
    assert q == pytest.approx(Q_ROTATION_DECAYING, rel=1e-10)
    # one propagator call per quadrature round, not one per point
    assert len(calls) <= 1000
    # and no lag array twice: every horizon's [0, 1] piece and every
    # polish step share their propagator stacks
    assert len(calls) == len(set(calls))


def test_q_diag3_saturating_anchor():
    sat = NonlinearSaturating(0.3, gamma=2.0)
    q = classify(np.diag([-1.0, -2.0, -3.0]), 0.5, sat).q
    assert q == pytest.approx(Q_DIAG3_SATURATING, rel=1e-10)


def test_golden_max_finds_an_interior_peak():
    calls = []

    def f(t):
        calls.append(t)
        return -((t - 1.3) ** 2)

    xtol = 1e-4
    # the q-scan polish bracket [t/2, 2t] with xtol = t * 1e-4, at t = 1
    best = stability._golden_max(f, 0.5, 2.0, xtol)
    assert best <= 0.0
    assert best >= -(xtol ** 2)  # f changes by at most xtol**2 within xtol of 1.3
    assert len(calls) <= 25
    assert all(0.5 <= t <= 2.0 for t in calls)


def test_golden_max_finds_a_peak_at_either_end():
    xtol = 1e-4
    # slope 1, so f changes by xtol over xtol
    assert stability._golden_max(lambda t: t, 1.0, 3.0, xtol) >= 3.0 - xtol
    assert stability._golden_max(lambda t: -t, 1.0, 3.0, xtol) >= -1.0 - xtol


def test_classify_rejects_unknown_norm_as_domain_error():
    with pytest.raises(DomainError):
        classify(A_NEG, 0.5, LinearConstant(np.array([[0.5]])), norm="l2")


@pytest.mark.parametrize(
    "kind, verdict",
    [
        (LinearConstant, "RobustStable"),
        (lambda q: LinearDecaying(q, 1.0), "DecayingStable"),
        (lambda q: LinearTable([0.0, 1.0], [q, 0.5 * q]), "RobustStable"),
    ],
    ids=["constant", "decaying", "table"],
)
def test_linear_kind_of_another_size_is_a_domain_error(kind, verdict):
    # a 3x3 kind on a 2x2 system is rejected by every entry point that
    # takes a kind; the 2x2 kind keeps its verdict and runs through them
    grid = uniform_grid(5.0, 16)
    x0 = np.array([1.0, -0.5])
    linear = solve_linear_exact(0.5, A_DIAG, x0, grid)
    calls = [
        lambda p: classify(A_DIAG, 0.5, p),
        lambda p: beta_norm_certificate(A_DIAG, 0.5, p, CERT_GRID),
        lambda p: lyapunov_perron_iterate(0.5, A_DIAG, p, x0, grid),
        lambda p: residual_check(linear, 0.5, A_DIAG, p),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=r"shape \(3, 3\), expected \(2, 2\)"):
            call(kind(0.1 * np.eye(3)))
    matching = kind(0.1 * np.eye(2))
    assert classify(A_DIAG, 0.5, matching).verdict == verdict
    lp = lyapunov_perron_iterate(0.5, A_DIAG, matching, x0, grid)
    assert residual_check(lp, 0.5, A_DIAG, matching) < 1e-9


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_epsilon_scalar_scaling(lam, alpha):
    assert classify(np.array([[-lam]]), alpha).epsilon == pytest.approx(
        lam / 2.0, rel=1e-3
    )


def test_epsilon_rotation_value():
    assert classify(ROTATION, 0.5).epsilon == pytest.approx(0.22512, abs=5e-4)


def test_epsilon_rejects_sector_violation():
    assert classify(A_POS, 0.5).epsilon is None
    with pytest.raises(SectorViolationError):
        kernel_integral(A_POS, 0.5)


def test_delta_values():
    # delta is for a unit target ball; a ball of radius r takes r * delta
    assert classify(A_NEG, 0.5).delta == pytest.approx(1.0, rel=1e-9)
    report = classify(A_NEG, 0.5, LinearConstant(np.array([[0.5]])))
    bound = stability._q_bound(report.q, report.q_error, report.sup_envelope, report.epsilon)
    want = 0.2 * (1.0 - bound) / sup_ml_norm(A_NEG, 0.5)
    assert 0.2 * report.delta == pytest.approx(want, rel=1e-9)
    assert 0.2 * report.delta == pytest.approx(0.1, abs=1e-3)
    assert classify(ROTATION, 0.5).delta == pytest.approx(
        1.0 / SUP_ROTATION_HALF, abs=1e-4
    )


def test_certificate_zero_perturbation():
    for pert in (None, LinearConstant(np.zeros((1, 1)))):
        cert = beta_norm_certificate(A_NEG, 0.5, pert, CERT_GRID)
        assert cert["contraction"] == 0.0
        assert cert["T"] == 0.0
        assert cert["M"] == pytest.approx(1.0, rel=1e-9)


def test_certificate_small_decaying_gain():
    cert = beta_norm_certificate(
        A_NEG, 0.5, LinearDecaying(np.array([[0.8]]), 2.0), CERT_GRID
    )
    assert 0.0 < cert["contraction"] <= 0.55
    assert cert["M"] == pytest.approx(1.0, rel=1e-9)
    assert cert["M_gamma"] == pytest.approx(0.8, rel=1e-6)
    assert cert["M_int"] == pytest.approx(1.0, rel=1e-6)
    # envelope 0.8/(1+t)^2 falls below 1/(5M) = 0.2 past t = 1, found at the
    # first grid node beyond
    assert cert["T"] == pytest.approx(1.125, abs=1e-12)


def test_certificate_large_decaying_gain():
    cert = beta_norm_certificate(A_NEG, 0.5, _decay3(), CERT_GRID)
    assert 0.05 < cert["contraction"] < 0.25
    assert cert["M"] == pytest.approx(3.0, rel=1e-6)
    assert cert["T"] == pytest.approx(5.75, abs=1e-12)


def test_certificate_nonlinear_envelope():
    cert = beta_norm_certificate(
        A_NEG, 0.5, NonlinearSaturating(0.8, 2.0), CERT_GRID
    )
    assert 0.0 < cert["contraction"] <= 0.55
    assert cert["T"] == pytest.approx(1.125, abs=1e-12)


def test_certificate_deterministic_under_seed():
    first = beta_norm_certificate(A_NEG, 0.5, _decay3(), CERT_GRID)
    second = beta_norm_certificate(A_NEG, 0.5, _decay3(), CERT_GRID)
    assert first == second
    other = beta_norm_certificate(A_NEG, 0.5, _decay3(), CERT_GRID)
    assert other["contraction"] <= 0.55


def test_certificate_bounds_the_rotation_operator_norm():
    # 0.0702 is the largest amplification that 20 seeded probe trajectories
    # found on this case; the operator-norm bound must not fall below it
    cert = beta_norm_certificate(
        ROTATION, 0.5, LinearDecaying(0.2 * np.eye(2), 1.0), CERT_GRID
    )
    assert 0.0702 <= cert["contraction"] <= 0.55


def test_certificate_rejects_decay_past_the_grid_horizon():
    # the envelope 50/(1+t)^2 falls below 1/(5M) = 1/250 only past t = 110,
    # beyond the grid's horizon of 40
    with pytest.raises(NoDecayError):
        beta_norm_certificate(
            A_NEG, 0.5, LinearDecaying(np.array([[50.0]]), 2.0),
            uniform_grid(40.0, 320),
        )


def test_certificate_rejects_persistent_envelope():
    with pytest.raises(NoDecayError):
        beta_norm_certificate(
            A_NEG, 0.5, LinearConstant(np.array([[10.0]])), CERT_GRID
        )


def test_certificate_requires_time_grid():
    with pytest.raises(GridError):
        beta_norm_certificate(A_NEG, 0.5, _decay3(), np.linspace(0.0, 40.0, 321))


def _sector_ok():
    return {"satisfied": True, "margin": 0.5}


def test_report_rejects_unknown_verdict():
    with pytest.raises(DomainError):
        StabilityReport(sector=_sector_ok(), verdict="Stable")


def test_report_enforces_robust_fields():
    with pytest.raises(DomainError):
        StabilityReport(sector=_sector_ok(), verdict="RobustStable")
    with pytest.raises(DomainError):
        StabilityReport(sector=_sector_ok(), verdict="RobustStable", q=1.2)
    report = StabilityReport(sector=_sector_ok(), verdict="RobustStable", q=0.7)
    assert report.q == 0.7


def test_robust_gate_counts_the_q_error(monkeypatch):
    # q itself is below 1, but q + q_error is not
    with pytest.raises(DomainError):
        StabilityReport(
            sector=_sector_ok(), verdict="RobustStable", q=0.9999999, q_error=1e-6
        )
    # sup K * kernel integral = 1.2, so only q + q_error can pass the gate
    pert = LinearConstant(np.array([[1.2]]))
    for q_error, robust in ((1e-6, False), (0.0, True)):
        monkeypatch.setattr(
            stability, "_q_scan", lambda *args, e=q_error, **kw: (0.9999999, e)
        )
        report = classify(A_NEG, 0.5, pert)
        assert (report.verdict == "RobustStable") == robust


def test_report_gates_robust_on_the_envelope_bound():
    # without q, sup K * kernel integral = sup_envelope / (2 epsilon) is the gate
    StabilityReport(
        sector=_sector_ok(), verdict="RobustStable", epsilon=0.5, sup_envelope=0.3
    )
    with pytest.raises(DomainError):
        StabilityReport(
            sector=_sector_ok(), verdict="RobustStable", epsilon=0.5, sup_envelope=1.2
        )


def test_classify_without_q_gates_on_the_envelope_bound(monkeypatch):
    # sup K * kernel integral = 0.3 bounds I(t) at every t, q or no q
    def no_scan(*args, **kw):
        raise FracstabError("scan unavailable")

    monkeypatch.setattr(stability, "_q_scan", no_scan)
    report = classify(A_NEG, 0.5, LinearConstant(np.array([[0.3]])))
    assert report.verdict == "RobustStable"
    assert report.q is None
    assert report.delta == pytest.approx(0.7, rel=1e-9)


def test_classify_delta_reads_the_certified_bound():
    # q is 0 at every horizon, and the certified bound 0.9 comes from the
    # far tail; a delta of 1 - q = 1 read q alone
    table = LinearTable([0, 1e5, 1.0001e5, 1.0002e5], [0, 0, 0.9, 0])
    report = classify(A_NEG, 0.5, table)
    assert report.verdict == "RobustStable"
    assert report.delta == pytest.approx(0.1, rel=1e-9)


def test_classify_non_normal_delta_keeps_whole_trajectories_in_the_unit_ball():
    # q 0.242 with q_error 0.333: a delta from q alone read 0.271
    a = np.array([[-1.0, 10.0], [0.0, -1.5]])
    pert = LinearConstant(0.5 * np.array([[0.05, 0.1], [0.0, 0.05]]))
    report = classify(a, 0.5, pert)
    assert report.verdict == "RobustStable"
    want = (1.0 - report.q - report.q_error) / sup_ml_norm(a, 0.5)
    assert report.delta == pytest.approx(want, rel=1e-9)
    field = lambda t, x: a @ x + pert.field(t, x)
    grid = uniform_grid(100.0, 4000)
    for direction in ((1, 0), (0, 1), (1, 1), (1, -1)):
        for sign in (1.0, -1.0):
            x0 = sign * 0.99 * report.delta * np.array(direction, dtype=float)
            assert np.max(np.abs(solve_abm(0.5, field, x0, grid).states)) < 1.0


def test_report_enforces_decay_fields():
    with pytest.raises(DomainError):
        StabilityReport(
            sector=_sector_ok(), verdict="DecayingStable", beta_contraction=0.7
        )
    StabilityReport(
        sector=_sector_ok(), verdict="DecayingStable", beta_contraction=0.4
    )


def test_report_rejects_contraction_above_one_half():
    """The contraction is a bound, so nothing above the theorem's 1/2 passes."""
    with pytest.raises(DomainError):
        StabilityReport(
            sector=_sector_ok(), verdict="DecayingStable", beta_contraction=0.52
        )
    StabilityReport(
        sector=_sector_ok(), verdict="DecayingStable", beta_contraction=0.5
    )


def test_classify_constant_gain_is_robust():
    report = classify(A_NEG, 0.5, LinearConstant(np.array([[0.5]])))
    assert report.verdict == "RobustStable"
    assert report.sector["satisfied"]
    assert report.q == pytest.approx(0.5, abs=1e-3)
    assert report.epsilon == pytest.approx(0.5, abs=1e-3)
    assert report.delta == pytest.approx(0.5, abs=1e-3)
    assert report.sup_envelope == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize(
    "pert", [LinearConstant(np.array([[0.998]])), NonlinearSaturating(0.998)], ids=["linear", "saturating"]
)
def test_classify_certifies_a_constant_gain_just_under_the_threshold(pert):
    # A + Q = -0.002: a constant envelope's far-tail bound is its limit, so
    # the scan adds no tail excess to q_error (charging all of sup K to the
    # kernel tail would add 3.1e-3 and read Inconclusive)
    report = classify(A_NEG, 0.5, pert)
    assert report.verdict == "RobustStable"
    assert report.q == pytest.approx(0.998, rel=1e-9)
    assert report.q_error < 1e-10


def test_classify_sector_violation_short_circuits():
    report = classify(A_POS, 0.5, LinearConstant(np.array([[0.5]])))
    assert report.verdict == "SectorViolated"
    assert not report.sector["satisfied"]
    assert report.q is None
    assert any("sector" in note for note in report.notes)


def test_classify_decaying_gain_prefers_decay_certificate():
    report = classify(A_NEG, 0.5, _decay3())
    assert report.verdict == "DecayingStable"
    assert report.beta_contraction is not None and report.beta_contraction <= 0.55
    assert report.t_decay == pytest.approx(5.75, abs=1e-12)
    # the contraction constant is still reported, and here it is below one
    # even though the decay certificate carried the verdict
    assert report.q == pytest.approx(Q_DECAY3, abs=5e-4)
    assert report.delta == pytest.approx(1.0 - Q_DECAY3, abs=1e-3)
    assert report.m_pair["M_gamma"] == pytest.approx(3.0, rel=1e-6)
    assert report.m_pair["M_int"] == pytest.approx(1.0, rel=1e-6)


def _abm_sup_from_delta(report, pert):
    """sup |x| over whole ABM trajectories of x' = -x + f from +-0.99 delta."""
    field = lambda t, x: -x + pert.field(t, x)
    return max(
        float(np.max(np.abs(solve_abm(0.5, field, sign * 0.99 * report.delta, DELTA_GRID).states)))
        for sign in (1.0, -1.0)
    )


def test_classify_large_decaying_gain_uses_tail_delta():
    pert = LinearDecaying(np.array([[12.0]]), 2.0)
    report = classify(A_NEG, 0.5, pert)
    assert report.verdict == "DecayingStable"
    assert report.q is not None and report.q > 1.0
    # beta(T) = E_{1/2}(5 M sqrt(T)) with T near 26 is far past the doubles,
    # so the delta of the weighted-norm bound underflows; the post-decay tail
    # bound alone gave 0.8, which trajectories break by 13 orders
    assert report.delta == 0.0
    assert any("delta underflows" in note for note in report.notes)
    assert _abm_sup_from_delta(report, pert) < 1.0


@pytest.mark.parametrize(
    "pert",
    [
        LinearTable([0.0, 1.0, 1.5], [[[2.0]], [[2.0]], [[0.0]]]),
        LinearTable([0.0, 2.0, 2.5], [[[3.0]], [[3.0]], [[0.0]]]),
        LinearTable([0.0, 5.0, 6.0], [[[3.0]], [[3.0]], [[0.0]]]),
        LinearDecaying(np.array([[12.0]]), 2.0),
    ],
    ids=["table-1.5", "table-2.5", "table-6", "decaying-12"],
)
def test_decaying_delta_keeps_whole_trajectories_in_the_unit_ball(pert):
    report = classify(A_NEG, 0.5, pert)
    assert report.verdict == "DecayingStable"
    assert report.q > 1.0
    assert report.delta >= 0.0
    assert _abm_sup_from_delta(report, pert) < 1.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: comparison-equation delta")
@pytest.mark.parametrize(
    "pert",
    [
        LinearTable([0.0, 1.0, 1.5], [[[2.0]], [[2.0]], [[0.0]]]),
        LinearTable([0.0, 2.0, 2.5], [[[3.0]], [[3.0]], [[0.0]]]),
        LinearTable([0.0, 5.0, 6.0], [[[3.0]], [[3.0]], [[0.0]]]),
        LinearDecaying(np.array([[12.0]]), 2.0),
    ],
    ids=["table-1.5", "table-2.5", "table-6", "decaying-12"],
)
def test_decaying_delta_is_not_vacuous(pert):
    # the weighted-norm delta carries beta(T): 2.9e-66, 2.1e-245, 0 and 0
    # here, so an ABM check from 0.99 delta starts at or next to 0
    assert classify(A_NEG, 0.5, pert).delta >= 1e-3


def test_decaying_delta_is_the_weighted_norm_bound():
    # delta = (1 - c) / (sup ||E_alpha|| beta(T)) with beta = E_{1/2}(5 M t^{1/2})
    # frozen at T; sup ||E_{1/2}(-t^{1/2})|| = 1
    report = classify(A_NEG, 0.5, LinearTable([0.0, 1.0, 1.5], [[[2.0]], [[2.0]], [[0.0]]]))
    big_m = max(1.0, report.m_pair["M_gamma"], report.m_pair["M_int"])
    beta_t = ml(MLParams(0.5, 1.0), 5.0 * big_m * math.sqrt(report.t_decay)).real
    want = (1.0 - report.beta_contraction) / beta_t
    assert report.delta == pytest.approx(want, rel=1e-9)


def test_classify_unperturbed_system():
    report = classify(A_NEG, 0.5)
    assert report.verdict == "RobustStable"
    assert report.q == 0.0
    assert report.delta == pytest.approx(1.0, rel=1e-9)


def test_classify_nonlinear_kinds():
    decaying = classify(A_NEG, 0.5, NonlinearSaturating(0.3, 2.0))
    assert decaying.verdict == "DecayingStable"
    constant = classify(A_NEG, 0.5, NonlinearSaturating(0.4, 0.0))
    assert constant.verdict == "RobustStable"
    assert constant.q == pytest.approx(0.4, abs=1e-3)
    assert not any("uniform threshold" in note for note in constant.notes)


def test_classify_inconclusive_settling_envelope():
    # settles at 0.45, below the threshold 0.5, but the contraction constant
    # exceeds one and the decay machinery needs a vanishing envelope
    table = LinearTable(
        np.array([0.0, 5.0]), np.array([[[8.0]], [[0.45]]])
    )
    report = classify(A_NEG, 0.5, table)
    assert report.verdict == "Inconclusive"
    assert report.q is not None and report.q > 1.0
    assert any("not an instability claim" in note for note in report.notes)
    assert any("decay certificate unavailable" in note for note in report.notes)
    assert any("uniform threshold" in note for note in report.notes)


@pytest.mark.parametrize(
    "pert, verdict, runs",
    [
        (_decay3(), "DecayingStable", 1),
        (LinearConstant(np.array([[0.5]])), "RobustStable", 0),
        (LinearTable(np.array([0.0, 5.0]), np.array([[[8.0]], [[0.45]]])), "Inconclusive", 1),
    ],
    ids=["decaying", "q-passes-constant", "fallback"],
)
def test_classify_runs_the_decay_certificate_only_when_it_can_decide(monkeypatch, pert, verdict, runs):
    # a vanishing envelope runs it first; otherwise it runs only when
    # the contraction bound fails
    calls = []
    real = stability._beta_norm_core

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(stability, "_beta_norm_core", counted)
    assert classify(A_NEG, 0.5, pert).verdict == verdict
    assert len(calls) == runs


def test_classify_decomposes_the_matrix_once():
    matfun._decompose.cache_clear()
    classify(ROTATION, 0.5, LinearDecaying(0.2 * np.eye(2), gamma=1.0))
    info = matfun._decompose.cache_info()
    assert info.misses == 1 and info.hits > 0


def test_classify_sees_a_table_peak_between_envelope_samples():
    # 0 at two neighbouring envelope sample times and 6 at their geometric
    # midpoint: the sup sits at a table time, not at a sample time
    samples = np.geomspace(1e-3, 1e6, 200)
    lo, hi = samples[100], samples[101]
    table = LinearTable(
        np.array([lo, math.sqrt(lo * hi), hi]),
        np.array([[[0.0]], [[6.0]], [[0.0]]]),
    )
    report = classify(A_NEG, 0.5, table)
    assert report.sup_envelope == 6.0
    assert report.q > 0.0


def test_q_scan_splits_lag_integrals_at_the_knots():
    # a bump 0.1 wide at t = 10: unsplit lag integrals miss it between their
    # quadrature nodes and read q = 0; a 400k-node trapezoid puts sup I(t)
    # at 0.970 near t = 10.075
    table = LinearTable([0, 10.01, 10.06, 10.11], [0, 0, 6, 0])
    report = classify(A_NEG, 0.5, table)
    assert report.q + report.q_error >= 0.970


def test_q_scan_knot_cuts_share_one_integral(monkeypatch):
    # 200 knots cut each lag integral into up to 202 pieces; as one adaptive
    # integral each round is one propagator call for all of them
    calls = []
    real = stability._propagators

    def counted(params, v, m):
        calls.append(1)
        return real(params, v, m)

    monkeypatch.setattr(stability, "_propagators", counted)
    ts = np.linspace(0.0, 100.0, 200)
    q, _ = _scan(A_NEG, LinearTable(ts, 0.3 + 0.2 * np.sin(ts)))
    assert len(calls) <= 200
    assert q == pytest.approx(0.38750817378868796, rel=1e-10)


def test_q_scan_evaluates_each_lag_once_per_scan(monkeypatch):
    # all 23 horizons advance in lockstep, one propagator call per round,
    # and the per-node propagator table serves every horizon and the
    # polish: no lag reaches the table's propagator calls twice.  The decay
    # certificate's evaluation times share one such table
    lags = []
    real = stability._propagators

    def counted(params, v, m):
        lags.append(v.copy())
        return real(params, v, m)

    monkeypatch.setattr(stability, "_propagators", counted)
    pert = LinearDecaying(0.2 * np.eye(2), gamma=1.0)
    _scan(ROTATION, pert)
    every = np.concatenate(lags)
    assert len(lags) <= 45
    assert np.unique(every).size == every.size

    lags.clear()
    beta_norm_certificate(ROTATION, 0.5, pert, CERT_GRID)
    every = np.concatenate(lags)
    assert np.unique(every).size == every.size


def test_classify_ml_points_per_rotation_case(monkeypatch):
    # the q-scan and the decay certificate integrate through one routine
    # whose dyadic cuts repeat panels across horizons and evaluation times:
    # 12,344 points in all propagator calls of a classify, where a fixed
    # 501-node rule per evaluation time needs over 40,000
    points = []
    real = matfun._propagators

    def counted(params, v, m):
        points.append(v.size)
        return real(params, v, m)

    monkeypatch.setattr(matfun, "_propagators", counted)
    monkeypatch.setattr(stability, "_propagators", counted)
    report = classify(ROTATION, 0.5, LinearDecaying(0.2 * np.eye(2), gamma=1.0))
    assert report.verdict == "DecayingStable"
    assert sum(points) <= 20000


def test_classify_contour_integrand_calls_per_rotation_case(monkeypatch):
    """Each contour level is one pass over a call's pending points: 162
    integrand calls over 702,456 nodes per rotation-decaying classify,
    where 64-point chunks took 499 calls over the same nodes."""
    calls = []
    integrand = special_fn._contour_integrand

    def counted(*args):
        out = integrand(*args)
        calls.append(out.size)
        return out

    monkeypatch.setattr(special_fn, "_contour_integrand", counted)
    report = classify(ROTATION, 0.5, LinearDecaying(0.2 * np.eye(2), gamma=1.0))
    assert report.verdict == "DecayingStable"
    assert len(calls) <= 243


def test_classify_rule_passes_per_rotation_case(monkeypatch):
    """Each refinement round of the lag integrals is one Gauss-Kronrod rule
    pass over the open panels of every time: 94 passes per
    rotation-decaying classify, where one pass per time and round took 667."""
    calls = []
    rule = quad._gk21_rule

    def counted(fx, half):
        calls.append(fx.shape[0])
        return rule(fx, half)

    monkeypatch.setattr(quad, "_gk21_rule", counted)
    report = classify(ROTATION, 0.5, LinearDecaying(0.2 * np.eye(2), gamma=1.0))
    assert report.verdict == "DecayingStable"
    assert len(calls) <= 120


@pytest.mark.parametrize(
    "a, pert, ml_calls, rule_passes",
    [
        (ROTATION, LinearDecaying(0.2 * np.eye(2), gamma=1.0), 44, 28),
        (np.diag([-1.0, -2.0, -3.0]), NonlinearSaturating(0.3, gamma=2.0), 37, 27),
    ],
    ids=["rotation-decaying", "diag3-saturating"],
)
def test_classify_counts_on_the_bench_certify_cases(monkeypatch, a, pert, ml_calls, rule_passes):
    # the lag integrals and the kernel integral start cut at the propagator's
    # norm kinks and at the octaves of both algebraic ends, and one table
    # serves the q-scan and the decay certificate: 76 and 58 propagator
    # calls and 94 and 50 rule passes before, 44, 37, 28 and 27 after
    calls = []
    real_ml, real_rule = matfun._propagators, quad._gk21_rule

    def counted_ml(params, v, m):
        calls.append("ml")
        return real_ml(params, v, m)

    def counted_rule(fx, half):
        calls.append("rule")
        return real_rule(fx, half)

    monkeypatch.setattr(matfun, "_propagators", counted_ml)
    monkeypatch.setattr(stability, "_propagators", counted_ml)
    monkeypatch.setattr(quad, "_gk21_rule", counted_rule)
    assert classify(a, 0.5, pert).verdict == "DecayingStable"
    assert calls.count("ml") <= ml_calls
    assert calls.count("rule") <= rule_passes


@pytest.mark.parametrize(
    "a, pert",
    [
        (ROTATION, LinearDecaying(0.2 * np.eye(2), gamma=1.0)),
        (np.diag([-1.0, -2.0, -3.0]), NonlinearSaturating(0.3, gamma=2.0)),
        (A_NEG, LinearTable([0, 3.9, 4, 4.1, 10, 10.5, 11], [0.01, 0.01, 1, 0.01, 0.01, 6, 0.01])),
    ],
    ids=["rotation-decaying", "diag3-saturating", "table-knots"],
)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_lag_integrals_give_each_time_what_it_gets_alone(a, pert, weighted):
    # the times share one rule pass per round and one propagator table, yet
    # each integral is bit for bit the one a fresh table gives its time alone
    args = (a, 0.5, "max", pert)
    if weighted:
        extra = (stability._CERT_TOL, lambda taus: 2.0 * np.sqrt(taus), 10.0)
    else:
        extra = (stability._Q_TOL,)
    ts = [0.3, 1.0, 4.05, 10.5, 17.0, 40.0]
    together = stability._lag_integrals(*args)(ts, *extra)
    for t, got in zip(ts, together):
        alone = stability._lag_integrals(*args)([t], *extra)[0]
        assert np.array(alone).tobytes() == np.array(got).tobytes()


@pytest.mark.parametrize(
    "times, values",
    [
        ([0, 10.01, 10.06, 10.11], [0, 0, 6, 0]),
        ([0, 3.9, 4, 4.1, 10, 10.5, 11], [0.01, 0.01, 1, 0.01, 0.01, 6, 0.01]),
    ],
    ids=["between-nodes", "between-horizons"],
)
def test_certificate_evaluates_at_every_knot_and_at_the_decay_time(times, values):
    # a dense scan over 6,000 evaluation times puts the weighted contraction
    # at 0.1918 (t = 10.0602) and 0.1933 (the knot 10.5); base evaluation
    # times every eighth of a unit missed both peaks and read about 0.15
    cert = beta_norm_certificate(A_NEG, 0.5, LinearTable(times, values), CERT_GRID)
    assert cert["contraction"] >= 0.19


def test_certificate_decay_time_sees_a_knot_past_the_horizon():
    # the envelope is 6 on [41, 1000], past the grid horizon 40: T cannot
    # be a grid node, so there is no decay certificate and no false
    # DecayingStable
    table = LinearTable([0, 40, 41, 1000, 1001], [0, 0, 6, 6, 0])
    with pytest.raises(NoDecayError):
        beta_norm_certificate(A_NEG, 0.5, table, CERT_GRID)
    report = classify(A_NEG, 0.5, table)
    assert report.verdict == "Inconclusive"
    assert report.t_decay is None


def test_certificate_decay_time_sees_a_knot_between_grid_nodes():
    # the bump peaks at the knot 10.06, between the grid nodes 10 and
    # 10.125 where the envelope reads 0: T is the node after the knot
    table = LinearTable([0, 10.01, 10.06, 10.11], [0, 0, 6, 0])
    cert = beta_norm_certificate(A_NEG, 0.5, table, CERT_GRID)
    assert cert["T"] == 10.125
    assert cert["contraction"] > 0.15
    report = classify(A_NEG, 0.5, table)
    assert report.verdict == "DecayingStable"
    assert report.t_decay == 10.125
    # delta still comes from q
    assert report.delta == pytest.approx(0.027710413417546098, rel=1e-9)


def test_classify_jordan_block_delta_keeps_whole_trajectories_in_the_unit_ball():
    # the Jordan block is one cluster; the declared-structure path it
    # replaces gave the same verdict, q 0.1000 and delta 0.900
    jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
    pert = LinearConstant(0.05 * np.eye(2))
    report = classify(jordan, 0.5, pert)
    assert report.verdict == "RobustStable"
    assert report.q == pytest.approx(0.1, abs=1e-9)
    assert report.delta == pytest.approx(0.9, abs=1e-9)
    field = lambda t, x: jordan @ x + pert.field(t, x)
    grid = uniform_grid(20.0, 4000)
    for direction in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]):
        for sign in (1.0, -1.0):
            x0 = sign * 0.99 * report.delta * np.array(direction)
            states = solve_abm(0.5, field, x0, grid).states
            assert np.max(np.abs(states)) < 1.0


@pytest.mark.parametrize("eps", [1e-6, 1e-4])
def test_classify_near_defective_matrix_gets_a_verdict(eps):
    # both raised the imaginary-truncation signal on the eigenvector basis
    a = np.array([[-1.0, 10.0], [0.0, -1.0 - eps]])
    report = classify(a, 0.5, LinearConstant(0.05 * np.eye(2)))
    assert report.verdict.endswith("Stable")


def test_classify_wide_clusters_get_a_verdict():
    # a 0.9%-spaced diagonal chain (the Taylor sum of its cluster stops
    # converging from t = 1.7 at beta = alpha) and a normal matrix with two
    # conjugate pairs 0.6% apart near the alpha = 1/2 sector edge
    chain = np.diag([-1.0, -1.009, -1.018])
    report = classify(chain, 0.5, LinearConstant(0.05 * np.eye(3)))
    assert report.verdict == "RobustStable"
    # diagonal A: the kernel integral is 1/min|lambda| = 1
    assert report.q == pytest.approx(0.05, abs=1e-9)
    lams = (0.5 + 1.0j, 0.503 + 1.006j)
    q, _ = np.linalg.qr(np.random.default_rng(18).standard_normal((4, 4)))
    blocks = np.zeros((4, 4))
    for k, lam in enumerate(lams):
        blocks[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[lam.real, lam.imag], [-lam.imag, lam.real]]
    report = classify(q @ blocks @ q.T, 0.5, LinearConstant(0.05 * np.eye(4)))
    assert report.verdict.endswith("Stable")


def test_classify_cluster_about_a_growing_mean_gets_a_verdict():
    # a stable, normal system whose pair (|arg| 32 degrees, outside the
    # 27-degree sector) the floor joins into a cluster about +0.00357: the
    # Taylor sum about that mean overflowed in kernel_integral
    a = np.array([[0.00357, 0.002225, 0.0], [-0.002225, 0.00357, 0.0], [0.0, 0.0, -242.0]])
    report = classify(a, 0.3, LinearConstant(1e-6 * np.eye(3)))
    assert report.verdict == "RobustStable"


# a non-normal pair whose propagator peaks near 10; s B runs on the time
# scale s^(-1/alpha)
PAIR_B = np.array([[-1.0, 50.0], [0.0, -2.0]])


def test_classify_does_not_certify_a_fast_unstable_system():
    # A + Q has eigenvalues +1e8 and +2e8.  A kernel integral over a window
    # fixed in absolute time read 9.5e-13 (epsilon 5.3e11) against the true
    # 26/1e8 (epsilon 1.9e6), and certified UniformSmallStable
    report = classify(1e8 * PAIR_B, 0.5, LinearConstant(3e8 * np.eye(2)))
    assert not report.verdict.endswith("Stable")
    assert report.epsilon == pytest.approx(0.5 / 26.0 * 1e8, rel=1e-6)


@pytest.mark.parametrize(
    "pert, floor",
    [
        (LinearDecaying(1.5e18 * np.eye(2), 1.0), 1.48),
        (NonlinearSaturating(1.5e18, 1.0), 1.48),
        (LinearDecaying(0.5e18 * np.eye(2), 1.0), 0.49),
    ],
    ids=["decaying", "saturating", "decaying-0.5"],
)
def test_classify_reads_q_of_a_fast_scale_in_its_own_units(pert, floor):
    # q is the scale-free 1.4884 (0.4961 for the 0.5 gain).  For t < 1 and
    # the 1.5 gain, A + Q(t) is about diag(0.5e18, -0.5e18): unstable.  The
    # kernel's mass sits at v = s^alpha of about 1e-9, and lag spans that
    # started cut at v = 1, 2, 4, ... saw only its tail and read q = 1.3e-14
    report = classify(1e18 * A_DIAG, 0.5, pert)
    assert report.q + report.q_error >= floor
    assert report.verdict.endswith("Stable") == (floor < 1.0)


def test_classify_scales_up_to_the_double_range():
    # a time scale of 2.5e-301 gets a verdict; sizing the kink grid from the
    # ratio 2^17 / (1e-3 fast) overflowed into a builtin OverflowError
    report = classify(1e150 * A_DIAG, 0.5, LinearDecaying(0.5e150 * np.eye(2), 1.0))
    assert report.verdict == "RobustStable"
    # at alpha = 0.1 the lag nodes near v = 1e-33 sit at times below the
    # least subnormal; turned back into t = v^(1/alpha) they read t = 0, and
    # the q-scan ran to its panel budget with q_error 1.2e-6.  The 1e28
    # system, clear of that, reads q = 0.4961237396721981
    report = classify(1e30 * A_DIAG, 0.1, LinearDecaying(0.5e30 * np.eye(2), 1.0))
    assert report.q_error < 1e-12
    assert report.q == pytest.approx(0.4961237396721981, rel=1e-12)
    # 1e-3 fast = 9.8e-317 is subnormal: no window of the kernel quantities fits
    with pytest.raises(FracstabError):
        classify(1e31 * A_DIAG, 0.1, LinearDecaying(0.5e31 * np.eye(2), 1.0))


def test_classify_does_not_certify_an_equal_norm_table():
    # both table nodes have norm 1, so the envelope is the constant 1, but Q
    # moves from the slow direction to the fast one: I(t) reaches 3.18
    # against a t -> infinity value of 0.1, which was once reported as q
    # with q_error 0, delta 0.9 and RobustStable
    a = np.diag([-0.1, -10.0])
    table = LinearTable([0.0, 100.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    report = classify(a, 0.5, table)
    assert not report.verdict.endswith("Stable")
    assert report.q + report.q_error >= 1.0
    # why: from 0.99 of that delta along e1 the slow direction grows
    # under Q = diag(1, 0) until t = 100
    field = lambda t, x: a @ x + table.field(t, x)
    states = solve_abm(0.5, field, np.array([0.99 * 0.9, 0.0]), uniform_grid(150.0, 1500)).states
    assert np.max(np.abs(states)) > 1e9


@pytest.mark.parametrize(
    "pert",
    [
        LinearTable([0.0, 1e5, 1.0001e5, 1.0002e5], np.array([0.0, 0.0, 6.0, 0.0])[:, None, None]),
        NonlinearTable([0.0, 1e5, 1.0001e5, 1.0002e5], [0.0, 0.0, 6.0, 0.0]),
    ],
    ids=["linear", "nonlinear"],
)
def test_classify_does_not_certify_a_bump_past_the_last_horizon(pert):
    # every horizon up to 2^16 sees K = 0 and so does the single sample
    # K(2^15) the far tail once read, which gave q 0, q_error 0 and
    # RobustStable; the envelope's sup past 2^15 is 6
    report = classify(A_NEG, 0.5, pert)
    assert not report.verdict.endswith("Stable")
    assert report.q + report.q_error >= 1.0


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: the q-scan misses the sup between horizons"
)
def test_classify_does_not_certify_a_peak_between_horizons():
    # the bump of 6 on [10, 11] puts sup I(t) near t = 10.577, between the
    # horizons 8 and 16, where I reads 2.2785; the scan reports q 0.2199
    # with q_error 2.2e-15, and sup K * kernel integral = 6 is no help
    table = LinearTable(
        [0, 3.9, 4, 4.1, 10, 10.5, 11], [0.01, 0.01, 1, 0.01, 0.01, 6, 0.01]
    )
    integrate = stability._lag_integrals(A_NEG, 0.5, "max", table)
    peak = integrate([10.577], stability._Q_TOL)[0][0]
    report = classify(A_NEG, 0.5, table)
    assert report.q + report.q_error >= peak
    assert report.verdict != "RobustStable"


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: the q-scan's horizons are absolute times"
)
def test_classify_finds_the_peak_of_a_slow_system():
    # on [[-1e-4]] the lag integral peaks near t = 6.3e7, where I reads
    # 0.64494; no horizon reaches it, and the scan reports q 0.2483 with
    # q_error 9.02
    a = np.array([[-1e-4]])
    pert = LinearDecaying([[0.01]], 0.25)
    integrate = stability._lag_integrals(a, 0.5, "max", pert)
    peak = integrate([6.31e7], stability._Q_TOL)[0][0]
    report = classify(a, 0.5, pert)
    assert report.q >= peak - 1e-9
    assert report.q_error <= 0.01


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: the product-mode far tail charges ||E|| K"
)
def test_classify_certifies_a_settled_product_gain():
    # a constant Q makes I(t) rise to its limit, so q 0.96580 is exact; the
    # far tail bounds ||E Q|| by ||E|| K and adds q_error 0.03944
    pert = LinearConstant(3.0 * np.array([[0.1, 0.3], [0.05, 0.1]]))
    assert classify(A_DIAG, 0.5, pert, norm="euclidean").verdict == "RobustStable"


@pytest.mark.parametrize(
    "a, grid",
    [
        (0.01 * PAIR_B, uniform_grid(12000.0, 1500)),
        (1000.0 * PAIR_B, graded_grid(1e-4, 4000, 2.0)),
    ],
    ids=["slow", "fast"],
)
def test_classify_delta_keeps_a_scaled_hump_in_the_unit_ball(a, grid):
    # the same non-normal pair on two time scales; a sup_ml_norm window
    # fixed in absolute time missed the hump of 10, and delta 0.171
    # (slow) or 0.90 (fast) let ABM reach 1.70 or 8.98
    pert = LinearConstant(0.1 / kernel_integral(a, 0.5)["value"] * np.eye(2))
    report = classify(a, 0.5, pert)
    assert report.verdict == "RobustStable"
    assert report.delta == pytest.approx(0.9 / sup_ml_norm(PAIR_B, 0.5), rel=1e-6)
    field = lambda t, x: a @ x + pert.field(t, x)
    states = solve_abm(0.5, field, 0.99 * report.delta * np.array([1.0, 1.0]), grid).states
    assert np.max(np.abs(states)) < 1.0


def test_classify_report_is_json_safe():
    import json

    report = classify(A_NEG, 0.5, _decay3())
    payload = {
        "sector": report.sector,
        "verdict": report.verdict,
        "q": report.q,
        "epsilon": report.epsilon,
        "delta": report.delta,
        "m_pair": report.m_pair,
        "sup_envelope": report.sup_envelope,
        "notes": list(report.notes),
    }
    assert isinstance(json.dumps(payload), str)


def test_boundedness_stable_diagonal():
    grid = uniform_grid(200.0, 800)
    out = boundedness_probe(lambda t: A_DIAG, 0.5, grid)
    assert out["per_basis_bounded"] == [True, True]
    assert out["inferred_stable"]
    assert all(s == pytest.approx(1.0, rel=1e-9) for s in out["sup_norms"])


def test_boundedness_unstable_scalar():
    grid = uniform_grid(200.0, 800)
    out = boundedness_probe(lambda t: A_POS, 0.5, grid)
    assert out["per_basis_bounded"] == [False]
    assert not out["inferred_stable"]
    assert out["sup_norms"][0] > 1e10


def test_boundedness_reports_numerical_blowup():
    # h = 0.5 puts the stiff eigenvalue outside the corrector's stability
    # region; the probe reports the divergence it actually observed
    grid = uniform_grid(200.0, 400)
    out = boundedness_probe(lambda t: A_DIAG, 0.5, grid)
    assert out["per_basis_bounded"] == [True, False]
    assert not out["inferred_stable"]


def test_boundedness_overflow_is_a_note_not_a_warning():
    # the state overflows within a few steps: the probe marks the basis
    # unbounded with a note, and numpy prints no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = boundedness_probe(lambda t: np.array([[1e300]]), 0.5, uniform_grid(200.0, 800))
    assert out["per_basis_bounded"] == [False]
    assert "solver failed" in out["notes"][0]


def test_boundedness_cross_checks_classification():
    grid = uniform_grid(200.0, 800)
    out = boundedness_probe(
        lambda t: np.array([[-1.0 + 0.3 / (1.0 + t) ** 2]]), 0.5, grid
    )
    assert out["per_basis_bounded"] == [True]
    assert out["inferred_stable"]
    report = classify(A_NEG, 0.5, LinearDecaying(np.array([[0.3]]), 2.0))
    assert report.verdict == "DecayingStable"


def test_boundedness_rejects_bad_inputs():
    with pytest.raises(GridError):
        boundedness_probe(lambda t: A_DIAG, 0.5, uniform_grid(50.0, 100))
    with pytest.raises(GridError):
        boundedness_probe(lambda t: A_DIAG, 0.5, np.linspace(0.0, 200.0, 401))
    with pytest.raises(DomainError):
        boundedness_probe(A_DIAG, 0.5, uniform_grid(200.0, 800))
