"""Tests for the stability certificates and the classification report."""

import math

import numpy as np
import pytest

from fracstab import stability
from fracstab.errors import (
    DomainError,
    GridError,
    NoDecayError,
    SectorViolationError,
)
from fracstab.quad import uniform_grid
from fracstab.solver import (
    LinearConstant,
    LinearDecaying,
    LinearTable,
    NonlinearSaturating,
    NoPerturbation,
)
from fracstab.stability import (
    StabilityReport,
    beta_norm_certificate,
    boundedness_probe,
    classify,
    compute_q_linear,
    compute_q_nonlinear,
    delta_of_epsilon,
    epsilon_threshold,
)

A_NEG = np.array([[-1.0]])
A_POS = np.array([[1.0]])
A_DIAG = np.diag([-1.0, -2.0])
ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
CERT_GRID = uniform_grid(40.0, 320)

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


def test_q_zero_perturbations():
    assert compute_q_linear(A_NEG, 0.5, NoPerturbation()) == 0.0
    assert compute_q_linear(A_NEG, 0.5, LinearConstant(np.zeros((1, 1)))) == 0.0


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_q_constant_scaling_law(lam, alpha):
    # for a scalar system the contraction constant is gain / |eigenvalue|,
    # independent of the order
    q = compute_q_linear(
        np.array([[-lam]]), alpha, LinearConstant(np.array([[0.3]]))
    )
    assert q == pytest.approx(0.3 / lam, abs=1e-3)


def test_q_constant_monotone_in_gain():
    qs = [
        compute_q_linear(A_NEG, 0.5, LinearConstant(np.array([[c]])))
        for c in (0.2, 0.5, 0.8)
    ]
    assert qs[0] < qs[1] < qs[2]
    assert qs[1] == pytest.approx(0.5, abs=1e-3)


def test_q_decaying_envelope():
    q = compute_q_linear(A_NEG, 0.5, _decay3())
    assert q == pytest.approx(Q_DECAY3, abs=5e-4)
    q_slow = compute_q_linear(A_NEG, 0.5, LinearDecaying(np.array([[0.4]]), 1.0))
    assert 0.05 < q_slow < 0.4


def test_q_modes_agree_for_scalar_systems():
    qp = compute_q_linear(A_NEG, 0.5, _decay3(), mode="product")
    qb = compute_q_linear(A_NEG, 0.5, _decay3(), mode="bound")
    assert qp == pytest.approx(qb, rel=1e-9)


def test_q_bound_mode_majorizes_product():
    mixed = LinearConstant(np.array([[0.1, 0.05], [0.2, 0.3]]))
    qp = compute_q_linear(A_DIAG, 0.5, mixed, mode="product")
    qb = compute_q_linear(A_DIAG, 0.5, mixed, mode="bound")
    assert qp == pytest.approx(Q_MIXED_PRODUCT, abs=2e-3)
    assert qb == pytest.approx(0.5, abs=1e-3)
    assert qp < qb


def test_q_rejects_bad_inputs():
    with pytest.raises(DomainError):
        compute_q_linear(A_NEG, 0.5, _decay3(), mode="tight")
    with pytest.raises(DomainError):
        compute_q_linear(A_NEG, 0.5, NonlinearSaturating(0.3))


def test_q_nonlinear_constant_envelope():
    assert compute_q_nonlinear(A_NEG, 0.5, lambda t: 0.7) == pytest.approx(
        0.7, abs=1e-3
    )
    assert compute_q_nonlinear(A_DIAG, 0.5, lambda t: 0.5) == pytest.approx(
        0.5, abs=1e-3
    )


def test_q_nonlinear_decaying_envelope():
    q = compute_q_nonlinear(A_NEG, 0.5, lambda t: 0.5 / (1.0 + t))
    assert 0.0 < q < 0.5


def test_q_nonlinear_rejects_bad_envelopes():
    with pytest.raises(DomainError):
        compute_q_nonlinear(A_NEG, 0.5, 0.3)
    with pytest.raises(DomainError):
        compute_q_nonlinear(A_NEG, 0.5, lambda t: -1.0)
    with pytest.raises(DomainError):
        compute_q_nonlinear(A_NEG, 0.5, lambda t: math.nan)


def test_q_below_one_for_gains_under_threshold():
    # a constant gain strictly below the uniform threshold always yields a
    # contraction constant below one, for any stable system
    rng = np.random.default_rng(20240813)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        b = rng.standard_normal((d, d))
        shift = max(np.real(np.linalg.eigvals(b))) + 0.5
        a = b - shift * np.eye(d)
        eps = epsilon_threshold(a, 0.5)
        q = compute_q_linear(a, 0.5, LinearConstant(0.9 * eps * np.eye(d)))
        assert q < 1.0


def test_q_rotation_anchor_with_batched_propagator(monkeypatch):
    calls = []
    real = stability.ml_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(stability, "ml_matrix", counted)
    pert = LinearDecaying(0.2 * np.eye(2), gamma=1.0)
    q = compute_q_linear(ROTATION, 0.5, pert)
    assert q == pytest.approx(Q_ROTATION_DECAYING, rel=1e-10)
    # one propagator call per quadrature round, not one per point
    assert len(calls) <= 1000


def test_q_diag3_saturating_anchor():
    sat = NonlinearSaturating(0.3, gamma=2.0)
    q = compute_q_nonlinear(
        np.diag([-1.0, -2.0, -3.0]), 0.5, lambda t: sat.envelope(t, "max")
    )
    assert q == pytest.approx(Q_DIAG3_SATURATING, rel=1e-10)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_epsilon_scalar_scaling(lam, alpha):
    assert epsilon_threshold(np.array([[-lam]]), alpha) == pytest.approx(
        lam / 2.0, rel=1e-3
    )


def test_epsilon_rotation_value():
    assert epsilon_threshold(ROTATION, 0.5) == pytest.approx(0.22512, abs=5e-4)


def test_epsilon_rejects_sector_violation():
    with pytest.raises(SectorViolationError):
        epsilon_threshold(A_POS, 0.5)


def test_delta_values():
    assert delta_of_epsilon(0.0, 1.0, A_NEG, 0.5) == pytest.approx(1.0, rel=1e-9)
    assert delta_of_epsilon(0.5, 0.2, A_NEG, 0.5) == pytest.approx(0.1, rel=1e-9)
    assert delta_of_epsilon(0.0, 1.0, ROTATION, 0.5) == pytest.approx(
        1.0 / SUP_ROTATION_HALF, abs=1e-4
    )


def test_delta_rejects_bad_inputs():
    for bad_q in (1.0, 1.5, -0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            delta_of_epsilon(bad_q, 1.0, A_NEG, 0.5)
    with pytest.raises(DomainError):
        delta_of_epsilon(0.5, 0.0, A_NEG, 0.5)


def test_certificate_zero_perturbation():
    for pert in (NoPerturbation(), LinearConstant(np.zeros((1, 1)))):
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
    first = beta_norm_certificate(A_NEG, 0.5, _decay3(), CERT_GRID, seed=7)
    second = beta_norm_certificate(A_NEG, 0.5, _decay3(), CERT_GRID, seed=7)
    assert first == second
    other = beta_norm_certificate(A_NEG, 0.5, _decay3(), CERT_GRID, seed=8)
    assert other["contraction"] <= 0.55


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


def test_report_enforces_uniform_fields():
    with pytest.raises(DomainError):
        StabilityReport(sector=_sector_ok(), verdict="UniformSmallStable")
    with pytest.raises(DomainError):
        StabilityReport(
            sector=_sector_ok(),
            verdict="UniformSmallStable",
            epsilon=0.5,
            sup_envelope=0.6,
        )
    StabilityReport(
        sector=_sector_ok(),
        verdict="UniformSmallStable",
        epsilon=0.5,
        sup_envelope=0.3,
    )


def test_report_enforces_decay_fields():
    with pytest.raises(DomainError):
        StabilityReport(
            sector=_sector_ok(), verdict="DecayingStable", beta_contraction=0.7
        )
    StabilityReport(
        sector=_sector_ok(), verdict="DecayingStable", beta_contraction=0.4
    )


def test_classify_constant_gain_is_robust():
    report = classify(A_NEG, 0.5, LinearConstant(np.array([[0.5]])))
    assert report.verdict == "RobustStable"
    assert report.sector["satisfied"]
    assert report.q == pytest.approx(0.5, abs=1e-3)
    assert report.epsilon == pytest.approx(0.5, abs=1e-3)
    assert report.delta == pytest.approx(0.5, abs=1e-3)
    assert report.sup_envelope == pytest.approx(0.5, rel=1e-9)


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


def test_classify_large_decaying_gain_uses_tail_delta():
    report = classify(A_NEG, 0.5, LinearDecaying(np.array([[12.0]]), 2.0))
    assert report.verdict == "DecayingStable"
    assert report.q is not None and report.q > 1.0
    assert report.delta == pytest.approx(0.8, rel=1e-6)
    assert any("tail bound" in note for note in report.notes)


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
