"""Tests for the gamma and Mittag-Leffler evaluation core.

Reference values were precomputed with 60-digit arithmetic (mpmath), with
the series precision scaled to survive the cancellation that sets in once
|z|^(1/alpha) is large.
"""
import math
import random

import numpy as np
import pytest

from fracstab.errors import (
    DomainError,
    OverflowSignal,
    SectorViolationError,
    UnsupportedOrderError,
)
from fracstab.special_fn import (
    FracOrder,
    MLParams,
    _ml_log_positive_many,
    estimate_decay_constant,
    gamma,
    ml,
    ml_dlambda,
    ml_log_positive,
    ml_many,
)


# ---------------------------------------------------------------------------
# gamma


FROZEN_GAMMA = [
    (0.5, 1.7724538509055160),
    (1.3, 0.89747069630627719),
    (7.25, 1155.3810139199897),
    (1.0, 1.0),
    (6.0, 120.0),
]


@pytest.mark.parametrize(("x", "want"), FROZEN_GAMMA)
def test_gamma_frozen(x, want):
    assert gamma(x) == pytest.approx(want, rel=1e-14)


def test_gamma_recurrence():
    """Gamma(x+1) = x Gamma(x) across the positive axis."""
    rng = random.Random(101)
    for _ in range(300):
        x = math.exp(rng.uniform(math.log(1e-3), math.log(160.0)))
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=5e-13)


def test_gamma_large_argument():
    # near the overflow edge the value must stay finite and accurate
    assert gamma(170.5) == pytest.approx(5.5620924145599996e305, rel=5e-13)
    with pytest.raises(OverflowSignal):
        gamma(172.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
def test_gamma_domain(bad):
    with pytest.raises((DomainError, OverflowSignal)):
        gamma(bad)


# ---------------------------------------------------------------------------
# parameter containers and region dispatch


def test_frac_order_validation():
    assert float(FracOrder(0.5)) == 0.5
    for bad in (0.0, 1.0, -0.3, 1.7, math.nan):
        with pytest.raises(DomainError):
            FracOrder(bad)


def test_ml_params_validation():
    p = MLParams(0.7, 1.0)
    assert p.alpha == 0.7
    with pytest.raises(DomainError):
        MLParams(0.0, 1.0)
    with pytest.raises(DomainError):
        MLParams(0.5, math.inf)


# ---------------------------------------------------------------------------
# Mittag-Leffler values


FROZEN_ML = [
    (0.5, 1.0, -1.0, 0.427583576155807),
    (0.6, 0.6, -50.0, 1.0979389735394112e-4),
    (0.3, 1.0, -7.0, 0.10121701506650602),
    (0.8, 1.0, -12.5, 0.019366860246465858),
    (0.25, 1.0, 4.0, 6.045710660016414e111),
    (0.5, 1.7, -30.0, 0.035456511400631774),
    (0.9, 0.9, -2.0, 0.11059802429320849),
]


@pytest.mark.parametrize(("alpha", "beta", "z", "want"), FROZEN_ML)
def test_ml_frozen(alpha, beta, z, want):
    got = ml(MLParams(alpha, beta), z)
    assert got.real == pytest.approx(want, rel=1e-10)
    assert abs(got.imag) <= 1e-10 * abs(want)


def test_ml_reduces_to_exp():
    """E_{1,1}(z) = exp(z)."""
    rng = random.Random(7)
    p = MLParams(1.0, 1.0)
    for _ in range(200):
        z = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        want = np.exp(z)
        assert abs(ml(p, z) - want) <= 1e-12 * abs(want)


def test_ml_half_order_identity():
    """E_{1/2,1}(z) = exp(z^2) erfc(-z) on the real axis."""
    p = MLParams(0.5, 1.0)
    for z in np.linspace(-15.0, 14.0, 59):
        want = math.exp(z * z + math.log(math.erfc(-z)))
        got = ml(p, z).real
        assert got == pytest.approx(want, rel=5e-11)


def test_ml_recurrence():
    """E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b) ties all three regimes."""
    rng = random.Random(23)
    for _ in range(400):
        alpha = rng.uniform(0.15, 1.0)
        beta = rng.uniform(0.2, 2.0)
        r = math.exp(rng.uniform(math.log(0.05), math.log(90.0)))
        th = rng.uniform(-math.pi, math.pi)
        # stay clear of float overflow in the exponential branch
        if r ** (1.0 / alpha) * math.cos(th / alpha) > 500.0:
            continue
        z = r * complex(math.cos(th), math.sin(th))
        lhs = ml(MLParams(alpha, beta), z)
        rhs = z * ml(MLParams(alpha, alpha + beta), z) + 1.0 / gamma(beta)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_ml_region_seams():
    """Adjacent evaluation regimes agree on their shared annuli."""
    from fracstab import special_fn as sf

    rng = random.Random(31)
    for alpha in (0.3, 0.5, 0.8, 0.95):
        r0 = sf._series_radius(alpha)
        for _ in range(40):
            th = rng.uniform(-math.pi, math.pi)
            z = np.array([rng.uniform(0.8 * r0, r0) * complex(math.cos(th), math.sin(th))])
            a = sf._ml_series(alpha, 1.0, z)[0]
            b = sf._ml_contour(alpha, 1.0, z)[0]
            assert abs(a - b) <= 1e-8 * max(abs(a), 1e-8)
        for _ in range(40):
            th = rng.uniform(-math.pi, math.pi)
            z = np.array([rng.uniform(50.0, 55.0) * complex(math.cos(th), math.sin(th))])
            with np.errstate(over="ignore", invalid="ignore"):
                a = sf._ml_asymptotic(alpha, 1.0, z)[0]
            if not np.isfinite(a):
                continue
            b = sf._ml_contour(alpha, 1.0, z)[0]
            assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1e-8)


def test_ml_many_matches_scalar():
    p = MLParams(0.6, 1.0)
    zs = np.array([-0.5 + 0.1j, -8.0 + 2.0j, -60.0 - 5.0j])
    batch = ml_many(p, zs)
    for z, v in zip(zs, batch):
        assert v == pytest.approx(ml(p, z), rel=1e-12)


# ---------------------------------------------------------------------------
# derivatives in lambda


def test_ml_dlambda_matches_finite_difference():
    """First derivative against a central difference in lambda."""
    p = MLParams(0.7, 0.7)
    for lam in (-0.5, -2.0):
        for t in (0.3, 2.0, 9.0):
            h = 1e-5
            fd = (ml(p, (lam + h) * t ** 0.7) - ml(p, (lam - h) * t ** 0.7)) / (2 * h)
            got = ml_dlambda(p, t, lam, 1)
            assert got.real == pytest.approx(fd.real * 1.0, rel=1e-6)


def test_ml_dlambda_zero_order_is_ml():
    p = MLParams(0.4, 1.0)
    t, lam = 3.0, -1.5
    assert ml_dlambda(p, t, lam, 0) == pytest.approx(ml(p, lam * t ** 0.4), rel=1e-12)


def test_ml_dlambda_order_cap():
    p = MLParams(0.5, 0.5)
    with pytest.raises(UnsupportedOrderError):
        ml_dlambda(p, 1.0, -1.0, 7)


def test_ml_dlambda_high_order_smoke():
    # sixth derivative stays finite and scales like t^(6 alpha) near zero
    p = MLParams(0.5, 0.5)
    v1 = abs(ml_dlambda(p, 1e-4, -1.0, 6))
    v2 = abs(ml_dlambda(p, 4e-4, -1.0, 6))
    assert v2 / v1 == pytest.approx(4.0 ** 3.0, rel=0.05)


# ---------------------------------------------------------------------------
# stable logarithm on the positive axis


def test_ml_log_positive_small():
    for alpha in (0.4, 0.8):
        for x in (0.0, 0.3, 2.0, 9.0):
            want = math.log(ml(MLParams(alpha, 1.0), x).real) if x > 0 else 0.0
            assert ml_log_positive(alpha, x) == pytest.approx(want, abs=1e-12)


def test_ml_log_positive_huge():
    # far beyond double overflow the exponential branch dominates
    alpha = 0.5
    x = 1e8
    want = x ** 2 - math.log(alpha)  # w = x^(1/alpha)
    assert ml_log_positive(alpha, x) == pytest.approx(want, rel=1e-14)


def test_ml_log_positive_switch_is_seamless():
    for alpha in (0.3, 0.5, 0.8):
        w = 44.9
        x = w ** alpha
        direct = ml_log_positive(alpha, x)
        closed = x ** (1.0 / alpha) - math.log(alpha)
        assert direct == pytest.approx(closed, abs=1e-11)


def test_ml_log_positive_table_equals_point_values():
    # the decay certificate's weight table takes every point in one call
    for alpha in (0.3, 0.5, 0.8):
        w = np.concatenate(
            [[0.0], np.geomspace(1e-4, 44.99, 200), [45.0, 45.01], np.geomspace(46.0, 1e6, 40)]
        )
        x = w ** alpha
        table = _ml_log_positive_many(alpha, x)
        points = [ml_log_positive(alpha, xi) for xi in x]
        assert table[0] == 0.0
        assert table == pytest.approx(points, rel=1e-15)


def test_ml_log_positive_domain():
    with pytest.raises(DomainError):
        ml_log_positive(0.5, -1.0)


# ---------------------------------------------------------------------------
# empirical decay constants


def test_decay_constant_matches_asymptotic_coefficient():
    """For lambda on the negative axis the tail is t^-alpha / Gamma(1-alpha)
    scaled by 1/|lambda|, so the fitted constant is known in closed form."""
    est = estimate_decay_constant(0.5, -1.0, 0, "E_alpha")
    assert est.constant == pytest.approx(0.5641895835477563, rel=0.02)
    assert est.t0 > 0.0


def test_decay_constant_scales_with_lambda():
    a = estimate_decay_constant(0.5, -1.0, 0, "E_alpha")
    b = estimate_decay_constant(0.5, -4.0, 0, "E_alpha")
    assert b.constant == pytest.approx(a.constant / 4.0, rel=0.05)


def test_decay_constant_rejects_unstable_lambda():
    with pytest.raises(SectorViolationError):
        estimate_decay_constant(0.5, 1.0, 0, "E_alpha")
    # boundary of the sector is excluded as well
    lam = complex(math.cos(0.25 * math.pi), math.sin(0.25 * math.pi))
    with pytest.raises(SectorViolationError):
        estimate_decay_constant(0.5, lam, 0, "E_alpha")
