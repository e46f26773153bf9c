"""Tests for the gamma and Mittag-Leffler evaluation core.

Reference values were precomputed with 60-digit arithmetic (mpmath), with
the series precision scaled to survive the cancellation that sets in once
|z|^(1/alpha) is large.
"""
import math
import random

import numpy as np
import pytest

from fracstab import special_fn as sf
from fracstab.errors import (
    DomainError,
    OverflowSignal,
    QuadratureConvergenceError,
    UnsupportedOrderError,
)
from fracstab.special_fn import (
    MLParams,
    _ml_log_positive_many,
    _order_value,
    gamma,
    ml,
    ml_dlambda,
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
    assert _order_value(0.5) == 0.5
    for bad in (0.0, 1.0, -0.3, 1.7, math.nan):
        with pytest.raises(DomainError):
            _order_value(bad)


def test_ml_params_validation():
    """alpha lies in (0, 1], the orders _order_incl_one gives the solvers."""
    p = MLParams(0.7, 1.0)
    assert p.alpha == 0.7
    assert MLParams(1.0, 1.0).alpha == 1.0
    for alpha, beta in ((0.0, 1.0), (0.5, math.inf), (1.5, 1.0), (2.0, 0.5), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            MLParams(alpha, beta)


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


def _contour_points(rng, alpha, n_random, n_tight):
    """Seeded points with 1 < |z| <= 50 for the contour regime.

    The random ones skip arguments whose exponential part overflows.  The
    tight ones put the pole at clearance just above _MU_MIN_SEP from the
    first mu candidate, so _choose_mu settles there."""
    r = rng.uniform(1.0, 50.0, 4 * n_random)
    th = rng.uniform(-math.pi, math.pi, 4 * n_random)
    z = r * np.exp(1j * th)
    finite = (np.abs(th) >= alpha * math.pi) | ((z ** (1.0 / alpha)).real < 500.0)
    mu = sf._MU_CANDIDATES[0]
    c = 1.0 + rng.choice([-1.0, 1.0], n_tight) * (sf._MU_MIN_SEP + 0.01)
    y = rng.uniform(0.6, 3.0, n_tight) * rng.choice([-1.0, 1.0], n_tight)
    tight = (mu * (c + 1j * y) ** 2) ** alpha
    pts = np.concatenate([z[finite][:n_random], tight])
    return pts[(np.abs(pts) > 1.0) & (np.abs(pts) <= 50.0)]


def test_ml_contour_matches_dense_reference_at_every_order():
    """Every accepted contour value lies within the accept tolerance of a
    3,841-node trapezoid sum on the same contour, at every derivative order.

    The floor is 1e-15 * mass, not the accept rule's 4e-16 * mass: that
    floor bounds the difference of two levels, and where the value cancels
    to 1e-4 of the mass the roundoff of an 81-node sum alone reaches about
    5e-16 * mass."""
    rng = np.random.default_rng(2015)
    # a pole near one end of the contour, where end nodes at full trapezoid
    # weight miss the reference by 1.8 times the tolerance at l = 6
    near_end = {0.5: [2.026673048243906 - 6.364922835527043j]}
    for alpha in (0.3, 0.5, 0.8, 0.95):
        z = np.append(_contour_points(rng, alpha, 24, 8), near_end.get(alpha, []))
        poles = sf._principal_poles(alpha, z)
        mu = sf._choose_mu(alpha, z, poles)
        sep = np.abs(sf._clearance(mu, poles[0]))
        assert np.sum(sep < sf._MU_MIN_SEP + 0.02) >= 4
        for beta in (alpha, 1.0):
            for l in range(7):
                got = sf._ml_contour(alpha, beta, z, l)
                ref, mass = sf._contour_sum(alpha, beta, z, l, mu, 3841)
                res = sf._contour_residues(alpha, beta, z, l, mu, poles)
                scale = np.maximum(np.abs(ref + res), np.abs(ref))
                assert np.all(
                    np.abs(got - (ref + res)) <= 1e-12 * scale + 1e-15 * mass
                ), (alpha, beta, l)


def _contour_sum_per_point(alpha, beta, z, l, mu, n_nodes, odd):
    """_contour_sum with every node factor recomputed for every point."""
    u_max = sf._u_max(mu)
    base = np.linspace(-1.0, 1.0, n_nodes)
    if odd:
        base = base[1::2]
    iu1 = 1.0 + 1j * (base[None, :] * u_max[:, None])
    s = mu[:, None] * iu1 * iu1
    ds = 2j * mu[:, None] * iu1
    logs = np.log(s)
    denom = (np.exp(alpha * logs) - z[:, None]) ** (l + 1)
    integrand = np.exp(s + (alpha - beta) * logs) / denom * ds
    scale = 2.0 * u_max / (n_nodes - 1) * (math.factorial(l) / (2.0 * math.pi))
    total = integrand.sum(axis=1)
    mass = np.abs(integrand).sum(axis=1)
    if not odd:
        ends = integrand[:, [0, -1]]
        total -= 0.5 * ends.sum(axis=1)
        mass -= 0.5 * np.abs(ends).sum(axis=1)
    return total * (scale / 1j), mass * scale


def test_ml_contour_node_tables_keep_every_bit():
    """The tabulated contour sum equals the per-point formula bit for bit,
    with the mu candidates mixed in one call."""
    rng = np.random.default_rng(1601)
    mus = np.array(sf._MU_CANDIDATES)
    for alpha in (0.3, 0.5, 0.8, 0.95):
        z = _contour_points(rng, alpha, 21, 7)
        mu = mus[np.arange(z.size) % mus.size]
        for beta in (alpha, 1.0):
            for l in range(7):
                for n_nodes, odd in ((21, False), (81, True), (161, False), (321, True)):
                    got = sf._contour_sum(alpha, beta, z, l, mu, n_nodes, odd)
                    want = _contour_sum_per_point(alpha, beta, z, l, mu, n_nodes, odd)
                    for g, w in zip(got, want):
                        assert g.tobytes() == w.tobytes(), (alpha, beta, l, n_nodes, odd)


def test_ml_contour_node_table_is_built_once_and_read_only():
    sf._contour_nodes.cache_clear()
    p = MLParams(0.45, 0.45)
    z = _contour_points(np.random.default_rng(3), 0.45, 60, 20)
    first = ml_many(p, z)
    info = sf._contour_nodes.cache_info()
    # each level is one pass over the call's points, so a call asks for each
    # table once: every table of the first call is built exactly once
    assert 0 < info.misses == info.currsize < info.maxsize
    assert np.array_equal(ml_many(p, z), first)
    again = sf._contour_nodes.cache_info()
    # and the second call builds none, reading every table from the cache
    assert again.misses == info.misses
    assert again.hits - info.hits >= info.misses
    for row in sf._contour_nodes(0.45, 0.45, sf._MU_CANDIDATES[0], 81, True):
        assert row.shape == (1, 40)
        with pytest.raises(ValueError):
            row[0, 0] = 0.0


def test_ml_contour_failure_raises(monkeypatch):
    # three- and five-node levels cannot meet the tolerance anywhere
    monkeypatch.setattr(sf, "_CONTOUR_LEVELS", (3, 5))
    with pytest.raises(QuadratureConvergenceError):
        ml_many(MLParams(0.5, 0.5), np.array([-10.0 + 3.0j, 4.0 - 20.0j]))


def test_ml_contour_work_and_batch_independence(monkeypatch):
    """Most points stop at a coarse level, and a point's value does not
    depend on the batch it came in."""
    rng = np.random.default_rng(7)
    z = _contour_points(rng, 0.5, 150, 50)
    z = z[np.abs(z) > 1.05 * sf._series_radius(0.5)]
    nodes = []
    integrand = sf._contour_integrand

    def counted(*args):
        out = integrand(*args)
        nodes.append(out.size)
        return out

    monkeypatch.setattr(sf, "_contour_integrand", counted)
    p = MLParams(0.5, 0.5)
    batch = ml_many(p, z)
    assert sum(nodes) / z.size <= 150
    single = np.array([ml(p, v) for v in z])
    assert np.all(np.isfinite(batch))
    assert np.array_equal(batch, single)


def _mixed_contour_batch(rng, alpha, n):
    """n seeded points with the series radius < |z| <= 50, where every
    derivative order takes the contour, and no exponential overflow.  Every
    mu that _choose_mu picks for a random point at this alpha holds up to
    n/10 of them, so the rarer contours and their coarser first levels
    come in one batch with the common ones."""
    r = rng.uniform(sf._series_radius(alpha), 50.0, 40 * n)
    th = rng.uniform(-math.pi, math.pi, 40 * n)
    z = r * np.exp(1j * th)
    z = z[(np.abs(th) >= alpha * math.pi) | ((z ** (1.0 / alpha)).real < 500.0)]
    mu = sf._choose_mu(alpha, z, sf._principal_poles(alpha, z))
    rare = np.concatenate([np.flatnonzero(mu == m)[: n // 10] for m in sf._MU_CANDIDATES[1:]])
    common = np.flatnonzero(mu == sf._MU_CANDIDATES[0])[: n - rare.size]
    return z[rng.permutation(np.concatenate([rare, common]))]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_ml_contour_batch_is_one_point_calls_under_the_node_budget(monkeypatch, alpha):
    """A whole batch in one _ml_contour call gives every point the bits of
    its own one-point call, by the same arithmetic in fewer integrand
    calls, none over the node budget."""
    z = _mixed_contour_batch(np.random.default_rng(2007), alpha, 3000)
    poles = sf._principal_poles(alpha, z)
    mu = sf._choose_mu(alpha, z, poles)
    assert z.size == 3000 and set(mu.tolist()) == set(sf._MU_CANDIDATES)
    assert len(set(sf._first_level(mu, poles).tolist())) >= 3
    sizes = []
    integrand = sf._contour_integrand

    def counted(*args):
        out = integrand(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(sf, "_contour_integrand", counted)
    for beta in (alpha, 1.0):
        for l in (0, 1, 6):
            sizes.clear()
            batch = sf._ml_contour(alpha, beta, z, l)
            batch_sizes = list(sizes)
            sizes.clear()
            single = np.concatenate(
                [sf._ml_contour(alpha, beta, z[i : i + 1], l) for i in range(z.size)]
            )
            assert batch.tobytes() == single.tobytes(), (alpha, beta, l)
            assert max(batch_sizes) <= sf._CONTOUR_NODES
            assert sum(batch_sizes) == sum(sizes)
            assert len(batch_sizes) < len(sizes) / 10


def test_ml_conjugate_symmetry_is_exact():
    """E has real coefficients, so E(conj z) = conj E(z), bit for bit, in
    every regime and at every derivative order.  alpha = beta = 1 returns
    numpy's exp before the fold, so that pair is left out."""
    rng = np.random.default_rng(2708)
    for alpha in (0.3, 0.5, 0.8, 1.0):
        r = np.concatenate([
            rng.uniform(0.0, sf._series_disk(alpha, 6), 60),
            rng.uniform(sf._series_radius(alpha), 50.0, 60),
            rng.uniform(50.0, 500.0, 60),
        ])
        th = rng.uniform(-math.pi, math.pi, r.size)
        z = r * np.exp(1j * th)
        z = z[(np.abs(th) >= alpha * math.pi) | ((z ** (1.0 / alpha)).real < 300.0)]
        for beta in (alpha, 1.0, 1.7):
            if alpha == beta == 1.0:
                continue
            for l in (0, 1, 6):
                got = sf._ml_core(alpha, beta, z.conj(), l)
                want = sf._ml_core(alpha, beta, z, l).conj()
                assert got.tobytes() == want.tobytes(), (alpha, beta, l)


def test_ml_many_matches_scalar():
    p = MLParams(0.6, 1.0)
    zs = np.array([-0.5 + 0.1j, -8.0 + 2.0j, -60.0 - 5.0j])
    batch = ml_many(p, zs)
    for z, v in zip(zs, batch):
        assert v == ml(p, z)


def test_ml_many_equals_ml_in_every_regime():
    """A point's value, at every derivative order, does not depend on the
    batch it came in: one-point ml_dlambda calls equal one batched call."""
    rng = np.random.default_rng(1607)
    counts = np.zeros(3, dtype=int)
    for alpha in (0.3, 0.5, 0.8):
        # 40 radii in each regime: series (inside every order's disk),
        # contour and asymptotic
        r = np.concatenate([
            rng.uniform(0.0, sf._series_disk(alpha, 6), 40),
            rng.uniform(sf._series_radius(alpha), sf._ASYM_RADIUS, 40),
            rng.uniform(sf._ASYM_RADIUS, 120.0, 40),
        ])
        th = rng.uniform(-math.pi, math.pi, r.size)
        # stay clear of float overflow in the exponential branch
        keep = r ** (1.0 / alpha) * np.cos(th / alpha) <= 500.0
        z = (r * np.exp(1j * th))[keep]
        t = rng.uniform(0.5, 4.0, z.size)
        lam = z / t ** alpha
        for beta in (alpha, 1.0):
            for l in range(7):
                many = sf._ml_dlambda_many(alpha, beta, t ** alpha, lam, l)
                one = [ml_dlambda(MLParams(alpha, beta), ti, li, l) for ti, li in zip(t, lam)]
                assert np.array_equal(many, np.array(one)), (alpha, beta, l)
        az = np.abs(z)
        counts += [
            np.sum(az <= sf._series_disk(alpha, 6)),
            np.sum((az > sf._series_radius(alpha)) & (az <= sf._ASYM_RADIUS)),
            np.sum(az > sf._ASYM_RADIUS),
        ]
    assert np.all(counts >= 60), counts


def _mp_series_coefficients(mp, alpha, beta, l, r0):
    """50-digit c_k = k!/(k-l)! / Gamma(alpha k + beta), far past where the
    term bounds |c_k| r0^(k-l) fall under 1e-30 of their peak."""
    a, b = mp.mpf(alpha), mp.mpf(beta)
    coef, peak, k = [], mp.mpf(0), l
    while True:
        c = mp.factorial(k) / mp.factorial(k - l) * mp.rgamma(a * k + b)
        coef.append(c)
        bound = abs(c) * mp.mpf(r0) ** (k - l)
        peak = max(peak, bound)
        if k > l + 10 and bound < mp.mpf(10) ** -30 * peak:
            return coef
        k += 1


def test_ml_series_matches_high_precision_sum():
    """Every series value lies within 4e-15 of the absolute mass
    sum |c_k| |z|^(k-l) of a 50-digit sum, over the whole disk."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(4417)
    with mp.workdps(50):
        for alpha in (0.3, 0.5, 0.8, 0.95):
            for beta in (alpha, 1.0):
                for l in range(7):
                    r0 = sf._series_disk(alpha, l)
                    # uniform in the disk, with the rim itself as the last point
                    rad = np.append(r0 * np.sqrt(rng.uniform(0.0, 1.0, 3)), r0)
                    z = rad * np.exp(1j * rng.uniform(-math.pi, math.pi, rad.size))
                    got = sf._ml_series(alpha, beta, z, l)
                    coef = _mp_series_coefficients(mp, alpha, beta, l, r0)[::-1]
                    abs_coef = [abs(c) for c in coef]
                    for zi, gi in zip(z, got):
                        zz = mp.mpc(zi.real, zi.imag)
                        err = abs(mp.mpc(gi.real, gi.imag) - mp.polyval(coef, zz))
                        mass = mp.polyval(abs_coef, abs(zz))
                        assert err <= 4e-15 * mass, (alpha, beta, l, zi)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_ml_dlambda_contour_point_meets_its_level_test():
    """A contour-band point (|z| = 1.78) at beta < 0 whose two-level
    agreement test fails up to 2,561 nodes: ml_dlambda raises
    QuadratureConvergenceError at it and at its conjugate.  The series
    reference is 1129.1672787564723 - 1220.6754622726048j at the upper
    point; its terms peak near 9e34, so it is summed with 60 digits until
    a term falls under 1e-30."""
    mp = pytest.importorskip("mpmath")
    params, l = MLParams(0.15, -0.5), 6
    z = complex(1.6517125020877075, 0.6558349306215645)
    with mp.workdps(60):
        a, b, zz = mp.mpf(params.alpha), mp.mpf(params.beta), mp.mpc(z.real, z.imag)
        total, k = mp.mpc(0), l
        while True:
            term = mp.factorial(k) / mp.factorial(k - l) * zz ** (k - l) * mp.rgamma(a * k + b)
            total += term
            if k > 100 and abs(term) < mp.mpf(10) ** -30:
                break
            k += 1
        want = complex(total)
    for point, ref in ((z, want), (z.conjugate(), want.conjugate())):
        assert ml_dlambda(params, 1.0, point, l) == pytest.approx(ref, rel=1e-10)


def test_ml_series_table_is_built_once_and_bounds_its_tail(monkeypatch):
    sf._series_table.cache_clear()
    calls = []
    rgamma = sf._rgamma

    def counted(x):
        calls.append(x)
        return rgamma(x)

    monkeypatch.setattr(sf, "_rgamma", counted)
    p = MLParams(0.45, 0.45)
    z = np.linspace(-1.5, 1.5, 31) * (1.0 - 0.5j)
    assert np.all(np.abs(z) <= sf._series_radius(0.45))
    first = ml_many(p, z)
    built = len(calls)
    assert built > 0
    assert np.array_equal(ml_many(p, z), first)
    assert len(calls) == built
    monkeypatch.undo()

    # the dropped tail, summed at the disk radius, is under 1e-17 of the
    # largest term the table keeps
    for alpha, beta, l in ((0.3, 0.3, 0), (0.5, 1.0, 3), (0.8, 0.8, 6), (0.95, 1.0, 1)):
        r0 = sf._series_disk(alpha, l)
        top = l + len(sf._series_table(alpha, beta, l)) - 1
        bound = [math.perm(k, l) * abs(sf._rgamma(alpha * k + beta)) * r0 ** (k - l)
                 for k in range(l, top + 100)]
        assert sum(bound[top - l + 1:]) <= 1e-17 * max(bound[: top - l + 1])


def test_ml_asymptotic_table_is_built_once(monkeypatch):
    sf._asymptotic_table.cache_clear()
    calls = []
    rgamma = sf._rgamma

    def counted(x):
        calls.append(x)
        return rgamma(x)

    monkeypatch.setattr(sf, "_rgamma", counted)
    p = MLParams(0.45, 0.45)
    z = np.geomspace(60.0, 4e3, 40) * np.exp(1j * np.linspace(1.6, 3.1, 40))
    assert np.all(np.abs(z) > sf._ASYM_RADIUS)
    first = ml_many(p, z)
    built = len(calls)
    assert built > 0
    assert np.array_equal(ml_many(p, z), first)
    assert len(calls) == built


@pytest.mark.parametrize("beta", [0.3, 1.0])
def test_ml_exponential_overflow_raises(beta):
    # the residue exp(z^(1/alpha)) of this contour-band point overflows
    with pytest.raises(OverflowSignal):
        ml_many(MLParams(0.3, beta), np.array([28.09 - 4.92j]))
    # as does the exponential branch of the asymptotic wedge
    with pytest.raises(OverflowSignal):
        ml(MLParams(0.5, beta), 1000.0)


def test_ml_series_table_failure_raises(monkeypatch):
    monkeypatch.setattr(sf, "_SERIES_KMAX", 5)
    sf._series_table.cache_clear()
    with pytest.raises(QuadratureConvergenceError):
        ml_many(MLParams(0.5, 0.5), np.array([0.3 - 0.2j]))


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
        xs = np.array([0.0, 0.3, 2.0, 9.0])
        for x, got in zip(xs, _ml_log_positive_many(alpha, xs)):
            want = math.log(ml(MLParams(alpha, 1.0), x).real) if x > 0 else 0.0
            assert got == pytest.approx(want, abs=1e-12)


def test_ml_log_positive_huge():
    # far beyond double overflow the exponential branch dominates
    alpha = 0.5
    x = 1e8
    want = x ** 2 - math.log(alpha)  # w = x^(1/alpha)
    assert _ml_log_positive_many(alpha, np.array([x]))[0] == pytest.approx(want, rel=1e-14)


def test_ml_log_positive_switch_is_seamless():
    for alpha in (0.3, 0.5, 0.8):
        w = 44.9
        x = w ** alpha
        direct = _ml_log_positive_many(alpha, np.array([x]))[0]
        closed = x ** (1.0 / alpha) - math.log(alpha)
        assert direct == pytest.approx(closed, abs=1e-11)


def test_ml_log_positive_table_equals_point_values():
    # the decay certificate's weight table takes every point in one call,
    # and gives each the value of a call on that point alone
    for alpha in (0.3, 0.5, 0.8):
        w = np.concatenate(
            [[0.0], np.geomspace(1e-4, 44.99, 200), [45.0, 45.01], np.geomspace(46.0, 1e6, 40)]
        )
        x = w ** alpha
        table = _ml_log_positive_many(alpha, x)
        points = [_ml_log_positive_many(alpha, x[i : i + 1])[0] for i in range(x.size)]
        assert table[0] == 0.0
        assert table == pytest.approx(points, rel=1e-15)


# ---------------------------------------------------------------------------
# algebraic decay in the sector case


def test_decay_constant_matches_asymptotic_coefficient():
    """On the negative axis E_alpha(-x) ~ x^-1 / Gamma(1 - alpha), so
    t^alpha E_{1/2}(-t^alpha) tends to 1/Gamma(1/2) = 1/sqrt(pi).  The
    x^-2 term vanishes at alpha = 1/2 (1/Gamma(0) = 0) and the x^-3 term
    leaves the relative gap -1/(2 t)."""
    c = 0.5641895835477563
    t = np.array([1e4, 1e6, 1e8])
    x = t ** 0.5
    got = x * ml_many(MLParams(0.5, 1.0), -x).real
    assert got == pytest.approx(c, rel=1e-4)
    assert (got - c) * t == pytest.approx(-0.5 * c, rel=1e-3)
