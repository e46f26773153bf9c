"""Tests for matrix Mittag-Leffler evaluation and the kernel quantities."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from fracstab import matfun
from fracstab.errors import (
    DomainError,
    ImagTruncationError,
    SectorViolationError,
    UnsupportedOrderError,
)
from fracstab.matfun import (
    SpectralData,
    as_square_matrix,
    check_spectral_condition,
    kernel_integral,
    ml_matrix,
    spectral_decompose,
    sup_ml_norm,
)
from fracstab.special_fn import MLParams, ml, ml_dlambda, ml_many

_SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "sweep_kernel.py"
_SPEC = importlib.util.spec_from_file_location("sweep_kernel", _SWEEP)
sweep_kernel = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep_kernel)

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
JORDAN2 = np.array([[-2.0, 1.0], [0.0, -2.0]])

# E_{1/2}(i) from a 60-digit series reference
E_HALF_I = 0.36787944117144232 + 0.60715770584139373j
# grid-maximization oracle for sup_t ||E_{1/2}(t^{1/2} ROTATION)||, max norm
SUP_ROTATION_HALF = 1.2611620384


def _series_matrix(params, t, a, kmax=300):
    """Directly summed truncated matrix series for E_{alpha,beta}(t^alpha A)."""
    m = np.asarray(a, dtype=complex)
    d = m.shape[0]
    x = (t ** params.alpha) * m
    out = np.zeros((d, d), dtype=complex)
    p = np.eye(d, dtype=complex)
    for k in range(kmax + 1):
        out += p * math.exp(-math.lgamma(params.alpha * k + params.beta))
        p = p @ x
    return out


def _random_conditioned(rng, d, cond):
    """Random invertible matrix with 2-norm condition number about cond."""
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.geomspace(1.0, 1.0 / cond, d)
    return q1 @ np.diag(s) @ q2


def test_square_matrix_validation():
    with pytest.raises(DomainError):
        as_square_matrix([[1.0, 2.0]])
    with pytest.raises(DomainError):
        as_square_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(DomainError):
        as_square_matrix(np.zeros((2, 3)))
    assert as_square_matrix([[3.0]]).shape == (1, 1)


def test_spectral_decompose_scalar():
    spec = spectral_decompose([[-1.0]])
    assert spec.eigenvalues == (-1.0 + 0.0j,)
    assert spec.clusters == ()


def test_spectral_decompose_rotation_order():
    spec = spectral_decompose(ROTATION)
    assert spec.eigenvalues[0] == pytest.approx(-1j, abs=1e-14)
    assert spec.eigenvalues[1] == pytest.approx(1j, abs=1e-14)
    assert all(abs(abs(np.angle(lam)) - math.pi / 2) < 1e-14 for lam in spec.eigenvalues)


def test_spectral_decompose_sorted_residual_conjugate():
    rng = np.random.default_rng(20240811)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d))
        spec = spectral_decompose(a)
        w = np.array(spec.eigenvalues)
        keys = list(zip(w.real, w.imag))
        assert keys == sorted(keys)
        # eigenpair residual against the returned vectors
        norm_a = np.linalg.norm(a, 2)
        for i, lam in enumerate(w):
            v = spec.eigenvectors[:, i]
            res = np.linalg.norm(a @ v - lam * v) / np.linalg.norm(v)
            assert res <= 1e-9 * norm_a
        # complex eigenvalues of a real matrix pair up by conjugation
        for lam in w[np.abs(w.imag) > 1e-12]:
            assert np.min(np.abs(w - lam.conjugate())) <= 1e-9 * max(1.0, abs(lam))


def test_spectral_decompose_is_cached_and_read_only():
    a = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -3.0]])
    spec = spectral_decompose(a)
    assert spectral_decompose(a.tolist()) is spec
    assert spectral_decompose(np.asfortranarray(a)) is spec
    assert len(spec.clusters) == 1
    idx, _, block = spec.clusters[0]
    for arr in (spec.eigenvectors, idx, block):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert spectral_decompose(a + np.eye(3)) is not spec


def test_spectral_decompose_dimension_cap():
    rng = np.random.default_rng(7)
    with pytest.raises(DomainError):
        spectral_decompose(rng.standard_normal((65, 65)))
    with pytest.raises(DomainError):
        check_spectral_condition(rng.standard_normal((65, 65)), 0.5)


def _one_cluster(a, members, sigma):
    """The single cluster of a: its members, its mean, an orthonormal basis
    of its invariant subspace and its block N about the mean; returns N."""
    spec = spectral_decompose(a)
    assert len(spec.clusters) == 1
    idx, mean, block = spec.clusters[0]
    assert idx.tolist() == members
    assert mean == pytest.approx(sigma, rel=1e-15)
    s = spec.eigenvectors[:, idx]
    assert np.allclose(s.conj().T @ s, np.eye(len(idx)), atol=1e-14)
    norm_a = np.linalg.norm(a, np.inf)
    resid = a @ s - s @ (block + mean * np.eye(len(idx)))
    assert np.linalg.norm(resid, np.inf) <= 1e-14 * norm_a
    return block


def test_defective_matrix_signals():
    # rank oracle: geometric multiplicity of the double eigenvalue is one
    assert np.linalg.matrix_rank(JORDAN2 + 2.0 * np.eye(2)) == 1
    # the defect shows as one cluster whose block is a nonzero nilpotent
    block = _one_cluster(JORDAN2, [0, 1], -2.0)
    assert np.linalg.norm(block, 2) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(block @ block, 2) <= 1e-14
    assert np.allclose(np.array(spectral_decompose(JORDAN2).eigenvalues), -2.0, atol=1e-6)


def test_ill_conditioned_eigenbasis_signals():
    # distinct eigenvalues but a nearly parallel eigenbasis: one cluster
    # whose block carries the 1e9 coupling about a mean the eigenvalues
    # sit 5e-7 from
    a = np.array([[-1.0, 1e9], [0.0, -1.0 - 1e-6]])
    block = _one_cluster(a, [0, 1], -1.0 - 5e-7)
    assert np.linalg.norm(block, 2) == pytest.approx(1e9, rel=1e-12)
    assert abs(np.trace(block)) <= 1e-14


def test_close_eigenvalues_form_one_cluster():
    # a chain whose ends are 1.8% apart but whose neighbours are 0.9% apart
    _one_cluster(np.diag([-1.0, -1.009, -1.018, -3.0]), [1, 2, 3], -1.009)
    assert spectral_decompose(np.diag([-1.0, -1.011])).clusters == ()


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_cluster_floor_does_not_overflow(scale):
    # the Frobenius norm of diag(-1, -2) s overflowed past s = 6e153, so the
    # floor was inf and the two eigenvalues formed one cluster
    assert spectral_decompose(scale * np.diag([-1.0, -2.0])).clusters == ()


def test_ml_matrix_at_time_zero():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    for beta in (1.0, 0.7):
        out = ml_matrix(MLParams(0.6, beta), 0.0, a)
        assert np.allclose(out, np.eye(3) / math.gamma(beta), rtol=1e-13)


def test_ml_matrix_rotation_is_exponential():
    out = ml_matrix(MLParams(1.0, 1.0), 1.0, ROTATION)
    want = np.array([[math.cos(1.0), math.sin(1.0)], [-math.sin(1.0), math.cos(1.0)]])
    assert np.allclose(out, want, atol=1e-12)


def test_ml_matrix_rotation_half_order():
    # f(ROTATION) = Re f(i) I + Im f(i) ROTATION for entire f
    out = ml_matrix(MLParams(0.5, 1.0), 1.0, ROTATION)
    want = E_HALF_I.real * np.eye(2) + E_HALF_I.imag * ROTATION
    assert np.allclose(out, want, rtol=1e-10)


def test_ml_matrix_diagonal_reduces_to_scalar():
    a = np.diag([-1.0, -2.0])
    params = MLParams(0.5, 1.0)
    out = ml_matrix(params, 1.0, a)
    want = np.diag([ml(params, -1.0).real, ml(params, -2.0).real])
    assert np.allclose(out, want, rtol=1e-12, atol=1e-15)
    assert abs(out[0, 1]) + abs(out[1, 0]) < 1e-15
    series = _series_matrix(params, 1.0, a)
    assert np.max(np.abs(out - series.real)) < 1e-9


def test_ml_matrix_series_agreement():
    rng = np.random.default_rng(20240812)
    t = 1.2
    for _ in range(25):
        d = int(rng.integers(2, 5))
        alpha = float(rng.uniform(0.3, 0.95))
        a = rng.standard_normal((d, d))
        a *= 2.5 / (np.linalg.norm(a, np.inf) * t ** alpha)
        params = MLParams(alpha, 1.0)
        out = ml_matrix(params, t, a)
        series = _series_matrix(params, t, a)
        scale = max(1.0, np.max(np.abs(series)))
        assert np.max(np.abs(out - series.real)) < 1e-9 * scale


def test_ml_matrix_similarity_covariance():
    rng = np.random.default_rng(99)
    params = MLParams(0.6, 1.0)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        a = rng.standard_normal((d, d))
        p = _random_conditioned(rng, d, float(rng.uniform(2.0, 100.0)))
        cond_p = np.linalg.cond(p)
        b = p @ a @ np.linalg.inv(p)
        fa = ml_matrix(params, 0.8, a)
        fb = ml_matrix(params, 0.8, b)
        want = p @ fa @ np.linalg.inv(p)
        bound = 1e-7 * np.linalg.norm(fa, np.inf) * cond_p
        assert np.linalg.norm(fb - want, np.inf) <= bound


def test_ml_matrix_jordan_block_formula():
    params = MLParams(0.5, 1.0)
    t = 1.3
    out = ml_matrix(params, t, JORDAN2)
    n1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    want = ml(params, -2.0 * t ** 0.5).real * np.eye(2) + ml_dlambda(
        params, t, -2.0, 1
    ).real * n1
    assert np.allclose(out, want, rtol=1e-12, atol=1e-14)

    j3 = np.array([[-1.5, 1.0, 0.0], [0.0, -1.5, 1.0], [0.0, 0.0, -1.5]])
    out3 = ml_matrix(params, t, j3)
    n = j3 + 1.5 * np.eye(3)
    want3 = (
        ml(params, -1.5 * t ** 0.5).real * np.eye(3)
        + ml_dlambda(params, t, -1.5, 1).real * n
        + 0.5 * ml_dlambda(params, t, -1.5, 2).real * (n @ n)
    )
    assert np.allclose(out3, want3, rtol=1e-11, atol=1e-14)


def _mp_taylor(mp, alpha, beta, t, lam, order):
    """[t^(alpha l) E^(l)(lam t^alpha) / l! for l < order] at working
    precision: the power series sum_k C(k, l) z^(k-l) t^(alpha l) /
    Gamma(alpha k + beta), z = lam t^alpha, summed until its terms fall
    under 10^-dps of their peak."""
    a, b = mp.mpf(alpha), mp.mpf(beta)
    ta = mp.mpf(t) ** a
    z = mp.mpf(lam) * ta
    sums = [mp.mpf(0)] * order
    peak = mp.mpf(0)
    tiny = mp.mpf(10) ** (-mp.mp.dps)
    zk = mp.mpf(1)
    k = 0
    while True:
        term = zk * mp.rgamma(a * k + b)
        for l in range(min(k, order - 1) + 1):
            sums[l] += math.comb(k, l) * term
        mag = abs(term) * (k + 1) ** order
        peak = max(peak, mag)
        if k > 20 and mag < tiny * peak:
            return [s * (ta / z) ** l for l, s in enumerate(sums)]
        zk *= z
        k += 1


def _max_norm_error(got, want):
    return np.abs(got - want).sum(-1).max() / np.abs(want).sum(-1).max()


@pytest.mark.parametrize("beta, tol", [(1.0, 1e-12), (0.5, 1e-11)])
def test_ml_matrix_near_defective_family(beta, tol):
    """A = [[-1, 10], [0, -1 - eps]] against the closed form of a triangular
    f(A), [[f(a), 10 f[a, d]], [0, f(d)]], with 60-digit values.  eps = 0.1
    is not a cluster; every smaller eps is one, down to the Jordan block."""
    mp = pytest.importorskip("mpmath")
    ts = np.array([0.1, 1.0, 5.0, 30.0])
    params = MLParams(0.5, beta)
    with mp.workdps(60):
        for eps in (1e-1, 1e-2, 5e-3, 1e-3, 1e-4, 1e-6, 1e-8, 0.0):
            a = np.array([[-1.0, 10.0], [0.0, -1.0 - eps]])
            spec = spectral_decompose(a)
            assert len(spec.clusters) == (0 if eps == 1e-1 else 1)
            stack = ml_matrix(params, ts, a)
            for t, got in zip(ts, stack):
                fa = _mp_taylor(mp, 0.5, beta, t, a[0, 0], 2)
                fd = _mp_taylor(mp, 0.5, beta, t, a[1, 1], 1)[0]
                if eps == 0.0:
                    dd = fa[1]
                else:
                    dd = (fa[0] - fd) / (mp.mpf(a[0, 0]) - mp.mpf(a[1, 1]))
                want = np.array([[float(fa[0]), float(10 * dd)], [0.0, float(fd)]])
                assert _max_norm_error(got, want) <= tol, (eps, t)


def _jordan(blocks):
    d = sum(size for _, size in blocks)
    j = np.zeros((d, d))
    i = 0
    for lam, size in blocks:
        j[i : i + size, i : i + size] = lam * np.eye(size) + np.eye(size, k=1)
        i += size
    return j


def test_ml_matrix_jordan_under_similarity():
    """P J P^-1 for Jordan blocks of size 2, 3 and 5 beside a separated
    eigenvalue, and for two Jordan-2 blocks, against P f(J) P^-1 in 60
    digits; cond(P) runs from 4 to 170."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1801)
    cases = [
        ([(-1.0, 2), (-3.0, 1)], 4.0),
        ([(-1.0, 3), (-3.0, 1)], 20.0),
        ([(-1.0, 5), (-3.0, 1)], 60.0),
        ([(-1.0, 2), (-2.5, 2)], 170.0),
    ]
    params = MLParams(0.5, 1.0)
    with mp.workdps(60):
        for blocks, cond in cases:
            d = sum(size for _, size in blocks)
            p = mp.matrix(_random_conditioned(rng, d, cond).tolist())
            p_inv = p**-1
            a = np.array((p * mp.matrix(_jordan(blocks).tolist()) * p_inv).tolist(), dtype=float)
            spec = spectral_decompose(a)
            assert sorted(len(idx) for idx, _, _ in spec.clusters) == sorted(
                size for _, size in blocks if size > 1
            )
            for t in (0.5, 5.0):
                fj = mp.zeros(d, d)
                i = 0
                for lam, size in blocks:
                    coeff = _mp_taylor(mp, 0.5, 1.0, t, lam, size)
                    for r in range(size):
                        for l in range(size - r):
                            fj[i + r, i + r + l] = coeff[l]
                    i += size
                want = np.array((p * fj * p_inv).tolist(), dtype=float)
                got = ml_matrix(params, t, a)
                assert _max_norm_error(got, want) <= 1e-12, (blocks, t)


def test_ml_matrix_conjugate_jordan_pair():
    # a real 4x4 with the defective pair -1 +- i twice: two conjugate
    # clusters, interleaved in the eigenvalue order after a similarity
    r = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    a = np.block([[r, np.eye(2)], [np.zeros((2, 2)), r]])
    p = _random_conditioned(np.random.default_rng(1802), 4, 30.0)
    params = MLParams(0.6, 1.0)
    for m in (a, p @ a @ np.linalg.inv(p)):
        spec = spectral_decompose(m)
        means = [sigma for _, sigma, _ in spec.clusters]
        assert len(means) == 2 and means[0] == means[1].conjugate()
        assert means[1] == pytest.approx(-1.0 + 1.0j, abs=1e-12)
        for t in (0.3, 1.0):
            want = _series_matrix(params, t, m).real
            got = ml_matrix(params, t, m)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_ml_matrix_cluster_needs_more_taylor_terms():
    # the order-6 term of a 7x7 Jordan block is not negligible
    j7 = _jordan([(-1.0, 7)])
    params = MLParams(0.5, 1.0)
    with pytest.raises(UnsupportedOrderError):
        ml_matrix(params, 1.0, j7)
    # the time-zero identity needs no terms, and a 6x6 block has N^6 = 0
    assert np.array_equal(ml_matrix(params, 0.0, j7), np.eye(7))
    j6 = _jordan([(-1.0, 6)])
    got = ml_matrix(params, 1.0, j6)
    assert got[0, 5] == pytest.approx(ml_dlambda(params, 1.0, -1.0, 5).real / 120.0, rel=1e-12)


def test_ml_matrix_wide_chain_falls_back_to_the_block_eigenbasis():
    # the 0.9%-spaced chain is one cluster whose order-6 Taylor sum stops
    # converging at late times; there the block's own eigenbasis takes over
    a = np.diag([-1.0, -1.009, -1.018])
    spec = spectral_decompose(a)
    assert [idx.tolist() for idx, _, _ in spec.clusters] == [[0, 1, 2]]
    ts = np.array([0.1, 1.0, 1.81, 5.0, 10.0, 30.0, 1e3, 1e5])
    for beta in (1.0, 0.5):
        params = MLParams(0.5, beta)
        stack = ml_matrix(params, ts, a)
        for t, got in zip(ts, stack):
            want = np.diag(ml_many(params, t ** 0.5 * np.diag(a)).real)
            assert _max_norm_error(got, want) <= 1e-13, (beta, t)


def test_ml_matrix_close_complex_pairs_of_a_normal_matrix():
    # two conjugate pairs 0.6% apart near the alpha = 1/2 sector edge,
    # under an orthogonal similarity: two conjugate clusters, checked
    # against Q diag(f(R1), f(R2)) Q^T with f(R) from the scalar f(lam)
    lams = (0.5 + 1.0j, 0.503 + 1.006j)
    q, _ = np.linalg.qr(np.random.default_rng(18).standard_normal((4, 4)))
    blocks = np.zeros((4, 4))
    for k, lam in enumerate(lams):
        blocks[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[lam.real, lam.imag], [-lam.imag, lam.real]]
    a = q @ blocks @ q.T
    spec = spectral_decompose(a)
    assert sorted(idx.tolist() for idx, _, _ in spec.clusters) == [[0, 2], [1, 3]]
    ts = np.array([0.1, 1.0, 5.0, 30.0, 300.0, 1e3])
    for beta in (1.0, 0.5):
        params = MLParams(0.5, beta)
        stack = ml_matrix(params, ts, a)
        for t, got in zip(ts, stack):
            fb = np.zeros((4, 4))
            for k, f in enumerate(ml_many(params, t ** 0.5 * np.array(lams))):
                fb[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[f.real, f.imag], [-f.imag, f.real]]
            assert _max_norm_error(got, q @ fb @ q.T) <= 1e-12, (beta, t)


# a stable, normal system: the pair at |arg| 32 degrees lies outside the
# 27-degree sector of alpha = 0.3, but the floor 1e-2 ||A||_F joins it
# into a cluster about sigma = +0.00357, where E(sigma t^alpha) grows
CLUSTER_IN_SECTOR = np.array([[0.00357, 0.002225, 0.0], [-0.002225, 0.00357, 0.0], [0.0, 0.0, -242.0]])


def test_ml_matrix_cluster_about_a_growing_mean_takes_its_eigenbasis():
    # a Taylor sum about sigma overflowed at large t; the block eigenbasis
    # matches the plain eigenvector path at every time
    spec = spectral_decompose(CLUSTER_IN_SECTOR)
    assert [idx.tolist() for idx, _, _ in spec.clusters] == [[1, 2]]
    assert spec.clusters[0][1].real > 0.0
    w, v = np.linalg.eig(CLUSTER_IN_SECTOR)
    ts = np.geomspace(1e-3, 1e12, 61)
    for beta in (1.0, 0.3):
        params = MLParams(0.3, beta)
        got = ml_matrix(params, ts, CLUSTER_IN_SECTOR)
        vals = ml_many(params, np.multiply.outer(ts ** 0.3, w))
        for k in range(ts.size):
            want = ((v * vals[k]) @ np.linalg.inv(v)).real
            assert _max_norm_error(got[k], want) <= 1e-12, (beta, ts[k])


@pytest.mark.parametrize("seed, size", [(1803, 2), (1804, 2), (1805, 3)])
def test_jordan_block_at_the_origin_forms_a_cluster(seed, size):
    # eig splits a nilpotent block under a similarity by 2e-8 (size 2) or
    # 8e-6 (size 3) about 0, far more than 1e-2 of those moduli: the
    # modulus floor 1e-2 ||A||_F still joins them.  A^size = 0, so
    # E_{alpha,beta}(t^alpha A) is the sum over l < size of
    # t^(alpha l) A^l / Gamma(alpha l + beta)
    v = _random_conditioned(np.random.default_rng(seed), size, 10.0)
    a = v @ np.eye(size, k=1) @ np.linalg.inv(v)
    spec = spectral_decompose(a)
    assert [idx.tolist() for idx, _, _ in spec.clusters] == [list(range(size))]
    for beta in (1.0, 0.5):
        params = MLParams(0.5, beta)
        for t in (0.01, 1.0, 30.0):
            want = sum(
                np.linalg.matrix_power(a, l) * t ** (0.5 * l) / math.gamma(0.5 * l + beta)
                for l in range(size)
            )
            assert _max_norm_error(ml_matrix(params, t, a), want) <= 1e-13, (beta, t)


def test_ml_matrix_cluster_gate_sees_past_even_powers():
    # the floor makes [[-1, b], [0, -2]] one cluster once b >= 1e4.  Its N
    # has N^2 = I/4, so N^6 is small while N^7 carries b: the gate must
    # estimate the l = 7 term.  b = 1e5 is then exact through the Taylor
    # sum or the block eigenbasis (condition 2e5); b = 1e12, whose
    # eigenbasis is past 1e8, signals instead of returning a sum that
    # misses the l = 7 term by 4e-7 at t = 0.1
    params = MLParams(0.5, 1.0)
    ts = np.array([1e-3, 0.1, 1.0, 10.0])
    f = ml_many(params, np.multiply.outer(ts ** 0.5, [-1.0, -2.0])).real
    a = np.array([[-1.0, 1e5], [0.0, -2.0]])
    spec = spectral_decompose(a)
    assert len(spec.clusters) == 1
    for k, got in enumerate(ml_matrix(params, ts, a)):
        want = np.array([[f[k, 0], 1e5 * (f[k, 0] - f[k, 1])], [0.0, f[k, 1]]])
        assert _max_norm_error(got, want) <= 1e-13
    a = np.array([[-1.0, 1e12], [0.0, -2.0]])
    with pytest.raises(UnsupportedOrderError):
        ml_matrix(params, 0.1, a)


@pytest.mark.parametrize(
    "a, jordan",
    [
        (ROTATION, None),
        (np.array([[-1.5]]), None),
        (JORDAN2, [0, 1]),
        (np.diag([-1.0, -2.0, -3.0]), None),
        (np.diag([-1.0, -1.009, -1.018]), [0, 1, 2]),
    ],
)
def test_ml_matrix_batched_equals_scalar_calls(a, jordan):
    # jordan: the column indices of the cluster, if any
    spec = spectral_decompose(a)
    assert [idx.tolist() for idx, _, _ in spec.clusters] == ([] if jordan is None else [jordan])
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 60)])
    for params in (MLParams(0.5, 1.0), MLParams(0.7, 0.7)):
        stack = ml_matrix(params, ts, a)
        assert stack.shape == (len(ts),) + a.shape
        for t, got in zip(ts, stack):
            want = ml_matrix(params, t, a)
            assert want.shape == a.shape
            assert got.tobytes() == want.tobytes()
        # the t = 0 slice is rgamma(beta) I, off-diagonal entries exactly 0
        identity = np.eye(a.shape[0]) / math.gamma(params.beta)
        assert np.allclose(stack[0], identity, rtol=1e-13, atol=0.0)


def _per_eigenvalue_reference(params, ts, a, spec):
    """V diag(E(t^alpha lam_j)) V^-1 with every eigenvalue evaluated on its
    own, conjugates included, and the same linear algebra as ml_matrix."""
    v = spec.eigenvectors
    f = np.stack(
        [ml_many(params, ts ** params.alpha * lam) for lam in spec.eigenvalues], axis=1
    )
    vf = v[None, :, :] * f[:, None, :]
    out = np.linalg.solve(v.T, vf.transpose(0, 2, 1)).transpose(0, 2, 1).real
    out[ts == 0.0] = np.eye(len(v)) / math.gamma(params.beta)
    return out


def test_ml_matrix_evaluates_each_conjugate_pair_once(monkeypatch):
    rng = np.random.default_rng(20260418)
    cases = [ROTATION, np.diag([-1.0, -1.0])]
    while len(cases) < 6:
        b = rng.standard_normal((4, 4))
        w = np.linalg.eigvals(b)
        if np.sum(w.imag != 0.0) >= 2:
            cases.append(b - (np.max(w.real) + 0.5) * np.eye(4))
    # times that put t^alpha lam in the series, contour and asymptotic regimes
    ts = np.concatenate([[0.0], np.geomspace(1e-2, 5e3, 25)])
    points = []
    real_ml_many = matfun.ml_many

    def counted(params, z):
        points.append(np.size(z))
        return real_ml_many(params, z)

    monkeypatch.setattr(matfun, "ml_many", counted)
    for a in cases:
        spec = spectral_decompose(a)
        lam = np.array(spec.eigenvalues)
        folded = {complex(x.real, abs(x.imag)) for x in lam}
        for params in (MLParams(0.5, 1.0), MLParams(0.7, 0.7)):
            points.clear()
            got = ml_matrix(params, ts, a)
            assert points == [len(ts) * len(folded)]
            want = _per_eigenvalue_reference(params, ts, a, spec)
            # the series and asymptotic regimes give conj E(z) exactly at
            # conj z, the contour to its roundoff: about 1e-14 of the value,
            # which the eigenbasis passes on scaled by its condition
            bound = 1e-15 * np.linalg.cond(spec.eigenvectors) * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= bound


def _per_call_fold_stack(params, ts, a, spec):
    """ml_matrix's stack with the conjugate fold recomputed on this call;
    a real eigenvalue keeps the real part of its values."""
    lam = np.asarray(spec.eigenvalues)
    flip = (lam.imag < 0.0) & np.isin(lam.conj(), lam)
    distinct, where = np.unique(np.where(flip, lam.conj(), lam), return_inverse=True)
    vals = ml_many(params, np.multiply.outer(ts ** params.alpha, distinct))
    vals = np.where(distinct.imag == 0.0, vals.real, vals)[:, where]
    fvals = np.where(flip, vals.conj(), vals)
    v = spec.eigenvectors
    vf = v[None, :, :] * fvals[:, None, :]
    out = np.linalg.solve(v.T, vf.transpose(0, 2, 1)).transpose(0, 2, 1)
    out[ts == 0.0] = np.eye(len(v)) / math.gamma(params.beta)
    return np.ascontiguousarray(out.real)


def test_ml_matrix_folds_each_spectrum_once():
    rng = np.random.default_rng(1601)
    b = rng.standard_normal((4, 4))
    b -= (np.max(np.linalg.eigvals(b).real) + 0.5) * np.eye(4)
    cases = [ROTATION, np.diag([-1.0, -2.0]), b]
    ts = np.concatenate([[0.0], np.geomspace(1e-2, 5e3, 25)])
    matfun._conjugate_fold.cache_clear()
    for _ in range(3):
        for a in cases:
            spec = spectral_decompose(a)
            for params in (MLParams(0.5, 1.0), MLParams(0.7, 0.7)):
                got = ml_matrix(params, ts, a)
                assert got.tobytes() == _per_call_fold_stack(params, ts, a, spec).tobytes()
    assert matfun._conjugate_fold.cache_info().misses == len(cases)
    for arr in matfun._conjugate_fold(spectral_decompose(ROTATION).eigenvalues):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_ml_matrix_slices_do_not_depend_on_the_stack():
    # the stack is one solve against all of its right-hand sides, so each
    # slice must carry the bits of the one-time call at its time
    rng = np.random.default_rng(140)
    cases = []
    for d in range(1, 6):
        w = -rng.uniform(0.2, 3.0, d)
        v = _random_conditioned(rng, d, 10.0)
        cases.append(v @ np.diag(w) @ np.linalg.inv(v))  # real spectrum
        if d >= 2:
            b = rng.standard_normal((d, d))
            while not np.any(np.linalg.eigvals(b).imag != 0.0):
                b = rng.standard_normal((d, d))
            cases.append(b - (np.max(np.linalg.eigvals(b).real) + 0.5) * np.eye(d))
    # a cluster with a non-trivial basis: a Jordan block under similarity
    v = _random_conditioned(rng, 4, 10.0)
    cases.append(v @ _jordan([(-1.0, 3), (-3.0, 1)]) @ np.linalg.inv(v))
    assert len(spectral_decompose(cases[-1]).clusters[0][0]) == 3
    ts = np.concatenate([[0.0], np.geomspace(1e-2, 5e3, 17)])
    for a in cases:
        for params in (MLParams(0.5, 1.0), MLParams(0.7, 0.7)):
            stack = ml_matrix(params, ts, a)
            for t, got in zip(ts, stack):
                assert got.tobytes() == ml_matrix(params, t, a).tobytes()


def test_ml_matrix_rejects_bad_times():
    params = MLParams(0.5, 1.0)
    for bad in (-1.0, math.nan, math.inf, [0.5, -0.1], [1.0, math.nan], [[1.0]]):
        with pytest.raises(DomainError):
            ml_matrix(params, bad, ROTATION)


def test_ml_matrix_imag_truncation_gate(monkeypatch):
    # spectral data whose eigenvalues are not conjugate-symmetric leaves an
    # O(1) imaginary residue behind
    fake = SpectralData(
        eigenvalues=(-1.0 + 0.3j, -2.0 + 0.0j),
        eigenvectors=np.eye(2, dtype=complex),
    )
    monkeypatch.setattr(matfun, "_decompose", lambda d, raw: fake)
    with pytest.raises(ImagTruncationError):
        ml_matrix(MLParams(0.5, 1.0), 1.0, np.diag([-1.0, -2.0]))


def test_ml_matrix_is_real_on_a_real_eigenvalue_near_a_zero():
    # E_{alpha,beta}(-x) changes sign here (beta < alpha); the contour's
    # imaginary roundoff, 3.2e-17 against a value of 4.8e-9, used to trip
    # the truncation gate
    params = MLParams(0.3, 0.29069195317391205)
    a = [[-0.0026768818634247]]
    t = 1.5541e13
    got = ml_matrix(params, t, a)
    want = ml_many(params, [t ** params.alpha * a[0][0]])[0]
    assert abs(want.imag) > 1e-9 * abs(want.real)
    assert got[0, 0] == want.real


def test_check_spectral_condition_examples():
    r = check_spectral_condition([[-1.0]], 0.5)
    assert r["satisfied"] and r["margin"] == pytest.approx(math.pi - math.pi / 4)
    r = check_spectral_condition(ROTATION, 0.9)
    assert r["satisfied"] and r["margin"] == pytest.approx(0.05 * math.pi)
    r = check_spectral_condition([[1.0]], 0.5)
    assert not r["satisfied"] and r["margin"] == pytest.approx(-math.pi / 4)


def test_check_spectral_condition_zero_eigenvalue():
    r = check_spectral_condition([[0.0, 1.0], [0.0, 0.0]], 0.5)
    assert not r["satisfied"]
    assert r["degenerate"]
    assert r["margin"] == pytest.approx(-0.25 * math.pi)


def test_check_spectral_condition_similarity_invariant():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((3, 3))
        p = _random_conditioned(rng, 3, 30.0)
        b = p @ a @ np.linalg.inv(p)
        ra = check_spectral_condition(a, 0.7)
        rb = check_spectral_condition(b, 0.7)
        assert ra["satisfied"] == rb["satisfied"]
        assert ra["margin"] == pytest.approx(rb["margin"], abs=1e-7)


def test_sup_ml_norm_monotone_cases():
    assert sup_ml_norm([[-1.0]], 0.5) == 1.0
    assert sup_ml_norm([[-1.0]], 0.8) == 1.0
    assert sup_ml_norm(np.diag([-1.0, -3.0]), 0.3) == 1.0
    assert sup_ml_norm(np.diag([-1.0, -3.0]), 0.7) == 1.0


def test_sup_ml_norm_rotation_frozen():
    got = sup_ml_norm(ROTATION, 0.5)
    assert got == pytest.approx(SUP_ROTATION_HALF, abs=5e-4)
    assert got >= 1.0


def test_sup_ml_norm_sector_violation():
    with pytest.raises(SectorViolationError):
        sup_ml_norm([[1.0]], 0.5)
    # eigenvalues 0.1 +/- i sit at |arg| ~ 0.468 pi, inside the 0.95 sector
    with pytest.raises(SectorViolationError):
        sup_ml_norm([[0.1, 1.0], [-1.0, 0.1]], 0.95)


# a non-normal pair whose hump is 10x the identity; s B runs on the
# time scale |s lam|^(-1/alpha), which a fixed time window misses
SCALED_B = np.array([[-1.0, 50.0], [0.0, -2.0]])


@pytest.mark.parametrize("alpha", [0.5, 0.8])
@pytest.mark.parametrize("beta_is_alpha", [False, True])
def test_sup_ml_norm_is_scale_invariant(alpha, beta_is_alpha):
    # E(t^alpha s B) = E((s^(1/alpha) t)^alpha B): the sup does not see s.
    # A window fixed in absolute time read 1.000, 1.055, 5.27, 10.05, 4.29,
    # 1.0 and 1.0 for s = 1e-8 ... 1e8 at alpha = 1/2, beta = 1
    beta = alpha if beta_is_alpha else 1.0
    want = sup_ml_norm(SCALED_B, alpha, beta=beta)
    assert want > 6.0
    for s in 10.0 ** np.arange(-8, 9, 2.0):
        assert sup_ml_norm(s * SCALED_B, alpha, beta=beta) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("alpha, beta", [(0.5, 0.7), (0.3, 0.5), (0.5, 1.8)])
def test_sup_ml_norm_matches_a_dense_scan_for_a_general_beta(alpha, beta):
    # the scan window comes from the spectrum alone, so a beta outside
    # {1, alpha} is covered too; a window from a fitted beta in {1, alpha}
    # onset read 42-64% low on this slow pair
    a = 0.01 * SCALED_B
    ts = np.geomspace(1e-8, 1e14, 20001)
    dense = np.abs(ml_matrix(MLParams(alpha, beta), ts, a)).sum(-1).max()
    got = sup_ml_norm(a, alpha, beta=beta)
    assert got >= (1.0 - 1e-4) * dense
    assert got <= (1.0 + 1e-6) * dense


def test_kernel_integral_scalar_identity():
    # antiderivative identity: the integral telescopes to 1/lambda
    for alpha in (0.3, 0.5, 0.8):
        for lam, want in ((1.0, 1.0), (4.0, 0.25)):
            r = kernel_integral([[-lam]], alpha)
            assert r["value"] == pytest.approx(want, abs=1e-3)
            assert r["tail_bound"] <= 1e-4 * r["value"] + 1e-15


def test_kernel_integral_diagonal_max_norm():
    r = kernel_integral(np.diag([-1.0, -2.0]), 0.5, norm="max")
    assert r["value"] == pytest.approx(1.0, abs=1e-3)


def test_kernel_integral_diagonal_exact_value():
    # the max norm of diag(E(-tau^a), E(-2 tau^a)) is the first entry, whose
    # integral telescopes to exactly 1
    r = kernel_integral(np.diag([-1.0, -2.0]), 0.5)
    assert abs(r["value"] - 1.0) <= 2e-4


def test_kernel_integral_batches_the_propagator(monkeypatch):
    calls = []
    real = matfun._propagators

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(matfun, "_propagators", counted)
    kernel_integral(ROTATION, 0.5)
    # one propagator call per quadrature round, plus the tail constants
    assert len(calls) <= 100


def test_kernel_integral_is_scale_invariant():
    # substituting u = s^(1/alpha) tau gives s * kint(s B) = kint(B); a T*
    # fixed in absolute time gave 9.46e-5 instead of 26 at s = 1e8 and
    # raised TailConvergenceError at s <= 1e-6
    for alpha in (0.5, 0.8):
        want = kernel_integral(SCALED_B, alpha)
        assert want["value"] == pytest.approx(26.0, rel=1e-6)
        for s in 10.0 ** np.arange(-8, 13, 2.0):
            got = kernel_integral(s * SCALED_B, alpha)
            assert s * got["value"] == pytest.approx(want["value"], rel=1e-6)
            assert got["t_star"] == pytest.approx(want["t_star"] * s ** (-1.0 / alpha), rel=1e-6)


def test_norm_kinks_find_the_sign_changes_of_the_rotation():
    # the (0, 0) entry of E_{1/2,1/2}(t^{1/2} ROTATION) changes sign at
    # v = t^alpha = 0.9241388730045915, the only kink of the max norm; the
    # search returns that v from the midpoint of a bracket about 5e-6 t wide
    params = MLParams(0.5, 0.5)
    zero = brentq(lambda t: ml_matrix(params, t, ROTATION)[0, 0], 0.8, 0.9, xtol=1e-15)
    assert math.sqrt(zero) == pytest.approx(0.9241388730045915, rel=1e-9)
    for norm in ("max", "one"):
        kinks = matfun._norm_kinks(ROTATION, 0.5, norm, 2.0 ** 17)
        assert kinks == pytest.approx([zero ** 0.5], rel=5e-6)
    assert matfun._norm_kinks(ROTATION, 0.5, "euclidean", 2.0 ** 17).size == 0
    assert matfun._norm_kinks(np.diag([-1.0, -2.0, -3.0]), 0.5, "max", 2.0 ** 17).size == 0


# alpha = 0.8 (seed 1919 cases of scripts/sweep_kernel.py kint): 21 and 70
# have a complex pair at 1.03 times the sector edge's angle, 54 three real
# eigenvalues and two max-row handovers 0.0015 apart in v, around a sign
# change of an entry of the row they hand over from
SWEEP_CASES = [
    np.array([[-1.817215126853689, -1.007586352093883, -2.573046523631216],
              [-0.5619625832651806, 0.06621818679835438, -0.12856550827901803],
              [-0.40715269940703464, -1.0118035380931183, -0.7629699398051341]]),
    np.array([[7.7960871948873285, -6.972445346506826, 42.80764834600546],
              [13.153934808483678, -11.86856729735525, 70.7403432614465],
              [-0.6935492363247616, 0.6236970252250967, -3.6218151464463224]]),
    np.array([[-2.667571429395939, 3.6604254304958697, 3.584451582976751],
              [-1.1371146377783228, 1.4521809085492428, 1.675290789924057],
              [0.8814728990713531, -1.5934864979901957, -1.028360862674013]]),
]


@pytest.mark.parametrize("a", SWEEP_CASES, ids=["case-21", "case-70", "case-54"])
def test_kernel_integral_meets_its_tolerance_on_a_sweep_case(a):
    # on 21 and 70 one uncut span ran out of its panel budget at an error
    # estimate of 0.01-0.1 and read 2.1e-6 and 4.3e-6 high; on 54 a start cut
    # at that entry's zero, where the row no longer attains the norm, read
    # 1.2e-6 low at an error estimate of 1.4e-9.  The reference integrates
    # through the eigenvectors and ml_many, not ml_matrix
    got = kernel_integral(a, 0.8)
    ref = sweep_kernel.dense_kint(a, 0.8, got["t_star"], panels=20000) + got["tail_bound"]
    assert got["value"] == pytest.approx(ref, rel=1e-7)


def test_kernel_integral_sector_violation():
    with pytest.raises(SectorViolationError):
        kernel_integral([[1.0]], 0.5)


def test_decay_along_decades():
    rng = np.random.default_rng(11)
    params = MLParams(0.6, 1.0)
    for _ in range(5):
        d = int(rng.integers(2, 4))
        # stable by construction: negative diagonal dominating the coupling
        a = -np.diag(rng.uniform(0.5, 3.0, d)) + 0.1 * rng.standard_normal((d, d))
        if not check_spectral_condition(a, 0.6)["satisfied"]:
            continue
        norms = [
            np.linalg.norm(ml_matrix(params, t, a), np.inf)
            for t in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)
        ]
        assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))
        assert norms[-1] < 1e-2
