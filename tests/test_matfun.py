"""Tests for matrix Mittag-Leffler evaluation and the kernel quantities."""

import math

import numpy as np
import pytest

from fracstab import matfun
from fracstab.errors import (
    DefectiveMatrixError,
    DomainError,
    ImagTruncationError,
    SectorViolationError,
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
    assert spec.condition_estimate == 1.0


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


def test_spectral_decompose_dimension_cap():
    rng = np.random.default_rng(7)
    with pytest.raises(DomainError):
        spectral_decompose(rng.standard_normal((65, 65)))


def test_defective_matrix_signals():
    # rank oracle: geometric multiplicity of the double eigenvalue is one
    assert np.linalg.matrix_rank(JORDAN2 + 2.0 * np.eye(2)) == 1
    with pytest.raises(DefectiveMatrixError):
        spectral_decompose(JORDAN2)
    spec = spectral_decompose(JORDAN2, jordan_structure=[(0, 2)])
    assert spec.jordan_structure == ((0, 2),)
    assert np.allclose(np.array(spec.eigenvalues), -2.0, atol=1e-6)


def test_ill_conditioned_eigenbasis_signals():
    # distinct eigenvalues but a nearly parallel eigenbasis
    a = np.array([[-1.0, 1e9], [0.0, -1.0 - 1e-6]])
    with pytest.raises(DefectiveMatrixError):
        spectral_decompose(a)


def test_jordan_structure_validation():
    with pytest.raises(DomainError):
        spectral_decompose(JORDAN2, jordan_structure=[(0, 3)])
    with pytest.raises(DomainError):
        spectral_decompose(JORDAN2, jordan_structure=[(1, 1)])
    with pytest.raises(DomainError):
        spectral_decompose(np.diag(np.arange(1.0, 9.0) * -1.0), jordan_structure=[(0, 8)])


def test_ml_matrix_at_time_zero():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    spec = spectral_decompose(a)
    for beta in (1.0, 0.7):
        out = ml_matrix(MLParams(0.6, beta), 0.0, a, spec)
        assert np.allclose(out, np.eye(3) / math.gamma(beta), rtol=1e-13)


def test_ml_matrix_rotation_is_exponential():
    spec = spectral_decompose(ROTATION)
    out = ml_matrix(MLParams(1.0, 1.0), 1.0, ROTATION, spec)
    want = np.array([[math.cos(1.0), math.sin(1.0)], [-math.sin(1.0), math.cos(1.0)]])
    assert np.allclose(out, want, atol=1e-12)


def test_ml_matrix_rotation_half_order():
    # f(ROTATION) = Re f(i) I + Im f(i) ROTATION for entire f
    spec = spectral_decompose(ROTATION)
    out = ml_matrix(MLParams(0.5, 1.0), 1.0, ROTATION, spec)
    want = E_HALF_I.real * np.eye(2) + E_HALF_I.imag * ROTATION
    assert np.allclose(out, want, rtol=1e-10)


def test_ml_matrix_diagonal_reduces_to_scalar():
    a = np.diag([-1.0, -2.0])
    spec = spectral_decompose(a)
    params = MLParams(0.5, 1.0)
    out = ml_matrix(params, 1.0, a, spec)
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
        try:
            spec = spectral_decompose(a)
        except DefectiveMatrixError:
            continue
        params = MLParams(alpha, 1.0)
        out = ml_matrix(params, t, a, spec)
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
        try:
            fa = ml_matrix(params, 0.8, a, spectral_decompose(a))
            fb = ml_matrix(params, 0.8, b, spectral_decompose(b))
        except DefectiveMatrixError:
            continue
        want = p @ fa @ np.linalg.inv(p)
        bound = 1e-7 * np.linalg.norm(fa, np.inf) * cond_p
        assert np.linalg.norm(fb - want, np.inf) <= bound


def test_ml_matrix_jordan_block_formula():
    params = MLParams(0.5, 1.0)
    t = 1.3
    spec = spectral_decompose(JORDAN2, jordan_structure=[(0, 2)])
    out = ml_matrix(params, t, JORDAN2, spec)
    n1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    want = ml(params, -2.0 * t ** 0.5).real * np.eye(2) + ml_dlambda(
        params, t, -2.0, 1
    ).real * n1
    assert np.allclose(out, want, rtol=1e-12, atol=1e-14)

    j3 = np.array([[-1.5, 1.0, 0.0], [0.0, -1.5, 1.0], [0.0, 0.0, -1.5]])
    spec3 = spectral_decompose(j3, jordan_structure=[(0, 3)])
    out3 = ml_matrix(params, t, j3, spec3)
    n = j3 + 1.5 * np.eye(3)
    want3 = (
        ml(params, -1.5 * t ** 0.5).real * np.eye(3)
        + ml_dlambda(params, t, -1.5, 1).real * n
        + 0.5 * ml_dlambda(params, t, -1.5, 2).real * (n @ n)
    )
    assert np.allclose(out3, want3, rtol=1e-11, atol=1e-14)


@pytest.mark.parametrize(
    "a, jordan",
    [(ROTATION, None), (np.array([[-1.5]]), None), (JORDAN2, [(0, 2)])],
)
def test_ml_matrix_batched_equals_scalar_calls(a, jordan):
    spec = spectral_decompose(a, jordan_structure=jordan)
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 60)])
    for params in (MLParams(0.5, 1.0), MLParams(0.7, 0.7)):
        stack = ml_matrix(params, ts, a, spec)
        assert stack.shape == (len(ts),) + a.shape
        for t, got in zip(ts, stack):
            want = ml_matrix(params, t, a, spec)
            assert want.shape == a.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
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
            got = ml_matrix(params, ts, a, spec)
            assert points == [len(ts) * len(folded)]
            want = _per_eigenvalue_reference(params, ts, a, spec)
            # the series and asymptotic regimes give conj E(z) exactly at
            # conj z, the contour to its roundoff: about 1e-14 of the value,
            # which the eigenbasis passes on scaled by its condition
            bound = 1e-15 * spec.condition_estimate * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= bound


def _per_call_fold_stack(params, ts, a, spec):
    """ml_matrix's stack with the conjugate fold recomputed on this call."""
    lam = np.asarray(spec.eigenvalues)
    flip = (lam.imag < 0.0) & np.isin(lam.conj(), lam)
    distinct, where = np.unique(np.where(flip, lam.conj(), lam), return_inverse=True)
    vals = ml_many(params, np.multiply.outer(ts ** params.alpha, distinct))[:, where]
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
                got = ml_matrix(params, ts, a, spec)
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
    ts = np.concatenate([[0.0], np.geomspace(1e-2, 5e3, 17)])
    for a in cases:
        spec = spectral_decompose(a)
        for params in (MLParams(0.5, 1.0), MLParams(0.7, 0.7)):
            stack = ml_matrix(params, ts, a, spec)
            for t, got in zip(ts, stack):
                assert got.tobytes() == ml_matrix(params, t, a, spec).tobytes()


def test_ml_matrix_rejects_bad_times():
    spec = spectral_decompose(ROTATION)
    params = MLParams(0.5, 1.0)
    for bad in (-1.0, math.nan, math.inf, [0.5, -0.1], [1.0, math.nan], [[1.0]]):
        with pytest.raises(DomainError):
            ml_matrix(params, bad, ROTATION, spec)


def test_ml_matrix_imag_truncation_gate():
    # spectral data whose eigenvalues are not conjugate-symmetric leaves an
    # O(1) imaginary residue behind
    fake = SpectralData(
        eigenvalues=(-1.0 + 0.3j, -2.0 + 0.0j),
        eigenvectors=np.eye(2, dtype=complex),
        condition_estimate=1.0,
    )
    with pytest.raises(ImagTruncationError):
        ml_matrix(MLParams(0.5, 1.0), 1.0, np.diag([-1.0, -2.0]), fake)


def test_ml_matrix_dimension_mismatch():
    spec = spectral_decompose(np.diag([-1.0, -2.0]))
    with pytest.raises(DomainError):
        ml_matrix(MLParams(0.5, 1.0), 1.0, np.diag([-1.0, -2.0, -3.0]), spec)


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
    real = matfun.ml_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(matfun, "ml_matrix", counted)
    kernel_integral(ROTATION, 0.5)
    # one propagator call per quadrature round, plus the tail constants
    assert len(calls) <= 100


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
        spec = spectral_decompose(a)
        norms = [
            np.linalg.norm(ml_matrix(params, t, a, spec), np.inf)
            for t in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)
        ]
        assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))
        assert norms[-1] < 1e-2
