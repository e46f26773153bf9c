"""Matrix-argument Mittag-Leffler propagators and spectral certificates.

Evaluates E_{alpha,beta}(t^alpha A) through the eigendecomposition of A,
checks the eigenvalue sector condition, and computes the two kernel
quantities the stability certificates are built on: the supremum of
||E_alpha(t^alpha A)|| over t >= 0 and the improper integral of
tau^(alpha-1) ||E_{alpha,alpha}(tau^alpha A)||.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DefectiveMatrixError,
    DomainError,
    ImagTruncationError,
    SectorViolationError,
    TailConvergenceError,
)
from .norms import check_norm, operator_norm
from .quad import _gk21_quad
from .special_fn import (
    MLParams,
    _ml_dlambda_many,
    _order_value,
    _rgamma,
    estimate_decay_constant,
    ml_many,
)

_DIM_CAP = 64
_DEFECT_COND = 1e8       # past this the eigenbasis loses half the mantissa
_BLOCK_CAP = 7           # largest declared block; needs derivatives l <= 6
_IMAG_TRUNC = 1e-9
_SUP_STABILIZE = 1e-4
_TAIL_FRACTION = 1e-4
_T_STAR_CAP = 1e8


def as_square_matrix(a):
    """Validate a real square matrix and return it as a float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DomainError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a system matrix, ordered by (real, imag).

    jordan_structure, when present, is a user-declared tuple of
    (eigenvalue index, block size) pairs that partitions the spectrum;
    the package never infers Jordan chains numerically.
    """

    eigenvalues: tuple
    eigenvectors: np.ndarray
    condition_estimate: float
    jordan_structure: Optional[tuple] = None

    def arg_margin(self, alpha):
        """min over eigenvalues of |arg lambda| - alpha*pi/2."""
        a = _order_value(alpha)
        args = [abs(cmath.phase(lam)) for lam in self.eigenvalues]
        return min(args) - 0.5 * a * math.pi


def _validate_jordan(structure, d):
    blocks = []
    for entry in structure:
        idx, size = entry
        idx = int(idx)
        size = int(size)
        if size < 1 or size > _BLOCK_CAP:
            raise DomainError(f"jordan block size {size} outside 1..{_BLOCK_CAP}")
        blocks.append((idx, size))
    blocks.sort()
    # blocks consume consecutive eigenvalue indices and must cover them all
    expected = 0
    for idx, size in blocks:
        if idx != expected:
            raise DomainError("jordan blocks must partition the eigenvalue indices")
        expected += size
    if expected != d:
        raise DomainError("jordan block sizes must sum to the dimension")
    return tuple(blocks)


def spectral_decompose(a, jordan_structure=None):
    """Eigenvalues and eigenvectors of a, sorted by (real, imag).

    Raises the defectiveness signal when the eigenvector matrix condition
    estimate exceeds 1e8 and no jordan_structure was declared.
    """
    m = as_square_matrix(a)
    d = m.shape[0]
    if d > _DIM_CAP:
        raise DomainError(f"dimension {d} exceeds the cap {_DIM_CAP}")
    w, v = np.linalg.eig(m)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]
    svals = np.linalg.svd(v, compute_uv=False)
    cond = math.inf if svals[-1] == 0.0 else float(svals[0] / svals[-1])
    cond = max(1.0, cond)
    jordan = None
    if jordan_structure is not None:
        jordan = _validate_jordan(jordan_structure, d)
    elif not cond < _DEFECT_COND:
        raise DefectiveMatrixError(
            f"eigenvector condition estimate {cond:.3e} exceeds {_DEFECT_COND:.0e}; "
            "declare a jordan_structure to evaluate this matrix"
        )
    return SpectralData(
        eigenvalues=tuple(w.tolist()),
        eigenvectors=v,
        condition_estimate=cond,
        jordan_structure=jordan,
    )


def _hermite_nodes(spec):
    """Interpolation nodes with multiplicities from the declared blocks.

    Each block contributes its eigenvalue cluster mean, which restores an
    exactly real (or exactly conjugate) node from the numerically split
    copies returned by the eigensolver.
    """
    w = np.asarray(spec.eigenvalues)
    nodes = []
    reps = []
    for idx, size in spec.jordan_structure:
        lam = complex(np.mean(w[idx : idx + size]))
        if abs(lam.imag) <= 1e-14 * max(1.0, abs(lam.real)):
            lam = complex(lam.real, 0.0)
        nodes.extend([lam] * size)
        reps.append((lam, size))
    return nodes, reps


def _ml_matrix_jordan(params, ts, m, spec):
    # Hermite interpolation polynomial of lambda -> E_{alpha,beta}(t^alpha
    # lambda) on the declared spectrum; equals the per-block nilpotent sum
    # Sigma_{l<size} ml_dlambda(l)/l! N^l without needing a Jordan basis.
    d = m.shape[0]
    nodes, reps = _hermite_nodes(spec)
    derivs = {}
    for lam, size in reps:
        for l in range(size):
            derivs[(lam, l)] = (
                _ml_dlambda_many(params.alpha, params.beta, ts, lam, l) / math.factorial(l)
            )
    # confluent divided differences: repeated nodes take derivative values
    table = [derivs[(lam, 0)] for lam in nodes]
    coeffs = [table[0]]
    for level in range(1, d):
        nxt = []
        for j in range(d - level):
            if nodes[j + level] == nodes[j]:
                nxt.append(derivs[(nodes[j], level)])
            else:
                nxt.append((table[j + 1] - table[j]) / (nodes[j + level] - nodes[j]))
        table = nxt
        coeffs.append(table[0])
    mc = m.astype(complex)
    eye = np.eye(d, dtype=complex)
    out = coeffs[-1][:, None, None] * eye
    for k in range(d - 2, -1, -1):
        out = coeffs[k][:, None, None] * eye + (mc - nodes[k] * eye) @ out
    return out


def ml_matrix(params, t, a, spec):
    """E_{alpha,beta}(t^alpha A) from the spectral data of A.

    `t` is a time or a 1-d array of times; an array gives the (n, d, d)
    stack of the propagators at those times.  Output imaginary parts at or
    below 1e-9 of the output norm are truncated; larger residues, in any
    slice, raise a truncation failure.
    """
    if not isinstance(params, MLParams):
        raise DomainError("ml_matrix expects MLParams")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise DomainError("ml_matrix takes a time or a 1-d array of times")
    if not np.all(np.isfinite(ts)) or np.any(ts < 0.0):
        raise DomainError(f"ml_matrix requires finite t >= 0, got {t!r}")
    m = as_square_matrix(a)
    d = m.shape[0]
    if d != len(spec.eigenvalues):
        raise DomainError("spectral data dimension does not match the matrix")
    times = np.atleast_1d(ts)
    if spec.jordan_structure is not None:
        out = _ml_matrix_jordan(params, times, m, spec)
    else:
        lam = np.asarray(spec.eigenvalues)
        fvals = ml_many(params, np.multiply.outer(times ** params.alpha, lam))
        v = spec.eigenvectors
        vf = v[None, :, :] * fvals[:, None, :]
        out = np.linalg.solve(v.T, vf.transpose(0, 2, 1)).transpose(0, 2, 1)
    out[times == 0.0] = np.eye(d) * _rgamma(params.beta)
    scale = operator_norm(np.abs(out))
    residue = operator_norm(out.imag)
    bad = np.flatnonzero(residue > _IMAG_TRUNC * scale)
    if bad.size:
        k = bad[0]
        raise ImagTruncationError(
            f"imaginary residue {residue[k]:.3e} exceeds {_IMAG_TRUNC:.0e} "
            f"of the norm {scale[k]:.3e} at t = {times[k]:g}"
        )
    out = np.ascontiguousarray(out.real)
    return out[0] if ts.ndim == 0 else out


def check_spectral_condition(a, alpha):
    """Sector condition |arg lambda| > alpha*pi/2 for every eigenvalue.

    A zero eigenvalue reports satisfied=False with margin -alpha*pi/2 and
    the degenerate flag set.
    """
    m = as_square_matrix(a)
    al = _order_value(alpha)
    w = np.linalg.eigvals(m)
    w = w[np.lexsort((w.imag, w.real))]
    half = 0.5 * al * math.pi
    scale = float(np.max(np.abs(w)))
    degenerate = bool(scale == 0.0 or np.any(np.abs(w) <= 1e-14 * scale))
    if degenerate:
        margin = -half
    else:
        margin = float(np.min(np.abs(np.angle(w)))) - half
    return {
        "satisfied": (not degenerate) and margin > 0.0,
        "margin": margin,
        "eigenvalues": w.tolist(),
        "degenerate": degenerate,
    }


def _require_sector(a, alpha):
    verdict = check_spectral_condition(a, alpha)
    if not verdict["satisfied"]:
        raise SectorViolationError(
            f"eigenvalue sector condition fails with margin {verdict['margin']:.6f}"
        )
    return verdict


def _slowest_onset(eigenvalues, alpha, which):
    t0 = 0.0
    for lam in eigenvalues:
        t0 = max(t0, estimate_decay_constant(alpha, lam, 0, which).t0)
    return t0


def sup_ml_norm(a, alpha, norm="max", spec=None, beta=1.0):
    """sup over t >= 0 of ||E_{alpha,beta}(t^alpha A)|| in the induced norm.

    Maximizes over a geometric grid on {0} union [1e-3, T_cut], densifying
    around the running maximum until it stabilizes to 1e-4; the decay
    envelope guarantees no larger values beyond T_cut.  Result is at least
    the t = 0 value (the identity for beta = 1, so >= 1 there).  The onset
    heuristic for T_cut assumes beta is either 1 or alpha.
    """
    m = as_square_matrix(a)
    al = _order_value(alpha)
    beta = float(beta)
    check_norm(norm)
    _require_sector(m, al)
    if spec is None:
        spec = spectral_decompose(m)
    params = MLParams(al, beta)
    which = "E_alpha" if beta == 1.0 else "E_alpha_alpha"
    t_cut = max(100.0, 10.0 * _slowest_onset(spec.eigenvalues, al, which))

    def value(t):
        return operator_norm(ml_matrix(params, t, m, spec), norm)

    # the t = 0 propagator is rgamma(beta) * I; for beta = 1 that is the
    # identity exactly, so bypass the gamma roundoff there
    floor = 1.0 if beta == 1.0 else value(0.0)
    ts = np.geomspace(1e-3, t_cut, 240)
    vals = value(ts)
    best = max(floor, float(vals.max()))
    for _ in range(30):
        k = int(np.argmax(vals))
        lo = ts[k - 1] if k > 0 else ts[0]
        hi = ts[k + 1] if k + 1 < len(ts) else ts[-1]
        if hi <= lo:
            break
        fine = np.geomspace(lo, hi, 33)
        fvals = value(fine)
        ts = np.concatenate([ts, fine])
        vals = np.concatenate([vals, fvals])
        order = np.argsort(ts)
        ts = ts[order]
        vals = vals[order]
        new_best = max(floor, float(vals.max()))
        if new_best - best <= _SUP_STABILIZE * best:
            best = new_best
            break
        best = new_best
    return best


def kernel_integral(a, alpha, norm="max", spec=None, t_star=None, right=None):
    """Integral over tau >= 0 of tau^(alpha-1) ||E_{alpha,alpha}(tau^alpha A)||.

    The substitution v = tau^alpha removes the endpoint singularity exactly,
    leaving (1/alpha) * integral of ||E_{alpha,alpha}(v A)|| dv on the finite
    part [0, T*^alpha].  That part is an adaptive 21-point Gauss–Kronrod
    quadrature, and each of its refinement rounds is one ml_matrix call on
    every node of the round.  The tail beyond T* is bounded through the decay
    envelope ||E|| <= M_hat / tau^(2 alpha) with empirically estimated M_hat,
    and T* grows until tail_bound <= 1e-4 * value.  Returns the dict
    {value, tail_bound, t_star} with the tail estimate included in value.

    With `right` set to a constant matrix the integrand becomes the norm of
    the matrix product E_{alpha,alpha}(tau^alpha A) @ right, which is the
    horizon limit of the contraction integral for a perturbation that
    settles at that matrix.
    """
    m = as_square_matrix(a)
    al = _order_value(alpha)
    check_norm(norm)
    _require_sector(m, al)
    if spec is None:
        spec = spectral_decompose(m)
    params = MLParams(al, al)
    if right is not None:
        right = as_square_matrix(right)
        if right.shape != m.shape:
            raise DomainError(
                f"right factor is {right.shape[0]}x{right.shape[1]}, "
                f"expected {m.shape[0]}x{m.shape[1]}"
            )
        if not np.any(right):
            return {"value": 0.0, "tail_bound": 0.0, "t_star": 0.0}

    def propagator(t):
        e = ml_matrix(params, t, m, spec)
        return e if right is None else e @ right

    def enorm_v(v):
        # integrand after substitution on an array of v = tau^alpha
        return operator_norm(propagator(v ** (1.0 / al)), norm)

    def m_hat(tau_star):
        taus = np.geomspace(tau_star, 100.0 * tau_star, 49)
        return float(np.max(operator_norm(propagator(taus), norm) * taus ** (2.0 * al)))

    onset = _slowest_onset(spec.eigenvalues, al, "E_alpha_alpha")
    star = max(10.0, 2.0 * onset)
    finite = 0.0
    v_done = 0.0
    while True:
        v_star = star ** al
        part, _ = _gk21_quad(
            enorm_v, v_done, v_star, epsabs=1e-12, epsrel=1e-9, limit=400
        )
        finite += part / al
        v_done = v_star
        mh = m_hat(star)
        tail = mh * star ** (-al) / al
        value = finite + tail
        if tail <= _TAIL_FRACTION * value:
            break
        # jump near the split point that meets the tail fraction, with the
        # cap applied to the quadrature domain of the substituted variable
        target = (mh / (al * _TAIL_FRACTION * value)) ** (1.0 / al)
        star = max(2.0 * star, 1.25 * target)
        if star ** al > _T_STAR_CAP:
            raise TailConvergenceError(
                f"tail bound still {tail:.3e} of the value at T* = {star:.3e}"
            )
    if t_star is not None:
        # extend the finite part to a caller-chosen larger split point
        t_star = float(t_star)
        if t_star > star:
            v_star = t_star ** al
            part, _ = _gk21_quad(
                enorm_v, v_done, v_star, epsabs=1e-12, epsrel=1e-9, limit=400
            )
            finite += part / al
            star = t_star
            tail = m_hat(star) * star ** (-al) / al
            value = finite + tail
    return {"value": value, "tail_bound": tail, "t_star": star}
