"""Matrix-argument Mittag-Leffler propagators and spectral certificates.

Evaluates E_{alpha,beta}(t^alpha A) through a spectral basis of A,
checks the eigenvalue sector condition, and computes the two kernel
quantities the stability certificates are built on: the supremum of
||E_alpha(t^alpha A)|| over t >= 0 and the improper integral of
tau^(alpha-1) ||E_{alpha,alpha}(tau^alpha A)||.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    FracstabError,
    ImagTruncationError,
    SectorViolationError,
    TailConvergenceError,
    UnsupportedOrderError,
)
from .norms import check_norm, operator_norm
from .quad import _gk21_family
from .special_fn import (
    _DERIV_CAP,
    MLParams,
    _ml_dlambda_many,
    _order_value,
    _rgamma,
    ml_many,
)

_DIM_CAP = 64
_CLUSTER_TOL = 1e-2      # relative eigenvalue distance that joins a cluster
_CLUSTER_FLOOR = 1e-2    # of ||A||_F: the least modulus the distance is relative to
_TAYLOR_TAIL = 1e-13     # the last Taylor term must fall below this of the block
_BLOCK_EIG_COND = 1e8    # past this a block eigenbasis loses half the mantissa
_BASIS_COND = 1e4        # below this a cluster's eigenvectors span its subspace
_LEAK_TOL = 1e-10        # of max|A|: the largest S^-1 A S entry off the blocks
_IMAG_TRUNC = 1e-9
_SUP_STABILIZE = 1e-4
_TAIL_FRACTION = 1e-4
_T_STAR_CAP = 1e8


def as_square_matrix(a):
    """Validate a real square matrix and return it as a float array.  Its
    entries must be finite with a finite absolute sum, which bounds every
    supported operator norm; Python's float sum overflows to inf, carries
    nan and never warns."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DomainError("expected a square matrix")
    if not math.isfinite(sum(np.abs(m.ravel()).tolist())):
        raise DomainError("matrix entries must be finite, with a finite sum")
    return m


@dataclass(frozen=True)
class SpectralData:
    """Spectral basis S of a system matrix, eigenvalues ordered by (real, imag).

    Eigenvalues closer than 1e-2 of the larger modulus (floored at
    1e-2 ||A||_F, so a defective block at the origin joins too), chained,
    form a cluster.  A column of S for an eigenvalue outside every cluster
    is its `np.linalg.eig` eigenvector; a cluster's columns are an
    orthonormal basis of its invariant subspace.  `clusters` holds one
    (indices, sigma, N) triple per cluster: its column indices, its
    eigenvalue mean sigma and its block N = (S^-1 A S)_cc - sigma I.
    """

    eigenvalues: tuple
    eigenvectors: np.ndarray
    clusters: tuple = ()


def _clusters(w, norm_a):
    """Index arrays of the clusters of w: the components of two or more
    eigenvalues in the graph |lam_i - lam_j| <= 1e-2 max(m_i, m_j), with
    m_i = max(|lam_i|, 1e-2 ||A||_F)."""
    mod = np.maximum(np.abs(w), _CLUSTER_FLOOR * norm_a)
    close = np.abs(w[:, None] - w[None, :]) <= _CLUSTER_TOL * np.maximum.outer(mod, mod)
    # pass the smallest index along the edges until each component holds it
    label = np.arange(len(w))
    while True:
        nxt = np.where(close, label, len(w)).min(axis=1)
        if (nxt == label).all():
            break
        label = nxt
    return [np.flatnonzero(label == k) for k in np.flatnonzero(np.bincount(label) > 1)]


def _invariant_basis(m, w, v, idx):
    """Orthonormal basis of the invariant subspace of the eigenvalues w[idx]:
    the QR of their eigenvectors v[:, idx] when those have condition below
    1e4, else the null space of the product of the cluster's own normalised
    factors (A - lam I), which a near-defective cluster needs."""
    if np.linalg.cond(v[:, idx]) < _BASIS_COND:
        return np.linalg.qr(v[:, idx])[0]
    eye = np.eye(m.shape[0])
    p = eye.astype(complex)
    for lam in w[idx]:
        f = m - lam * eye
        p = (f / max(np.abs(f).max(), 1e-300)) @ p
    return np.linalg.svd(p)[2][-idx.size :].conj().T


@functools.lru_cache(maxsize=64)
def _decompose(d, raw):
    """Read-only spectral data of the d x d matrix whose float64 bytes are
    raw, computed once per distinct matrix."""
    if d > _DIM_CAP:
        raise DomainError(f"dimension {d} exceeds the cap {_DIM_CAP}")
    m = np.frombuffer(raw).reshape(d, d)
    w, v = np.linalg.eig(m)
    order = np.lexsort((w.imag, w.real))
    w, v = w[order], v[:, order]
    # the Frobenius norm, free of the overflow np.linalg.norm meets past 1e154
    groups = _clusters(w, math.hypot(*m.ravel().tolist()))
    clusters = ()
    if groups:
        v = v.astype(complex)
        leak = ~np.eye(d, dtype=bool)
        for idx in groups:
            v[:, idx] = _invariant_basis(m, w, v, idx)
            leak[np.ix_(idx, idx)] = False
        reduced = np.linalg.solve(v, m @ v)
        # S^-1 A S must be diagonal outside the cluster blocks: a basis
        # that leaks into another eigenspace is a failure, never silent
        worst = np.abs(reduced[leak]).max(initial=0.0)
        if not worst <= _LEAK_TOL * np.abs(m).max():
            raise FracstabError(f"cluster basis leaks: S^-1 A S reads {worst:.3e} off its blocks")
        for idx in groups:
            sigma = complex(np.mean(w[idx]))
            clusters += ((idx, sigma, reduced[np.ix_(idx, idx)] - sigma * np.eye(idx.size)),)
    v.flags.writeable = False
    for idx, _, block in clusters:
        idx.flags.writeable = block.flags.writeable = False
    return SpectralData(eigenvalues=tuple(w.tolist()), eigenvectors=v, clusters=clusters)


def spectral_decompose(a):
    """Eigenvalues, sorted by (real, imag), and the spectral basis of a.

    A spectrum without clusters keeps the eigenvector matrix of
    `np.linalg.eig`; each cluster gets its invariant-subspace basis and its
    block (see SpectralData), and a basis that leaks raises.  The data is
    computed once per matrix and cached read-only: equal ones share it.
    """
    m = as_square_matrix(a)
    return _decompose(m.shape[0], m.tobytes())


@functools.lru_cache(maxsize=64)
def _conjugate_fold(eigenvalues):
    """Read-only (flip, distinct, where) of a spectrum: which eigenvalues
    fold onto their conjugate, the distinct folded values, and each
    eigenvalue's index into them."""
    lam = np.asarray(eigenvalues)
    flip = (lam.imag < 0.0) & np.isin(lam.conj(), lam)
    distinct, where = np.unique(np.where(flip, lam.conj(), lam), return_inverse=True)
    for arr in (flip, distinct, where):
        arr.flags.writeable = False
    return flip, distinct, where


def _ml_spectrum(params, v, eigenvalues):
    """(n, d) values E_{alpha,beta}(v lam) at every scaled time and eigenvalue.

    E(conj z) = conj E(z), so an eigenvalue whose exact conjugate is also in
    the spectrum (as LAPACK returns them for a real matrix) is folded onto
    the upper half-plane; each distinct folded value is evaluated once.  The
    fold is computed once per spectrum.  By the same symmetry E is real on
    the real axis, so a real eigenvalue keeps only the real part of its
    values, dropping the contour's roundoff residue.
    """
    flip, distinct, where = _conjugate_fold(eigenvalues)
    vals = ml_many(params, np.multiply.outer(v, distinct))
    vals = np.where(distinct.imag == 0.0, vals.real, vals)[:, where]
    return np.where(flip, vals.conj(), vals)


def _cluster_block(params, v, f0, sigma, block):
    """(n, k, k) stack of a cluster's block of E_{alpha,beta}(v A) at the
    scaled times v = t^alpha: the Taylor sum over l <= 6 of v^l E^(l)(sigma
    v)/l! N^l, with the order-0 values f0 given, at each v where its l = 6
    term and an estimate of the l = 7 one fall below 1e-13 of the block
    (N^2 = c I makes N^6 small but not N^7).  At other v the block comes
    from the eigenbasis W of sigma I + N; a W with condition 1e8 or more
    raises the unsupported-order signal."""
    k = block.shape[0]
    out = f0[:, None, None] * np.eye(k)
    power, coeff = np.eye(k, dtype=complex), None
    for l in range(1, _DERIV_CAP + 1):
        power = power @ block
        if not power.any():
            return out
        prev, coeff = coeff, _ml_dlambda_many(params.alpha, params.beta, v, sigma, l)
        coeff = coeff / math.factorial(l)
        out = out + coeff[:, None, None] * power
    # the l = 7 coefficient, extrapolated by the ratio of the last two
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(prev == 0.0, 0.0, np.abs(coeff / prev)) / (_DERIV_CAP + 1)
    norm6, norm7 = (np.abs(p).sum(-1).max() for p in (power, power @ block))
    last = np.abs(coeff) * np.maximum(norm6, ratio * norm7)
    scale = np.abs(out).sum(-1).max(-1)
    bad = ~(last <= _TAYLOR_TAIL * scale)
    if bad.any():
        mu, w = np.linalg.eig(block + sigma * np.eye(k))
        cond = np.linalg.cond(w)
        if not cond < _BLOCK_EIG_COND:
            j = np.flatnonzero(bad)[0]
            raise UnsupportedOrderError(
                f"cluster at {sigma:.6g} needs Taylor terms past order {_DERIV_CAP} at "
                f"t^alpha = {v[j]:g} and its eigenbasis condition is {cond:.3e}")
        vals = ml_many(params, np.multiply.outer(v[bad], mu))
        out[bad] = (w * vals[:, None, :]) @ np.linalg.inv(w)
    return out


def ml_matrix(params, t, a):
    """E_{alpha,beta}(t^alpha A) from the cached spectral data of A.

    `t` is a time or a 1-d array of times; an array gives the (n, d, d)
    stack of the propagators at those times.  Output imaginary parts at or
    below 1e-9 of the output norm are truncated; any other residue (larger,
    nan or inf) raises a truncation failure.  The propagator depends on t
    only through the scaled time v = t^alpha: this checks the inputs, forms
    v once and leaves the rest to `_propagators`.
    """
    if not isinstance(params, MLParams):
        raise DomainError("ml_matrix expects MLParams")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise DomainError("ml_matrix takes a time or a 1-d array of times")
    if not np.isfinite(ts).all() or (ts < 0.0).any():
        raise DomainError(f"ml_matrix requires finite t >= 0, got {t!r}")
    out = _propagators(params, np.atleast_1d(ts) ** params.alpha, as_square_matrix(a))
    return out[0] if ts.ndim == 0 else out


def _propagators(params, v, m):
    """(n, d, d) stack of E_{alpha,beta}(v A) at the 1-d array of scaled
    times v = t^alpha >= 0, for a matrix m that `as_square_matrix` passed.

    The propagator is S F S^-1 with S the spectral basis.  F is diagonal,
    E_{alpha,beta}(v lam) per eigenvalue, except on a cluster, whose block
    is the Taylor sum of the cluster's N about its mean up to order 6, or
    the block's own eigendecomposition at a v where that sum has not
    converged.  A cluster whose mean lies in the sector |arg| <= alpha pi /
    2, where E(sigma v) grows, takes that eigendecomposition at every v
    when its condition is below 1e8.  The order-0 values of the clusters
    come from the same Mittag-Leffler call as the eigenvalues outside them.
    The whole stack takes one LU factorization of S^T, solved against the
    n*d right-hand sides at once.  Each right-hand side is solved on its
    own, so a slice's bits depend on its v alone: slice k of a stack equals
    the one-point call at v[k] byte for byte.
    """
    d = m.shape[0]
    spec = _decompose(d, m.tobytes())
    nodes = np.array(spec.eigenvalues, dtype=complex)
    bases = {}
    for n, (idx, sigma, block) in enumerate(spec.clusters):
        nodes[idx] = sigma
        # E(sigma v) grows in the sector, so there a usable block
        # eigenbasis is taken at every v, with its eigenvalues as nodes
        if abs(np.angle(sigma)) <= 0.5 * math.pi * params.alpha:
            mu, w = np.linalg.eig(block + sigma * np.eye(idx.size))
            if np.linalg.cond(w) < _BLOCK_EIG_COND:
                nodes[idx], bases[n] = mu, w
    fvals = _ml_spectrum(params, v, tuple(nodes.tolist()))
    # out[k] = S F_k S^-1, i.e. S^T out[k]^T = (S F_k)^T: one LU of S^T
    # against all n*d right-hand sides, column (k, i) of rhs holding column
    # i of S F_k
    s = spec.eigenvectors
    rhs = s.T[:, None, :] * fvals.T[:, :, None]
    for n, (idx, sigma, block) in enumerate(spec.clusters):
        if n in bases:
            f_block = (bases[n] * fvals[:, None, idx]) @ np.linalg.inv(bases[n])
        else:
            f_block = _cluster_block(params, v, fvals[:, idx[0]], sigma, block)
        rhs[idx] = (s[:, idx] @ f_block).transpose(2, 0, 1)
    out = np.linalg.solve(s.T, rhs.reshape(d, -1)).reshape(d, -1, d).transpose(1, 2, 0)
    out[v == 0.0] = np.eye(d) * _rgamma(params.beta)
    # the max-norm of each slice, as operator_norm computes it
    scale = np.abs(out).sum(-1).max(-1)
    residue = np.abs(out.imag).sum(-1).max(-1)
    bad = np.flatnonzero(~(residue <= _IMAG_TRUNC * scale))
    if bad.size:
        k = bad[0]
        raise ImagTruncationError(
            f"imaginary residue {residue[k]:.3e} exceeds {_IMAG_TRUNC:.0e} "
            f"of the norm {scale[k]:.3e} at t^alpha = {v[k]:g}"
        )
    return np.ascontiguousarray(out.real)


def check_spectral_condition(a, alpha):
    """Sector condition |arg lambda| > alpha*pi/2 for every eigenvalue.

    A zero eigenvalue reports satisfied=False with margin -alpha*pi/2 and
    the degenerate flag set.  The eigenvalues are those of the cached
    spectral data, so past dimension 64 this raises DomainError.
    """
    w = np.array(spectral_decompose(a).eigenvalues)
    al = _order_value(alpha)
    half = 0.5 * al * math.pi
    scale = float(np.max(np.abs(w)))
    degenerate = bool(scale == 0.0 or (np.abs(w) <= 1e-14 * scale).any())
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


def _time_scales(m, alpha):
    """(fast, slow) time scales of the propagator of a validated matrix m
    with a stable spectrum.

    E_{alpha,beta}(t^alpha lam) depends on t only through t^alpha lam, so
    each eigenvalue sets the scale |lam|^(-1/alpha).  `fast` is the least of
    these.  `slow` is the largest after each is divided by |cos(arg lam /
    alpha)| where |arg lam| < alpha pi, the slower rate at which the
    exponential residue exp(t lam^(1/alpha)) decays there.  Raises
    DomainError unless the window [1e-3 fast, 100 slow] that the kernel
    quantities scan lies in the normal doubles.
    """
    lam = np.array(_decompose(m.shape[0], m.tobytes()).eigenvalues)
    with np.errstate(over="ignore"):
        tau = np.abs(lam) ** (-1.0 / alpha)
    # clipped at alpha pi, where |cos| reaches 1 and the residue leaves
    theta = np.minimum(np.abs(np.angle(lam)), alpha * math.pi)
    fast, slow = float(tau.min()), float((tau / np.abs(np.cos(theta / alpha))).max())
    if not (1e-3 * fast >= np.finfo(float).tiny and 100.0 * slow < math.inf):
        raise DomainError(f"time scales {fast:.3g} to {slow:.3g} leave the double range")
    return fast, slow


def _norm_kinks(m, al, norm, t_hi, right=None):
    """Scaled times v = t^alpha, t in (1e-3 fast, t_hi), where the max norm of
    E_{alpha,alpha}(v A) R (R = right or I), or its one norm, has a kink: an
    entry of the row (column) that attains it changes sign, or another row
    takes over.  One call on 16 points per decade of t brackets them and
    three batched 32-way sections in t narrow each bracket to its midpoint,
    within about 5e-6 t of the kink.  Kinks that pair up inside one grid
    step and brackets past the memory cap are left to the quadrature; the
    euclidean norm gets none."""
    fast, _ = _time_scales(m, al)
    t_lo, d = 1e-3 * fast, m.shape[0]
    if norm == "euclidean" or not t_lo < t_hi:
        return np.empty(0)
    params = MLParams(al, al)

    def features(t):
        # the entries of E R by rows (max norm) or columns (one norm), then
        # the difference of every two row sums
        e = _propagators(params, t ** al, m)
        e = e if right is None else e @ right
        e = e if norm == "max" else e.swapaxes(1, 2)
        sums = np.abs(e).sum(-1)
        return np.concatenate([e, sums[:, :, None] - sums[:, None, :]], 1).reshape(t.size, -1)

    ts = np.geomspace(t_lo, t_hi, round(16 * (math.log10(t_hi) - math.log10(t_lo))) + 1)
    vals = features(ts)
    mags = np.abs(vals)
    # features at roundoff of their slice are zero there, and flip nothing
    signs = np.sign(vals) * (mags > 1e-12 * mags.max(-1, keepdims=True))
    top = mags[:, : d * d].reshape(-1, d, d).sum(-1).argmax(-1)
    # feature f is entry (f // d, f % d), or past d^2 the sum of row
    # f // d - d less that of row f % d
    f = np.arange(2 * d * d)
    row, other, a, b = f // d % d, f % d, top[:-1, None], top[1:, None]
    counts = np.where(f < d * d, (row == a) | (row == b), (row == a) & (other == b))
    k, j = np.nonzero((signs[:-1] * signs[1:] < 0.0) & counts)
    # the earliest brackets, so that a section call holds at most 2^20 values
    keep = 2 ** 20 // (33 * f.size)
    k, j = k[:keep], j[:keep]
    lo, hi, at = ts[k], ts[k + 1], np.arange(k.size)
    if not k.size:
        return lo
    for _ in range(3):
        x = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 33)
        fx = features(x.ravel()).reshape(k.size, 33, -1)
        sx = np.sign(fx[at, :, j])
        # the first section whose ends differ in sign, or touch a zero
        first = np.argmax(sx[:, :-1] * sx[:, 1:] <= 0.0, axis=1)
        lo, hi = x[at, first], x[at, first + 1]
    # an entry's zero is a kink only where its row still attains the norm
    top = np.abs(fx[at, first, : d * d]).reshape(-1, d, d).sum(-1).argmax(-1)
    return (0.5 * (lo + hi)[(j >= d * d) | (j // d == top)]) ** al


def sup_ml_norm(a, alpha, norm="max", beta=1.0):
    """sup over t >= 0 of ||E_{alpha,beta}(t^alpha A)|| in the induced norm.

    Maximizes over {0} and a geometric grid of 48 points per decade on
    [1e-3 fast, 100 slow], with (fast, slow) the spectrum's time scales
    (`_time_scales`), densifying around the running maximum until it
    stabilizes to 1e-4.  The window moves with the spectrum, so the result
    is the same for A and sA.  Past 100 slow the decay envelope is taken to
    keep the norm below the grid maximum; that is an estimate, not a bound.
    Result is at least the t = 0 value (the identity for beta = 1, so >= 1
    there).
    """
    m = as_square_matrix(a)
    al = _order_value(alpha)
    beta = float(beta)
    check_norm(norm)
    _require_sector(m, al)
    params = MLParams(al, beta)
    fast, slow = _time_scales(m, al)
    lo, hi = 1e-3 * fast, 100.0 * slow

    def value(t):
        return operator_norm(ml_matrix(params, t, m), norm)

    # the t = 0 propagator is rgamma(beta) * I; for beta = 1 that is the
    # identity exactly, so bypass the gamma roundoff there
    floor = 1.0 if beta == 1.0 else value(0.0)
    ts = np.geomspace(lo, hi, round(48 * math.log10(hi / lo)) + 1)
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


def kernel_integral(a, alpha, norm="max", right=None):
    """Integral over tau >= 0 of tau^(alpha-1) ||E_{alpha,alpha}(tau^alpha A)||.

    Time is measured in units of the spectrum's slow time scale
    (`_time_scales`), tau = slow x, and the substitution v = x^alpha removes
    the endpoint singularity exactly, leaving slow^alpha / alpha times the
    integral of ||E_{alpha,alpha}(slow^alpha v A)|| dv on the finite part
    [0, (T*/slow)^alpha].  That part is an adaptive 21-point Gauss–Kronrod
    quadrature, and each of its refinement rounds is one propagator call on
    every node of the round; its first span starts cut at the norm's kinks
    below 10 slow (`_norm_kinks`), a later one at the octaves of its start.
    The tail beyond T* is estimated through the
    decay envelope ||E|| <= M_hat / tau^(2 alpha), with M_hat the largest
    of 49 samples on [T*, 100 T*], so it is an estimate, not a bound.  T*
    starts at 10 slow and grows until tail_bound <= 1e-4 * value; past
    (T*/slow)^alpha = 1e8 the tail fails to converge.  In these units
    s * kernel_integral(s A) equals kernel_integral(A).  Returns the dict
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
    params = MLParams(al, al)
    if right is not None:
        right = as_square_matrix(right)
        if right.shape != m.shape:
            raise DomainError(
                f"right factor is {right.shape[0]}x{right.shape[1]}, "
                f"expected {m.shape[0]}x{m.shape[1]}"
            )
        if not right.any():
            return {"value": 0.0, "tail_bound": 0.0, "t_star": 0.0}

    _, slow = _time_scales(m, al)
    unit = slow ** al

    def enorm_v(v, owner):
        # integrand after substitution on an array of v = (tau/slow)^alpha,
        # over one span (owner is all zeros); tau^alpha = unit * v
        e = _propagators(params, unit * v, m)
        return operator_norm(e if right is None else e @ right, norm)

    def m_hat(x_star):
        xs = np.geomspace(x_star, 100.0 * x_star, 49)
        return float(np.max(enorm_v(xs ** al, None) * xs ** (2.0 * al)))

    # star is T* / slow
    star = 10.0
    finite = 0.0
    v_done = 0.0
    cuts = _norm_kinks(m, al, norm, 10.0 * slow, right) / unit
    while True:
        v_star = star ** al
        part, _ = _gk21_family(enorm_v, [(v_done, v_star, cuts)], 1e-12, 1e-9, 400)[0]
        finite += part / al
        cuts = v_star * np.exp2(np.arange(1, math.ceil(math.log2(_T_STAR_CAP / v_star)) + 1))
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
                f"tail bound still {unit * tail:.3e} of the value at T* = {slow * star:.3e}"
            )
    return {"value": unit * value, "tail_bound": unit * tail, "t_star": slow * star}
