"""Seeded sweeps of the kernel quantities over random stable systems.

    PYTHONPATH=src python3 scripts/sweep_kernel.py sup  [--seed 1919 --cases 116]
    PYTHONPATH=src python3 scripts/sweep_kernel.py kint [--seed 1919 --cases 80]

Each case is a 1-3-dimensional A = P D P^-1: D holds a negative real
eigenvalue, two of them, or a complex pair at a sector margin drawn
log-uniformly from 0.02 rad up (real blocks for the pair), and P is a
random similarity with 2-norm condition 1-100.  alpha is drawn from
{0.3, 0.5, 0.8}.

`sup` draws eigenvalue moduli from [1e-3, 1e3] and beta from {1, alpha, a
uniform value in [0.2, 1.8]}, and compares `sup_ml_norm` with a dense
max-norm scan on geomspace(1e-14, 1e14, 40000) and t = 0, taken through
the eigenvectors of A and `ml_many`, apart from `ml_matrix`.  A case reads low
when it falls more than 1e-4 below the scan; the script prints every case
as one JSON line, then a summary line, and exits 1 when a case reads low.

`kint` draws moduli from [0.1, 10] and compares `kernel_integral` with a
dense max-norm quadrature of its finite part on [0, T*], at the T* it
returns, plus the tail it returns: in v = tau^alpha, 40,000 geometric panels
of the 20-point Gauss-Legendre rule over six decades below T*^alpha, taken
through the eigenvectors of A and `ml_many`.  A case reads off when it
differs by more than 1e-7 relative; the script prints every case, then a
summary line, and exits 1 when a case reads off.
"""

import argparse
import json
import math
import sys

import numpy as np

from fracstab.matfun import kernel_integral, sup_ml_norm
from fracstab.special_fn import MLParams, ml_many

LOW_TOL = 1e-4
DENSE = np.geomspace(1e-14, 1e14, 40000)
OFF_TOL = 1e-7


def random_system(rng, alpha, log_mod):
    """A random stable A = P D P^-1 and a description of its spectrum."""
    d = int(rng.integers(1, 4))
    mods = 10.0 ** rng.uniform(*log_mod, size=d)
    blocks = [[-mods[0]]] if d == 1 else []
    if d > 1 and rng.random() < 0.75:
        edge = 0.5 * alpha * math.pi
        margin = math.exp(rng.uniform(math.log(0.02), math.log(math.pi - edge)))
        lam = mods[0] * np.exp(1j * (edge + margin))
        blocks.append([[lam.real, lam.imag], [-lam.imag, lam.real]])
        blocks += [[[-m]] for m in mods[2:]]
    elif d > 1:
        blocks += [[[-m]] for m in mods]
    dmat = np.zeros((d, d))
    k = 0
    for b in blocks:
        n = len(b)
        dmat[k : k + n, k : k + n] = b
        k += n
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    p = q1 @ np.diag(np.geomspace(1.0, 10.0 ** -rng.uniform(0, 2), d)) @ q2
    return p @ dmat @ np.linalg.inv(p), np.linalg.eigvals(dmat)


def dense_sup(a, alpha, beta):
    """Max-norm scan through the eigenvectors of A, apart from ml_matrix."""
    w, v = np.linalg.eig(a)
    vinv = np.linalg.inv(v)
    params = MLParams(alpha, beta)
    best = 1.0 / math.gamma(beta)
    for chunk in np.array_split(DENSE, 20):
        f = ml_many(params, np.multiply.outer(chunk ** alpha, w))
        e = ((v * f[:, None, :]) @ vinv).real
        best = max(best, float(np.abs(e).sum(-1).max()))
    return best


def dense_kint(a, alpha, t_star, panels=40000):
    """Integral of tau^(alpha-1) ||E_{alpha,alpha}(tau^alpha A)|| in the max
    norm over [0, t_star], through the eigenvectors of A, apart from
    ml_matrix: in v = tau^alpha, the 20-point Gauss-Legendre rule on [0, v0]
    and on `panels` geometric panels from v0 = 1e-6 t_star^alpha up, whose
    widths grow as the norm and its kinks fade."""
    w, v = np.linalg.eig(a)
    vinv = np.linalg.inv(v)
    x, wt = np.polynomial.legendre.leggauss(20)
    edges = np.append(0.0, np.geomspace(1e-6, 1.0, panels) * t_star ** alpha)
    total = 0.0
    for chunk in np.array_split(np.arange(panels), 40):
        lo, hi = edges[chunk], edges[chunk + 1]
        nodes = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * x
        f = ml_many(MLParams(alpha, alpha), np.multiply.outer(nodes.ravel(), w))
        e = ((v * f[:, None, :]) @ vinv).real
        total += float((np.abs(e).sum(-1).max(-1).reshape(nodes.shape) @ wt) @ (hi - lo))
    return 0.5 * total / alpha


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kind", choices=("sup", "kint"))
    ap.add_argument("--seed", type=int, default=1919)
    ap.add_argument("--cases", type=int)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    n = args.cases or (116 if args.kind == "sup" else 80)
    bad = 0
    worst = 0.0
    for case in range(n):
        alpha = float(rng.choice([0.3, 0.5, 0.8]))
        if args.kind == "sup":
            a, lams = random_system(rng, alpha, (-3.0, 3.0))
            beta = [1.0, alpha, float(rng.uniform(0.2, 1.8))][int(rng.integers(3))]
            got = sup_ml_norm(a, alpha, beta=beta)
            ref = dense_sup(a, alpha, beta)
            short = (ref - got) / ref
            bad += short > LOW_TOL
            worst = max(worst, short)
            row = {"case": case, "alpha": alpha, "beta": beta, "sup": got, "dense": ref,
                   "short": short}
        else:
            a, lams = random_system(rng, alpha, (-1.0, 1.0))
            kint = kernel_integral(a, alpha)
            got = kint["value"]
            ref = dense_kint(a, alpha, kint["t_star"]) + kint["tail_bound"]
            off = abs(got - ref) / ref
            bad += off > OFF_TOL
            worst = max(worst, off)
            row = {"case": case, "alpha": alpha, "kint": got, "dense": ref, "off": off}
        row["moduli"] = sorted(np.abs(lams).tolist())
        print(json.dumps(row), flush=True)
    if args.kind == "sup":
        print(json.dumps({"cases": n, "low": int(bad), "worst_short": worst}))
    else:
        print(json.dumps({"cases": n, "off": int(bad), "worst_off": worst}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
