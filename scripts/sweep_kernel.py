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

`kint` draws moduli from [0.1, 10] and prints `kernel_integral` per case,
for comparing two checkouts line by line.
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kind", choices=("sup", "kint"))
    ap.add_argument("--seed", type=int, default=1919)
    ap.add_argument("--cases", type=int)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    n = args.cases or (116 if args.kind == "sup" else 80)
    low = 0
    worst = 0.0
    for case in range(n):
        alpha = float(rng.choice([0.3, 0.5, 0.8]))
        if args.kind == "sup":
            a, lams = random_system(rng, alpha, (-3.0, 3.0))
            beta = [1.0, alpha, float(rng.uniform(0.2, 1.8))][int(rng.integers(3))]
            got = sup_ml_norm(a, alpha, beta=beta)
            ref = dense_sup(a, alpha, beta)
            short = (ref - got) / ref
            low += short > LOW_TOL
            worst = max(worst, short)
            row = {"case": case, "alpha": alpha, "beta": beta, "sup": got, "dense": ref,
                   "short": short}
        else:
            a, lams = random_system(rng, alpha, (-1.0, 1.0))
            row = {"case": case, "alpha": alpha, "kint": kernel_integral(a, alpha)["value"]}
        row["moduli"] = sorted(np.abs(lams).tolist())
        print(json.dumps(row), flush=True)
    if args.kind == "sup":
        print(json.dumps({"cases": n, "low": int(low), "worst_short": worst}))
        return 1 if low else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
