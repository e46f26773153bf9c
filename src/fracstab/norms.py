"""Configurable vector norms and the operator norms they induce.

The default everywhere is the max norm; "euclidean" and "one" are accepted
wherever a norm keyword appears.
"""

import numpy as np

from .errors import DomainError

VECTOR_NORMS = ("max", "euclidean", "one")

_VEC_ORD = {"max": np.inf, "euclidean": 2, "one": 1}


def check_norm(kind):
    if kind not in VECTOR_NORMS:
        raise DomainError(f"unknown norm {kind!r}, expected one of {VECTOR_NORMS}")
    return kind


def vector_norm(x, kind="max"):
    """Norm of a vector (or of each row of a 2-d stack of vectors)."""
    check_norm(kind)
    x = np.asarray(x)
    if x.ndim <= 1:
        return float(np.linalg.norm(x, _VEC_ORD[kind]))
    return np.linalg.norm(x, _VEC_ORD[kind], axis=-1)


def operator_norm(m, kind="max"):
    """Matrix norm induced by the chosen vector norm (or of each matrix of
    a 3-d stack of matrices)."""
    check_norm(kind)
    m = np.atleast_2d(np.asarray(m))
    if kind == "euclidean":
        out = np.linalg.norm(m, 2, axis=(-2, -1))
    else:
        # the reductions np.linalg.norm makes for ord inf and 1, without its
        # per-call argument handling: largest absolute row or column sum
        if m.dtype.kind not in "fc":
            m = m.astype(float)
        out = np.abs(m).sum(-1 if kind == "max" else -2).max(-1)
    return float(out) if m.ndim == 2 else out
