"""Record bench/reference.json: the states the benchmark's checks compare to.

    python3 bench/make_reference.py

Linear items store the run from each standard basis vector, so a check can
rebuild the reference for any seeded x0.  The graded saturating ABM run is
nonlinear, but its field is componentwise (diagonal A, tanh), so each
component is stored per tabulated magnitude as a scalar run.  States are
kept at REFERENCE_POINTS nodes of each grid.  Rerun only when a change is
meant to move these outputs.
"""

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402


def sampled(traj):
    return traj.states[wl.reference_index(len(traj.states))].tolist()


def basis_runs(fn, d):
    return [sampled(fn(np.eye(d)[i])) for i in range(d)]


def main():
    saturating = []
    for i, lam in enumerate((1.0, 2.0, 3.0)):
        a = np.array([[-lam]])
        saturating.append(
            [[s[0] for s in sampled(wl.abm_graded_saturating(np.array([m]), a=a))]
             for m in wl.SATURATING_MAGNITUDES]
        )
    ref = {
        "propagate": {
            "lp-graded-scalar": basis_runs(wl.lp_graded_scalar, 1),
            "lp-uniform-rotation": basis_runs(wl.lp_uniform_rotation, 2),
            "exact-graded-rotation": basis_runs(wl.exact_graded_rotation, 2),
        },
        "abm": {
            "abm-uniform-scalar": basis_runs(wl.abm_uniform_scalar, 1),
            "abm-graded-saturating": saturating,
            "abm-rotation-ensemble": basis_runs(wl.abm_rotation, 2),
            "boundedness-diag2": wl.boundedness_diag2()["sup_norms"],
        },
    }
    wl.REFERENCE_FILE.write_text(json.dumps(ref) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
