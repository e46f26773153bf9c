"""Tests for the package's exported names."""
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import fracstab

MODULES = ["fracstab"] + [
    f"fracstab.{info.name}" for info in pkgutil.iter_modules(fracstab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_classify_leaves_numpy_ma_unimported():
    # numpy.ma costs about 1 MB of resident memory, and np.unique without
    # return_inverse imports it under numpy 2.4
    src = os.path.dirname(os.path.dirname(fracstab.__file__))
    code = (
        "import sys, numpy as np; "
        "from fracstab.solver import LinearDecaying; "
        "from fracstab.stability import classify; "
        "classify(np.array([[0.0, 1.0], [-1.0, 0.0]]), 0.5, "
        "LinearDecaying(0.2 * np.eye(2), gamma=1.0), 'max'); "
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
