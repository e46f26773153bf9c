"""Tests for the induced operator norms."""

import numpy as np
import pytest

from fracstab.norms import operator_norm

ORDS = {"max": np.inf, "one": 1, "euclidean": 2}


@pytest.mark.parametrize("kind", sorted(ORDS))
def test_operator_norm_keeps_the_bits_of_numpy_norm(kind):
    rng = np.random.default_rng(38)
    for d in range(1, 6):
        for shape in ((d, d), (9, d, d)):
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
            for m in (x, x + 1j * rng.standard_normal(shape)):
                got = operator_norm(m, kind)
                if m.ndim == 2:
                    want = float(np.linalg.norm(m, ORDS[kind]))
                    assert type(got) is float
                else:
                    want = np.linalg.norm(m, ORDS[kind], axis=(-2, -1))
                    assert got.shape == want.shape
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_operator_norm_of_integer_entries():
    assert operator_norm([[1, -2], [3, 4]]) == 7.0
    assert operator_norm([[1, -2], [3, 4]], "one") == 6.0
    assert operator_norm(np.ones((3, 2, 2), dtype=int)).dtype == float
