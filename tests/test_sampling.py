"""Deterministic direction sets against an independent Halton implementation."""

import numpy as np
import pytest

from projflat.sampling import _halton, unit_directions


@pytest.mark.parametrize("dim", [4, 5, 6, 7, 8, 13])
def test_unit_directions_match_scipy_halton(dim):
    qmc = pytest.importorskip("scipy.stats.qmc")
    ndtri = pytest.importorskip("scipy.special").ndtri
    engine = qmc.Halton(d=dim, scramble=False)
    engine.fast_forward(1)  # skip the origin, as unit_directions does
    u = engine.random(256)
    assert np.array_equal(_halton(dim, 256), u)
    g = ndtri(u)
    expected = g / np.linalg.norm(g, axis=1, keepdims=True)
    assert np.abs(unit_directions(dim, 256) - expected).max() <= 1e-15
