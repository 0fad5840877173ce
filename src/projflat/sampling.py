"""Deterministic direction sets and seeded point sampling.

Unit directions come from low-discrepancy constructions (golden-angle
spirals for n <= 3, Halton-driven Gaussian directions above), so every
report built on them is reproducible without a seed.  The Halton points
are radical inverses in the first ``dim`` primes (Halton 1960), mapped to
Gaussians through the inverse normal CDF of ``statistics.NormalDist``
(Wichura's AS241).  Random sweeps take an explicit
``numpy.random.Generator`` and are reproducible given one.
"""

from statistics import NormalDist

import numpy as np

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def _first_primes(count: int) -> list:
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _halton(dim: int, count: int) -> np.ndarray:
    """Unscrambled Halton points at indices 1..count, one per row.

    Index 0 (the origin) is skipped.  Digits are summed from the least
    significant one up, so the points equal the usual van der Corput
    recursion bit for bit.
    """
    index = np.arange(1, count + 1)
    points = np.zeros((count, dim))
    for j, base in enumerate(_first_primes(dim)):
        quotient = index.copy()
        scale = 1.0 / base
        while quotient.any():
            points[:, j] += (quotient % base) * scale
            quotient //= base
            scale /= base
    return points


def unit_directions(dim: int, count: int) -> np.ndarray:
    """Return ``count`` deterministic unit vectors in R^dim, one per row."""
    if dim < 1 or count < 1:
        raise ValueError("dim and count must be positive")
    if dim == 1:
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return signs.reshape(-1, 1)
    if dim == 2:
        theta = GOLDEN_ANGLE * np.arange(count)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if dim == 3:
        k = np.arange(count) + 0.5
        z = 1.0 - 2.0 * k / count
        rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        theta = GOLDEN_ANGLE * np.arange(count)
        return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
    # Halton coordinates at indices >= 1 lie strictly inside (0, 1)
    inv_cdf = NormalDist().inv_cdf
    u = _halton(dim, count)
    g = np.array([inv_cdf(v) for v in u.ravel()]).reshape(u.shape)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def sphere_points(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Seeded uniform points on the unit sphere, one per row."""
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def ball_points(rng: np.random.Generator, dim: int, radius: float, count: int) -> np.ndarray:
    """Seeded uniform points in the open ball of the given radius."""
    directions = sphere_points(rng, dim, count)
    radii = radius * rng.random(count) ** (1.0 / dim)
    return directions * radii[:, None]

