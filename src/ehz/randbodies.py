"""Seeded random convex bodies for the randomized verification suites."""

from __future__ import annotations

import numpy as np

from .bodies import Ball, ConvexBody, Ellipsoid, GeneralEllipsoid, Polytope, PSum, Smoothed


def _rng(seed, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def random_ellipsoid(dim: int, seed: int) -> Ellipsoid:
    """Symplectic ellipsoid with radii drawn uniformly from [0.7, 2)."""
    rng = _rng(seed, 1)
    return Ellipsoid(rng.uniform(0.7, 2.0, size=dim // 2))


def random_general_ellipsoid(dim: int, seed: int, cond_max: float = 6.0) -> GeneralEllipsoid:
    """Random SPD form with eigenvalues spread at most cond_max apart."""
    rng = _rng(seed, 2)
    lo = 1.0 / np.sqrt(cond_max)
    eigs = rng.uniform(lo, lo * cond_max, size=dim)
    A = rng.normal(size=(dim, dim))
    Qmat, _ = np.linalg.qr(A)
    Q = (Qmat * eigs) @ Qmat.T
    return GeneralEllipsoid(0.5 * (Q + Q.T))


def random_symmetric_polytope(dim: int, seed: int, vertices: int = 12,
                              sharpness: float = 64.0) -> Smoothed:
    """Smoothed hull of +-(random sphere points with random radii)."""
    rng = _rng(seed, 3)
    V = rng.normal(size=(vertices, dim))
    V /= np.linalg.norm(V, axis=1)[:, None]
    V *= rng.uniform(0.7, 1.3, size=(vertices, 1))
    return Smoothed(Polytope(np.vstack([V, -V])), sharpness)


def random_psum_body(dim: int, seed: int) -> PSum:
    rng = _rng(seed, 4)
    p = float(rng.uniform(1.2, 3.0))
    return PSum(p, [random_ellipsoid(dim, seed + 1000),
                    random_general_ellipsoid(dim, seed + 2000)])


def random_body(dim: int, seed: int) -> ConvexBody:
    """One of the suite's body families, chosen by the seed."""
    makers = (
        lambda: random_ellipsoid(dim, seed),
        lambda: random_general_ellipsoid(dim, seed),
        lambda: random_symmetric_polytope(dim, seed),
        lambda: random_psum_body(dim, seed),
        lambda: Ball(float(_rng(seed, 5).uniform(0.6, 1.8)), dim),
    )
    return makers[seed % len(makers)]()


def random_symmetric_body(dim: int, seed: int) -> ConvexBody:
    """Centrally symmetric families only (mean-width checks)."""
    makers = (
        lambda: random_ellipsoid(dim, seed),
        lambda: random_general_ellipsoid(dim, seed),
        lambda: random_symmetric_polytope(dim, seed),
        lambda: random_psum_body(dim, seed),
    )
    return makers[seed % len(makers)]()
