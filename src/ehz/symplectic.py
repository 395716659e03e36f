"""Standard symplectic structure on R^{2n}.

Coordinates are interleaved as (x_1, y_1, ..., x_n, y_n).  The complex
structure J rotates each (x, y) plane by 90 degrees, J(x, y) = (-y, x), and
the symplectic form is omega(u, v) = <Ju, v>, so that omega(v, Jv) = |v|^2
and the counterclockwise unit circle encloses area +pi.  Every other module
inherits its sign conventions from here.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm


class DimensionError(ValueError):
    """Raised when a vector or matrix has an incompatible or odd dimension."""


def check_even_dim(dim: int) -> int:
    """Validate an ambient dimension 2n and return n."""
    if dim <= 0 or dim % 2 != 0:
        raise DimensionError(f"ambient dimension must be a positive even integer, got {dim}")
    return dim // 2


def apply_J(v: np.ndarray) -> np.ndarray:
    """Apply the complex structure J along the last axis: (x, y) -> (-y, x)."""
    v = np.asarray(v, dtype=float)
    check_even_dim(v.shape[-1])
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


def apply_J_inverse(v: np.ndarray) -> np.ndarray:
    """Apply J^{-1} = -J along the last axis: (x, y) -> (y, -x)."""
    v = np.asarray(v, dtype=float)
    check_even_dim(v.shape[-1])
    out = np.empty_like(v)
    out[..., 0::2] = v[..., 1::2]
    out[..., 1::2] = -v[..., 0::2]
    return out


def symplectic_form(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """omega(u, v) = <Ju, v>, broadcast over leading axes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != v.shape[-1]:
        raise DimensionError(f"mismatched dimensions {u.shape[-1]} and {v.shape[-1]}")
    return np.sum(apply_J(u) * v, axis=-1)


def J_matrix(dim: int) -> np.ndarray:
    """The 2n x 2n matrix of J in interleaved coordinates."""
    check_even_dim(dim)
    return apply_J(np.eye(dim)).T


def random_symplectic(dim: int, seed: int = 0, magnitude: float = 0.5) -> np.ndarray:
    """Random linear symplectomorphism exp(J S), S symmetric with entries ~ magnitude.

    J S is a Hamiltonian matrix, so its exponential M satisfies M^T J M = J
    exactly; numerically the identity holds to ~1e-12.  magnitude = 0 returns
    the identity.
    """
    if magnitude < 0:
        raise ValueError(f"magnitude must be nonnegative, got {magnitude}")
    check_even_dim(dim)
    if magnitude == 0:
        return np.eye(dim)
    rng = np.random.default_rng(np.random.SeedSequence((0x5EED, seed)))
    A = rng.normal(scale=magnitude, size=(dim, dim))
    S = 0.5 * (A + A.T)
    return expm(J_matrix(dim) @ S)
