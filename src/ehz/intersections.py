"""Capacity checks on intersections of convex bodies.

Intersections are not descriptor nodes.  Their support values and support
points are exact for quadratic bodies (balls, ellipsoids, general ellipsoids
and their translates, scalings and linear images), through the ellipsoid
pencil of `bodies.intersection_support_batch`.  To solve for a capacity the
intersection is replaced by a smoothed surrogate: its support points on a
quasi-uniform direction design are recentred at a deep interior point, their
hull is smoothed, and the result is rescaled so its support matches the
sampled truth on average.  A random-direction audit quantifies the surrogate
accuracy and is reported alongside every pass/fail (never folded into it:
concavity deficits are typically far larger than the surrogate error, and
the caller sees both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .bodies import (ConvexBody, DegenerateIntersectionError, Polytope, Scale, Smoothed,
                     Translate, intersection_support_batch)
from .harness import HarnessError, InequalityReport, _meta, _report
from .solver import SolveConfig, _mode_chain, _richardson, capacity_from_lambda


# Sharpness of the surrogate's Smoothed hull, size of the accuracy audit's
# direction design, and the inradius below which an intersection counts as
# degenerate.
SURROGATE_SHARPNESS = 1024.0
AUDIT_SIZE = 128
MIN_DEPTH = 1e-6


def direction_design(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Antipodally symmetric quasi-uniform directions on the sphere."""
    half = (count + 1) // 2
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD12)))
    U = rng.normal(size=(half, dim))
    U /= np.linalg.norm(U, axis=1)[:, None]
    return np.vstack([U, -U])


def deep_point(U: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, float]:
    """Chebyshev-style deep point of {x : <x, u_i> <= h_i}.

    Maximizes r subject to <x, u_i> + r <= h_i; returns (x, r).  r is the
    inradius of the sampled outer polyhedron, so r <= inradius of the body.
    """
    m, d = U.shape
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A_ub = np.hstack([U, np.ones((m, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=h, bounds=[(None, None)] * (d + 1), method="highs")
    if res.status != 0:
        raise DegenerateIntersectionError("deep-point linear program failed")
    return res.x[:d], float(res.x[d])


@dataclass
class SurrogateAudit:
    max_rel_error: float
    mean_rel_error: float
    directions: int
    design_size: int
    vertex_count: int
    depth: float
    calibration: float

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def build_intersection_body(K: ConvexBody, T: ConvexBody, design_size: int = 1024,
                            seed: int = 0) -> tuple[ConvexBody, SurrogateAudit]:
    """Smoothed inner-hull surrogate for K cap T, recentred at a deep point.

    The surrogate's vertices are the intersection's support points on the
    design.  The surrogate is Scale(1/rho, Smoothed(hull)) where rho
    calibrates the smoothed support to the sampled true support on the design: the l^s
    aggregation over a dense vertex cloud carries a nearly uniform
    multiplicative bias that the rescaling removes.  Near-duplicate support
    points (direction fans hitting one corner) are merged so corner clusters
    do not skew the aggregation.
    """
    if K.dim != T.dim:
        raise HarnessError(f"dimension mismatch: {K.dim} vs {T.dim}")
    d = K.dim
    if design_size < 2 * d:
        raise HarnessError(f"design_size must be at least 2*dim = {2 * d}, got {design_size}")
    U = direction_design(d, design_size, seed)
    vals, points = intersection_support_batch(K, T, U)
    x0, depth = deep_point(U, vals)
    if depth <= MIN_DEPTH:
        raise DegenerateIntersectionError(
            f"intersection depth {depth:.3g} below {MIN_DEPTH:g}")

    vertices = points - x0
    scale = float(np.median(np.linalg.norm(vertices, axis=1)))
    grid = max(1e-4 * scale, 1e-12)
    vertices = np.unique(np.round(vertices / grid).astype(np.int64), axis=0) * grid
    surrogate = Smoothed(Polytope(vertices), SURROGATE_SHARPNESS)

    centered_true = vals - U @ x0
    h_s, _ = surrogate.support_batch(U)
    rho = float(np.mean(h_s / centered_true))
    body = Scale(1.0 / rho, surrogate)

    W = direction_design(d, AUDIT_SIZE, seed + 1)
    true_vals, _ = intersection_support_batch(K, T, W)
    true_centered = true_vals - W @ x0
    approx, _ = body.support_batch(W)
    rel = np.abs(approx - true_centered) / np.maximum(true_centered, 1e-300)
    audit = SurrogateAudit(
        max_rel_error=float(np.max(rel)),
        mean_rel_error=float(np.mean(rel)),
        directions=AUDIT_SIZE, design_size=U.shape[0],
        vertex_count=int(vertices.shape[0]), depth=depth, calibration=rho,
    )
    return body, audit


def intersection_capacity(K: ConvexBody, T: ConvexBody, shift: np.ndarray,
                          cfg: SolveConfig | None = None, design_size: int = 1024,
                          seed: int = 0) -> tuple[float, SurrogateAudit]:
    """Capacity of K cap (shift + T) through the smoothed surrogate.

    The sharp surrogate needs modes beyond the configured count to resolve;
    solving at (M, 2M) and Richardson-extrapolating removes the leading
    truncation error (the same device as the raw-polytope pipeline).
    """
    cfg = cfg or SolveConfig()
    body, audit = build_intersection_body(K, Translate(np.asarray(shift, dtype=float), T),
                                          design_size, seed)
    c, c2 = (capacity_from_lambda(lam, cfg.p) for lam, _, _ in _mode_chain(body, cfg, None, 2))
    return _richardson(c, c2), audit


def intersection_concavity_check(K: ConvexBody, T: ConvexBody, x: np.ndarray,
                                 y: np.ndarray, lam: float,
                                 cfg: SolveConfig | None = None,
                                 design_size: int = 1024,
                                 slack_rel: float = 1e-3,
                                 seed: int = 0) -> InequalityReport:
    """Concavity of sqrt-capacity along translated intersections:

        lam sqrt(c(K cap (x+T))) + (1-lam) sqrt(c(K cap (y+T)))
            <= sqrt(c(K cap (lam x + (1-lam) y + T))).

    For the symmetric special case (y = -x, lam = 1/2, K and T centrally
    symmetric) the monotonicity c(K cap (x+T)) <= c(K cap T) is also
    recorded in the witnesses.
    """
    cfg = cfg or SolveConfig()
    if not 0.0 <= lam <= 1.0:
        raise HarnessError(f"lambda must lie in [0, 1], got {lam}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mid = lam * x + (1 - lam) * y

    caps = {}
    audits = {}
    for label, shift in (("A", x), ("B", y), ("C", mid)):
        caps[label], audit = intersection_capacity(K, T, shift, cfg, design_size, seed)
        audits[label] = audit.to_dict()

    sA, sB, sC = (math.sqrt(caps[k]) for k in "ABC")
    lhs = sC
    rhs = lam * sA + (1 - lam) * sB
    slack = slack_rel * max(abs(lhs), 1.0)
    witnesses = {
        "sqrt_c": {"A": sA, "B": sB, "C": sC},
        "capacities": dict(caps),
        "audits": audits,
        "x": x.tolist(), "y": y.tolist(), "lambda": lam,
    }
    symmetric_case = bool(lam == 0.5 and np.allclose(x, -y))
    if symmetric_case:
        witnesses["symmetric_monotonicity"] = {
            "c_shifted": caps["A"], "c_central": caps["C"],
            "ok": bool(caps["A"] <= caps["C"] * (1 + slack_rel) + slack),
        }
    return _report("intersection-concavity", lhs, rhs, lhs - rhs, slack,
                   witnesses, _meta(cfg, design=design_size, sharpness=SURROGATE_SHARPNESS))
