"""Capacity checks on intersections of convex bodies.

The intersection of two quadratic bodies (balls, ellipsoids, general
ellipsoids and their translates, scalings and linear images) is the exact
body `bodies.Intersection`, whose support comes from the ellipsoid pencil.
Before a solve it is recentred at its pencil centre `Intersection.centre`.
One support evaluation on a quasi-uniform direction design gives both the
depth of that centre and an audit of how far the support points stray
outside the two bodies, reported alongside every pass/fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (ConvexBody, DegenerateIntersectionError, Intersection, Translate,
                     direction_design)
from .harness import HarnessError, InequalityReport, _meta, _report
from .solver import SolveConfig, _mode_chain, _richardson, capacity_from_lambda


# The depth below which an intersection counts as degenerate.
MIN_DEPTH = 1e-6


def deep_point(U: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, float]:
    """Chebyshev-style deep point of {x : <x, u_i> <= h_i}.

    Maximizes r subject to <x, u_i> + r <= h_i; returns (x, r).  r is the
    inradius of the sampled outer polyhedron, so r <= inradius of the body.
    Nothing in this package calls it now: intersections are recentred at
    their pencil centre.  It is the Chebyshev-centre program for a body
    given by its facets.
    """
    from scipy.optimize import linprog
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
    """What `build_intersection_body` did.

    max_rel_error and mean_rel_error are the constraint residual
    max(q_K(x), q_T(x)) - 1, floored at 0, of the support points x on the
    `design_size`-direction design: a support point outside either body
    shows as a positive residual.  depth is min_i h(u_i) - <c, u_i> over
    the same design, the depth of the pencil centre c.  vertex_count
    (always 0) is a placeholder that the benchmark's tracer reads; it goes
    at its next change.
    """
    max_rel_error: float
    mean_rel_error: float
    design_size: int
    vertex_count: int
    depth: float

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def build_intersection_body(K: ConvexBody, T: ConvexBody, design_size: int = 1024,
                            seed: int = 0) -> tuple[ConvexBody, SurrogateAudit]:
    """K cap T as `Translate(-c, Intersection(K, T))`, recentred at its pencil
    centre c.

    One support evaluation on `direction_design(dim, design_size, seed)`
    gives the depth of c, min_i h(u_i) - <c, u_i>, and the audit residual
    of the support points; a depth at most MIN_DEPTH raises
    DegenerateIntersectionError.
    """
    if K.dim != T.dim:
        raise HarnessError(f"dimension mismatch: {K.dim} vs {T.dim}")
    d = K.dim
    if design_size < 2 * d:
        raise HarnessError(f"design_size must be at least 2*dim = {2 * d}, got {design_size}")
    exact = Intersection(K, T)
    U = direction_design(d, design_size, seed)
    h, points = exact.support_batch(U)
    depth = float(np.min(h - U @ exact.centre))
    if depth <= MIN_DEPTH:
        raise DegenerateIntersectionError(
            f"intersection depth {depth:.3g} below {MIN_DEPTH:g}")
    residual = np.maximum(exact.excess(points), 0.0)
    audit = SurrogateAudit(
        max_rel_error=float(np.max(residual)),
        mean_rel_error=float(np.mean(residual)),
        design_size=U.shape[0], vertex_count=0, depth=depth,
    )
    return Translate(-exact.centre, exact), audit


def intersection_capacity(K: ConvexBody, T: ConvexBody, shift: np.ndarray,
                          cfg: SolveConfig | None = None, design_size: int = 1024,
                          seed: int = 0) -> tuple[float, SurrogateAudit]:
    """Capacity of K cap (shift + T), with the audit of its body.

    The intersection's boundary has a ridge where the two bodies meet, which
    the configured modes resolve slowly; solving at (M, 2M) and
    Richardson-extrapolating removes most of the truncation error.
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
                   witnesses, _meta(cfg, design=design_size))
