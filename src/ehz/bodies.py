"""Convex bodies represented through their support functions.

A body is an immutable descriptor tree.  Leaves (balls, ellipsoids,
polytopes) know their support function h_K(u) = sup_{x in K} <x, u> in
closed form; composite nodes (p-sums, Minkowski combinations, linear
images, translates, scalings, smoothed polytopes) compose the children's
support values and support points by the standard rules.  The gradient of
h_K at a smooth direction is the support point, i.e. the boundary point
where the supremum is attained.

Gauges ||x||_K = inf{r > 0 : x/r in K} are served analytically whenever a
polar descriptor exists (ellipsoidal families and their linear images and
scalings).  Otherwise the gauge is max_u <x, u>/h_K(u) by polarity, found by
damped Newton steps on f(u) = log h_K(u) - log <x, u>, batched over all
points, and one start suffices: every local maximum of the ratio is global.
The ratio is quasi-concave on {<x, u> > 0}, since its superlevel sets
{u : t h_K(u) <= <x, u>} are convex cones, so a local maximum that is not
global could only sit on a plateau.  But at any local maximum u,
stationarity puts x/ratio(u) in the face of K that u exposes, a boundary
point, so ratio(u) is the gauge: on a plateau h_K(u) = <v, u> for a vertex v,
and x/ratio(u) = v.  The maximizer is the outer normal of K at x/||x||_K;
callers that know it (a closed characteristic knows it from its velocity)
pass it as a warm start, and Newton then converges within a few steps.  The
Newton Hessians take D^2 h_K from central differences of support points
(`support_hessians`), the device the capacity solver's Newton phase uses.

The intersection of two quadratic bodies is served by
`intersection_support_batch`: its support function is the minimum over
t in [0, 1] of the support of the ellipsoid pencil {t q_K + (1 - t) q_T <= 1},
closed form after one generalized eigendecomposition.

All evaluation entry points are batched over rows so that samplers and the
capacity solver can amortize the tree walk.
"""

from __future__ import annotations

import hashlib
import math
import json
from functools import cached_property

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from .optimize import ARMIJO, EPS
from .symplectic import DimensionError, check_even_dim


class BodyError(ValueError):
    """Invalid body construction (dimension mismatch, origin not interior, ...)."""


class DegenerateIntersectionError(ValueError):
    """The intersection is empty or has (numerically) no interior."""


# The iterative gauge's Newton iteration stops a row once one more step
# predicts a decrease of f = log h - log <x, u> (the relative change of the
# gauge) of at most GAUGE_STOP.  Each step tries the fractions 1, 1/2, ...,
# 2^-(GAUGE_HALVINGS - 1) of the Newton step, and a row takes at most
# GAUGE_STEPS steps: warm starts at carrier normals take at most 9 steps on
# the benchmark's bodies, cold starts at x/|x| at most 20.
GAUGE_STOP = 1e-15
GAUGE_HALVINGS = 30
GAUGE_STEPS = 50


def _even_dim(dim: int) -> int:
    try:
        return check_even_dim(dim)
    except DimensionError as e:
        raise BodyError(str(e)) from None


def _finite_array(x, name: str) -> np.ndarray:
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise BodyError(f"{name} must be numeric") from None
    if not np.all(np.isfinite(a)):
        raise BodyError(f"{name} must be finite")
    return a


def _as_matrix(x, name: str) -> np.ndarray:
    m = _finite_array(x, name)
    if m.ndim != 2:
        raise BodyError(f"{name} must be a 2-d array, got shape {m.shape}")
    return m


class ConvexBody:
    """Base class; subclasses set `dim` and implement `support_batch`."""

    dim: int

    # -- evaluation ---------------------------------------------------------

    def support_batch(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Support values (B,) and support points (B, dim) for directions U."""
        raise NotImplementedError

    @property
    def is_smooth(self) -> bool:
        return True

    # -- polarity and gauge -------------------------------------------------

    def polar(self) -> "ConvexBody | None":
        """Analytic polar body, or None when only iterative gauges exist."""
        return None

    def gauge_batch(self, X: np.ndarray, directions: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Gauge values and gradients for points X; returns (vals, grads, tol).

        `directions` optionally gives each row a warm start for the iterative
        gauge: a guess of the outer normal of K at the boundary point on the
        ray through x, up to a positive factor.  Bodies with an analytic polar
        ignore it.  `tol` estimates the relative gauge error left (0 when
        analytic).
        """
        X = np.asarray(X, dtype=float)
        if directions is not None:
            directions = np.asarray(directions, dtype=float)
            if directions.shape != X.shape:
                raise BodyError(f"directions have shape {directions.shape}, "
                                f"points have shape {X.shape}")
        polar = self.polar()
        nz = np.linalg.norm(X, axis=1) > 0
        vals = np.zeros(X.shape[0])
        grads = np.zeros_like(X)
        tol = 0.0
        if np.any(nz) and polar is not None:
            vals[nz], grads[nz] = polar.support_batch(X[nz])
        elif np.any(nz):
            vals[nz], grads[nz], tol = _gauge_by_newton(
                self, X[nz], None if directions is None else directions[nz])
        return vals, grads, tol

    # -- plumbing ------------------------------------------------------------

    def recipe(self) -> dict:
        raise NotImplementedError

    def content_hash(self) -> str:
        blob = json.dumps(self.recipe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(dim={self.dim})"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class Ball(ConvexBody):
    """Euclidean ball of given radius centered at the origin."""

    def __init__(self, radius: float, dim: int):
        if not 0 < radius < math.inf:
            raise BodyError(f"ball radius must be positive and finite, got {radius}")
        _even_dim(dim)
        self.radius = float(radius)
        self.dim = int(dim)

    def support_batch(self, U):
        norms = np.linalg.norm(U, axis=1)
        vals = self.radius * norms
        with np.errstate(invalid="ignore", divide="ignore"):
            grads = np.where(norms[:, None] > 0, self.radius * U / norms[:, None], 0.0)
        return vals, grads

    def polar(self):
        return Ball(1.0 / self.radius, self.dim)

    def recipe(self):
        return {"type": "ball", "r": self.radius, "dim": self.dim}


class Ellipsoid(ConvexBody):
    """Symplectic ellipsoid sum_i (x_i^2 + y_i^2) / r_i^2 <= 1, radii ascending."""

    def __init__(self, radii):
        radii = _finite_array(radii, "radii")
        if radii.ndim != 1 or radii.size == 0:
            raise BodyError("radii must be a non-empty 1-d sequence")
        if np.any(radii <= 0):
            raise BodyError("ellipsoid radii must be positive")
        self.radii = _freeze(np.sort(radii))
        self.dim = 2 * radii.size
        # per-coordinate squared radii, interleaved (r_1^2, r_1^2, r_2^2, ...)
        self._d2 = _freeze(np.repeat(self.radii**2, 2))

    def support_batch(self, U):
        q = U * self._d2
        vals = np.sqrt(np.sum(U * q, axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            grads = np.where(vals[:, None] > 0, q / vals[:, None], 0.0)
        return vals, grads

    def polar(self):
        return GeneralEllipsoid(np.diag(1.0 / self._d2))

    def recipe(self):
        return {"type": "ellipsoid", "radii": self.radii.tolist()}


class GeneralEllipsoid(ConvexBody):
    """Ellipsoid {x : x^T Q^{-1} x <= 1} for symmetric positive definite Q."""

    def __init__(self, Q):
        Q = _as_matrix(Q, "Q")
        if Q.shape[0] != Q.shape[1]:
            raise BodyError(f"Q must be square, got shape {Q.shape}")
        _even_dim(Q.shape[0])
        if not np.allclose(Q, Q.T, rtol=1e-10, atol=1e-12):
            raise BodyError("Q must be symmetric")
        Q = 0.5 * (Q + Q.T)
        try:
            np.linalg.cholesky(Q)
        except np.linalg.LinAlgError:
            raise BodyError("Q must be positive definite") from None
        self.Q = _freeze(Q)
        self.dim = Q.shape[0]

    def support_batch(self, U):
        q = U @ self.Q
        vals = np.sqrt(np.maximum(np.sum(U * q, axis=1), 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            grads = np.where(vals[:, None] > 0, q / vals[:, None], 0.0)
        return vals, grads

    def polar(self):
        Qinv = np.linalg.inv(self.Q)
        return GeneralEllipsoid(0.5 * (Qinv + Qinv.T))

    def recipe(self):
        return {"type": "general_ellipsoid", "Q": self.Q.tolist()}


class Polytope(ConvexBody):
    """Convex hull of a vertex list; support picks the lowest-index maximizer."""

    def __init__(self, vertices):
        V = _as_matrix(vertices, "vertices")
        _even_dim(V.shape[1])
        if V.shape[0] < V.shape[1] + 1:
            raise BodyError("a full-dimensional polytope needs at least dim+1 vertices")
        if np.linalg.matrix_rank(V - V[0], tol=1e-10) < V.shape[1]:
            raise BodyError("polytope is degenerate (vertices span a lower-dimensional set)")
        self.vertices = _freeze(V)
        self.dim = V.shape[1]
        if not self._origin_interior():
            raise BodyError("origin is not strictly inside the polytope")

    def _origin_interior(self) -> bool:
        # max eps s.t. sum lam_i v_i = 0, sum lam_i = 1, lam_i >= eps, written
        # with lam = mu + eps so that mu >= 0 are bounds and only the dim + 1
        # equality rows remain: V^T mu + eps V^T 1 = 0, sum mu + m eps = 1
        V = self.vertices
        m = V.shape[0]
        A_eq = np.vstack([np.hstack([V.T, V.sum(axis=0)[:, None]]),
                          np.append(np.ones(m), float(m))])
        b_eq = np.zeros(self.dim + 1)
        b_eq[-1] = 1.0
        c = np.zeros(m + 1)
        c[-1] = -1.0
        res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * m + [(None, None)],
                      method="highs")
        return bool(res.status == 0 and -res.fun > 1e-12)

    @cached_property
    def facets(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit outer normals n_i (F, dim) and support numbers h_i = h_P(n_i)
        (F,) of the facets, computed on first use.

        The hull is triangulated, so a facet with more than dim vertices
        comes as several simplices with the same equation; those are merged
        (equations within 1e-9), and each facet keeps its first simplex's.
        """
        eq = ConvexHull(self.vertices).equations
        first = np.ones(len(eq), dtype=bool)
        for i in range(len(eq)):
            if first[i]:
                first[i + 1:] &= np.abs(eq[i + 1:] - eq[i]).max(axis=1) > 1e-9
        return _freeze(eq[first, :-1]), _freeze(-eq[first, -1])

    def support_batch(self, U):
        R = U @ self.vertices.T
        idx = np.argmax(R, axis=1)
        vals = R[np.arange(R.shape[0]), idx]
        grads = self.vertices[idx]
        return vals, grads

    @property
    def is_smooth(self) -> bool:
        return False

    def recipe(self):
        return {"type": "polytope", "vertices": self.vertices.tolist()}


class PSum(ConvexBody):
    """Firey p-sum: support function (sum_i h_i^p)^{1/p}, p >= 1."""

    def __init__(self, p: float, terms):
        if not 1 <= p < math.inf:
            raise BodyError(f"p-sum exponent must be finite and >= 1, got {p}")
        terms = tuple(terms)
        if len(terms) < 2:
            raise BodyError("p-sum needs at least two terms")
        dims = {t.dim for t in terms}
        if len(dims) != 1:
            raise BodyError(f"p-sum terms have inconsistent dimensions {sorted(dims)}")
        self.p = float(p)
        self.terms = terms
        self.dim = terms[0].dim

    def support_batch(self, U):
        vals_k = []
        grads_k = []
        for t in self.terms:
            v, g = t.support_batch(U)
            vals_k.append(v)
            grads_k.append(g)
        V = np.stack(vals_k)  # (k, B)
        if self.p == 1.0:
            vals = np.sum(V, axis=0)
            grads = np.sum(np.stack(grads_k), axis=0)
            return vals, grads
        vmax = np.max(V, axis=0)
        safe = np.where(vmax > 0, vmax, 1.0)
        vals = safe * np.sum((V / safe) ** self.p, axis=0) ** (1.0 / self.p)
        vals = np.where(vmax > 0, vals, 0.0)
        ratios = np.where(vals > 0, V / np.where(vals > 0, vals, 1.0), 0.0)
        w = ratios ** (self.p - 1.0)  # (k, B)
        grads = np.einsum("kb,kbd->bd", w, np.stack(grads_k))
        return vals, grads

    @property
    def is_smooth(self) -> bool:
        return all(t.is_smooth for t in self.terms)

    def recipe(self):
        return {"type": "psum", "p": self.p, "terms": [t.recipe() for t in self.terms]}


class MinkowskiSum(ConvexBody):
    """Weighted Minkowski combination sum_i w_i K_i with w_i >= 0."""

    def __init__(self, terms, weights=None):
        terms = tuple(terms)
        if not terms:
            raise BodyError("Minkowski sum needs at least one term")
        dims = {t.dim for t in terms}
        if len(dims) != 1:
            raise BodyError(f"Minkowski terms have inconsistent dimensions {sorted(dims)}")
        if weights is None:
            weights = np.ones(len(terms))
        weights = _finite_array(weights, "weights")
        if weights.shape != (len(terms),):
            raise BodyError("need exactly one weight per term")
        if np.any(weights < 0) or not np.any(weights > 0):
            raise BodyError("weights must be nonnegative with at least one positive")
        self.terms = terms
        self.weights = _freeze(weights)
        self.dim = terms[0].dim

    def support_batch(self, U):
        vals = np.zeros(U.shape[0])
        grads = np.zeros_like(U)
        for w, t in zip(self.weights, self.terms):
            if w == 0:
                continue
            v, g = t.support_batch(U)
            vals += w * v
            grads += w * g
        return vals, grads

    @property
    def is_smooth(self) -> bool:
        return all(t.is_smooth for w, t in zip(self.weights, self.terms) if w > 0)

    def recipe(self):
        return {"type": "minkowski", "terms": [t.recipe() for t in self.terms],
                "weights": self.weights.tolist()}


class LinearImage(ConvexBody):
    """Image A K of a body under an invertible matrix: h_{AK}(u) = h_K(A^T u)."""

    def __init__(self, matrix, body: ConvexBody):
        A = _as_matrix(matrix, "matrix")
        if A.shape != (body.dim, body.dim):
            raise BodyError(f"matrix shape {A.shape} does not match body dimension {body.dim}")
        if abs(np.linalg.det(A)) < 1e-12:
            raise BodyError("matrix must be invertible")
        self.matrix = _freeze(A)
        self.body = body
        self.dim = body.dim

    def support_batch(self, U):
        v, g = self.body.support_batch(U @ self.matrix)
        return v, g @ self.matrix.T

    @property
    def is_smooth(self) -> bool:
        return self.body.is_smooth

    def polar(self):
        inner = self.body.polar()
        if inner is None:
            return None
        return LinearImage(np.linalg.inv(self.matrix).T, inner)

    def recipe(self):
        return {"type": "linear", "matrix": self.matrix.tolist(), "body": self.body.recipe()}


class Translate(ConvexBody):
    """Translated body K + x0: h(u) = h_K(u) + <x0, u>."""

    def __init__(self, vector, body: ConvexBody):
        x0 = _finite_array(vector, "translation vector")
        if x0.shape != (body.dim,):
            raise BodyError(f"translation vector has shape {x0.shape}, body dimension {body.dim}")
        self.vector = _freeze(x0)
        self.body = body
        self.dim = body.dim

    def support_batch(self, U):
        v, g = self.body.support_batch(U)
        return v + U @ self.vector, g + self.vector

    @property
    def is_smooth(self) -> bool:
        return self.body.is_smooth

    def recipe(self):
        return {"type": "translate", "vector": self.vector.tolist(), "body": self.body.recipe()}


class Scale(ConvexBody):
    """Dilated body s K for s > 0."""

    def __init__(self, factor: float, body: ConvexBody):
        if not 0 < factor < math.inf:
            raise BodyError(f"scale factor must be positive and finite, got {factor}")
        self.factor = float(factor)
        self.body = body
        self.dim = body.dim

    def support_batch(self, U):
        v, g = self.body.support_batch(U)
        return self.factor * v, self.factor * g

    @property
    def is_smooth(self) -> bool:
        return self.body.is_smooth

    def polar(self):
        inner = self.body.polar()
        if inner is None:
            return None
        return Scale(1.0 / self.factor, inner)

    def recipe(self):
        return {"type": "scale", "factor": self.factor, "body": self.body.recipe()}


_SMOOTHED_BLOCK = 1 << 15


class Smoothed(ConvexBody):
    """Smooth outer approximation of a polytope.

    Replaces max_i <v_i, u> by (sum_i max(<v_i, u>, 0)^s)^{1/s}.  The result
    is 1-homogeneous, convex, smooth away from the origin, and shrinks to
    the polytope as the sharpness s grows (the overshoot is at most a factor
    m^{1/s} for m vertices).
    """

    def __init__(self, body: ConvexBody, sharpness: float = 64.0):
        if not 1 < sharpness < math.inf:
            raise BodyError(f"sharpness must be finite and exceed 1, got {sharpness}")
        if not isinstance(body, Polytope):
            raise BodyError("Smoothed wraps a Polytope")
        self.body = body
        self.sharpness = float(sharpness)
        self.dim = body.dim

    def support_batch(self, U):
        # Rows go through in blocks of at most _SMOOTHED_BLOCK (row, vertex)
        # pairs, so that the kernel's several (rows, m) work arrays fit in a
        # 2 MB L2 cache.  Past that it runs about 2-2.5x slower per row
        # (measured at m = 768 with 768 rows and at m = 24 with 60000 rows).
        # Blocks this small also keep the support-point product W @ V on
        # BLAS's small-matrix path, where each row's result does not depend
        # on how many rows share the call (as tested in R^4); the batched
        # solver and the gauge rely on that.  In the plane W @ V has two
        # columns, and its bits do depend on the block's row count (see
        # `solver._quotient_fg`).  A one-row block, alone or trailing, goes
        # through as two: numpy multiplies one row on BLAS's matrix-vector
        # path, whose bits differ.
        step = max(1, _SMOOTHED_BLOCK // self.body.vertices.shape[0])
        n = U.shape[0]
        if 1 < n <= step:
            return self._support_block(U)
        vals = np.empty(n)
        grads = np.empty((n, self.dim))
        for i in range(0, n, step):
            block = U[i:i + step] if n - i != 1 else np.repeat(U[i:], 2, axis=0)
            v, g = self._support_block(block)
            vals[i:i + step], grads[i:i + step] = v[:n - i], g[:n - i]
        return vals, grads

    def _support_block(self, U):
        # Bit-identity rules.  Support values and points must match the dense
        # form that tests/test_bodies.py keeps as reference bit for bit, so:
        # R = U @ V.T and the final (rows, m) @ V stay BLAS calls at the
        # block shapes support_batch makes (the block size is part of the
        # result), and S stays a dense pairwise sum over each row (a sparse
        # sum, reduceat or bincount groups the terms differently once a row
        # has three or more of them).  R is scaled in place and then, zeroed,
        # holds first the P terms and then the W weights: both are zero off
        # the same flat positions, so each equals a fresh dense array.
        s = self.sharpness
        V = self.body.vertices
        m = V.shape[0]
        R = U @ V.T  # (B, m)
        np.maximum(R, 0.0, out=R)
        rmax = np.max(R, axis=1)
        safe = np.where(rmax > 0, rmax, 1.0)
        R /= safe[:, None]
        # ratios below cut contribute < 1e-19 relative to the l^s sum; the
        # masked exp/log evaluation skips the (dominant) power cost on them
        cut = math.exp(-46.0 / s)
        flat = np.flatnonzero(R > cut)
        rows = flat // m
        logr = np.log(R.ravel()[flat])
        R.fill(0.0)  # from here on R is the term buffer
        terms = R.ravel()
        terms[flat] = np.exp(s * logr)
        S = np.sum(R, axis=1)
        logS = np.log(np.where(S > 0, S, 1.0))
        vals = np.where(rmax > 0, safe * np.exp(logS / s), 0.0)
        terms[flat] = np.exp((s - 1.0) * logr - ((s - 1.0) / s) * logS[rows])
        grads = R @ V
        return vals, grads

    def recipe(self):
        return {"type": "smoothed", "sharpness": self.sharpness, "body": self.body.recipe()}


# ---------------------------------------------------------------------------
# iterative gauge and intersection support
# ---------------------------------------------------------------------------


def support_hessians(body: ConvexBody, U: np.ndarray, p: float = 1.0) -> np.ndarray:
    """D^2(h^p) at each row u of U, symmetrized, shape (rows, dim, dim).

    Central differences of grad(h^p) = p h^{p-1} grad h at u +- delta e_i,
    delta = 1e-6 |u|, from one `support_batch` call over the 2 dim copies of
    every row; each row's Hessian depends on that row alone.
    """
    d = U.shape[1]
    delta = 1e-6 * np.linalg.norm(U, axis=1)
    step = delta[:, None, None] * np.eye(d)               # row i: delta e_i
    h, gh = body.support_batch(np.concatenate([U[:, None, :] + step,
                                               U[:, None, :] - step]).reshape(-1, d))
    dphi = ((p * h ** (p - 1.0))[:, None] * gh).reshape(2, -1, d, d)
    D2 = (dphi[0] - dphi[1]) / (2.0 * delta)[:, None, None]
    return 0.5 * (D2 + D2.transpose(0, 2, 1))


def _gauge_by_newton(body: ConvexBody, X: np.ndarray, U0: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """Gauge by maximizing <x, u>/h(u) over directions u, by batched Newton steps.

    By polarity the maximum equals ||x||_K and the maximizer u* yields the
    gauge gradient u*/h(u*); one start per row suffices (module docstring).
    Newton minimizes f(u) = log h(u) - log <x, u>, whose Hessian is

        D^2h/h - grad h grad h^T/h^2 + x x^T/<x, u>^2,

    with D^2h from `support_hessians`.  f is 0-homogeneous, so H u = -grad f
    and H is singular along u at the maximizer: the step solves with H
    shifted by max|diag H| along u alone, its eigenvalues replaced by their
    moduli (at least 1e-8 of the largest), so every step descends.  Each
    round builds the live rows' Hessians in one support call and tries the
    full steps of all of them in another.  A row takes the first fraction
    1, 1/2, 1/4, ... of its step that passes Armijo, or that keeps f within
    4 eps max(1, |f|) and lowers |grad f|_inf; the rows that take none try
    the next fraction together.  A row stops once the decrease one more
    step predicts, -grad f . step / 2, is at most GAUGE_STOP, once no
    fraction passes, or after GAUGE_STEPS steps.  Directions with
    <x, u> <= 0 or h(u) <= 0 lie outside the domain.  Every row is computed
    from its own values alone, so it does not depend on its batch-mates.

    A row starts from its U0 row, normalized, when that is inside the
    domain, and otherwise from x/|x|, which is inside whenever the origin is
    interior to K.  The returned tolerance is the largest decrease that one
    more step predicts at any row's final point, floored at 1e-14: where
    Newton converges quadratically that estimates f(u) - f(u*), the relative
    error left in the gauge.
    """
    def fg(U, Xr):
        dots = np.sum(Xr * U, axis=1)
        h, grad_h = body.support_batch(U)
        bad = (dots <= 0) | (h <= 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.log(h) - np.log(dots)
            g = grad_h / h[:, None] - Xr / dots[:, None]
        f[bad] = np.inf
        g[bad] = 0.0
        return f, g, h, grad_h, dots

    U = X / np.linalg.norm(X, axis=1)[:, None]
    if U0 is not None:
        norms = np.linalg.norm(U0, axis=1)
        usable = np.isfinite(norms) & (norms > 0)
        warm = U.copy()
        warm[usable] = U0[usable] / norms[usable, None]
        inside = np.isfinite(fg(warm, X)[0])
        U[inside] = warm[inside]
    F, G, h, gh, dots = fg(U, X)
    if not np.all(np.isfinite(F)):
        raise BodyError("gauge undefined: the origin is not interior to the body")
    predicted = np.zeros(X.shape[0])
    live = np.arange(X.shape[0])
    for _ in range(GAUGE_STEPS):
        Ul, Gl = U[live], G[live]
        H = (support_hessians(body, Ul) / h[live, None, None]
             - (gh[live, :, None] * gh[live, None, :]) / (h[live] ** 2)[:, None, None]
             + (X[live, :, None] * X[live, None, :]) / (dots[live] ** 2)[:, None, None])
        uhat = Ul / np.linalg.norm(Ul, axis=1)[:, None]
        H += (np.abs(np.diagonal(H, axis1=1, axis2=2)).max(axis=1)[:, None, None]
              * (uhat[:, :, None] * uhat[:, None, :]))
        lam, V = np.linalg.eigh(H)
        mag = np.abs(lam)
        mag = np.maximum(mag, 1e-8 * mag.max(axis=1)[:, None])
        coef = (V.transpose(0, 2, 1) @ Gl[:, :, None])[:, :, 0] / mag
        D = -(V @ coef[:, :, None])[:, :, 0]
        slope = (Gl[:, None, :] @ D[:, :, None])[:, 0, 0]
        predicted[live] = -0.5 * slope
        go = -0.5 * slope > GAUGE_STOP
        live, D, slope = live[go], D[go], slope[go]
        rows = np.arange(live.size)     # positions in live of the rows still trying
        t = 1.0
        for _ in range(GAUGE_HALVINGS):
            if rows.size == 0:
                break
            i = live[rows]
            Ft, Gt, ht, ght, dt = fg(U[i] + t * D[rows], X[i])
            band = 4.0 * EPS * np.maximum(1.0, np.abs(F[i]))
            take = ((Ft <= F[i] + ARMIJO * t * slope[rows])
                    | ((Ft <= F[i] + band)
                       & (np.abs(Gt).max(axis=1) < np.abs(G[i]).max(axis=1))))
            j = i[take]
            U[j] = U[j] + t * D[rows[take]]
            F[j], G[j], h[j], gh[j], dots[j] = Ft[take], Gt[take], ht[take], ght[take], dt[take]
            rows = rows[~take]
            t *= 0.5
        live = np.delete(live, rows)    # no fraction taken: the row is at its floor
        if live.size == 0:
            break
    vals = np.exp(-F)
    grads = U * (vals / np.sum(X * U, axis=1))[:, None]
    return vals, grads, max(float(predicted.max()), 1e-14)


def quadric(body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """(A, c) with body = {x : (x - c)^T A (x - c) <= 1}.

    Defined for the quadratic leaves (Ball, Ellipsoid, GeneralEllipsoid)
    under any stack of Translate, Scale and LinearImage; any other node
    raises a BodyError that names it.
    """
    if isinstance(body, Ball):
        return np.eye(body.dim) / body.radius ** 2, np.zeros(body.dim)
    if isinstance(body, Ellipsoid):
        return np.diag(1.0 / body._d2), np.zeros(body.dim)
    if isinstance(body, GeneralEllipsoid):
        A = np.linalg.inv(body.Q)
        return 0.5 * (A + A.T), np.zeros(body.dim)
    if isinstance(body, Translate):
        A, c = quadric(body.body)
        return A, c + body.vector
    if isinstance(body, Scale):
        A, c = quadric(body.body)
        return A / body.factor ** 2, body.factor * c
    if isinstance(body, LinearImage):
        A, c = quadric(body.body)
        M_inv = np.linalg.inv(body.matrix)
        A = M_inv.T @ A @ M_inv
        return 0.5 * (A + A.T), body.matrix @ c
    raise BodyError(f"intersections take balls, ellipsoids and general ellipsoids under "
                    f"translations, scalings and linear images; got a {type(body).__name__}")


# Newton steps of the pencil minimization in t (`_pencil_minimum`): a row
# stops once its step is at most PENCIL_STEP_TOL, and after at most
# PENCIL_STEPS steps, enough for bisection alone to reach it.
PENCIL_STEP_TOL = 1e-15
PENCIL_STEPS = 64


def _pencil_minimum(derivatives, n: int) -> np.ndarray:
    """Per row, the t in [0, 1] that minimizes a quasi-convex function of t.

    `derivatives(t, rows)` gives its first and second derivatives at t for
    those rows.  A row whose first derivative is >= 0 at t = 0 (<= 0 at
    t = 1) has its minimum at that endpoint.  The others take safeguarded
    Newton steps on the first derivative, from the root of its chord over
    [0, 1]: the bracket [lo, hi] keeps a negative derivative at lo and a
    positive one at hi, and a step that leaves it, or meets a second
    derivative <= 0, is replaced by bisection.
    """
    g0, _ = derivatives(np.zeros(n), np.arange(n))
    g1, _ = derivatives(np.ones(n), np.arange(n))
    t = np.where(g0 >= 0, 0.0, 1.0)
    live = np.flatnonzero((g0 < 0) & (g1 > 0))
    lo, hi = np.zeros(live.size), np.ones(live.size)
    x = g0[live] / (g0[live] - g1[live])
    for _ in range(PENCIL_STEPS):
        if live.size == 0:
            break
        g, dg = derivatives(x, live)
        lo = np.where(g < 0, x, lo)
        hi = np.where(g > 0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - g / dg
        x_new = np.where((dg > 0) & (newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
        t[live] = x_new
        go = np.abs(x_new - x) > PENCIL_STEP_TOL
        live, x, lo, hi = live[go], x_new[go], lo[go], hi[go]
    return t


def intersection_support_batch(K: ConvexBody, T: ConvexBody, U: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Support values and support points of K cap T at the rows of U.

    K and T must be quadratic (`quadric`): K = {q_K <= 1}, T = {q_T <= 1}
    with q_K(x) = (x - a)^T A (x - a) and q_T(x) = (x - b)^T B (x - b).
    Lagrangian duality for the two convex constraints gives

        h_{K cap T}(u) = min_{t in [0, 1]} h_{E_t}(u),
        E_t = {t q_K + (1 - t) q_T <= 1},

    with E_1 = K and E_0 = T.  One generalized eigendecomposition
    W^T A W = diag(lam), W^T B W = I diagonalizes the whole pencil: in
    y = W^{-1} x, with D = t lam + 1 - t and P = t lam a' + (1 - t) b'
    (a' = W^{-1} a, b' = W^{-1} b), E_t is the ellipsoid

        sum_i D_i (y_i - m_i)^2 <= rho(t),   m = P / D,
        rho(t) = 1 - t sum lam a'^2 - (1 - t) sum b'^2 + sum P^2 / D,

    so h_{E_t}(u) = <v, m> + sqrt(rho S) with v = W^T u and S = sum v^2 / D,
    attained at y = m + sqrt(rho / S) v / D.  In t, P and D are linear and
    N = P' D - P D' = lam (a' - b') is constant, so m' = N / D^2,
    rho'' = 2 sum N^2 / D^3 and the other derivatives are closed form too.
    rho does not depend on u and is convex; if its minimum over [0, 1] is
    <= 0, E_t is empty or a point there, and so is K cap T.  h_{E_t}(u) is
    quasi-convex in t: it is the infimum over s > 0 of the dual function,
    which is convex in the multipliers (s t, s (1 - t)), so its sublevel
    sets are the radial shadows of convex sets on the segment, intervals.
    `_pencil_minimum` finds its minimum, and the values at t = 0 and t = 1
    join the comparison.

    Returns (values, points): the support values and the support points,
    which lie in both bodies with <u, x> = h_{K cap T}(u).  Raises BodyError
    for a non-quadratic body and DegenerateIntersectionError for an empty
    or single-point intersection.
    """
    if K.dim != T.dim:
        raise BodyError(f"dimension mismatch: {K.dim} vs {T.dim}")
    (A, a), (B, b) = quadric(K), quadric(T)
    lam, W = eigh(A, B)
    a_, b_ = W.T @ (B @ a), W.T @ (B @ b)
    alpha, beta = float(np.sum(lam * a_ ** 2)), float(np.sum(b_ ** 2))
    dP, dD, N = lam * a_ - b_, lam - 1.0, lam * (a_ - b_)

    def pencil(t):
        # D, m, rho, rho' and rho'' at the column of values t
        D = t * lam + (1.0 - t)
        m = (t * lam * a_ + (1.0 - t) * b_) / D
        t = t[:, 0]
        rho = 1.0 - t * alpha - (1.0 - t) * beta + np.sum(D * m * m, axis=1)
        drho = beta - alpha + np.sum(2.0 * m * dP - m * m * dD, axis=1)
        return D, m, rho, drho, 2.0 * np.sum(N * N / D ** 3, axis=1)

    t_rho = _pencil_minimum(lambda t, rows: pencil(t[:, None])[3:], 1)
    rho_min = pencil(t_rho[:, None])[2][0]
    if not rho_min > 0:
        raise DegenerateIntersectionError(
            f"the intersection is empty or a point (pencil radius^2 {rho_min:.3g} "
            f"at t = {t_rho[0]:.6g})")

    V = np.asarray(U, dtype=float) @ W

    def h_derivatives(t, rows):
        D, m, rho, drho, d2rho = pencil(t[:, None])
        v = V[rows]
        q = v * v / D ** 2
        S = np.sum(v * v / D, axis=1)
        dS, d2S = -np.sum(q * dD, axis=1), 2.0 * np.sum(q * dD ** 2 / D, axis=1)
        Pr, dPr = rho * S, drho * S + rho * dS
        d2Pr = d2rho * S + 2.0 * drho * dS + rho * d2S
        root = np.sqrt(Pr)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.sum(v * N / D ** 2, axis=1) + dPr / (2.0 * root)
            dg = (np.sum(-2.0 * v * N * dD / D ** 3, axis=1) + d2Pr / (2.0 * root)
                  - dPr ** 2 / (4.0 * Pr * root))
        return g, dg

    n = V.shape[0]
    best_vals, best_Y = np.full(n, np.inf), np.zeros_like(V)
    for t in (_pencil_minimum(h_derivatives, n), np.zeros(n), np.ones(n)):
        D, m, rho, _, _ = pencil(t[:, None])
        S = np.sum(V * V / D, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            Y = m + np.where(S[:, None] > 0, np.sqrt(rho / S)[:, None] * V / D, 0.0)
        vals = np.sum(V * m, axis=1) + np.sqrt(rho * S)
        better = vals < best_vals
        best_vals[better], best_Y[better] = vals[better], Y[better]
    return best_vals, best_Y @ W.T


# ---------------------------------------------------------------------------
# recipe documents
# ---------------------------------------------------------------------------

def build_body(document: dict, path: str = "body") -> ConvexBody:
    """Validate a recipe document and build the immutable descriptor tree.

    Raises BodyError with the offending field path on malformed input.
    """
    if not isinstance(document, dict):
        raise BodyError(f"{path}: expected an object, got {type(document).__name__}")
    if "type" not in document:
        raise BodyError(f"{path}: missing 'type' field")
    kind = document["type"]

    def need(field):
        if field not in document:
            raise BodyError(f"{path}: '{kind}' requires field '{field}'")
        return document[field]

    def numeric(value, where):
        # JSON booleans and strings are not numbers, though float() takes them
        if isinstance(value, (list, tuple)):
            for i, entry in enumerate(value):
                numeric(entry, f"{where}[{i}]")
        elif isinstance(value, (bool, str)):
            raise BodyError(f"{where}: expected a number, got {value!r}")
        return value

    def array(field):
        return numeric(need(field), f"{path}.{field}")

    def number(field, default=None):
        value = need(field) if default is None else document.get(field, default)
        numeric(value, f"{path}.{field}")
        try:
            return float(value)
        except (TypeError, ValueError):
            raise BodyError(f"{path}.{field}: expected a number, got {value!r}") from None

    try:
        if kind == "ball":
            r, dim = number("r"), number("dim")
            if not dim.is_integer():
                raise BodyError(f"{path}.dim: expected an integer, got {document['dim']!r}")
            return Ball(r, int(dim))
        if kind == "ellipsoid":
            return Ellipsoid(array("radii"))
        if kind == "general_ellipsoid":
            return GeneralEllipsoid(array("Q"))
        if kind == "polytope":
            return Polytope(array("vertices"))
        if kind == "psum":
            terms = [build_body(t, f"{path}.terms[{i}]") for i, t in enumerate(need("terms"))]
            return PSum(number("p"), terms)
        if kind == "minkowski":
            terms = [build_body(t, f"{path}.terms[{i}]") for i, t in enumerate(need("terms"))]
            weights = document.get("weights")
            return MinkowskiSum(terms, None if weights is None else array("weights"))
        if kind == "linear":
            return LinearImage(array("matrix"), build_body(need("body"), f"{path}.body"))
        if kind == "translate":
            return Translate(array("vector"), build_body(need("body"), f"{path}.body"))
        if kind == "scale":
            return Scale(number("factor"), build_body(need("body"), f"{path}.body"))
        if kind == "smoothed":
            return Smoothed(build_body(need("body"), f"{path}.body"),
                            number("sharpness", default=64.0))
    except BodyError as e:
        msg = str(e)
        if not msg.startswith(path):
            raise BodyError(f"{path}: {msg}") from None
        raise
    raise BodyError(f"{path}: unknown body type '{kind}'")
