"""Convex bodies represented through their support functions.

A body is an immutable descriptor tree.  Leaves (balls, ellipsoids,
polytopes) know their support function h_K(u) = sup_{x in K} <x, u> in
closed form; composite nodes (p-sums, Minkowski combinations, linear
images, translates, scalings, smoothed polytopes) compose the children's
support values and support points by the standard rules.  The gradient of
h_K at a smooth direction is the support point, i.e. the boundary point
where the supremum is attained.

Gauges ||x||_K = inf{r > 0 : x/r in K} are closed form on the quadratic
bodies of `quadric` (balls, ellipsoids and general ellipsoids under
translations, scalings and linear images): the gauge is the positive root of
a quadratic.  Otherwise the gauge is max_u <x, u>/h_K(u) by polarity, found by
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

The intersection of two quadratic bodies is the `Intersection` node: its
support function is the minimum over t in [0, 1] of the support of the
ellipsoid pencil {t q_K + (1 - t) q_T <= 1}, closed form after one
generalized eigendecomposition, which the node makes once, together with
the pencil's constants at t = 0 and t = 1.  A support call reads every
row's value and slope at both ends from those constants.  Only the rows
whose minimum is interior search for it: from the minimum of the cubic
Hermite interpolant of those ends, by Halley steps on the closed-form
second and third t-derivatives, in about two passes.  Those rows are
evaluated once at their minimum, and each support point is built once, at
its winning t.

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

    # -- gauge ---------------------------------------------------------------

    def gauge_batch(self, X: np.ndarray, directions: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Gauge values and gradients for points X; returns (vals, grads, tol).

        A quadratic body (`quadric`) gets the closed-form gauge of
        `_quadric_gauge`, any other body the Newton gauge of `_gauge_by_newton`.
        `directions` optionally gives each row a warm start for the Newton
        gauge: a guess of the outer normal of K at the boundary point on the
        ray through x, up to a positive factor.  Quadratic bodies ignore it.
        `tol` estimates the relative gauge error left (0 for quadratic bodies).
        """
        X = np.asarray(X, dtype=float)
        if directions is not None:
            directions = np.asarray(directions, dtype=float)
            if directions.shape != X.shape:
                raise BodyError(f"directions have shape {directions.shape}, "
                                f"points have shape {X.shape}")
        try:
            form = quadric(self)
        except BodyError:
            form = None
        nz = np.linalg.norm(X, axis=1) > 0
        vals = np.zeros(X.shape[0])
        grads = np.zeros_like(X)
        tol = 0.0
        if np.any(nz) and form is not None:
            vals[nz], grads[nz] = _quadric_gauge(*form, X[nz])
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


def direction_design(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Antipodally symmetric quasi-uniform directions on the sphere: rows i and
    i + count/2 (count rounded up to even) are opposite."""
    half = (count + 1) // 2
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD12)))
    U = rng.normal(size=(half, dim))
    U /= np.linalg.norm(U, axis=1)[:, None]
    return np.vstack([U, -U])


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

    def recipe(self):
        return {"type": "general_ellipsoid", "Q": self.Q.tolist()}


class Polytope(ConvexBody):
    """Convex hull of a vertex list; support picks the lowest-index maximizer.

    The constructor makes the polytope's one Qhull call, on the vertices
    divided by the power of two 2^e just above max|v|.  That division is
    exact, so the hull of a scaled copy is the scaled hull bit for bit.
    Qhull on the vertices as they are does not scale so: it orders the
    facets of a copy scaled by 2^-30 differently, and in R^4 it fails from
    coordinates of about 1e60 on and crashes the interpreter from about
    1e140 on.  A set that Qhull finds flat is rejected as degenerate.  The
    origin is interior when every facet's offset h_i = h_P(n_i) exceeds
    1e-12 max|v|, a floor relative to the vertices' scale, far above the
    offsets' roundoff.  The raw equations are kept for `facets`.
    """

    def __init__(self, vertices):
        from scipy.spatial import ConvexHull, QhullError
        V = _as_matrix(vertices, "vertices")
        _even_dim(V.shape[1])
        if V.shape[0] < V.shape[1] + 1:
            raise BodyError("a full-dimensional polytope needs at least dim+1 vertices")
        if np.linalg.matrix_rank(V - V[0], tol=1e-10) < V.shape[1]:
            raise BodyError("polytope is degenerate (vertices span a lower-dimensional set)")
        self.vertices = _freeze(V)
        self.dim = V.shape[1]
        top = np.abs(V).max()
        scale = 2.0 ** np.frexp(top)[1]
        try:
            eq = ConvexHull(V / scale).equations
        except QhullError as exc:
            raise BodyError("polytope is degenerate (Qhull finds its vertices flat)") from exc
        eq[:, -1] *= scale
        self._equations = _freeze(eq)
        if not np.all(-eq[:, -1] > 1e-12 * top):
            raise BodyError("origin is not strictly inside the polytope")

    @cached_property
    def facets(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit outer normals n_i (F, dim) and support numbers h_i = h_P(n_i)
        (F,) of the facets, merged on first use from the constructor's hull.

        The hull is triangulated, so a facet with more than dim vertices
        comes as several simplices with the same equation; those are merged
        (equations within 1e-9), and each facet keeps its first simplex's.
        The merge is O(F^2), so it stays out of the constructor.
        """
        eq = self._equations
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
    from its own values alone, and a lone row goes through `support_batch`
    as two (numpy multiplies one row on BLAS's matrix-vector path, whose
    bits differ, as in `LinearImage`), so a row does not depend on its
    batch-mates where the body's support rows do not.

    A row starts from its U0 row, normalized, when that is inside the
    domain, and otherwise from x/|x|, which is inside whenever the origin is
    interior to K.  The returned tolerance is the largest decrease that one
    more step predicts at any row's final point, floored at 1e-14: where
    Newton converges quadratically that estimates f(u) - f(u*), the relative
    error left in the gauge.
    """
    def fg(U, Xr):
        dots = np.sum(Xr * U, axis=1)
        n = U.shape[0]
        h, grad_h = body.support_batch(np.repeat(U, 2, axis=0) if n == 1 else U)
        h, grad_h = h[:n], grad_h[:n]
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


def affine_part(body: ConvexBody) -> tuple[np.ndarray, np.ndarray, ConvexBody]:
    """(A, c, core) with body = A core + c, where core is the first node
    below body's stack of Translate, Scale and LinearImage nodes.

    One pass down the stack: K = A (x0 + K') + c gives c += A x0, K = A (s K') + c
    gives A <- s A, and K = A (M K') + c gives A <- A M.
    """
    A, c = np.eye(body.dim), np.zeros(body.dim)
    while isinstance(body, (Translate, Scale, LinearImage)):
        if isinstance(body, Translate):
            c = c + A @ body.vector
        elif isinstance(body, Scale):
            A = body.factor * A
        else:
            A = A @ body.matrix
        body = body.body
    return A, c, body


def quadric(body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """(Q, c) with body = {x : (x - c)^T Q (x - c) <= 1}.

    Defined when the core of `affine_part` is a quadratic leaf (Ball,
    Ellipsoid, GeneralEllipsoid): with body = A core + c, the leaf's form is
    mapped once to A^-T Q A^-1.  Any other core raises a BodyError that
    names it.
    """
    A, c, core = affine_part(body)
    if isinstance(core, Ball):
        Q = np.eye(core.dim) / core.radius ** 2
    elif isinstance(core, Ellipsoid):
        Q = np.diag(1.0 / core._d2)
    elif isinstance(core, GeneralEllipsoid):
        Q = np.linalg.inv(core.Q)
    else:
        raise BodyError(f"intersections take balls, ellipsoids and general ellipsoids under "
                        f"translations, scalings and linear images; got a {type(core).__name__}")
    A_inv = np.linalg.inv(A)
    Q = A_inv.T @ Q @ A_inv
    return 0.5 * (Q + Q.T), c


def _quadric_gauge(A: np.ndarray, c: np.ndarray, X: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Gauge values and gradients of {y : (y - c)^T A (y - c) <= 1} at the
    nonzero rows of X, in closed form.

    x/r is on the boundary when (x - r c)^T A (x - r c) = r^2, so the gauge
    is the positive root of a r^2 + 2 b r - q = 0 with q = x^T A x,
    b = c^T A x and a = 1 - c^T A c, which is positive exactly when the
    origin is interior.  With s = sqrt(b^2 + a q) the root is taken as
    q / (b + s) for b > 0 and (s - b) / a otherwise, so that nothing
    cancels (and r = s for c = 0).  Differentiating the boundary equation
    gives the gradient A (x - r c) / (c^T A (x - r c) + r).
    """
    a = 1.0 - c @ A @ c
    if not a > 0:
        raise BodyError("gauge undefined: the origin is not interior to the body")
    AX = X @ A
    q = np.sum(X * AX, axis=1)
    b = AX @ c
    s = np.sqrt(b * b + a * q)
    r = np.where(b > 0, q / (b + s), (s - b) / a)
    AY = (X - r[:, None] * c) @ A
    return r, AY / (AY @ c + r)[:, None]


# The pencil minimization in t (`_pencil_minimum`) starts each row at the
# minimum of the cubic Hermite interpolant of its ends and takes Halley
# steps.  A row stops once its step is at most PENCIL_STEP_TOL, or, after two
# Halley steps in a row, once the next step that cubic convergence predicts,
# C s_k^3, is at most PENCIL_STEP_TOL (that saves the pass that would only
# confirm it); and after at most PENCIL_STEPS steps, enough for bisection
# alone to reach it.  The error constant C is the larger of two estimates:
# s_k / s_{k-1}^3 from the last two steps, and (h''' / (2 h''))^2 at the
# last iterate, the first term of Halley's constant (h''' / (2 h''))^2 -
# h'''' / (6 h'').  The first alone is low when the first step starts far
# from the root: 0.094 against 1.45 on a row of a general ellipsoid pair of
# condition 20, which stopped 1.2e-14 from its root.  At the rounding floor
# the first derivative is noise: +-5e-17 against a second derivative of 0.05
# bounces t between two values 10-20 ulps apart, in steps of about 1.2e-15.
# So a row also stops once a step below PENCIL_FLOOR_STEP is no shorter than
# the step before it.  (A bracket collapsed to a few ulps of t <= 1 needs no
# rule of its own: its steps are below PENCIL_STEP_TOL.)
PENCIL_STEP_TOL = 1e-15
PENCIL_STEPS = 64
PENCIL_FLOOR_STEP = 1e-12


def _hermite_start(h0, h1, g0, g1):
    """Per row, the root in (0, 1) of the derivative of the cubic Hermite
    interpolant of values h0, h1 and slopes g0 < 0 < g1 at t = 0, 1, or the
    root g0 / (g0 - g1) of the chord of the slopes where that root is not in
    (0, 1).

    The derivative is a t^2 + b t + g0 with a = 3 (g0 + g1) - 6 (h1 - h0) and
    b = 6 (h1 - h0) - 4 g0 - 2 g1, and the root where it turns positive is
    taken in the form without cancellation: -2 g0 / (b + s) for b >= 0 and
    (s - b) / (2 a) otherwise, s = sqrt(b^2 - 4 a g0).
    """
    d = h1 - h0
    a = 3.0 * (g0 + g1) - 6.0 * d
    b = 6.0 * d - 4.0 * g0 - 2.0 * g1
    s = np.sqrt(b * b - 4.0 * a * g0)
    t = np.where(b >= 0, -2.0 * g0 / (b + s), (s - b) / (2.0 * a))
    return np.where((t > 0) & (t < 1), t, g0 / (g0 - g1))


def _pencil_minimum(derivatives, h0: np.ndarray, h1: np.ndarray, g0: np.ndarray,
                    g1: np.ndarray) -> np.ndarray:
    """Per row, the t in [0, 1] that minimizes a quasi-convex function h of t.

    h0, h1 and g0, g1 are its values and first derivatives at t = 0 and
    t = 1, and `derivatives(t, rows)` gives its first three derivatives at t
    for those rows.  A row with g0 >= 0 (g1 <= 0) has its minimum at that
    endpoint.  The others start at `_hermite_start` and take safeguarded
    Halley steps on h': the bracket [lo, hi] keeps h' < 0 at lo and h' > 0 at
    hi, a step that leaves it, or meets h'' <= 0, is replaced by bisection,
    and where the Halley denominator 2 h''^2 - h' h''' is not positive the
    Newton step is taken instead.  The PENCIL_* constants say when a row
    stops.  Divisions by zero on degenerate rows, in `_hermite_start` and in
    the caller's derivatives, are silenced once for the whole loop.
    """
    t = np.where(g0 >= 0, 0.0, 1.0)
    live = np.flatnonzero((g0 < 0) & (g1 > 0))
    if live.size == 0:
        return t
    with np.errstate(divide="ignore", invalid="ignore"):
        x = _hermite_start(h0[live], h1[live], g0[live], g1[live])
        lo, hi = np.zeros(live.size), np.ones(live.size)
        step = np.full(live.size, np.inf)
        cubic = np.zeros(live.size, dtype=bool)     # the last step was Halley's
        for _ in range(PENCIL_STEPS):
            g, dg, d3g = derivatives(x, live)
            np.copyto(lo, x, where=g < 0)
            np.copyto(hi, x, where=g > 0)
            # Halley's step g / (dg - g A), A = d3g / (2 dg), or Newton's g / dg
            A = 0.5 * d3g / dg
            den = dg - g * A
            halley = den > 0
            np.copyto(den, dg, where=~halley)
            x_new = x - g / den
            ok = (dg > 0) & (x_new >= lo) & (x_new <= hi)
            np.copyto(x_new, 0.5 * (lo + hi), where=~ok)
            t[live] = x_new
            new_step = np.abs(x_new - x)
            halley &= ok
            # Halley's error constant, from the last two steps or from A
            C = np.maximum(new_step / step ** 3, A * A)
            go = ((new_step > PENCIL_STEP_TOL)
                  & ((new_step < step) | (new_step >= PENCIL_FLOOR_STEP))
                  & ~(halley & cubic & (C * new_step ** 3 <= PENCIL_STEP_TOL)))
            if go.all():
                x, step, cubic = x_new, new_step, halley
                continue
            live, x, lo, hi = live[go], x_new[go], lo[go], hi[go]
            step, cubic = new_step[go], halley[go]
            if live.size == 0:
                break
    return t


class Intersection(ConvexBody):
    """Intersection K cap T of two quadratic bodies (`quadric`).

    With K = {q_K <= 1} and T = {q_T <= 1}, q_K(x) = (x - a)^T A (x - a)
    and q_T(x) = (x - b)^T B (x - b), Lagrangian duality for the two convex
    constraints gives

        h_{K cap T}(u) = min_{t in [0, 1]} h_{E_t}(u),
        E_t = {t q_K + (1 - t) q_T <= 1},

    with E_1 = K and E_0 = T.  One generalized eigendecomposition
    W^T A W = diag(lam), W^T B W = I diagonalizes the whole pencil: in
    y = W^{-1} x, with D = t lam + 1 - t and P = t lam a' + (1 - t) b'
    (a' = W^{-1} a, b' = W^{-1} b), E_t is the ellipsoid

        sum_i D_i (y_i - m_i)^2 <= rho(t),   m = P / D,
        rho(t) = 1 - t sum lam a'^2 - (1 - t) sum b'^2 + sum P^2 / D
               = 1 - t (1 - t) sum L / D,   L = lam (a' - b')^2,

    so h_{E_t}(u) = <v, m> + sqrt(rho S) with v = W^T u and S = sum v^2 / D,
    attained at y = m + sqrt(rho / S) v / D.  In t, P and D are linear and
    N = P' D - P D' = lam (a' - b') is constant, so m' = N / D^2,
    rho'' = 2 sum N^2 / D^3 and the other derivatives are closed form too.
    rho does not depend on u and is convex; if its minimum over [0, 1] is
    <= 0, E_t is empty or a point there, and so is K cap T.  h_{E_t}(u) is
    quasi-convex in t: it is the infimum over s > 0 of the dual function,
    which is convex in the multipliers (s t, s (1 - t)), so its sublevel
    sets are the radial shadows of convex sets on the segment, intervals.

    The constructor reduces both bodies (a BodyError names a non-quadratic
    one), decomposes the pencil and checks rho, raising
    DegenerateIntersectionError for an empty or single-point intersection.
    It stores `centre`, the centre W m of E_t at rho's minimum t: by minimax,
    max(q_K, q_T) = 1 - min rho there, so the centre is interior exactly when
    the rho check passes.
    It also caches the pencil at the ends t = 0 and t = 1, where D, m, rho
    and rho' do not depend on the row.  `support_batch` then makes one pass
    per class of rows.  Every row's h and h' at both ends are products of v
    and v^2 with those cached constants.  Only the rows with h'(0) < 0 <
    h'(1) have an interior minimum t*; only they run `_pencil_minimum` on
    `_derivatives`: a start at the minimum of the cubic Hermite interpolant
    of h and h' at both ends, then Halley steps on h'' and h''' in closed
    form.  Only they are evaluated at t*, against the lower end.
    Each row's support point is built once, at its winning t.  Support
    points lie in both bodies with <u, x> = h_{K cap T}(u).  Both bodies are
    strictly convex, so the intersection is too, and its support function is
    differentiable.
    """

    def __init__(self, K: ConvexBody, T: ConvexBody):
        if K.dim != T.dim:
            raise BodyError(f"dimension mismatch: {K.dim} vs {T.dim}")
        self.quadrics = (quadric(K), quadric(T))
        (A, a), (B, b) = self.quadrics
        self.terms = (K, T)
        self.dim = K.dim
        lam, self._W = eigh(A, B)
        a_, b_ = self._W.T @ (B @ a), self._W.T @ (B @ b)
        self._lam, self._a, self._b = lam, a_, b_
        dD, N = lam - 1.0, lam * (a_ - b_)
        self._dD, self._L = dD, N * (a_ - b_)
        # numerators of `_derivatives`' row sums over 1/D, ..., 1/D^4: the
        # pencil's own, then those of v^2 and of v
        self._rho_num = np.vstack([self._L, self._L * dD, 2.0 * N * N, -6.0 * N * N * dD])
        self._vv_num = np.vstack([np.ones_like(dD), -dD, 2.0 * dD * dD, -6.0 * dD ** 3])
        self._v_num = np.vstack([np.zeros_like(dD), N, -2.0 * N * dD, 6.0 * N * dD * dD])
        # the ends t = 0, 1: <v, m> and <v, N / D^2> are the columns of
        # V @ _end_V, and S and -S' those of (V * V) @ _end_VV; rho is 1 at
        # both, and rho' is -sum L at t = 0 and sum (a' - b')^2 at t = 1
        D, m, _ = self._pencil(np.array([[0.0], [1.0]]))
        self._end_D, self._end_m = D, m
        self._end_V = np.vstack([m, N / D ** 2]).T
        self._end_VV = np.vstack([1.0 / D, dD / D ** 2]).T
        self._end_drho = np.array([-self._L.sum(), ((a_ - b_) ** 2).sum()])
        Z = self._sum_terms(np.zeros((1, self.dim)))   # a zero row: only rho's sums
        one = np.ones(1)
        t_rho = _pencil_minimum(lambda t, rows: self._derivatives(t, Z)[:3],
                                one, one, self._end_drho[:1], self._end_drho[1:])
        _, (m_rho,), (rho_min,) = self._pencil(t_rho[:, None])
        self.centre = self._W @ m_rho
        if not rho_min > 0:
            raise DegenerateIntersectionError(
                f"the intersection is empty or a point (pencil radius^2 {rho_min:.3g} "
                f"at t = {t_rho[0]:.6g})")

    # Leibniz's rule as a matrix: row 4 i + j takes rho^(i) S^(j) into the
    # (i + j)-th derivative of rho S, with weight binomial(i + j, i)
    _LEIBNIZ = np.array([[math.comb(k, i) if i + j == k else 0.0 for k in range(4)]
                         for i in range(4) for j in range(4)])

    def _pencil(self, t):
        # D, m and rho at the column of values t
        tl, s = t * self._lam, 1.0 - t
        D = tl + s
        m = (tl * self._a + s * self._b) / D
        return D, m, 1.0 - (t * s)[:, 0] * (self._L / D).sum(axis=1)

    def _sum_terms(self, V):
        # the numerators of `_derivatives`' row sums at the rows V: C[i, k]
        # holds those over 1/D^(k + 1), of the pencil, of v^2 and of v
        C = np.empty((V.shape[0], 4, 3, self.dim))
        C[:, :, 0] = self._rho_num
        np.multiply((V * V)[:, None], self._vv_num, out=C[:, :, 1])
        np.multiply(V[:, None], self._v_num, out=C[:, :, 2])
        return C

    def _derivatives(self, t, C):
        """rho', rho'', rho''' and the first three t-derivatives of h_{E_t}
        at t[i] for the row whose `_sum_terms` are C[i].

        1/D, ..., 1/D^4 are formed once, and the twelve row sums over them
        are one matrix product per row.  For 1/D^k they are a sum of the
        pencil (sum L / D and sum L D' / D^2, from which rho and rho' follow,
        then rho'' = 2 sum N^2 / D^3 and rho''' = -6 sum N^2 D' / D^4), the
        (k - 1)-th derivative of S = sum v^2 / D and the (k - 1)-th of <v, m>
        (m^(k) = (-1)^(k - 1) k! N D'^(k - 1) / D^(k + 1); none for k = 1).
        Leibniz's rule gives the derivatives of P = rho S, and those of
        h = <v, m> + sqrt(P) follow with q = P' / P:

            h'   = <v, m'>   + P' / (2 sqrt(P)),
            h''  = <v, m''>  + (P'' - q P' / 2) / (2 sqrt(P)),
            h''' = <v, m'''> + (P''' - 3 q P'' / 2 + 3 q^2 P' / 4) / (2 sqrt(P)).

        Each row's numbers come from its own values alone (the products are
        stacked, one per row).
        """
        n = t.size
        R = np.empty((n, 4, self.dim))              # 1/D, ..., 1/D^4
        np.divide(1.0, t[:, None] * self._dD + 1.0, out=R[:, 0])
        np.multiply(R[:, 0], R[:, 0], out=R[:, 1])
        np.multiply(R[:, 1:2], R[:, :2], out=R[:, 2:])
        s = (C @ R[..., None])[..., 0]
        u = t * (1.0 - t)
        s[:, 0, 0], s[:, 1, 0] = 1.0 - u * s[:, 0, 0], (2.0 * t - 1.0) * s[:, 0, 0] + u * s[:, 1, 0]
        # s[:, k, 0] and s[:, k, 1] are now the k-th derivatives of rho and S
        P = (s[:, :, 0, None] * s[:, None, :, 1]).reshape(n, 1, 16) @ self._LEIBNIZ
        P, dP, d2P, d3P = P.reshape(n, 4).T
        w, q = 0.5 / np.sqrt(P), dP / P
        g = s[:, 1, 2] + dP * w
        dg = s[:, 2, 2] + (d2P - 0.5 * q * dP) * w
        d3g = s[:, 3, 2] + (d3P - q * (1.5 * d2P - 0.75 * q * dP)) * w
        return s[:, 1, 0], s[:, 2, 0], s[:, 3, 0], g, dg, d3g

    def support_batch(self, U):
        U = np.asarray(U, dtype=float)
        if U.shape[0] == 1:
            # numpy multiplies one row on BLAS's matrix-vector path, whose
            # bits differ from the same row's in a batch (in R^4)
            vals, X = self.support_batch(np.repeat(U, 2, axis=0))
            return vals[:1], X[:1]
        V = U @ self._W
        VV = V * V
        Vm, VD = V @ self._end_V, VV @ self._end_VV
        S = VD[:, :2]                               # rho is 1 at both ends
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt(S)
            h = Vm[:, :2] + root
            g = Vm[:, 2:] + (self._end_drho * S - VD[:, 2:]) / (2.0 * root)
            # every row at its lower end, then the rows with an interior
            # minimum at t*
            end = h[:, 1] < h[:, 0]
            vals, S = np.where(end, h[:, 1], h[:, 0]), np.where(end, S[:, 1], S[:, 0])
            end = end.astype(np.intp)
            Y = (self._end_m.take(end, axis=0) + np.where(S > 0, np.sqrt(1.0 / S), 0.0)[:, None]
                 * V / self._end_D.take(end, axis=0))
        inner = np.flatnonzero((g[:, 0] < 0) & (g[:, 1] > 0))
        Vi, hi, gi = V.take(inner, axis=0), h.take(inner, axis=0), g.take(inner, axis=0)
        C = self._sum_terms(Vi)
        t = _pencil_minimum(lambda t, live: self._derivatives(t, C.take(live, axis=0))[3:],
                            hi[:, 0], hi[:, 1], gi[:, 0], gi[:, 1])
        D, m, rho = self._pencil(t[:, None])
        S = (Vi * Vi / D).sum(axis=1)
        h_in = (Vi * m).sum(axis=1) + np.sqrt(rho * S)
        win = h_in <= vals.take(inner)
        j = inner[win]
        vals[j], Y[j] = h_in[win], (m + np.sqrt(rho / S)[:, None] * Vi / D)[win]
        return vals, Y @ self._W.T

    def excess(self, X: np.ndarray) -> np.ndarray:
        """max(q_K(x), q_T(x)) - 1 at the rows of X: positive outside K cap T."""
        qK, qT = (np.einsum("bi,ij,bj->b", X - c, A, X - c) for A, c in self.quadrics)
        return np.maximum(qK, qT) - 1.0

    def recipe(self):
        return {"type": "intersection", "terms": [t.recipe() for t in self.terms]}


def intersection_support_batch(K: ConvexBody, T: ConvexBody, U: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Support values and support points of K cap T at the rows of U: the
    support of `Intersection(K, T)`, whose constructor raises the errors."""
    return Intersection(K, T).support_batch(U)


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

    def body_list(field):
        value = need(field)
        if not isinstance(value, (list, tuple)):
            raise BodyError(f"{path}.{field}: expected an array of bodies, "
                            f"got {type(value).__name__}")
        return [build_body(t, f"{path}.{field}[{i}]") for i, t in enumerate(value)]

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
            terms = body_list("terms")
            return PSum(number("p"), terms)
        if kind == "minkowski":
            terms = body_list("terms")
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
        if kind == "intersection":
            terms = body_list("terms")
            if len(terms) != 2:
                raise BodyError(f"{path}.terms: an intersection takes two bodies, "
                                f"got {len(terms)}")
            try:
                return Intersection(*terms)
            except DegenerateIntersectionError as e:
                raise BodyError(f"{path}: {e}") from None
    except BodyError as e:
        msg = str(e)
        if not msg.startswith(path):
            raise BodyError(f"{path}: {msg}") from None
        raise
    raise BodyError(f"{path}: unknown body type '{kind}'")
