import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.optimize import minimize

from scipy.linalg import eigh

from ehz import bodies
from ehz.bodies import (Ball, BodyError, DegenerateIntersectionError, Ellipsoid,
                        GeneralEllipsoid, Intersection, LinearImage, MinkowskiSum, Polytope,
                        PENCIL_STEPS, PSum, Scale, Smoothed, Translate, _pencil_minimum,
                        affine_part, build_body, direction_design, intersection_support_batch,
                        quadric)
from ehz.harness import capacity_area_2d
from ehz.randbodies import random_general_ellipsoid, random_symmetric_polytope
from ehz.symplectic import random_symplectic

RNG = np.random.default_rng(2024)


def fd_support_gradient(body, u, h=1e-6):
    """Central finite differences of the support value."""
    E = h * np.eye(u.size)
    vals, _ = body.support_batch(np.vstack([u + E, u - E]))
    return (vals[:u.size] - vals[u.size:]) / (2 * h)


def random_directions(dim, count, rng=RNG):
    U = rng.normal(size=(count, dim))
    return U / np.linalg.norm(U, axis=1)[:, None]


# -- construction and validation ---------------------------------------------

def test_ball_basic():
    K = Ball(1.0, 4)
    assert K.dim == 4
    with pytest.raises(BodyError):
        Ball(1.0, 3)
    with pytest.raises(BodyError):
        Ball(-2.0, 4)


def test_polytope_origin_interior_enforced():
    square = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    assert square.dim == 2
    # all vertices in a half-space: origin outside the hull
    with pytest.raises(BodyError, match="origin"):
        Polytope([[1, 1], [1, -1], [2, 0], [3, 1]])


def test_polytope_origin_on_the_boundary_rejected():
    with pytest.raises(BodyError, match="origin"):      # origin on an edge
        Polytope([[0, 1], [0, -1], [2, 1], [2, -1]])
    with pytest.raises(BodyError, match="origin"):      # origin at a vertex
        Polytope([[0, 0], [1, 0], [0, 1], [1, 1]])
    with pytest.raises(BodyError, match="origin"):      # origin on a facet in R^4
        Polytope(np.vstack([np.eye(4), -np.eye(4)]) + np.eye(4)[0])


def test_polytope_degenerate_rejected():
    with pytest.raises(BodyError, match="degenerate"):
        Polytope([[1, 0], [-1, 0], [2, 0]])


@pytest.mark.parametrize("scale", [1e-100, 1e-12, 1e-6, 1e6, 1e20])
def test_polytope_origin_check_is_scale_free(scale):
    # the cases of the two origin tests above, on scaled copies
    assert Polytope(scale * np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]])).dim == 2
    for V in ([[1, 1], [1, -1], [2, 0], [3, 1]], [[0, 1], [0, -1], [2, 1], [2, -1]],
              [[0, 0], [1, 0], [0, 1], [1, 1]], np.vstack([np.eye(4), -np.eye(4)]) + np.eye(4)[0]):
        with pytest.raises(BodyError, match="origin"):
            Polytope(scale * np.asarray(V, dtype=float))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("dim", [2, 4])
def test_polytope_origin_just_inside_a_facet_accepted(scale, dim):
    # the cube [-1, 1]^dim shifted so that the origin lies 1e-9 max|v| inside
    # the facet x_0 = -delta
    cube = np.array(np.meshgrid(*[[-1.0, 1.0]] * dim)).reshape(dim, -1).T
    delta = 2e-9
    P = Polytope(scale * (cube + (1 - delta) * np.eye(dim)[0]))
    assert np.min(P.facets[1]) == pytest.approx(scale * delta, rel=1e-6)


def test_a_polytope_makes_one_hull_call_facets_included(monkeypatch):
    import scipy.spatial
    calls = []
    hull = scipy.spatial.ConvexHull

    def counting(points, *args, **kwargs):
        calls.append(len(points))
        return hull(points, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", counting)
    square = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    assert len(calls) == 1                      # the constructor makes the call
    assert capacity_area_2d(square) == 4.0      # the area oracle reads its volume
    assert len(calls) == 1
    bodies_built = [square, random_symmetric_polytope(4, 5).body,
                    random_symmetric_polytope(6, 5).body]
    for P in bodies_built:
        assert P.facets is P.facets
    assert len(calls) == len(bodies_built)


@pytest.mark.parametrize("k", [-30, 30, 600])
@pytest.mark.parametrize("dim", [2, 6])
def test_polytope_hull_scales_with_its_vertices_bit_for_bit(k, dim):
    # Qhull on the raw vertices orders the facets of the 2^-30 copy in R^6
    # differently and fails at 2^600; in R^4 it can crash the interpreter
    # there, so R^4 is not run.  The volume of the 2^600 copy overflows, to
    # inf and without a warning
    P = random_symmetric_polytope(dim, 11).body
    normals, h = P.facets
    scaled = Polytope(P.vertices * 2.0**k)
    assert np.array_equal(scaled.facets[0], normals)
    assert np.array_equal(scaled.facets[1], h * 2.0**k)
    assert scaled.volume == (math.inf if k == 600 else P.volume * 2.0**(k * dim))


def test_polytope_that_qhull_finds_flat_rejected_as_degenerate():
    # singular values 2e12 and 2e-9: Qhull raises QH6154 "initial simplex
    # is flat"
    with pytest.raises(BodyError, match="degenerate"):
        Polytope(np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]]) * [1e12, 1e-9])


def test_general_ellipsoid_validation():
    with pytest.raises(BodyError, match="positive definite"):
        GeneralEllipsoid(np.diag([1.0, -1.0]))
    with pytest.raises(BodyError, match="symmetric"):
        GeneralEllipsoid(np.array([[1.0, 0.5], [0.0, 1.0]]))


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e14, 5e307])
def test_general_ellipsoid_symmetry_check_is_scale_free(scale):
    with pytest.raises(BodyError, match="symmetric"):
        GeneralEllipsoid(scale * np.array([[1.0, 0.3], [0.0, 1.0]]))
    Q = scale * np.array([[1.0, 0.3], [0.3, 2.0]])
    assert np.array_equal(GeneralEllipsoid(Q).Q, Q)     # a symmetric Q keeps its bits


def test_linear_image_invertibility_is_scale_free():
    # condition number 1, determinant 1e-18
    K = LinearImage(1e-3 * np.eye(6), Ball(1.0, 6))
    assert K.support_batch(np.eye(6))[0] == pytest.approx(np.full(6, 1e-3), rel=1e-15)
    singular = np.eye(4)
    singular[3] = singular[2]
    with pytest.raises(BodyError, match="invertible"):
        LinearImage(singular, Ball(1.0, 4))


def test_psum_validation():
    with pytest.raises(BodyError):
        PSum(0.5, [Ball(1, 2), Ball(1, 2)])
    with pytest.raises(BodyError):
        PSum(2.0, [Ball(1, 2)])
    with pytest.raises(BodyError, match="dimension"):
        PSum(2.0, [Ball(1, 2), Ball(1, 4)])


@settings(max_examples=60, deadline=None)
@given(value=st.one_of(st.floats(-1e6, 1e6), st.sampled_from([math.nan, math.inf, -math.inf])),
       kind=st.sampled_from(["ball", "scale", "translate", "vertices"]))
def test_build_body_rejects_non_finite_numbers(value, kind):
    ball = {"type": "ball", "r": 1.0, "dim": 2}
    square = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
    doc, ok = {
        "ball": ({"type": "ball", "r": value, "dim": 2}, 0 < value < math.inf),
        "scale": ({"type": "scale", "factor": value, "body": ball}, 0 < value < math.inf),
        "translate": ({"type": "translate", "vector": [value, 0.0], "body": ball},
                      math.isfinite(value)),
        "vertices": ({"type": "polytope", "vertices": square + [[0.0, value]]},
                     math.isfinite(value)),
    }[kind]
    if ok:
        assert build_body(doc).dim == 2
    else:
        with pytest.raises(BodyError):
            build_body(doc)


def test_scale_and_smoothed_validation():
    with pytest.raises(BodyError):
        Scale(0.0, Ball(1, 2))
    with pytest.raises(BodyError):
        Smoothed(Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]]), 1.0)
    with pytest.raises(BodyError):
        Smoothed(Ball(1, 2), 8.0)


# -- support values and gradients ---------------------------------------------

def test_ball_support_example():
    K = Ball(2.0, 4)
    vals, grads = K.support_batch(np.array([[1.0, 0.0, 0.0, 0.0]]))
    assert vals[0] == pytest.approx(2.0)
    assert np.allclose(grads[0], [2.0, 0.0, 0.0, 0.0])


def test_ellipsoid_axis_support():
    K = Ellipsoid([1.0, 2.0])
    vals, grads = K.support_batch(np.array([[0.0, 0.0, 1.0, 0.0]]))
    assert vals[0] == pytest.approx(2.0)
    assert np.allclose(grads[0], [0.0, 0.0, 2.0, 0.0])


def test_general_ellipsoid_gradient_fd_oracle():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4))
    Q = A @ A.T + 4 * np.eye(4)
    K = GeneralEllipsoid(Q)
    U = rng.normal(size=(5, 4))
    _, grads = K.support_batch(U)
    for u, g in zip(U, grads):
        expected = Q @ u / np.sqrt(u @ Q @ u)
        assert np.allclose(g, expected, rtol=1e-12)
        fd = fd_support_gradient(K, u)
        assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g)


def test_psum_of_balls_is_scaled_ball():
    K = PSum(2.0, [Ball(1, 4), Ball(1, 4)])
    u = np.array([0.3, -0.2, 0.5, 0.1])
    vals, _ = K.support_batch(u[None, :])
    assert vals[0] == pytest.approx(np.sqrt(2) * np.linalg.norm(u), rel=1e-14)


def test_composite_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    M = rng.normal(size=(4, 4)) + 3 * np.eye(4)
    bodies = [
        PSum(2.5, [Ball(1.0, 4), Ellipsoid([1.0, 2.0])]),
        MinkowskiSum([Ball(1.0, 4), Ellipsoid([0.5, 1.5])], [0.7, 1.1]),
        LinearImage(M, Ellipsoid([1.0, 2.0])),
        Translate(np.array([0.2, -0.1, 0.3, 0.05]), Ball(1.0, 4)),
        Scale(2.5, Ellipsoid([1.0, 1.5])),
    ]
    for K in bodies:
        U = rng.normal(size=(3, 4))
        _, grads = K.support_batch(U)
        for u, g in zip(U, grads):
            fd = fd_support_gradient(K, u)
            assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_smoothed_gradient_matches_finite_differences():
    V = np.array([[1.2, 1.0], [-0.9, 1.1], [-1.0, -1.0], [1.0, -1.3], [1.5, 0.1]])
    K = Smoothed(Polytope(V), 64.0)
    U = np.random.default_rng(3).normal(size=(5, 2))
    _, grads = K.support_batch(U)
    for u, g in zip(U, grads):
        fd = fd_support_gradient(K, u, h=1e-7)
        assert np.linalg.norm(fd - g) <= 1e-4 * max(1.0, np.linalg.norm(g))


def test_smoothed_brackets_polytope_support():
    V = np.array([[1.2, 1.0], [-0.9, 1.1], [-1.0, -1.0], [1.0, -1.3], [1.5, 0.1]])
    P = Polytope(V)
    s = 64.0
    K = Smoothed(P, s)
    m = V.shape[0]
    U = random_directions(2, 50)
    h_max, _ = P.support_batch(U)
    h_s, _ = K.support_batch(U)
    assert np.all(h_max <= h_s) and np.all(h_s <= m ** (1.0 / s) * h_max + 1e-12)


@pytest.mark.parametrize("half, sharpness", [(384, 1024.0), (12, 64.0)])
def test_smoothed_rows_independent_of_batch_size(half, sharpness):
    # a row's support value and point must not depend on how many rows share
    # the call: the solver evaluates all its starts in one call and must get
    # what one call per start (a few hundred rows each) gives
    rng = np.random.default_rng(5)
    V = rng.normal(size=(half, 4))
    K = Smoothed(Polytope(np.vstack([V, -V])), sharpness)
    U = rng.normal(size=(9 * 96, 4))
    vals, grads = K.support_batch(U)
    for rows in (96, 32):
        for i in range(0, len(U), rows):
            v, g = K.support_batch(U[i:i + rows])
            assert np.array_equal(v, vals[i:i + rows]) and np.array_equal(g, grads[i:i + rows])
    # the gauge evaluates single rows too
    for i in range(0, len(U), 37):
        v, g = K.support_batch(U[i:i + 1])
        assert v[0] == vals[i] and np.array_equal(g[0], grads[i])
    # and a batch one row longer than a block ends in a one-row block
    step = _SMOOTHED_BLOCK_REF // K.body.vertices.shape[0]
    W = rng.normal(size=(step + 1, 4))
    vals, grads = K.support_batch(W)
    v, g = K.support_batch(W[step:])
    assert v[0] == vals[step] and np.array_equal(g[0], grads[step])


_SMOOTHED_BLOCK_REF = 1 << 15


def _smoothed_reference_batch(K, U):
    # the dense form of the Smoothed kernel (ratio array, 2-D index gather,
    # fresh P and W arrays), kept verbatim: the kernel must match it bit for bit
    step = max(1, _SMOOTHED_BLOCK_REF // K.body.vertices.shape[0])
    if U.shape[0] <= step:
        return _smoothed_reference_block(K, U)
    parts = [_smoothed_reference_block(K, U[i:i + step]) for i in range(0, U.shape[0], step)]
    return (np.concatenate([v for v, _ in parts]),
            np.concatenate([g for _, g in parts]))


def _smoothed_reference_block(K, U):
    s = K.sharpness
    V = K.body.vertices
    R = np.maximum(U @ V.T, 0.0)  # (B, m)
    rmax = np.max(R, axis=1)
    safe = np.where(rmax > 0, rmax, 1.0)
    ratio = R / safe[:, None]
    cut = math.exp(-46.0 / s)
    rows, cols = np.nonzero(ratio > cut)
    logr = np.log(ratio[rows, cols])
    P = np.zeros_like(R)
    P[rows, cols] = np.exp(s * logr)
    S = np.sum(P, axis=1)
    logS = np.log(np.where(S > 0, S, 1.0))
    vals = np.where(rmax > 0, safe * np.exp(logS / s), 0.0)
    W = np.zeros_like(R)
    W[rows, cols] = np.exp((s - 1.0) * logr - ((s - 1.0) / s) * logS[rows])
    grads = W @ V
    return vals, grads


def _tied_polytope(m, rng):
    # vertices 0 and 1 share the largest first coordinate, so u = c e_1 ties
    V = rng.normal(size=(m, 4))
    V[:2, 0] = np.max(V[:, 0]) + 0.5
    V[-1] = -np.sum(V[:-1], axis=0)  # centroid at the origin
    assert np.argmax(V[:, 0]) == 0 and V[0, 0] == V[1, 0]
    return Polytope(V)


def _special_rows(d):
    e1 = np.eye(d)[0]
    return np.vstack([np.zeros((3, d)), e1, 3.0 * e1, -0.0 * e1])


@pytest.mark.parametrize("m", [5, 24, 768])
@pytest.mark.parametrize("sharpness", [16.0, 64.0, 1024.0])
def test_smoothed_kernel_matches_dense_reference_bitwise(m, sharpness):
    rng = np.random.default_rng(m + int(sharpness))
    K = Smoothed(_tied_polytope(m, rng), sharpness)
    sizes = (1, 96, 1000, 60000) if m < 768 else (1, 96, 1000)
    for n in sizes:
        U = rng.normal(size=(n, 4))
        U[:min(n, 6)] = _special_rows(4)[:min(n, 6)]
        for A in (U, U[::-1]):
            vals, grads = K.support_batch(A)
            ref_vals, ref_grads = _smoothed_reference_batch(K, A)
            assert np.array_equal(vals, ref_vals) and np.array_equal(grads, ref_grads)


def test_smoothed_kernel_rows_with_no_positive_product():
    # outside the constructor's checks: a vertex set in the positive orthant,
    # so rows in the negative orthant have every vertex product <= 0
    V = np.abs(np.random.default_rng(9).normal(size=(24, 4))) + 0.1
    P = object.__new__(Polytope)
    P.vertices, P.dim = V, 4
    K = Smoothed(P, 64.0)
    U = np.vstack([-np.abs(np.random.default_rng(10).normal(size=(50, 4))),
                   np.random.default_rng(11).normal(size=(50, 4))])
    vals, grads = K.support_batch(U)
    ref_vals, ref_grads = _smoothed_reference_batch(K, U)
    assert np.array_equal(vals, ref_vals) and np.array_equal(grads, ref_grads)
    assert np.all(vals[:50] == 0.0) and np.all(grads[:50] == 0.0)


def test_polytope_tie_breaking_lowest_index():
    square = Polytope([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    _, grads = square.support_batch(np.array([[1.0, 0.0]]))  # vertices 0 and 1 tie
    assert np.allclose(grads[0], [1, 1])


# -- invariants ----------------------------------------------------------------

def _property_bodies():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(4, 4)) + 2.5 * np.eye(4)
    return [
        Ball(1.3, 4),
        Ellipsoid([1.0, 2.0]),
        GeneralEllipsoid(np.diag([1.0, 2.0, 3.0, 4.0])),
        PSum(2.0, [Ball(1.0, 4), Ellipsoid([1.0, 2.0])]),
        MinkowskiSum([Ball(1.0, 4), Ellipsoid([1.0, 2.0])], [0.5, 2.0]),
        LinearImage(M, Ball(1.0, 4)),
        Translate(np.array([0.1, 0.2, -0.1, 0.0]), Ellipsoid([1.0, 2.0])),
    ]


@pytest.mark.parametrize("K", _property_bodies(), ids=lambda K: type(K).__name__)
def test_support_one_homogeneous(K):
    rng = np.random.default_rng(4)
    draws = [(rng.normal(size=K.dim), rng.uniform(0.1, 10.0)) for _ in range(5)]
    U = np.array([u for u, _ in draws])
    s = np.array([s for _, s in draws])
    h, _ = K.support_batch(U)
    h_scaled, _ = K.support_batch(s[:, None] * U)
    assert h_scaled == pytest.approx(s * h, rel=1e-12)


@pytest.mark.parametrize("K", _property_bodies(), ids=lambda K: type(K).__name__)
def test_support_subadditive(K):
    pairs = np.random.default_rng(6).normal(size=(10, 2, K.dim))
    U, V = pairs[:, 0], pairs[:, 1]
    h_sum, _ = K.support_batch(U + V)
    h_u, _ = K.support_batch(U)
    h_v, _ = K.support_batch(V)
    assert np.all(h_sum <= h_u + h_v + 1e-12)


@pytest.mark.parametrize("K", _property_bodies(), ids=lambda K: type(K).__name__)
def test_euler_relation(K):
    U = random_directions(K.dim, 10)
    vals, grads = K.support_batch(U)
    assert np.sum(grads * U, axis=1) == pytest.approx(vals, rel=1e-10)


@pytest.mark.parametrize("K", _property_bodies(), ids=lambda K: type(K).__name__)
def test_support_point_lies_in_body(K):
    # <gradient, v> <= h_K(v) for every pair of sampled directions u, v
    _, G = K.support_batch(random_directions(K.dim, 5))
    V = random_directions(K.dim, 100)
    h, _ = K.support_batch(V)
    assert np.all(G @ V.T <= h + 1e-10)


def test_minkowski_additivity_exact():
    K1, K2 = Ball(1.0, 4), Ellipsoid([1.0, 2.0])
    K = MinkowskiSum([K1, K2], [0.7, 1.3])
    U = random_directions(4, 20)
    expected = 0.7 * K1.support_batch(U)[0] + 1.3 * K2.support_batch(U)[0]
    assert K.support_batch(U)[0] == pytest.approx(expected, rel=1e-15)


def test_psum_p1_equals_minkowski():
    K1, K2 = Ball(1.0, 4), Ellipsoid([1.0, 2.0])
    P1 = PSum(1.0, [K1, K2])
    MS = MinkowskiSum([K1, K2])
    U = random_directions(4, 20)
    assert P1.support_batch(U)[0] == pytest.approx(MS.support_batch(U)[0], rel=1e-12)


# -- gauges --------------------------------------------------------------------

def test_ball_gauge():
    K = Ball(2.0, 4)
    vals, _, tol = K.gauge_batch(np.array([[0.0, 1.0, 0.0, 0.0]]))
    assert vals[0] == pytest.approx(0.5)
    assert tol == 0.0


def test_ellipsoid_gauge_boundary_point():
    K = Ellipsoid([1.0, 2.0])
    assert K.gauge_batch(np.array([[0.0, 0.0, 2.0, 0.0]]))[0][0] == pytest.approx(1.0)


def test_gauge_at_origin_is_zero():
    assert Ball(1.0, 2).gauge_batch(np.zeros((1, 2)))[0][0] == 0.0


def test_psum_gauge_iterative_matches_analytic_value():
    # p-sum (p=2) of two unit balls is the ball of radius sqrt(2)
    K = PSum(2.0, [Ball(1.0, 4), Ball(1.0, 4)])
    x = np.array([1.0, 0.0, 0.0, 0.0])
    value = K.gauge_batch(x[None, :])[0][0]
    assert value == pytest.approx(1.0 / np.sqrt(2), abs=1e-13)
    # sampled lower bound: sup over directions of <x,u>/h(u) cannot exceed the gauge
    U = random_directions(4, 2000)
    h, _ = K.support_batch(U)
    assert np.max(U @ x / h) <= value + 1e-9


@pytest.mark.parametrize("K", [Ball(1.5, 4), Ellipsoid([1.0, 2.0]),
                               PSum(2.0, [Ball(1.0, 4), Ellipsoid([1.0, 2.0])])],
                         ids=["ball", "ellipsoid", "psum"])
def test_gauge_duality_roundtrip(K):
    # the support point of a smooth body lies on the boundary: gauge == 1
    _, points = K.support_batch(random_directions(4, 5))
    assert K.gauge_batch(points)[0] == pytest.approx(1.0, abs=5e-7)


def test_translated_ellipsoid_gauge_is_the_quadratic_root():
    # x/r lies on the boundary of c + E = {y : (y - c)^T A (y - c) <= 1}, so
    # r is the positive root of (x - r c)^T A (x - r c) = r^2
    E = Ellipsoid([0.8, 1.5])
    c = np.array([0.2, -0.1, 0.3, 0.25])
    K = Translate(c, E)
    A = np.diag(1.0 / np.repeat(E.radii**2, 2))
    X = np.random.default_rng(5).normal(size=(12, 4))
    vals, grads, tol = K.gauge_batch(X)
    assert tol == 0.0
    for x, value in zip(X, vals):
        roots = np.roots([c @ A @ c - 1.0, -2.0 * (x @ A @ c), x @ A @ x])
        assert value == pytest.approx(max(roots.real), rel=1e-14)
    # the gradient against central differences, and Euler's identity for a
    # 1-homogeneous function: <grad g(x), x> = g(x)
    step = 1e-6
    central = np.stack([(K.gauge_batch(X + step * e)[0] - K.gauge_batch(X - step * e)[0])
                        / (2.0 * step) for e in np.eye(4)], axis=1)
    assert np.max(np.abs(grads - central)) <= 2e-9
    assert np.max(np.abs(np.sum(grads * X, axis=1) - vals) / vals) <= 1e-14


def _sampled_gauge(K, x, samples=20000, seed=0):
    """max_u <x, u>/h(u): the best of sampled directions, polished by BFGS."""
    U = random_directions(K.dim, samples, np.random.default_rng(seed))
    h, _ = K.support_batch(U)
    u0 = U[np.argmax(U @ x / h)]

    def neg_log_ratio(u):
        hu, gu = K.support_batch(u[None, :])
        return np.log(hu[0]) - np.log(u @ x), gu[0] / hu[0] - x / (u @ x)

    res = minimize(neg_log_ratio, u0, jac=True, method="BFGS", options={"gtol": 1e-12})
    return max(float(np.max(U @ x / h)), math.exp(-res.fun))


def test_smoothed_polytope_gauge_matches_sampled_polished_maximum():
    K = random_symmetric_polytope(4, 3)
    X = np.random.default_rng(11).normal(size=(4, 4))
    vals = K.gauge_batch(X)[0]
    for x, value in zip(X, vals):
        reference = _sampled_gauge(K, x)
        # the reference is a ratio at one direction, so it cannot exceed the gauge
        assert value >= reference - 1e-12
        assert value == pytest.approx(reference, rel=1e-9)


GAUGE_BODIES = {
    "psum": PSum(1.7, [Ball(1.0, 4), Ellipsoid([0.5, 2.0])]),
    "minkowski": MinkowskiSum([Ellipsoid([1.0, 1.5]), Ball(0.5, 4)], [1.0, 0.7]),
    "translate": Translate([0.1, 0.2, -0.1, 0.0],
                           PSum(2.0, [Ball(1.0, 4), Ellipsoid([1.0, 2.0])])),
    "smoothed": random_symmetric_polytope(4, 7, sharpness=16.0),
    # a lone row's `U @ matrix` in LinearImage takes BLAS's matrix-vector path
    "linear_psum": LinearImage(random_symplectic(4, 17, 0.5),
                               PSum(1.7, [Ball(1.0, 4), Ellipsoid([0.5, 2.0])])),
    "linear_smoothed": LinearImage(random_symplectic(4, 17, 0.5),
                                   random_symmetric_polytope(4, 7, sharpness=16.0)),
}


@pytest.mark.parametrize("name", sorted(GAUGE_BODIES))
def test_gauge_warm_and_cold_starts_agree(name):
    K = GAUGE_BODIES[name]
    X = np.random.default_rng(4).normal(size=(10, 4))
    cold = K.gauge_batch(X)
    # a warm start near the maximizing normal (the support direction of x/gauge)
    normals = cold[1] + 0.05 * np.random.default_rng(6).normal(size=X.shape)
    warm = K.gauge_batch(X, normals)
    assert np.max(np.abs(warm[0] - cold[0]) / cold[0]) <= 1e-12
    # negated rows leave the domain (<x, u> < 0) and fall back to x/|x|
    flipped = K.gauge_batch(X, -cold[1])
    assert np.max(np.abs(flipped[0] - cold[0]) / cold[0]) <= 1e-12


@pytest.mark.parametrize("name", ["smoothed", "psum", "linear_psum", "linear_smoothed"])
def test_gauge_rows_are_independent_of_their_batch_mates(name):
    K = GAUGE_BODIES[name]
    rng = np.random.default_rng(9)
    X = rng.normal(size=(12, 4))
    # warm starts near the normals, some flipped out of the domain (cold
    # starts) and some far off, so the rows need different numbers of steps
    U0 = K.gauge_batch(X)[1] + rng.normal(scale=0.3, size=X.shape) * rng.integers(0, 2, (12, 1))
    U0[::4] *= -1.0
    vals, grads, _ = K.gauge_batch(X, U0)
    for i in range(len(X)):
        v, g, _ = K.gauge_batch(X[i:i + 1], U0[i:i + 1])
        assert v[0] == vals[i] and np.array_equal(g[0], grads[i])
    order = rng.permutation(len(X))[:7]
    v, g, _ = K.gauge_batch(X[order], U0[order])
    assert np.array_equal(v, vals[order]) and np.array_equal(g, grads[order])


def test_gauge_warm_start_at_the_normal_stops_at_once():
    K = GAUGE_BODIES["minkowski"]
    U = random_directions(4, 8, np.random.default_rng(2))
    h, points = K.support_batch(U)
    vals, grads, tol = K.gauge_batch(points, U)
    assert np.max(np.abs(vals - 1.0)) <= 1e-14
    assert tol == 1e-14  # no row moved, so the estimate sits at its floor
    # the gauge gradient at a boundary point is its normal scaled by 1/h
    assert np.allclose(grads, U / h[:, None], rtol=1e-13, atol=0.0)


def test_gauge_rejects_a_body_without_interior_origin():
    # the Newton gauge's body and a quadric's (closed-form gauge)
    for inner in (PSum(2.0, [Ball(1.0, 4), Ball(1.0, 4)]), Ball(1.0, 4)):
        K = Translate([3.0, 0.0, 0.0, 0.0], inner)
        with pytest.raises(BodyError, match="origin"):
            K.gauge_batch(np.array([[-1.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(BodyError, match="shape"):
        K.gauge_batch(np.ones((2, 4)), np.ones((3, 4)))


def test_linear_image_gauge_analytic():
    rng = np.random.default_rng(8)
    M = rng.normal(size=(4, 4)) + 3 * np.eye(4)
    K = LinearImage(M, Ellipsoid([1.0, 2.0]))
    # gauge of Ax in AK equals gauge of x in K
    X = rng.normal(size=(5, 4))
    inner = Ellipsoid([1.0, 2.0])
    vals, _, tol = K.gauge_batch(X @ M.T)
    assert tol == 0.0
    assert vals == pytest.approx(inner.gauge_batch(X)[0], rel=1e-10)


# -- intersection support -------------------------------------------------------

def test_intersection_with_itself():
    K = Ball(1.0, 2)
    vals, _ = intersection_support_batch(K, K, np.array([[1.0, 0.0]]))
    assert vals[0] == pytest.approx(1.0, abs=1e-9)


def test_intersection_subset_case():
    K = Ball(1.0, 4)
    T = Ball(2.0, 4)  # T contains K
    U = random_directions(4, 5)
    vals, _ = intersection_support_batch(K, T, U)
    assert vals == pytest.approx(K.support_batch(U)[0], abs=1e-8)


def _lens_support_oracle(theta):
    """Support of B(0,1) cap B((1,0),1) by direct maximization over the arcs.

    The boundary is {(cos a, sin a): |a| <= pi/3} together with
    {(1,0) + (cos b, sin b): 2pi/3 <= b <= 4pi/3}; the support in direction
    (cos t, sin t) maximizes the dot product over both arcs (interior
    critical point or endpoint).
    """
    u = np.array([np.cos(theta), np.sin(theta)])

    def arc_max(center, lo, hi):
        angles = [lo, hi]
        crit = np.arctan2(u[1], u[0])
        for a in (crit, crit + 2 * np.pi, crit - 2 * np.pi):
            if lo <= a <= hi:
                angles.append(a)
        pts = np.array([center + [np.cos(a), np.sin(a)] for a in angles])
        return float(np.max(pts @ u))

    return max(arc_max(np.array([0.0, 0.0]), -np.pi / 3, np.pi / 3),
               arc_max(np.array([1.0, 0.0]), 2 * np.pi / 3, 4 * np.pi / 3))


def test_intersection_lens_against_arc_oracle():
    K = Ball(1.0, 2)
    T = Translate(np.array([1.0, 0.0]), Ball(1.0, 2))
    thetas = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    vals, _ = intersection_support_batch(K, T, U)
    assert vals == pytest.approx([_lens_support_oracle(t) for t in thetas], abs=1e-12)


def test_intersection_lens_axis_values():
    # frozen oracle values: max x over the lens is 1 (the point (1,0) lies in
    # both discs), max y is sqrt(3)/2 (circle crossing), max -x is 0
    K = Ball(1.0, 2)
    T = Translate(np.array([1.0, 0.0]), Ball(1.0, 2))
    vals, _ = intersection_support_batch(K, T, np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert vals[1] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert vals[2] == pytest.approx(0.0, abs=1e-12)


def _criterion_12_pairs(count):
    """The first `count` (K, x + T) pairs of criterion 12 (and of the seed-0
    intersection benchmark), at the first shift x of each."""
    rng = np.random.default_rng(900)
    pairs = []
    for i in range(count):
        K = random_general_ellipsoid(4, 900 + 2 * i, cond_max=4.0)
        T = Ball(float(rng.uniform(0.8, 1.1)), 4)
        x = rng.uniform(-0.4, 0.4, 4)
        rng.uniform(-0.4, 0.4, 4), rng.uniform(0.2, 0.8)   # y and lambda
        pairs.append((K, Translate(x, T)))
    return pairs


def _quadric_values(body, X):
    A, c = quadric(body)
    return np.einsum("bi,ij,bj->b", X - c, A, X - c)


@pytest.mark.parametrize("pair", range(5))
def test_intersection_support_points_lie_on_the_boundary(pair):
    K, T = _criterion_12_pairs(5)[pair]
    U = random_directions(4, 256, np.random.default_rng(pair))
    vals, X = intersection_support_batch(K, T, U)
    qK, qT = _quadric_values(K, X), _quadric_values(T, X)
    assert np.all(qK <= 1 + 1e-10) and np.all(qT <= 1 + 1e-10)
    assert np.all(np.abs(np.maximum(qK, qT) - 1) <= 1e-10)    # one of them active
    assert np.abs(np.sum(U * X, axis=1) - vals).max() <= 1e-14
    # both sides of the lens occur: the point is not always K's or T's own
    assert np.any(qK < 1 - 1e-6) and np.any(qT < 1 - 1e-6)


def test_intersection_support_matches_constrained_maximization():
    for K, T in _criterion_12_pairs(2):
        U = random_directions(4, 6, np.random.default_rng(7))
        vals, _ = intersection_support_batch(K, T, U)
        (A, a), (B, b) = quadric(K), quadric(T)
        cons = [{"type": "ineq", "fun": lambda x, M=M, c=c: 1 - (x - c) @ M @ (x - c),
                 "jac": lambda x, M=M, c=c: -2 * M @ (x - c)} for M, c in ((A, a), (B, b))]
        for u, h in zip(U, vals):
            res = minimize(lambda x: -u @ x, np.zeros(4), jac=lambda x: -u, constraints=cons,
                           method="SLSQP", options={"ftol": 1e-15, "maxiter": 500})
            assert -res.fun == pytest.approx(h, abs=1e-9)


def test_intersection_support_of_images_matches_general_ellipsoids():
    M = np.array([[1.0, 0.3, 0.0, -0.2], [0.1, 0.9, 0.4, 0.0],
                  [0.0, -0.3, 1.2, 0.2], [0.2, 0.0, 0.1, 0.8]])
    radii = np.array([0.9, 1.3])
    d2 = np.repeat(radii ** 2, 2)
    shift = np.array([0.2, -0.1, 0.3, 0.05])
    image = Translate(shift, LinearImage(M, Scale(1.5, Ellipsoid(radii))))
    general = Translate(shift, GeneralEllipsoid(2.25 * M @ np.diag(d2) @ M.T))
    T = Translate([-0.1, 0.2, 0.0, 0.1], Scale(0.7, Ball(2.0, 4)))
    T_general = Translate([-0.1, 0.2, 0.0, 0.1], GeneralEllipsoid(1.96 * np.eye(4)))
    U = random_directions(4, 64, np.random.default_rng(3))
    vals, X = intersection_support_batch(image, T, U)
    vals_g, X_g = intersection_support_batch(general, T_general, U)
    assert vals == pytest.approx(vals_g, abs=1e-12)
    assert np.abs(X - X_g).max() <= 1e-12


def _non_commuting_stack(core):
    """core under a Translate, LinearImage, Scale, Translate stack whose nodes
    do not commute, with the A and c of K = A core + c written out."""
    S = random_symplectic(4, 7, 0.5)
    v, w = np.array([0.2, -0.1, 0.3, 0.05]), np.array([-0.3, 0.1, 0.0, 0.2])
    K = Translate(v, LinearImage(S, Scale(1.3, Translate(w, core))))
    return K, 1.3 * S, v + 1.3 * S @ w


def test_affine_part_composes_a_non_commuting_stack():
    core = random_general_ellipsoid(4, 11, cond_max=4.0)
    K, A_exact, c_exact = _non_commuting_stack(core)
    A, c, leaf = affine_part(K)
    assert leaf is core
    assert np.allclose(A, A_exact, rtol=1e-14, atol=1e-15)
    assert np.allclose(c, c_exact, rtol=1e-14, atol=1e-15)
    U = random_directions(4, 64, np.random.default_rng(5))
    h, X = K.support_batch(U)
    h_core, X_core = core.support_batch(U @ A)
    assert np.abs(h - (h_core + U @ c)).max() <= 1e-14 * np.abs(h).max()
    assert np.abs(X - (X_core @ A.T + c)).max() <= 1e-14
    # the quadric's form reads 1 at K's support points
    Q, centre = quadric(K)
    assert np.allclose(centre, c, rtol=0, atol=1e-15)
    assert np.abs(np.einsum("bi,ij,bj->b", X - centre, Q, X - centre) - 1.0).max() <= 1e-14


def test_affine_part_of_an_unwrapped_body_is_the_identity():
    E = Ellipsoid([1.0, 2.0])
    A, c, core = affine_part(E)
    assert core is E and np.array_equal(A, np.eye(4)) and np.array_equal(c, np.zeros(4))


@pytest.mark.parametrize("leaf, name", [
    (Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]]), "Polytope"),
    (Translate([0.1, 0.0], PSum(2.0, [Ball(1.0, 2), Ball(0.5, 2)])), "PSum"),
    (Scale(2.0, Smoothed(Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]]))), "Smoothed"),
])
def test_intersection_rejects_non_quadratic_leaves(leaf, name):
    for K, T in ((leaf, Ball(1.0, 2)), (Ball(1.0, 2), leaf)):
        with pytest.raises(BodyError, match=name):
            intersection_support_batch(K, T, np.eye(2))


def test_empty_intersection_detected():
    disc = Ball(1.0, 2)
    with pytest.raises(DegenerateIntersectionError, match="empty"):
        intersection_support_batch(disc, Translate([2.1, 0.0], disc), np.eye(2))
    K = GeneralEllipsoid(np.diag([1.0, 0.25, 4.0, 1.0]))
    with pytest.raises(DegenerateIntersectionError):
        intersection_support_batch(K, Translate([0.0, 0.0, 2.5, 0.5], Ball(0.4, 4)), np.eye(4))



def _pencil_reference_batch(K, T, U):
    """The pencil support written as one function of (K, T, U), which solves
    the pencil on every call, without caching, and finds each interior t* by
    bisection on the sign of h' instead of by Newton steps."""
    (A, a), (B, b) = quadric(K), quadric(T)
    lam, W = eigh(A, B)
    a_, b_ = W.T @ (B @ a), W.T @ (B @ b)
    alpha, beta = float(np.sum(lam * a_ ** 2)), float(np.sum(b_ ** 2))
    dP, dD, N = lam * a_ - b_, lam - 1.0, lam * (a_ - b_)

    def pencil(t):
        D = t * lam + (1.0 - t)
        m = (t * lam * a_ + (1.0 - t) * b_) / D
        t = t[:, 0]
        rho = 1.0 - t * alpha - (1.0 - t) * beta + np.sum(D * m * m, axis=1)
        drho = beta - alpha + np.sum(2.0 * m * dP - m * m * dD, axis=1)
        return D, m, rho, drho

    V = np.asarray(U, dtype=float) @ W

    def h_slope(t, rows):
        D, m, rho, drho = pencil(t[:, None])
        v = V[rows]
        S = np.sum(v * v / D, axis=1)
        dS = -np.sum(v * v / D ** 2 * dD, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sum(v * N / D ** 2, axis=1) + (drho * S + rho * dS) / (2.0 * np.sqrt(rho * S))

    n = V.shape[0]
    g0, g1 = h_slope(np.zeros(n), np.arange(n)), h_slope(np.ones(n), np.arange(n))
    t_star = np.where(g0 >= 0, 0.0, 1.0)
    inner = np.flatnonzero((g0 < 0) & (g1 > 0))
    lo, hi = np.zeros(inner.size), np.ones(inner.size)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = h_slope(mid, inner) < 0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    t_star[inner] = 0.5 * (lo + hi)
    best_vals, best_Y = np.full(n, np.inf), np.zeros_like(V)
    for t in (t_star, np.zeros(n), np.ones(n)):
        D, m, rho, _ = pencil(t[:, None])
        S = np.sum(V * V / D, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            Y = m + np.where(S[:, None] > 0, np.sqrt(rho / S)[:, None] * V / D, 0.0)
        vals = np.sum(V * m, axis=1) + np.sqrt(rho * S)
        better = vals < best_vals
        best_vals[better], best_Y[better] = vals[better], Y[better]
    return best_vals, best_Y @ W.T


def _lens():
    return Ball(1.0, 2), Translate([1.0, 0.0], Ball(1.0, 2))


@pytest.mark.parametrize("pair", ["criterion_12", "lens"])
def test_intersection_node_matches_the_pencil_reference(pair):
    K, T = _criterion_12_pairs(1)[0] if pair == "criterion_12" else _lens()
    node = Intersection(K, T)
    for rows in (2, 3, 7, 64, 768):
        U = random_directions(K.dim, rows, np.random.default_rng(rows))
        vals, X = node.support_batch(U)
        ref_vals, ref_X = _pencil_reference_batch(K, T, U)
        assert np.all(np.abs(vals - ref_vals) <= 1e-14 * np.abs(ref_vals))
        assert np.abs(X - ref_X).max() <= 1e-14
        assert np.array_equal(intersection_support_batch(K, T, U)[0], vals)
        # and without the reference: a point of K cap T on its boundary that
        # attains the value, which is no higher than either body's own support
        assert np.abs(node.excess(X)).max() <= 1e-12
        assert np.abs(np.sum(U * X, axis=1) - vals).max() <= 1e-15
        ends = np.minimum(K.support_batch(U)[0], T.support_batch(U)[0])
        assert np.all(vals <= ends + 1e-14)


def test_pencil_newton_stops_at_the_rounding_floor(monkeypatch):
    # h' at the rounding floor: near the root the sign of its 5e-17 rounding
    # error follows t, so that every step (Halley's is Newton's here, with
    # h''' = 0) lands 1.28e-15 past the root
    root, calls = math.pi / 10, []

    def derivatives(t, rows):
        calls.append(t.copy())
        return (0.04 * (t - root) + 5e-17 * np.sign(t - root), np.full(t.size, 0.04),
                np.zeros(t.size))

    def run():
        calls.clear()
        # h(0) = h(1) and h'(0) = -h'(1): the Hermite start is t = 1/2
        return _pencil_minimum(derivatives, np.zeros(1), np.zeros(1),
                               np.array([-1.0]), np.array([1.0]))[0]

    # PENCIL_STEP_TOL = 0 turns the rate stop off (no bouncing step meets the
    # plain step stop anyway)
    monkeypatch.setattr(bodies, "PENCIL_FLOOR_STEP", 0.0)
    monkeypatch.setattr(bodies, "PENCIL_STEP_TOL", 0.0)
    run()
    assert len(calls) == PENCIL_STEPS           # without both rules: bounces to the cap
    monkeypatch.undo()
    monkeypatch.setattr(bodies, "PENCIL_STEP_TOL", 0.0)
    t = run()
    assert len(calls) <= 4                      # the floor rule alone ends it
    assert abs(t - root) <= 2.5e-15
    monkeypatch.undo()
    monkeypatch.setattr(bodies, "PENCIL_FLOOR_STEP", 0.0)
    t = run()
    assert len(calls) <= 4                      # and so does the rate stop alone
    assert abs(t - root) <= 2.5e-15
    monkeypatch.undo()
    t = run()
    assert len(calls) <= 4
    assert abs(t - root) <= 2.5e-15


def test_pencil_newton_stops_early_on_a_criterion_12_floor_row(monkeypatch):
    # criterion 12's fourth pair at its middle shift, and a direction of the
    # seed-0 round whose Newton iterates from the chord root, without the
    # floor rule, bounce 1e-15 apart for all PENCIL_STEPS rounds (numpy 2.4,
    # OpenBLAS); from the Hermite start, the rate stop ends its Halley steps
    # after two passes
    rng = np.random.default_rng(900)
    for i in range(4):
        K = random_general_ellipsoid(4, 900 + 2 * i, cond_max=4.0)
        r = float(rng.uniform(0.8, 1.1))
        x, y = rng.uniform(-0.4, 0.4, 4), rng.uniform(-0.4, 0.4, 4)
        lam = rng.uniform(0.2, 0.8)
    node = Intersection(K, Translate(lam * x + (1 - lam) * y, Ball(r, 4)))
    u = np.array([0.013706921160823081, -0.03728282445250139,
                  -0.3397061527785111, -0.31289837744070054])
    calls, seen = [], {}

    def counted(derivatives, h0, h1, g0, g1):
        def count(t, rows):
            calls.append(rows.size)
            return derivatives(t, rows)
        seen["slope"] = lambda t: derivatives(np.array([t, t]), np.arange(2))[0]
        seen["t"] = _pencil_minimum(count, h0, h1, g0, g1)
        return seen["t"]

    monkeypatch.setattr(bodies, "_pencil_minimum", counted)
    node.support_batch(u[None])              # goes through as two equal rows
    assert len(calls) <= 2
    t = seen["t"][0]
    assert 0 < t < 1
    # t is inside its bracket: h' changes sign across it
    assert np.all(seen["slope"](t - 1e-13) < 0) and np.all(seen["slope"](t + 1e-13) > 0)


@pytest.mark.parametrize("pair", ["criterion_12", "lens"])
def test_pencil_third_derivative_matches_central_differences(pair):
    # rho''' of the constructor's path and h''' of the row path against
    # central differences of rho'' and h'', step 1e-5
    K, T = _criterion_12_pairs(1)[0] if pair == "criterion_12" else _lens()
    node = Intersection(K, T)
    rng = np.random.default_rng(5)
    C = node._sum_terms(rng.normal(size=(16, K.dim)))
    t, d = rng.uniform(0.05, 0.95, 16), 1e-5
    at, up, down = (node._derivatives(s, C) for s in (t, t + d, t - d))
    for second in (1, 4):                   # rho'' and h''
        central = (up[second] - down[second]) / (2 * d)
        assert np.all(np.abs(at[second + 1] - central) <= 1e-8 * np.abs(at[second + 1]))
    # rho's derivatives do not depend on the row: the constructor's zero row
    # (whose h derivatives are 0 / 0) gives the same
    with np.errstate(divide="ignore", invalid="ignore"):
        zero_row = node._derivatives(t, node._sum_terms(np.zeros((16, K.dim))))
    assert np.array_equal(at[:3], zero_row[:3])


def test_hermite_start_lands_inside_and_falls_back_to_the_chord():
    rng = np.random.default_rng(7)
    h0, h1 = rng.normal(size=1000), rng.normal(size=1000)
    g0, g1 = -rng.exponential(size=1000), rng.exponential(size=1000)
    # the branch not taken divides by a = 0 on some rows
    start = np.errstate(divide="ignore", invalid="ignore")(bodies._hermite_start)
    t = start(h0, h1, g0, g1)
    assert np.all((t > 0) & (t < 1))
    # a root of the cubic's derivative 3 a t^2 + 2 b t + g0 ...
    d = h1 - h0
    a, b = 3.0 * (g0 + g1) - 6.0 * d, 6.0 * d - 4.0 * g0 - 2.0 * g1
    scale = np.abs(a) + np.abs(b) + np.abs(g0)
    assert np.all(np.abs((a * t + b) * t + g0) <= 1e-14 * scale)
    # ... where it turns positive, the cubic's minimum
    assert np.all(2.0 * a * t + b > 0)
    # a quadratic h is its own interpolant: the start is its minimum
    r = np.array([0.1, math.pi / 10, 0.5, 0.9])
    assert np.allclose(start(r * r, (1 - r) ** 2, -2 * r, 2 * (1 - r)), r, rtol=0, atol=1e-15)
    # no root in (0, 1): the derivative stays negative there (slopes -1 and
    # -1/4 with h1 - h0 = -2), or the values are not finite
    g0, g1 = np.array([-1.0, -1.0]), np.array([-0.25, 1.0])
    assert np.array_equal(start(np.array([2.0, np.nan]), np.zeros(2), g0, g1), g0 / (g0 - g1))


def test_pencil_pass_budget_on_a_criterion_12_design(monkeypatch):
    # one support call on the 768-direction design of criterion 12's first
    # pair: 283 rows have an interior minimum, and all but 83 of them stop
    # after two passes
    K, T = _criterion_12_pairs(1)[0]
    node = Intersection(K, T)
    passes, run = [], bodies._pencil_minimum

    def counted(derivatives, *ends):
        return run(lambda t, rows: passes.append(rows.size) or derivatives(t, rows), *ends)

    monkeypatch.setattr(bodies, "_pencil_minimum", counted)
    node.support_batch(direction_design(4, 768, 0))
    assert passes == [283, 283, 83]


def test_pencil_rate_stop_waits_for_the_asymptotic_range():
    # the middle row's first Halley step starts far from its root: its last
    # two steps (6e-2, then 2e-5) put Halley's error constant at 0.094, where
    # it is 1.45, and with that estimate alone it stopped 1.2e-14 from its
    # root, its support point 9.7e-15 from the reference's
    K = random_general_ellipsoid(4, 126, cond_max=20.0)
    T = Translate([0.18023515, 0.12309281, -0.0550186, 0.2938564],
                  random_general_ellipsoid(4, 526, cond_max=8.0))
    U = direction_design(4, 768, 26)[231:234]
    X = Intersection(K, T).support_batch(U)[1]
    assert np.abs(X - _pencil_reference_batch(K, T, U)[1]).max() <= 1e-15


@pytest.mark.parametrize("pair", ["criterion_12", "lens"])
def test_intersection_rows_do_not_depend_on_their_batch_mates(pair):
    # a lone row goes through as two, off BLAS's matrix-vector path
    K, T = _criterion_12_pairs(1)[0] if pair == "criterion_12" else _lens()
    node = Intersection(K, T)
    U = random_directions(K.dim, 7, np.random.default_rng(11))
    vals, X = node.support_batch(U)
    for rows in (1, 2, 3, 7):
        for i in range(7 - rows + 1):
            v, x = node.support_batch(U[i:i + rows])
            assert np.array_equal(v, vals[i:i + rows]) and np.array_equal(x, X[i:i + rows])


def test_intersection_excess_is_the_constraint_residual():
    K, T = _criterion_12_pairs(1)[0]
    node = Intersection(K, T)
    _, X = node.support_batch(random_directions(4, 64, np.random.default_rng(2)))
    excess = node.excess(X)
    assert np.abs(excess).max() <= 1e-12            # on the boundary of K cap T
    assert np.array_equal(excess, np.maximum(_quadric_values(K, X), _quadric_values(T, X)) - 1)
    assert np.all(node.excess(1.1 * X) > 0) and np.all(node.excess(0.0 * X) < 0)


# -- recipes --------------------------------------------------------------------

def test_build_body_roundtrip():
    doc = {"type": "psum", "p": 2.0, "terms": [
        {"type": "ball", "r": 1.0, "dim": 4},
        {"type": "translate", "vector": [0.1, 0.0, 0.0, 0.0],
         "body": {"type": "ellipsoid", "radii": [1.0, 2.0]}},
    ]}
    K = build_body(doc)
    assert K.dim == 4
    assert build_body(K.recipe()).recipe() == K.recipe()
    # every body type, through JSON text, with a zero weight, a non-default
    # sharpness and a linear image
    square = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    every_type = [
        Ball(1.5, 4), Ellipsoid([1.0, 2.0]), GeneralEllipsoid([[1.0, 0.3], [0.3, 2.0]]), square,
        K, MinkowskiSum([square, Ball(1.0, 2), Ellipsoid([0.5])], [1.0, 0.0, 2.5]),
        LinearImage(random_symplectic(4, 17, 0.5), Ellipsoid([1.0, 2.0])),
        Translate([0.2, -0.1], square), Scale(1.7, square), Smoothed(square, 12.0),
        Intersection(Ball(1.0, 2), Translate([1.0, 0.0], Ellipsoid([0.8]))),
    ]
    assert len({body.recipe()["type"] for body in every_type}) == 11
    for body in every_type:
        rebuilt = build_body(json.loads(json.dumps(body.recipe())))
        assert type(rebuilt) is type(body) and rebuilt.recipe() == body.recipe()
        U = random_directions(body.dim, 16)
        assert np.array_equal(rebuilt.support_batch(U)[0], body.support_batch(U)[0])


def test_build_body_error_paths_name_fields():
    with pytest.raises(BodyError, match="radii"):
        build_body({"type": "ellipsoid", "radius": [1, 2]})
    with pytest.raises(BodyError, match=r"terms\[1\]"):
        build_body({"type": "psum", "p": 2,
                    "terms": [{"type": "ball", "r": 1, "dim": 4},
                              {"type": "ball", "r": -1, "dim": 4}]})
    with pytest.raises(BodyError, match="unknown body type"):
        build_body({"type": "cube"})
    with pytest.raises(BodyError, match="type"):
        build_body({"r": 1})



def test_build_body_intersection_errors_name_the_field():
    disc = {"type": "ball", "r": 1, "dim": 2}
    far = {"type": "translate", "vector": [2.1, 0], "body": disc}
    square = {"type": "polytope", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}
    with pytest.raises(BodyError, match=r"body\.terms: an intersection takes two bodies, got 3"):
        build_body({"type": "intersection", "terms": [disc, disc, disc]})
    with pytest.raises(BodyError, match=r"^body: the intersection is empty"):
        build_body({"type": "intersection", "terms": [disc, far]})
    with pytest.raises(BodyError, match=r"^body: .*got a Polytope"):
        build_body({"type": "intersection", "terms": [disc, square]})
    with pytest.raises(BodyError, match=r"body\.terms\[1\]: ball radius"):
        build_body({"type": "intersection", "terms": [disc, {"type": "ball", "r": -1, "dim": 2}]})


@pytest.mark.parametrize("doc", [
    {"type": "psum", "p": 2, "terms": 5},
    {"type": "intersection", "terms": None},
    {"type": "minkowski", "terms": {"a": 1}},
])
def test_build_body_requires_terms_to_be_an_array(doc):
    with pytest.raises(BodyError, match=r"^body\.terms: expected an array of bodies"):
        build_body(doc)


def test_build_body_rejects_a_non_integral_dim():
    with pytest.raises(BodyError, match=r"body\.dim: expected an integer, got 4\.7"):
        build_body({"type": "ball", "r": 1, "dim": 4.7})
    assert build_body({"type": "ball", "r": 1, "dim": 4.0}).dim == 4


@pytest.mark.parametrize("doc,field", [
    ({"type": "ball", "r": "1", "dim": "4"}, "body.r"),
    ({"type": "ball", "r": 1, "dim": True}, "body.dim"),
    ({"type": "psum", "p": True, "terms": [{"type": "ball", "r": 1, "dim": 4}] * 2}, "body.p"),
    ({"type": "ellipsoid", "radii": ["1", "2"]}, "body.radii[0]"),
    ({"type": "translate", "vector": ["0.1", 0, 0, 0],
      "body": {"type": "ball", "r": 1, "dim": 4}}, "body.vector[0]"),
    ({"type": "polytope", "vertices": [[1, 0], [0, "1"], [-1, -1]]}, "body.vertices[1][1]"),
    ({"type": "general_ellipsoid", "Q": [[1, 0], [0, False]]}, "body.Q[1][1]"),
    ({"type": "minkowski", "terms": [{"type": "ball", "r": 1, "dim": 2}], "weights": [True]},
     "body.weights[0]"),
    ({"type": "scale", "factor": 2, "body": {"type": "ball", "r": 1, "dim": "2"}}, "body.body.dim"),
])
def test_build_body_rejects_strings_and_booleans_as_numbers(doc, field):
    with pytest.raises(BodyError, match=re.escape(f"{field}: expected a number")):
        build_body(doc)


def test_dimension_mismatch_reported():
    with pytest.raises(BodyError, match="dimension"):
        build_body({"type": "minkowski", "terms": [
            {"type": "ball", "r": 1, "dim": 2}, {"type": "ball", "r": 1, "dim": 4}]})
