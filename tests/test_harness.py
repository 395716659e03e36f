import math
import tracemalloc

import numpy as np
import pytest

from ehz.bodies import (Ball, Ellipsoid, GeneralEllipsoid, LinearImage, MinkowskiSum,
                        Polytope, PSum, Scale, Translate)
from ehz.harness import (AsymmetricBodyError, bm_check, capacity_area_2d,
                         directional_derivative, equality_certificate,
                         isoperimetric_check, mean_width, mean_width_bound_check,
                         p_combination)
from ehz.randbodies import (random_body, random_general_ellipsoid, random_symmetric_body,
                            random_symmetric_polytope)
from ehz.solver import SolveConfig, capacity
from ehz.suite import canonical_heptagon
from ehz.symplectic import random_symplectic

FAST = SolveConfig(modes=8, starts=4)
MED = SolveConfig(modes=12, starts=4, grad_tol=1e-9)


# -- p-combination ----------------------------------------------------------------

def test_p_combination_reduces_to_minkowski():
    K, T = Ball(1.0, 4), Ellipsoid([1.0, 2.0])
    M = p_combination(K, T, 1.0)
    assert isinstance(M, MinkowskiSum)
    P = p_combination(K, T, 2.0)
    assert isinstance(P, PSum)


# -- superadditivity ----------------------------------------------------------------

def test_bm_homothetic_balls_p1_equality():
    rep = bm_check(Ball(1.0, 4), Ball(2.0, 4), 1.0, FAST)
    # c(B(1) + B(2)) = c(B(3)) = 9 pi: perfect additivity of sqrt-capacity
    assert rep.witnesses["c_combined"] == pytest.approx(9 * math.pi, rel=1e-9)
    assert abs(rep.deficit) <= 1e-9 * rep.rhs
    assert rep.passed


def test_bm_equal_balls_p2():
    rep = bm_check(Ball(1.0, 4), Ball(1.0, 4), 2.0, FAST)
    assert rep.witnesses["c_combined"] == pytest.approx(2 * math.pi, rel=1e-9)
    assert abs(rep.deficit) <= 1e-9 * rep.rhs


# The paper's equality case: E(a) and E(b) with their smallest radii a_1, b_1
# in one symplectic plane.  For p >= 1 the inequality bounds c(E(a) +_p E(b))
# below by pi (a_1^p + b_1^p)^{2/p}, and the cylinder over that plane bounds
# it above by the same value.  Under a symplectic image, so that the solver's
# first planar-circle start is not already the minimizer.
EQ_A, EQ_B = np.array([1.0, 2.0]), np.array([1.5, 1.7])
EQ_MAP = random_symplectic(4, seed=3)
EQ_CFG = SolveConfig(modes=16, starts=8)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_bm_equality_on_ellipsoids_sharing_their_smallest_plane(p):
    K = LinearImage(EQ_MAP, Ellipsoid(EQ_A))
    T = LinearImage(EQ_MAP, Ellipsoid(EQ_B))
    r = capacity(p_combination(K, T, p), EQ_CFG)
    assert r.converged
    assert r.capacity == pytest.approx(math.pi * (EQ_A[0] ** p + EQ_B[0] ** p) ** (2.0 / p),
                                       rel=1e-12)


def test_bm_equality_fails_when_the_smallest_planes_differ():
    # T's radii swapped between the planes: (1.7, 1.5).  At p = 2 the sum is
    # the ellipsoid with radii^2 a_i^2 + b_sigma(i)^2, above c(K) + c(T)
    swap = np.eye(4)[[2, 3, 0, 1]]
    K = LinearImage(EQ_MAP, Ellipsoid(EQ_A))
    T = LinearImage(EQ_MAP @ swap, Ellipsoid(EQ_B))
    r = capacity(p_combination(K, T, 2.0), EQ_CFG)
    assert r.converged
    expected = math.pi * np.min(EQ_A ** 2 + EQ_B[::-1] ** 2)
    assert r.capacity == pytest.approx(expected, rel=1e-12)
    assert r.capacity > math.pi * (EQ_A[0] ** 2 + EQ_B[0] ** 2) + 1.0


def test_bm_report_invariants():
    rep = bm_check(Ellipsoid([1.0, 2.0]), Ball(1.0, 4), 1.0, MED)
    assert rep.passed == (rep.deficit >= -rep.slack)
    assert rep.deficit >= -1e-3 * rep.rhs


def test_bm_swap_symmetry():
    K, T = Ellipsoid([1.0, 2.0]), Ball(1.3, 4)
    r1 = bm_check(K, T, 2.0, MED)
    r2 = bm_check(T, K, 2.0, MED)
    assert r1.deficit == pytest.approx(r2.deficit, abs=1e-8 * max(1.0, r1.rhs))


def test_bm_reproducible():
    K, T = random_body(4, 42), random_body(4, 43)
    r1 = bm_check(K, T, 1.5, MED)
    r2 = bm_check(K, T, 1.5, MED)
    assert r1.lhs == r2.lhs and r1.rhs == r2.rhs and r1.deficit == r2.deficit


# -- equality certificate -------------------------------------------------------------

def test_equality_homothetic_balls():
    rep = equality_certificate(Ball(1.0, 4), Ball(2.0, 4), 1.0, FAST)
    assert rep.witnesses["alpha"] == pytest.approx(2.0, rel=1e-9)
    assert rep.witnesses["homothety_residual"] <= 1e-6
    assert rep.passed


def test_equality_translation_case():
    x0 = np.array([0.1, 0.2, 0.0, -0.1])
    rep = equality_certificate(Ball(1.0, 4), Translate(x0, Ball(1.0, 4)), 1.0,
                               SolveConfig(modes=12, starts=4), tol=1e-3)
    assert rep.witnesses["alpha"] == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(rep.witnesses["beta"], x0, atol=1e-4)
    assert rep.passed


def test_equality_negative_control():
    # same capacity but carriers in different symplectic planes
    rep = equality_certificate(Ellipsoid([1.0, 2.0]),
                               GeneralEllipsoid(np.diag([4.0, 4.0, 1.0, 1.0])),
                               1.0, SolveConfig(modes=12, starts=4))
    assert rep.witnesses["homothety_residual"] > 0.1
    assert not rep.passed
    # the p-sum inequality is strict for this pair
    assert rep.witnesses["bm_deficit"] > 0.1


@pytest.mark.parametrize("K, T, p", [
    (Ball(1.0, 4), Ball(2.0, 4), 1.0), (Ball(1.0, 4), Ball(2.0, 4), 2.0),
    (Ball(1.0, 4), Translate(np.array([0.1, 0.2, 0.0, -0.1]), Ball(1.0, 4)), 1.0),
    (Ellipsoid([1.0, 2.0]), GeneralEllipsoid(np.diag([4.0, 4.0, 1.0, 1.0])), 1.0)])
def test_equality_certificate_bm_witnesses_match_bm_check(K, T, p):
    # the certificate reads the p-sum sides off its own K and T solves
    w = equality_certificate(K, T, p, FAST).witnesses
    bm = bm_check(K, T, p, FAST)
    assert w["bm_rhs"] == pytest.approx(bm.rhs, rel=1e-12)
    assert w["bm_deficit"] == pytest.approx(bm.deficit, rel=1e-12, abs=1e-12 * bm.rhs)


# -- isoperimetric ----------------------------------------------------------------------

def test_isoperimetric_ball_equality():
    rep = isoperimetric_check(Ball(1.0, 4), Ball(1.0, 4), FAST, slack_rel=1e-6)
    assert rep.lhs == pytest.approx(4 * math.pi**2, rel=1e-9)
    assert abs(rep.deficit) <= 1e-6 * rep.rhs
    assert rep.witnesses["chain_ok"]


def test_isoperimetric_ellipsoid_vs_ball():
    # the E(1,2) carrier is a unit circle, so the bound is again tight
    rep = isoperimetric_check(Ellipsoid([1.0, 2.0]), Ball(1.0, 4), MED)
    assert rep.witnesses["length_JT_polar"] == pytest.approx(2 * math.pi, rel=1e-6)
    assert abs(rep.deficit) <= 1e-6 * rep.rhs
    assert rep.passed


def test_isoperimetric_random_pair():
    rep = isoperimetric_check(random_general_ellipsoid(4, 3), Ellipsoid([0.8, 1.4]), MED)
    assert rep.all_ok()
    assert rep.passed == (rep.deficit >= -rep.slack)


# -- directional derivative ----------------------------------------------------------------

def test_directional_derivative_ball_analytic():
    rep = directional_derivative(Ball(1.0, 4), Ball(1.0, 4), FAST, slack_rel=1e-6)
    for row in rep.witnesses["schedule"]:
        assert row["quotient"] == pytest.approx(math.pi * (2 + row["eps"]), rel=1e-6)
    assert rep.witnesses["monotone"]
    assert rep.passed


def test_directional_derivative_ball_pair_bound():
    rep = directional_derivative(Ball(1.0, 4), Ball(2.0, 4), FAST)
    # quotient pi((1+2eps)^2 - 1)/eps = 4pi + 4pi eps >= bound 4pi
    assert rep.witnesses["lower_bound"] == pytest.approx(4 * math.pi, rel=1e-9)
    for row in rep.witnesses["schedule"]:
        assert row["quotient"] == pytest.approx(4 * math.pi * (1 + row["eps"]), rel=1e-6)
    assert rep.passed


def test_directional_derivative_rejects_bad_schedule():
    from ehz.harness import HarnessError
    with pytest.raises(HarnessError):
        directional_derivative(Ball(1.0, 4), Ball(1.0, 4), FAST, (0.1, 0.5))


# -- mean width ---------------------------------------------------------------------------

def test_mean_width_ball_exact():
    est = mean_width(Ball(1.7, 4), samples=20_000, seed=0)
    assert est.estimate == pytest.approx(1.7, abs=1e-12)
    # roundoff in the variance accumulator leaves a ~1e-8 floor
    assert est.stderr <= 1e-7


def test_mean_width_ellipsoid_analytic_value():
    # M*(E(1,2)) in R^4: the squared support is (1-t) + 4t on the sphere with
    # t ~ uniform[0,1], so M* = int_0^1 sqrt(1+3t) dt = 14/9
    est = mean_width(Ellipsoid([1.0, 2.0]), samples=400_000, seed=1)
    assert est.estimate == pytest.approx(14.0 / 9.0, abs=4 * est.stderr)
    est2 = mean_width(Ellipsoid([1.0, 2.0]), samples=400_000, seed=2)
    assert abs(est.estimate - est2.estimate) <= 3 * (est.stderr + est2.stderr)


def test_mean_width_additive_under_minkowski_sum():
    K, T = Ellipsoid([1.0, 2.0]), Ball(0.8, 4)
    mk = mean_width(K, 150_000, seed=5)
    mt = mean_width(T, 150_000, seed=6)
    mkt = mean_width(MinkowskiSum([K, T]), 150_000, seed=7)
    gap = abs(mkt.estimate - mk.estimate - mt.estimate)
    assert gap <= 3 * (mk.stderr + mt.stderr + mkt.stderr)


def _mean_width_one_call_per_group(K, samples, seed):
    """(estimate, stderr) of `mean_width` drawn and evaluated in one call per
    group of at most 100,000 samples: the reference for its blocks."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x3E4)))
    total = total_sq = 0.0
    left = samples
    while left > 0:
        m = min(left, 100_000)
        U = rng.normal(size=(m, K.dim))
        U /= np.linalg.norm(U, axis=1)[:, None]
        h, _ = K.support_batch(U)
        total += float(np.sum(h))
        total_sq += float(np.sum(h * h))
        left -= m
    mean = total / samples
    return mean, math.sqrt(max(total_sq / samples - mean**2, 0.0) / samples)


MEAN_WIDTH_BODIES = {
    "ball": Ball(1.3, 4),
    "ellipsoid": Ellipsoid([1.0, 2.0]),
    "general_ellipsoid": random_general_ellipsoid(4, 3),
    "smoothed": random_symmetric_polytope(4, 5),
    "psum": random_symmetric_body(4, 703),
    # a smoothed polygon's support points depend on the call's row count,
    # its support values do not
    "smoothed_polygon": random_symmetric_polytope(2, 5),
}


# 4097 ends in a one-row block; 250,001 crosses a group boundary and is no
# multiple of the block
@pytest.mark.parametrize("samples", [4097, 60_000, 100_000, 250_001])
@pytest.mark.parametrize("name", MEAN_WIDTH_BODIES)
def test_mean_width_in_blocks_matches_one_call_per_group_bitwise(name, samples):
    K = MEAN_WIDTH_BODIES[name]
    est = mean_width(K, samples, seed=3)
    assert (est.estimate, est.stderr) == _mean_width_one_call_per_group(K, samples, 3)


def test_mean_width_memory_does_not_grow_with_samples():
    K = random_symmetric_body(4, 703)  # a PSum of two ellipsoids
    mean_width(K, 1000)
    tracemalloc.start()
    try:
        mean_width(K, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one support_batch call per group of 100,000 peaked at 30.5 MiB
    assert peak < 4 * 2**20


def test_mean_width_rejects_asymmetric_body():
    with pytest.raises(AsymmetricBodyError):
        mean_width(Translate(np.array([0.3, 0.0, 0.0, 0.0]), Ball(1.0, 4)))


def test_mean_width_bound_ball_equality():
    rep = mean_width_bound_check(Ball(1.0, 4), FAST, samples=50_000, seed=1)
    assert rep.passed
    assert rep.witnesses["equality_within_margin"]


def test_mean_width_bound_ellipsoid_strict():
    rep = mean_width_bound_check(Ellipsoid([1.0, 2.0]), FAST, samples=50_000, seed=2)
    assert rep.passed
    # M* > 1 while c = pi: the bound is strict
    assert rep.deficit > 0.5


# -- 2D area oracle --------------------------------------------------------------------------

def test_area_oracle_cases():
    assert capacity_area_2d(Ball(2.0, 2)) == pytest.approx(4 * math.pi)
    assert capacity_area_2d(GeneralEllipsoid(np.diag([1.0, 4.0]))) == pytest.approx(2 * math.pi)
    square = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    assert capacity_area_2d(square) == pytest.approx(4.0)
    # a listed vertex inside the hull does not dent the polygon
    dented = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1], [0.5, 0]])
    assert capacity_area_2d(dented) == pytest.approx(4.0, rel=1e-14)
    # generic support-quadrature fallback agrees with the exact value
    psum = PSum(2.0, [Ball(1.0, 2), Ball(1.0, 2)])
    assert capacity_area_2d(psum) == pytest.approx(2 * math.pi, rel=1e-8)


def test_area_oracle_is_exact_on_quadrics_under_affine_wrappers():
    # pi sqrt(det Q) for {x : x^T Q^{-1} x <= 1}, times the squared scale or
    # |det M| of the wrapper; a translation changes nothing
    Q = np.array([[1.0, 0.3], [0.3, 2.0]])
    M = np.array([[1.2, 0.4], [-0.3, 0.9]])
    area = math.pi * math.sqrt(np.linalg.det(Q))
    cases = [(Ellipsoid([1.5]), math.pi * 1.5**2),
             (GeneralEllipsoid(Q), area),
             (Translate(np.array([0.2, -0.1]), GeneralEllipsoid(Q)), area),
             (Scale(1.7, GeneralEllipsoid(Q)), 1.7**2 * area),
             (LinearImage(M, GeneralEllipsoid(Q)), abs(np.linalg.det(M)) * area)]
    for body, exact in cases:
        assert capacity_area_2d(body) == pytest.approx(exact, rel=1e-14)


def test_area_oracle_peels_affine_wrappers_off_a_polygon():
    # each wrapper's area is the shoelace area of the transformed vertices
    P = canonical_heptagon()
    M = np.array([[1.2, 0.4], [-0.3, 0.9]])
    v = np.array([0.2, -0.1])

    def shoelace(V):
        c = V - V.mean(axis=0)
        x, y = V[np.argsort(np.arctan2(c[:, 1], c[:, 0]))].T
        return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))

    for body, V in ((Translate(v, P), P.vertices + v), (Scale(1.7, P), 1.7 * P.vertices),
                    (LinearImage(M, P), P.vertices @ M.T)):
        assert capacity_area_2d(body) == pytest.approx(shoelace(V), rel=1e-14, abs=0)


def test_area_oracle_matches_solver_on_2d_bodies():
    for body in (GeneralEllipsoid(np.array([[1.0, 0.3], [0.3, 2.0]])),
                 PSum(2.0, [Ball(1.0, 2), GeneralEllipsoid(np.diag([0.5, 1.5]))])):
        r = capacity(body, SolveConfig(modes=12, starts=2))
        assert r.capacity == pytest.approx(capacity_area_2d(body), rel=1e-3)


def test_area_oracle_polygon_matches_extrapolated_solver():
    square = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    cfg = SolveConfig(modes=16, starts=2, grad_tol=1e-9, max_iter=2000,
                      polytope_sharpness=128.0, sharpness_extrapolate=True)
    r = capacity(square, cfg)
    assert r.capacity == pytest.approx(capacity_area_2d(square), rel=1e-12)
