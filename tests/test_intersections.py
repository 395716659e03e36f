import math

import numpy as np
import pytest
import scipy.optimize

from ehz import bodies, intersections
from ehz.bodies import (Ball, BodyError, DegenerateIntersectionError, Ellipsoid, Intersection,
                        Polytope, Translate, intersection_support_batch)
from ehz.harness import HarnessError
from ehz.intersections import (build_intersection_body, deep_point, direction_design,
                               intersection_capacity, intersection_concavity_check)
from ehz.randbodies import random_general_ellipsoid
from ehz.solver import SolveConfig, capacity_from_lambda, minimize

LENS_AREA = 2 * math.pi / 3 - math.sqrt(3) / 2
CFG2 = SolveConfig(modes=16, starts=2, grad_tol=1e-9, max_iter=2500)
CFG4 = SolveConfig(modes=10, starts=2, grad_tol=1e-8, max_iter=800)


def test_direction_design_is_symmetric_and_unit():
    U = direction_design(4, 64, seed=1)
    assert U.shape == (64, 4)
    assert np.allclose(np.linalg.norm(U, axis=1), 1.0)
    assert np.allclose(U[:32], -U[32:])


def test_deep_point_of_ball_constraints():
    U = direction_design(2, 128, seed=0)
    h = np.ones(128)
    x, r = deep_point(U, h)
    assert np.linalg.norm(x) <= 1e-9
    assert r == pytest.approx(1.0, abs=1e-6)


def test_deep_point_shifted():
    U = direction_design(2, 256, seed=0)
    shift = np.array([0.4, -0.2])
    h = np.ones(256) + U @ shift
    x, r = deep_point(U, h)
    assert np.allclose(x, shift, atol=1e-6)
    assert r == pytest.approx(1.0, abs=1e-6)


def test_build_intersection_body_on_the_lens():
    disc, shift = Ball(1.0, 2), Translate(np.array([1.0, 0.0]), Ball(1.0, 2))
    body, audit = build_intersection_body(disc, shift, design_size=720, seed=0)
    assert isinstance(body, Translate) and isinstance(body.body, Intersection)
    assert body.recipe()["body"] == Intersection(disc, shift).recipe()
    assert body.vector == pytest.approx([-0.5, 0.0], abs=1e-2)
    assert audit.depth == pytest.approx(0.5, abs=1e-3)
    assert 0.0 <= audit.mean_rel_error <= audit.max_rel_error <= 1e-12
    assert (audit.vertex_count, audit.design_size) == (0, 720)


def test_the_lens_is_recentred_at_its_pencil_centre():
    disc, shift = Ball(1.0, 2), Translate(np.array([1.0, 0.0]), Ball(1.0, 2))
    centre = Intersection(disc, shift).centre
    assert np.abs(centre - [0.5, 0.0]).max() <= 1e-15
    body, audit = build_intersection_body(disc, shift, design_size=720, seed=0)
    assert np.array_equal(body.vector, -centre)
    assert audit.depth == pytest.approx(0.5, abs=1e-4)


def _pencil_radius_min(K, T, n=100_001):
    """min over a t grid of rho(t) = 1 - min_x (t q_K + (1 - t) q_T)(x),
    each inner minimum from its own linear solve."""
    (A, a), (B, b) = bodies.quadric(K), bodies.quadric(T)
    t = np.linspace(0.0, 1.0, n)[:, None]
    r = t * (A @ a) + (1 - t) * (B @ b)
    x = np.linalg.solve(t[:, :, None] * A + (1 - t[:, :, None]) * B, r[:, :, None])[:, :, 0]
    value = t[:, 0] * (a @ A @ a) + (1 - t[:, 0]) * (b @ B @ b) - (r * x).sum(axis=1)
    return float((1.0 - value).min())


def test_pencil_centre_attains_the_minimax_of_the_two_quadrics():
    # criterion 12's pairs at their three shifts: max(q_K, q_T) at the centre
    # is 1 - min rho, so the centre is interior exactly when rho's check passes
    rng = np.random.default_rng(900)
    for i in range(10):
        K = random_general_ellipsoid(4, 900 + 2 * i, cond_max=4.0)
        T = Ball(float(rng.uniform(0.8, 1.1)), 4)
        x, y = rng.uniform(-0.4, 0.4, 4), rng.uniform(-0.4, 0.4, 4)
        lam = float(rng.uniform(0.2, 0.8))
        for shift in (x, y, lam * x + (1 - lam) * y):
            Ts = Translate(shift, T)
            body = Intersection(K, Ts)
            top = 1.0 + body.excess(body.centre[None])[0]
            assert top == pytest.approx(1.0 - _pencil_radius_min(K, Ts), rel=0, abs=1e-9)
            assert top < 1.0


def test_building_an_intersection_body_solves_no_linear_program(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no linear program on the build path")
    monkeypatch.setattr(intersections, "deep_point", refuse)
    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    K, T = random_general_ellipsoid(4, 900, cond_max=4.0), Translate([0.3, 0, 0, 0], Ball(1.0, 4))
    body, audit = build_intersection_body(K, T, design_size=256)
    assert np.array_equal(body.vector, -Intersection(K, T).centre)
    assert audit.depth > 0.1 and audit.max_rel_error <= 1e-12


def test_audit_catches_support_points_off_the_pencil_minimum(monkeypatch):
    # t = 1/2 for every direction: the points lie on E_{1/2}, outside K or T
    K, T = random_general_ellipsoid(4, 900, cond_max=4.0), Translate([0.3, 0, 0, 0], Ball(1.0, 4))
    _, audit = build_intersection_body(K, T, design_size=256)
    assert audit.max_rel_error <= 1e-12
    monkeypatch.setattr(bodies, "_pencil_minimum",
                        lambda derivatives, h0, h1, g0, g1: np.full(g0.size, 0.5))
    _, audit = build_intersection_body(K, T, design_size=256)
    assert audit.max_rel_error > 1e-3


def test_degenerate_intersection_rejected():
    disc = Ball(1.0, 2)
    with pytest.raises(DegenerateIntersectionError):
        build_intersection_body(disc, Translate(np.array([2.1, 0.0]), disc),
                                design_size=256)


def test_support_point_hull_contains_the_deep_point_strictly():
    # the first pair of criterion 12 at its first shift: the 768 support
    # points of the design, recentred at the deep point, pass the polytope's
    # interior-origin LP; recentred at one of them, they fail it
    rng = np.random.default_rng(900)
    K = random_general_ellipsoid(4, 900, cond_max=4.0)
    T = Ball(float(rng.uniform(0.8, 1.1)), 4)
    T = Translate(rng.uniform(-0.4, 0.4, 4), T)
    U = direction_design(4, 768, 0)
    vals, points = intersection_support_batch(K, T, U)
    x0, depth = deep_point(U, vals)
    assert depth > 0.1
    assert Polytope(points - x0).vertices.shape == (768, 4)
    with pytest.raises(BodyError, match="origin"):
        Polytope(points - points[0])


@pytest.mark.parametrize("design_size", [-5, 0, 1, 7])
def test_design_below_twice_the_dimension_rejected(design_size):
    with pytest.raises(HarnessError, match="design_size"):
        intersection_capacity(Ball(1.0, 4), Ball(1.0, 4), np.zeros(4), CFG4,
                              design_size=design_size)


def test_intersection_capacity_is_richardson_of_warm_mode_pair():
    K, T, shift = Ball(1.0, 2), Ellipsoid([0.8]), np.array([0.3, -0.1])
    cfg = SolveConfig(modes=6, starts=2)
    body, _ = build_intersection_body(K, Translate(shift, T), design_size=64)
    lam, z, _ = minimize(body, cfg)
    lam2, _, _ = minimize(body, cfg.replace(modes=12), initial=z)
    c, c2 = capacity_from_lambda(lam, cfg.p), capacity_from_lambda(lam2, cfg.p)
    assert intersection_capacity(K, T, shift, cfg, design_size=64)[0] == (4.0 * c2 - c) / 3.0


def test_lens_capacity_matches_analytic_area():
    disc = Ball(1.0, 2)
    c, audit = intersection_capacity(disc, disc, np.array([1.0, 0.0]), CFG2,
                                     design_size=720)
    assert c == pytest.approx(LENS_AREA, rel=1e-3)


def test_lens_capacity_is_conformal():
    # c(sK) = s^2 c(K): the lens of two discs of radius 2^-20 is accepted
    # and solves to 2^-40 times the unit lens
    r = 2.0**-20
    unit, _ = intersection_capacity(Ball(1.0, 2), Ball(1.0, 2), np.array([1.0, 0.0]), CFG2,
                                    design_size=720)
    small, audit = intersection_capacity(Ball(r, 2), Ball(r, 2), np.array([r, 0.0]), CFG2,
                                         design_size=720)
    assert small == pytest.approx(r * r * unit, rel=1e-12, abs=0)
    assert audit.depth == pytest.approx(0.5 * r, rel=1e-3)


def test_trivial_intersection_recovers_disc():
    disc = Ball(1.0, 2)
    c, _ = intersection_capacity(disc, disc, np.zeros(2), CFG2, design_size=720)
    assert c == pytest.approx(math.pi, rel=1e-3)


def test_concavity_x_equals_y_is_equality():
    K = random_general_ellipsoid(4, 21, cond_max=3.0)
    T = Ball(1.0, 4)
    x = np.array([0.2, -0.1, 0.15, 0.0])
    rep = intersection_concavity_check(K, T, x, x, 0.3, CFG4, design_size=512)
    assert abs(rep.deficit) <= 5e-4 * max(rep.lhs, 1.0)
    assert rep.passed


def test_concavity_containing_body_recovers_capacity():
    # T contains K and x = y = 0: all three intersections are K itself
    K = Ball(1.0, 4)
    T = Ball(3.0, 4)
    rep = intersection_concavity_check(K, T, np.zeros(4), np.zeros(4), 0.5, CFG4,
                                       design_size=512)
    caps = rep.witnesses["capacities"]
    assert rep.lhs == pytest.approx(math.sqrt(math.pi), rel=1e-9)
    assert max(abs(caps[k] - caps["C"]) for k in "AB") <= 1e-6 * caps["C"]
    assert rep.witnesses["audits"]["C"]["max_rel_error"] <= 1e-12
    assert rep.passed


def test_ellipsoid_inside_a_translated_ball_recovers_its_capacity():
    # E(1, 1.5) lies inside (0.1, 0, 0, 0.2) + B(2), so the intersection is
    # E(1, 1.5), of capacity pi r_1^2
    shift = np.array([0.1, 0.0, 0.0, 0.2])
    c, audit = intersection_capacity(Ellipsoid([1.0, 1.5]), Ball(2.0, 4), shift, CFG4,
                                     design_size=512)
    assert c == pytest.approx(math.pi, rel=1e-9)
    assert audit.max_rel_error <= 1e-12


def test_concavity_generic_pair_strict():
    K = random_general_ellipsoid(4, 11)
    T = Ball(0.9, 4)
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5, 0.5, 4)
    y = -x + rng.uniform(-0.2, 0.2, 4)
    rep = intersection_concavity_check(K, T, x, y, 0.4, CFG4, design_size=768)
    assert rep.passed
    assert rep.deficit > 0.05  # genuinely strict for offset intersections
    for k in "ABC":
        assert rep.witnesses["audits"][k]["max_rel_error"] <= 1e-12


def test_concavity_symmetric_special_case_flag():
    K = Ball(1.0, 4)
    T = Ball(1.0, 4)
    x = np.array([0.5, 0.0, 0.0, 0.0])
    rep = intersection_concavity_check(K, T, x, -x, 0.5, CFG4, design_size=512)
    mono = rep.witnesses["symmetric_monotonicity"]
    assert mono["ok"]
    assert mono["c_shifted"] <= mono["c_central"] * (1 + 1e-3)
