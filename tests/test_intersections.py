import math

import numpy as np
import pytest

from ehz.bodies import Ball, Ellipsoid, Translate
from ehz.harness import HarnessError
from ehz.intersections import (DegenerateIntersectionError, build_intersection_body,
                               deep_point, direction_design, intersection_capacity,
                               intersection_concavity_check)
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


def test_build_intersection_surrogate_lens_accuracy():
    disc = Ball(1.0, 2)
    body, audit = build_intersection_body(disc, Translate(np.array([1.0, 0.0]), disc),
                                          design_size=720, seed=0)
    assert audit.mean_rel_error <= 2e-3
    assert audit.depth == pytest.approx(0.5, abs=1e-3)


def test_degenerate_intersection_rejected():
    disc = Ball(1.0, 2)
    with pytest.raises(DegenerateIntersectionError):
        build_intersection_body(disc, Translate(np.array([2.1, 0.0]), disc),
                                design_size=256)


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
    # T contains K and x = y = 0: all three intersections are K itself.  The
    # R^4 hull surrogate carries a few-percent absolute bias at this design
    # size (visible in the audit); the concavity check relies on the bias
    # cancelling across the three identical intersections.
    K = Ball(1.0, 4)
    T = Ball(3.0, 4)
    rep = intersection_concavity_check(K, T, np.zeros(4), np.zeros(4), 0.5, CFG4,
                                       design_size=512)
    caps = rep.witnesses["capacities"]
    assert rep.lhs == pytest.approx(math.sqrt(math.pi), rel=0.05)
    assert max(abs(caps[k] - caps["C"]) for k in "AB") <= 1e-6 * caps["C"]
    assert rep.witnesses["audits"]["C"]["mean_rel_error"] < 0.03
    assert rep.passed


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
        assert rep.witnesses["audits"][k]["mean_rel_error"] < 0.05


def test_concavity_symmetric_special_case_flag():
    K = Ball(1.0, 4)
    T = Ball(1.0, 4)
    x = np.array([0.5, 0.0, 0.0, 0.0])
    rep = intersection_concavity_check(K, T, x, -x, 0.5, CFG4, design_size=512)
    mono = rep.witnesses["symmetric_monotonicity"]
    assert mono["ok"]
    assert mono["c_shifted"] <= mono["c_central"] * (1 + 1e-3)
