"""Exact polytope capacities: the smoothed solve's facet word, polished by
Haim-Kislev's formula (`capacity(P, SolveConfig(sharpness_extrapolate=True))`).
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from ehz import solver
from ehz.bodies import LinearImage, Polytope, Scale, Smoothed, Translate
from ehz.harness import capacity_area_2d
from ehz.randbodies import random_symmetric_polytope
from ehz.solver import SolveConfig, capacity, certify
from ehz.suite import canonical_heptagon
from ehz.symplectic import apply_J, random_symplectic, symplectic_form

SQUARE = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
POLISH24 = SolveConfig(modes=24, starts=2, grad_tol=1e-9, max_iter=2500,
                       polytope_sharpness=128.0, sharpness_extrapolate=True)
POLISH12 = SolveConfig(modes=12, starts=4, grad_tol=1e-9, max_iter=900,
                       polytope_sharpness=64.0, sharpness_extrapolate=True)
POLISH16 = SolveConfig(modes=16, starts=4, polytope_sharpness=64.0, sharpness_extrapolate=True)


def lagrangian_product(K, T):
    """The product of K (vertices in q-space) and T (vertices in p-space), in
    coordinates (x1, y1, x2, y2, ...): x the q- and y the p-coordinates."""
    K, T = np.asarray(K, dtype=float), np.asarray(T, dtype=float)
    return Polytope(np.array([np.stack([k, t], axis=1).ravel() for k in K for t in T]))


def pentagon_product():
    """Regular pentagon (q-plane) times the pentagon rotated by 90 degrees
    (p-plane), coordinates (x1, y1, x2, y2); returns it and its 4-volume."""
    th = math.pi / 2 + 2 * math.pi * np.arange(5) / 5
    K = np.stack([np.cos(th), np.sin(th)], axis=1)
    T = np.stack([-np.sin(th), np.cos(th)], axis=1)
    return lagrangian_product(K, T), (2.5 * math.sin(2 * math.pi / 5)) ** 2


def simplex4():
    """Regular 4-simplex centred at the origin: 5 facets."""
    E = np.eye(5) - 0.2
    _, _, Vt = np.linalg.svd(E)
    return Polytope(E @ Vt[:4].T)


def triangle_product():
    """Triangle (q-plane) times a smaller, rotated, shifted triangle (p-plane): 6 facets."""
    th = math.pi / 2 + 2 * math.pi * np.arange(3) / 3
    K = np.stack([np.cos(th), np.sin(th)], axis=1)
    T = 0.8 * np.stack([np.cos(th + 0.4), np.sin(th + 0.4)], axis=1) + [0.05, -0.1]
    return lagrangian_product(K, T)


PENTAGONS, PENTAGONS_VOLUME = pentagon_product()
CASES = {
    "square": (SQUARE, POLISH24.replace(modes=16), lambda c: c, 4.0),
    "heptagon": (canonical_heptagon(), POLISH24, lambda c: c,
                 capacity_area_2d(canonical_heptagon())),
    # systolic ratio c^2 / (2 vol) = (sqrt 5 + 3) / 5 (Haim-Kislev & Ostrover 2024)
    "pentagon_product": (PENTAGONS, POLISH12, lambda c: c * c / (2.0 * PENTAGONS_VOLUME),
                         (math.sqrt(5.0) + 3.0) / 5.0),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    """(polytope, config, value_of, exact value, polished result)."""
    P, cfg, value_of, exact = CASES[request.param]
    return P, cfg, value_of, exact, capacity(P, cfg)


def _polygon_action(P, word, beta, c):
    """Action of the closed polygon with edges 2c beta_k J n_k, from its vertices."""
    normals, _ = P.facets
    edges = 2.0 * c * np.asarray(beta)[:, None] * apply_J(normals[word])
    vertices = np.cumsum(edges, axis=0) - edges
    return 0.5 * float(np.sum(symplectic_form(vertices, edges))), np.abs(edges.sum(axis=0)).max()


def test_facets_merge_the_simplices_of_each_facet():
    normals, h = SQUARE.facets
    assert np.allclose(h, 1.0)
    assert np.allclose(np.sort(normals @ [1.0, 2.0]), [-2.0, -1.0, 1.0, 2.0], rtol=0, atol=1e-15)
    normals, h = PENTAGONS.facets
    # 5 edges of each pentagon, each times the other pentagon: 10 prisms
    assert normals.shape == (10, 4)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    assert np.allclose(h, math.cos(math.pi / 5))
    assert SQUARE.facets is SQUARE.facets


def test_polished_capacity_is_exact(case):
    _, _, value_of, exact, r = case
    assert r.polish["accepted"]
    assert value_of(r.capacity) == pytest.approx(exact, rel=1e-12, abs=0)
    # the smoothed body contains the polytope, and its solve overshoots
    assert r.polish["smoothed_capacity"] > r.capacity
    assert r.lam == solver.lambda_from_capacity(r.capacity, r.p)


def test_polished_loop_is_feasible(case):
    _, cfg, _, _, r = case
    polish = r.polish
    assert min(polish["beta"]) >= 0.0 and polish["min_beta"] == min(polish["beta"])
    assert polish["closure"] <= 1e-12 and polish["normalization"] <= 1e-12
    assert polish["sharpness"] == r.smoothing == cfg.polytope_sharpness
    assert len(polish["word"]) == len(polish["beta"])


def test_polygon_of_the_word_has_the_polished_action(case):
    P, _, _, _, r = case
    action, closure = _polygon_action(P, r.polish["word"], r.polish["beta"], r.capacity)
    assert closure <= 1e-12 * r.capacity
    assert action == pytest.approx(r.capacity, rel=1e-12, abs=0)


def test_the_reversed_word_has_the_opposite_form(case):
    # Q(reversed word, reversed beta) = -Q(word, beta) on the same feasible
    # set, so only the carrier's own word is polished
    P, _, _, _, r = case
    normals, _ = P.facets

    def form(word, beta):
        Nw = normals[word]
        return float(beta @ np.triu(apply_J(Nw) @ Nw.T, 1) @ beta)

    word, beta = np.array(r.polish["word"]), np.array(r.polish["beta"])
    assert form(word, beta) > 0
    assert abs(form(word, beta) + form(word[::-1], beta[::-1])) <= 1e-15


@pytest.mark.parametrize("image", ["translate", "scale", "symplectic"])
def test_affine_images_of_a_raw_polytope_are_folded_and_polished(case, image):
    # a raw polytope under Translate, Scale or LinearImage is solved as one
    # polytope with the mapped vertices, so its polish is the polytope's own
    P, cfg, _, _, r = case
    shift = np.full(P.dim, 0.05)
    shift[0] = -0.1
    body, ratio = {"translate": (Translate(shift, P), 1.0),
                   "scale": (Scale(1.3, P), 1.69),
                   "symplectic": (LinearImage(random_symplectic(P.dim, 5, 0.3), P), 1.0)}[image]
    image_result = capacity(body, cfg)
    assert image_result.polish["accepted"]
    assert image_result.capacity / ratio == pytest.approx(r.capacity, rel=1e-12, abs=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_polished_r4_polytopes_lie_below_their_smoothed_solve(seed):
    P = random_symmetric_polytope(4, seed).body
    r = capacity(P, POLISH16)
    assert r.polish["accepted"]
    assert r.capacity < r.polish["smoothed_capacity"]
    assert max(r.polish["closure"], r.polish["normalization"], -r.polish["min_beta"]) <= 1e-12
    action, _ = _polygon_action(P, r.polish["word"], r.polish["beta"], r.capacity)
    assert action == pytest.approx(r.capacity, rel=1e-12, abs=0)


def test_certify_reproduces_the_smoothed_solve_of_a_polished_result():
    P = random_symmetric_polytope(4, 2).body
    r = capacity(P, POLISH16)
    winner = next(s for s in r.per_start if s.winner)
    r.lam, r.capacity = winner.lam, r.polish["smoothed_capacity"]
    assert certify(Smoothed(P, 64.0), r).to_dict() == r.certificates.to_dict()


def _regular_hexagon():
    th = 2 * math.pi * np.arange(6) / 6
    return Polytope(np.stack([np.cos(th), np.sin(th)], axis=1))


@pytest.mark.parametrize("wrong", ["cannot_close", "exceeds_smoothed"])
def test_a_wrong_word_falls_back_to_the_smoothed_capacity(wrong, monkeypatch):
    hexagon = _regular_hexagon()
    normals, _ = hexagon.facets
    ccw = np.argsort(np.arctan2(normals[:, 1], normals[:, 0]))
    # two facets cannot close a loop; three alternate ones close the
    # circumscribed triangle, 3/2 of the hexagon's area
    word = ccw[:2] if wrong == "cannot_close" else ccw[::2]
    monkeypatch.setattr(solver, "_carrier_word", lambda n, carrier: (word, np.ones(len(word))))
    cfg = SolveConfig(modes=8, starts=2, polytope_sharpness=32.0)
    plain = capacity(hexagon, cfg)
    r = capacity(hexagon, cfg.replace(sharpness_extrapolate=True))
    assert not r.polish["accepted"] and not r.converged
    assert r.capacity == r.polish["smoothed_capacity"] == plain.capacity
    assert r.lam == plain.lam
    assert r.polish["word"] == word.tolist()


def _enumerated_capacity(P, starts=4, seed=0):
    """Haim-Kislev's formula by brute force: every cyclic order of the facets
    (a zero beta drops a facet, so subsets are covered), each order's form
    maximized by SLSQP from the uniform beta and starts - 1 random ones."""
    normals, h = P.facets
    F = len(h)
    rng = np.random.default_rng(seed)
    best = 0.0
    for rest in itertools.permutations(range(1, F)):
        order = np.array((0,) + rest)
        n, hw = normals[order], h[order]
        omega = symplectic_form(n[:, None, :], n[None, :, :])
        form = np.triu(omega, 1)
        A_eq = np.vstack([n.T, hw])
        b_eq = np.append(np.zeros(P.dim), 1.0)
        for k in range(starts):
            b0 = np.ones(F) if k == 0 else rng.uniform(0.0, 1.0, F)
            res = scipy_minimize(lambda b: (-(b @ form @ b), -((form + form.T) @ b)),
                                 b0 / (hw @ b0), jac=True, method="SLSQP",
                                 bounds=[(0.0, None)] * F,
                                 constraints={"type": "eq", "fun": lambda b: A_eq @ b - b_eq,
                                              "jac": lambda b: A_eq},
                                 options={"ftol": 1e-15, "maxiter": 500})
            if np.abs(A_eq @ res.x - b_eq).max() <= 1e-12 and res.x.min() >= 0.0:
                best = max(best, float(res.x @ form @ res.x))
    return 1.0 / (2.0 * best)


@pytest.mark.parametrize("make, facets", [(simplex4, 5), (triangle_product, 6)],
                         ids=["simplex4", "triangle_product"])
def test_polish_finds_the_best_of_every_facet_order(make, facets):
    P = make()
    assert len(P.facets[1]) == facets
    r = capacity(P, POLISH12)
    assert r.polish["accepted"]
    assert r.capacity == pytest.approx(_enumerated_capacity(P), rel=1e-12, abs=0)


def _polar_vertices(P):
    """Vertices of the polar of a polygon P: its facet normals n_i / h_i."""
    normals, h = P.facets
    return normals / h[:, None]


POLAR_PAIRS = {
    "square_x_diamond": (SQUARE.vertices, _polar_vertices(SQUARE)),
    "hexagon_x_polar": (_regular_hexagon().vertices, _polar_vertices(_regular_hexagon())),
    "cube_x_octahedron": (list(itertools.product([-1, 1], repeat=3)),
                          np.vstack([np.eye(3), -np.eye(3)])),
}


@pytest.mark.parametrize("pair", sorted(POLAR_PAIRS))
def test_a_symmetric_body_times_its_polar_has_capacity_4(pair):
    # c(K x K°) = 4 (Artstein-Avidan, Karasev & Ostrover 2014); the 2-bounce
    # words of these products have dependent closure rows
    r = capacity(lagrangian_product(*POLAR_PAIRS[pair]), POLISH12)
    assert r.polish["accepted"]
    assert r.capacity == pytest.approx(4.0, rel=0, abs=1e-12)
