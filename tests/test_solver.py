import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehz import optimize, solver
from ehz.bodies import (Ball, ConvexBody, Ellipsoid, GeneralEllipsoid, LinearImage,
                        MinkowskiSum, Polytope, PSum, Scale, Smoothed, Translate)
from ehz.intersections import build_intersection_body
from ehz.loops import CarrierLoop, FourierLoop, action, normalize_action, random_loop
from ehz.solver import (CharacteristicFitError, SolveConfig, SolverError, _Discretization,
                        _default_grid, _quotient_fg, _quotient_hessian, _starts, capacity,
                        capacity_from_lambda, certify, euler_residual, from_carrier,
                        lambda_from_capacity, minimize, to_carrier)
from ehz.symplectic import apply_J, random_symplectic

BALL4 = Ball(1.0, 4)
FAST = SolveConfig(modes=8, starts=4)


def circle_loop(dim=2, plane=0, radius=1.0, modes=1):
    a = np.zeros((modes, dim))
    b = np.zeros((modes, dim))
    a[0, 2 * plane] = radius
    b[0, 2 * plane + 1] = radius
    return FourierLoop(a, b)


def action_one_circle(dim=2, plane=0, modes=1):
    return circle_loop(dim, plane, 1.0 / np.sqrt(np.pi), modes)


# -- conversion identity --------------------------------------------------------

def test_lambda_capacity_conversion_roundtrip():
    for p in (1.5, 2.0, 3.0):
        for lam in (0.5, 2.0, 7.3):
            assert lambda_from_capacity(capacity_from_lambda(lam, p), p) == pytest.approx(lam, rel=1e-14)


def test_conversion_ball_values():
    # c = pi corresponds to lam = 2 at p = 2 and lam = 2/sqrt(pi) at p = 3
    assert capacity_from_lambda(2.0, 2.0) == pytest.approx(np.pi, rel=1e-15)
    assert lambda_from_capacity(np.pi, 3.0) == pytest.approx(2.0 / np.sqrt(np.pi), rel=1e-15)


# -- quotient objective -----------------------------------------------------------

def _quotient_at(K, z, p):
    """`_quotient_fg` on the 4M grid, and z as one of its rows: the velocity
    coefficients (k a_k, k b_k)."""
    disc = _Discretization(z.modes, z.dim, 4 * z.modes)
    kcol = np.arange(1, z.modes + 1, dtype=float)[:, None]
    return _quotient_fg(K, disc, p), disc.pack(kcol * z.a, kcol * z.b)


def _quotient_lambda(K, z, p):
    fg, theta = _quotient_at(K, z, p)
    return 2 * np.pi * math.exp(fg(theta[None, :])[0][0])


def test_objective_ball_analytic_value():
    assert _quotient_lambda(BALL4, action_one_circle(dim=4), 2.0) == pytest.approx(2.0, rel=1e-12)


def test_objective_scales_with_radius():
    # lambda = 2 r^2 at the action-1 circle
    z = action_one_circle(dim=4)
    for r in (0.5, 3.0):
        assert _quotient_lambda(Ball(r, 4), z, 2.0) == pytest.approx(2.0 * r * r, rel=1e-12)


@pytest.mark.parametrize("body,p", [
    (BALL4, 2.0),
    (Ellipsoid([1.0, 2.0]), 2.0),
    (PSum(2.0, [Ball(1.0, 4), Ellipsoid([1.0, 2.0])]), 2.5),
    (Translate(np.array([0.1, 0.0, 0.2, 0.0]), Ball(1.0, 4)), 1.5),
])
def test_objective_gradient_matches_finite_differences(body, p):
    z = normalize_action(random_loop(4, 4, np.random.default_rng(42), decay=1.5))
    fg, theta = _quotient_at(body, z, p)
    F, G = fg(theta[None, :])
    assert np.isfinite(F[0])
    h = 1e-6
    steps = h * np.eye(theta.size)
    fd = (fg(theta + steps)[0] - fg(theta - steps)[0]) / (2 * h)
    assert np.linalg.norm(fd - G[0]) <= 1e-5 * max(1.0, np.linalg.norm(G[0]))


def test_objective_rejects_raw_polytope():
    # the quotient is only minimized on smooth bodies: a raw polytope is
    # refused before any start, even a warm one, is evaluated
    P = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    with pytest.raises(SolverError, match="Smoothed"):
        minimize(P, FAST, initial=circle_loop())


# -- minimize ---------------------------------------------------------------------

def test_minimize_ball_lambda_two():
    lam, zstar, diags = minimize(BALL4, FAST)
    assert lam == pytest.approx(2.0, rel=1e-10)
    assert action(zstar) == pytest.approx(1.0, rel=1e-12)
    # minimizer is a planar circle of radius 1/sqrt(pi)
    radii = np.linalg.norm(zstar.evaluate(np.linspace(0, 2 * np.pi, 32)), axis=1)
    assert np.allclose(radii, 1 / np.sqrt(np.pi), atol=1e-8)


def test_minimize_ellipsoid_lambda_two():
    lam, zstar, _ = minimize(Ellipsoid([1.0, 2.0]), SolveConfig(modes=8, starts=4))
    assert lam == pytest.approx(2.0, rel=1e-9)
    # the minimizing circle sits in the first (shortest) symplectic plane
    samples = zstar.evaluate(np.linspace(0, 2 * np.pi, 16))
    assert np.max(np.abs(samples[:, 2:])) <= 1e-7


def test_minimize_ball_p3():
    lam, _, _ = minimize(BALL4, SolveConfig(p=3.0, modes=8, starts=4))
    assert lam == pytest.approx(2.0 / np.sqrt(np.pi), rel=1e-8)


def test_minimize_nonsmooth_rejected():
    P = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    with pytest.raises(SolverError):
        minimize(P, FAST)
    # a non-smooth body that is not itself a raw polytope
    with pytest.raises(SolverError, match="not differentiable"):
        minimize(PSum(2.0, [Ball(1.0, 2), P]), FAST)


# -- batched quotient and lockstep multistarts ------------------------------------

def _reference_quotient(K, disc, p, theta):
    """The quotient of one coefficient vector, written out row by row."""
    av, bv = disc.unpack(theta)
    kinv = (1.0 / disc.k)[:, None]
    a, b = kinv * av, kinv * bv
    h, gh = K.support_batch(-disc.S @ av + disc.C @ bv)
    A = np.pi * np.sum(disc.k * np.sum(apply_J(a) * b, axis=1))
    if A <= 0 or np.any(h <= 0):
        return np.inf, np.zeros_like(theta)
    mean_hp = float(np.mean(h**p))
    f = math.log(mean_hp) - 0.5 * p * math.log(A)
    G = (p * h ** (p - 1.0))[:, None] * gh / (disc.N * mean_hp)
    coeff = 0.5 * p * np.pi / A
    da = -(disc.S.T @ G) + coeff * apply_J(b)
    db = disc.C.T @ G + -coeff * apply_J(a)
    return f, disc.pack(da, db)


def _smoothed_hexagon_pair():
    rng = np.random.default_rng(3)
    V = rng.normal(size=(6, 4))
    return Smoothed(Polytope(np.vstack([V, -V])), 16.0)


QUOTIENT_BODIES = {
    "ball": Ball(1.3, 4),
    "general_ellipsoid": GeneralEllipsoid(np.diag([1.0, 2.0, 0.5, 3.0]) + 0.2),
    "psum": PSum(1.5, [Ball(1.0, 4), Ellipsoid([0.5, 2.0])]),
    "smoothed": _smoothed_hexagon_pair(),
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_BODIES))
@pytest.mark.parametrize("p", [2.0, 1.5])
def test_quotient_batched_rows_match_single_rows_bitwise(name, p):
    K = QUOTIENT_BODIES[name]
    modes = 32     # large enough that reassociated matrix products change bits
    disc = _Discretization(modes, K.dim, _default_grid(K, SolveConfig(modes=modes)))
    fg = _quotient_fg(K, disc, p)
    rng = np.random.default_rng(7)
    kcol = disc.k[:, None]
    circle = action_one_circle(K.dim, modes=modes)
    Theta = np.stack([disc.pack(kcol * circle.a + 0.1 * rng.normal(size=circle.a.shape) / kcol,
                                kcol * circle.b + 0.1 * rng.normal(size=circle.b.shape) / kcol)
                      for _ in range(9)])
    Theta[2] = 0.0                                         # zero loop
    Theta[4] = disc.pack(kcol * circle.b, kcol * circle.a)  # clockwise: negative action
    F, G = fg(Theta)
    assert F.shape == (9,) and G.shape == Theta.shape
    assert np.all(np.isfinite(np.delete(F, [2, 4])))
    for i in (2, 4):
        assert F[i] == np.inf and not np.any(G[i])
    for i in range(len(Theta)):
        f1, g1 = fg(Theta[i:i + 1])
        assert f1[0] == F[i] and np.array_equal(g1[0], G[i])
        f_ref, g_ref = _reference_quotient(K, disc, p, Theta[i].copy())
        assert f_ref == F[i] and np.array_equal(g_ref, G[i])


def _alone(fg, run, hessians=None):
    """A generator run driven by `lockstep` on its own: its result and rows."""
    (out,), (rows,) = optimize.lockstep(fg, [run], hessians)
    return out, rows


def _minimize_one_start_at_a_time(K, cfg, initial=None):
    """Each start run alone through `minimize`'s pipeline (L-BFGS, Newton
    phase, resumed L-BFGS) on the one-row quotient; returns the runs, their
    Newton steps and their Newton entries.  Each run records the rows its
    start evaluated."""
    disc = _Discretization(cfg.modes, K.dim, _default_grid(K, cfg))
    fg = _quotient_fg(K, disc, cfg.p)
    hessians = _quotient_hessian(K, disc, cfg.p)
    kcol = np.arange(1, cfg.modes + 1, dtype=float)[:, None]
    starts = _starts(K, cfg)
    if initial is not None:
        starts = [normalize_action(initial.with_modes(cfg.modes))] + starts
    slow_exit, ray_shift = solver._built_on_smoothed(K.recipe()), isinstance(K, Smoothed)
    alone = []
    for z in starts:
        (res, steps, entry), res.evaluations = _alone(
            fg, solver._descend(disc.pack(kcol * z.a, kcol * z.b), cfg, slow_exit, ray_shift),
            hessians)
        alone.append((res, steps, entry))
    runs, steps, entries = zip(*alone)
    return disc, kcol, runs, steps, entries


def _assert_lockstep(K, cfg, initial=None):
    """Every start of `minimize` is bit for bit what it is alone; returns the
    diagnostics."""
    lam, zstar, diags = minimize(K, cfg, initial=initial)
    disc, kcol, alone, steps, entries = _minimize_one_start_at_a_time(K, cfg, initial)
    assert len(diags) == len(alone) == cfg.starts + (initial is not None)
    for d, res, n, entry in zip(diags, alone, steps, entries):
        assert d.lam == 2 * np.pi * math.exp(res.f)
        assert (d.grad_norm, d.iterations, d.converged, d.status, d.evaluations,
                d.newton_steps) == (res.grad_norm, res.iterations, res.converged, res.status,
                                    res.evaluations, n)
        assert (d.newton_entry, d.newton_entry_grad) == (entry or (None, None))
    winner = next(d for d in diags if d.winner)
    assert lam == winner.lam
    av, bv = disc.unpack(alone[winner.index].x)
    expected = normalize_action(FourierLoop(av / kcol, bv / kcol))
    assert np.array_equal(zstar.a, expected.a) and np.array_equal(zstar.b, expected.b)
    return diags


@pytest.mark.parametrize("warm", [False, True])
def test_minimize_lockstep_matches_one_start_at_a_time(warm):
    K = _smoothed_hexagon_pair()
    cfg = SolveConfig(modes=4, starts=4)
    initial = minimize(K, cfg.replace(modes=3, starts=2))[1] if warm else None
    diags = _assert_lockstep(K, cfg, initial)
    assert all(d.status == "newton" and d.newton_steps > 0 for d in diags)
    # every start is handed over to Newton by the slow exit of L-BFGS
    assert all(d.newton_entry == "slow" for d in diags)


def test_minimize_lockstep_through_newton_and_resumed_lbfgs():
    # at 12 modes and 205 iterations the hexagon pair's starts finish by
    # Newton, leave the Newton phase short and resume L-BFGS, or run out of
    # iterations before it
    diags = _assert_lockstep(_smoothed_hexagon_pair(),
                             SolveConfig(modes=12, starts=8, max_iter=205))
    assert {"newton", "line_search", "max_iter"} <= {d.status for d in diags}
    assert any(d.newton_steps == solver.NEWTON_STEPS for d in diags)
    assert any(d.newton_steps == 0 for d in diags)


@pytest.mark.xfail(strict=False, reason="planar Smoothed rows depend on the BLAS block shape, "
                   "so on the 2D lens surrogate a start's values depend on its batch-mates")
def test_minimize_lockstep_on_the_planar_lens_surrogate():
    disc = Ball(1.0, 2)
    lens, _ = build_intersection_body(disc, Translate(np.array([1.0, 0.0]), disc), 720)
    _assert_lockstep(lens, SolveConfig(modes=16, starts=2, grad_tol=1e-9, max_iter=2500))


def test_smoothed_starts_enter_newton_when_lbfgs_slows_and_ellipsoid_starts_do_not():
    K = _smoothed_hexagon_pair()
    _, _, diags = minimize(K, SolveConfig(modes=6, starts=4))
    assert all(d.newton_entry == "slow" for d in diags)
    assert all(optimize.SLOW_BELOW >= d.newton_entry_grad > solver.NEWTON_ENTRY for d in diags)
    for E in (Ellipsoid([1.0, 1.5]), QUOTIENT_BODIES["general_ellipsoid"]):
        _, _, diags = minimize(E, SolveConfig(modes=8, starts=8))
        assert {d.newton_entry for d in diags} <= {None, "gradient"}
        assert all(d.newton_entry_grad is None or d.newton_entry_grad <= solver.NEWTON_ENTRY
                   for d in diags)


def _hexagon_first_start():
    """The quotient of the hexagon pair at 8 modes, its Hessians, its first
    start and the config."""
    K = _smoothed_hexagon_pair()
    cfg = SolveConfig(modes=8, starts=4)
    disc = _Discretization(cfg.modes, K.dim, _default_grid(K, cfg))
    z = _starts(K, cfg)[0]
    theta = disc.pack(disc.k[:, None] * z.a, disc.k[:, None] * z.b)
    return _quotient_fg(K, disc, cfg.p), _quotient_hessian(K, disc, cfg.p), theta, cfg


def _lbfgs_to_newton_entry(fg, theta, cfg):
    # L-BFGS without the slow exit, as `minimize` ran it before slow starts
    # were handed to Newton
    run, run.evaluations = _alone(fg, optimize.lbfgs_run(theta, solver.NEWTON_ENTRY,
                                                         cfg.max_iter))
    return run


def _mu_shifted_direction(H, g, x, ray_shift):
    # a Cholesky factor of H + mu I alone: its steps contract |g| only
    # linearly where the smallest curvature off the ray is close to mu
    return -cho_solve(cho_factor(H + 1e-6 * np.abs(np.diag(H)).max() * np.eye(len(g))), g)


def test_newton_steps_converge_quadratically_where_the_smallest_curvature_is_near_mu():
    fg, hessians, theta, cfg = _hexagon_first_start()
    run = _lbfgs_to_newton_entry(fg, theta, cfg)
    assert run.status == "gradient" and 1e-6 < run.grad_norm <= solver.NEWTON_ENTRY
    steps, _ = _alone(fg, solver._newton_phase(run, cfg.grad_tol, True), hessians)
    # a shift of every direction took 8 steps to |g| 3.0e-10 here
    assert run.status == "newton" and run.grad_norm <= cfg.grad_tol
    assert steps <= 4 and run.converged


def test_a_resumed_lbfgs_run_that_ends_worse_is_not_kept(monkeypatch):
    # the Newton phase of before: at most 8 steps of the mu-shifted
    # direction, which stop short at |g| 3.0e-10
    monkeypatch.setattr(solver, "NEWTON_STEPS", 8)
    monkeypatch.setattr(solver, "_newton_direction", _mu_shifted_direction)
    fg, hessians, theta, cfg = _hexagon_first_start()
    newton = _lbfgs_to_newton_entry(fg, theta, cfg)
    entry_grad = newton.grad_norm
    steps, rows = _alone(fg, solver._newton_phase(newton, cfg.grad_tol, True), hessians)
    newton.evaluations += rows
    assert steps == 8 and not newton.converged and 1e-10 < newton.grad_norm < 1e-9
    resumed, resumed.evaluations = _alone(fg, optimize.lbfgs_run(
        newton.x, cfg.grad_tol, cfg.max_iter - newton.iterations - 8))
    # the resumed run lowers f by less than the 4 eps band and raises |g|
    assert resumed.status == "line_search" and resumed.grad_norm > 1e-8
    assert abs(resumed.f - newton.f) <= 4 * optimize.EPS * abs(newton.f)

    # the start without the slow exit, as in `_lbfgs_to_newton_entry`
    (res, steps, entry), res.evaluations = _alone(
        fg, solver._descend(theta, cfg, slow_exit=False, ray_shift=True), hessians)
    # the start keeps the Newton point, with the resumed run's exit and counts
    assert np.array_equal(res.x, newton.x)
    assert (res.f, res.grad_norm) == (newton.f, newton.grad_norm)
    assert res.status == "line_search" and not res.converged
    assert res.iterations == newton.iterations + resumed.iterations
    assert res.evaluations == newton.evaluations + resumed.evaluations
    assert steps == 8 and entry == ("gradient", entry_grad)


HESSIAN_BODIES = {
    "smoothed": _smoothed_hexagon_pair(),
    "general_ellipsoid": QUOTIENT_BODIES["general_ellipsoid"],
    "psum": QUOTIENT_BODIES["psum"],
    "linear_image": LinearImage(random_symplectic(4, seed=2), Ellipsoid([1.0, 1.5])),
    "translate": Translate(np.array([0.1, -0.2, 0.05, 0.1]), Ellipsoid([1.0, 1.4])),
}


@pytest.mark.parametrize("name", sorted(HESSIAN_BODIES))
@pytest.mark.parametrize("p", [2.0, 1.5])
def test_quotient_hessian_matches_finite_differences_of_the_gradient(name, p):
    K = HESSIAN_BODIES[name]
    modes = 6
    disc = _Discretization(modes, K.dim, _default_grid(K, SolveConfig(modes=modes)))
    fg = _quotient_fg(K, disc, p)
    z = normalize_action(random_loop(modes, K.dim, np.random.default_rng(42), decay=1.5))
    theta = disc.pack(disc.k[:, None] * z.a, disc.k[:, None] * z.b)
    F, G = fg(theta[None, :])
    H, = _quotient_hessian(K, disc, p)(theta[None, :], F, G)
    h = 1e-6
    steps = h * np.eye(theta.size)
    fd = (fg(theta + steps)[1] - fg(theta - steps)[1]) / (2 * h)
    assert np.linalg.norm(H - fd) <= 1e-6 * np.linalg.norm(fd)


def test_per_start_diagnostics_reported():
    res = capacity(BALL4, FAST)
    rows = res.to_dict()["per_start"]
    assert len(rows) == FAST.starts
    for row, diag in zip(rows, res.per_start):
        assert row["status"] == diag.status
        assert diag.status in ("gradient", "newton", "stall", "line_search", "max_iter")
        assert row["evaluations"] == diag.evaluations > diag.iterations
        assert row["newton_steps"] == diag.newton_steps
        assert (row["newton_entry"], row["newton_entry_grad"]) == \
            (diag.newton_entry, diag.newton_entry_grad)
        assert diag.newton_entry in (None, "gradient", "slow")
    assert any(diag.status == "gradient" for diag in res.per_start)


# -- capacity and properties -------------------------------------------------------

def test_capacity_ball_normalization():
    r = capacity(BALL4, FAST)
    assert r.capacity == pytest.approx(np.pi, rel=1e-10)
    assert r.converged


def test_capacity_ball_radius_scaling():
    r = capacity(Ball(1.7, 4), FAST)
    assert r.capacity == pytest.approx(np.pi * 1.7**2, rel=1e-10)


def test_capacity_2d_ellipse_equals_area():
    r = capacity(GeneralEllipsoid(np.diag([1.0, 4.0])), SolveConfig(modes=8, starts=2))
    assert r.capacity == pytest.approx(2 * np.pi, rel=1e-10)


def test_capacity_conformality():
    s = 1.3
    base = capacity(Ellipsoid([1.0, 2.0]), FAST).capacity
    scaled = capacity(Scale(s, Ellipsoid([1.0, 2.0])), FAST).capacity
    assert scaled == pytest.approx(s**2 * base, rel=1e-6)


def test_capacity_translation_invariance():
    base = capacity(Ellipsoid([1.0, 2.0]), FAST).capacity
    moved = capacity(Translate(np.array([0.2, -0.1, 0.3, 0.1]), Ellipsoid([1.0, 2.0])),
                     SolveConfig(modes=12, starts=4)).capacity
    assert moved == pytest.approx(base, rel=1e-6)


def test_capacity_linear_symplectic_invariance():
    M = random_symplectic(4, seed=11, magnitude=0.5)
    base = capacity(Ellipsoid([1.0, 2.0]), FAST).capacity
    mapped = capacity(LinearImage(M, Ellipsoid([1.0, 2.0])), SolveConfig(modes=12, starts=6)).capacity
    assert mapped == pytest.approx(base, rel=1e-3)


def test_capacity_monotonicity_chain():
    c_small = capacity(BALL4, FAST).capacity
    c_mid = capacity(Ellipsoid([1.0, 2.0]), FAST).capacity
    c_big = capacity(Ball(2.0, 4), FAST).capacity
    assert c_small <= c_mid * (1 + 1e-9)
    assert c_mid <= c_big * (1 + 1e-9)


def test_capacity_p_independence():
    caps = [capacity(Ellipsoid([1.0, 2.0]), SolveConfig(p=p, modes=12, starts=4)).capacity
            for p in (1.5, 2.0, 3.0)]
    for c in caps[1:]:
        assert c == pytest.approx(caps[0], rel=1e-4)


def test_capacity_stability_check_ellipsoid():
    r = capacity(Ellipsoid([1.0, 2.0]), SolveConfig(modes=8, starts=2, stability_check=True))
    assert r.stability_drift is not None
    assert r.stability_drift <= 1e-6


def test_single_body_drift_is_the_next_level_of_the_mode_chain():
    K = PSum(2.5, [Ball(1.0, 4), Ellipsoid([1.0, 2.0])])
    cfg = SolveConfig(modes=6, starts=2)
    r = capacity(K, cfg.replace(stability_check=True))
    lam, z, _ = minimize(K, cfg)
    lam2, _, _ = minimize(K, cfg.replace(modes=12), initial=z)
    c, c2 = capacity_from_lambda(lam, cfg.p), capacity_from_lambda(lam2, cfg.p)
    assert r.capacity == c
    assert r.stability_drift == abs(c2 - c) / c > 0


def test_minimize_without_a_usable_start_returns_an_unconverged_winner():
    V = np.random.default_rng(3).normal(size=(6, 4))
    K = Smoothed(Polytope(np.vstack([V, -V])), 16.0)
    cfg = SolveConfig(modes=8, starts=4, max_iter=150)
    lam, zstar, diags = minimize(K, cfg)
    # every start hits the iteration cap short of the usable gradient norm,
    # and short of the Newton phase
    assert all(d.status == "max_iter" and d.grad_norm > 1e-6 for d in diags)
    assert all(d.newton_steps == 0 and d.newton_entry is None for d in diags)
    winner = next(d for d in diags if d.winner)
    assert lam == winner.lam == pytest.approx(0.5776133, rel=1e-6)
    assert all(winner.lam <= d.lam * (1 + 1e-9) for d in diags)
    assert action(zstar) == pytest.approx(1.0, rel=1e-12)
    r = capacity(K, cfg)
    assert r.lam == lam and not r.converged


def test_capacity_origin_not_interior_rejected():
    K = Translate(np.array([2.0, 0.0, 0.0, 0.0]), Ball(1.0, 4))
    with pytest.raises(SolverError, match="origin"):
        capacity(K, FAST)


def test_capacity_deterministic_with_seed():
    r1 = capacity(PSum(2.0, [Ball(1.0, 4), Ellipsoid([1.0, 2.0])]), SolveConfig(modes=8, starts=4, seed=3))
    r2 = capacity(PSum(2.0, [Ball(1.0, 4), Ellipsoid([1.0, 2.0])]), SolveConfig(modes=8, starts=4, seed=3))
    assert r1.capacity == r2.capacity
    assert np.array_equal(r1.minimizer.a, r2.minimizer.a)


# -- Euler residual ------------------------------------------------------------------

def test_euler_residual_ball_exact():
    z = action_one_circle(dim=4)
    alpha, res = euler_residual(BALL4, z, 2.0, 2.0)
    assert np.max(np.abs(alpha)) <= 1e-14
    assert res <= 1e-13


def test_euler_residual_translated_ball():
    # offset orthogonal to the carrier plane: minimizer is untouched and
    # alpha picks up the constant gradient shift 2*x0/sqrt(pi)
    x0 = np.array([0.0, 0.0, 0.25, -0.1])
    K = Translate(x0, BALL4)
    r = capacity(K, SolveConfig(modes=8, starts=2))
    assert r.capacity == pytest.approx(np.pi, rel=1e-8)
    alpha, res = euler_residual(K, r.minimizer, r.lam, 2.0)
    assert res <= 1e-8
    assert np.allclose(alpha, 2 * x0 / np.sqrt(np.pi), atol=1e-7)


def test_euler_residual_rejects_non_minimizer():
    z = normalize_action(random_loop(6, 4, np.random.default_rng(1)))
    _, res = euler_residual(BALL4, z, 2.0, 2.0)
    assert res > 0.05


# -- carrier maps --------------------------------------------------------------------

def test_to_carrier_ball_unit_circle():
    z = action_one_circle(dim=4)
    carrier = to_carrier(BALL4, z, 2.0, np.zeros(4), 2.0)
    assert np.max(np.abs(carrier.offset)) <= 1e-15
    t = np.linspace(0, 2 * np.pi, 32)
    pts = carrier.evaluate(t)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert carrier.action() == pytest.approx(np.pi, rel=1e-12)
    # l = sqrt(pi) J z: at t=0, z = (1/sqrt(pi), 0, ...) so l = (0, 1, 0, 0)
    assert np.allclose(pts[0], [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_to_carrier_boundary_tolerance_enforced():
    z = action_one_circle(dim=4)
    with pytest.raises(SolverError, match="boundary"):
        to_carrier(BALL4, z, 2.5, np.zeros(4), 2.0, boundary_tol=1e-6)


def test_carrier_scale_conformality():
    r = capacity(Ball(1.6, 4), FAST)
    pts = r.carrier.evaluate(np.linspace(0, 2 * np.pi, 16))
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.6, atol=1e-9)
    assert r.carrier.action() == pytest.approx(np.pi * 1.6**2, rel=1e-9)


def test_from_carrier_ball_analytic():
    # l = (-sin t, cos t): a_1 = (0, 1), b_1 = (-1, 0); d = 1/2, z = circle/sqrt(pi)
    carrier = CarrierLoop(np.zeros(2), FourierLoop(np.array([[0.0, 1.0]]),
                                                   np.array([[-1.0, 0.0]])))
    z = from_carrier(Ball(1.0, 2), carrier, 2.0)
    assert action(z) == pytest.approx(1.0, abs=1e-12)
    expected = action_one_circle(dim=2)
    assert np.allclose(z.a, expected.a, atol=1e-12)
    assert np.allclose(z.b, expected.b, atol=1e-12)


def test_carrier_roundtrip_ellipsoid():
    r = capacity(Ellipsoid([1.0, 2.0]), SolveConfig(modes=8, starts=2))
    z = from_carrier(Ellipsoid([1.0, 2.0]), r.carrier, 2.0)
    diff = np.sqrt(np.sum((z.a - r.minimizer.a)**2) + np.sum((z.b - r.minimizer.b)**2))
    assert diff <= 1e-8
    assert action(z) == pytest.approx(1.0, abs=1e-10)


def test_from_carrier_mean_shift_invariance():
    r = capacity(BALL4, FAST)
    shifted = CarrierLoop(r.carrier.offset + np.array([0.3, -0.2, 0.1, 0.0]), r.carrier.loop)
    z1 = from_carrier(BALL4, r.carrier, 2.0)
    z2 = from_carrier(BALL4, shifted, 2.0)
    assert np.allclose(z1.a, z2.a, atol=1e-12)
    assert np.allclose(z1.b, z2.b, atol=1e-12)


def test_from_carrier_rejects_non_characteristic():
    bad = CarrierLoop(np.zeros(4), normalize_action(random_loop(5, 4, np.random.default_rng(3))))
    with pytest.raises(CharacteristicFitError):
        from_carrier(BALL4, bad, 2.0)


def test_from_carrier_reparametrizes_drifting_clock():
    # same image as the ball carrier, but with a non-characteristic clock
    r = capacity(Ball(1.0, 2), SolveConfig(modes=8, starts=2))
    t = 2 * np.pi * np.arange(64) / 64
    warped = t + 0.2 * np.sin(t)
    pts = r.carrier.evaluate(warped)
    spec = np.fft.rfft(pts - pts.mean(axis=0), axis=0) / 64
    a = 2 * spec[1:9].real
    b = -2 * spec[1:9].imag
    warped_carrier = CarrierLoop(pts.mean(axis=0), FourierLoop(a, b))
    z = from_carrier(Ball(1.0, 2), warped_carrier, 2.0, fit_tol=1e-4)
    assert action(z) == pytest.approx(1.0, abs=1e-3)
    zref = from_carrier(Ball(1.0, 2), r.carrier, 2.0)
    # compare images: sample both and check pointwise after phase alignment
    bestgap = min(np.max(np.linalg.norm(z.evaluate(t + phi) - zref.evaluate(t), axis=1))
                  for phi in np.linspace(0, 2 * np.pi, 720, endpoint=False))
    assert bestgap <= 5e-3


# -- certificates ----------------------------------------------------------------------

def test_certificates_ball_tight():
    r = capacity(BALL4, FAST)
    c = r.certificates
    assert c.euler_residual_rel <= 1e-10
    assert c.support_const_cv <= 1e-10
    assert c.boundary_residual <= 1e-10
    assert c.action_mismatch_rel <= 1e-12
    assert c.support_const_mean == pytest.approx(1 / np.sqrt(np.pi), rel=1e-10)
    assert not c.paper_constant_matched


def test_certificates_smooth_bodies_below_1e5():
    bodies = [Ellipsoid([1.0, 2.0]),
              GeneralEllipsoid(np.diag([1.0, 1.0, 4.0, 4.0])),
              PSum(2.0, [Ball(1.0, 4), Ellipsoid([1.0, 2.0])])]
    for K in bodies:
        r = capacity(K, SolveConfig(modes=16, starts=4))
        assert r.certificates.worst() <= 1e-5, type(K).__name__


def test_certify_p_cross_consistency():
    r = capacity(Ellipsoid([1.0, 2.0]), SolveConfig(modes=12, starts=4))
    for p, c in r.certificates.p_cross.items():
        assert c == pytest.approx(r.capacity, rel=1e-6), p


def test_certify_flags_non_minimizer():
    r = capacity(BALL4, FAST)
    fake = r
    fake.minimizer = normalize_action(random_loop(8, 4, np.random.default_rng(9)))
    c = certify(BALL4, fake)
    assert c.support_const_cv > 0.05


FINISH_BODIES = {
    "ball": Ball(1.3, 4),
    "psum": PSum(1.5, [Ball(1.0, 4), Ellipsoid([0.5, 2.0])]),
    "smoothed": _smoothed_hexagon_pair(),
}


@pytest.mark.parametrize("name", sorted(FINISH_BODIES))
def test_finished_solve_evaluates_winner_samples_once(name, monkeypatch):
    K = FINISH_BODIES[name]
    seen = []
    original = type(K).support_batch

    def counting(self, U):
        if self is K:
            seen.append(np.array(U, copy=True))
        return original(self, U)

    monkeypatch.setattr(type(K), "support_batch", counting)
    r = capacity(K, SolveConfig(modes=4, starts=4))
    z = r.minimizer
    dz = _Discretization(z.modes, z.dim, r.grid).velocity(z.a, z.b)
    assert sum(U.shape == dz.shape and np.array_equal(U, dz) for U in seen) == 1


def _pentagon():
    angles = 2 * np.pi * np.arange(5) / 5 + 0.3
    return Polytope(np.column_stack([np.cos(angles), 1.2 * np.sin(angles)]))


def _finished(name):
    """(body, result) with the result's lam and capacity those of its finishing solve."""
    if name == "polished":
        cfg = SolveConfig(modes=6, starts=2, grad_tol=1e-9, max_iter=600,
                          polytope_sharpness=32.0, sharpness_extrapolate=True)
        r = capacity(_pentagon(), cfg)
        # the certificates belong to the smoothed solve, whose capacity the
        # polish replaced and recorded
        winner = next(s for s in r.per_start if s.winner)
        assert r.polish["accepted"] and r.capacity < r.polish["smoothed_capacity"]
        raw = dataclasses.replace(r, lam=winner.lam, capacity=r.polish["smoothed_capacity"])
        return Smoothed(_pentagon(), 32.0), raw
    K = {"ellipsoid": Ellipsoid([1.0, 1.7]), **FINISH_BODIES}[name]
    return K, capacity(K, SolveConfig(modes=4, starts=4))


@pytest.mark.parametrize("name", ["ellipsoid", "psum", "smoothed", "polished"])
def test_certify_and_euler_residual_reproduce_the_finish_bitwise(name):
    K, r = _finished(name)
    assert certify(K, r).to_dict() == r.certificates.to_dict()
    alpha, residual = euler_residual(K, r.minimizer, r.lam, r.p, r.grid)
    assert np.array_equal(alpha, r.alpha)
    assert residual == r.certificates.euler_residual_rel


WARM_GAUGE_BODIES = {
    "psum": FINISH_BODIES["psum"],
    "minkowski": MinkowskiSum([Ellipsoid([1.0, 1.5]), Ball(0.5, 4)], [1.0, 0.7]),
    "translate": Translate([0.1, -0.2, 0.05, 0.1], Ellipsoid([1.0, 1.4])),
    "smoothed": FINISH_BODIES["smoothed"],
}


@pytest.mark.parametrize("name", sorted(WARM_GAUGE_BODIES))
def test_carrier_gauges_start_from_the_carrier_normals(name, monkeypatch):
    K = WARM_GAUGE_BODIES[name]
    descents, warm = [], []
    original = ConvexBody.gauge_batch

    def spy(self, X, directions=None):
        warm.append(directions is not None)
        return original(self, X, directions)

    monkeypatch.setattr(ConvexBody, "gauge_batch", spy)
    monkeypatch.setattr(optimize, "batched_descent",
                        lambda *a, **k: descents.append(a) or (None, None))
    r = capacity(K, SolveConfig(modes=4, starts=4))
    assert r.certificates.gauge_tol > 0  # no analytic polar: the iterative gauge ran
    from_carrier(K, r.carrier, r.p, fit_tol=1.0)
    assert descents == []
    assert warm and all(warm)


# -- smoothed polytope pipeline ----------------------------------------------------------

def test_capacity_square_extrapolated_matches_area():
    square = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    cfg = SolveConfig(modes=16, starts=2, grad_tol=1e-9, max_iter=2000,
                      polytope_sharpness=128.0, sharpness_extrapolate=True)
    r = capacity(square, cfg)
    assert r.polish is not None and r.polish["accepted"]
    assert r.capacity == pytest.approx(4.0, rel=1e-12)
    # raw smoothed capacity overshoots the polygon area
    assert r.polish["smoothed_capacity"] > 4.0


def _spied_polish(monkeypatch, stability_check):
    """A small polished pentagon, with the (modes, capacity) of every
    `minimize` call, the number of finishing steps, and the (smoothed,
    reported) capacities of every polish."""
    solves, finishes, polishes = [], [], []
    minimize_, finish_, polish_ = solver.minimize, solver._finish, solver._polish

    def spy_minimize(K, cfg, initial=None):
        out = minimize_(K, cfg, initial=initial)
        solves.append((cfg.modes, capacity_from_lambda(out[0], cfg.p)))
        return out

    def spy_polish(K, carrier, smoothed):
        out = polish_(K, carrier, smoothed)
        polishes.append((smoothed, out[0]))
        return out

    monkeypatch.setattr(solver, "minimize", spy_minimize)
    monkeypatch.setattr(solver, "_finish", lambda *a, **k: finishes.append(1) or finish_(*a, **k))
    monkeypatch.setattr(solver, "_polish", spy_polish)
    cfg = SolveConfig(modes=6, starts=2, grad_tol=1e-9, max_iter=600, polytope_sharpness=32.0,
                      sharpness_extrapolate=True, stability_check=stability_check)
    return capacity(_pentagon(), cfg), solves, len(finishes), polishes


def test_polish_stability_check_extends_the_same_mode_chain(monkeypatch):
    plain, solves, finishes, polishes = _spied_polish(monkeypatch, False)
    assert ([m for m, _ in solves], finishes) == ([6], 1)
    assert polishes == [(solves[0][1], plain.capacity)]
    checked, solves, finishes, polishes = _spied_polish(monkeypatch, True)
    assert ([m for m, _ in solves], finishes) == ([6, 12], 1)
    # the drift compares the value polished from the 2M level's carrier,
    # against that level's smoothed capacity, with the reported one
    assert [smoothed for smoothed, _ in polishes] == [c for _, c in solves]
    c = plain.capacity
    assert plain.stability_drift is None
    assert checked.stability_drift == abs(polishes[1][1] - c) / c
    # and the check changes nothing else
    assert (checked.capacity, checked.lam, checked.modes, checked.grid) == \
        (plain.capacity, plain.lam, plain.modes, plain.grid)
    assert checked.polish == plain.polish
    assert checked.per_start == plain.per_start
    assert checked.certificates.to_dict() == plain.certificates.to_dict()
    assert np.array_equal(checked.alpha, plain.alpha)
    assert np.array_equal(checked.carrier.offset, plain.carrier.offset)
    for loop_a, loop_b in ((checked.minimizer, plain.minimizer),
                           (checked.carrier.loop, plain.carrier.loop)):
        assert np.array_equal(loop_a.a, loop_b.a) and np.array_equal(loop_a.b, loop_b.b)


def test_polished_solve_starts_from_initial(monkeypatch):
    starts = []
    minimize_ = solver.minimize

    def spy_minimize(K, cfg, initial=None):
        starts.append(initial)
        return minimize_(K, cfg, initial=initial)

    monkeypatch.setattr(solver, "minimize", spy_minimize)
    cfg = SolveConfig(modes=6, starts=2, grad_tol=1e-9, max_iter=600, polytope_sharpness=32.0,
                      sharpness_extrapolate=True, stability_check=True)
    capacity(_pentagon(), cfg)
    assert [z is not None for z in starts] == [False, True]
    initial = action_one_circle(2, modes=3)
    starts.clear()
    capacity(_pentagon(), cfg, initial=initial)
    assert starts[0] is initial and starts[1] is not None


def test_capacity_polytope_raw_smoothed_upper_bound():
    square = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    r = capacity(square, SolveConfig(modes=16, starts=2, grad_tol=1e-9,
                                     max_iter=1500, polytope_sharpness=64.0))
    assert r.smoothing == 64.0
    assert r.capacity > 4.0
    assert r.capacity == pytest.approx(4.0, rel=0.03)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(allow_nan=True, allow_infinity=True),
       modes=st.integers(-5, 40),
       sharpness=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                           st.sampled_from([1.0, 2.0, 4.0, 4.5, 64.0])),
       extrapolate=st.booleans())
@example(p=2.0, modes=8, sharpness=2.0, extrapolate=True)
@example(p=2.0, modes=8, sharpness=4.0, extrapolate=True)
@example(p=2.0, modes=8, sharpness=1.0, extrapolate=True)
@example(p=2.0, modes=8, sharpness=2.0, extrapolate=False)
@example(p=2.0, modes=8, sharpness=1.0, extrapolate=False)
@example(p=2.0, modes=8, sharpness=math.inf, extrapolate=False)
def test_solve_config_rejects_out_of_range_fields(p, modes, sharpness, extrapolate):
    # sharpness_extrapolate adds no rule: the polish needs one smoothed solve
    valid = 1 < p < math.inf and modes >= 1 and 1 < sharpness < math.inf
    fields = dict(p=p, modes=modes, polytope_sharpness=sharpness,
                  sharpness_extrapolate=extrapolate)
    if valid:
        SolveConfig(**fields)
    else:
        with pytest.raises(ValueError):
            SolveConfig(**fields)
