import numpy as np
import pytest

from ehz.optimize import SLOW_BELOW, batched_descent, lbfgs, lbfgs_run, lockstep


def lbfgs_lockstep(fg_batch, X0, grad_tol=1e-10, max_iter=500, slow_exit=False):
    """One L-BFGS run from each row of X0, all in one `lockstep` call; each
    result records the rows its run evaluated."""
    results, rows = lockstep(fg_batch, [lbfgs_run(x0, grad_tol, max_iter, slow_exit)
                                        for x0 in X0])
    for res, n in zip(results, rows):
        res.evaluations = n
    return results


def test_lbfgs_quadratic():
    A = np.diag([1.0, 10.0, 100.0])

    def fg(x):
        return 0.5 * x @ A @ x, A @ x

    res = lbfgs(fg, np.array([1.0, 1.0, 1.0]), grad_tol=1e-12)
    assert res.converged
    assert np.linalg.norm(res.x) <= 1e-10


def test_lbfgs_rosenbrock():
    def fg(x):
        f = (1 - x[0])**2 + 100 * (x[1] - x[0]**2)**2
        g = np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0]**2),
                      200 * (x[1] - x[0]**2)])
        return f, g

    res = lbfgs(fg, np.array([-1.2, 1.0]), grad_tol=1e-10, max_iter=500)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-7)


def test_lbfgs_respects_domain_guard():
    # objective defined only on x > 0; +inf outside must be handled by the
    # line search, never accepted
    def fg(x):
        if x[0] <= 0:
            return np.inf, np.zeros(1)
        return x[0] - np.log(x[0]), np.array([1 - 1 / x[0]])

    res = lbfgs(fg, np.array([3.0]), grad_tol=1e-12)
    assert res.converged
    assert res.x[0] == pytest.approx(1.0, rel=1e-10)


def test_lbfgs_stalls_out_quickly_at_roundoff_floor():
    # a kinked objective cannot reach grad_tol; the stall or line-search
    # exit must fire well before the iteration cap
    def fg(x):
        return abs(x[0] - 0.3) + 0.5 * x[0]**2, np.array([np.sign(x[0] - 0.3) + x[0]])

    res = lbfgs(fg, np.array([1.37]), grad_tol=1e-14, max_iter=5000)
    assert res.status in ("stall", "line_search")
    assert res.iterations < 500
    assert res.x[0] == pytest.approx(0.3, abs=1e-6)


def test_line_search_stops_once_steps_no_longer_move_x():
    # a kink at a large x0 with a small reported slope: every step that moves
    # x raises f, so the search must fail, and it must give up once x + t*d
    # stops moving x by an ulp instead of bisecting t down to 1e-16
    x0 = np.array([1000.0, -1000.0])
    slope = np.array([1e-8, 0.0])

    def fg(x):
        if np.array_equal(x, x0):
            return 1.0, slope
        return 1.0 + np.sum(np.abs(x - x0)), np.sign(x - x0)

    res = lbfgs(fg, x0.copy(), grad_tol=1e-10)
    ratio = np.max(np.abs(slope)) / (np.finfo(float).eps * np.max(np.abs(x0)))
    assert res.status == "line_search"
    assert res.evaluations <= int(np.ceil(np.log2(ratio))) + 4
    assert np.array_equal(res.x, x0) and res.f == 1.0


# Six objectives behind one batched fg: rows 0-2 are Rosenbrock valleys of
# growing steepness, rows 3-5 quadratics of growing condition number.  The
# last coordinate of a point names its objective; its gradient is zero, so
# no step ever moves it and each row keeps its objective in any batch.
ROSEN = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
STEEP = np.array([10.0, 100.0, 300.0, 0.0, 0.0, 0.0])
CURV = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                 [1.0, 1.0], [1.0, 50.0], [1.0, 2000.0]])
MIXED_X0 = np.array([[-1.2, 1.0, 0], [-1.5, 2.0, 1], [0.5, -0.7, 2],
                     [1.0, 1.0, 3], [-2.0, 0.3, 4], [0.4, 1.1, 5]], dtype=float)


def mixed_fg(X):
    k = X[:, 2].astype(int)
    r, s, c = ROSEN[k], STEEP[k], CURV[k]
    x, y = X[:, 0], X[:, 1]
    u = 1.0 - x
    v = y - x * x
    f = r * u * u + s * v * v + 0.5 * (c[:, 0] * x * x + c[:, 1] * y * y)
    g = np.stack([-2.0 * r * u - 4.0 * s * x * v + c[:, 0] * x,
                  2.0 * s * v + c[:, 1] * y,
                  np.zeros_like(x)], axis=1)
    return f, g


def test_lockstep_lbfgs_runs_match_separate_runs():
    sizes = []

    def fg_batch(X):
        sizes.append(X.shape[0])
        return mixed_fg(X)

    batched = lbfgs_lockstep(fg_batch, MIXED_X0, grad_tol=1e-10)
    for x0, res in zip(MIXED_X0, batched):
        calls = []

        def fg(x):
            calls.append(x)
            f, g = mixed_fg(x[None, :])
            return f[0], g[0]

        alone = lbfgs(fg, x0, grad_tol=1e-10)
        assert np.array_equal(res.x, alone.x)
        assert (res.f, res.grad_norm, res.iterations, res.converged, res.status) == \
            (alone.f, alone.grad_norm, alone.iterations, alone.converged, alone.status)
        assert res.evaluations == alone.evaluations == len(calls)
        assert res.converged and res.x[2] == x0[2]
    # the rows need different iteration counts, so finished rows leave the
    # batch: one call per round, each no larger than the last
    assert len({r.iterations for r in batched}) == len(batched)
    assert sizes[0] == len(MIXED_X0) and sizes[-1] == 1
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert len(sizes) == max(r.evaluations for r in batched)


def test_lockstep_lbfgs_domain_guard_and_bad_start():
    # objective defined only on x > 0, as in the single-run domain guard test
    def fg(X):
        x = X[:, 0]
        inside = x > 0
        safe = np.where(inside, x, 1.0)
        f = np.where(inside, safe - np.log(safe), np.inf)
        return f, np.where(inside, 1 - 1 / safe, 0.0)[:, None]

    res = lbfgs_lockstep(fg, np.array([[3.0], [0.2], [40.0]]), grad_tol=1e-12)
    assert [r.x[0] for r in res] == pytest.approx([1.0] * 3, rel=1e-10)
    with pytest.raises(ValueError, match="outside the objective domain"):
        lbfgs_lockstep(fg, np.array([[3.0], [-1.0]]))


def test_slow_exit_ends_runs_that_crawl_and_only_those():
    # eigenvalues from 1e-4 to 1: L-BFGS crawls, and without the slow exit
    # stalls hundreds of iterations later short of grad_tol
    c = np.logspace(-4, 0, 200)

    def fg(X):
        return 0.5 * np.sum(X * X * c, axis=1), X * c

    X0 = np.stack([np.ones(200), 0.5 * np.ones(200)])
    crawl = lbfgs_lockstep(fg, X0, grad_tol=1e-10, max_iter=2000)
    slow = lbfgs_lockstep(fg, X0, grad_tol=1e-10, max_iter=2000, slow_exit=True)
    for full, res, x0 in zip(crawl, slow, X0):
        assert full.status == "stall" and full.iterations > 500
        assert res.status == "slow" and not res.converged
        assert res.grad_norm <= SLOW_BELOW and res.iterations < 100
        # the exit only stops the run: it is the same run cut at that iteration
        cut, = lbfgs_lockstep(fg, x0[None, :], grad_tol=1e-10, max_iter=res.iterations)
        assert np.array_equal(cut.x, res.x) and cut.f == res.f
    # a well-conditioned run converges long before anything could crawl
    fast = lbfgs_lockstep(lambda X: (0.5 * np.sum(X * X * (1 + c), axis=1), X * (1 + c)),
                       X0, grad_tol=1e-10, max_iter=2000, slow_exit=True)
    assert all(r.status == "gradient" for r in fast)


def test_lockstep_mixes_points_blocks_and_hessian_requests():
    # the value of a row encodes the row, so a run can tell whether it got
    # its own rows back; so does the Hessian of a (x, f, g) request
    rng = np.random.default_rng(11)
    calls = []

    def fg_batch(X):
        calls.append(("fg", len(X)))
        return X @ np.array([1.0, 10.0, 100.0]), 2.0 * X

    def hessians(X, F, G):
        calls.append(("hessians", len(X)))
        return [np.outer(x, g) + f for x, f, g in zip(X, F, G)]

    def expect_point(x, reply):
        f, g = reply
        assert f == x @ np.array([1.0, 10.0, 100.0]) and np.array_equal(g, 2.0 * x)
        return f, g

    def point_hessian_block(x, X):
        f, g = expect_point(x, (yield x))
        H = yield x, f, g
        assert np.array_equal(H, np.outer(x, g) + f)
        F, G = yield X
        assert F.shape == (len(X),) and G.shape == X.shape
        for row, reply in zip(X, zip(F, G)):
            expect_point(row, reply)
        return "point, hessian, block"

    def block_hessian_point(X, x):
        F, G = yield X
        for row, reply in zip(X, zip(F, G)):
            expect_point(row, reply)
        H = yield X[0], F[0], G[0]
        assert np.array_equal(H, np.outer(X[0], G[0]) + F[0])
        expect_point(x, (yield x))
        return "block, hessian, point"

    def one_point(x):
        expect_point(x, (yield x))
        return "point"

    def nothing():
        return "nothing"
        yield

    P = rng.normal(size=(9, 3))
    runs = [point_hessian_block(P[0], P[1:4]), block_hessian_point(P[4:6], P[6]),
            one_point(P[7]), nothing()]
    results, rows = lockstep(fg_batch, runs, hessians)
    assert results == ["point, hessian, block", "block, hessian, point", "point", "nothing"]
    assert rows == [4, 3, 1, 0]
    # round 1 evaluates the first requests of three runs; round 2 builds the
    # two Hessians in one call, then evaluates the block and the point
    assert calls == [("fg", 4), ("hessians", 2), ("fg", 4)]


def test_batched_descent_independent_quadratics():
    rng = np.random.default_rng(0)
    targets = rng.normal(size=(50, 3))

    def fg(X):
        d = X - targets
        return np.sum(d * d, axis=1), 2 * d

    x, f = batched_descent(fg, np.zeros((50, 3)), max_iter=300)
    assert np.max(np.abs(x - targets)) <= 1e-6
    assert np.max(f) <= 1e-10
