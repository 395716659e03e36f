"""Unconstrained minimizers used across the package.

`lockstep` drives independent minimizations written as generators, one
batched objective call per round: each run yields the points (or blocks of
points) it needs evaluated and the points where it needs a Hessian.
`lbfgs_run` is one limited-memory quasi-Newton minimization in that form,
with a strong-Wolfe bracketing line search; `lbfgs` runs one of them alone.
The capacity solver (`solver.minimize`) drives every start of a solve
through one `lockstep` call, each start an L-BFGS run with the optional
slow exit, Newton steps and, where those stop short, a resumed L-BFGS run;
the iterative gauge of `bodies` takes Newton steps of its own.  The
objective may return +inf outside its domain; the line search treats that
as a rejected step, which is how scale-invariant quotients with an open
domain (positive loop action, positive support values) are kept feasible
without explicit constraints.  The quasi-Newton constants are fixed:
MEMORY curvature pairs, the Wolfe parameters ARMIJO (sufficient decrease)
and CURVATURE, and a stall exit after STALL_PATIENCE iterations without
progress; callers set only the gradient tolerance, the iteration cap and
whether the slow exit applies.
The line search gives up once its bracket in t is narrower than the
resolution of x along the search direction, EPS * |x|_inf / |d|_inf: a
narrower step moves no coordinate by more than the roundoff of the largest,
so Armijo would pass or fail on roundoff in f.  At the roundoff floor of a
minimization, a hopeless search then ends after about
log2(|d|_inf / (EPS |x|_inf)) trials instead of bisecting t down to 1e-16.

The slow exit ends a run that has brought |g|_inf to SLOW_BELOW but whose
last SLOW_WINDOW iterations cut it by less than SLOW_FACTOR.  It only stops
a run, so a run that ends "slow" is the same run cut short.

`batched_descent` runs many small gradient descents in lockstep with per-row
adaptive steps.  Nothing in the package calls it any more (intersection
supports are closed form); `perfbench/spans.py` still patches it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

MEMORY = 10
ARMIJO = 1e-4
CURVATURE = 0.9
STALL_PATIENCE = 30
EPS = np.finfo(float).eps
# the optional slow exit (module docstring)
SLOW_BELOW = 1e-3
SLOW_WINDOW = 10
SLOW_FACTOR = 10.0


@dataclass
class MinimizeResult:
    x: np.ndarray
    f: float
    grad_norm: float
    iterations: int
    converged: bool
    status: str
    grad: np.ndarray    # the gradient at x
    evaluations: int = 0


def _wolfe_search(x, f, g, d, slope, max_evals=60):
    """Strong-Wolfe line search by bracketing and bisection.

    A generator: it yields each trial point and is sent back its (f, g).
    Accepts a step t with sufficient decrease (parameter ARMIJO) and
    |directional derivative| reduced below CURVATURE * |slope|, which
    guarantees s.y > 0 for the quasi-Newton update and expands along long
    valleys instead of creeping.  Non-finite trial values (domain guard)
    count as Armijo failures.  Returns (t, f_t, g_t), falling back to the
    best Armijo-feasible point seen when the bracket collapses; t = 0 means
    total failure.  The bracket [lo, hi] collapses at a width of
    max(1e-16 * max(1, hi), EPS * |x|_inf / |d|_inf): below the second term
    a trial moves x by less than the roundoff of its largest coordinate, so
    no further trial can tell a real decrease from roundoff in f.
    """
    lo, hi = 0.0, math.inf
    t = 1.0
    best = (0.0, f, g)
    resolution = EPS * np.abs(x).max() / np.abs(d).max()
    for _ in range(max_evals):
        x_t = x + t * d
        f_t, g_t = yield x_t
        if not math.isfinite(f_t) or f_t > f + ARMIJO * t * slope:
            hi = t  # overshot: no sufficient decrease
        else:
            if f_t < best[1]:
                best = (t, f_t, g_t)
            dd = g_t.dot(d)
            if dd < CURVATURE * slope:
                lo = t  # still descending steeply: the minimum lies farther out
            elif dd > -CURVATURE * slope:
                hi = t  # slope already turned positive: overshot the minimum
            else:
                return t, f_t, g_t
        t = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        if hi < math.inf and hi - lo <= max(1e-16 * max(1.0, hi), resolution):
            break
    return best


def lbfgs_run(x0, grad_tol, max_iter, slow_exit=False):
    """One L-BFGS run as a generator for `lockstep`: yields every point it
    needs evaluated, is sent back (f, g), and returns its MinimizeResult.

    Convergence is declared when the sup-norm of the gradient drops below
    grad_tol.  Pairs with non-positive s.y (possible only on fallback
    acceptances of the line search) are skipped.  A run that makes no
    measurable function progress for STALL_PATIENCE consecutive iterations
    returns early with status "stall": grinding at the roundoff floor costs
    many line-search evaluations per step and cannot improve the iterate.
    Other exits are "gradient" (converged), "line_search" (no acceptable
    step, see `_wolfe_search`), "max_iter" and, with `slow_exit`, "slow"
    (module docstring).  The result carries the gradient at its point, so a
    caller can go on from there without evaluating it again.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = yield x
    if not math.isfinite(f):
        raise ValueError("lbfgs started outside the objective domain")

    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    status = "max_iter"
    it = 0
    f_best = f
    stalled = 0
    gnorms: list[float] = []    # |g|_inf at the start of each iteration

    for it in range(1, max_iter + 1):
        gnorm = float(np.abs(g).max())
        if gnorm <= grad_tol:
            return MinimizeResult(x, f, gnorm, it - 1, True, "gradient", g)
        gnorms.append(gnorm)
        if (slow_exit and gnorm <= SLOW_BELOW and len(gnorms) > SLOW_WINDOW
                and gnorms[-1 - SLOW_WINDOW] < SLOW_FACTOR * gnorm):
            return MinimizeResult(x, f, gnorm, it - 1, False, "slow", g)

        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * s.dot(q)
            alphas.append(a)
            q -= a * y
        if y_hist:
            y_last = y_hist[-1]
            gamma = s_hist[-1].dot(y_last) / y_last.dot(y_last)
            q *= gamma
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * y.dot(q)
            q += s * (a - b)
        d = -q

        slope = g.dot(d)
        if slope >= 0:  # bad direction, fall back to steepest descent
            d = -g
            slope = -g.dot(g)

        step, f_new, g_new = yield from _wolfe_search(x, f, g, d, slope)
        if step == 0.0:
            status = "line_search"
            break
        x_new = x + step * d

        s = x_new - x
        y = g_new - g
        sy = s.dot(y)
        if sy > 1e-12 * math.sqrt(s.dot(s)) * math.sqrt(y.dot(y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)

        x, f, g = x_new, f_new, g_new
        if f < f_best - 1e-14 * (1.0 + abs(f_best)):
            f_best = f
            stalled = 0
        else:
            stalled += 1
            if stalled >= STALL_PATIENCE:
                status = "stall"
                break

    gnorm = float(np.abs(g).max())
    return MinimizeResult(x, f, gnorm, it, gnorm <= grad_tol, status, g)


def lockstep(fg_batch: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], runs: list,
             hessians: Callable | None = None) -> tuple[list, list[int]]:
    """Drive generator runs in lockstep; returns their results and row counts.

    Each run is a generator that yields one request at a time:

        a point x (n,)      and is sent back (f, g) of that point,
        a block X (k, n)    and is sent back (F, G), one row per row of X,
        a tuple (x, f, g)   and is sent back the Hessian H (n, n) at x.

    fg_batch maps a (B, n) array to values (B,) and gradients (B, n), row by
    row; hessians maps the stacked (X, F, G) of several requests to one
    Hessian per row.  Each round makes one hessians call for every Hessian
    request, then one fg_batch call over every point and block, and runs
    that finish drop out.  Returns each run's return value and the number of
    fg rows it had evaluated.  Every run takes exactly the steps it would
    take alone, provided fg_batch and hessians evaluate each row
    independently of the others.  The capacity quotient does so on the
    bodies tested in R^4, but not on a smoothed polygon (see
    `solver._quotient_fg`).
    """
    results: list = [None] * len(runs)
    rows = [0] * len(runs)
    requests: dict = {}

    def advance(i, reply):
        try:
            requests[i] = runs[i].send(reply)
        except StopIteration as done:
            requests.pop(i, None)
            results[i] = done.value

    for i in range(len(runs)):
        advance(i, None)
    while requests:
        asking = [i for i, req in requests.items() if isinstance(req, tuple)]
        if asking:
            X, F, G = zip(*(requests[i] for i in asking))
            for i, H in zip(asking, hessians(np.stack(X), np.array(F), np.stack(G))):
                advance(i, H)
        waiting = [(i, req) for i, req in requests.items() if not isinstance(req, tuple)]
        if not waiting:
            continue
        F, G = fg_batch(np.concatenate([req if req.ndim == 2 else req[None]
                                        for _, req in waiting]))
        row = 0
        for i, req in waiting:
            block = req.ndim == 2
            k = len(req) if block else 1
            rows[i] += k
            advance(i, (F[row:row + k], G[row:row + k]) if block else (float(F[row]), G[row]))
            row += k
    return results, rows


def lbfgs(fg: Callable[[np.ndarray], tuple[float, np.ndarray]], x0: np.ndarray,
          grad_tol: float = 1e-10, max_iter: int = 500) -> MinimizeResult:
    """Minimize fg = (value, gradient) from x0: `lockstep` over one `lbfgs_run`.
    The result records the number of objective evaluations the run made."""
    def fg_batch(X):
        f, g = fg(X[0])
        return np.array([f], dtype=float), np.asarray(g, dtype=float)[None, :]

    (res,), (res.evaluations,) = lockstep(fg_batch, [lbfgs_run(x0, grad_tol, max_iter)])
    return res


def batched_descent(
    fg: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    max_iter: int = 200,
    grad_tol: float = 1e-10,
    step0: float = 0.5,
    grow: float = 1.3,
    shrink: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize B independent objectives in lockstep.

    fg maps an (B, d) array to per-row values (B,) and gradients (B, d).
    Rows whose trial step fails (Armijo-free: any increase or non-finite
    value counts as failure) keep their old iterate and halve their step;
    successful rows grow theirs.  Returns the best (x, f) seen per row.
    """
    x = np.array(x0, dtype=float)
    f, g = fg(x)
    steps = np.full(x.shape[0], step0)
    best_x = x.copy()
    best_f = f.copy()
    for _ in range(max_iter):
        gn = np.linalg.norm(g, axis=1)
        active = gn > grad_tol
        if not np.any(active):
            break
        trial = x - steps[:, None] * g
        f_t, g_t = fg(trial)
        ok = np.isfinite(f_t) & (f_t < f) & active
        x = np.where(ok[:, None], trial, x)
        f = np.where(ok, f_t, f)
        g = np.where(ok[:, None], g_t, g)
        steps = np.where(ok, steps * grow, steps * shrink)
        steps = np.maximum(steps, 1e-18)
        better = f < best_f
        best_x[better] = x[better]
        best_f[better] = f[better]
    return best_x, best_f
