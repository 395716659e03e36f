"""Unconstrained minimizers used across the package.

`lbfgs_batch` runs independent limited-memory quasi-Newton minimizations in
lockstep, one batched objective call per round, each with a strong-Wolfe
bracketing line search; `lbfgs` is its one-row case.  Its one caller is the
capacity solver (`solver.minimize`), which asks for the optional slow exit
and finishes the runs that end there with Newton steps; the iterative gauge
of `bodies` takes Newton steps of its own.  The objective may return +inf
outside its domain; the line search treats that as a rejected step, which
is how scale-invariant quotients with an open domain (positive loop action,
positive support values) are kept feasible without explicit constraints.
The quasi-Newton constants are fixed: MEMORY curvature pairs, the Wolfe
parameters ARMIJO (sufficient decrease) and CURVATURE, and a stall exit
after STALL_PATIENCE iterations without progress; callers set only the
gradient tolerance, the iteration cap and whether the slow exit applies.
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
adaptive steps.  It is deliberately simple; its one caller, the infimal
convolution of support functions, has a convex landscape and needs
throughput over asymptotic rate.
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
    evaluations: int = 0
    decrease: float = 0.0    # decrease of f made by the last iteration


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


def _lbfgs_run(x0, grad_tol, max_iter, slow_exit=False):
    """One L-BFGS run as a generator: yields every point it needs evaluated,
    is sent back (f, g), and returns its MinimizeResult."""
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
    decrease = 0.0
    gnorms: list[float] = []    # |g|_inf at the start of each iteration

    for it in range(1, max_iter + 1):
        gnorm = float(np.abs(g).max())
        if gnorm <= grad_tol:
            return MinimizeResult(x, f, gnorm, it - 1, True, "gradient", decrease=decrease)
        gnorms.append(gnorm)
        if (slow_exit and gnorm <= SLOW_BELOW and len(gnorms) > SLOW_WINDOW
                and gnorms[-1 - SLOW_WINDOW] < SLOW_FACTOR * gnorm):
            return MinimizeResult(x, f, gnorm, it - 1, False, "slow", decrease=decrease)

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

        decrease = f - f_new
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
    return MinimizeResult(x, f, gnorm, it, gnorm <= grad_tol, status, decrease=decrease)


def lbfgs_batch(
    fg_batch: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    X0: np.ndarray,
    grad_tol: float = 1e-10,
    max_iter: int = 500,
    slow_exit: bool = False,
) -> list[MinimizeResult]:
    """Run one independent L-BFGS minimization from each row of X0, in lockstep.

    fg_batch maps a (B, n) array of points to values (B,) and gradients
    (B, n), row by row.  Each round stacks the next point every live run
    needs and makes one fg_batch call; runs that finish drop out.  Every run
    takes exactly the steps it would take alone (see `lbfgs`), so the
    results do not depend on which other rows share the batch, provided
    fg_batch evaluates each row independently of the others.  Each result
    records the number of objective evaluations its run made and the
    decrease of f made by its last iteration (0 for a run that stops at its
    start).  With `slow_exit`, a run also ends with status "slow" at an
    iteration where |g|_inf <= SLOW_BELOW but its last SLOW_WINDOW
    iterations cut |g|_inf by less than SLOW_FACTOR: first-order progress
    has slowed to a crawl, and a caller with second-order steps takes over.
    """
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2:
        raise ValueError(f"X0 must be a 2-d array of start points, got shape {X0.shape}")
    runs = [_lbfgs_run(x0, grad_tol, max_iter, slow_exit) for x0 in X0]
    results: list[MinimizeResult | None] = [None] * len(runs)
    evaluations = [0] * len(runs)
    pending = {i: next(run) for i, run in enumerate(runs)}
    while pending:
        live = list(pending)
        F, G = fg_batch(np.stack([pending[i] for i in live]))
        for row, i in enumerate(live):
            evaluations[i] += 1
            try:
                pending[i] = runs[i].send((float(F[row]), G[row]))
            except StopIteration as done:
                del pending[i]
                results[i] = done.value
                results[i].evaluations = evaluations[i]
    return results


def lbfgs(
    fg: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    grad_tol: float = 1e-10,
    max_iter: int = 500,
) -> MinimizeResult:
    """Minimize fg = (value, gradient) from x0: the one-row case of `lbfgs_batch`.

    Convergence is declared when the sup-norm of the gradient drops below
    grad_tol.  The strong-Wolfe line search keeps the curvature pairs
    usable; pairs with non-positive s.y (possible only on fallback
    acceptances) are skipped.  A run that makes no measurable function
    progress for STALL_PATIENCE consecutive iterations returns early with
    status "stall": grinding at the roundoff floor costs many line-search
    evaluations per step and cannot improve the iterate.  Other exits are
    "gradient" (converged), "line_search" (no acceptable step) and
    "max_iter".  A line search fails once its bracket is narrower than the
    resolution of x along the direction (see `_wolfe_search`), so that a
    "line_search" exit at the roundoff floor does not bisect t down to 1e-16.
    """
    def fg_batch(X):
        f, g = fg(X[0])
        return np.array([f], dtype=float), np.asarray(g, dtype=float)[None, :]

    x0 = np.asarray(x0, dtype=float)
    return lbfgs_batch(fg_batch, x0[None, :], grad_tol=grad_tol, max_iter=max_iter)[0]


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
