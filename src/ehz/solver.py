"""EHZ capacity of a convex body by dual-action minimization.

For a smooth convex body K containing the origin, the capacity is recovered
from the minimum of I_p(z) = int_0^{2pi} h_K^p(z'(t)) dt over zero-mean
loops of action 1: writing lambda for the minimum,

    c(K)^{p/2} = pi^{p-1} * lambda / 2            (any p > 1).

The action constraint is removed by minimizing the scale-invariant quotient
[(1/2pi) I_p(z)] / A(z)^{p/2} over the Fourier coefficient space; both terms
are homogeneous, so the quotient is flat along rays and the minimum value
equals lambda / 2pi.  Quasi-Newton descent with planar-circle multistarts
does the minimization: L-BFGS until the gradient is small or its progress
slows down, then a few Newton steps on the quotient's Hessian, which
`_quotient_hessian` assembles from the structure of the quotient, and
L-BFGS again where those stop short.  Each start is one generator
(`_descend`), and one `optimize.lockstep` call drives all the starts of a
solve, with one batched objective evaluation per round.

A minimizer z satisfies the Euler equation

    grad h_K^p(z') = (p/2) lambda J z + alpha,    alpha = mean of grad h_K^p(z'),

and the loop

    l = (2pi/lambda)^{1/q} ((lambda/2) J z + alpha / p),   1/p + 1/q = 1,

is a closed characteristic on the boundary of K whose action equals c(K);
`to_carrier` / `from_carrier` implement this correspondence in both
directions.  Certificates quantify how well a numerical minimizer satisfies
each of these identities; the support values h_K(z'(t)) of a true minimizer
are constant in t with value sqrt(c(K))/pi, which pins the conventions
against the analytic ball case (checked in the tests).

Raw polytopes are not smooth, so `capacity` solves them on a `Smoothed`
wrapper; a raw polytope under linear images, translations and scalings is
first folded into one polytope.  With `sharpness_extrapolate` it then reports the polytope's own
capacity: Haim-Kislev's formula maximized for the facet word that the
smoothed solve's carrier visits (`_polish`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .bodies import (ConvexBody, MinkowskiSum, Polytope, PSum, Smoothed, affine_part,
                     direction_design, support_hessians)
from .loops import (CarrierLoop, FourierLoop, action, normalize_action, random_loop,
                    resample_by_clock, sample)
from .optimize import EPS, MinimizeResult, lbfgs_run, lockstep
from .symplectic import apply_J, apply_J_inverse

TWO_PI = 2 * np.pi

# A start leaves L-BFGS for Newton steps once its gradient sup-norm is at most
# NEWTON_ENTRY, or earlier when L-BFGS slows down (the "slow" exit of
# `lbfgs_run`), and takes at most NEWTON_STEPS of them; each step tries the
# fractions NEWTON_TRIALS of the Newton direction in three blocks: the full
# step, then 1/2 to 1/16, then 1/32 to 1/4096 (`_newton_phase`).  The
# third block runs only when the first two are rejected, so it costs
# nothing where they take a step.  It serves slow exits whose Hessian has a
# tiny negative eigenvalue: their pseudo-inverse step can be several times
# |x| long (|d| = 34.6 against |x| = 6.3 on start 3 of random_body(4, 307)
# at RANDOM12, Hessian eigenvalues -4.8e-6 to 8.8), and without the short
# fractions such a start resumed L-BFGS from an empty memory for hundreds
# of iterations (457 there, ending in a stall).
NEWTON_ENTRY = 1e-5
NEWTON_STEPS = 16
NEWTON_TRIALS = tuple(2.0 ** -k for k in range(13))

# A raw polytope's polish reads the facet word off WORD_SAMPLES carrier
# samples, and accepts a polished loop whose residuals are within POLISH_TOL.
WORD_SAMPLES = 4096
POLISH_TOL = 1e-12


class SolverError(RuntimeError):
    pass


class CharacteristicFitError(SolverError):
    """The given loop is not (a reparametrization of) a closed characteristic."""


@dataclass
class SolveConfig:
    """Solver settings; the defaults are tuned for desk-scale bodies in R^4/R^6.

    p                      dual-action exponent, finite and > 1
    modes                  Fourier modes M of the truncated loop space
    starts                 multistart count: planar circles, then perturbed ones
    seed                   seed of the perturbed starts and the origin check
    grad_tol, max_iter     L-BFGS gradient tolerance and iteration cap
    stability_check        solve one mode doubling further; report the relative drift
    polytope_sharpness     sharpness s of the Smoothed wrapper of a raw polytope
    sharpness_extrapolate  report a raw polytope's own (s -> infinity) capacity,
                           polished from the smoothed solve's facet word

    The quadrature grid is not a setting: it has 4M nodes, or 8M for a
    Smoothed body and its linear images, translates and scalings, whose
    integrand carries features on the 1/s scale.
    """

    p: float = 2.0
    modes: int = 16
    starts: int = 8
    seed: int = 0
    grad_tol: float = 1e-10
    max_iter: int = 500
    stability_check: bool = False
    polytope_sharpness: float = 64.0
    sharpness_extrapolate: bool = False

    def __post_init__(self):
        if not 1 < self.p < math.inf:
            raise ValueError(f"exponent p must be finite and exceed 1, got {self.p}")
        if self.modes < 1:
            raise ValueError(f"modes must be at least 1, got {self.modes}")
        if self.starts < 1:
            raise ValueError(f"starts must be at least 1, got {self.starts}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not 1 < self.polytope_sharpness < math.inf:
            raise ValueError("polytope_sharpness must be finite and exceed 1, "
                             f"got {self.polytope_sharpness}")

    def replace(self, **kw) -> "SolveConfig":
        data = self.__dict__ | kw
        return SolveConfig(**data)


@dataclass
class CertificateBundle:
    """How well a computed minimizer satisfies the optimality identities.

    `gauge_tol` estimates the relative error left in the gauge values behind
    `boundary_residual`: 0 for the quadratic bodies of `bodies.quadric`,
    whose gauge is closed form, otherwise the largest decrease of the log
    gauge that one more step of the Newton gauge predicts at any carrier
    sample where it stopped, floored at 1e-14 (`bodies._gauge_by_newton`).
    """

    euler_residual_rel: float
    support_const_cv: float
    boundary_residual: float
    action_mismatch_rel: float
    support_const_mean: float = 0.0
    support_const_expected: float = 0.0
    paper_constant_matched: bool = False
    gauge_tol: float = 0.0
    p_cross: dict = field(default_factory=dict)

    def worst(self) -> float:
        return max(self.euler_residual_rel, self.support_const_cv,
                   self.boundary_residual, self.action_mismatch_rel)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class StartDiagnostics:
    """How one start of `minimize` went.

    `status` is "newton" for a start that reached `grad_tol` by Newton
    steps, and otherwise the exit of its last L-BFGS run: gradient, stall,
    line_search or max_iter.  `iterations` counts L-BFGS iterations, those
    before and after the Newton phase; `newton_steps` counts the accepted
    Newton steps.  `newton_entry` says how the start reached the Newton
    phase: "gradient" (|g|_inf at most NEWTON_ENTRY), "slow" (L-BFGS slowed
    down first) or None (no Newton phase); `newton_entry_grad` is its
    |g|_inf there.  `evaluations` counts the objective rows of the start:
    the L-BFGS evaluations, and in a Newton phase, for every step it tried,
    one row for the full step, four more (1/2 to 1/16) if it rejected that,
    and eight more (1/32 to 1/4096) if it rejected those too; the phase
    starts from the (f, g) of the L-BFGS run's last point.  A line_search
    exit's last, failed search stops once its steps no longer move the
    coefficients by more than roundoff, so it costs fewer than a bisection
    of the step to 1e-16.  `winner` marks the one start whose loop
    `minimize` returns: the lowest quotient, whatever its status, so a
    winner need not be `converged`.
    """

    index: int
    lam: float
    grad_norm: float
    iterations: int
    converged: bool
    status: str
    evaluations: int
    newton_steps: int = 0
    newton_entry: str | None = None
    newton_entry_grad: float | None = None
    winner: bool = False


@dataclass
class CapacityResult:
    """The result of `capacity`.

    `polish` is set on a raw polytope solved with `sharpness_extrapolate`:
    `accepted`, `smoothed_capacity` (the smoothed solve's), `sharpness`,
    `word` (facet indices into `Polytope.facets`, in carrier order), `beta`,
    and the residuals `closure` (|sum beta n|_inf), `normalization`
    (|sum beta h - 1|) and `min_beta` (see `_polish`).  `capacity` and `lam`
    are then the polished values, and everything else describes the
    smoothed solve.
    """

    capacity: float
    lam: float
    p: float
    modes: int
    grid: int
    seed: int
    minimizer: FourierLoop
    alpha: np.ndarray
    carrier: CarrierLoop
    certificates: CertificateBundle
    per_start: list[StartDiagnostics]
    converged: bool
    stability_drift: float | None = None
    smoothing: float | None = None
    polish: dict | None = None

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "lambda": self.lam,
            "p": self.p,
            "modes": self.modes,
            "grid": self.grid,
            "seed": self.seed,
            "starts": len(self.per_start),
            "converged": self.converged,
            "stability_drift": self.stability_drift,
            "smoothing": self.smoothing,
            "polish": self.polish,
            "certificates": self.certificates.to_dict(),
            # `lam` is renamed in place: the key order reaches CSV cells
            "per_start": [{("lambda" if k == "lam" else k): v for k, v in asdict(s).items()}
                          for s in self.per_start],
        }


def capacity_from_lambda(lam: float, p: float) -> float:
    """c = (pi^{p-1} lambda / 2)^{2/p}."""
    return (np.pi ** (p - 1.0) * lam / 2.0) ** (2.0 / p)


def lambda_from_capacity(c: float, p: float) -> float:
    return 2.0 * c ** (p / 2.0) / np.pi ** (p - 1.0)


# ---------------------------------------------------------------------------
# discretized functional
# ---------------------------------------------------------------------------


class _Discretization:
    """Trig tables and coefficient packing for a fixed (modes, grid) pair.

    The grid nodes are t_j = 2 pi j / N.
    """

    def __init__(self, modes: int, dim: int, N: int):
        self.modes, self.dim, self.N = modes, dim, N
        k = np.arange(1, modes + 1)
        t = TWO_PI * np.arange(N) / N
        phase = np.outer(t, k)
        self.C = np.cos(phase)
        self.S = np.sin(phase)
        self.k = k

    def unpack(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = self.modes * self.dim
        return theta[:m].reshape(self.modes, self.dim), theta[m:].reshape(self.modes, self.dim)

    def pack(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.concatenate([a.ravel(), b.ravel()])

    def quotient_terms(self, Theta: np.ndarray) -> tuple[np.ndarray, ...]:
        """For rows Theta of velocity coefficients (k a_k, k b_k): the
        coefficients b (R, M, d), the velocity samples (R, N, d), J a and the
        action A (R,), as `_quotient_fg` and `_quotient_hessian` share them."""
        R, M, d = Theta.shape[0], self.modes, self.dim
        kinv = (1.0 / self.k)[:, None]
        av = Theta[:, :M * d].reshape(R, M, d)
        bv = Theta[:, M * d:].reshape(R, M, d)
        a, b = kinv * av, kinv * bv
        dz = -self.S @ av + self.C @ bv
        Ja = apply_J(a)
        A = np.pi * (self.k * (Ja * b).sum(axis=2)).sum(axis=1)
        return b, dz, Ja, A


def _quotient_fg(K: ConvexBody, disc: _Discretization, p: float):
    """log of the scale-invariant quotient and its gradient, batched over rows.

    The optimization variables are the velocity coefficients (k a_k, k b_k):
    the mode index then enters the integrand Hessian uniformly, which keeps
    the quasi-Newton iteration well conditioned at large mode counts.

    The returned fg maps Theta (B, n) to values F (B,) and gradients G (B, n)
    with one support evaluation over all B * N velocity samples.  The matrix
    products are stacked per row, means are taken per row and the value is a
    scalar log per row, so each row comes out bit for bit as it would in a
    batch of one, provided the body's support rows do not depend on their
    batch-mates.  That fails for a smoothed polygon: its support points come
    from a two-column BLAS product whose bits depend on the block's row
    count.  Rows outside the domain (non-positive action or support value)
    get +inf and a zero gradient.
    """
    half_p = 0.5 * p
    Npts, d = disc.N, disc.dim

    def fg(Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        B = Theta.shape[0]
        b, dz, Ja, A = disc.quotient_terms(Theta)
        h, gh = K.support_batch(dz.reshape(B * Npts, d))
        h = h.reshape(B, Npts)
        gh = gh.reshape(B, Npts, d)
        inside = (A > 0) & (h > 0).all(axis=1)
        F = np.full(B, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_hp = (h**p).mean(axis=1)
            for i in np.flatnonzero(inside):
                F[i] = math.log(mean_hp[i]) - half_p * math.log(A[i])
            G = (p * h ** (p - 1.0))[:, :, None] * gh / (Npts * mean_hp)[:, None, None]
            da = -(disc.S.T @ G)
            db = disc.C.T @ G
            coeff = (half_p * np.pi / A)[:, None, None]
            da += coeff * apply_J(b)    # d/d(av) of -(p/2) log A; b already holds 1/k
            db += -coeff * Ja
        grad = np.concatenate([da.reshape(B, -1), db.reshape(B, -1)], axis=1)
        grad[~inside] = 0.0
        return F, grad

    return fg


def _quotient_hessian(K: ConvexBody, disc: _Discretization, p: float):
    """Hessians of the log quotient of `_quotient_fg`, one row at a time.

    With u_j = z'(t_j) = B_j theta for B = [-S C] (per coordinate),
    m = mean_j h^p(u_j) and A the action, the log quotient is
    log m - (p/2) log A, and its Hessian is

        (1/(N m)) sum_j B_j^T D^2(h^p)(u_j) B_j - g_1 g_1^T
            - (p/2) D^2A / A + (p/2) grad A grad A^T / A^2,

    where g_1 = grad log m.  The only numerical derivative is D^2(h^p) at
    each velocity sample, from `bodies.support_hessians`: central
    differences of grad(h^p) at u_j +- delta e_i, delta = 1e-6 |u_j|, all
    from one `support_batch` call over the 2d copies of every sample of
    every row.  A is a quadratic form, so D^2A is constant: pi/k times a
    signed permutation that pairs av_k with bv_k through J.  Each Hessian is
    written one coordinate pair (i, i') at a time, B^T diag(D^2_ii') B / (N m)
    into its block, with no table over the nodes' mode pairs.

    The returned `hessians(Theta, F, G)` takes rows of coefficients with
    their `fg` values and gradients and yields one (n, n) Hessian per row,
    each computed from that row alone (bit for bit only where the body's
    support rows do not depend on their batch-mates, see `_quotient_fg`).
    """
    half_p = 0.5 * p
    Npts, M, d = disc.N, disc.modes, disc.dim
    n = 2 * M * d
    B = np.hstack([-disc.S, disc.C])    # (N, 2M): u_j = B_j (av, bv), coordinate by coordinate
    # D^2A: d^2/(d av_{k,2l} d bv_{k,2l+1}) = pi/k and d^2/(d av_{k,2l+1} d bv_{k,2l}) = -pi/k
    ax = (d * np.arange(M)[:, None] + np.arange(0, d, 2)).ravel()
    rows = np.concatenate([ax, ax + 1])
    cols = np.concatenate([M * d + ax + 1, M * d + ax])
    w = np.pi / np.repeat(disc.k, d // 2)
    d2A = np.concatenate([w, -w])

    def hessians(Theta: np.ndarray, F: np.ndarray, G: np.ndarray):
        R = Theta.shape[0]
        b, U, Ja, A = disc.quotient_terms(Theta)
        D2 = support_hessians(K, U.reshape(-1, d), p).reshape(R, Npts, d, d)
        gradA = np.concatenate([(-np.pi * apply_J(b)).reshape(R, -1),
                                (np.pi * Ja).reshape(R, -1)], axis=1)
        for r in range(R):
            mean_hp = math.exp(F[r] + half_p * math.log(A[r]))
            W = D2[r] / (Npts * mean_hp)
            H = np.empty((n, n))
            blocks = H.reshape(2, M, d, 2, M, d)
            for i in range(d):
                for i2 in range(i, d):
                    blk = (B.T @ (W[:, i, i2, None] * B)).reshape(2, M, 2, M)
                    blocks[:, :, i, :, :, i2] = blk
                    blocks[:, :, i2, :, :, i] = blk
            g1 = G[r] + (half_p / A[r]) * gradA[r]
            H -= np.outer(g1, g1)
            H += np.outer((half_p / A[r] ** 2) * gradA[r], gradA[r])
            H[rows, cols] -= (half_p / A[r]) * d2A
            H[cols, rows] -= (half_p / A[r]) * d2A
            yield H

    return hessians


def _newton_direction(H: np.ndarray, g: np.ndarray, x: np.ndarray,
                      ray_shift: bool) -> np.ndarray:
    """-H^{-1} g at the point x, with H shifted by mu = 1e-6 max|diag H|.

    The quotient is constant along rays, so H x = -g and H is singular along
    x at a minimizer.  With `ray_shift` the step first factors
    H + mu r r^T, r = x/|x|: shifting that one direction leaves the step
    exact on the others, so the steps converge quadratically however close
    the smallest curvature off the ray comes to mu.  Otherwise, or when H
    is not positive definite off the ray, it factors H + mu I.  If that
    fails too, H is indefinite, near a saddle or far from the minimizer, and
    the step uses the pseudo-inverse of |H + mu r r^T|: eigenvalues replaced
    by their moduli and those below 1e-6 of the largest dropped, so that it
    moves down along directions of negative curvature instead of toward the
    saddle.
    """
    n = H.shape[0]
    mu = 1e-6 * np.abs(np.diag(H)).max()
    ray = x / np.linalg.norm(x)
    for on_ray in (True, False)[not ray_shift:]:
        if on_ray:
            shifted = np.outer(mu * ray, ray)
            shifted += H
        else:
            shifted = H.copy()
            shifted.flat[::n + 1] += mu
        try:
            factor = cho_factor(shifted, overwrite_a=True, check_finite=False)
            return -cho_solve(factor, g, check_finite=False)
        except np.linalg.LinAlgError:
            pass
    lam, V = np.linalg.eigh(H + np.outer(mu * ray, ray))
    mag = np.abs(lam)
    keep = mag >= 1e-6 * mag.max()
    return -(V[:, keep] @ ((V[:, keep].T @ g) / mag[keep]))


def _newton_phase(run: MinimizeResult, grad_tol: float, ray_shift: bool):
    """Newton steps from the end of an L-BFGS run, as a generator for `lockstep`.

    Each step asks for the Hessian at the current point and evaluates the
    trials x + t d, t in NEWTON_TRIALS, in three blocks: the full step; if
    it rejects that, t = 1/2 to 1/16; if it rejects those, t = 1/32 to
    1/4096.  It takes the first trial, in the order of NEWTON_TRIALS, that
    lowers f by more than 4 eps max(1, |f|), or that keeps f within that
    band and lowers |g|_inf; it ends with status "newton" once
    |g|_inf <= grad_tol.  It stops short when no trial is taken or after
    NEWTON_STEPS steps.  It starts from the run's last (f, g), updates the
    run in place (point, value, gradient, gradient norm, status) and
    returns the number of steps taken.  `ray_shift` is passed on to
    `_newton_direction`.
    """
    x, f, g = run.x, run.f, run.grad
    run.converged = False
    steps = 0
    for _ in range(NEWTON_STEPS):
        H = yield x, f, g
        d = _newton_direction(H, g, x, ray_shift)
        band = 4.0 * EPS * max(1.0, abs(f))
        gnorm = np.abs(g).max()
        for trials in (NEWTON_TRIALS[:1], NEWTON_TRIALS[1:5], NEWTON_TRIALS[5:]):
            Xt = x + np.array(trials)[:, None] * d
            Ft, Gt = yield Xt
            taken = next((j for j in range(len(trials)) if Ft[j] < f - band
                          or (Ft[j] <= f + band and np.abs(Gt[j]).max() < gnorm)), None)
            if taken is not None:
                break
        else:
            break
        x, f, g = Xt[taken], float(Ft[taken]), Gt[taken]
        steps += 1
        if np.abs(g).max() <= grad_tol:
            run.status, run.converged = "newton", True
            break
    run.x, run.f, run.grad, run.grad_norm = x, f, g, float(np.abs(g).max())
    return steps


def _starts(K: ConvexBody, cfg: SolveConfig) -> list[FourierLoop]:
    """Planar circles in each symplectic plane, then randomized perturbations.

    Start j is the circle of action 1 in plane j for j < n = dim/2; past
    that, its generator SeedSequence((seed, j)) draws the plane and a
    perturbation of the circle there, normalized to action 1.
    """
    d = K.dim
    n = d // 2
    M = cfg.modes
    out: list[FourierLoop] = []
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    for j in range(cfg.starts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, j)))
        plane = j if j < n else int(rng.integers(n))
        a = np.zeros((M, d))
        b = np.zeros((M, d))
        a[0, 2 * plane] = b[0, 2 * plane + 1] = inv_sqrt_pi
        start = FourierLoop(a, b)
        if j >= n:
            pert = random_loop(M, d, rng, decay=2.0, scale=0.25 * inv_sqrt_pi)
            cand = FourierLoop(a + pert.a, b + pert.b)
            start = normalize_action(cand if action(cand) != 0 else start)
        out.append(start)
    return out


def _leaf_types(K: ConvexBody) -> set[type]:
    """The types of the leaves of K's support: the nodes that do not compose
    their children's support functions, so a Smoothed and an Intersection
    are leaves, and affine wrappers are read through (`affine_part`).
    Minkowski terms of weight 0 do not enter it and are skipped."""
    K = affine_part(K)[2]
    if isinstance(K, MinkowskiSum):
        return set().union(*(_leaf_types(t) for w, t in zip(K.weights, K.terms) if w > 0))
    if isinstance(K, PSum):
        return set().union(*map(_leaf_types, K.terms))
    return {type(K)}


def _folded(K: ConvexBody) -> ConvexBody:
    """A raw polytope P under affine wrappers, K = A P + c (`affine_part`),
    as one Polytope with the mapped vertices; any other body as it is."""
    if isinstance(K, Polytope):
        return K
    A, c, core = affine_part(K)
    return Polytope(core.vertices @ A.T + c) if isinstance(core, Polytope) else K


def _default_grid(K: ConvexBody, cfg: SolveConfig) -> int:
    """Smoothed polytopes, and their linear images, translates and scalings,
    get a denser quadrature: their integrands carry features on the
    1/sharpness scale that 4M nodes underresolve."""
    return 8 * cfg.modes if isinstance(affine_part(K)[2], Smoothed) else 4 * cfg.modes


def _descend(theta0: np.ndarray, cfg: SolveConfig, slow_exit: bool, ray_shift: bool):
    """One start of `minimize` as a generator for `lockstep`; returns its
    run, its Newton steps and how it entered the Newton phase.

    L-BFGS runs until |g|_inf <= max(NEWTON_ENTRY, grad_tol).  With
    `slow_exit` (bodies built on smoothed polytopes) it also stops once its
    progress slows down below |g|_inf = 1e-3 (the "slow" exit of
    `lbfgs_run`): there L-BFGS needs about 17 evaluations per decade of
    |g|_inf below 1e-3.  Smooth bodies need about 2, and the few of their
    starts that slow down do so near saddles, where Newton steps from 1e-3
    stall.  A start that stops there above grad_tol takes Newton steps
    (`_newton_phase`) and records ("gradient" or "slow", |g|_inf) as its
    entry.  If those stop short, it resumes L-BFGS from its current point
    for the rest of max_iter, with the usual exits, and keeps the resumed
    result only if it reaches grad_tol or lowers f by more than
    4 eps max(1, |f|); otherwise it keeps the Newton point, with the
    resumed run's status and iterations added.  `ray_shift` is passed on to
    `_newton_direction`.
    """
    run = yield from lbfgs_run(theta0, max(NEWTON_ENTRY, cfg.grad_tol), cfg.max_iter,
                               slow_exit)
    if run.status != "slow" and (run.status != "gradient" or run.grad_norm <= cfg.grad_tol):
        return run, 0, None
    entry = (run.status, run.grad_norm)
    steps = yield from _newton_phase(run, cfg.grad_tol, ray_shift)
    if run.converged:
        return run, steps, entry
    budget = cfg.max_iter - run.iterations - steps
    if budget <= 0:
        run.status = "max_iter"
        return run, steps, entry
    res = yield from lbfgs_run(run.x, cfg.grad_tol, budget)
    res.iterations += run.iterations
    if res.converged or res.f < run.f - 4.0 * EPS * max(1.0, abs(run.f)):
        return res, steps, entry
    run.status, run.iterations = res.status, res.iterations
    return run, steps, entry


def minimize(K: ConvexBody, cfg: SolveConfig,
             initial: FourierLoop | None = None
             ) -> tuple[float, FourierLoop, list[StartDiagnostics]]:
    """Minimize the dual-action quotient; returns (lambda, minimizer, diagnostics).

    lambda is 2 pi times the minimal quotient; the minimizer is returned with
    action exactly 1 (up to roundoff).  Each start runs L-BFGS until its
    gradient sup-norm is at most NEWTON_ENTRY, or on a body built on a
    smoothed polytope until its progress slows down, then up to
    NEWTON_STEPS Newton steps on the Hessian of `_quotient_hessian`; a start
    that reaches grad_tol there ends with status "newton", and one that
    stops short resumes L-BFGS (see `_descend`).  All starts run in one
    `lockstep` call, so each round evaluates the objective once over every
    start's next rows and the Hessians once over every start that needs
    one.  Each start's result is bit for bit what it is when it runs alone
    wherever the objective's rows do not depend on their batch-mates, as
    tested on bodies in R^4.  On a smoothed polygon they do
    (`_quotient_fg`), and a start's values can differ in the last bits.
    The winning start is the lowest quotient of all starts, whatever their
    exits, with quotients within 1e-9 relative tied and the earliest start
    winning a tie; the finishing step reports the result unconverged when
    the winner is not stationary.  An `initial` loop (e.g. a warm start
    from a nearby body) is prepended to the standard starts.
    """
    leaves = _leaf_types(K)
    if isinstance(K, Polytope):
        raise SolverError("raw polytopes are not smooth; wrap in Smoothed or use capacity()")
    if Polytope in leaves:
        raise SolverError("body support is not differentiable; capacity needs a smooth body")
    disc = _Discretization(cfg.modes, K.dim, _default_grid(K, cfg))
    kcol = np.arange(1, cfg.modes + 1, dtype=float)[:, None]
    starts = _starts(K, cfg)
    if initial is not None:
        starts = [normalize_action(initial.with_modes(cfg.modes))] + starts
    theta0 = np.stack([disc.pack(kcol * start.a, kcol * start.b) for start in starts])
    # Loops on a body whose support the quadrature resolves can be shifted in
    # time at no cost to the quotient, so its Hessian is singular off the ray
    # as well: only the Newton steps on a Smoothed body, or on its linear
    # images, translates and scalings, shift the ray alone.  On every body,
    # the ray-only Cholesky failed on 255 of the 336 Newton directions of the
    # `smooth` workload (591 factorizations instead of 336, same steps and
    # results) and its median `wall_s` rose from 0.82 to 0.95 s.  Slow L-BFGS
    # runs go to Newton early on any body with a Smoothed leaf (`_descend`).
    # Both keys pay for themselves in cost only: with the slow exit and the
    # ray shift on every body, capacities moved by at most 3.6e-14, but the
    # seed-0 `intersection` workload took 268 Newton steps instead of 139,
    # and the median `wall_s` of `perfbench/run.py` rose from 2.26 to 2.62 s
    # on `intersection` and from 0.66 to 0.77 s on `smooth` (6 alternating
    # pairs of 20 s runs, 2 CPUs, one BLAS thread).
    slow_exit, ray_shift = Smoothed in leaves, isinstance(affine_part(K)[2], Smoothed)
    outcomes, rows = lockstep(_quotient_fg(K, disc, cfg.p),
                              [_descend(theta, cfg, slow_exit, ray_shift) for theta in theta0],
                              _quotient_hessian(K, disc, cfg.p))
    diagnostics = [StartDiagnostics(i, TWO_PI * math.exp(res.f), res.grad_norm, res.iterations,
                                    res.converged, res.status, n_rows, steps,
                                    *(entry or (None, None)))
                   for i, ((res, steps, entry), n_rows) in enumerate(zip(outcomes, rows))]
    # every start's quotient bounds the discrete minimum from above, so the
    # lowest wins whatever its exit; `_finish` grades its convergence.
    # Quotients within a relative 1e-9 band count as ties, which the earliest
    # start wins (degenerate minimizers, e.g. every plane of a ball, would
    # otherwise be picked by roundoff noise)
    winner = 0
    for i in range(1, len(diagnostics)):
        if diagnostics[i].lam < diagnostics[winner].lam * (1.0 - 1e-9):
            winner = i
    diagnostics[winner].winner = True
    av, bv = disc.unpack(outcomes[winner][0].x)
    return diagnostics[winner].lam, normalize_action(FourierLoop(av / kcol, bv / kcol)), diagnostics


# exponents p' of the capacity cross-check c = pi^2 [mean h_K^{p'}(z')]^{2/p'}
P_CROSS = (1.0, 1.5, 3.0)


def _evaluate(K: ConvexBody, z: FourierLoop, lam: float, p: float,
              N: int) -> tuple[np.ndarray, float, np.ndarray]:
    """alpha, the Euler residual and the support values h_K(z'(t_j)), all
    from one support evaluation of z on N nodes."""
    g = sample(z, N)
    h, gh = K.support_batch(g.dz)
    W = (p * h ** (p - 1.0))[:, None] * gh
    alpha = W.mean(axis=0)
    drive = 0.5 * p * lam * apply_J(g.z)
    R = W - drive - alpha
    scale = float(np.max(np.linalg.norm(drive, axis=1)))
    return alpha, float(np.max(np.linalg.norm(R, axis=1)) / max(scale, 1e-300)), h


def euler_residual(K: ConvexBody, z: FourierLoop, lam: float, p: float,
                   N: int | None = None) -> tuple[np.ndarray, float]:
    """Euler-equation residual of grad h_K^p(z') = (p/2) lam J z + alpha.

    alpha is the time average of grad h_K^p(z'), the unique constant making
    the residual mean-free.  The residual is reported relative to the scale
    max_t |(p/2) lam J z(t)|.  Both come from the same single support
    evaluation at the velocity samples that `certify` and the finishing step
    of `capacity` read, so on a result's grid they equal its `alpha` and its
    certificate bit for bit.
    """
    alpha, residual, _ = _evaluate(K, z, lam, p, N or 4 * z.modes)
    return alpha, residual


def to_carrier(z: FourierLoop, lam: float, alpha: np.ndarray, p: float) -> CarrierLoop:
    """Map a certified critical loop of K to the closed characteristic on its boundary.

    l = (2pi/lam)^{1/q} ((lam/2) J z + alpha/p); its action equals the
    capacity and gauge_K(l(t)) = 1 for all t.  The map is algebra on z, lam
    and alpha and needs no body: `boundary_residual(K, carrier)` measures
    how far the carrier is from the boundary of K, and every certificate
    reports it.
    """
    q = p / (p - 1.0)
    kappa = (TWO_PI / lam) ** (1.0 / q)
    osc = FourierLoop(kappa * (lam / 2.0) * apply_J(z.a), kappa * (lam / 2.0) * apply_J(z.b))
    return CarrierLoop(kappa * np.asarray(alpha, dtype=float) / p, osc)


def boundary_residual(K: ConvexBody, carrier: CarrierLoop,
                      N: int | None = None) -> tuple[float, float]:
    """max_t |gauge_K(l(t)) - 1| on N samples, and the gauge's own tolerance.

    The carrier's velocity gives each sample's warm start for the gauge:
    J^{-1} l'(t) is a positive multiple of z'(t), the outer normal at l(t).
    """
    g = carrier.sample(N or 4 * carrier.loop.modes)
    vals, _, gtol = K.gauge_batch(g.z, apply_J_inverse(g.dz))
    return float(np.max(np.abs(vals - 1.0))), float(gtol)


def from_carrier(K: ConvexBody, carrier: CarrierLoop, p: float,
                 fit_tol: float = 1e-6, N: int | None = None) -> FourierLoop:
    """Invert the carrier map: recover the zero-mean action-1 critical loop.

    Expects the carrier to run with the characteristic clock, i.e.
    l' = d * J grad(gauge_K^q)(l) for a constant d, which is recovered by
    least squares.  A carrier with the right image but a drifting clock is
    reparametrized once before giving up.
    """
    q = p / (p - 1.0)
    N = N or max(4 * carrier.loop.modes, 32)

    def char_field(samples):
        # J^{-1} l' is the outer normal along a characteristic: the gauge's warm start
        vals, grads, _ = K.gauge_batch(samples.z, apply_J_inverse(samples.dz))
        return apply_J((q * vals ** (q - 1.0))[:, None] * grads)

    def fit(cand: CarrierLoop):
        g = cand.sample(N)
        Jw = char_field(g)
        d = float(np.sum(g.dz * Jw) / np.sum(Jw * Jw))
        res = float(np.linalg.norm(g.dz - d * Jw) / max(np.linalg.norm(g.dz), 1e-300))
        return d, res, g, Jw

    def repair(cand: CarrierLoop):
        # iterated clock repair: each pass removes the leading-order drift,
        # so the residual contracts until the sampling floor
        d, res, g, Jw = fit(cand)
        for _ in range(6):
            if res <= fit_tol:
                break
            try:
                fixed = _reparametrize(cand, g, Jw, N)
            except CharacteristicFitError:
                break
            d2, res2, g2, Jw2 = fit(fixed)
            if res2 >= 0.9 * res:
                break
            cand, (d, res, g, Jw) = fixed, (d2, res2, g2, Jw2)
        return cand, d, res

    original = carrier
    carrier, d, res = repair(carrier)
    if res > fit_tol and np.any(original.offset):
        # a spuriously shifted loop: the map subtracts the mean anyway, so
        # retry from the centered original before giving up
        centered, d2, res2 = repair(CarrierLoop(np.zeros(original.dim), original.loop))
        if res2 < res:
            carrier, d, res = centered, d2, res2
    if res > fit_tol:
        raise CharacteristicFitError(
            f"loop is not a closed characteristic (fit residual {res:.3g})")
    if d <= 0:
        raise CharacteristicFitError("characteristic runs backwards (negative speed fit)")
    scale = (np.pi * d * q) ** (-0.5)
    return FourierLoop(scale * apply_J_inverse(carrier.loop.a),
                       scale * apply_J_inverse(carrier.loop.b))


def _reparametrize(carrier: CarrierLoop, g, Jw: np.ndarray, N: int) -> CarrierLoop:
    """Resample the loop so its velocity tracks the characteristic field."""
    speed = np.sum(g.dz * Jw, axis=1) / np.sum(Jw * Jw, axis=1)
    if np.any(speed <= 0):
        raise CharacteristicFitError("velocity leaves the characteristic cone")
    return resample_by_clock(carrier, speed)


def certify(K: ConvexBody, result: "CapacityResult") -> CertificateBundle:
    """Recompute the optimality certificates for a capacity result.

    Beyond the four residuals, cross-checks that the same minimizer yields
    the same capacity when the support integrand is raised to other powers
    p' in P_CROSS (the minimum is attained on the same loops for every
    exponent): c = pi^2 * [(1/2pi) int h_K^{p'}(z') dt]^{2/p'}.

    The support values h_K(z'(t)) of an exact minimizer are the constant
    sqrt(c)/pi (consistent with p_cross at p' = 1: c^{1/2} = pi * mean h);
    `paper_constant_matched` records whether the alternative normalization
    c/pi fits the data better (it should not).

    Everything but the boundary residual comes from one support evaluation
    at the minimizer's velocity samples on the result's grid, the same one
    `euler_residual` and the finishing step of `capacity` make, so a
    recomputation reproduces `result.certificates` bit for bit.
    """
    _, residual, h = _evaluate(K, result.minimizer, result.lam, result.p, result.grid)
    return _certificates(K, h, residual, result.carrier, result.capacity, result.grid)


def _certificates(K: ConvexBody, h: np.ndarray, residual: float, carrier: CarrierLoop,
                  cap: float, N: int) -> CertificateBundle:
    mean_h = float(np.mean(h))
    bres, gtol = boundary_residual(K, carrier, N)
    expected = math.sqrt(cap) / math.pi
    return CertificateBundle(
        euler_residual_rel=residual,
        support_const_cv=float(np.std(h) / max(mean_h, 1e-300)),
        boundary_residual=bres,
        action_mismatch_rel=float(abs(carrier.action() - cap) / cap),
        support_const_mean=mean_h,
        support_const_expected=expected,
        paper_constant_matched=bool(abs(mean_h - cap / math.pi) < abs(mean_h - expected)),
        gauge_tol=gtol,
        p_cross={pv: math.pi**2 * float(np.mean(h**pv)) ** (2.0 / pv) for pv in P_CROSS},
    )


def _origin_interior_check(K: ConvexBody, seed: int) -> None:
    U = np.vstack([np.eye(K.dim), -np.eye(K.dim), direction_design(K.dim, 32, seed)])
    h, _ = K.support_batch(U)
    if np.any(h <= 0):
        raise SolverError("origin is not interior to the body; translate it first")


def _finish(K: ConvexBody, cfg: SolveConfig, lam: float, zstar: FourierLoop,
            diagnostics: list[StartDiagnostics], smoothing: float | None) -> CapacityResult:
    """Capacity, alpha, carrier and certificates of one `minimize` result.

    h_K and grad h_K are evaluated once at the winner's velocity samples;
    alpha, the Euler residual, the support constancy and p_cross all come
    from that evaluation.
    """
    cap = capacity_from_lambda(lam, cfg.p)
    grid = _default_grid(K, cfg)
    alpha, residual, h = _evaluate(K, zstar, lam, cfg.p, grid)
    carrier = to_carrier(zstar, lam, alpha, cfg.p)
    certificates = _certificates(K, h, residual, carrier, cap, grid)
    winner = next(s for s in diagnostics if s.winner)
    # The band: a winner within max(1e2 grad_tol, 1e-8) of stationary counts.
    # It decides the flag of Translate([0.1, 0.2, 0, -0.1], Ball(1, 4)) at
    # modes 8, starts 4: the winner stops in its line search at |g|_inf
    # 2.4e-9, with certificates at 1.7e-5 and a capacity 1.1e-9 from pi.
    solver_ok = winner.converged or winner.grad_norm <= max(1e2 * cfg.grad_tol, 1e-8)
    return CapacityResult(
        capacity=cap, lam=lam, p=cfg.p, modes=cfg.modes, grid=grid,
        seed=cfg.seed, minimizer=zstar, alpha=alpha, carrier=carrier,
        certificates=certificates, per_start=diagnostics,
        converged=solver_ok and certificates.worst() < 1e-2, smoothing=smoothing,
    )


def _mode_chain(K: ConvexBody, cfg: SolveConfig, initial: FourierLoop | None,
                levels: int) -> list[tuple[float, FourierLoop, list[StartDiagnostics]]]:
    """`minimize` results at M = cfg.modes, 2M, 4M, ... (`levels` of them).

    Each level is warm-started from the previous level's minimizer, the
    first from `initial`.  Every mode refinement of a capacity comes from
    this one chain: the (M, 2M) Richardson value, and the drift of
    `stability_check`, which compares each value with its chain's next level.
    """
    chain = []
    for level in range(levels):
        chain.append(minimize(K, cfg.replace(modes=cfg.modes << level), initial=initial))
        initial = chain[-1][1]
    return chain


def _richardson(coarse: float, fine: float) -> float:
    """(4 fine - coarse)/3: removes the leading error of a second-order
    method from values at h and h/2 (M and 2M modes)."""
    return (4.0 * fine - coarse) / 3.0


def _carrier_word(normals: np.ndarray, carrier: CarrierLoop) -> tuple[np.ndarray, np.ndarray]:
    """The facet word of a carrier on a smoothed polytope, and its initial weights.

    Along a closed characteristic J^{-1} l' is an outer normal, so each of
    WORD_SAMPLES carrier samples is read as the facet maximizing
    <J^{-1} l', n_i>.  The word is the runs of those facets around the loop,
    with the first and last runs one run when they name the same facet; a
    run's weight is the length of its chord |delta l| (the normals are unit
    vectors, so that is |delta l| / |n_i|).
    """
    g = carrier.sample(WORD_SAMPLES)
    facet = np.argmax(apply_J_inverse(g.dz) @ normals.T, axis=1)
    change = facet != np.roll(facet, 1)
    change[0] |= not change.any()    # a loop on one facet is one run
    starts = np.flatnonzero(change)
    return facet[starts], np.linalg.norm(g.z[np.roll(starts, -1)] - g.z[starts], axis=1)


def _maximize_word_form(normals: np.ndarray, h: np.ndarray, word: np.ndarray,
                        beta0: np.ndarray) -> tuple[float, np.ndarray, dict]:
    """Maximize Haim-Kislev's form of one facet word by SLSQP.

    Q(beta) = sum_{j<k} beta_j beta_k omega(n_j, n_k) over the positions of
    the word, subject to beta >= 0, sum beta_k h_k = 1 and sum beta_k n_k = 0.
    Any feasible beta is the closed polygon with edges 2c beta_k J n_k and
    action c = 1/(2Q), a loop of the dual action principle, so 1/(2Q) bounds
    the capacity from above; it is the capacity when the word is that of a
    minimal closed characteristic (Haim-Kislev 2019).  Returns Q (nan when
    SLSQP reports a failure), beta and the residuals of closure
    |sum beta n|_inf, normalization |sum beta h - 1| and min beta.
    """
    from scipy.optimize import minimize as scipy_minimize
    Nw, hw = normals[word], h[word]
    upper = np.triu(apply_J(Nw) @ Nw.T, 1)
    sym = upper + upper.T
    C = np.vstack([Nw.T, hw])
    e = np.zeros(len(C))
    e[-1] = 1.0
    # SLSQP refuses dependent equality rows (a word whose normals span fewer
    # than d dimensions, e.g. any word of d or fewer positions): keep the
    # rows' range only, U_r^T C beta = U_r^T e from the SVD of C
    U, sigma, _ = np.linalg.svd(C, full_matrices=False)
    rank = int(np.sum(sigma > 1e-12 * sigma[0]))
    if rank < len(C):
        C, e = U[:, :rank].T @ C, U[:, :rank].T @ e
    res = scipy_minimize(lambda b: (-(b @ upper @ b), -(sym @ b)), beta0 / (hw @ beta0),
                         jac=True, method="SLSQP", bounds=[(0.0, None)] * len(word),
                         constraints={"type": "eq", "fun": lambda b: C @ b - e,
                                      "jac": lambda b: C},
                         options={"ftol": 1e-15, "maxiter": 500})
    beta = res.x
    residuals = {"closure": float(np.abs(Nw.T @ beta).max()),
                 "normalization": float(abs(hw @ beta - 1.0)),
                 "min_beta": float(beta.min())}
    Q = float(beta @ upper @ beta) if res.success else math.nan
    return Q, beta, residuals


def _polish(K: Smoothed, carrier: CarrierLoop, smoothed: float) -> tuple[float, dict]:
    """The capacity of the polytope K.body from the facet word of the carrier
    of a solve on K, whose capacity is `smoothed`.

    Only the carrier's word (`_carrier_word`) is polished, by
    `_maximize_word_form`.  Its reverse has the same feasible set and the
    opposite form, Q(reversed word, reversed beta) = -Q(word, beta), so it
    could only win on a carrier that runs backwards.  The polish is accepted
    when SLSQP succeeds, every residual is within POLISH_TOL (min beta at
    least -POLISH_TOL) and 1/(2Q) does not exceed the smoothed capacity,
    which a wrong word could.  Returns the capacity to report, polished or
    else the smoothed one, and the record that `CapacityResult.polish` holds.
    """
    normals, h = K.body.facets
    word, beta0 = _carrier_word(normals, carrier)
    Q, beta, residuals = _maximize_word_form(normals, h, word, beta0)
    accepted = (Q > 0 and 1.0 / (2.0 * Q) <= smoothed
                and max(residuals["closure"], residuals["normalization"],
                        -residuals["min_beta"]) <= POLISH_TOL)
    polished = 1.0 / (2.0 * Q) if accepted else smoothed
    record = {"accepted": accepted, "smoothed_capacity": smoothed, "sharpness": K.sharpness,
              "word": word.tolist(), "beta": beta.tolist(), **residuals}
    return polished, record


def capacity(K: ConvexBody, cfg: SolveConfig | None = None,
             initial: FourierLoop | None = None) -> CapacityResult:
    """Capacity, minimizer, carrier and certificates for a convex body.

    Raw polytopes, also under linear images, translations and scalings
    (folded into one polytope by `_folded`), are solved on a Smoothed
    wrapper (sharpness from the config).  With `sharpness_extrapolate` the
    reported capacity is the polytope's own: the facet word of the smoothed
    solve's carrier is polished by Haim-Kislev's formula (`_polish`), and
    the minimizer, carrier, alpha and certificates stay those of the
    smoothed solve, whose capacity `polish["smoothed_capacity"]` records; a
    rejected polish reports the smoothed capacity, unconverged.  With
    `stability_check` the mode chain goes one level further (2M),
    warm-started from the reported solve, and the relative drift of the
    capacity against that level (polished there too) is recorded.  An
    `initial` loop warm-starts the minimization.
    """
    cfg = cfg or SolveConfig()
    _origin_interior_check(K, cfg.seed)
    K = _folded(K)
    smoothing = cfg.polytope_sharpness if isinstance(K, Polytope) else None
    if smoothing is not None:
        K = Smoothed(K, smoothing)
    polish = smoothing is not None and cfg.sharpness_extrapolate
    chain = _mode_chain(K, cfg, initial, 2 if cfg.stability_check else 1)
    result = _finish(K, cfg, *chain[0], smoothing)
    if polish:
        result.capacity, result.polish = _polish(K, result.carrier, result.capacity)
        if result.polish["accepted"]:
            result.lam = lambda_from_capacity(result.capacity, cfg.p)
        else:
            result.converged = False
    if cfg.stability_check:
        lam2, z2, _ = chain[1]
        cap2 = capacity_from_lambda(lam2, cfg.p)
        if polish:
            alpha2, _, _ = _evaluate(K, z2, lam2, cfg.p,
                                     _default_grid(K, cfg.replace(modes=z2.modes)))
            cap2, _ = _polish(K, to_carrier(z2, lam2, alpha2, cfg.p), cap2)
        result.stability_drift = float(abs(cap2 - result.capacity) / result.capacity)
    return result
