"""Numerical checks of the capacity inequalities and their corollaries.

Every check returns an `InequalityReport` with the convention that the
signed deficit is (favored side) - (other side), so `passed` is exactly
`deficit >= -slack`.  Slacks default to 1e-3 relative for solver-vs-solver
comparisons and 1e-6 for analytic-vs-analytic ones; computed capacities are
restricted minima over the Fourier subspace and hence upper bounds, which
the slack absorbs.

The central inequality is superadditivity of c^{p/2} under p-sums,

    c(K +_p T)^{p/2} >= c(K)^{p/2} + c(T)^{p/2},

with equality exactly when K and T have homothetic minimal-action
characteristics; the isoperimetric, directional-derivative, mean-width and
intersection checks are its corollaries.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bodies import (Ball, BodyError, ConvexBody, MinkowskiSum, Polytope, PSum, affine_part,
                     direction_design, quadric)
from .loops import length_in_gauge, resample_by_clock
from .solver import SolveConfig, capacity
from .symplectic import apply_J


class HarnessError(RuntimeError):
    pass


class AsymmetricBodyError(HarnessError):
    """Mean-width requires a centrally symmetric body."""


@dataclass
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    deficit: float
    slack: float
    passed: bool
    witnesses: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def all_ok(self) -> bool:
        """The deficit test together with any auxiliary witness conditions
        (chain bounds, monotonicity); `passed` itself stays a pure function
        of (deficit, slack)."""
        aux = ("chain_ok", "monotone", "sqrt_upper_ok")
        return self.passed and all(bool(self.witnesses[k]) for k in aux
                                   if k in self.witnesses)

    def to_dict(self) -> dict:
        return {
            "name": self.name, "lhs": self.lhs, "rhs": self.rhs,
            "deficit": self.deficit, "slack": self.slack, "passed": self.passed,
            "all_ok": self.all_ok(), "witnesses": self.witnesses, "meta": self.meta,
        }

    def csv_row(self) -> list:
        return [self.name, self.lhs, self.rhs, self.deficit, self.passed]


def _report(name, lhs, rhs, deficit, slack, witnesses, meta) -> InequalityReport:
    return InequalityReport(name=name, lhs=float(lhs), rhs=float(rhs),
                            deficit=float(deficit), slack=float(slack),
                            passed=bool(deficit >= -slack),
                            witnesses=witnesses, meta=meta)


def p_combination(K: ConvexBody, T: ConvexBody, p: float) -> ConvexBody:
    """K +_p T; the Minkowski sum for p = 1, the Firey p-sum otherwise."""
    if p < 1:
        raise HarnessError(f"p-sum exponent must be >= 1, got {p}")
    if p == 1.0:
        return MinkowskiSum([K, T])
    return PSum(p, [K, T])


def _meta(cfg: SolveConfig, **extra) -> dict:
    return {"p": cfg.p, "modes": cfg.modes, "starts": cfg.starts,
            "seed": cfg.seed, **extra}


# ---------------------------------------------------------------------------
# Brunn-Minkowski style checks
# ---------------------------------------------------------------------------


def _bm_sides(c_K: float, c_T: float, c_combined: float, p: float) -> tuple[float, float]:
    """The sides c(K +_p T)^{p/2} and c(K)^{p/2} + c(T)^{p/2}."""
    half_p = 0.5 * p
    return c_combined**half_p, c_K**half_p + c_T**half_p


def bm_check(K: ConvexBody, T: ConvexBody, p: float, cfg: SolveConfig | None = None,
             slack_rel: float = 1e-3) -> InequalityReport:
    """Superadditivity of c^{p/2} under the p-sum of K and T."""
    cfg = cfg or SolveConfig()
    r_K = capacity(K, cfg)
    r_T = capacity(T, cfg)
    r_KT = capacity(p_combination(K, T, p), cfg)
    lhs, rhs = _bm_sides(r_K.capacity, r_T.capacity, r_KT.capacity, p)
    slack = slack_rel * abs(rhs)
    witnesses = {
        "c_K": r_K.capacity, "c_T": r_T.capacity, "c_combined": r_KT.capacity,
        "converged": r_K.converged and r_T.converged and r_KT.converged,
        "worst_certificate": max(r.certificates.worst() for r in (r_K, r_T, r_KT)),
    }
    return _report("bm", lhs, rhs, lhs - rhs, slack, witnesses, _meta(cfg, sum_p=p))


def _area_clock(carrier):
    """Reparametrize a closed curve so the symplectic area sweep about its
    center is uniform in time, with the center fixed so that it equals the
    time-mean of the reclocked curve.

    This normalization is covariant under homothety (l -> alpha l + beta
    maps fixed points to fixed points), unlike the characteristic clock,
    whose speed profile depends on the gauge and is not
    translation-covariant.  Homothetic carriers become pointwise comparable
    after it.  The center is fixed on 256 samples in at most 40 rounds.
    """
    g = carrier.sample(256)
    center = g.z.mean(axis=0)
    clocked = carrier
    for _ in range(40):
        speed = np.sum(apply_J(g.z - center) * g.dz, axis=1)
        clocked = resample_by_clock(carrier, speed)
        new_center = clocked.sample(256).z.mean(axis=0)
        if np.linalg.norm(new_center - center) <= 1e-13 * (1 + np.linalg.norm(center)):
            break
        center = new_center
    return clocked


def _phase_aligned_residual(l_K, l_T, alpha: float) -> tuple[float, float]:
    """min over phase of ||l_T - alpha l_K(.+phi) - beta|| / ||l_T centered||.

    Carriers are defined up to a time shift; beta is fixed by the offsets.
    The norms are taken over N = 256 uniform samples.  Returns (relative
    residual, best phase).
    """
    from scipy.optimize import minimize_scalar
    N = 256
    t = 2 * np.pi * np.arange(N) / N
    target = l_T.loop.evaluate(t)
    scale = max(float(np.linalg.norm(target) / math.sqrt(N)), 1e-300)

    def resid(phi):
        probe = alpha * l_K.loop.evaluate(t + phi)
        return float(np.linalg.norm(probe - target) / math.sqrt(N)) / scale

    # a scan over 720 phases in one evaluation, then a refinement of the
    # offset from the best one, not of the phase: the bounded method's
    # tolerance includes sqrt(eps) |x|, 1e-7 for a phase near 2 pi
    phis, step = 2 * np.pi * np.arange(720) / 720, 2 * np.pi / 720
    scan = np.linalg.norm(alpha * l_K.loop.evaluate(np.add.outer(phis, t)) - target,
                          axis=(1, 2))
    phi = phis[np.argmin(scan)]
    best = minimize_scalar(lambda d: resid(phi + d), bounds=(-step, step), method="bounded",
                           options={"xatol": 1e-12})
    return float(best.fun), float(phi + best.x)


def equality_certificate(K: ConvexBody, T: ConvexBody, p: float,
                         cfg: SolveConfig | None = None,
                         tol: float = 1e-6) -> InequalityReport:
    """Homothety test for the equality case of the p-sum inequality.

    Equality holds iff the minimal-action characteristics are homothetic
    with ratio alpha = sqrt(c(T)/c(K)); the report's deficit is minus the
    phase-aligned fit residual.  The T solve is warm-started from the K
    minimizer: in the equality case the two bodies share a minimizing loop,
    and warm-starting selects the corresponding characteristic when the
    minimizer is not unique (e.g. balls carry one circle per complex line).
    The witnesses `bm_deficit` and `bm_rhs` are those of `bm_check`, from
    the K and T solves above and one solve of K +_p T.
    """
    cfg = cfg or SolveConfig()
    r_K = capacity(K, cfg)
    r_T = capacity(T, cfg, initial=r_K.minimizer)
    alpha = math.sqrt(r_T.capacity / r_K.capacity)
    # normalize carriers to the homothety-covariant area clock before the
    # pointwise comparison (characteristic clocks of a translated pair
    # differ by more than a phase)
    l_T = _area_clock(r_T.carrier)

    def aligned(result_K):
        l_K = _area_clock(result_K.carrier)
        res, phi = _phase_aligned_residual(l_K, l_T, alpha)
        return res, phi, l_K

    residual, phi, l_K = aligned(r_K)
    if residual > tol:
        # bodies with non-unique carriers (e.g. balls: one circle per complex
        # line) may return non-corresponding members of the two carrier
        # families; in the equality case the T minimizer also minimizes the
        # K functional, so re-solving K from it selects the matching carrier
        r_K2 = capacity(K, cfg, initial=r_T.minimizer)
        residual2, phi2, l_K2 = aligned(r_K2)
        if residual2 < residual:
            residual, phi, l_K, r_K = residual2, phi2, l_K2, r_K2
    beta = l_T.offset - alpha * l_K.offset
    bm_lhs, bm_rhs = _bm_sides(r_K.capacity, r_T.capacity,
                               capacity(p_combination(K, T, p), cfg).capacity, p)
    witnesses = {
        "alpha": alpha, "beta": beta.tolist(), "phase": phi,
        "homothety_residual": residual,
        "bm_deficit": bm_lhs - bm_rhs, "bm_rhs": bm_rhs,
        "c_K": r_K.capacity, "c_T": r_T.capacity,
    }
    return _report("bm-equality", residual, 0.0, -residual, tol, witnesses,
                   _meta(cfg, sum_p=p))


# ---------------------------------------------------------------------------
# isoperimetric-type inequality
# ---------------------------------------------------------------------------


def _eps_sweep(K: ConvexBody, T: ConvexBody, cfg: SolveConfig,
               eps_schedule) -> tuple[float, float, float, list[float]]:
    """c(K), c(T), the length of K's carrier in the gauge of (JT) polar, and
    c(K + eps T) for each eps of the schedule, solved in that order: what
    the isoperimetric and directional-derivative checks both read."""
    r_K = capacity(K, cfg)
    r_T = capacity(T, cfg)
    length = length_in_gauge(r_K.carrier, T, max(4 * r_K.carrier.loop.modes, 64))
    c_eps = [capacity(MinkowskiSum([K, T], [1.0, eps]), cfg).capacity for eps in eps_schedule]
    return r_K.capacity, r_T.capacity, length, c_eps


def isoperimetric_check(K: ConvexBody, T: ConvexBody, cfg: SolveConfig | None = None,
                        slack_rel: float = 1e-3) -> InequalityReport:
    """4 c(K) c(T) <= length of the K-carrier in the gauge of J T polar, squared.

    Also verifies the finite-epsilon chain
        sqrt(c(T)) <= (sqrt(c(K + eps T)) - sqrt(c(K))) / eps
                   <= length / (2 sqrt(c(K)))
    at eps = 1, 0.5 and 0.1.
    """
    cfg = cfg or SolveConfig()
    eps_schedule = (1.0, 0.5, 0.1)
    c_K, c_T, length, c_eps = _eps_sweep(K, T, cfg, eps_schedule)
    lhs = length**2
    rhs = 4.0 * c_K * c_T
    slack = slack_rel * abs(rhs)

    chain = []
    sqrt_cK = math.sqrt(c_K)
    sqrt_cT = math.sqrt(c_T)
    upper = length / (2.0 * sqrt_cK)
    for eps, c in zip(eps_schedule, c_eps):
        quot = (math.sqrt(c) - sqrt_cK) / eps
        lo_ok = quot >= sqrt_cT - slack_rel * sqrt_cT
        hi_ok = quot <= upper + slack_rel * max(upper, 1.0)
        chain.append({"eps": eps, "quotient": quot, "lower": sqrt_cT,
                      "upper": upper, "ok": lo_ok and hi_ok})
    witnesses = {
        "length_JT_polar": length, "c_K": c_K, "c_T": c_T,
        "chain": chain, "chain_ok": all(row["ok"] for row in chain),
    }
    return _report("isoperimetric", lhs, rhs, lhs - rhs, slack, witnesses, _meta(cfg))


# ---------------------------------------------------------------------------
# directional derivative
# ---------------------------------------------------------------------------


def directional_derivative(K: ConvexBody, T: ConvexBody,
                           cfg: SolveConfig | None = None,
                           eps_schedule: tuple[float, ...] = (0.5, 0.2, 0.1, 0.05),
                           slack_rel: float = 1e-3) -> InequalityReport:
    """Difference quotients of eps -> c(K + eps T) against the lower bound
    2 sqrt(c(K) c(T)).

    The quotient sequence along the decreasing schedule must decrease (the
    sqrt-capacity quotient is non-increasing in eps by concavity, and the
    plain quotient inherits this near the limit); each quotient must clear
    the lower bound, and the sqrt-quotient must stay below
    length_{JT polar}(carrier) / (2 sqrt(c(K))), whose limit bounds the
    one-sided derivative.
    """
    cfg = cfg or SolveConfig()
    if not (all(0 < e < math.inf for e in eps_schedule)
            and all(a > b for a, b in zip(eps_schedule, eps_schedule[1:]))):
        raise HarnessError("eps schedule must be finite, positive and strictly decreasing")
    c_K, c_T, length, c_eps = _eps_sweep(K, T, cfg, eps_schedule)
    sqrt_cK = math.sqrt(c_K)
    bound = 2.0 * math.sqrt(c_K * c_T)
    upper_sqrt = length / (2.0 * sqrt_cK)

    rows = [{"eps": eps, "quotient": (c - c_K) / eps,
             "sqrt_quotient": (math.sqrt(c) - sqrt_cK) / eps, "c_eps": c}
            for eps, c in zip(eps_schedule, c_eps)]
    quots = [row["quotient"] for row in rows]

    scale = max(abs(q) for q in quots)
    mono_tol = slack_rel * scale
    monotone = all(quots[i] >= quots[i + 1] - mono_tol for i in range(len(quots) - 1))
    sqrt_upper_ok = all(r["sqrt_quotient"] <= upper_sqrt + slack_rel * max(upper_sqrt, 1.0)
                        for r in rows)
    deficit = min(q - bound for q in quots)
    slack = slack_rel * max(bound, 1.0)
    witnesses = {
        "lower_bound": bound, "carrier_length_upper": length,
        "upper_sqrt_bound": upper_sqrt, "schedule": rows,
        "monotone": monotone, "sqrt_upper_ok": sqrt_upper_ok,
        "c_K": c_K, "c_T": c_T,
    }
    return _report("directional-derivative", min(quots), bound, deficit, slack,
                   witnesses, _meta(cfg))


# ---------------------------------------------------------------------------
# mean width
# ---------------------------------------------------------------------------


@dataclass
class MeanWidthEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _check_symmetry(K: ConvexBody, seed: int) -> None:
    # the two halves of the design are antipodal
    h, _ = K.support_batch(direction_design(K.dim, 128, seed))
    hp, hm = np.split(h, 2)
    if np.max(np.abs(hp - hm)) > 1e-10 * max(np.max(hp), 1.0):
        raise AsymmetricBodyError("body is not centrally symmetric")


# `mean_width` draws and evaluates its directions in blocks of at most
# _MEAN_WIDTH_BLOCK rows, so that a block's arrays (the directions, and the
# support values, points and work arrays of every body in K's tree) stay in
# a 2 MB L2 cache, and a call's working set stays the same whatever the
# sample count.  At 60,000 samples, random_symmetric_body(4, 700 + i) for
# i < 4 and a ball took 77 ms in one block and 64-68 ms in blocks of 2048
# to 16384 rows (one core, one BLAS thread).
_MEAN_WIDTH_BLOCK = 4096


def mean_width(K: ConvexBody, samples: int = 200_000, seed: int = 0) -> MeanWidthEstimate:
    """Monte-Carlo average of the support function over the unit sphere.

    Directions are normalized Gaussian vectors; the body must be centrally
    symmetric (verified on sampled antipodal pairs).  The samples are summed
    in groups of at most 100,000, one `np.sum` of h and of h^2 per group;
    within a group the directions are drawn and evaluated in blocks of
    _MEAN_WIDTH_BLOCK rows, so memory does not grow with `samples`.  A
    block draws the next rows of the one normal stream, and a row's support
    value does not depend on the rows that share its call, so the estimate
    is bit for bit that of one draw and one `support_batch` call per group
    (tested in R^4, and on a smoothed polygon, whose support points, unused
    here, do depend on the call's row count: `Smoothed.support_batch`).
    """
    if samples < 1:
        raise HarnessError(f"samples must be at least 1, got {samples}")
    _check_symmetry(K, seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x3E4)))
    total = 0.0
    total_sq = 0.0
    left = samples
    while left > 0:
        m = min(left, 100_000)
        h = np.empty(m)
        for i in range(0, m, _MEAN_WIDTH_BLOCK):
            U = rng.normal(size=(min(_MEAN_WIDTH_BLOCK, m - i), K.dim))
            U /= np.linalg.norm(U, axis=1)[:, None]
            h[i:i + U.shape[0]] = K.support_batch(U)[0]
        total += float(np.sum(h))
        total_sq += float(np.sum(h * h))
        left -= m
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    return MeanWidthEstimate(mean, math.sqrt(var / samples), samples, seed)


def mean_width_bound_check(K: ConvexBody, cfg: SolveConfig | None = None,
                           samples: int = 200_000, seed: int = 0,
                           slack_rel: float = 1e-3) -> InequalityReport:
    """c(K) <= pi * M*(K)^2 for centrally symmetric K, equality only for balls.

    The slack folds in a three-standard-error Monte-Carlo margin on M*.
    """
    cfg = cfg or SolveConfig()
    mw = mean_width(K, samples, seed)
    r_K = capacity(K, cfg)
    lhs = math.pi * mw.estimate**2
    rhs = r_K.capacity
    mc_margin = math.pi * ((mw.estimate + 3 * mw.stderr)**2 - mw.estimate**2)
    slack = slack_rel * abs(rhs) + mc_margin
    witnesses = {
        "mean_width": mw.to_dict(), "c_K": r_K.capacity,
        "equality_expected": isinstance(K, Ball),
        "equality_within_margin": bool(abs(lhs - rhs) <= slack),
    }
    return _report("mean-width-bound", lhs, rhs, lhs - rhs, slack, witnesses,
                   _meta(cfg, samples=samples, mw_seed=seed))


# ---------------------------------------------------------------------------
# 2D area oracle
# ---------------------------------------------------------------------------


def capacity_area_2d(K: ConvexBody, n: int = 40_000) -> float:
    """Area of a 2D convex body; in the plane every capacity equals the area.

    pi / sqrt(det Q) for a body that `bodies.quadric` reduces to (Q, c);
    exact for a polygon P under affine wrappers, K = A P + c
    (`bodies.affine_part`): |det A| times the area of P's convex hull;
    support-function quadrature 1/2 * integral(h^2 - h'^2) on K otherwise,
    with h' taken from the support point (the formula is
    translation-invariant).
    """
    if K.dim != 2:
        raise HarnessError("the area oracle is only valid in dimension 2")
    try:
        Q, _ = quadric(K)
        return math.pi / math.sqrt(float(np.linalg.det(Q)))
    except BodyError:
        pass
    A, _, core = affine_part(K)
    if isinstance(core, Polytope):
        from scipy.spatial import ConvexHull
        return abs(float(np.linalg.det(A))) * ConvexHull(core.vertices).volume
    theta = 2 * np.pi * np.arange(n) / n
    U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    Uperp = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    h, grad = K.support_batch(U)
    hprime = np.sum(grad * Uperp, axis=1)
    return float(0.5 * np.mean(h**2 - hprime**2) * 2 * np.pi)
