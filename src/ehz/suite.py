"""The acceptance suite: one function per criterion, a shared solve cache,
and a runner that prints one pass/fail line per criterion.

Criteria (desk scale, R^4/R^6, base mode counts <= 32):
  1. ball normalization            8. p-sum superadditivity + equality
  2. ellipsoid value and carrier   9. isoperimetric bound
  3. 2D area oracle               10. directional derivative
  4. thin-ellipsoid limit         11. mean-width bound
  5. invariance properties        12. intersection concavity
  6. exponent consistency         13. discretization stability
  7. optimality certificates
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bodies import (Ball, ConvexBody, Ellipsoid, GeneralEllipsoid, LinearImage,
                     MinkowskiSum, Polytope, PSum, Scale, Translate)
from .harness import (bm_check, capacity_area_2d, directional_derivative,
                      equality_certificate, isoperimetric_check, mean_width,
                      mean_width_bound_check, _phase_aligned_residual)
from .intersections import intersection_capacity, intersection_concavity_check
from .loops import CarrierLoop, FourierLoop, action
from .randbodies import (random_body, random_ellipsoid, random_general_ellipsoid,
                         random_symmetric_body, random_symmetric_polytope)
from .solver import SolveConfig, capacity, from_carrier
from .symplectic import random_symplectic


@dataclass
class CheckLine:
    label: str
    value: float
    tolerance: float
    ok: bool

    def render(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        return f"    [{mark}] {self.label}: {self.value:.3e} (tol {self.tolerance:.1e})"


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    lines: list[CheckLine] = field(default_factory=list)
    elapsed: float = 0.0
    note: str = ""

    def render(self) -> str:
        head = "PASS" if self.passed else "FAIL"
        out = [f"ACCEPTANCE {self.number:2d} [{head}] {self.title} ({self.elapsed:.1f}s)"]
        out += [line.render() for line in self.lines if not line.ok] or []
        if self.note:
            out.append(f"    note: {self.note}")
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {
            "number": self.number, "title": self.title, "passed": self.passed,
            "elapsed": self.elapsed, "note": self.note,
            "checks": [line.__dict__ for line in self.lines],
        }


class _Cache:
    """Capacity results memoized on (body recipe, solve configuration)."""

    def __init__(self):
        self.store = {}

    def capacity(self, K: ConvexBody, cfg: SolveConfig):
        key = (K.content_hash(), dataclasses.astuple(cfg))
        if key not in self.store:
            self.store[key] = capacity(K, cfg)
        return self.store[key]


def _check(lines, label, value, tol, ok=None) -> bool:
    ok = bool(value <= tol) if ok is None else bool(ok)
    lines.append(CheckLine(label, float(value), float(tol), ok))
    return ok


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


FAST8 = SolveConfig(modes=8, starts=4)
SMOOTH16 = SolveConfig(modes=16, starts=6)
RANDOM12 = SolveConfig(modes=12, starts=4, grad_tol=1e-9, max_iter=900)


def canonical_heptagon() -> Polytope:
    """Frozen random convex heptagon: the first seed whose hull keeps 7 vertices."""
    from scipy.spatial import ConvexHull
    seed = 0
    while True:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
        th = np.sort(rng.uniform(0, 2 * np.pi, 7))
        r = rng.uniform(0.8, 1.6, 7)
        V = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        hull = ConvexHull(V)
        if len(hull.vertices) == 7:
            return Polytope(V[hull.vertices])
        seed += 1


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def crit_01(cache: _Cache) -> CriterionResult:
    lines = []
    r1 = cache.capacity(Ball(1.0, 4), FAST8)
    _check(lines, "c(B^4(1)) vs pi, rel", _rel(r1.capacity, math.pi), 1e-6)
    r2 = cache.capacity(Ball(1.7, 4), FAST8)
    _check(lines, "c(B^4(1.7)) vs 1.7^2 pi, rel", _rel(r2.capacity, 1.7**2 * math.pi), 1e-6)
    return CriterionResult(1, "ball normalization (M=8)", all(l.ok for l in lines), lines)


def _carrier_vs_unit_circle(result) -> float:
    """Max deviation of the carrier from the first-plane unit circle after
    phase alignment."""
    d = result.carrier.dim
    a = np.zeros((1, d))
    b = np.zeros((1, d))
    a[0, 0] = 1.0
    b[0, 1] = 1.0
    circle = CarrierLoop(np.zeros(d), FourierLoop(a, b))
    _, phi = _phase_aligned_residual(circle, result.carrier, 1.0)
    t = 2 * np.pi * np.arange(512) / 512
    dev = result.carrier.evaluate(t) - circle.evaluate(t + phi)
    return float(np.max(np.linalg.norm(dev, axis=1)))


def crit_02(cache: _Cache) -> CriterionResult:
    lines = []
    r4 = cache.capacity(Ellipsoid([1.0, 2.0]), SMOOTH16)
    _check(lines, "c(E(1,2)) in R^4 vs pi, rel", _rel(r4.capacity, math.pi), 1e-4)
    r6 = cache.capacity(Ellipsoid([1.0, 2.0, 3.0]), SMOOTH16)
    _check(lines, "c(E(1,2,3)) in R^6 vs pi, rel", _rel(r6.capacity, math.pi), 1e-4)
    _check(lines, "R^4 carrier vs unit circle, max dev", _carrier_vs_unit_circle(r4), 1e-4)
    _check(lines, "R^6 carrier vs unit circle, max dev", _carrier_vs_unit_circle(r6), 1e-4)
    return CriterionResult(2, "ellipsoid capacity and carrier", all(l.ok for l in lines), lines)


def crit_03(cache: _Cache) -> CriterionResult:
    lines = []
    ellipse = GeneralEllipsoid(np.diag([1.0, 4.0]))
    r = cache.capacity(ellipse, FAST8)
    _check(lines, "2D ellipse (1,2) vs area 2pi, rel", _rel(r.capacity, 2 * math.pi), 1e-4)
    hepta = canonical_heptagon()
    area = capacity_area_2d(hepta)
    cfg = SolveConfig(modes=24, starts=2, grad_tol=1e-9, max_iter=2500,
                      polytope_sharpness=128.0, sharpness_extrapolate=True)
    rh = cache.capacity(hepta, cfg)
    _check(lines, "heptagon (polished from s=128) vs shoelace, rel", _rel(rh.capacity, area), 1e-3)
    return CriterionResult(3, "2D capacity equals area", all(l.ok for l in lines), lines)


def crit_04(cache: _Cache) -> CriterionResult:
    lines = []
    for R in (2.0, 5.0, 10.0):
        r = cache.capacity(Ellipsoid([1.0, R]), FAST8)
        _check(lines, f"c(E(1,{R:g})) vs pi, rel", _rel(r.capacity, math.pi), 1e-4)
    return CriterionResult(4, "thin-ellipsoid (cylinder) limit", all(l.ok for l in lines), lines)


def crit_05(cache: _Cache) -> CriterionResult:
    lines = []
    E = Ellipsoid([1.0, 2.0])
    base = cache.capacity(E, SMOOTH16).capacity
    s = 1.3
    scaled = cache.capacity(Scale(s, E), SMOOTH16).capacity
    _check(lines, "conformality c(sK) = s^2 c(K), rel", _rel(scaled, s**2 * base), 1e-6)
    moved = cache.capacity(Translate(np.array([0.15, -0.1, 0.2, 0.05]), E), SMOOTH16).capacity
    _check(lines, "translation invariance, rel", _rel(moved, base), 1e-6)
    M = random_symplectic(4, seed=17, magnitude=0.5)
    mapped = cache.capacity(LinearImage(M, E), SMOOTH16).capacity
    _check(lines, "linear symplectic invariance, rel", _rel(mapped, base), 1e-3)
    c_small = cache.capacity(Ball(1.0, 4), FAST8).capacity
    c_big = cache.capacity(Ball(2.0, 4), FAST8).capacity
    mono = c_small <= base * (1 + 1e-9) and base <= c_big * (1 + 1e-9)
    _check(lines, "monotonicity B(1) <= E(1,2) <= B(2)", 0.0, 1.0, ok=mono)
    return CriterionResult(5, "invariance suite", all(l.ok for l in lines), lines)


def crit_06(cache: _Cache) -> CriterionResult:
    lines = []
    for body, label in ((Ball(1.0, 4), "ball"), (Ellipsoid([1.0, 2.0]), "ellipsoid")):
        caps = {}
        for p in (1.5, 2.0, 3.0):
            caps[p] = cache.capacity(body, SolveConfig(p=p, modes=12, starts=4)).capacity
        spread = (max(caps.values()) - min(caps.values())) / caps[2.0]
        _check(lines, f"{label}: capacity spread over p in {{1.5,2,3}}, rel", spread, 1e-4)
        r2 = cache.capacity(body, SolveConfig(p=2.0, modes=12, starts=4))
        c_p1 = r2.certificates.p_cross[1.0]
        _check(lines, f"{label}: p=2 minimizer re-evaluated at p=1, rel", _rel(c_p1, r2.capacity), 1e-4)
    return CriterionResult(6, "exponent consistency", all(l.ok for l in lines), lines)


def crit_07(cache: _Cache) -> CriterionResult:
    lines = []
    bodies = [
        ("ball", Ball(1.0, 4), FAST8),
        ("E(1,2)", Ellipsoid([1.0, 2.0]), SMOOTH16),
        ("E(1,2,3)", Ellipsoid([1.0, 2.0, 3.0]), SMOOTH16),
        ("general ellipsoid", random_general_ellipsoid(4, 5), SMOOTH16),
        ("psum p=2", PSum(2.0, [Ball(1.0, 4), Ellipsoid([1.0, 2.0])]), SMOOTH16),
        ("linear image", LinearImage(random_symplectic(4, 17, 0.5), Ellipsoid([1.0, 2.0])), SMOOTH16),
    ]
    for label, body, cfg in bodies:
        r = cache.capacity(body, cfg)
        c = r.certificates
        _check(lines, f"{label}: euler residual", c.euler_residual_rel, 1e-5)
        _check(lines, f"{label}: support constancy cv", c.support_const_cv, 1e-5)
        _check(lines, f"{label}: boundary residual", c.boundary_residual, 1e-5)
        _check(lines, f"{label}: action mismatch", c.action_mismatch_rel, 1e-5)
    for label, body, cfg in bodies[:3]:
        r = cache.capacity(body, cfg)
        z2 = from_carrier(body, r.carrier, cfg.p)
        diff = math.sqrt(float(np.sum((z2.a - r.minimizer.a)**2)
                               + np.sum((z2.b - r.minimizer.b)**2)))
        _check(lines, f"{label}: carrier map round trip", diff, 1e-8)
        _check(lines, f"{label}: recovered action vs 1", abs(action(z2) - 1.0), 1e-10)
    return CriterionResult(7, "optimality certificates and round trips",
                           all(l.ok for l in lines), lines)


def crit_08(cache: _Cache) -> CriterionResult:
    lines = []
    for p in (1.0, 2.0):
        rep = bm_check(Ball(1.0, 4), Ball(2.0, 4), p, FAST8)
        _check(lines, f"homothetic balls p={p:g}: |deficit|/rhs", abs(rep.deficit) / rep.rhs, 1e-5)
        eq = equality_certificate(Ball(1.0, 4), Ball(2.0, 4), p, FAST8)
        _check(lines, f"homothetic balls p={p:g}: homothety residual",
               eq.witnesses["homothety_residual"], 1e-6)
    worst = 0.0
    violations = 0
    for i in range(50):
        K = random_body(4, 300 + 2 * i)
        T = random_body(4, 301 + 2 * i)
        p = (1.0, 1.5, 2.0, 3.0)[i % 4]
        rep = bm_check(K, T, p, RANDOM12)
        rel_deficit = rep.deficit / rep.rhs
        worst = min(worst, rel_deficit)
        if rel_deficit < -1e-3:
            violations += 1
    _check(lines, "random suite (50 pairs): violations below -1e-3 rhs",
           float(violations), 0.0, ok=violations == 0)
    _check(lines, "random suite: worst deficit/rhs", -worst, 1e-3)
    return CriterionResult(8, "p-sum superadditivity and equality cases",
                           all(l.ok for l in lines), lines)


def crit_09(cache: _Cache) -> CriterionResult:
    lines = []
    rep = isoperimetric_check(Ball(1.0, 4), Ball(1.0, 4), FAST8, slack_rel=1e-6)
    _check(lines, "K=T=B(1): |deficit|/rhs", abs(rep.deficit) / rep.rhs, 1e-6)
    _check(lines, "K=T=B(1): eps chain", 0.0, 1.0, ok=rep.witnesses["chain_ok"])
    fails = 0
    for i in range(20):
        K = random_ellipsoid(4, 500 + 2 * i) if i % 2 else random_general_ellipsoid(4, 500 + 2 * i)
        T = random_general_ellipsoid(4, 501 + 2 * i) if i % 2 else random_ellipsoid(4, 501 + 2 * i)
        rep = isoperimetric_check(K, T, RANDOM12, slack_rel=1e-3)
        if not rep.all_ok():
            fails += 1
    _check(lines, "random pairs (20): failures at slack 1e-3", float(fails), 0.0, ok=fails == 0)
    return CriterionResult(9, "isoperimetric bound", all(l.ok for l in lines), lines)


def crit_10(cache: _Cache) -> CriterionResult:
    lines = []
    schedule = (0.5, 0.2, 0.1, 0.05)
    rep = directional_derivative(Ball(1.0, 4), Ball(1.0, 4), FAST8, schedule, slack_rel=1e-6)
    rows = rep.witnesses["schedule"]
    for row in rows:
        expected = math.pi * (2.0 + row["eps"])
        _check(lines, f"quotient at eps={row['eps']:g} vs pi(2+eps), rel",
               _rel(row["quotient"], expected), 1e-6)
    # linear extrapolation of the last two quotients to eps -> 0 recovers the
    # bound 2 pi with equality
    q1, q0 = rows[-2]["quotient"], rows[-1]["quotient"]
    e1, e0 = rows[-2]["eps"], rows[-1]["eps"]
    limit = q0 + (q0 - q1) * e0 / (e1 - e0)
    _check(lines, "extrapolated limit vs 2 pi, rel", _rel(limit, 2 * math.pi), 1e-6)
    _check(lines, "monotone in eps", 0.0, 1.0, ok=rep.witnesses["monotone"])
    _check(lines, "lower bound met at every eps", 0.0, 1.0, ok=rep.all_ok())
    return CriterionResult(10, "directional derivative", all(l.ok for l in lines), lines)


def crit_11(cache: _Cache) -> CriterionResult:
    lines = []
    rep = mean_width_bound_check(Ball(1.0, 4), FAST8, samples=100_000, seed=3)
    _check(lines, "ball: equality within MC margin", 0.0, 1.0,
           ok=rep.witnesses["equality_within_margin"])
    fails = 0
    for i in range(20):
        K = random_symmetric_body(4, 700 + i)
        rep_i = mean_width_bound_check(K, RANDOM12, samples=60_000, seed=i)
        if not rep_i.passed:
            fails += 1
    _check(lines, "random symmetric bodies (20): failures", float(fails), 0.0, ok=fails == 0)
    K = random_ellipsoid(4, 801)
    T = random_general_ellipsoid(4, 802)
    mw_K = mean_width(K, 120_000, seed=11)
    mw_T = mean_width(T, 120_000, seed=12)
    mw_KT = mean_width(MinkowskiSum([K, T]), 120_000, seed=13)
    gap = abs(mw_KT.estimate - mw_K.estimate - mw_T.estimate)
    margin = 3.0 * (mw_K.stderr + mw_T.stderr + mw_KT.stderr)
    _check(lines, "Minkowski additivity of M*: |gap| vs 3 s.e.", gap, margin)
    return CriterionResult(11, "mean-width bound", all(l.ok for l in lines), lines)


def crit_12(cache: _Cache) -> CriterionResult:
    lines = []
    lens_area = 2 * math.pi / 3 - math.sqrt(3) / 2
    cfg2 = SolveConfig(modes=16, starts=2, grad_tol=1e-9, max_iter=2500)
    disc = Ball(1.0, 2)
    c_lens, _ = intersection_capacity(disc, disc, np.array([1.0, 0.0]), cfg2, design_size=720)
    _check(lines, "2D lens capacity vs analytic area, rel", _rel(c_lens, lens_area), 1e-3)
    c_full, _ = intersection_capacity(disc, disc, np.zeros(2), cfg2, design_size=720)
    _check(lines, "2D symmetric monotonicity c(lens) <= c(disc)", 0.0, 1.0,
           ok=c_lens <= c_full * (1 + 1e-3))
    cfg4 = SolveConfig(modes=10, starts=2, grad_tol=1e-8, max_iter=800)
    fails = 0
    worst_audit = 0.0
    rng = np.random.default_rng(900)
    for i in range(10):
        K = random_general_ellipsoid(4, 900 + 2 * i, cond_max=4.0)
        T = Ball(float(rng.uniform(0.8, 1.1)), 4)
        x = rng.uniform(-0.4, 0.4, 4)
        y = rng.uniform(-0.4, 0.4, 4)
        lam = float(rng.uniform(0.2, 0.8))
        rep = intersection_concavity_check(K, T, x, y, lam, cfg4, design_size=768, seed=i)
        worst_audit = max(worst_audit,
                          max(rep.witnesses["audits"][k]["mean_rel_error"] for k in "ABC"))
        if not rep.passed:
            fails += 1
    _check(lines, "R^4 random pairs (10): failures", float(fails), 0.0, ok=fails == 0)
    note = ("worst audit of the exact bodies (mean of max(q_K, q_T) - 1 over the support "
            f"points): {worst_audit:.2e}")
    return CriterionResult(12, "intersection concavity", all(l.ok for l in lines), lines,
                           note=note)


def crit_13(cache: _Cache) -> CriterionResult:
    lines = []
    smooth = [
        ("B(1)", Ball(1.0, 4), FAST8),
        ("E(1,2)", Ellipsoid([1.0, 2.0]), SMOOTH16),
        ("E(1,2,3)", Ellipsoid([1.0, 2.0, 3.0]), SMOOTH16),
        ("2D ellipse", GeneralEllipsoid(np.diag([1.0, 4.0])), FAST8),
        ("general ellipsoid", random_general_ellipsoid(4, 5), SMOOTH16),
        ("psum p=2", PSum(2.0, [Ball(1.0, 4), Ellipsoid([1.0, 2.0])]), SMOOTH16),
        ("psum p=2.5", PSum(2.5, [Ball(1.0, 4), Ellipsoid([1.0, 2.0])]), SMOOTH16),
    ]
    for label, body, cfg in smooth:
        r = cache.capacity(body, cfg.replace(stability_check=True))
        _check(lines, f"{label}: M->2M drift, rel", r.stability_drift, 1e-6)
    hepta = canonical_heptagon()
    cfg_h = SolveConfig(modes=24, starts=2, grad_tol=1e-9, max_iter=2500,
                        polytope_sharpness=128.0, sharpness_extrapolate=True,
                        stability_check=True)
    rh = cache.capacity(hepta, cfg_h)
    _check(lines, "heptagon (polished from s=128): M->2M drift, rel", rh.stability_drift, 1e-4)
    K4 = random_symmetric_polytope(4, 0, vertices=12, sharpness=64.0)
    r4 = cache.capacity(K4, SolveConfig(modes=16, starts=3, grad_tol=1e-9,
                                        max_iter=2500, stability_check=True))
    _check(lines, "R^4 smoothed polytope (s=64): M->2M drift, rel",
           r4.stability_drift, 1e-4)
    note = ("the heptagon's capacity is polished from its carrier's facet word at "
            "M and 2M, and does not move while the word stays; the R^4 smoothed "
            "polytope is a smooth body in its own right, whose minimizers ride the "
            "rounded corners and converge slowly in the mode count, so its 1e-4 "
            "drift target needs mode counts well beyond desk scale (M >~ 128)")
    return CriterionResult(13, "discretization stability", all(l.ok for l in lines),
                           lines, note=note)


CRITERIA = {
    1: crit_01, 2: crit_02, 3: crit_03, 4: crit_04, 5: crit_05, 6: crit_06,
    7: crit_07, 8: crit_08, 9: crit_09, 10: crit_10, 11: crit_11, 12: crit_12,
    13: crit_13,
}


def run_suite(numbers: list[int] | None = None) -> list[CriterionResult]:
    """Run the selected acceptance criteria (all by default), in order.

    Criteria are independent and internally seeded; they run one after
    another and share one solve cache.
    """
    numbers = sorted(numbers or CRITERIA.keys())
    unknown = [n for n in numbers if n not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; valid range is 1..13")
    cache = _Cache()

    def run_one(n: int) -> CriterionResult:
        start = time.perf_counter()
        try:
            result = CRITERIA[n](cache)
        except Exception as exc:  # a crashed criterion is a failed criterion
            result = CriterionResult(n, f"{CRITERIA[n].__name__} crashed: {exc}", False)
        result.elapsed = time.perf_counter() - start
        return result

    results = [run_one(n) for n in numbers]
    for res in results:
        print(res.render())
    passed = sum(r.passed for r in results)
    print(f"SUITE: {passed}/{len(results)} criteria passed")
    return results
