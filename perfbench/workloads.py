"""The benchmark's workloads: one round of tasks per workload, built from a seed.

A task is one public `ehz` call a user makes (`capacity`, `bm_check`,
`isoperimetric_check`, `directional_derivative`, `mean_width_bound_check`,
`intersection_capacity`, `intersection_concavity_check`) together with the
check of its result: a closed-form oracle at the acceptance suite's tolerance
for that body, or the verdict the suite requires.  Bodies come from
`ehz.randbodies` and from closed forms only, and every configuration is the
one the matching acceptance criterion uses (`FAST8`, `SMOOTH16`, `RANDOM12`,
criterion 3's ladder config, criterion 12's `cfg2`/`cfg4`).  With seed 0 the
random parts are the first slices of criteria 8, 11 and 12 themselves.

Tasks call `ehz` through module attributes at call time, so the tracer's
wrappers (installed after the tasks are built) see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import ehz
from ehz import randbodies
from ehz.suite import FAST8, RANDOM12, SMOOTH16, canonical_heptagon
from ehz.symplectic import J_matrix, random_symplectic

# Criterion 3's sharpness-ladder configuration (heptagon vs shoelace area).
LADDER24 = ehz.SolveConfig(modes=24, starts=2, grad_tol=1e-9, max_iter=2500,
                           polytope_sharpness=128.0, sharpness_extrapolate=True)
# The pentagon product at RANDOM12's modes and starts, sharpness ladder up to s=64.
LADDER12 = RANDOM12.replace(polytope_sharpness=64.0, sharpness_extrapolate=True)
# Criterion 12's configurations: the 2D lens and the R^4 concavity checks.
CFG2 = ehz.SolveConfig(modes=16, starts=2, grad_tol=1e-9, max_iter=2500)
CFG4 = ehz.SolveConfig(modes=10, starts=2, grad_tol=1e-8, max_iter=800)

# Systolic ratio c^2 / (2 vol) of the regular pentagon times the pentagon
# rotated by 90 degrees (Haim-Kislev & Ostrover 2024): above 1, against
# Viterbo's conjecture.
PENTAGON_RATIO = (math.sqrt(5.0) + 3.0) / 5.0
LENS_AREA = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0


@dataclass
class Outcome:
    """What the check of one task found."""

    ok: bool
    values: list[float]                 # capacities and deficit, compared across rounds
    oracle_err: float | None = None     # relative error against a closed form
    cert_worst: float | None = None     # certificates.worst() of the solves
    converged: list[bool] = field(default_factory=list)  # one flag per reported solve
    note: str = ""


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _seed_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def general_ellipsoid_capacity(Q: np.ndarray) -> float:
    """c({x : x'Q^{-1}x <= 1}) = pi / max |eig(J Q^{-1})|."""
    JQinv = J_matrix(Q.shape[0]) @ np.linalg.inv(Q)
    return math.pi / float(np.max(np.abs(np.linalg.eigvals(JQinv))))


def pentagon_product() -> tuple[ehz.Polytope, float]:
    """Regular pentagon K (q-plane) times K rotated by 90 degrees (p-plane),
    in the interleaved coordinates (x1, y1, x2, y2) with q = (x1, x2) and
    p = (y1, y2); returns the product and its 4-volume area(K)^2."""
    th = math.pi / 2 + 2 * math.pi * np.arange(5) / 5
    K = np.stack([np.cos(th), np.sin(th)], axis=1)
    T = np.stack([-np.sin(th), np.cos(th)], axis=1)
    V = np.array([[k[0], t[0], k[1], t[1]] for k in K for t in T])
    area = 2.5 * math.sin(2 * math.pi / 5)
    return ehz.Polytope(V), area * area


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def capacity_oracle(exact: float, tol: float, drift_tol: float | None = None):
    """Check a CapacityResult against a closed form (and its M->2M drift)."""
    def check(r) -> Outcome:
        err = _rel(r.capacity, exact)
        ok = err <= tol
        note = f"err {err:.2e} tol {tol:.0e}"
        values = [r.capacity]
        if drift_tol is not None:
            ok = ok and r.stability_drift is not None and r.stability_drift <= drift_tol
            note += f", drift {r.stability_drift:.2e} tol {drift_tol:.0e}"
            values.append(r.stability_drift)
        return Outcome(ok, values, oracle_err=err, cert_worst=r.certificates.worst(),
                       converged=[r.converged], note=note)
    return check


def verdict(report) -> Outcome:
    """The suite's verdict: deficit within slack and every auxiliary witness."""
    w = report.witnesses
    caps = [float(v) for k, v in sorted(w.items()) if k.startswith("c_")]
    caps += [float(v) for _, v in sorted(w.get("capacities", {}).items())]
    conv = [bool(w["converged"])] if "converged" in w else []
    cert = w.get("worst_certificate")
    return Outcome(report.all_ok(), caps + [report.deficit], cert_worst=cert,
                   converged=conv, note=f"deficit {report.deficit:.3e} slack {report.slack:.1e}")


def _ball_derivative_check(a: float, b: float):
    """c(B(a) + eps B(b)) = pi (a + eps b)^2, so the difference quotients are
    pi (2ab + eps b^2) exactly (criterion 10 at a = b = 1)."""
    def check(report) -> Outcome:
        out = verdict(report)
        rows = report.witnesses["schedule"]
        errs = [_rel(row["quotient"], math.pi * (2 * a * b + row["eps"] * b * b)) for row in rows]
        err = max(errs)
        out.ok = out.ok and err <= 1e-6
        out.oracle_err = err
        out.values += [row["quotient"] for row in rows]
        out.note += f", quotient err {err:.2e} tol 1e-06"
        return out
    return check


def _ball_isoperimetric_check(report) -> Outcome:
    """For balls the isoperimetric bound holds with equality (criterion 9)."""
    out = verdict(report)
    err = abs(report.deficit) / report.rhs
    out.ok = out.ok and err <= 1e-6
    out.oracle_err = err
    return out


def _ladder_check(exact: float, tol: float | None, ratio_of=None):
    """Extrapolated polytope capacity against an exact value.

    With `tol` the oracle error is the verdict (criterion 3).  The pentagon
    product has no suite tolerance: its verdict is the sign claim
    (systolic ratio above 1) and its oracle error is recorded as measured.
    """
    def check(r) -> Outcome:
        value = r.capacity if ratio_of is None else ratio_of(r.capacity)
        err = _rel(value, exact)
        if tol is not None:
            ok, note = err <= tol, f"err {err:.2e} tol {tol:.0e}"
        else:
            ok, note = value > 1.0, f"systolic ratio {value:.6f} (> 1), err {err:.2e}"
        return Outcome(ok, [r.capacity], oracle_err=err, cert_worst=r.certificates.worst(),
                       converged=[r.converged], note=note)
    return check


def _lens_check(res) -> Outcome:
    cap, audit = res
    err = _rel(cap, LENS_AREA)
    return Outcome(err <= 1e-3, [cap, audit.mean_rel_error], oracle_err=err,
                   note=f"err {err:.2e} tol 1e-03, audit {audit.mean_rel_error:.2e}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _capacity_task(label, body, cfg, exact, tol, drift_tol=None) -> Task:
    return Task(f"capacity:{label}", lambda: ehz.capacity(body, cfg),
                capacity_oracle(exact, tol, drift_tol))


def smooth_tasks(seed: int) -> list[Task]:
    """Closed-form capacities (criteria 1, 2, 4-7, 13-smooth) plus a minority
    of isoperimetric (9) and directional-derivative (10) checks."""
    rng = _seed_rng(seed, 0x5300)
    tasks: list[Task] = []
    for cycle in range(2):
        k = 10_000 + 1_000 * seed + 100 * cycle   # distinct randbodies seeds

        def ell(dim, j):
            E = randbodies.random_ellipsoid(dim, k + j)
            return E, math.pi * float(E.radii[0]) ** 2

        def gen(dim, j):
            G = randbodies.random_general_ellipsoid(dim, k + j)
            return G, general_ellipsoid_capacity(G.Q)

        for dim in (4, 6):
            r = float(rng.uniform(0.6, 1.8))
            tasks.append(_capacity_task(f"ball{dim}", ehz.Ball(r, dim), FAST8, math.pi * r * r, 1e-6))
        for j, dim in enumerate((4, 6)):
            E, c = ell(dim, j)
            tasks.append(_capacity_task(f"ellipsoid{dim}", E, SMOOTH16, c, 1e-4))
        a, R = float(rng.uniform(0.7, 1.5)), float(rng.uniform(2.0, 10.0))
        tasks.append(_capacity_task("thin_ellipsoid", ehz.Ellipsoid([a, R * a]), FAST8,
                                    math.pi * a * a, 1e-4))
        E, c = ell(4, 2)
        f = float(rng.uniform(0.6, 1.6))
        tasks.append(_capacity_task("scale", ehz.Scale(f, E), SMOOTH16, f * f * c, 1e-4))
        E, c = ell(4, 3)
        shift = rng.uniform(-0.2, 0.2, 4)
        tasks.append(_capacity_task("translate", ehz.Translate(shift, E), SMOOTH16, c, 1e-4))
        E, c = ell(4, 4)
        S = random_symplectic(4, k + 4, 0.5)
        tasks.append(_capacity_task("symplectic_image", ehz.LinearImage(S, E), SMOOTH16, c, 1e-3))
        for j, dim in enumerate((4, 6)):
            G, c = gen(dim, 5 + j)
            tasks.append(_capacity_task(f"general_ellipsoid{dim}", G, SMOOTH16, c, 1e-4))
        p = float(rng.uniform(1.2, 3.0))
        r1, r2 = float(rng.uniform(0.6, 1.5)), float(rng.uniform(0.6, 1.5))
        R = (r1 ** p + r2 ** p) ** (1.0 / p)
        tasks.append(_capacity_task("psum_balls", ehz.PSum(p, [ehz.Ball(r1, 4), ehz.Ball(r2, 4)]),
                                    SMOOTH16, math.pi * R * R, 1e-6))
        E, c = ell(4, 7)
        tasks.append(_capacity_task("ellipsoid4_stability", E,
                                    SMOOTH16.replace(stability_check=True), c, 1e-4, 1e-6))
        G, c = gen(4, 8)
        tasks.append(_capacity_task("general_ellipsoid4_stability", G,
                                    SMOOTH16.replace(stability_check=True), c, 1e-4, 1e-6))

        E = randbodies.random_ellipsoid(4, k + 9)
        G = randbodies.random_general_ellipsoid(4, k + 10)
        K, T = (E, G) if cycle % 2 else (G, E)
        tasks.append(Task("isoperimetric_check:ellipsoids",
                          lambda K=K, T=T: ehz.isoperimetric_check(K, T, RANDOM12, slack_rel=1e-3),
                          verdict))
        a, b = float(rng.uniform(0.7, 1.4)), float(rng.uniform(0.7, 1.4))
        Ka, Tb = ehz.Ball(a, 4), ehz.Ball(b, 4)
        if cycle == 0:
            tasks.append(Task("isoperimetric_check:balls",
                              lambda Ka=Ka, Tb=Tb: ehz.isoperimetric_check(
                                  Ka, Tb, FAST8, slack_rel=1e-6),
                              _ball_isoperimetric_check))
        else:
            tasks.append(Task("directional_derivative:balls",
                              lambda Ka=Ka, Tb=Tb: ehz.directional_derivative(
                                  Ka, Tb, FAST8, (0.5, 0.2, 0.1, 0.05), slack_rel=1e-6),
                              _ball_derivative_check(a, b)))
    return tasks


def polytope_tasks(seed: int) -> list[Task]:
    """Criterion 8's random bm pairs at RANDOM12, criterion 11's mean-width
    checks, and the extrapolated sharpness ladder on two polytopes."""
    # the heptagon leads, so that a round cut to its first tasks (smoke.py)
    # still holds an oracle and the ladder
    hepta = canonical_heptagon()
    tasks = [Task("capacity:heptagon_ladder", lambda: ehz.capacity(hepta, LADDER24),
                  _ladder_check(ehz.capacity_area_2d(hepta), 1e-3))]
    # a base = 0 (mod 10) keeps criterion 8's family pattern (family = seed % 5)
    base = 300 + 100 * seed
    for i in range(12):
        K = randbodies.random_body(4, base + 2 * i)
        T = randbodies.random_body(4, base + 2 * i + 1)
        p = (1.0, 1.5, 2.0, 3.0)[i % 4]
        tasks.append(Task(f"bm_check:p={p:g}",
                          lambda K=K, T=T, p=p: ehz.bm_check(K, T, p, RANDOM12), verdict))
    # a base = 0 (mod 4) keeps criterion 11's family pattern (family = seed % 4)
    base = 700 + 20 * seed
    for i in range(4):
        K = randbodies.random_symmetric_body(4, base + i)
        tasks.append(Task("mean_width_bound_check:random",
                          lambda K=K, s=20 * seed + i: ehz.mean_width_bound_check(
                              K, RANDOM12, samples=60_000, seed=s), verdict))
    r = float(_seed_rng(seed, 0x3B).uniform(0.6, 1.8))
    ball = ehz.Ball(r, 4)

    def ball_equality(rep) -> Outcome:
        out = verdict(rep)
        out.ok = out.ok and bool(rep.witnesses["equality_within_margin"])
        return out

    tasks.append(Task("mean_width_bound_check:ball",
                      lambda: ehz.mean_width_bound_check(ball, FAST8, samples=100_000, seed=seed),
                      ball_equality))
    P, vol = pentagon_product()
    tasks.append(Task("capacity:pentagon_product_ladder", lambda: ehz.capacity(P, LADDER12),
                      _ladder_check(PENTAGON_RATIO, None, lambda c: c * c / (2.0 * vol))))
    return tasks


def intersection_tasks(seed: int) -> list[Task]:
    """Criterion 12: the 2D lens against its area, and random general
    ellipsoid-ball concavity checks at cfg4 with a 768-direction design."""
    disc = ehz.Ball(1.0, 2)
    tasks = [Task("intersection_capacity:lens",
                  lambda: ehz.intersection_capacity(disc, disc, np.array([1.0, 0.0]), CFG2,
                                                    design_size=720),
                  _lens_check)]
    rng = np.random.default_rng(900 + seed)
    for i in range(5):
        K = randbodies.random_general_ellipsoid(4, 900 + 2 * i + 20 * seed, cond_max=4.0)
        T = ehz.Ball(float(rng.uniform(0.8, 1.1)), 4)
        x = rng.uniform(-0.4, 0.4, 4)
        y = rng.uniform(-0.4, 0.4, 4)
        lam = float(rng.uniform(0.2, 0.8))
        tasks.append(Task("intersection_concavity_check:ellipsoid_ball",
                          lambda K=K, T=T, x=x, y=y, lam=lam, s=10 * seed + i:
                          ehz.intersection_concavity_check(K, T, x, y, lam, CFG4,
                                                           design_size=768, seed=s),
                          verdict))
    return tasks


TASK_LISTS = {"smooth": smooth_tasks, "polytope": polytope_tasks,
              "intersection": intersection_tasks}


def build(workload: str, seed: int) -> list[Task]:
    return TASK_LISTS[workload](seed)
