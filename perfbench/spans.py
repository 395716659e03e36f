"""In-memory span tracing of the `ehz` layers, installed from outside the package.

`Tracer.install()` replaces the public functions and methods of each `ehz`
module with thin wrappers that open a span on entry and close it on exit, and
`uninstall()` puts the originals back.  Every module-level alias of a wrapped
function (for instance `ehz.harness.capacity`, which is `ehz.solver.capacity`)
is replaced too, so calls between modules are seen.  `src/ehz` itself is not
modified.

A span is (name, start, end, parent, task id), kept in flat arrays.  After a
round, `layer_metrics()` derives per-layer call counts and self times from the
spans (self time = duration minus the time covered by child spans) and merges
the exact counters the wrappers record (rows, objective evaluations, L-BFGS
iterations and exit statuses, multistart agreement, surrogate sizes).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# Support-function families reported per layer (the leaf and node types of
# ehz.bodies that the workloads reach).
SUPPORT_FAMILIES = ("Ball", "Ellipsoid", "GeneralEllipsoid", "Polytope", "Smoothed", "PSum",
                    "MinkowskiSum", "LinearImage", "Translate", "Scale")
HARNESS_CHECKS = ("bm_check", "equality_certificate", "isoperimetric_check",
                  "directional_derivative", "mean_width", "mean_width_bound_check")
LBFGS_STATUSES = ("gradient", "stall", "line_search", "max_iter")
LOOP_FUNCTIONS = ("sample", "action", "action_quadrature", "normalize_action", "random_loop",
                  "resample_by_clock", "length_in_gauge")
LOOP_METHODS = {
    "FourierLoop": ("with_modes", "evaluate", "derivative_coefficients", "evaluate_derivative",
                    "scaled", "time_reversed", "transformed", "phase_shifted",
                    "coefficient_norm"),
    "CarrierLoop": ("evaluate", "evaluate_derivative", "sample", "action"),
}
# Two starts "agree" when their quotient minima are this close (relative);
# agreeing starts beyond the first are redundant multistart work.
AGREE_REL = 1e-7

TASK_SPAN = "task"


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self.task = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_task.append(self.task)
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.span_end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def high(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- derived metrics -----------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (span count, summed self time)."""
        n = len(self.span_name)
        if n == 0:
            return {}
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - covered
        calls = np.bincount(names, minlength=len(self._names))
        selfs = np.bincount(names, weights=own, minlength=len(self._names))
        return {self._names[k]: (int(calls[k]), float(selfs[k]))
                for k in range(len(self._names)) if calls[k]}

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of one round except the overhead, which needs
        an untraced round to compare against."""
        st = self.self_times()
        c = self.counts

        def calls(span):
            return st.get(span, (0, 0.0))[0]

        def self_s(span):
            return st.get(span, (0, 0.0))[1]

        out: dict[str, float] = {}
        for fam in SUPPORT_FAMILIES:
            span = f"bodies.support.{fam}"
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.rows"] = c[f"{span}.rows"]
            out[f"{span}.self_s"] = self_s(span)
        for span in ("bodies.gauge", "bodies.intersection_support"):
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.rows"] = c[f"{span}.rows"]
            out[f"{span}.self_s"] = self_s(span)
        out["optimize.lbfgs.calls"] = calls("optimize.lbfgs")
        out["optimize.lbfgs.iterations"] = c["optimize.lbfgs.iterations"]
        out["optimize.lbfgs.fg_evals"] = calls("solver.quotient_fg")
        out["optimize.lbfgs.self_s"] = self_s("optimize.lbfgs")
        for status in LBFGS_STATUSES:
            out[f"optimize.lbfgs.status.{status}"] = c[f"optimize.lbfgs.status.{status}"]
        out["optimize.batched_descent.calls"] = calls("optimize.batched_descent")
        out["optimize.batched_descent.fg_evals"] = c["optimize.batched_descent.fg_evals"]
        out["optimize.batched_descent.self_s"] = self_s("optimize.batched_descent")
        out["solver.quotient_fg.self_s"] = self_s("solver.quotient_fg")
        starts = c["solver.minimize.starts"]
        out["solver.minimize.calls"] = calls("solver.minimize")
        out["solver.minimize.self_s"] = self_s("solver.minimize")
        out["solver.minimize.starts"] = starts
        out["solver.minimize.starts_agree_ratio"] = (
            c["solver.minimize.starts_agree"] / starts if starts else 0.0)
        for span in ("solver.certify", "solver.capacity"):
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.self_s"] = self_s(span)
        for check in HARNESS_CHECKS:
            out[f"harness.{check}.calls"] = calls(f"harness.{check}")
            out[f"harness.{check}.self_s"] = self_s(f"harness.{check}")
        for fn in ("build_intersection_body", "deep_point", "intersection_capacity"):
            out[f"intersections.{fn}.calls"] = calls(f"intersections.{fn}")
            out[f"intersections.{fn}.self_s"] = self_s(f"intersections.{fn}")
        out["intersections.intersection_concavity_check.self_s"] = self_s(
            "intersections.intersection_concavity_check")
        builds = calls("intersections.build_intersection_body")
        out["intersections.surrogate_vertices.mean"] = (
            c["intersections.surrogate_vertices"] / builds if builds else 0.0)
        out["intersections.audit_mean_rel_err.max"] = self.maxima.get(
            "intersections.audit_mean_rel_err", 0.0)
        out["loops.self_s"] = self_s("loops")
        out["trace.unattributed_s"] = self_s(TASK_SPAN)
        return out

    # -- patching ------------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span.  `before(args, kwargs)` may return replacement
        (args, kwargs); `after(result, args, kwargs)` records counters."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, modules, home, attr: str, wrapper_factory) -> None:
        original = getattr(home, attr)
        wrapper = wrapper_factory(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, wrapper_factory) -> None:
        self._set(cls, attr, wrapper_factory(cls.__dict__[attr]))

    def install(self) -> None:
        """Wrap the public layer functions of ehz; `uninstall` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from ehz import bodies, harness, intersections, loops, optimize, solver

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ehz" or name.startswith("ehz."))]

        for fam in SUPPORT_FAMILIES:
            cls = getattr(bodies, fam)
            self._patch_method(cls, "support_batch", lambda fn, fam=fam: self.span(
                f"bodies.support.{fam}", fn,
                after=lambda r, a, k, fam=fam: self.count(
                    f"bodies.support.{fam}.rows", len(a[1]))))
        self._patch_method(bodies.ConvexBody, "gauge_batch", lambda fn: self.span(
            "bodies.gauge", fn,
            after=lambda r, a, k: self.count("bodies.gauge.rows", len(a[1]))))
        self._patch_function(modules, bodies, "intersection_support_batch", lambda fn: self.span(
            "bodies.intersection_support", fn,
            after=lambda r, a, k: self.count("bodies.intersection_support.rows",
                                             len(k["U"] if "U" in k else a[2]))))

        def lbfgs_before(args, kwargs):
            objective = self.span("solver.quotient_fg", args[0])
            return (objective,) + tuple(args[1:]), kwargs

        def lbfgs_after(res, args, kwargs):
            self.count("optimize.lbfgs.iterations", res.iterations)
            self.count(f"optimize.lbfgs.status.{res.status}")

        self._patch_function(modules, optimize, "lbfgs", lambda fn: self.span(
            "optimize.lbfgs", fn, before=lbfgs_before, after=lbfgs_after))

        def counted(fg):
            def counting_fg(x):
                self.count("optimize.batched_descent.fg_evals")
                return fg(x)
            return counting_fg

        self._patch_function(modules, optimize, "batched_descent", lambda fn: self.span(
            "optimize.batched_descent", fn,
            before=lambda a, k: ((counted(a[0]),) + tuple(a[1:]), k)))

        def minimize_after(res, args, kwargs):
            lam, _, diagnostics = res
            self.count("solver.minimize.starts", len(diagnostics))
            self.count("solver.minimize.starts_agree",
                       sum(abs(d.lam - lam) <= AGREE_REL * abs(lam) for d in diagnostics))

        self._patch_function(modules, solver, "minimize", lambda fn: self.span(
            "solver.minimize", fn, after=minimize_after))
        for fn_name in ("certify", "capacity"):
            self._patch_function(modules, solver, fn_name,
                                 lambda fn, n=fn_name: self.span(f"solver.{n}", fn))
        for check in HARNESS_CHECKS:
            self._patch_function(modules, harness, check,
                                 lambda fn, n=check: self.span(f"harness.{n}", fn))

        def build_after(res, args, kwargs):
            _, audit = res
            self.count("intersections.surrogate_vertices", audit.vertex_count)
            self.high("intersections.audit_mean_rel_err", audit.mean_rel_error)

        self._patch_function(modules, intersections, "build_intersection_body",
                             lambda fn: self.span("intersections.build_intersection_body",
                                                  fn, after=build_after))
        for fn_name in ("deep_point", "intersection_capacity", "intersection_concavity_check"):
            self._patch_function(modules, intersections, fn_name,
                                 lambda fn, n=fn_name: self.span(f"intersections.{n}", fn))

        for fn_name in LOOP_FUNCTIONS:
            self._patch_function(modules, loops, fn_name, lambda fn: self.span("loops", fn))
        for cls_name, methods in LOOP_METHODS.items():
            cls = getattr(loops, cls_name)
            for meth in methods:
                self._patch_method(cls, meth, lambda fn: self.span("loops", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def task_span(self, task_id: int, fn):
        """Run fn as task `task_id` inside the root span of that task."""
        self.task = task_id
        i = self.open(self.name_id(TASK_SPAN))
        try:
            return fn()
        finally:
            self.close(i)
            self.task = -1


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_err.max"):
        return "rel"
    return "count"


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [(name, _unit(name), "higher" if name.endswith("status.gradient") else "lower")
             for name in [*Tracer().layer_metrics(), "trace.overhead_s"]]
