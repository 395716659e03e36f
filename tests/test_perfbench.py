"""The benchmark under perfbench/ reaches into ehz by name.

Its tracer wraps public functions and methods found by name, and its
workloads build their tasks from the public API.  These tests install and
uninstall the tracer and build every workload's task list, so renaming or
deleting a name the benchmark uses fails here, not only in a traced run of
the benchmark itself.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TASK_COUNTS = {"smooth": 30, "polytope": 19, "intersection": 6}


def _namespaces():
    """Every ehz module and every class defined in one, by identity."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "ehz" or name.startswith("ehz."))]
    classes = {cls for m in modules for cls in vars(m).values()
               if isinstance(cls, type) and cls.__module__.startswith("ehz")}
    return modules + sorted(classes, key=lambda c: (c.__module__, c.__qualname__))


def test_tracer_patches_by_name_and_uninstall_restores_every_original():
    import ehz.bodies as bodies

    before = {id(ns): (ns, dict(vars(ns))) for ns in _namespaces()}
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert bodies.Ball.support_batch is not before[id(bodies.Ball)][1]["support_batch"]
        bodies.Ball(1.0, 2).support_batch(np.eye(2))
        assert tracer.counts["bodies.support.Ball.rows"] == 2
        assert tracer.self_times()["bodies.support.Ball"][0] == 1
    finally:
        tracer.uninstall()
    for ns, attrs in before.values():
        now = dict(vars(ns))
        assert now.keys() == attrs.keys(), ns
        changed = [key for key, value in attrs.items() if now[key] is not value]
        assert not changed, f"{ns} keeps patched attributes {changed}"


def test_tracer_reports_every_per_layer_metric_of_the_benchmark():
    assert [name for name, _, _ in spans.PER_LAYER] == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_builds_its_task_list(workload):
    tasks = workloads.build(workload, 0)
    assert len(tasks) == TASK_COUNTS[workload]
    assert all(callable(t.run) and callable(t.check) for t in tasks)
