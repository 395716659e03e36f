"""Benchmark of the ehz capacity pipeline: one workload per invocation.

    python3 perfbench/run.py --workload smooth|polytope|intersection
                             [--seed 0] [--seconds 30] [--trace 0|1] [--max-tasks N]

Run from anywhere inside a checkout; `ehz` is imported from the checkout's
`src/`.  The workload's tasks (built from the seed by `workloads.py`) form one
round, which runs back to back with one caller in this process (a closed
loop).  Rounds repeat while another one fits into `--seconds`; at least one
always runs.  Every task's result is checked, and every round must reproduce
the first round's numbers exactly.

With `--trace 0` the end-to-end metrics are measured with no tracing.  With
`--trace 1` untraced and traced rounds alternate: the traced rounds give the
per-layer metrics (see `spans.py`), and the gap between the two kinds of round
is the tracing overhead.  A report with units and sample counts goes to
stdout, the per-task record to `perfbench/results/`, and the last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
metric names and units of that line are the ones `BENCHMARK.json` lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# One BLAS thread: the solver's matrices are too small to gain from more, and
# one thread keeps timings independent of the core count.  Set before numpy
# loads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
ERR_FLOOR = 1e-9          # roundoff reorderings must not read as regressions
P90_MIN_TASKS = 100       # p90 only when >= 10 samples lie beyond it
HELD_OUT_SEED = 4099      # reserved for confirming claims made on other seeds

SETUP_SNIPPET = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]))"
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("smooth", "polytope", "intersection"))
    ap.add_argument("--seed", type=int, default=0,
                    help=f"input seed (default 0; {HELD_OUT_SEED} is the held-out seed)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measurement budget; whole rounds run until the next would overrun it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-tasks", type=int, default=None,
                    help="run only the first N tasks of the round (smoke tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.max_tasks is not None and args.max_tasks < 1:
        ap.error("--max-tasks must be at least 1")
    return args


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_ehz():
    """Import ehz from this checkout's src/, never from an installed copy."""
    if not (SRC / "ehz" / "__init__.py").is_file():
        fail(f"no ehz package under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ehz
    if Path(ehz.__file__).resolve().parent != (SRC / "ehz").resolve():
        fail(f"imported ehz from {ehz.__file__}, expected {SRC / 'ehz'}")
    return ehz


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": BLAS_THREADS,
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh-process `import ehz` plus input generation, as a CLI call pays it."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE), workload, str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up process failed:\n{proc.stderr}")
    return times


@dataclass
class Round:
    """Outcome of one pass over the task list."""

    traced: bool
    wall: float = 0.0
    task_times: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)        # Outcome, or None if it raised
    errors: list[str | None] = field(default_factory=list)
    layers: dict[str, float] | None = None


def run_round(tasks, tracer=None) -> Round:
    from workloads import Outcome
    rnd = Round(traced=tracer is not None)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t_round = time.perf_counter()
    try:
        for i, task in enumerate(tasks):
            t0 = time.perf_counter()
            try:
                result = task.run() if tracer is None else tracer.task_span(i, task.run)
            except Exception:  # a task that raises is a failed task, never retried
                rnd.task_times.append(time.perf_counter() - t0)
                rnd.outcomes.append(None)
                rnd.errors.append(traceback.format_exc(limit=3))
                continue
            rnd.task_times.append(time.perf_counter() - t0)
            try:
                outcome = task.check(result)
            except Exception:  # an unverifiable result counts as a failure
                outcome = Outcome(False, [], note="check raised")
                rnd.errors.append(traceback.format_exc(limit=3))
            else:
                rnd.errors.append(None)
            rnd.outcomes.append(outcome)
        rnd.wall = time.perf_counter() - t_round
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        rnd.layers = tracer.layer_metrics()
    return rnd


def task_failed(rnd: Round, i: int, reference: Round) -> bool:
    """Raised, failed its check, or did not reproduce the first round's numbers."""
    out = rnd.outcomes[i]
    if out is None or not out.ok:
        return True
    ref = reference.outcomes[i]
    return ref is not None and out.values != ref.values


def run_rounds(tasks, seconds: float, traced: bool) -> list[Round]:
    """Whole rounds until the next one would overrun the budget.  In traced
    mode each step is an untraced round followed by a traced one."""
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
    rounds: list[Round] = []
    steps: list[float] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(tasks))
        if tracer is not None:
            rounds.append(run_round(tasks, tracer))
        steps.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(steps) > seconds:
            return rounds


def tally(rounds: list[Round]) -> tuple[int, int]:
    """(tasks attempted, tasks failed) over every round."""
    first = rounds[0]
    attempted = sum(len(r.outcomes) for r in rounds)
    failed = sum(task_failed(r, i, first) for r in rounds for i in range(len(r.outcomes)))
    return attempted, failed


def _floored_max(values) -> float | None:
    values = [v for v in values if v is not None]
    return max(max(values), ERR_FLOOR) if values else None


def end_to_end(rounds: list[Round], setup: list[float]) -> dict[str, tuple]:
    """name -> (value or None, unit, sample count, note) over the untraced rounds."""
    import resource
    plain = [r for r in rounds if not r.traced]
    times = [t for r in plain for t in r.task_times]
    attempted, failed = tally(rounds)
    checked = [o for o in rounds[0].outcomes if o is not None]
    flags = [c for o in checked for c in o.converged]
    oracle = [o.oracle_err for o in checked if o.oracle_err is not None]
    certs = [o.cert_worst for o in checked if o.cert_worst is not None]
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) >= P90_MIN_TASKS else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup), "s", len(setup), "median fresh-process set-up"),
        "wall_s": (statistics.median(r.wall for r in plain), "s", len(plain),
                   f"median round of {len(rounds[0].outcomes)} tasks"),
        "task_s.p50": (statistics.median(times), "s", len(times), "median task"),
        "task_s.p90": (p90, "s", len(times),
                       "" if p90 is not None else f"undefined below {P90_MIN_TASKS} tasks"),
        "failed_frac": (failed / attempted, "ratio", attempted, "tasks"),
        "unconverged_frac": (sum(not c for c in flags) / len(flags) if flags else None,
                             "ratio", len(flags),
                             "solves reporting convergence" if flags else "no solve reports it"),
        "oracle_err.max": (_floored_max(oracle), "rel", len(oracle), f"floored at {ERR_FLOOR:g}"),
        "cert_worst.max": (_floored_max(certs), "rel", len(certs),
                           f"floored at {ERR_FLOOR:g}" if certs else "no task reports one"),
        "peak_rss_mb": (rss_mb, "MiB", 1, "this process"),
    }


def per_layer(rounds: list[Round]) -> tuple[dict[str, float], list[str]]:
    """Per-round layer metrics: counts from the first traced round (and a list
    of those that differ in later traced rounds), times as medians."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    out = {}
    unstable = []
    for name, value in traced[0].layers.items():
        series = [r.layers[name] for r in traced]
        if name.endswith("_s"):
            out[name] = statistics.median(series)
        else:
            out[name] = value
            if any(v != value for v in series):
                unstable.append(name)
    out["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                               - statistics.median(r.wall for r in plain))
    return out, unstable


def task_records(tasks, rounds: list[Round]) -> list[dict]:
    """Per task: the first round's numbers and check, and every untraced time."""
    first = rounds[0]
    records = []
    for i, task in enumerate(tasks):
        out = first.outcomes[i]
        records.append({
            "label": task.label,
            "ok": all(not task_failed(r, i, first) for r in rounds),
            "values": None if out is None else out.values,
            "oracle_err": None if out is None else out.oracle_err,
            "cert_worst": None if out is None else out.cert_worst,
            "converged": None if out is None else out.converged,
            "note": "raised" if out is None else out.note,
            "seconds": [r.task_times[i] for r in rounds if not r.traced],
            "errors": sorted({r.errors[i] for r in rounds if r.errors[i]}),
        })
    return records


def print_report(args, rounds, env, digest, e2e, records, layers, unstable) -> None:
    from spans import PER_LAYER
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} ({sum(r.traced for r in rounds)} traced) "
          f"tasks/round={len(records)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"numerics digest {digest} (per-task capacities and deficits)")
    print(f"{'metric':<18} {'value':>14} {'unit':<6} {'n':>6}  note")
    for name, (value, unit, n, note) in e2e.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<18} {shown:>14} {unit:<6} {n:>6}  {note}")
    for rec in records:
        if not rec["ok"]:
            print(f"FAILED {rec['label']}: {rec['note']} {' | '.join(rec['errors'])}")
    if args.trace:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<52} {layers[name]:>14.6g} {unit}")
        if unstable:
            print("counts that differ between traced rounds: " + ", ".join(unstable))


def selected_metrics(spec: dict, trace: bool, e2e: dict, layers: dict) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    from spans import PER_LAYER
    if trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        computed = {name: (value, units[name]) for name, value in layers.items()}
    else:
        computed = {name: (value, unit) for name, (value, unit, _, _) in e2e.items()}
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value, unit = computed.get(m["name"], (None, None))
        if value is None or unit != m["unit"]:
            fail(f"metric {m['name']} not computed with unit {m['unit']} on this workload")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return metrics


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import_ehz()
    import workloads  # loads numpy after the BLAS pin

    spec = load_spec()
    setup = measure_setup(args.workload, args.seed)
    tasks = workloads.build(args.workload, args.seed)[:args.max_tasks]
    rounds = run_rounds(tasks, args.seconds, traced=bool(args.trace))

    env = environment()
    e2e = end_to_end(rounds, setup)
    layers, unstable = per_layer(rounds) if args.trace else ({}, [])
    records = task_records(tasks, rounds)
    digest = hashlib.sha256(json.dumps([r["values"] for r in records]).encode()).hexdigest()[:16]
    print_report(args, rounds, env, digest, e2e, records, layers, unstable)

    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "digest": digest,
        "end_to_end": {k: {"value": v, "unit": u, "n": n, "note": note}
                       for k, (v, u, n, note) in e2e.items()},
        "per_layer": layers, "unstable_counts": unstable,
        "rounds": [{"traced": r.traced, "wall_s": r.wall} for r in rounds],
        "setup_s": setup, "tasks": records,
    }, indent=1))

    attempted, failed = tally(rounds)
    print(json.dumps({"correct": failed == 0 and not unstable, "attempted": attempted,
                      "failed": failed,
                      "metrics": selected_metrics(spec, bool(args.trace), e2e, layers)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
