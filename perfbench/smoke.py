"""Smoke test of the benchmark at minimal size.

    python3 perfbench/smoke.py

For every workload it runs `run.py` once untraced and twice traced, each with
a one-second budget (one round) over the first few tasks, and checks that

- the run succeeds and reports `correct: true`;
- the last line carries every metric BENCHMARK.json names, with its unit
  (end-to-end metrics untraced, per-layer metrics traced), and the report
  prints all nine end-to-end metrics with a unit and a sample count;
- untraced and traced runs yield identical per-task capacities and deficits;
- the two traced runs yield identical per-layer counts.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0
# The first tasks of each round: every smooth task kind, the heptagon ladder
# with one bm pair, and the 2D lens (the surrogate pipeline without the R^4
# checks).
MAX_TASKS = {"smooth": 30, "polytope": 2, "intersection": 1}
REPORTED = ("setup_s", "wall_s", "task_s.p50", "task_s.p90", "failed_frac",
            "unconverged_frac", "oracle_err.max", "cert_worst.max", "peak_rss_mb")


def run(workload: str, trace: int) -> tuple[list[str], dict, dict]:
    """One benchmark run: (stdout lines, last-line JSON, per-task record file)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--max-tasks", str(MAX_TASKS[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads((HERE / "results" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return lines, json.loads(lines[-1]), record


def check_metrics(result: dict, specs: list[dict], where: str) -> None:
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        assert got is not None, f"{where}: metric {spec['name']} missing"
        assert got["unit"] == spec["unit"], f"{where}: {spec['name']} has unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {spec['name']} not a number"
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    assert not extra, f"{where}: unlisted metrics {sorted(extra)}"


def check_report(lines: list[str], where: str) -> None:
    table = {line.split()[0]: line.split() for line in lines if line.split()}
    for name in REPORTED:
        row = table.get(name)
        assert row is not None and len(row) >= 4, f"{where}: report lacks {name}"
        assert row[3].isdigit(), f"{where}: {name} has no sample count"


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if not k.endswith("_s")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    failures = []
    for workload in workloads:
        try:
            lines, plain, plain_rec = run(workload, 0)
            assert plain["correct"], f"{workload}: untraced run not correct"
            check_metrics(plain, spec["end_to_end"], f"{workload} untraced")
            check_report(lines, f"{workload} untraced")
            traced = []
            for _ in range(2):
                _, result, record = run(workload, 1)
                assert result["correct"], f"{workload}: traced run not correct"
                check_metrics(result, spec["per_layer"], f"{workload} traced")
                traced.append((result, record))
            for result, record in traced:
                assert [t["values"] for t in record["tasks"]] == \
                    [t["values"] for t in plain_rec["tasks"]], \
                    f"{workload}: traced capacities differ from untraced ones"
            assert counts(traced[0][0]) == counts(traced[1][0]), \
                f"{workload}: per-layer counts differ between traced runs"
            print(f"ok   {workload}")
        except AssertionError as exc:
            failures.append(str(exc))
            print(f"FAIL {workload}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
