"""Command-line front end.

Subcommands:
  capacity BODY          capacity result document (JSON)
  carrier BODY           minimal-action characteristic as loop CSV
  bm K T                 p-sum superadditivity check
  isoperimetric K T      carrier-length bound check
  meanwidth K            Monte-Carlo mean width and capacity bound
  intersect K T          intersection concavity check
  derivative K T         directional-derivative check
  suite                  acceptance criteria

Body files are JSON recipe documents (see README).  Exit status: 0 on
success/pass, 1 on inequality failure or non-convergence, 2 on usage or
input errors.  Artifacts are deterministic for a fixed invocation and seed;
wall-clock metadata goes to a sidecar file, never into the artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .bodies import BodyError, ConvexBody, build_body, quadric
from .harness import (HarnessError, bm_check, directional_derivative, isoperimetric_check,
                      mean_width, mean_width_bound_check)
from .intersections import intersection_concavity_check
from .loops import write_loop_csv
from .solver import SolveConfig, SolverError, capacity
from .suite import CRITERIA, run_suite


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one "error: ..." line naming the argument, like every other exit-2 path
        self.exit(2, f"error: {message} (see '{self.prog} --help')\n")


def parse_body_file(path: str) -> ConvexBody:
    """Read and validate a body recipe document."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise UsageError(f"{path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    try:
        return build_body(doc)
    except BodyError as e:
        raise UsageError(f"{path}: {e}") from None


def _numbers(text: str, flag: str, convert=float) -> list:
    try:
        return [convert(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated numbers, got '{text}'") from None


def _vector(text: str, dim: int, flag: str) -> np.ndarray:
    vec = np.array(_numbers(text, flag), dtype=float)
    if not np.all(np.isfinite(vec)):
        raise UsageError(f"{flag}: components must be finite, got '{text}'")
    if vec.size != dim:
        raise UsageError(f"{flag}: expected {dim} components, got {vec.size}")
    return vec


# the SolveConfig field each solver flag sets, and the flag's argparse dest
# (the flag is --dest)
_CONFIG_DESTS = {"p": "p", "modes": "modes", "starts": "starts", "seed": "seed",
                 "grad_tol": "tol"}


def _config(args, **overrides) -> SolveConfig:
    fields = {name: getattr(args, dest) for name, dest in _CONFIG_DESTS.items()} | overrides
    # each field is validated alone, so that the message can name its flag
    for name, dest in _CONFIG_DESTS.items():
        try:
            SolveConfig(**{name: fields[name]})
        except ValueError as e:
            raise UsageError(f"--{dest}: {e}") from None
    return SolveConfig(**fields)


def _emit(args, payload: dict, csv_rows: list[list] | None = None) -> None:
    """Write the artifact (JSON or CSV); timestamps go to a sidecar file."""
    if args.format == "csv" and csv_rows is not None:
        text = "\n".join(",".join(str(v) for v in row) for row in csv_rows) + "\n"
    elif args.format == "csv":
        text = "\n".join(f"{k},{v}" for k, v in _flatten(payload)) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        sidecar = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                   "argv": sys.argv[1:]}
        with open(args.out + ".meta.json", "w") as fh:
            json.dump(sidecar, fh, indent=2)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _flatten(payload: dict, prefix: str = ""):
    for key, value in sorted(payload.items()):
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, name + ".")
        else:
            yield name, json.dumps(value, default=_jsonable)


def _resolved(args, extra=None) -> dict:
    return {dest: getattr(args, dest) for dest in _CONFIG_DESTS.values()} | (extra or {})


def _body_meta(path: str, body: ConvexBody) -> dict:
    return {"path": path, "dim": body.dim, "hash": body.content_hash()}


def _cache_lookup(args, bodies: list[ConvexBody]):
    if not getattr(args, "cache", None):
        return None, None
    os.makedirs(args.cache, exist_ok=True)
    key_src = json.dumps([__version__, [b.recipe() for b in bodies], _resolved(args)],
                         sort_keys=True)
    key = hashlib.sha256(key_src.encode()).hexdigest()[:24]
    path = os.path.join(args.cache, f"capacity-{key}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh), path
    return None, path


def cmd_capacity(args) -> int:
    body = parse_body_file(args.body)
    cached, cache_path = _cache_lookup(args, [body])
    if cached is not None:
        cached["body"] = _body_meta(args.body, body)
        _emit(args, cached)
        return 0 if cached.get("converged", False) else 1
    cfg = _config(args)
    result = capacity(body, cfg)
    payload = result.to_dict()
    payload["config"] = _resolved(args)
    payload["body"] = _body_meta(args.body, body)
    if cache_path:
        with open(cache_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
    _emit(args, payload)
    return 0 if result.converged else 1


def cmd_carrier(args) -> int:
    body = parse_body_file(args.body)
    cfg = _config(args)
    result = capacity(body, cfg)
    out = args.out or "carrier.csv"
    write_loop_csv(out, result.carrier, max(4 * result.carrier.loop.modes, 64),
                   include_derivatives=args.derivatives)
    summary = {"capacity": result.capacity, "action": result.carrier.action(),
               "csv": out, "converged": result.converged,
               "config": _resolved(args), "body": _body_meta(args.body, body)}
    if args.minimizer:
        write_loop_csv(args.minimizer, result.minimizer,
                       max(4 * result.minimizer.modes, 64),
                       include_derivatives=args.derivatives)
        summary["minimizer_csv"] = args.minimizer
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True, default=_jsonable) + "\n")
    return 0 if result.converged else 1


def _report_exit(args, report) -> int:
    payload = report.to_dict()
    payload["config"] = _resolved(args)
    _emit(args, payload, csv_rows=[["name", "lhs", "rhs", "deficit", "pass"],
                                   report.csv_row()])
    return 0 if report.all_ok() else 1


def _pair(args) -> tuple[ConvexBody, ConvexBody]:
    K = parse_body_file(args.K)
    T = parse_body_file(args.T)
    if K.dim != T.dim:
        raise UsageError(f"dimension mismatch: {args.K} has dim {K.dim}, "
                         f"{args.T} has dim {T.dim}")
    return K, T


def cmd_bm(args) -> int:
    # for this check --p selects the p-sum exponent (>= 1); the capacities
    # themselves are always solved at the default dual exponent 2
    K, T = _pair(args)
    if not 1 <= args.p < math.inf:
        raise UsageError(f"--p must be finite and >= 1 for the p-sum check, got {args.p}")
    return _report_exit(args, bm_check(K, T, args.p, _config(args, p=2.0)))


def cmd_isoperimetric(args) -> int:
    K, T = _pair(args)
    return _report_exit(args, isoperimetric_check(K, T, _config(args)))


def cmd_meanwidth(args) -> int:
    K = parse_body_file(args.body)
    cfg = _config(args)
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    if args.bound:
        report = mean_width_bound_check(K, cfg, samples=args.samples, seed=args.seed)
        return _report_exit(args, report)
    est = mean_width(K, samples=args.samples, seed=args.seed)
    payload = est.to_dict()
    payload["config"] = _resolved(args, {"samples": args.samples})
    payload["body"] = _body_meta(args.body, K)
    _emit(args, payload)
    return 0


def cmd_intersect(args) -> int:
    K, T = _pair(args)
    for path, body in ((args.K, K), (args.T, T)):
        try:
            quadric(body)
        except BodyError as e:
            raise UsageError(f"{path}: {e}") from None
    if args.design < 2 * K.dim:
        raise UsageError(f"--design must be at least 2*dim = {2 * K.dim}, got {args.design}")
    if not 0 <= args.lam <= 1:
        raise UsageError(f"--lam: the weight lambda must lie in [0, 1], got {args.lam}")
    x = _vector(args.x, K.dim, "--x")
    y = _vector(args.y, K.dim, "--y") if args.y else -x
    report = intersection_concavity_check(K, T, x, y, args.lam, _config(args),
                                          design_size=args.design)
    return _report_exit(args, report)


def cmd_derivative(args) -> int:
    K, T = _pair(args)
    schedule = tuple(_numbers(args.eps, "--eps"))
    if not (all(0 < e < math.inf for e in schedule)
            and all(a > b for a, b in zip(schedule, schedule[1:]))):
        raise UsageError(f"--eps must be finite, positive and strictly decreasing, "
                         f"got '{args.eps}'")
    report = directional_derivative(K, T, _config(args), schedule)
    return _report_exit(args, report)


def cmd_suite(args) -> int:
    only = _numbers(args.only, "--only", int) if args.only else None
    unknown = [n for n in only or () if n not in CRITERIA]
    if unknown:
        raise UsageError(f"--only: unknown criteria {unknown}; valid range is 1..{len(CRITERIA)}")
    results = run_suite(only)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([r.to_dict() for r in results], fh, indent=2, sort_keys=True)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ehz",
        description="EHZ capacity of convex bodies and its inequality harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bodies):
        for name, help_text in bodies:
            p.add_argument(name, help=help_text)
        p.add_argument("--p", type=float, default=2.0, help="dual-action exponent (default 2)")
        p.add_argument("--modes", type=int, default=16, help="Fourier modes (default 16)")
        p.add_argument("--starts", type=int, default=8, help="multistart count (default 8)")
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        p.add_argument("--tol", type=float, default=1e-9, help="gradient tolerance (default 1e-9)")
        p.add_argument("--out", help="artifact path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = common(sub.add_parser("capacity", help="capacity of one body"),
               [("body", "body recipe JSON file")])
    p.add_argument("--cache", help="directory memoizing results by body and config hash")
    p.set_defaults(func=cmd_capacity)

    p = common(sub.add_parser("carrier", help="minimal-action characteristic as CSV"),
               [("body", "body recipe JSON file")])
    p.add_argument("--derivatives", action="store_true", help="include dz columns")
    p.add_argument("--minimizer", help="also write the dual minimizer loop CSV here")
    p.set_defaults(func=cmd_carrier)

    p = common(sub.add_parser("bm", help="p-sum superadditivity check"),
               [("K", "first body"), ("T", "second body")])
    p.set_defaults(func=cmd_bm)

    p = common(sub.add_parser("isoperimetric", help="carrier length bound"),
               [("K", "carrier body"), ("T", "gauge body")])
    p.set_defaults(func=cmd_isoperimetric)

    p = common(sub.add_parser("meanwidth", help="Monte-Carlo mean width"),
               [("body", "centrally symmetric body")])
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--bound", action="store_true",
                   help="also check c(K) <= pi M*(K)^2")
    p.set_defaults(func=cmd_meanwidth)

    p = common(sub.add_parser("intersect", help="intersection concavity check"),
               [("K", "fixed body"), ("T", "translated body")])
    p.add_argument("--x", required=True, help="first shift, comma-separated")
    p.add_argument("--y", help="second shift (default: -x)")
    p.add_argument("--lam", type=float, default=0.5, help="interpolation weight")
    p.add_argument("--design", type=int, default=768, help="direction design size")
    p.set_defaults(func=cmd_intersect)

    p = common(sub.add_parser("derivative", help="directional derivative check"),
               [("K", "base body"), ("T", "direction body")])
    p.add_argument("--eps", default="0.5,0.2,0.1,0.05",
                   help="decreasing epsilon schedule, comma-separated")
    p.set_defaults(func=cmd_derivative)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers (default: all)")
    p.add_argument("--out", help="write JSON summary here")
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SolverError, BodyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, HarnessError) as e:
        # out-of-range input caught by the library itself (an interpolation
        # weight outside [0, 1], an unknown criterion, an empty intersection)
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
