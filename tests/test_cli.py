import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehz.cli import main
from ehz.harness import InequalityReport


@pytest.fixture
def bodies(tmp_path):
    paths = {}
    docs = {
        "ball4": {"type": "ball", "r": 1.0, "dim": 4},
        "ball4_2": {"type": "ball", "r": 2.0, "dim": 4},
        "ellipsoid": {"type": "ellipsoid", "radii": [1.0, 2.0]},
        "ball2": {"type": "ball", "r": 1.0, "dim": 2},
        "odd": {"type": "polytope", "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]},
    }
    for name, doc in docs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_capacity_ball(bodies, capsys):
    code = main(["capacity", bodies["ball4"], "--modes", "8", "--starts", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["capacity"] == pytest.approx(math.pi, rel=1e-8)
    assert out["converged"]
    assert out["config"]["modes"] == 8
    assert out["certificates"]["euler_residual_rel"] <= 1e-8


def test_capacity_artifact_deterministic(bodies):
    out1 = bodies["dir"] / "a1.json"
    out2 = bodies["dir"] / "a2.json"
    assert main(["capacity", bodies["ellipsoid"], "--modes", "8", "--starts", "2",
                 "--seed", "5", "--out", str(out1)]) == 0
    assert main(["capacity", bodies["ellipsoid"], "--modes", "8", "--starts", "2",
                 "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # timestamps live in the sidecar, not the artifact
    assert (bodies["dir"] / "a1.json.meta.json").exists()
    assert "written_at" not in out1.read_text()


def test_capacity_cache_roundtrip(bodies, capsys):
    cache = str(bodies["dir"] / "cache")
    assert main(["capacity", bodies["ball4"], "--modes", "8", "--starts", "2",
                 "--cache", cache]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["capacity", bodies["ball4"], "--modes", "8", "--starts", "2",
                 "--cache", cache]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_capacity_csv_format(bodies, capsys):
    assert main(["capacity", bodies["ball4"], "--modes", "8", "--starts", "2",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    keys = dict(line.split(",", 1) for line in lines)
    assert float(keys["capacity"]) == pytest.approx(math.pi, rel=1e-8)


def test_carrier_csv(bodies, capsys):
    out = str(bodies["dir"] / "carrier.csv")
    code = main(["carrier", bodies["ball4"], "--modes", "8", "--starts", "2",
                 "--out", out])
    assert code == 0
    with open(out) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "z_1", "z_2", "z_3", "z_4"]
    summary = json.loads(capsys.readouterr().out)
    assert summary["capacity"] == pytest.approx(math.pi, rel=1e-8)


def test_bm_equality_exit_zero(bodies, capsys):
    code = main(["bm", bodies["ball4"], bodies["ball4_2"], "--p", "1",
                 "--modes", "8", "--starts", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["deficit"]) <= 1e-8 * out["rhs"]


def test_bm_csv_summary(bodies, capsys):
    code = main(["bm", bodies["ball4"], bodies["ball4_2"], "--p", "1", "--modes", "8",
                 "--starts", "2", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,lhs,rhs,deficit,pass"
    assert lines[1].startswith("bm,")


def test_usage_errors_exit_two(bodies, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "ellipsoid", "radius": [1, 2]}')
    assert main(["capacity", str(bad)]) == 2
    assert "radii" in capsys.readouterr().err

    assert main(["capacity", str(tmp_path / "missing.json")]) == 2

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{broken")
    assert main(["capacity", str(notjson)]) == 2
    assert "line" in capsys.readouterr().err


def test_odd_dimension_rejected(bodies, capsys):
    assert main(["capacity", bodies["odd"]]) == 2
    assert "even" in capsys.readouterr().err


def test_dimension_mismatch_between_files(bodies, capsys):
    assert main(["bm", bodies["ball4"], bodies["ball2"], "--modes", "8"]) == 2
    assert "dimension mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("side", [0, 1])
def test_intersect_rejects_a_non_quadratic_body(side, bodies, tmp_path, capsys):
    square = _write(tmp_path, "square.json", json.dumps(
        {"type": "polytope", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}))
    pair = [bodies["ball2"], square][::1 - 2 * side]
    assert main(["intersect", *pair, "--x", "0.1,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {square}: ") and "Polytope" in err
    assert "Traceback" not in err


def test_intersect_rejects_an_empty_intersection(bodies, capsys):
    assert main(["intersect", bodies["ball2"], bodies["ball2"], "--x", "2.5,0",
                 "--y", "2.5,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "empty" in err


def test_recipe_terms_that_are_not_an_array_exit_two(tmp_path, capsys):
    docs = ({"type": "psum", "p": 2, "terms": 5}, {"type": "intersection", "terms": None},
            {"type": "minkowski", "terms": {"a": 1}})
    for i, doc in enumerate(docs):
        path = _write(tmp_path, f"terms{i}.json", json.dumps(doc))
        assert main(["capacity", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: body.terms: expected an array of bodies")
        assert "Traceback" not in err


def test_unknown_flag_rejected(bodies):
    assert main(["capacity", bodies["ball4"], "--frobnicate"]) == 2


def test_meanwidth(bodies, capsys):
    code = main(["meanwidth", bodies["ball4"], "--samples", "5000", "--seed", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["estimate"] == pytest.approx(1.0, abs=1e-10)


def test_derivative_command(bodies, capsys):
    code = main(["derivative", bodies["ball4"], bodies["ball4"], "--modes", "8",
                 "--starts", "2", "--eps", "0.2,0.1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["passed"]


@pytest.mark.parametrize("command, check, witness", [
    ("isoperimetric", "isoperimetric_check", "chain_ok"),
    ("derivative", "directional_derivative", "monotone"),
    ("derivative", "directional_derivative", "sqrt_upper_ok"),
])
def test_report_exit_judges_the_auxiliary_witnesses(command, check, witness, bodies,
                                                    monkeypatch, capsys):
    # the deficit test passes but an auxiliary witness fails: exit 1
    report = InequalityReport("stub", 1.0, 1.0, 0.0, 1e-3, True, {witness: False})
    monkeypatch.setattr(f"ehz.cli.{check}", lambda *a, **k: report)
    assert main([command, bodies["ball4"], bodies["ball4"]]) == 1
    assert json.loads(capsys.readouterr().out)["passed"]


def test_suite_single_criterion(capsys):
    code = main(["suite", "--only", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ACCEPTANCE  1 [PASS]" in out
    assert "SUITE: 1/1" in out


def test_cache_hit_reports_the_current_body_path(bodies, tmp_path):
    # the same recipe at two paths: the second call is a cache hit and its
    # artifact differs from the first only in body.path
    cache = str(tmp_path / "cache")
    other = tmp_path / "copy" / "ball4.json"
    other.parent.mkdir()
    other.write_text((tmp_path / "ball4.json").read_text())
    arts = []
    for path in (bodies["ball4"], str(other)):
        out = tmp_path / f"art{len(arts)}.json"
        assert main(["capacity", path, "--modes", "8", "--starts", "2", "--cache", cache,
                     "--out", str(out)]) == 0
        arts.append(json.loads(out.read_text()))
    assert len(list((tmp_path / "cache").iterdir())) == 1
    assert [a["body"].pop("path") for a in arts] == [bodies["ball4"], str(other)]
    assert arts[0] == arts[1]


def test_cache_key_includes_package_version(bodies, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    argv = ["capacity", bodies["ball4"], "--modes", "8", "--starts", "2", "--cache", str(cache)]
    assert main(argv) == 0
    monkeypatch.setattr("ehz.cli.__version__", "0.0.0-other")
    assert main(argv) == 0
    assert len(list(cache.iterdir())) == 2


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BAD_INPUTS = {
    "modes-zero": (lambda b, t: ["capacity", b["ball4"], "--modes", "0"], "modes"),
    "modes-negative": (lambda b, t: ["capacity", b["ball4"], "--modes", "-3"], "modes"),
    "p-nan": (lambda b, t: ["capacity", b["ball4"], "--p", "nan"], "exponent p"),
    "bm-p-nan": (lambda b, t: ["bm", b["ball4"], b["ball4_2"], "--p", "nan"], "--p"),
    "samples-zero": (lambda b, t: ["meanwidth", b["ball4"], "--samples", "0"], "samples"),
    "eps-not-numbers": (lambda b, t: ["derivative", b["ball4"], b["ball4"], "--eps", "a,b"],
                        "--eps"),
    "only-unknown": (lambda b, t: ["suite", "--only", "99"], "criteria"),
    "only-not-numbers": (lambda b, t: ["suite", "--only", "x"], "--only"),
    "x-not-finite": (lambda b, t: ["intersect", b["ball4"], b["ball4"], "--x", "nan,0,0,0"],
                     "--x"),
    "seed-negative": (lambda b, t: ["capacity", b["ball4"], "--seed", "-1"], "seed"),
    "design-negative": (lambda b, t: ["intersect", b["ball4"], b["ball4"], "--x", "0.1,0,0,0",
                                      "--design", "-5"], "--design"),
    "design-zero": (lambda b, t: ["intersect", b["ball4"], b["ball4"], "--x", "0.1,0,0,0",
                                  "--design", "0"], "--design"),
    "design-below-2dim": (lambda b, t: ["intersect", b["ball4"], b["ball4"], "--x",
                                        "0.1,0,0,0", "--design", "4"], "--design"),
    "lam-outside": (lambda b, t: ["intersect", b["ball4"], b["ball4"], "--x", "0.1,0,0,0",
                                  "--lam", "2"], "lambda"),
    "radius-nan": (lambda b, t: ["capacity", _write(t, "r.json",
                                                    '{"type": "ball", "r": NaN, "dim": 4}')],
                   "radius"),
    "factor-infinite": (lambda b, t: ["capacity", _write(
        t, "f.json", '{"type": "scale", "factor": Infinity, '
                     '"body": {"type": "ball", "r": 1, "dim": 4}}')], "factor"),
    "vertices-nan": (lambda b, t: ["capacity", _write(
        t, "v.json", '{"type": "polytope", "vertices": [[1, 0], [0, 1], [-1, NaN]]}')],
        "vertices"),
    "dim-not-number": (lambda b, t: ["capacity", _write(t, "d.json",
                                                        '{"type": "ball", "r": 1, "dim": "x"}')],
                       "dim"),
    "dim-not-integral": (lambda b, t: ["capacity", _write(t, "d.json",
                                                          '{"type": "ball", "r": 1, "dim": 4.7}')],
                         "body.dim"),
    "dim-infinite": (lambda b, t: ["capacity", _write(t, "d.json",
                                                      '{"type": "ball", "r": 1, "dim": Infinity}')],
                     "body.dim"),
    "r-string": (lambda b, t: ["capacity", _write(t, "s.json",
                                                  '{"type": "ball", "r": "1", "dim": 4}')],
                 "body.r"),
    "p-boolean": (lambda b, t: ["capacity", _write(
        t, "p.json", '{"type": "psum", "p": true, "terms": [{"type": "ball", "r": 1, "dim": 4}, '
                     '{"type": "ball", "r": 2, "dim": 4}]}')], "body.p"),
    "radii-string-entry": (lambda b, t: ["capacity", _write(
        t, "e.json", '{"type": "ellipsoid", "radii": [1, "2"]}')], "body.radii[1]"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_two_naming_the_field(case, bodies, tmp_path, capsys):
    argv, field = BAD_INPUTS[case]
    assert main(argv(bodies, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


# -- the exit-code contract over generated command lines ---------------------------
#
# Each subcommand gets all its numeric flags; at most two of them take one of
# the usual bad values and the rest a valid one, so that a bad value also
# reaches the checks behind the argument parser.  Valid values keep a run
# cheap (1 mode, 1 start, small sample and design counts); `suite --only` gets
# no valid value, since a valid one runs a whole criterion.

UNUSUAL = ("0", "-1", "nan", "inf", "-inf", "abc")
SOLVER_FLAGS = {"--p": "2", "--modes": "1", "--starts": "1", "--seed": "3", "--tol": "1e-9"}
GRAMMAR = {
    "capacity": (("ball",), SOLVER_FLAGS),
    "carrier": (("ball",), SOLVER_FLAGS),
    "bm": (("ball", "ellipsoid"), SOLVER_FLAGS),
    "isoperimetric": (("ellipsoid", "ball"), SOLVER_FLAGS),
    "meanwidth": (("ball",), SOLVER_FLAGS | {"--samples": "500"}),
    "intersect": (("ball", "ellipsoid"),
                  SOLVER_FLAGS | {"--x": "0.1,0,0,0", "--y": "-0.1,0,0.05,0",
                                  "--lam": "0.5", "--design": "8"}),
    "derivative": (("ball", "ellipsoid"), SOLVER_FLAGS | {"--eps": "0.5,0.2"}),
    "suite": ((), {"--only": None}),
}


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    paths = {"out": str(d / "artifact")}
    for name, doc in (("ball", {"type": "ball", "r": 1.0, "dim": 4}),
                      ("ellipsoid", {"type": "ellipsoid", "radii": [0.9, 1.3]})):
        paths[name] = str(d / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_exit_code_contract(contract_files, data):
    command = data.draw(st.sampled_from(sorted(GRAMMAR)))
    positional, flags = GRAMMAR[command]
    argv = [command] + [contract_files[name] for name in positional]
    if command != "suite":
        argv.append(f"--out={contract_files['out']}")
    unusual = {flag for flag, valid in flags.items() if valid is None}
    unusual |= data.draw(st.sets(st.sampled_from(sorted(flags)), max_size=2), label="bad flags")
    for flag, valid in flags.items():
        value = data.draw(st.sampled_from(UNUSUAL), label=flag) if flag in unusual else valid
        argv.append(f"{flag}={value}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        message = err.getvalue()
        assert message.startswith("error: "), message
        assert any(flag in message for flag in unusual), message

