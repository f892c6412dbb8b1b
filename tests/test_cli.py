import json
import math

import numpy as np
import pytest

from skorokhod2d import cli, errors, serialize
from skorokhod2d.classify import ReflectionMatrix2
from skorokhod2d.cli import run
from skorokhod2d.paths import FLOAT, PLPath2
from skorokhod2d.verifier import SolutionTriple, verify


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_driving_path(tmp_path, name="f.json"):
    ts = np.linspace(0.0, 1.0, 21)
    vals = [(float(np.sin(5 * t)), float(np.cos(3 * t) - 1.0)) for t in ts]
    f = PLPath2(tuple(float(t) for t in ts), tuple(vals), FLOAT)
    path = tmp_path / name
    path.write_text(json.dumps(serialize.path_to_json(f)))
    return path


def test_classify_json_and_exit_code(capsys):
    code, doc = run_json(capsys, ["classify", "--a1", "-2", "--a2", "1"])
    assert code == 0
    assert doc["regime"] == "Case4_NonUniqueOpposite"
    assert doc["radius"] == pytest.approx(2**0.5, abs=1e-12)
    assert doc["completely_s"] is True


def test_classify_exact_flag(capsys):
    code, doc = run_json(capsys, ["classify", "--a1", "-1", "--a2", "1", "--exact"])
    assert code == 0
    assert doc["regime"] == "Case2_UniqueCritical"
    assert doc["radius_exact"] is True
    assert doc["critical_caveat"] is False


def test_classify_rejects_garbage():
    assert run(["classify", "--a1", "spam", "--a2", "1"]) == 2


def test_solve_fixed_and_grid(tmp_path, capsys):
    fpath = write_driving_path(tmp_path)
    for method in ("fixed", "grid"):
        code, doc = run_json(
            capsys,
            ["solve", "--matrix=-0.5,0.5", "--f", str(fpath),
             "--method", method, "--tol", "1e-11"],
        )
        assert code == 0
        assert doc["converged"] is True
        assert doc["g"]["mode"] == "float"


def test_solve_writes_out_file(tmp_path, capsys, monkeypatch):
    fpath = write_driving_path(tmp_path)
    out = tmp_path / "sol.json"
    encoded = []  # every document json encodes, through dumps or dump
    iterencode = json.JSONEncoder.iterencode

    def counting(self, o, *args, **kwargs):
        encoded.append(o)
        return iterencode(self, o, *args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", counting)
    code = run(["solve", "--matrix=-0.5,0.5", "--f", str(fpath), "--out", str(out)])
    monkeypatch.undo()
    assert code == 0
    text = out.read_text()
    saved = json.loads(text)
    assert {"g", "m", "iterations", "converged", "residual"} <= set(saved)
    assert capsys.readouterr().out == text + "\n"
    assert encoded == [saved]


def test_solve_missing_file_is_usage_error():
    assert run(["solve", "--matrix=-0.5,0.5", "--f", "/nonexistent.json"]) == 2


def test_counterexample_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    code, doc = run_json(
        capsys,
        ["counterexample", "--a1", "-2", "--depth", "8", "--verify",
         "--out", str(out)],
    )
    assert code == 0
    assert doc["mode"] == "exact"
    assert doc["gap_at_end"] == [3.0, 0.0]
    assert doc["identities_ok"] is True
    assert doc["verify"]["pass"] is True and doc["verify_bar"]["pass"] is True
    bundle = serialize.bundle_from_json(json.loads(out.read_text()))
    assert bundle.depth == 8 and bundle.u.mode == "exact"


def test_counterexample_bad_depth_exits_2():
    assert run(["counterexample", "--a1", "-2", "--depth", "7"]) == 2


@pytest.mark.parametrize("a1, depth", [("-2", 10**20), ("-2", 16384), ("-4", 11588), ("-1048576", 3664)])
def test_counterexample_too_deep_for_exact_arrays_exits_2(tmp_path, capsys, a1, depth):
    # refused before any array is built, naming the bound; -2 at 16,380 and
    # -4 at 11,580 are the deepest that stay within it
    svg = str(tmp_path / "x.svg")
    for argv in (["counterexample", "--a1", a1, "--depth", str(depth), "--verify"],
                 ["figure", "--a1", a1, "--depth", str(depth), "--out", svg]):
        assert run(argv) == 2
        assert f"MAX_EXACT_BITS = {serialize.MAX_EXACT_BITS} bits" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_verify_pass_and_fail_exit_codes(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    assert run(["counterexample", "--a1", "-2", "--depth", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    bundle_doc = json.loads(out.read_text())
    bundle = serialize.bundle_from_json(bundle_doc)
    triple_path = tmp_path / "triple.json"
    triple_path.write_text(json.dumps(serialize.triple_to_json(bundle.triple())))
    code, doc = run_json(capsys, ["verify", "--triple", str(triple_path), "--tol", "0"])
    assert code == 0 and doc["pass"] is True

    # corrupt g so the equation residual is visible
    broken = json.loads(triple_path.read_text())
    broken["g"]["values"][0][0] = {"m": "1", "e": 0}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(broken))
    code, doc = run_json(capsys, ["verify", "--triple", str(bad_path), "--tol", "0"])
    assert code == 1 and doc["pass"] is False


def test_verify_exits_1_on_a_dip_next_to_another_breakpoint(tmp_path, capsys):
    # g dips to -10^6 at a breakpoint 2^-45 after f's and m's 0.5
    f = PLPath2((0.0, 0.5, 1.0), ((1.0, 1.0),) * 3, FLOAT)
    m = PLPath2((0.0, 0.5, 1.0), ((0.0, 0.0),) * 3, FLOAT)
    g = PLPath2((0.0, 0.5, 0.5 + 2.0**-45, 1.0), ((1.0, 1.0), (1.0, 1.0), (-1e6, 1.0), (1.0, 1.0)), FLOAT)
    path = tmp_path / "dip.json"
    path.write_text(json.dumps(serialize.triple_to_json(SolutionTriple(ReflectionMatrix2(-0.5, 0.5), f, g, m))))
    code, doc = run_json(capsys, ["verify", "--triple", str(path), "--tol", "1e-9"])
    assert code == 1 and doc["pass"] is False and doc["min_g"] == -1e6


def test_compare_counterexample_solutions(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    assert run(["counterexample", "--a1", "-2", "--depth", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    bundle = serialize.bundle_from_json(json.loads(out.read_text()))
    p1 = tmp_path / "s1.json"
    p2 = tmp_path / "s2.json"
    p1.write_text(json.dumps(serialize.triple_to_json(bundle.triple())))
    p2.write_text(json.dumps(serialize.triple_to_json(bundle.triple_bar())))
    code, doc = run_json(capsys, ["compare", "--s1", str(p1), "--s2", str(p2)])
    assert code == 0
    assert doc["max_v"] == 1.0
    assert doc["v_monotone_on_support"] is False


def test_figure_subcommand(tmp_path, capsys):
    out = tmp_path / "spiral.svg"
    code, doc = run_json(
        capsys, ["figure", "--a1", "-2", "--depth", "8", "--out", str(out)]
    )
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert doc["breakpoints"] == 9


def test_figure_deterministic(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert run(["figure", "--a1", "-2", "--depth", "8", "--out", str(a)]) == 0
    assert run(["figure", "--a1", "-2", "--depth", "8", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_usage_error_unknown_tol():
    assert run(["verify", "--triple", "/nope.json", "--tol", "0"]) == 2


def test_float_counterexample_certifies(capsys):
    # a1 = -1.5 runs in float mode; breakpoints 2^-40 and 2^-39 stay distinct
    code, doc = run_json(capsys, ["counterexample", "--a1", "-1.5", "--verify"])
    assert doc["mode"] == "float"
    assert code == 0 and doc["verify"]["pass"] and doc["verify_bar"]["pass"]


def test_document_missing_key_exits_2(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    assert run(["counterexample", "--a1", "-2", "--depth", "8", "--out", str(out)]) == 0
    bundle = serialize.bundle_from_json(json.loads(out.read_text()))
    doc = serialize.triple_to_json(bundle.triple())
    del doc["g"]
    triple_path = tmp_path / "triple.json"
    triple_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", "--triple", str(triple_path)]) == 2
    assert "missing key 'g'" in capsys.readouterr().err


def test_malformed_inputs_exit_2(tmp_path):
    assert run(["counterexample", "--a1", "1/0"]) == 2
    svg = str(tmp_path / "x.svg")
    assert run(["figure", "--a1", "1/0", "--out", svg]) == 2
    assert run(["figure", "--depth", "8", "--range", "0", "--out", svg]) == 2
    assert run(["figure", "--depth", "8", "--min-time", "2", "--out", svg]) == 2
    bundle = str(tmp_path / "b.json")
    assert run(["counterexample", "--depth", "8", "--out", bundle, "--figure", svg,
                "--min-time", "2"]) == 2
    assert not list(tmp_path.iterdir())
    fpath = write_driving_path(tmp_path)
    assert run(["solve", "--matrix=-0.5,0.5", "--f", str(fpath), "--grid-steps", "-3"]) == 2


def test_negative_tol_exits_2(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    assert run(["counterexample", "--a1", "-2", "--depth", "8", "--out", str(out)]) == 0
    bundle = serialize.bundle_from_json(json.loads(out.read_text()))
    triple_path = tmp_path / "triple.json"
    triple_path.write_text(json.dumps(serialize.triple_to_json(bundle.triple())))
    capsys.readouterr()
    assert run(["verify", "--triple", str(triple_path), "--tol=-1"]) == 2
    assert "tol must be nonnegative" in capsys.readouterr().err
    t = str(triple_path)
    assert run(["compare", "--s1", t, "--s2", t, "--tol=-1"]) == 2
    assert "tol must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["times", "values"])
def test_non_finite_float_inputs_exit_2(tmp_path, capsys, bad, field):
    # json writes NaN and Infinity tokens; a float path refuses them
    f = serialize.path_from_json(json.loads(write_driving_path(tmp_path).read_text()))
    doc = serialize.path_to_json(f)
    if field == "times":
        doc["times"][-1] = bad  # +inf there still looks strictly increasing
    else:
        doc["values"][3][1] = bad
    fpath = tmp_path / "bad_f.json"
    fpath.write_text(json.dumps(doc))
    for method in ("fixed", "grid"):
        assert run(["solve", "--matrix=-0.5,0.5", "--f", str(fpath), "--method", method]) == 2
    triple = {"matrix": {"a1": -0.5, "a2": 0.5}, "f": serialize.path_to_json(f),
              "g": serialize.path_to_json(f), "m": doc}
    tpath = tmp_path / "bad_triple.json"
    tpath.write_text(json.dumps(triple))
    assert run(["verify", "--triple", str(tpath)]) == 2
    assert capsys.readouterr().out == ""


def test_float_int_beyond_double_range_exits_2(tmp_path, capsys):
    # a JSON integer that no double holds is a malformed float scalar
    doc = serialize.path_to_json(serialize.path_from_json(json.loads(write_driving_path(tmp_path).read_text())))
    doc["values"][3][1] = 10**400
    fpath = tmp_path / "big.json"
    fpath.write_text(json.dumps(doc))
    assert run(["solve", "--matrix=-0.5,0.5", "--f", str(fpath)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed float scalar: 1000")
    assert captured.out == ""


def test_diverging_fixed_point_exits_2(tmp_path, capsys):
    # R = (-2, -2) is not completely-S: the sweeps overflow
    fpath = write_driving_path(tmp_path)
    assert run(["solve", "--matrix=-2,-2", "--f", str(fpath), "--method", "fixed"]) == 2
    captured = capsys.readouterr()
    assert "diverged" in captured.err
    assert captured.out == ""


#: one instance of each class in `errors`, with the stdlib class it keeps
PACKAGE_ERRORS = [
    (errors.SkorokhodError("base"), Exception),
    (errors.ExactnessError("inexact"), ArithmeticError),
    (errors.UsageError("usage"), ValueError),
    (errors.DomainError("domain"), ValueError),
    (errors.InvalidMatrixError("matrix"), ValueError),
    (errors.ConstructionError("construction"), ValueError),
    (errors.StepInfeasibleError("infeasible", 3), RuntimeError),
    (errors.DivergenceError(2, 7), ArithmeticError),
]


def test_every_package_error_exits_2_with_one_line(capsys, monkeypatch):
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__}
    assert {type(exc) for exc, _ in PACKAGE_ERRORS} == classes
    for exc, stdlib in PACKAGE_ERRORS:
        assert isinstance(exc, errors.SkorokhodError) and isinstance(exc, stdlib)

        def handler(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "_cmd_classify", handler)
        assert run(["classify", "--a1", "1", "--a2", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {exc}\n"


@pytest.mark.parametrize("times, values, method, message", [
    ([0, 1, 2], [[1.5e308, 1], [-1.5e308, 1], [0, 1]], "fixed", "an increment"),
    ([0, 1, 2], [[1.5e308, 1], [-1.5e308, 1], [0, 1]], "grid", "an increment"),
    ([0, 5e-324, 1], [[1, 1], [2, 2], [1, 1]], "grid", "a slope"),
], ids=["overflow-fixed", "overflow-grid", "short-segment-grid"])
def test_solve_refuses_a_driver_past_the_double_range(tmp_path, capsys, times, values, method,
                                                      message):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"mode": "float", "times": times, "values": values}))
    assert run(["solve", "--matrix=0.3,-0.4", "--f", str(fpath), "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} of the driving function is beyond the double range\n"


@pytest.mark.parametrize("content", [
    # json reads an integer of more digits than the interpreter converts as a
    # ValueError that is no JSONDecodeError
    pytest.param(b'{"mode": "float", "times": [0, 1], "values": [[0, 0], [0, %s]]}' % (b"9" * 5000),
                 id="integer-past-the-digit-limit"),
    pytest.param(b"\xff\xfe{}", id="bad-utf-8"),
    pytest.param(b'{"mode": ', id="malformed-json"),
])
def test_unreadable_json_exits_2_with_one_line(tmp_path, capsys, content):
    (tmp_path / "doc.json").write_bytes(content)
    path = str(tmp_path / "doc.json")
    for argv in (["solve", "--matrix=-0.5,0.5", "--f", path],
                 ["verify", "--triple", path],
                 ["compare", "--s1", path, "--s2", path]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not a readable JSON document")
        assert captured.err.count("\n") == 1 and len(captured.err) < 300


@pytest.mark.parametrize("method", ["fixed", "grid"])
def test_solve_on_a_coarser_grid_keeps_the_breakpoints_of_f(tmp_path, capsys, method):
    fpath = write_driving_path(tmp_path)
    code, doc = run_json(capsys, ["solve", "--matrix=-0.5,0.5", "--f", str(fpath),
                                  "--method", method, "--grid-steps", "7", "--tol", "1e-11"])
    assert code == 0 and doc["converged"] is True
    f = serialize.path_from_json(json.loads(fpath.read_text()))
    g, m = serialize.path_from_json(doc["g"]), serialize.path_from_json(doc["m"])
    # f's 21 breakpoints and the grid's 6 interior ones
    assert set(f.times) | set(np.linspace(0.0, 1.0, 8).tolist()) <= set(g.times)
    triple = SolutionTriple(ReflectionMatrix2(-0.5, 0.5), f, g, m)
    assert verify(triple, 1e-9).passed


def test_counterexample_figure_is_the_figure_subcommands(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(["counterexample", "--a1", "-2", "--depth", "8", "--figure", str(a)]) == 0
    assert run(["figure", "--a1", "-2", "--depth", "8", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_verify_matrix_overrides_the_documents(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    assert run(["counterexample", "--a1", "-2", "--depth", "8", "--out", str(out)]) == 0
    doc = serialize.triple_to_json(serialize.bundle_from_json(json.loads(out.read_text())).triple())
    doc["matrix"] = {"a1": {"m": "-1", "e": 0}, "a2": {"m": "1", "e": 0}}  # a wrong matrix
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", "--triple", str(path)]) == 1
    assert run(["verify", "--triple", str(path), "--matrix=-2,1"]) == 0
    assert run(["verify", "--triple", str(path), "--matrix=-1/2,1"]) == 1


def test_matrix_needs_two_entries(tmp_path, capsys):
    fpath = write_driving_path(tmp_path)
    assert run(["solve", "--matrix=1", "--f", str(fpath)]) == 2
    assert "--matrix expects 'a1,a2'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify", "--a1", "1e400", "--a2", "1"],
    ["classify", "--a1", "1", "--a2=-1e400"],
    ["counterexample", "--a1=-1e400"],
    ["figure", "--a1=-1e400", "--out", "{tmp}/x.svg"],
    ["solve", "--matrix=1e400,1", "--f", "{f}"],
    ["solve", "--matrix=-0.5,-1e400", "--f", "{f}"],
    ["solve", "--matrix=-0.5,0.5", "--f", "{f}", "--tol", "1e400", "--out", "{tmp}/x.svg"],
    ["solve", "--matrix=-0.5,0.5", "--f", "{f}", "--damping=-1e400", "--out", "{tmp}/x.svg"],
    ["counterexample", "--min-time", "1e400", "--figure", "{tmp}/x.svg"],
    ["figure", "--min-time", "1e400", "--out", "{tmp}/x.svg"],
    ["figure", "--range", "1e400", "--out", "{tmp}/x.svg"],
])
def test_numbers_beyond_the_double_range_exit_2(tmp_path, capsys, argv):
    f = write_driving_path(tmp_path)
    argv = [a.format(tmp=tmp_path, f=f) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: number beyond the double range: '")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_tol_beyond_the_double_range_exits_2(tmp_path, capsys, command):
    out = tmp_path / "bundle.json"
    assert run(["counterexample", "--a1", "-2", "--depth", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    files = ["--triple", str(out)] if command == "verify" else ["--s1", str(out), "--s2", str(out)]
    for tol in ("1e400", "-1e400"):
        assert run([command, *files, f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: number beyond the double range: '{tol}'\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--triple", "{f}", "--tol", "spam"], "not a number: 'spam'"),
    (["compare", "--s1", "{f}", "--s2", "{f}", "--tol", "spam"], "not a number: 'spam'"),
    (["solve", "--matrix=-0.5,0.5", "--f", "{f}", "--damping", "spam", "--out", "{tmp}/x.svg"],
     "not a number: 'spam'"),
    (["figure", "--range", "inf", "--out", "{tmp}/x.svg"], "not a number: 'inf'"),
    (["figure", "--range=-1", "--out", "{tmp}/x.svg"], "--range must be positive"),
    (["figure", "--size", "0", "--out", "{tmp}/x.svg"], "--size must be >= 1"),
])
def test_bad_float_flags_exit_2_with_one_line(tmp_path, capsys, argv, message):
    f = write_driving_path(tmp_path)
    assert run([a.format(tmp=tmp_path, f=f) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("path, index, part, bad", [
    ("g", "times", "e", 0.5),      # the last time, 1 = {"m": "1", "e": 0}
    ("m", "values", "m", 15.25),   # m1 at the sixth time, {"m": "15", "e": -4}
])
def test_verify_refuses_a_bundle_with_a_non_integer_part(tmp_path, capsys, path, index, part, bad):
    # int() of the bad part is the good one, so truncating it would certify
    out = tmp_path / "bundle.json"
    assert run(["counterexample", "--depth", "8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    scalar = doc[path][index][-1] if index == "times" else doc[path][index][5][0]
    assert int(scalar[part]) == int(bad)
    scalar[part] = bad
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", "--triple", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed exact scalar: {scalar!r}\n"


@pytest.mark.parametrize("a,radius", [
    ("1e308", 1e308),                        # a1*a2 overflows
    ("1e-200", 1e-200),                      # a1*a2 underflows to 0
    ("1.7976931348623157e308", 1.7976931348623157e308),
    ("5e-324", 5e-324),
])
def test_classify_radius_beyond_the_product_range(capsys, a, radius):
    code = run(["classify", "--a1", a, "--a2", a])
    out = capsys.readouterr().out
    assert code == 0 and "Infinity" not in out
    doc = json.loads(out)
    assert doc["radius"] == radius and doc["radius_exact"] is False


def test_classify_exact_radius_beyond_the_double_range_exits_2(capsys):
    big = str(2**1100)
    assert run(["classify", "--exact", "--a1", big, "--a2", big]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spectral radius sqrt(|a1*a2|) beyond the double range\n"
    # a radius inside the range is reported, though an entry or a1*a2 is past it
    code, doc = run_json(capsys, ["classify", "--exact", "--a1", big, "--a2", f"1/{2**1000}"])
    assert code == 0 and doc["radius"] == 2.0**50 and doc["radius_exact"] is True
    code, doc = run_json(capsys, ["classify", "--exact", "--a1", "3", "--a2", big])
    assert code == 0 and doc["radius"] == math.sqrt(3) * 2.0**550 and doc["radius_exact"] is False


def _exact_triple(gm):
    """An exact triple document on t in {0, 1} with f = 0 and g = m = gm."""
    zero = {"m": "0", "e": 0}
    path = lambda v: {"mode": "exact", "times": [zero, {"m": "1", "e": 0}], "values": [[v, v]] * 2}
    half = {"m": "1", "e": -1}
    return {"matrix": {"a1": half, "a2": half}, "f": path(zero), "g": path(gm), "m": path(gm)}


def test_reports_past_the_double_range_exit_2_with_one_line(tmp_path, capsys):
    # 2^2000 is in the exact range, but no double holds the report's values
    big, zero = tmp_path / "big.json", tmp_path / "zero.json"
    big.write_text(json.dumps(_exact_triple({"m": "1", "e": 2000})))
    zero.write_text(json.dumps(_exact_triple({"m": "0", "e": 0})))
    for argv in (["verify", "--triple", str(big)], ["compare", "--s1", str(big), "--s2", str(zero)]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a reported value is beyond the double range\n"
    assert run(["compare", "--s1", str(big), "--s2", str(big)]) == 0  # u = 0 is reported
    capsys.readouterr()


@pytest.mark.parametrize("tail, message", [
    (math.inf, "tail_bound must be finite, got inf"),
    (math.nan, "tail_bound must be finite, got nan"),
    (-1.0, "tail_bound must be nonnegative, got -1.0"),
])
def test_a_tail_bound_that_is_not_finite_and_nonnegative_exits_2(tmp_path, capsys, tail, message):
    # m(0) = (0.5, 0.5) passes only under a tail bound of at least 0.5
    path = lambda v: {"mode": "float", "times": [0, 1], "values": [[v, v]] * 2}
    doc = {"matrix": {"a1": 0.5, "a2": 0.5}, "f": path(0.0), "g": path(0.75), "m": path(0.5)}
    tpath = tmp_path / "triple.json"
    tpath.write_text(json.dumps(dict(doc, tail_bound=tail)))
    assert run(["verify", "--triple", str(tpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    tpath.write_text(json.dumps(dict(doc, tail_bound=0.5)))
    code, report = run_json(capsys, ["verify", "--triple", str(tpath)])
    assert code == 0 and report["pass"] is True and report["tail_bound"] == 0.5
