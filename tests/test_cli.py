import argparse
import contextlib
import glob
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import nonarch
from nonarch import cli
from nonarch.cli import dispatch, main

from helpers import current_json, graph_json


def run(argv):
    return dispatch(argv)


# no --prec, and one above the default
PRECS = ([], ["--prec", "100"])


def exact_precs(report):
    """The prec of every p-adic value in a report."""
    if isinstance(report, dict):
        own = [report["exact"]["prec"]] if "exact" in report else []
        return own + [n for v in report.values() for n in exact_precs(v)]
    return []


def test_moebius_check_example():
    for prec in PRECS:
        code, payload = run(["moebius-check", "--p", "3", "--q", "p", "--n", "1",
                             "--J", "10"] + prec)
        assert code == 0
        res = payload["result"]
        assert res["ok"] is True
        assert res["value"] == "p + O(p^11)"
        assert res["target"] == "p + O(p^11)"


def test_moebius_check_shows_every_digit_below_the_error_at_prec_100():
    # q = 3/2 has digits at every power of p; the value's reach p^90
    code, payload = run(["moebius-check", "--p", "3", "--q", "3/2", "--n", "1",
                         "--J", "90", "--prec", "100"])
    assert code == 0
    res = payload["result"]
    assert res["ok"] is True
    assert res["value"] == res["target"]
    assert res["value"].endswith(" + p^90 + O(p^91)")


def test_splitting_radius_example():
    code, payload = run(["splitting-radius", "--p", "3", "--N", "2", "--n", "4"])
    assert code == 0
    assert payload["result"]["logradius"] == "9/4"


def test_splitting_radius_numeric_agrees():
    code, payload = run(["splitting-radius", "--p", "2", "--N", "3", "--n", "2",
                         "--numeric"])
    assert code == 0
    assert payload["result"]["agrees"] is True


def test_as_genus():
    code, payload = run(["as-genus", "--e", "6", "--p", "5"])
    assert code == 0
    assert payload["result"]["genus"] == 10
    assert payload["result"]["forces_vertex"] is True


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["splitting-radius", "--p", "3", "--N", "2", "--n", "4",
              "--no-such-flag"])
    assert exc.value.code == 2


def test_order_set_and_find_order(tmp_path):
    poles = tmp_path / "poles.json"
    poles.write_text(json.dumps(
        {"p": 5, "x": "0", "poles": ["1", "2", "3", "4"]}))
    code, payload = run(["order-set", "--poles", str(poles), "--nmax", "3"])
    assert code == 0
    assert payload["result"]["dims"] == [0, 1, 2, 3]
    assert payload["result"]["inequality_dim_le_C_u"] is True
    code, payload = run(["find-order", "--poles", str(poles)])
    assert code == 0
    k = payload["result"]["order"]
    n = k + 1
    while n % 5 == 0:
        n //= 5
    assert n != 1


def test_find_order_failure_exit_4(tmp_path):
    poles = tmp_path / "poles.json"
    poles.write_text(json.dumps({"p": 2, "x": "0", "poles": ["1", "3"]}))
    code, payload = run(["find-order", "--poles", str(poles)])
    assert code == 4
    assert payload["error"]["kind"] == "NoAdmissibleOrderError"


def test_current_validate_and_delta(tmp_path):
    from nonarch import Current
    cur = Current.windowed({1: 1, 2: -1})
    f = tmp_path / "current.json"
    f.write_text(json.dumps(current_json(cur)))
    for prec in PRECS:
        code, payload = run(["current", "--file", str(f), "--p", "3", "--q", "p",
                             "--delta-at", "1", "--alpha-at", "5"] + prec)
        assert code == 0
        assert payload["result"]["valid"] is True
        assert "delta" in payload["result"]
        assert exact_precs(payload["result"]) == [100 if prec else 64] * 2


def test_poly_eval():
    for prec in PRECS:
        code, payload = run(["poly-eval", "--p", "3", "--q", "p",
                             "--coeffs", "1,2,0,1", "--J", "12"] + prec)
        assert code == 0
        assert payload["result"]["ok"] is True
    # (1 + q)^2 at q = 3/2 has digits at every power of p
    code, payload = run(["poly-eval", "--p", "3", "--q", "3/2", "--coeffs", "1,2,1",
                         "--J", "80", "--prec", "100"])
    assert code == 0
    res = payload["result"]
    assert res["ok"] is True
    assert res["value"] == res["direct"]
    assert res["value"].endswith(" + 2*p^79 + O(p^81)")


def test_theta_cli():
    for prec in PRECS:
        code, payload = run(["theta", "--p", "3", "--q", "p",
                             "--factors", "[[1, 1], [2, -1]]",
                             "--l", "1", "--z", "5", "--z0", "2", "--M", "8"] + prec)
        assert code == 0
        assert "automorphy_ratio" in payload["result"]
        assert exact_precs(payload["result"]) == [100 if prec else 64] * 3


def test_theta_cli_trivial_function_has_exact_report():
    # an infinite error valuation must survive arithmetic on it
    code, payload = run(["theta", "--p", "3", "--q", "p", "--factors", "[]",
                         "--l", "1", "--z", "2", "--z0", "1", "--M", "2"])
    assert code == 0
    res = payload["result"]
    for key in ("value", "automorphy_ratio", "automorphy_constant"):
        assert res[key]["digits"] == "1"
        assert res[key]["error_valuation"] == "inf"


def test_ladder_ord_cli(tmp_path):
    from nonarch import Current
    cur = Current.windowed({1: 1})
    f = tmp_path / "current.json"
    f.write_text(json.dumps(current_json(cur)))
    code, payload = run(["ladder-ord", "--file", str(f), "--p", "3",
                         "--q", "p", "--z", "5", "--nmax", "4"])
    assert code == 0
    assert payload["result"]["ord_plus_one"] == 1


# z = 6564 = 3 + 3^8 lies near the grid point q: six ladder rows still see
# that pole of alpha and do not certify ord + 1 = 1 (the level walk printed
# 0); p^200 is zero at the default prec 64; at z = p^150 the first depth
# needs a level above 16 (nmax + 4) = 96
@pytest.mark.parametrize("spine, argv, code, error", [
    ({"0": 0, "1": 1}, ["--z", "6564", "--nmax", "6"], 4,
     {"kind": "NonStabilizedError", "reason": "ladder differences not certified "
      "within nmax=6: [0, 0, 0, 0, 0]; raise nmax"}),
    ({"0": 1, "1": 2}, ["--z", "p^200", "--nmax", "2"], 2,
     {"kind": "ValueError", "reason": "z must be a nonzero type-1 point"}),
    ({"0": 1, "1": 2}, ["--z", "p^150", "--nmax", "2", "--prec", "200"], 4,
     {"kind": "NonStabilizedError",
      "reason": "no torsor level below 96 reaches ladder depth 1"}),
    ({"0": 1, "1": 2}, ["--z", "5", "--nmax", str(10 ** 6 + 1)], 2,
     {"kind": "ValueError", "reason": "input beyond the supported window size"}),
])
def test_ladder_ord_refusals(tmp_path, spine, argv, code, error):
    f = tmp_path / "current.json"
    f.write_text(json.dumps({"ring": "Z", "period": None, "window": [1, 1],
                             "cusp": {"1": 1}, "spine": spine}))
    got, payload = run(["ladder-ord", "--file", str(f), "--p", "3", "--q", "p"] + argv)
    assert (got, payload["error"]) == (code, error)


def tower_file(tmp_path):
    from nonarch import Refinement, SkeletonGraph
    g0 = SkeletonGraph.build(["a", "b"], [("e", "a", "b", Fraction(2))])
    g1 = SkeletonGraph.build(["a", "m", "b"],
                             [("e1", "a", "m", 1), ("e2", "m", "b", 1)])
    g2 = SkeletonGraph.build(["a", "m", "b", "t"],
                             [("f1", "a", "m", 1), ("f2", "m", "b", 1),
                              ("h", "m", "t", 1)])
    data = {
        "graphs": [graph_json(g) for g in (g0, g1, g2)],
        "refinements": [
            {"coarse": 0, "fine": 1,
             "vertex_map": {"a": "a", "b": "b"},
             "edge_paths": {"e": [["e1", 1], ["e2", 1]]}},
            {"coarse": 1, "fine": 2,
             "vertex_map": {"a": "a", "m": "m", "b": "b"},
             "edge_paths": {"e1": [["f1", 1]], "e2": [["f2", 1]]}},
        ],
    }
    f = tmp_path / "tower.json"
    f.write_text(json.dumps(data))
    return f


def test_skeleton_tower_compose(tmp_path):
    f = tower_file(tmp_path)
    code, payload = run(["skeleton-tower", "--file", str(f), "--check", "compose"])
    assert code == 0
    assert payload["result"]["ok"] is True


def test_skeleton_tower_separation(tmp_path):
    f = tower_file(tmp_path)
    code, payload = run(["skeleton-tower", "--file", str(f),
                         "--check", "separation",
                         "--x", "f1@1/2", "--y", "f2@1/2"])
    assert code == 0
    assert payload["result"]["level"] == 0
    code, payload = run(["skeleton-tower", "--file", str(f),
                         "--check", "separation",
                         "--x", "t", "--y", "h@1/2"])
    assert code == 4
    assert payload["error"]["kind"] == "NotSeparatedError"


# two faults, a tree touching two image points and a cycle at b: the refusal
# must name the first in vertex order, whatever the hash seed
TWO_FAULTS = {
    "graphs": [{"vertices": ["a", "b"], "edges": [["e", "a", "b", "2"]]},
               {"vertices": ["a", "b", "m", "u", "w", "x"],
                "edges": [["e1", "a", "m", "1"], ["e2", "m", "b", "1"],
                          ["k1", "b", "u", "1"], ["k2", "u", "w", "1"],
                          ["k3", "w", "b", "1"], ["j1", "m", "x", "1"],
                          ["j2", "x", "a", "1"]]}],
    "refinements": [{"coarse": 0, "fine": 1, "vertex_map": {"a": "a", "b": "b"},
                     "edge_paths": {"e": [["e1", 1], ["e2", 1]]}}]}


def test_a_refused_tower_gives_one_report_under_every_hash_seed(tmp_path):
    f = tmp_path / "tower.json"
    f.write_text(json.dumps(TWO_FAULTS))
    src = os.path.dirname(os.path.dirname(nonarch.__file__))
    runs = set()
    for seed in range(6):
        done = subprocess.run(
            [sys.executable, "-m", "nonarch.cli", "skeleton-tower", "--file", str(f),
             "--check", "compose"], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src))
        report = json.loads(done.stdout)
        report.pop("wall_time_ms")
        runs.add((done.returncode, json.dumps(report, sort_keys=True)))
    assert len(runs) == 1
    code, report = runs.pop()
    assert code == 2
    assert json.loads(report)["error"]["reason"] == (
        "the fine graph off the embedded arcs must be trees through one image point "
        "each; its part on ['a', 'm', 'x'] holds 2 image points and 2 edges")


def test_reports_are_deterministic(tmp_path):
    f = tower_file(tmp_path)
    argv = ["skeleton-tower", "--file", str(f), "--check", "compose",
            "--seed", "7"]
    _, p1 = run(argv)
    _, p2 = run(argv)
    p1.pop("wall_time_ms")
    p2.pop("wall_time_ms")
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


def test_theta_with_non_prime_p_exits_2():
    code, payload = run(["theta", "--p", "4", "--q", "p",
                         "--factors", "[[1, 1], [2, -1]]",
                         "--l", "1", "--z", "5", "--z0", "2", "--M", "8"])
    assert code == 2
    assert payload["error"]["kind"] == "ValueError"


def _report(stdout):
    if not stdout:
        return None
    payload = json.loads(stdout)
    payload.pop("wall_time_ms")
    return payload


def test_one_process_matches_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; reports and exit codes must not
    # depend on what ran before in the same process
    f = tower_file(tmp_path)
    sequence = [
        ["splitting-radius", "--p", "3", "--N", "2", "--n", "4"],
        ["theta", "--p", "3", "--q", "p", "--factors", "[[1, 1], [2, -1]]",
         "--l", "2", "--z", "5", "--z0", "2", "--M", "4", "--prec", "20"],
        ["as-genus", "--e", "6", "--p", "5", "--no-such-flag"],
        ["skeleton-tower", "--file", str(f), "--check", "compose", "--seed", "3"],
        ["theta", "--p", "4", "--q", "p", "--factors", "[]",
         "--l", "1", "--z", "2", "--z0", "1"],
        ["poly-eval", "--p", "5", "--q", "p^2", "--coeffs", "1,0,3", "--J", "6"],
        ["splitting-radius", "--p", "2", "--N", "3", "--n", "2", "--numeric"],
    ]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(nonarch.__file__)))
    codes = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        here = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "nonarch.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert code == fresh.returncode, argv
        assert _report(here.out) == _report(fresh.stdout), argv
        assert here.err == fresh.stderr, argv
        codes.append(code)
    assert codes == [0, 0, 2, 0, 2, 0, 0]


THETA = ["theta", "--p", "3", "--factors", "[[1, 1], [2, -1]]", "--l", "1",
         "--M", "4"]


@pytest.mark.parametrize("argv", [
    THETA + ["--q", "p", "--z", "1/0", "--z0", "2"],
    THETA + ["--q=-1/0", "--z", "5", "--z0", "2"],
    THETA + ["--q", "p", "--z", "5", "--z0", " 3/0 "],
    ["poly-eval", "--p", "5", "--q", "p", "--coeffs", "1,2/0"],
    ["moebius-check", "--p", "3", "--q", "1/0", "--n", "1"],
])
def test_zero_denominator_in_a_scalar_exits_2(argv, capsys):
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "ValueError"
    assert "/0" in payload["error"]["reason"]


@pytest.mark.parametrize("command", ["order-set", "find-order"])
@pytest.mark.parametrize("family", [
    {"p": 5, "x": "0", "poles": ["1", "1/0"]},
    {"p": 5, "x": "0", "poles": ["1", {"rat": "1/0"}]},
    {"p": 5, "x": "0", "poles": ["1", {"rat": "2", "pi": "3/0"}]},
    {"p": 5, "x": "1/0", "poles": ["1", "2"]},
])
def test_zero_denominator_in_a_pole_exits_2(tmp_path, capsys, command, family):
    f = tmp_path / "poles.json"
    f.write_text(json.dumps(family))
    assert main([command, "--poles", str(f)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "ValueError"


@pytest.mark.parametrize("top", [[1, 2], "poles", 3, None])
@pytest.mark.parametrize("argv", [
    ["order-set", "--poles"],
    ["find-order", "--poles"],
    ["ladder-ord", "--p", "3", "--q", "p", "--z", "5", "--file"],
    ["current", "--file"],
    ["skeleton-tower", "--check", "compose", "--file"],
])
def test_input_file_that_is_not_an_object_exits_2(tmp_path, capsys, argv, top):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(top))
    assert main(argv + [str(f)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {
        "kind": "ValueError",
        "reason": f"{f}: the top level must be a JSON object, not {top!r}"}


@pytest.mark.parametrize("command", ["order-set", "find-order"])
@pytest.mark.parametrize("poles", ["12", 12])
def test_poles_that_are_not_a_list_exit_2(tmp_path, capsys, command, poles):
    f = tmp_path / "poles.json"
    f.write_text(json.dumps({"p": 5, "x": "0", "poles": poles}))
    assert main([command, "--poles", str(f), "--nmax", "2"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"kind": "ValueError",
                                "reason": f'{f}: "poles" must be a JSON list, not {poles!r}'}


@pytest.mark.parametrize("value", ["1/0", "-3/0", 1.5, None])
@pytest.mark.parametrize("part", ["cusp", "spine"])
def test_bad_rational_in_a_current_file_exits_2(tmp_path, capsys, part, value):
    data = {"ring": "Z", "cusp": {}, "spine": {}, "window": [0, 0]}
    data[part] = {"0": value}
    f = tmp_path / "current.json"
    f.write_text(json.dumps(data))
    assert main(["current", "--file", str(f)]) == 2
    assert main(["ladder-ord", "--p", "3", "--q", "p", "--z", "5", "--file", str(f)]) == 2
    for line in capsys.readouterr().out.splitlines():
        assert json.loads(line)["error"]["kind"] == "ValueError"


@pytest.mark.parametrize("field, value", [("window", 5), ("cusp", []), ("ring", 3)])
def test_wrong_json_type_in_a_current_file_exits_2(tmp_path, capsys, field, value):
    data = {"ring": "Z", "cusp": {}, "spine": {"-1": 0, "0": 0}, "window": [0, 0]}
    data[field] = value
    f = tmp_path / "current.json"
    f.write_text(json.dumps(data))
    assert main(["current", "--file", str(f)]) == 2
    assert main(["ladder-ord", "--p", "3", "--q", "p", "--z", "5", "--file", str(f)]) == 2
    for line in capsys.readouterr().out.splitlines():
        error = json.loads(line)["error"]
        assert error["kind"] == "ValueError"
        assert error["reason"].startswith(f'"{field}" must be a JSON ')


@pytest.mark.parametrize("check", ["compose", "separation"])
def test_graph_index_that_is_not_an_integer_in_a_tower_file_exits_2(tmp_path, capsys,
                                                                     check):
    f = tower_file(tmp_path)
    data = json.loads(f.read_text())
    data["refinements"][0]["coarse"] = "x"
    f.write_text(json.dumps(data))
    assert main(["skeleton-tower", "--file", str(f), "--check", check,
                 "--x", "a", "--y", "b"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {
        "kind": "ValueError",
        "reason": f"{f}: refinement \"coarse\" must be a JSON integer, not 'x'"}


def test_theta_request_builds_one_product(monkeypatch):
    # one ThetaRequest is built, so checked, and its product is built once
    built, products = [], []
    cls = nonarch.currents.ThetaRequest
    check, product = cls.__init__, cls.product
    monkeypatch.setattr(cls, "__init__", lambda req, *args, **kwargs:
                        built.append(req) or check(req, *args, **kwargs))
    monkeypatch.setattr(cls, "product", lambda req: products.append(req) or product(req))
    code, payload = run(THETA + ["--q", "p", "--z", "5", "--z0", "2"])
    assert code == 0 and len(built) == 1 and products == built
    result = payload["result"]
    assert {k: result[k]["digits"] for k in ("value", "automorphy_ratio",
                                              "automorphy_constant")} == {
        "value": "1 + p + 2*p^2 + O(p^3)", "automorphy_ratio": "p^-1 + O(p^2)",
        "automorphy_constant": "p^-1"}
    assert (result["error_valuation"],
            result["automorphy_ratio"]["error_valuation"]) == ("3", "2")


def test_theta_request_whose_bound_fails_only_at_q_l_z_exits_4():
    # the product at z certifies (bound 1); the ratio's bound at q z is 0
    code, payload = run(["theta", "--p", "3", "--q", "p", "--factors", "[[0, 1], [1, -1]]",
                         "--l", "1", "--z", "15", "--z0", "2", "--M", "1"])
    assert code == 4
    assert payload["error"] == {"kind": "TailCertificateError",
                                "reason": "truncation M=1 cannot certify the tail (bound 0)"}

@pytest.mark.parametrize("length", ["1/0", None, True])
@pytest.mark.parametrize("check", ["compose", "separation"])
def test_bad_edge_length_in_a_tower_file_exits_2(tmp_path, capsys, check, length):
    f = tower_file(tmp_path)
    data = json.loads(f.read_text())
    data["graphs"][1]["edges"][0][3] = length
    f.write_text(json.dumps(data))
    assert main(["skeleton-tower", "--file", str(f), "--check", check,
                 "--x", "a", "--y", "b"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"kind": "ValueError",
                                "reason": f"not a rational number: {length!r}"}


def _windowed_current_file(tmp_path):
    from nonarch import Current
    f = tmp_path / "current.json"
    f.write_text(json.dumps(current_json(Current.windowed({1: 1}))))
    return f


@pytest.mark.parametrize("q", ["1", "2", "1/3"])
@pytest.mark.parametrize("command", ["theta", "poly-eval", "current", "ladder-ord",
                                     "moebius-check", "current-alpha"])
def test_q_that_is_not_a_tate_parameter_exits_2(tmp_path, capsys, command, q):
    f = _windowed_current_file(tmp_path)
    argv = {
        "theta": THETA + ["--z", "5", "--z0", "2"],
        "poly-eval": ["poly-eval", "--p", "3", "--coeffs", "1,2"],
        "current": ["current", "--file", str(f), "--p", "3", "--delta-at", "5"],
        "current-alpha": ["current", "--file", str(f), "--p", "3", "--alpha-at", "5"],
        "ladder-ord": ["ladder-ord", "--file", str(f), "--p", "3", "--z", "5"],
        "moebius-check": ["moebius-check", "--p", "3", "--n", "1", "--J", "3"],
    }[command]
    assert main(argv + ["--q", q]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"kind": "ValueError",
                                "reason": "Tate parameter needs 0 < v(q) < inf"}


@pytest.mark.parametrize("ring, spine, code, error", [
    ("Z", -1, 4, {"kind": "PoleCollisionError",
                  "reason": "alpha is evaluated on G_m: z must be nonzero"}),
    ("Zp", "1/2", 2, {"kind": "ValueError",
                      "reason": "alpha needs integer current values"}),
])
def test_alpha_of_a_cusp_free_periodic_current_at_zero(tmp_path, capsys, ring, spine,
                                                        code, error):
    f = tmp_path / "current.json"
    f.write_text(json.dumps({"ring": ring, "period": 1, "window": [0, 0],
                             "cusp": {"0": 0}, "spine": {"0": spine}}))
    assert main(["current", "--file", str(f), "--p", "3", "--alpha-at", "0"]) == code
    assert json.loads(capsys.readouterr().out)["error"] == error


def _put(data, where: str, value) -> None:
    """Set the entry of ``data`` at ``where``, keys and list indices
    joined by "/", to ``value``."""
    *parents, last = [int(k) if k.isdigit() else k for k in where.split("/")]
    for key in parents:
        data = data[key]
    data[last] = value


@pytest.mark.parametrize("where, value, reason", [
    ("graphs", 3, '{f}: "graphs" must be a JSON list, not 3'),
    ("refinements", 3, '{f}: "refinements" must be a JSON list, not 3'),
    ("graphs/1", 3, "a graph must be a JSON object, not 3"),
    ("graphs/1/vertices", 3, '"vertices" must be a JSON list, not 3'),
    ("graphs/1/edges", 3, '"edges" must be a JSON list, not 3'),
    ("graphs/1/cusps", 3, '"cusps" must be a JSON list, not 3'),
    ("refinements/0", 3, "{f}: a refinement must be a JSON object, not 3"),
    ("refinements/0/vertex_map", 3,
     '{f}: refinement "vertex_map" must be a JSON object, not 3'),
    ("refinements/0/edge_paths", [],
     '{f}: refinement "edge_paths" must be a JSON object, not []'),
    ("refinements/0/edge_paths/e", 3,
     '{f}: refinement "edge_paths" entry \'e\' must be a JSON list, not 3'),
    ("refinements/0/edge_paths/e/0", 3,
     '{f}: refinement "edge_paths" step must be a JSON list of 2 entries, not 3'),
    ("refinements/0/edge_paths/e/0", ["e1"],
     "{f}: refinement \"edge_paths\" step must be a JSON list of 2 entries, not ['e1']"),
    ("refinements/0/edge_paths/e/0/0", 7, "a vertex or edge name must be a JSON string, not 7"),
    ("refinements/0/vertex_map/a", ["a"],
     "a vertex or edge name must be a JSON string, not ['a']"),
    ("refinements/0/fine", True, '{f}: refinement "fine" must be a JSON integer, not True'),
    ("refinements/0/edge_paths/e/0/1", True,
     '{f}: refinement "edge_paths" step sign must be a JSON integer, not True'),
    ("refinements/0/edge_paths/e/0/1", 1.0,
     '{f}: refinement "edge_paths" step sign must be a JSON integer, not 1.0'),
])
def test_wrong_json_type_in_a_tower_file_exits_2(tmp_path, capsys, where, value, reason):
    f = tower_file(tmp_path)
    data = json.loads(f.read_text())
    _put(data, where, value)
    f.write_text(json.dumps(data))
    assert main(["skeleton-tower", "--file", str(f), "--check", "compose"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"kind": "ValueError", "reason": reason.format(f=f)}


@pytest.mark.parametrize("key, value, reason", [
    ("edges", [3], "an edge must be a JSON list of 4 entries, not 3"),
    ("edges", [["f1", "a", "m"]],
     "an edge must be a JSON list of 4 entries, not ['f1', 'a', 'm']"),
    ("edges", [[["f1"], "a", "m", 1]], "a vertex or edge name must be a JSON string, not ['f1']"),
    ("cusps", [3], "a cusp must be a JSON list of 2 entries, not 3"),
    ("cusps", [["h", {"a": 1}]],
     "a vertex or edge name must be a JSON string, not {'a': 1}"),
    ("vertices", [["a"], "b"], "a vertex or edge name must be a JSON string, not ['a']"),
    ("vertices", ["a", "m", "b", 1], "a vertex or edge name must be a JSON string, not 1"),
    ("edges", [["f1", "a", 2.5, 1]], "a vertex or edge name must be a JSON string, not 2.5"),
    ("cusps", [[True, "a"]], "a vertex or edge name must be a JSON string, not True"),
])
def test_malformed_entry_in_a_tower_graph_exits_2(tmp_path, capsys, key, value, reason):
    f = tower_file(tmp_path)
    data = json.loads(f.read_text())
    data["graphs"][2][key] = value
    f.write_text(json.dumps(data))
    assert main(["skeleton-tower", "--file", str(f), "--check", "compose"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"kind": "ValueError", "reason": reason}


@pytest.mark.parametrize("faults, reason", [
    ({"graphs/2/edges/0/3": True, "graphs/2/edges/1/0": 7},
     "not a rational number: True"),
    ({"graphs/2/vertices/3": 1, "graphs/2/edges/1": ["e2", "m", "b"]},
     "an edge must be a JSON list of 4 entries, not ['e2', 'm', 'b']"),
    ({"refinements/0/vertex_map/b": ["b"], "refinements/0/edge_paths/e/1/1": True},
     "a vertex or edge name must be a JSON string, not ['b']"),
    # every length is read before any is checked to be positive
    ({"graphs/2/edges/0/3": "-1", "graphs/2/edges/1/3": True},
     "not a rational number: True"),
])
def test_a_tower_file_with_two_faults_is_refused_for_the_first_in_file_order(
        tmp_path, capsys, faults, reason):
    f = tower_file(tmp_path)
    data = json.loads(f.read_text())
    for where, value in faults.items():
        _put(data, where, value)
    f.write_text(json.dumps(data))
    assert main(["skeleton-tower", "--file", str(f), "--check", "compose"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"kind": "ValueError", "reason": reason}


def pole_file(tmp_path, family):
    f = tmp_path / "poles.json"
    f.write_text(json.dumps(family))
    return str(f)


def test_find_order_with_p_1_exits_2(tmp_path):
    # the p-power test looped forever on p = 1; a fresh process with a
    # timeout keeps a regression from hanging the suite
    f = pole_file(tmp_path, {"p": 5, "x": "0", "poles": ["1", "2", "3"]})
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(nonarch.__file__)))
    done = subprocess.run([sys.executable, "-m", "nonarch.cli", "find-order",
                           "--poles", f, "--p", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert json.loads(done.stdout)["error"] == {"kind": "ValueError",
                                                "reason": "p = 1 is not prime"}


@pytest.mark.parametrize("p", ["4", "6", "-3", "0"])
def test_find_order_with_a_non_prime_p_exits_2(tmp_path, capsys, p):
    f = pole_file(tmp_path, {"p": 5, "x": "0", "poles": ["1", "2", "3"]})
    assert main(["find-order", "--poles", f, "--p", p]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": f"p = {p} is not prime"}


@pytest.mark.parametrize("nmax, code, error", [
    ("-1", 2, {"kind": "ValueError", "reason": "nmax must be nonnegative"}),
    ("0", 4, {"kind": "NoAdmissibleOrderError", "reason":
              "no order k <= 0 with k+1 not a p-power; achieved orders: (0,)"}),
])
def test_find_order_nmax_bounds(tmp_path, capsys, nmax, code, error):
    f = pole_file(tmp_path, {"p": 5, "x": "0", "poles": ["1", "2", "3"]})
    assert main(["find-order", "--poles", f, "--nmax", nmax]) == code
    assert json.loads(capsys.readouterr().out)["error"] == error


def test_find_order_request_verifies_its_witness_once(tmp_path, monkeypatch):
    from nonarch import poles
    calls = []
    verify = poles.order_of_combination

    def counted(*args, **kw):
        calls.append(verify(*args, **kw))
        return calls[-1]

    monkeypatch.setattr(poles, "order_of_combination", counted)
    f = pole_file(tmp_path, {"p": 2, "x": "0",
                             "poles": ["101", "117", "133", "150", "163", "188"]})
    code, payload = run(["find-order", "--poles", f])
    assert code == 0
    assert calls == [payload["result"]["order"]]


def test_as_genus_with_p_1_exits_2():
    # v_p(e) looped forever on p = 1; a fresh process with a timeout keeps
    # a regression from hanging the suite
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(nonarch.__file__)))
    done = subprocess.run([sys.executable, "-m", "nonarch.cli", "as-genus",
                           "--e", "6", "--p", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert json.loads(done.stdout)["error"] == {"kind": "ValueError",
                                                "reason": "p = 1 is not prime"}


@pytest.mark.parametrize("argv", [
    ["as-genus", "--e", "6", "--p", "0"],
    ["as-genus", "--e", "6", "--p", "4"],
    ["as-genus", "--e", "6", "--p", "-3"],
    ["splitting-radius", "--p", "1", "--N", "3", "--n", "2"],
    ["splitting-radius", "--p", "0", "--N", "3", "--n", "2"],
    ["splitting-radius", "--p", "4", "--N", "3", "--n", "2"],
])
def test_torsor_commands_with_a_non_prime_p_exit_2(capsys, argv):
    p = argv[argv.index("--p") + 1]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": f"p = {p} is not prime"}


@pytest.mark.parametrize("argv", [
    ["moebius-check", "--p", "3", "--q", "p", "--n", "1", "--J", "-5"],
    ["moebius-check", "--p", "3", "--q", "p", "--n", "2", "--J", "-1"],
    ["poly-eval", "--p", "3", "--q", "p", "--coeffs", "0,1", "--J", "-5"],
])
def test_negative_J_exits_2(capsys, argv):
    # a negative window must not yield a vacuous certificate
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": "J must be nonnegative"}


@pytest.mark.parametrize("extra, reason", [
    (["--check", "separation"], "the separation check needs both --x and --y"),
    (["--check", "separation", "--x", "f1@1/2"],
     "the separation check needs both --x and --y"),
    (["--check", "separation", "--y", "f1@1/2"],
     "the separation check needs both --x and --y"),
    (["--check", "compose", "--samples", "0"], "samples must be positive"),
    (["--check", "compose", "--samples", "-3"], "samples must be positive"),
])
def test_skeleton_tower_input_checks_exit_2(tmp_path, capsys, extra, reason):
    f = tower_file(tmp_path)
    assert main(["skeleton-tower", "--file", str(f)] + extra) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": reason}


@pytest.mark.parametrize("factors", ["[1]", "[[1.5, 1], [2, -1]]", "[[1, 1, 0]]",
                                     "[[true, 1], [2, -1]]", '[["1", 1]]', "{}",
                                     "[[1, 1], 2]"])
def test_theta_factors_that_are_not_integer_pairs_exit_2(capsys, factors):
    argv = ["theta", "--p", "3", "--q", "p", "--factors", factors, "--z", "5",
            "--z0", "2"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {"kind": "ValueError", "reason": {
        "[1]": "a --factors pair must be a JSON list of 2 entries, not 1",
        "[[1.5, 1], [2, -1]]": "a --factors pair entry must be a JSON integer, not 1.5",
        "[[1, 1, 0]]": "a --factors pair must be a JSON list of 2 entries, not [1, 1, 0]",
        "[[true, 1], [2, -1]]": "a --factors pair entry must be a JSON integer, not True",
        '[["1", 1]]': "a --factors pair entry must be a JSON integer, not '1'",
        "{}": "--factors must be a JSON list, not {}",
        "[[1, 1], 2]": "a --factors pair must be a JSON list of 2 entries, not 2"}[factors]}


def test_theta_factors_nested_past_the_recursion_limit_exit_2(capsys):
    argv = ["theta", "--p", "3", "--q", "p", "--factors", "[" * 100000, "--z", "5",
            "--z0", "2"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": "--factors: JSON nested too deeply"}


def test_input_file_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    f = tmp_path / "current.json"
    f.write_text('{"cusp": ' + "[" * 100000 + "]" * 100000 + "}")
    assert main(["current", "--file", str(f), "--p", "3", "--delta-at", "5"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": f"{f}: JSON nested too deeply"}


@pytest.mark.parametrize("ring", ["Z/0Z", "Z/-3Z", "Q", "Z/3", "Z/03Z", "Z/ 3Z", ""])
def test_current_ring_outside_z_zp_and_z_mod_n_exits_2(tmp_path, capsys, ring):
    f = tmp_path / "current.json"
    f.write_text(json.dumps({"ring": ring, "period": 1, "window": [0, 0],
                             "cusp": {"0": 0}, "spine": {"0": 1}}))
    assert main(["current", "--file", str(f), "--p", "3", "--delta-at", "5"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError",
        "reason": f'"ring" must be "Z", "Zp" or "Z/nZ" with n a positive integer, '
                  f'not {ring!r}'}


@pytest.mark.parametrize("ring, modulus", [("Z", None), ("Zp", None), ("Z/1Z", 1),
                                           ("Z/12Z", 12)])
def test_current_rings_that_are_accepted(ring, modulus):
    from nonarch import Current
    cur = Current.from_json({"ring": ring, "period": 1, "window": [0, 0],
                             "cusp": {"0": 0}, "spine": {"0": 1}})
    assert cur.modulus == modulus


@pytest.mark.parametrize("ring", ["Z", "Z/3Z"])
def test_current_file_with_a_non_integer_under_an_integer_ring_exits_2(tmp_path, capsys,
                                                                      ring):
    f = tmp_path / "current.json"
    f.write_text(json.dumps({"ring": ring, "period": None, "window": [1, 1],
                             "cusp": {"1": "1/2"}, "spine": {"0": 0, "1": "1/2"}}))
    assert main(["current", "--file", str(f), "--p", "3", "--delta-at", "5"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError",
        "reason": f"invalid current: a current over {ring} needs integer values"}


@pytest.mark.parametrize("part, alias", [
    ("cusp", "01"), ("cusp", " 1"), ("cusp", "+1"), ("cusp", "1_0"), ("cusp", "-0"),
    ("cusp", "1 "), ("cusp", "\u0661"), ("cusp", "x"), ("spine", "00"), ("spine", "+1"),
])
def test_current_file_with_a_key_that_is_not_canonical_integer_text_exits_2(
        tmp_path, capsys, part, alias):
    # int() reads "01", " 1", "+1" and "\u0661" as 1 and "1_0" as 10, so
    # "01" next to "1" silently dropped one of the two cusp values
    data = {"ring": "Z", "period": None, "window": [1, 1], "cusp": {"1": 1},
            "spine": {"0": 0, "1": 1}}
    data[part][alias] = 2
    f = tmp_path / "current.json"
    f.write_text(json.dumps(data))
    argv = ["current", "--file", str(f), "--p", "3", "--q", "p", "--alpha-at", "5"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError",
        "reason": f"invalid current: key {alias!r} is not a canonical integer"}


@pytest.mark.parametrize("value", ["1_0", " 7 ", "+7", "\u0663", "1/ 2", "7.0", ""])
@pytest.mark.parametrize("part", ["cusp", "spine"])
def test_current_file_with_a_value_that_is_not_canonical_text_exits_2(
        tmp_path, capsys, part, value):
    # int() read "1_0" as 10 and " 7 ", "+7" and "\u0663" as 7 or 3, and
    # those files were evaluated
    data = {"ring": "Zp", "period": None, "window": [1, 1], "cusp": {"1": 7},
            "spine": {"0": 0, "1": 7}}
    data[part]["1"] = value
    f = tmp_path / "current.json"
    f.write_text(json.dumps(data))
    argv = ["current", "--file", str(f), "--p", "3", "--q", "p", "--alpha-at", "5"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError",
        "reason": f"invalid current: value {value!r} is not canonical integer text "
                  'or "a/b"'}


@pytest.mark.parametrize("cusp, spine", [(1, 1), ("1/2", "1/2"), ("2/1", "2/1"),
                                         ("7", "7"), ("-3/4", "-3/4"), ("07", "07")])
def test_zp_current_file_holds_integers_and_rationals(tmp_path, cusp, spine):
    f = tmp_path / "current.json"
    f.write_text(json.dumps({"ring": "Zp", "period": None, "window": [1, 1],
                             "cusp": {"1": cusp}, "spine": {"0": 0, "1": spine}}))
    code, payload = run(["current", "--file", str(f), "--p", "3", "--delta-at", "5"])
    assert code == 0 and payload["result"]["valid"] is True


@pytest.mark.parametrize("cusp", [3, 0])
@pytest.mark.parametrize("argv, what", [
    (["current", "--p", "5", "--delta-at", "2"], "delta"),
    (["current", "--p", "5", "--alpha-at", "2"], "alpha"),
    (["ladder-ord", "--p", "5", "--q", "p", "--z", "2"], "the ladder"),
])
def test_z_mod_n_current_is_not_evaluated_exits_2(tmp_path, capsys, cusp, argv, what):
    # cusp value 3 and 0 are one current over Z/3Z
    f = tmp_path / "current.json"
    f.write_text(json.dumps({"ring": "Z/3Z", "period": None, "window": [1, 1],
                             "cusp": {"1": cusp}, "spine": {"0": 0, "1": cusp}}))
    assert main(argv + ["--file", str(f)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": f"{what} needs an integer current, not Z/nZ"}


@pytest.mark.parametrize("current, flag", [
    ({"ring": "Z", "period": 2, "window": [0, 1], "cusp": {"0": 1, "1": -1},
      "spine": {"0": 0, "1": -1}}, "--delta-at"),
    ({"ring": "Z", "window": [0, 0], "cusp": {}, "spine": {"-1": 1, "0": 1}},
     "--alpha-at"),
])
def test_current_with_a_negative_J_exits_2(tmp_path, capsys, current, flag):
    f = tmp_path / "current.json"
    f.write_text(json.dumps(current))
    assert main(["current", "--file", str(f), "--p", "3", "--J", "-3", flag, "5"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": "J must be nonnegative"}


def test_current_delta_at_a_zero_cusp_under_a_covering_J(tmp_path):
    from nonarch import Current
    f = tmp_path / "current.json"
    f.write_text(json.dumps(current_json(Current.periodic(3, {0: 0, 1: 1, 2: -1}))))
    code, payload = run(["current", "--file", str(f), "--p", "3", "--q", "p",
                         "--delta-at", "1", "--J", "0"])
    assert code == 0
    assert payload["result"]["delta"]["digits"] == "O(p^1)"


@pytest.mark.parametrize("current, reason", [
    ({"ring": "Z", "period": 0, "window": [0, -1], "cusp": {}, "spine": {"0": 1}},
     "period must be positive"),
    ({"ring": "Z", "period": -2, "window": [0, 1], "cusp": {"0": 1, "1": -1},
      "spine": {"0": 0, "1": -1}}, "period must be positive"),
    ({"ring": "Z", "period": 2, "window": [1, 2], "cusp": {"0": 1, "1": -1},
      "spine": {"0": 0, "1": -1}}, "a periodic current needs the window [0, 1]"),
    ({"ring": "Z", "period": 2, "window": [0, 1], "cusp": {"0": 1, "2": -1},
      "spine": {"0": 0, "1": -1}}, "cusp keys must lie in 0..1"),
    ({"ring": "Z", "period": 2, "window": [0, 1], "cusp": {"0": 1, "1": -1},
      "spine": {"0": 0}}, "spine keys must be exactly 0..1"),
    ({"ring": "Z", "period": None, "window": [0, 0], "cusp": {"0": 0, "5": 1},
      "spine": {"-1": 0, "0": 0}}, "cusp keys must lie in 0..0"),
    ({"ring": "Z", "period": None, "window": [3, 1], "cusp": {},
      "spine": {"2": 0, "3": 0}}, "the window needs jmin <= jmax"),
    ({"ring": "Z", "period": None, "window": [1, 2], "cusp": {"1": 1},
      "spine": {"0": 0, "1": 1}}, "spine keys must be exactly 0..2"),
    ({"ring": "Z", "period": None, "window": [1, 2], "cusp": {"1": 1},
      "spine": {"0": 0, "1": 1, "2": 1, "3": 1}}, "spine keys must be exactly 0..2"),
])
@pytest.mark.parametrize("flags", [[], ["--delta-at", "5", "--J", "2"], ["--alpha-at", "5"]])
def test_current_file_breaking_the_file_rules_exits_2(tmp_path, capsys, current, reason,
                                                       flags):
    f = tmp_path / "current.json"
    f.write_text(json.dumps(current))
    assert main(["current", "--file", str(f), "--p", "3"] + flags) == 2
    assert main(["ladder-ord", "--p", "3", "--q", "p", "--z", "5", "--file", str(f)]) == 2
    for line in capsys.readouterr().out.splitlines():
        assert json.loads(line)["error"] == {"kind": "ValueError",
                                             "reason": f"invalid current: {reason}"}


@pytest.mark.parametrize("command", ["order-set", "find-order"])
@pytest.mark.parametrize("p", [3.9, 5.0, True, "5", None])
def test_pole_file_p_that_is_not_a_json_integer_exits_2(tmp_path, capsys, command, p):
    f = pole_file(tmp_path, {"p": p, "x": "0", "poles": ["1", "2", "4"]})
    assert main([command, "--poles", f, "--nmax", "4"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": f'{f}: "p" must be a JSON integer, not {p!r}'}


@pytest.mark.parametrize("argv", [
    ["splitting-radius", "--p", "3", "--n", "2", "--numeric", "--N"],
    ["order-set", "--poles", "{f}", "--nmax"],
    ["find-order", "--poles", "{f}", "--nmax"],
])
@pytest.mark.parametrize("size", [10 ** 6 + 1, 10 ** 28])
def test_size_beyond_the_supported_window_exits_2(tmp_path, capsys, argv, size):
    # each allocated its size before any other check (an OverflowError at 10^28)
    f = pole_file(tmp_path, {"p": 5, "x": "0", "poles": ["1", "2", "3"]})
    assert main([a.format(f=f) for a in argv] + [str(size)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": "input beyond the supported window size"}


@pytest.mark.parametrize("argv", [
    ["current", "--file"],
    ["ladder-ord", "--p", "3", "--q", "p", "--z", "5", "--file"],
])
@pytest.mark.parametrize("jmax", [10 ** 6 + 1, 10 ** 30])
def test_current_window_beyond_the_supported_size_exits_2(tmp_path, capsys, argv, jmax):
    # the spine of [0, 10^30] was built before any other check
    f = tmp_path / "current.json"
    f.write_text(json.dumps({"ring": "Z", "period": None, "window": [0, jmax],
                             "cusp": {}, "spine": {}}))
    assert main(argv + [str(f)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": "input beyond the supported window size"}


@pytest.mark.parametrize("argv", [
    ["moebius-check", "--n", str(10 ** 12), "--J", "3"],
    ["moebius-check", "--n", str(10 ** 6 + 1), "--J", "2"],
    ["moebius-check", "--n", str(10 ** 30), "--J", "5"],
    ["poly-eval", "--coeffs", "0," * 2000 + "1", "--J", "1000"],
])
def test_a_moebius_current_beyond_the_supported_window_exits_2(capsys, argv):
    # the Moebius current of n and J has the window [n, J n]; its spine was
    # built entry by entry, a MemoryError traceback at n = 10^12
    assert main(argv + ["--p", "3", "--q", "p"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": "input beyond the supported window size"}


def test_splitting_radius_without_numeric_takes_any_N():
    code, payload = run(["splitting-radius", "--p", "3", "--N", str(10 ** 28), "--n", "2"])
    assert code == 0
    assert payload["result"]["logradius"] == str(Fraction(5, 2 * 10 ** 28))


@pytest.mark.parametrize("kind, key, reason", [
    ("current", "ring", '"ring" must be a JSON string, not None'),
    ("current", "window", '"window" must be a JSON list of 2 entries, not None'),
    ("current", "cusp", '"cusp" must be a JSON object, not None'),
    ("poles", "p", '{f}: "p" must be a JSON integer, not None'),
    ("poles", "poles", '{f}: "poles" must be a JSON list, not None'),
    ("tower", "graphs", '{f}: "graphs" must be a JSON list, not None'),
    ("tower", "refinements", '{f}: "refinements" must be a JSON list, not None'),
])
def test_missing_key_exits_2_with_the_shape_text(tmp_path, capsys, kind, key, reason):
    # a missing key was a KeyError naming only the key
    if kind == "tower":
        f, argv = tower_file(tmp_path), ["skeleton-tower", "--check", "compose"]
    else:
        f, argv = tmp_path / "input.json", {"current": ["current"],
                                            "poles": ["order-set"]}[kind]
        f.write_text(json.dumps(
            current_json(nonarch.Current.windowed({1: 1})) if kind == "current"
            else {"p": 5, "x": "0", "poles": ["1", "2"]}))
    data = json.loads(f.read_text())
    del data[key]
    f.write_text(json.dumps(data))
    assert main(argv + ["--poles" if kind == "poles" else "--file", str(f)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": reason.format(f=f)}


@pytest.mark.parametrize("pole", [{"rat": 0.1}, 0.1, "1/10", {"rat": "1/10"}])
def test_a_json_number_with_a_fraction_part_is_read_as_its_decimal(tmp_path, pole):
    # read through binary floating point, {"rat": 0.1} was
    # 3602879701896397/36028797018963968 and changed the witness
    f = pole_file(tmp_path, {"p": 5, "x": 0, "poles": [pole, 2, 3]})
    code, payload = run(["find-order", "--poles", f])
    assert code == 0
    assert payload["result"]["coefficients"] == ["-1/4", "5", "0"]


def test_a_bool_pole_exits_2(tmp_path, capsys):
    # true was read as the pole 1
    f = pole_file(tmp_path, {"p": 5, "x": 0, "poles": [{"rat": True}, 2, 3]})
    assert main(["order-set", "--poles", f]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": "not a rational number: True"}


def test_a_decimal_edge_length_in_a_tower_file_is_exact(tmp_path):
    # 0.1 + 1.9 is 2 only when both lengths are read as decimals
    f = tower_file(tmp_path)
    data = json.loads(f.read_text())
    for g in data["graphs"][1:]:
        g["edges"][0][3], g["edges"][1][3] = 0.1, 1.9
    f.write_text(json.dumps(data))
    tower = nonarch.cli._load_tower(str(f))
    assert tower.graphs[1].edge_map["e1"].length == Fraction(1, 10)
    assert tower.graphs[2].edge_map["f2"].length == Fraction(19, 10)
    code, payload = run(["skeleton-tower", "--file", str(f), "--check", "compose"])
    assert (code, payload["result"]["ok"]) == (0, True)


@pytest.mark.parametrize("number, reason", [
    ("1e5000", "decimal exponent beyond +-4300: 1E+5000"),
    ("1e99999999999999999999", "{f}: a JSON number's exponent is out of range")])
def test_a_json_number_with_a_huge_exponent_exits_2_at_once(tmp_path, capsys, number,
                                                             reason):
    f = tmp_path / "poles.json"
    f.write_text('{"p": 5, "x": 0, "poles": [{"rat": %s}, 2]}' % number)
    assert main(["order-set", "--poles", str(f)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "ValueError", "reason": reason.format(f=f)}


@pytest.mark.parametrize("prec", [4507, 100000, 10 ** 30])
def test_prec_past_the_printable_digits_exits_2_before_any_work(tmp_path, capsys, prec):
    f = _windowed_current_file(tmp_path)
    assert main(["current", "--file", str(f), "--p", "3", "--q", "p", "--delta-at", "5",
                 "--prec", str(prec)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"kind": "ValueError", "reason": (
        f"--prec {prec} is too large for p = 3: p^(2*prec) must stay below 10^4300")}
    assert payload["wall_time_ms"] < 1000


def test_a_prec_pole_file_value_is_checked_too(tmp_path, capsys):
    f = pole_file(tmp_path, {"p": 3, "x": 0, "poles": [{"rat": 1, "pi": 1}]})
    assert main(["order-set", "--poles", f, "--prec", "4507"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["reason"].startswith(
        "--prec 4507 is too large for p = 3")


def test_the_largest_prec_renders_a_ramified_unit_in_full():
    # p^(2 prec) < 10^4300 leaves every interleaved unit printable: at p = 3
    # the bound is prec 4506, where -1 - pi has a unit of 4300 digits
    x = nonarch.cli._padic(3, -1, 4506, pi_part=-1)
    assert len(x.to_json()["unit"]) == 4300


def test_the_default_prec_holds_for_every_provable_prime():
    from nonarch.padic import _MR_PROOF_BOUND, DEFAULT_PREC, is_prime
    p = _MR_PROOF_BOUND - 1
    while not is_prime(p):
        p -= 1
    assert nonarch.cli._padic(p, 1, DEFAULT_PREC).prec == DEFAULT_PREC


@pytest.mark.parametrize("q, reason", [
    ("p^9012", None), ("-p^9012", None),
    ("p^9013", "p^9013 is out of range for p = 3: p^|k| must stay below 10^4300"),
    ("p**-9013", "p^-9013 is out of range for p = 3: p^|k| must stay below 10^4300")])
def test_a_power_of_p_past_the_printable_digits_exits_2(capsys, q, reason):
    # 3^9012 < 10^4300 <= 3^9013: the bound a rational written out in digits meets
    code = main(["moebius-check", "--p", "3", f"--q={q}", "--n", "1", "--J", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload.get("error")) == ((0, None) if reason is None else
                                            (2, {"kind": "ValueError", "reason": reason}))


def test_a_bad_p_keeps_its_message_under_a_huge_power_of_p(capsys):
    assert main(["moebius-check", "--p", "4", "--q", "p^100000000000", "--n", "1",
                 "--J", "1"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["reason"] == "p = 4 is not prime"


def test_a_bad_p_keeps_its_message_under_a_huge_prec(capsys):
    assert main(["poly-eval", "--p", "4", "--q", "p", "--coeffs", "1", "--prec",
                 str(10 ** 30)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["reason"] == "p = 4 is not prime"


# -- argv read from a table of the parser's own actions --------------------

CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "corpus", "seed-1")
POLES, CURRENT, TOWER = (os.path.join(CORPUS, "cli-mix", name) for name in
                         ("poles-0001.json", "current-0004.json", "tower-0008.json"))
COMMANDS = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices
# values each option is often given; an int option takes one of INTS
VALUES = {"poles": [POLES], "file": [CURRENT, TOWER], "q": ["p", "3"], "z": ["5"],
          "z0": ["2"], "factors": ["[[1, 1], [2, -1]]", "[]"], "coeffs": ["1,0,3"],
          "x": ["0", "a"], "y": ["b"], "alpha_at": ["5"], "delta_at": ["5"]}
INTS = ["1", "2", "3", "\u0663"]
NOISE = ["-h", "--help", "--", "-1", "-1/2", "", "x", "1.5", "bogus", "no-such",
         "--q=-1/0", "--numeric=", "--no-such-flag"]


def _tokens(sp):
    """Exact and abbreviated options of a subcommand, their "=" forms, and
    NOISE."""
    opts = [s for a in sp._actions for s in a.option_strings]
    abbreviations = [s[:k] for s in opts if s.startswith("--") for k in range(3, len(s))]
    return sorted(set(opts + abbreviations + [f"{s}={v}" for s in opts
                                               for v in ("", "-1", "2")] + NOISE))


@st.composite
def argvs(draw):
    """A subcommand with some of its options (its required ones mostly
    among them), as "--opt value" or "--opt=value", in any order; then up
    to three tokens inserted, replaced or deleted, the subcommand too."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    sp = COMMANDS[name]
    argv = [name]
    actions = [a for a in sp._actions if a.option_strings and a.dest != "help"]
    for a in draw(st.permutations(actions)):
        if not (a.required and draw(st.integers(0, 9))) and draw(st.booleans()):
            continue
        opt = a.option_strings[0]
        if a.nargs == 0:
            argv.append(opt)
            continue
        value = draw(st.sampled_from(a.choices or (INTS if a.type is int else VALUES[a.dest])))
        argv += [f"{opt}={value}"] if draw(st.booleans()) else [opt, value]
    tokens = _tokens(sp)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit != "insert" and i < len(argv):
            del argv[i]
        if edit != "delete":
            argv.insert(i, draw(st.sampled_from(tokens)))
    return argv


def _outcome(argv):
    """Exit code, report without wall_time_ms (or the text, for help) and
    stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    return code, _report(text) if text.startswith("{") else text, err.getvalue()


@settings(max_examples=400, deadline=None)
@given(argvs())
@example(["poly-eval", "--p", "5", "--q=-1/0", "--coeffs", "1"])
@example(["poly-eval", "--p", "5", "--q", "-1/0", "--coeffs", "1"])
@example(["splitting-radius", "--p", "3", "--N", "2", "--n", "4", "--numeric="])
@example(["splitting-radius", "--p", "3", "--N", "2", "--n", "4", "--nu"])
@example(["moebius-check", "--p", "3", "--q", "-1/2", "--n", "1", "--J", "-1"])
@example(["current", "--file", CURRENT, "--q", "", "--p", "3", "--alpha-at", "5"])
@example(["as-genus", "--e", "6", "--p", "5", "--p", "7"])
@example(["as-genus", "--e", "x", "--p", "5"])
@example(["as-genus", "--e", "6", "--", "--p", "5"])
@example(["as-genus", "--e", "6"])
@example(["skeleton-tower", "--file", TOWER, "--check", "bogus"])
@example(["skeleton-tower", "--file", TOWER, "--check=compose", "--s", "3"])
@example(["order-set", "-h"])
@example(["no-such", "--p", "3"])
@example([])
def test_argv_read_from_the_table_is_what_argparse_reads(argv):
    ns = cli._read_argv(argv)
    if ns is not None:
        assert ns == cli.build_parser().parse_args(argv)
    got = _outcome(argv)
    with mock.patch.object(cli, "_read_argv", return_value=None), \
            mock.patch.object(cli, "_parser", cli.build_parser):
        assert got == _outcome(argv)


def test_every_corpus_request_is_read_from_the_table():
    # so that no later change sends the benchmark's traffic back to argparse
    parser, requests = cli.build_parser(), []
    for path in sorted(glob.glob(os.path.join(CORPUS, "*", "jobs.json"))):
        with open(path, encoding="utf-8") as fh:
            requests += [job["argv"] for job in json.load(fh) if job["kind"] == "cli"]
    assert len(requests) == 346
    for argv in requests:
        assert cli._read_argv(argv) == parser.parse_args(argv), argv
