"""``import nonarch`` imports no submodule, and a command imports only the
modules it calls and none of the standard library's code-inspection
modules.  Each check runs in a fresh interpreter, since this process has
long imported every module."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_MIX = os.path.join(ROOT, "perfbench", "corpus", "seed-1", "cli-mix", "jobs.json")

ALL = [
    "ArtinSchreierData", "BallPoint", "BoundedSeries", "CompletedSubdivision",
    "Current", "Edge", "EdgeEnd", "EvalResult", "FactoredFunction", "GraphPoint",
    "INF", "LadderResult", "NEG_INF", "OrderSetResult", "PadicNumber", "PoleFamily",
    "RamifiedGerm", "Refinement", "Segment", "SkeletonGraph", "SkeletonTower",
    "SubdivisionSet", "TailBound", "ThetaRequest", "alpha_eval",
    "alpha_germ", "artin_schreier_certificate", "berkovich", "binom_fractional",
    "canonical_point", "classify_type", "compose", "compose_check",
    "convergence_logradius", "current_from_slopes", "current_x", "currents",
    "delta_at_one", "delta_eval", "dlog_ord", "errors", "factored_alpha",
    "find_nonppower_order", "finite_product_eval", "integer_approximation", "join",
    "ladder_ord", "ladder_point", "moebius", "moebius_current", "moebius_orbit",
    "order_of_combination", "order_set", "padic", "padic_digit_string", "poles",
    "poly_current_eval", "product_at", "ramification_index", "retract", "same_point",
    "sample_points", "seminorm", "series", "series_p_power_root", "skeleton",
    "splitting_logradius_exact", "splitting_logradius_numeric", "subdivision_union",
    "theta_automorphy_constant", "theta_product", "torsor",
    "tower_separation", "valuation", "vp_factorial",
]

BASE = {"nonarch", "nonarch.cli", "nonarch.padic", "nonarch.errors"}
POLES = BASE | {"nonarch.poles", "nonarch.berkovich"}
SKELETON = BASE | {"nonarch.skeleton"}
TORSOR = BASE | {"nonarch.torsor", "nonarch.series", "nonarch.berkovich"}
CURRENTS = TORSOR | {"nonarch.currents"}
MODULES = {"order-set": POLES, "find-order": POLES, "skeleton-tower": SKELETON,
           "splitting-radius": TORSOR, "as-genus": TORSOR, "current": CURRENTS,
           "moebius-check": CURRENTS, "poly-eval": CURRENTS, "theta": CURRENTS,
           "ladder-ord": CURRENTS}

LOADED = 'sorted(m for m in sys.modules if m.split(".")[0] == "nonarch")'

# what ``dataclasses`` imports, about 7 ms and 1.2 MB of a process; a
# module in ``before`` (taken ahead of ``import nonarch``, so also one a
# site hook loads) does not count
HEAVY = ("ast", "dataclasses", "dis", "inspect", "tokenize")
ADDED = f"sorted(m for m in {HEAVY!r} if m in sys.modules and m not in before)"


def _run(code, *args):
    """stdout of ``code`` in a fresh interpreter importing from src/, run
    from the repository root; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _first_requests():
    with open(CLI_MIX, encoding="utf-8") as fh:
        jobs = [job for job in json.load(fh) if job["kind"] == "cli"]
    first = {}
    for job in jobs:
        first.setdefault(job["argv"][0], job["argv"])
    return first


def test_import_nonarch_loads_no_submodule():
    out = _run("import json, sys\nbefore = set(sys.modules)\nimport nonarch\n"
               f"print(json.dumps([{LOADED}, {ADDED}]))")
    assert json.loads(out) == [["nonarch"], []]


def test_the_corpus_has_a_request_of_every_command():
    assert sorted(_first_requests()) == sorted(MODULES)


@pytest.mark.parametrize("command", sorted(MODULES))
def test_a_command_loads_only_its_modules(command):
    code = ("import contextlib, io, json, sys\n"
            "before = set(sys.modules)\n"
            "from nonarch import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(json.loads(sys.argv[1]))\n"
            f"print(json.dumps([code, {LOADED}, {ADDED}]))")
    argv = json.dumps(_first_requests()[command])
    exit_code, loaded, added = json.loads(_run(code, argv))
    assert exit_code == 0
    assert loaded == sorted(MODULES[command])
    assert added == []


def test_all_is_the_pinned_list_and_each_name_is_its_modules_object():
    code = """
import json, sys, types
import nonarch
from nonarch import *
for name in nonarch.__all__:
    obj = getattr(nonarch, name)
    assert globals()[name] is obj, name
    if isinstance(obj, types.ModuleType):
        home = "nonarch." + name
        assert obj is sys.modules[home], name
    else:
        home = "nonarch.padic" if isinstance(obj, float) else obj.__module__
        assert vars(sys.modules[home])[name] is obj, name
assert set(nonarch.__all__) <= set(dir(nonarch))
print(json.dumps([nonarch.__version__, nonarch.__all__]))
"""
    version, names = json.loads(_run(code))
    assert version == "0.1.0"
    assert names == ALL and len(ALL) == 75


def test_an_unknown_name_raises_attribute_error():
    code = """
import nonarch
for name in ("no_such_name", "PadicNumbers", "__missing__"):
    try:
        getattr(nonarch, name)
    except AttributeError as exc:
        assert str(exc) == f"module 'nonarch' has no attribute {name!r}", exc
    else:
        raise SystemExit(name + " resolved")
assert not hasattr(nonarch, "missing")
"""
    _run(code)
