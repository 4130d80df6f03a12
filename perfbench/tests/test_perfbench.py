"""Self-tests of the benchmark at smoke size.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _tree(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


# -- generator -------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a = workloads.generate(workload, 5, 2, str(tmp_path / "a"), "in")
    b = workloads.generate(workload, 5, 2, str(tmp_path / "b"), "in")
    c = workloads.generate(workload, 6, 2, str(tmp_path / "c"), "in")
    assert a == b
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert a != c
    # every cycle holds the same strata, whatever the seed
    labels = lambda jobs: sorted(j["label"].split(" ")[0] for j in jobs if j["cycle"] == 1)
    assert labels(a) == labels(c)


def test_checked_in_corpus_is_the_generator_output(tmp_path):
    rel = f"perfbench/corpus/seed-{workloads.DEFAULT_SEED}"
    workloads.write_corpus(workloads.DEFAULT_SEED, rel, str(tmp_path))
    fresh = _tree(tmp_path / rel)
    kept = {k: v for k, v in _tree(os.path.join(ROOT, rel)).items()
            if k != "expected.json"}
    assert fresh == kept


# -- oracle ----------------------------------------------------------------


@pytest.fixture(scope="module")
def nonarch_runner():
    return worker.Runner(worker.import_nonarch())


def _run(runner, job):
    return worker._record(job, *runner.run(job))


def _cycle(tmp_path, workload, seed=3):
    jobs = workloads.generate(workload, seed, 1, str(tmp_path), "in")
    for i, job in enumerate(jobs):
        job["index"] = i
    return jobs


def test_oracle_accepts_and_rejects(tmp_path, nonarch_runner, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = _cycle(tmp_path, "cli-mix")
    nonarch_runner.prepare(jobs)
    codes = set()
    for job in jobs:
        rec = _run(nonarch_runner, job)
        assert oracle.check(job, rec) == [], job["label"]
        codes.add(rec["code"])
        if rec["code"] != 0:
            wrong = dict(rec, code=0)
            assert oracle.check(job, wrong), job["label"]
            continue
        report = json.loads(rec["out"])
        corrupted = copy.deepcopy(report)
        result = corrupted["result"]
        key = sorted(result)[0]
        result[key] = {"tampered": True} if isinstance(result[key], (dict, list)) \
            else not result[key] if isinstance(result[key], bool) else "tampered"
        assert oracle.check(job, dict(rec, out=json.dumps(corrupted))), job["label"]
        assert oracle.check(job, dict(rec, code=3)), job["label"]
        golden = {job["id"]: oracle.golden_digest(job, rec)}
        assert oracle.check(job, rec, golden) == []
        assert oracle.check(job, dict(rec, out=json.dumps(corrupted)), golden)
    assert {0, 2, 4} <= codes
    assert oracle.check(jobs[0], dict(_run(nonarch_runner, jobs[0]), exc="Boom"))


def test_oracle_rejects_a_wrong_root(tmp_path, nonarch_runner):
    jobs = [j for j in _cycle(tmp_path, "root-ladder") if j["kind"] == "root"]
    nonarch_runner.prepare(jobs)
    for job in jobs:
        rec = _run(nonarch_runner, job)
        assert oracle.check(job, rec) == []
        out = json.loads(rec["out"])
        out["coeffs"][-1][0] = str(oracle.Fraction(out["coeffs"][-1][0]) + 1)
        assert oracle.check(job, dict(rec, out=json.dumps(out)))
        out = json.loads(rec["out"])
        out["tail"]["beta"] = str(oracle.Fraction(out["tail"]["beta"]) + 100)
        assert oracle.check(job, dict(rec, out=json.dumps(out)))


def test_miller_recurrence_matches_direct_powers():
    rng = random.Random(4)
    v = [oracle.Fraction(1)] + [oracle.Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                for _ in range(6)]
    w = oracle.miller_power(v, oracle.Fraction(1, 3), 7)
    cube = [oracle.Fraction(1)] + [oracle.Fraction(0)] * 6
    for _ in range(3):
        cube = [sum(cube[i] * w[n - i] for i in range(n + 1)) for n in range(7)]
    assert cube == v


# -- tracing ---------------------------------------------------------------


def test_span_nesting_and_self_time_arithmetic():
    tr = tracer.Tracer()

    def leaf(x):
        return x + 1

    def inner(x):
        return [leaf(x), leaf(x)]

    def middle(x):
        return inner(x) + inner(x)

    def outer(x):
        return middle(x) + [leaf(x)]

    leaf_w = tr.wrap(leaf, "padic.leaf", "padic")
    inner_w = tr.wrap(lambda x: [leaf_w(x), leaf_w(x)], "series.inner", "series")
    middle_w = tr.wrap(lambda x: inner_w(x) + inner_w(x), "series.middle", "series")
    outer_w = tr.wrap(lambda x: middle_w(x) + [leaf_w(x)], "cli.outer", "cli")
    tr.job = 7
    assert outer_w(1) == outer(1)
    spans = list(tr.spans())
    names = [tr.names[f] for f, *_ in spans]
    # spans only at layer boundaries: outer, middle, 4 leaves under inner, 1 leaf
    assert names.count("series.inner") == 0
    assert names == ["cli.outer", "series.middle"] + ["padic.leaf"] * 4 + ["padic.leaf"]
    for i, (fid, start, end, parent, job) in enumerate(spans):
        assert job == 7 and start <= end
        if parent >= 0:
            _, ps, pe, _, _ = spans[parent]
            assert parent < i and ps <= start and end <= pe
    assert [s[3] for s in spans] == [-1, 0, 1, 1, 1, 1, 0]
    by_layer = tr.layer_self_ns_from_spans()
    for layer in ("cli", "series", "padic"):
        assert by_layer[layer] == tr.total_self_ns(layer)
    root_ns = spans[0][2] - spans[0][1]
    assert sum(by_layer.values()) == root_ns
    assert tr.calls[tr.fid("series.inner")] == 2
    assert tr.calls[tr.fid("padic.leaf")] == 5


def test_untraced_run_has_no_wrappers_and_uninstall_restores(nonarch_runner):
    nonarch = nonarch_runner.nonarch
    add = nonarch.padic.PadicNumber.__dict__["__add__"]
    binom = nonarch.series.binom_fractional
    assert tracer.count_wrapped(nonarch) == 0
    tr = tracer.Tracer()
    tr.install(nonarch)
    try:
        assert tracer.count_wrapped(nonarch) > 100
        # re-imported names are wrapped too
        assert hasattr(nonarch.series.binom_fractional, tracer.MARK)
        assert hasattr(nonarch.currents.binom_fractional, tracer.MARK)
        assert hasattr(nonarch.poles.seminorm, tracer.MARK)
        x = nonarch.PadicNumber.from_rational(3, 5)
        y = x * x + 1
        assert y.rat == 26
        assert tr.calls[tr.fid("padic.PadicNumber.__mul__")] == 1
        assert tr.calls[tr.fid("padic.PadicNumber.__add__")] == 1
        assert tr.metrics()["padic.new"] >= 3
    finally:
        tr.uninstall()
    assert tracer.count_wrapped(nonarch) == 0
    assert nonarch.padic.PadicNumber.__dict__["__add__"] is add
    assert nonarch.series.binom_fractional is binom


# -- the whole benchmark at smoke size -------------------------------------


def test_smoke_run_prints_every_metric():
    spec = run.load_spec()
    r0 = run.run_one("cli-mix", 9, 0.5, 0, setup_runs=1)
    assert r0["correct"] and r0["attempted"] >= 19
    assert set(r0["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in r0["metrics"].values())
    assert r0["wrapped_callables"] == 0
    r1 = run.run_one("cli-mix", 9, 0.5, 1, setup_runs=0)
    assert r1["correct"]
    assert set(r1["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert r1["overhead"]["spans"] > 0
    # every count in the trace repeats exactly for a fixed seed
    again = run.run_one("cli-mix", 9, 0.5, 1, setup_runs=0)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    assert {k: r1["metrics"][k]["value"] for k in counts} == \
        {k: again["metrics"][k]["value"] for k in counts}
    line = run.summary_line([r0], spec)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
