"""Every command-line job of the benchmark's seed-1 corpus gives its
recorded report: ``perfbench/oracle.golden_digest`` of the exit code and
the report (without ``wall_time_ms``) must equal the digest in
``perfbench/corpus/seed-1/expected.json``.  The jobs run through
``cli.main`` from the repository root, against which their paths are
written; the corpus is only read.  One cycle of every workload for seeds
2 and 3, generated under a temporary directory, must pass
``perfbench/oracle.check``: its command-line jobs, and its library root
jobs run as ``perfbench/worker.py`` runs them."""

import contextlib
import glob
import importlib.util
import io
import json
import os

import pytest

import nonarch
from nonarch import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "perfbench", "corpus", "seed-1")
JOB_FILES = sorted(glob.glob(os.path.join(CORPUS, "*", "jobs.json")))


def _perfbench(name):
    """The module ``perfbench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"code": code, "out": out.getvalue()}


def test_the_corpus_holds_every_workload():
    assert [os.path.basename(os.path.dirname(f)) for f in JOB_FILES] == \
        ["cli-mix", "pole-orders", "root-ladder", "theta-sweep"]


@pytest.mark.parametrize("jobs_file", JOB_FILES,
                         ids=[os.path.basename(os.path.dirname(f)) for f in JOB_FILES])
def test_every_cli_job_gives_its_recorded_report(monkeypatch, jobs_file):
    oracle = _perfbench("oracle")
    with open(os.path.join(CORPUS, "expected.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    with open(jobs_file, encoding="utf-8") as fh:
        jobs = [job for job in json.load(fh) if job["kind"] == "cli"]
    assert jobs
    monkeypatch.chdir(ROOT)
    drifted = []
    for job in jobs:
        if oracle.golden_digest(job, _run_cli(job["argv"])) != golden[job["id"]]:
            drifted.append(job["id"])
    assert drifted == []


def _run_root(worker, runner, job):
    """A library root job's record, as ``perfbench/worker.py`` builds it."""
    _, code, value, exc = runner.run(job)
    return {"code": code, "exc": exc, "out": None if exc else worker._root_text(value)}


@pytest.mark.parametrize("seed", [2, 3])
def test_one_cycle_of_other_seeds_passes_the_oracle(monkeypatch, tmp_path, seed):
    # the digests above pin seed 1 only; other seeds draw other inputs of
    # the same shapes, which the oracle recomputes without nonarch
    workloads, oracle, worker = (_perfbench(name) for name in ("workloads", "oracle", "worker"))
    runner = worker.Runner(nonarch)
    monkeypatch.chdir(tmp_path)
    problems, kinds = {}, set()
    for workload in workloads.WORKLOADS:
        jobs = workloads.generate(workload, seed, 1, str(tmp_path), workload)
        assert any(job["kind"] == "cli" for job in jobs)
        runner.prepare(jobs)
        for job in jobs:
            kinds.add(job["kind"])
            record = _run_cli(job["argv"]) if job["kind"] == "cli" else \
                _run_root(worker, runner, job)
            found = oracle.check(job, record)
            if found:
                problems[job["id"]] = found
    assert kinds == {"cli", "root"}
    assert problems == {}
