"""Every command-line job of the benchmark's seed-1 corpus gives its
recorded report: ``perfbench/oracle.golden_digest`` of the exit code and
the report (without ``wall_time_ms``) must equal the digest in
``perfbench/corpus/seed-1/expected.json``.  The jobs run through
``cli.main`` from the repository root, against which their paths are
written; the corpus is only read."""

import contextlib
import glob
import importlib.util
import io
import json
import os

import pytest

from nonarch import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "perfbench", "corpus", "seed-1")
JOB_FILES = sorted(glob.glob(os.path.join(CORPUS, "*", "jobs.json")))


def _oracle():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", os.path.join(ROOT, "perfbench", "oracle.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_corpus_holds_every_workload():
    assert [os.path.basename(os.path.dirname(f)) for f in JOB_FILES] == \
        ["cli-mix", "pole-orders", "root-ladder", "theta-sweep"]


@pytest.mark.parametrize("jobs_file", JOB_FILES,
                         ids=[os.path.basename(os.path.dirname(f)) for f in JOB_FILES])
def test_every_cli_job_gives_its_recorded_report(monkeypatch, jobs_file):
    oracle = _oracle()
    with open(os.path.join(CORPUS, "expected.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    with open(jobs_file, encoding="utf-8") as fh:
        jobs = [job for job in json.load(fh) if job["kind"] == "cli"]
    assert jobs
    monkeypatch.chdir(ROOT)
    drifted = []
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(job["argv"])
        record = {"code": code, "out": out.getvalue()}
        if oracle.golden_digest(job, record) != golden[job["id"]]:
            drifted.append(job["id"])
    assert drifted == []
