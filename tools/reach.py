"""Lists the functions of ``src/nonarch`` that no entry point enters.

The entry points are the command-line and root jobs of the benchmark's
seed-1 corpus (``perfbench/corpus/seed-1/*/jobs.json``, the command-line
jobs through ``cli.main`` from the repository root, the root jobs as
``series_p_power_root`` and ``convergence_logradius`` on the series their
spec builds), every test of ``tests/test_acceptance.py`` and every script
in ``demos/``.  All of them run in this one interpreter, under a
``sys.settrace`` hook installed before ``nonarch`` is imported, which
records the code object of every ``src/nonarch`` frame it sees start.

Every function and method defined in ``src/nonarch`` (found by ``ast``,
matched to the traced code by file and first line) that no frame entered
is printed as ``<lines> <module>.<qualified name>``, in source order,
followed by a total.  A function nested in one that was never entered is
counted with its parent, not listed again.  An entry point that fails
stops the tool with exit 1, since its trace would be partial::

    python3 tools/reach.py

Stdlib only; the ``nonarch`` imported is the one under this repository's
``src``.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import importlib.util
import io
import json
import os
import runpy
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "nonarch")
CORPUS = os.path.join(ROOT, "perfbench", "corpus", "seed-1")


def functions(path):
    """(first line, qualified name, lines, enclosing function's first line
    or None) of every function defined in the file at ``path``; a
    decorated function starts at its first decorator."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = []

    def walk(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((first, name, child.end_lineno - first + 1, parent))
                walk(child, name + ".<locals>.", first)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", parent)
            else:
                walk(child, prefix, parent)

    walk(tree, "", None)
    return out


def corpus_jobs():
    jobs = []
    for path in sorted(glob.glob(os.path.join(CORPUS, "*", "jobs.json"))):
        with open(path, encoding="utf-8") as fh:
            jobs += json.load(fh)
    return jobs


def run_entry_points():
    """Run every entry point; the names of those that failed."""
    failed = []
    os.chdir(ROOT)
    from nonarch import cli, series

    for job in corpus_jobs():
        try:
            if job["kind"] == "root":
                spec = job["spec"]
                tail = spec["tail"] and series.TailBound(Fraction(spec["tail"]["alpha"]),
                                                         Fraction(spec["tail"]["beta"]))
                f = series.BoundedSeries.build(
                    spec["p"], [Fraction(c) for c in spec["coeffs"]], tail)
                series.convergence_logradius(series.series_p_power_root(f, spec["m"]))
            else:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(job["argv"])
        except Exception as exc:  # a job's documented failures return codes
            failed.append(f"{job['id']}: {exc!r}")

    sys.path.insert(0, os.path.join(ROOT, "tests"))
    spec = importlib.util.spec_from_file_location(
        "test_acceptance", os.path.join(ROOT, "tests", "test_acceptance.py"))
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    for name in sorted(n for n in vars(acceptance) if n.startswith("test_")):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                getattr(acceptance, name)()
        except Exception as exc:
            failed.append(f"tests/test_acceptance.py::{name}: {exc!r}")

    for demo in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(demo, run_name="__main__")
        except Exception as exc:
            failed.append(f"{os.path.relpath(demo, ROOT)}: {exc!r}")
    return failed


def main():
    files = {os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
             if name.endswith(".py")}
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files:
            entered.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, SRC)
    sys.settrace(trace)
    try:
        failed = run_entry_points()
    finally:
        sys.settrace(None)
    if failed:
        sys.stderr.write("entry points failed, so the trace is partial:\n")
        sys.stderr.writelines(f"  {line}\n" for line in failed)
        return 1

    count = lines = total = 0
    for path in sorted(files):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
        missed = set()
        for first, name, size, parent in functions(path):
            if (path, first) in entered:
                continue
            missed.add(first)
            if parent in missed:
                continue
            count, lines = count + 1, lines + size
            print(f"{size:4d} {module}.{name}")
    print(f"{count} functions, {lines} lines of {total} in src/nonarch not entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
