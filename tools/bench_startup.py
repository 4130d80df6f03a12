"""Times a fresh ``python -m nonarch.cli`` process per subcommand, on two trees.

For each of the 10 subcommands the request is its first one in the
checked-in cli-mix corpus (``perfbench/corpus/seed-1/cli-mix/jobs.json``),
run from the repository root, against which its paths are written.  In
each round, one process per tree (``_bench.compare``) starts every request
once as a new process with the tree as ``PYTHONPATH``; a request's time is
the wall time from starting its process to its exit (``time.perf_counter``),
so it covers interpreter start-up, importing nonarch, the request and the
report.  Per request the tool records what ``_bench.side_by_side`` folds:
each side's ``ROUNDS`` times (``request_ms``) with their median and
quartiles, exit code and report sha256 without ``wall_time_ms``
(``_bench.report_digest``), ``same_report`` and ``src_faster_rounds``; a
side whose report changes between runs stops the tool.  From one more
process per request and side, run before the rounds through ``runpy`` as
``-m`` does, it adds the sorted ``nonarch`` modules loaded (the command's
module runs as ``__main__``, so ``nonarch.cli`` is not among them), the
other modules it holds beyond those of a bare interpreter on the same tree
(``added_modules``: the standard library the command pulls in, so a heavy
import such as ``dataclasses`` shows up) and ``sys.dont_write_bytecode``.
Results go under ``--label`` into ``BENCH_startup.json`` at the repository
root::

    python3 tools/bench_startup.py --base ../old-checkout/src --label cold-start

Stdlib only.  The processes inherit this one's environment, so with
``PYTHONDONTWRITEBYTECODE`` set every module is compiled from source in
every process, as in the benchmark's runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from _bench import ROOT, SIDES, compare, env, record, report_digest, side_by_side, trees

OUT = os.path.join(ROOT, "BENCH_startup.json")
JOBS = "perfbench/corpus/seed-1/cli-mix/jobs.json"
ROUNDS = 10

PROBE = """
import json, os, runpy, sys
tree, sys.argv = sys.argv[1], ["nonarch"] + sys.argv[2:]
try:
    runpy.run_module("nonarch.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
home = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["nonarch"].__file__)))
if home != tree:
    raise SystemExit(f"nonarch imported from {home}, not {tree}")
sys.stderr.write(json.dumps({
    "exit_code": code, "dont_write_bytecode": sys.dont_write_bytecode,
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "nonarch"),
    "others": sorted(m for m in sys.modules if m.split(".")[0] != "nonarch")}))
"""

# lists the modules of an interpreter that has run nothing, without
# importing json, which would add its own
BARE = "import sys; sys.stderr.write(' '.join(sys.modules))"


def first_requests():
    """The argv of the first corpus request of each subcommand, by name."""
    with open(os.path.join(ROOT, JOBS), encoding="utf-8") as fh:
        jobs = [job for job in json.load(fh) if job["kind"] == "cli"]
    first = {}
    for job in jobs:
        first.setdefault(job["argv"][0], job["argv"])
    return dict(sorted(first.items()))


def run(tree, args):
    """(wall seconds, exit code, report digest, stderr) of one process."""
    environ = dict(os.environ, PYTHONPATH=tree)
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=environ,
                          capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    return wall, done.returncode, report_digest(json.loads(done.stdout)), done.stderr


def probes(tree, requests):
    """Per request, ((exit code, digest), the module fields of its row's
    side) from one process on ``tree`` run through ``PROBE``; its added
    modules are those beyond a bare ``python -c`` process's (``BARE``)."""
    bare = set(subprocess.run([sys.executable, "-c", BARE], cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=tree), capture_output=True,
                              text=True, timeout=300, check=True).stderr.split())
    out = []
    for argv in requests:
        _, code, digest, stderr = run(tree, ["-c", PROBE, tree, *argv])
        if code:
            raise RuntimeError(f"probing {tree} failed:\n{stderr}")
        seen = json.loads(stderr)
        out.append(((seen["exit_code"], digest), {
            "modules": seen["modules"], "added_modules": sorted(set(seen["others"]) - bare),
            "dont_write_bytecode": seen["dont_write_bytecode"]}))
    return out


def measure(tree, requests):
    """Run every request once as a fresh ``python -m nonarch.cli`` process
    on ``tree``; one row per request."""
    rows = []
    for argv in requests:
        wall, code, digest, _ = run(tree, ["-m", "nonarch.cli", *argv])
        rows.append({"exit_code": code, "report_sha256": digest,
                     "request_ms": round(wall * 1e3, 3)})
    return rows


def main(argv=None):
    label, sides = trees(__doc__, argv)
    requests = first_requests()
    probed = {side: probes(tree, requests.values()) for side, tree in sides.items()}
    runs = compare(measure, sides, ROUNDS, list(requests.values()))
    heads = [{"command": command, "argv": argv} for command, argv in requests.items()]
    rows, faster = side_by_side(runs, heads, ("exit_code", "report_sha256"), "report")
    for idx, row in enumerate(rows):
        for side in SIDES:
            seen, fields = probed[side][idx]
            if seen != (row[side]["exit_code"], row[side]["report_sha256"]):
                raise RuntimeError(f"{row['command']} on {side}: the report changed "
                                   "between runs")
            row[side].update(fields)

    total = {side: round(sum(row[side]["median_ms"] for row in rows), 3) for side in SIDES}
    record(OUT, label, {"env": env(ROUNDS), "jobs": JOBS, "sum_of_medians_ms": total,
                        "src_faster_rounds": faster, "rows": rows})
    for row in rows:
        base, src = row["base"], row["src"]
        print(f"{row['command']:<17} {base['median_ms']:8.1f} -> {src['median_ms']:8.1f} ms"
              f"  modules {len(base['modules'])} -> {len(src['modules'])}"
              f"  added {len(base['added_modules'])} -> {len(src['added_modules'])}"
              f"{'' if row['same_report'] else '  REPORTS DIFFER'}")
    print(f"{'sum of medians':<17} {total['base']:8.1f} -> {total['src']:8.1f} ms"
          f"  (src faster in {faster} of {ROUNDS} rounds)")


if __name__ == "__main__":
    main()
