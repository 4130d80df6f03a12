"""Times a fresh ``python -m nonarch.cli`` process per subcommand, on two trees.

For each of the 10 subcommands the request is its first one in the
checked-in cli-mix corpus (``perfbench/corpus/seed-1/cli-mix/jobs.json``),
run from the repository root, against which its paths are written.  Each
round runs every request once as a new process against ``--base`` and
once against ``--src`` (as ``PYTHONPATH``), the order of the two sides
reversed every other round (``_bench.alternating``); a request's time is
the wall time from starting its process to its exit (``time.perf_counter``),
so it covers interpreter start-up, importing nonarch, the request and the
report.  Per request and side the tool records the median and quartiles
of ``ROUNDS`` times, the exit code, the report's sha256 without
``wall_time_ms`` (``_bench.report_digest``; ``same_report`` says whether
the sides agree, and a side whose report changes between runs stops the
tool), and, from one more process run through ``runpy`` as ``-m`` does,
the sorted ``nonarch`` modules loaded (the command's module runs as
``__main__``, so ``nonarch.cli`` is not among them), the other modules
it holds beyond those of a bare interpreter on the same tree
(``added_modules``: the standard library the command pulls in, so a
heavy import such as ``dataclasses`` shows up) and
``sys.dont_write_bytecode``.  Results go under ``--label`` into
``BENCH_startup.json`` at the repository root::

    python3 tools/bench_startup.py --base ../old-checkout/src --label cold-start

Stdlib only.  The processes inherit this one's environment, so with
``PYTHONDONTWRITEBYTECODE`` set every module is compiled from source in
every process, as in the benchmark's runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from _bench import ROOT, alternating, env, parser, record, report_digest

OUT = os.path.join(ROOT, "BENCH_startup.json")
JOBS = "perfbench/corpus/seed-1/cli-mix/jobs.json"
ROUNDS = 10
SIDES = ("base", "src")

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


def bare_modules(tree):
    """The names in ``sys.modules`` of a bare ``python -c`` process."""
    done = subprocess.run([sys.executable, "-c", BARE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=tree),
                          capture_output=True, text=True, timeout=300, check=True)
    return set(done.stderr.split())


def main(argv=None):
    ap = parser(__doc__)
    ap.add_argument("--base", required=True, help="the tree to compare --src against")
    args = ap.parse_args(argv)
    trees = {"base": os.path.abspath(args.base), "src": os.path.abspath(args.src)}
    requests = first_requests()
    bare = {side: bare_modules(tree) for side, tree in trees.items()}

    rows = []
    for command, argv in requests.items():
        row = {"command": command, "argv": argv}
        for side, tree in trees.items():
            _, code, digest, stderr = run(tree, ["-c", PROBE, tree, *argv])
            probe = json.loads(stderr)
            row[side] = {"exit_code": code, "report_sha256": digest,
                         "modules": probe["modules"],
                         "added_modules": sorted(set(probe["others"]) - bare[side]),
                         "dont_write_bytecode": probe["dont_write_bytecode"], "wall_ms": []}
        row["same_report"] = row["base"]["report_sha256"] == row["src"]["report_sha256"]
        rows.append(row)
    for side in alternating(ROUNDS, SIDES):
        for row in rows:
            wall, code, digest, _ = run(trees[side], ["-m", "nonarch.cli", *row["argv"]])
            out = row[side]
            if (code, digest) != (out["exit_code"], out["report_sha256"]):
                raise RuntimeError(f"{row['command']} on {side}: the report changed "
                                   "between runs")
            out["wall_ms"].append(round(wall * 1e3, 3))
    for row in rows:
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(row[side]["wall_ms"], n=4)
            row[side].update(median_ms=round(median, 3), q1_ms=round(q1, 3),
                             q3_ms=round(q3, 3))

    total = {side: round(sum(row[side]["median_ms"] for row in rows), 3) for side in SIDES}
    record(OUT, args.label, {"env": env(ROUNDS), "jobs": JOBS,
                             "sum_of_medians_ms": total, "rows": rows})
    for row in rows:
        base, src = row["base"], row["src"]
        print(f"{row['command']:<17} {base['median_ms']:8.1f} -> {src['median_ms']:8.1f} ms"
              f"  modules {len(base['modules'])} -> {len(src['modules'])}"
              f"  added {len(base['added_modules'])} -> {len(src['added_modules'])}"
              f"{'' if row['same_report'] else '  REPORTS DIFFER'}")
    print(f"{'sum of medians':<17} {total['base']:8.1f} -> {total['src']:8.1f} ms")


if __name__ == "__main__":
    main()
