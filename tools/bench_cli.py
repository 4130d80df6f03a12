"""Times every request of the checked-in cli-mix corpus on two trees, in
alternating rounds.

The corpus is ``perfbench/corpus/seed-1/cli-mix/jobs.json``: 190 short
requests over all 10 subcommands, five of which end in exit 2 or 4, with
their input files beside it.  It is only read.  Each round runs one fresh
process against ``--base`` and one against ``--src``, the order of the two
sides reversed every other round (``_bench.alternating``).  A process
imports ``nonarch`` from its tree and runs each request from the
repository root, against which its paths are written, with its report
captured; the request's time is the best of ``REPEAT`` runs of
``cli.main`` (``time.perf_counter``), so it includes argument parsing,
reading and checking the input files, and writing the report.  It also
records the exit code and a sha256 of the report without ``wall_time_ms``
(``_bench.report_digest``).

Per request and side the tool records the round times with their median
and quartiles, the exit code and the digest, and whether the two sides'
reports are the same (``same_report``); a side whose exit code or digest
changes between rounds stops the tool.  Per subcommand and side it records
the number of requests and the sum of their medians.  Results go under
``--label`` into ``BENCH_cli.json`` at the repository root, next to the
labels already there::

    python3 tools/bench_cli.py --base ../old-checkout/src --label integer-towers

Stdlib only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from _bench import ROOT, best_of, compare, env, over_rounds, parser, record, report_digest

OUT = os.path.join(ROOT, "BENCH_cli.json")
JOBS = "perfbench/corpus/seed-1/cli-mix/jobs.json"
REPEAT = 3
ROUNDS = 10
FIRST = None  # time only the first FIRST requests of the corpus; None: all
SIDES = ("base", "src")
# one side of a round: ``measure`` in a fresh process on the tree argv[2]
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import bench_cli; " \
    "bench_cli.measure(sys.argv[2], int(sys.argv[3]))"


def measure(tree, first):
    """Time the first ``first`` requests against the ``nonarch`` of
    ``tree``; prints one JSON row per request."""
    sys.path.insert(0, tree)
    from nonarch import cli

    home = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if home != tree:
        raise SystemExit(f"nonarch imported from {home}, not {tree}")
    os.chdir(ROOT)
    with open(JOBS, encoding="utf-8") as fh:
        jobs = json.load(fh)[:first]

    def request(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    rows = []
    for job in jobs:
        t, (code, out) = best_of(lambda: request(job["argv"]), REPEAT)
        rows.append({"id": job["id"], "command": job["argv"][0], "exit_code": code,
                     "request_ms": round(t * 1e3, 4),
                     "report_sha256": report_digest(json.loads(out))})
    json.dump(rows, sys.stdout)


def main(argv=None):
    ap = parser(__doc__)
    ap.add_argument("--base", required=True, help="the tree to compare --src against")
    args = ap.parse_args(argv)
    trees = {"base": os.path.abspath(args.base), "src": os.path.abspath(args.src)}
    with open(os.path.join(ROOT, JOBS), encoding="utf-8") as fh:
        first = len(json.load(fh)) if FIRST is None else FIRST
    runs = compare(CHILD, trees, ROUNDS, str(first))

    rows, by_command = [], {side: {} for side in SIDES}
    for idx, head in enumerate(runs["src"][0]):
        row = {"id": head["id"], "command": head["command"]}
        for side in SIDES:
            row[side] = over_rounds([r[idx] for r in runs[side]],
                                    ("exit_code", "report_sha256"), f"{head['id']} on {side}")
            total = by_command[side].setdefault(head["command"], {"requests": 0, "ms": 0.0})
            total["requests"] += 1
            total["ms"] += row[side]["median_ms"]
        row["same_report"] = row["base"]["report_sha256"] == row["src"]["report_sha256"]
        rows.append(row)
    for totals in by_command.values():
        for total in totals.values():
            total["ms"] = round(total["ms"], 3)

    sum_of_medians = {side: round(sum(t["ms"] for t in by_command[side].values()), 3)
                      for side in SIDES}
    record(OUT, args.label, {
        "env": env(REPEAT, rounds=ROUNDS),
        "jobs": JOBS,
        "sum_of_medians_ms": sum_of_medians,
        "by_command": by_command,
        "rows": rows,
    })
    for command in sorted(by_command["src"]):
        base, src = by_command["base"][command], by_command["src"][command]
        print(f"{command:<17} {src['requests']:>3} requests  {base['ms']:9.3f} -> "
              f"{src['ms']:9.3f} ms  ({base['ms'] / src['ms']:.2f}x)")
    print(f"{'total':<17} {len(rows):>3} requests  {sum_of_medians['base']:9.3f} -> "
          f"{sum_of_medians['src']:9.3f} ms")
    differ = [row["id"] for row in rows if not row["same_report"]]
    print(f"reports differing between the trees: {len(differ)} {differ[:5]}")


if __name__ == "__main__":
    main()
