"""Times every request of the checked-in cli-mix corpus on two trees, in
alternating rounds.

The corpus is ``perfbench/corpus/seed-1/cli-mix/jobs.json``: 190 short
requests over all 10 subcommands, five of which end in exit 2 or 4, with
their input files beside it.  It is only read.  In each round, one process
per tree (``_bench.compare``) runs each request from the repository root,
against which its paths are written, with its report captured; the
request's time is the best of ``REPEAT`` runs of ``cli.main``
(``time.perf_counter``), so it includes argument parsing, reading and
checking the input files, and writing the report.  It also records the
exit code and a sha256 of the report without ``wall_time_ms``
(``_bench.report_digest``).

Per request the tool records what ``_bench.side_by_side`` folds: each
side's round times with their median and quartiles, exit code and digest,
``same_report`` and ``src_faster_rounds``; a side whose exit code or
digest changes between rounds stops the tool.  Per subcommand and side it
records the number of requests and the sum of their medians.  Results go
under ``--label`` into ``BENCH_cli.json`` at the repository root::

    python3 tools/bench_cli.py --base ../old-checkout/src --label integer-towers

Stdlib only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from _bench import ROOT, SIDES, best_of, compare, env, load, record, report_digest, \
    side_by_side, trees

OUT = os.path.join(ROOT, "BENCH_cli.json")
JOBS = "perfbench/corpus/seed-1/cli-mix/jobs.json"
REPEAT = 3
ROUNDS = 10
FIRST = None  # time only the first FIRST requests of the corpus; None: all


def measure(tree, first):
    """Time the first ``first`` requests against the ``nonarch`` of
    ``tree``; one row per request."""
    [cli] = load(tree, "cli")
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
    return rows


def main(argv=None):
    label, sides = trees(__doc__, argv)
    runs = compare(measure, sides, ROUNDS, FIRST)
    heads = [{"id": r["id"], "command": r["command"]} for r in runs["src"][0]]
    rows, faster = side_by_side(runs, heads, ("exit_code", "report_sha256"), "report")

    groups = {}
    for row in rows:
        groups.setdefault(row["command"], []).append(row)
    by_command = {side: {command: {"requests": len(group),
                                   "ms": round(sum(r[side]["median_ms"] for r in group), 3)}
                         for command, group in groups.items()}
                  for side in SIDES}

    sum_of_medians = {side: round(sum(t["ms"] for t in by_command[side].values()), 3)
                      for side in SIDES}
    record(OUT, label, {
        "env": env(REPEAT, rounds=ROUNDS),
        "jobs": JOBS,
        "sum_of_medians_ms": sum_of_medians,
        "src_faster_rounds": faster,
        "by_command": by_command,
        "rows": rows,
    })
    for command in sorted(by_command["src"]):
        base, src = by_command["base"][command], by_command["src"][command]
        print(f"{command:<17} {src['requests']:>3} requests  {base['ms']:9.3f} -> "
              f"{src['ms']:9.3f} ms  ({base['ms'] / src['ms']:.2f}x)")
    print(f"{'total':<17} {len(rows):>3} requests  {sum_of_medians['base']:9.3f} -> "
          f"{sum_of_medians['src']:9.3f} ms  (src faster in {faster} of {ROUNDS} rounds)")
    differ = [row["id"] for row in rows if not row["same_report"]]
    print(f"reports differing between the trees: {len(differ)} {differ[:5]}")


if __name__ == "__main__":
    main()
