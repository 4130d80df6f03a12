"""Times every request of the checked-in cli-mix corpus through ``cli.main``.

The corpus is ``perfbench/corpus/seed-1/cli-mix/jobs.json``: 190 short
requests over all 10 subcommands, five of which end in exit 2 or 4, with
their input files beside it.  It is only read.  Each request runs from the
repository root, against which its paths are written, with its report
captured; its time is the best of ``REPEAT`` runs of ``cli.main``
(``time.perf_counter``), so it includes argument parsing, reading and
checking the input files, and writing the report.  Per request the tool
records the exit code, that time and a sha256 of the report without
``wall_time_ms`` (``_bench.report_digest``), so a before and an after run
can be checked for identical output; per subcommand it records the number
of requests and their summed time.  Results go under ``--label`` into
``BENCH_cli.json`` at the repository root, next to the labels already
there, and every request whose digest differs from another label's is
printed::

    python3 tools/bench_cli.py --src ../old-checkout/src --label before
    python3 tools/bench_cli.py --label after

Stdlib only; ``--src`` picks the ``nonarch`` source tree to import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from _bench import ROOT, best_of, env, parse_args, record, report_digest

OUT = os.path.join(ROOT, "BENCH_cli.json")
JOBS = "perfbench/corpus/seed-1/cli-mix/jobs.json"
REPEAT = 3


def main(argv=None):
    args = parse_args(__doc__, argv)
    from nonarch import cli

    os.chdir(ROOT)
    with open(JOBS, encoding="utf-8") as fh:
        jobs = json.load(fh)

    def request(job):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(job["argv"])
        return code, out.getvalue()

    rows, totals = [], {}
    for job in jobs:
        t, (code, out) = best_of(lambda: request(job), REPEAT)
        rows.append({"id": job["id"], "command": job["argv"][0], "exit_code": code,
                     "request_ms": round(t * 1e3, 4),
                     "report_sha256": report_digest(json.loads(out))})
        total = totals.setdefault(job["argv"][0], {"requests": 0, "ms": 0.0})
        total["requests"] += 1
        total["ms"] += t * 1e3
    for total in totals.values():
        total["ms"] = round(total["ms"], 3)

    data = record(OUT, args.label, {
        "env": env(REPEAT),
        "jobs": JOBS,
        "total_ms": round(sum(t["ms"] for t in totals.values()), 3),
        "by_command": totals,
        "rows": rows,
    })
    for command, total in sorted(totals.items()):
        print(f"{command:<17} {total['requests']:>3} requests  {total['ms']:9.3f} ms")
    print(f"{'total':<17} {len(rows):>3} requests  {data[args.label]['total_ms']:9.3f} ms")
    for label, other in sorted(data.items()):
        if label != args.label:
            differ = [r["id"] for r, o in zip(other["rows"], rows)
                      if r["report_sha256"] != o["report_sha256"]]
            print(f"reports differing from {label!r}: {len(differ)} {differ[:5]}")


if __name__ == "__main__":
    main()
