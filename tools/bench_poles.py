"""Times the pole jobs of the benchmark on two trees, in alternating rounds.

The inputs are the 21 pole-orders shapes of ``perfbench/workloads.py``
(``POLE_SHAPES``, families from its ``_pole_family`` with one fixed seed, the
same ``--nmax`` rule for ``order-set``) plus the 45-pole ramified
``order-set`` at nmax 45 (p = 3, poles 100-199, pi parts 1-4 on every other
pole, x = 0).  In each round, one process per tree (``_bench.compare``)
times ``cli.dispatch`` on each request (best of ``REPEAT`` runs,
``time.perf_counter``), then runs it once more instrumented and counts:

- ``columns_built``: integer coefficient blocks built for the elimination
  (the blocks drawn from ``_coefficient_blocks``);
- ``verify_calls``: ``order_of_combination`` calls;
- ``entry_bits_max``: the largest bit-length of an integer entry adjoined to
  ``_Echelon``;
- ``report_sha256``: a sha256 of the report without ``wall_time_ms`` (and
  with the input file's directory dropped), so the two sides can be checked
  for identical output (``same_report``).

Per request the tool records what ``_bench.side_by_side`` folds: each
side's ``ROUNDS`` times with their median and quartiles, exit code and
counts, ``same_report`` and ``src_faster_rounds``; a side whose counts or
report change between rounds stops the tool.  Results go under ``--label``
into ``BENCH_poles.json`` at the repository root::

    python3 tools/bench_poles.py --base ../old-checkout/src --label alternating

Stdlib only.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

from _bench import ROOT, SIDES, best_of, compare, env, load, patched, record, \
    report_digest, side_by_side, trees

OUT = os.path.join(ROOT, "BENCH_poles.json")
REPEAT = 5
ROUNDS = 10
SEED = 1
COUNTS = ("exit_code", "columns_built", "verify_calls", "entry_bits_max",
          "report_sha256")

sys.path.insert(0, ROOT)
from perfbench.workloads import POLE_SHAPES, _pole_family  # noqa: E402

SHAPES = [(cmd, p, n, C, n if C == 1 else n // 2 + 2) for cmd, p, n, C in POLE_SHAPES]
SHAPES.append(("order-set", 3, 45, 2, 45))


def pole_counts(poles):
    """(counts, patches): ``_bench.patched`` patches that count, into
    ``counts``, the blocks, verifications and entry bits of what runs under
    them."""
    counts = {"columns_built": 0, "verify_calls": 0, "entry_bits_max": 0}

    def coefficient_blocks(old):
        def counted(fam, K):
            scale, blocks = old(fam, K)

            def each():
                for block in blocks:
                    counts["columns_built"] += 1
                    yield block
            return scale, each()
        return counted

    def order_of_combination(old):
        def counted(*args, **kw):
            counts["verify_calls"] += 1
            return old(*args, **kw)
        return counted

    def add(old):
        def counted(echelon, vec):
            counts["entry_bits_max"] = max(counts["entry_bits_max"],
                                           *(abs(c).bit_length() for c in vec))
            return old(echelon, vec)
        return counted

    return counts, ((poles, "_coefficient_blocks", coefficient_blocks),
                    (poles, "order_of_combination", order_of_combination),
                    (poles._Echelon, "add", add))


def poles_digest(payload):
    """``report_digest`` with the input file's temporary directory dropped."""
    inputs = dict(payload["inputs"],
                  poles=os.path.basename(payload["inputs"]["poles"]))
    return report_digest(dict(payload, inputs=inputs))


def measure(tree, shapes):
    """Time and count the request of every shape against the ``nonarch``
    of ``tree``; one row per shape."""
    cli, poles = load(tree, "cli", "poles")
    rng = random.Random(SEED)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for idx, (cmd, p, n, C, nmax) in enumerate(shapes):
            path = os.path.join(tmp, f"poles-{idx}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_pole_family(rng, p, n, C), fh)
            argv_ = [cmd, "--poles", path]
            if cmd == "order-set":
                argv_ += ["--nmax", str(nmax)]
            t_req, (code, payload) = best_of(lambda: cli.dispatch(argv_), REPEAT)
            counts, patches = pole_counts(poles)
            with patched(*patches):
                cli.dispatch(argv_)
            rows.append(dict(counts, exit_code=code, request_ms=round(t_req * 1e3, 3),
                             report_sha256=poles_digest(payload)))
    return rows


def main(argv=None):
    label, sides = trees(__doc__, argv)
    runs = compare(measure, sides, ROUNDS, SHAPES)
    heads = [{"command": cmd, "p": p, "poles": n, "C": C,
              "nmax": nmax if cmd == "order-set" else None}
             for cmd, p, n, C, nmax in SHAPES]
    rows, faster = side_by_side(runs, heads, COUNTS, "report")

    total = {side: round(sum(row[side]["median_ms"] for row in rows), 3) for side in SIDES}
    record(OUT, label, {"env": env(REPEAT, seed=SEED, rounds=ROUNDS),
                        "sum_of_medians_ms": total, "src_faster_rounds": faster,
                        "rows": rows})
    for row in rows:
        base, src = row["base"], row["src"]
        print(f"{row['command']:>10} p={row['p']} n={row['poles']:>2} C={row['C']} "
              f"{base['median_ms']:8.3f} -> {src['median_ms']:8.3f} ms  "
              f"columns {base['columns_built']:>3} -> {src['columns_built']:>3}  "
              f"verify {base['verify_calls']} -> {src['verify_calls']}  "
              f"bits {base['entry_bits_max']:>5} -> {src['entry_bits_max']:>5}"
              f"{'' if row['same_report'] else '  REPORTS DIFFER'}")
    print(f"{'sum of medians':>25} {total['base']:8.3f} -> {total['src']:8.3f} ms"
          f"  (src faster in {faster} of {ROUNDS} rounds)")


if __name__ == "__main__":
    main()
