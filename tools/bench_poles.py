"""Times the pole jobs of the benchmark on two trees, in alternating rounds.

The inputs are the 21 pole-orders shapes of ``perfbench/workloads.py``
(``POLE_SHAPES``, families from its ``_pole_family`` with one fixed seed, the
same ``--nmax`` rule for ``order-set``) plus the 45-pole ramified
``order-set`` at nmax 45 (p = 3, poles 100-199, pi parts 1-4 on every other
pole, x = 0).  Each round runs one fresh process against ``--base`` and one
against ``--src``, the order of the two sides reversed every other round
(``_bench.alternating``).  A process imports ``nonarch`` from its tree and,
for each request, times ``cli.dispatch`` (best of ``REPEAT`` runs,
``time.perf_counter``), then runs the request once more instrumented and
counts:

- ``columns_built``: integer coefficient blocks built for the elimination
  (the column count handed to ``_integer_blocks``, or the blocks drawn from
  ``_coefficient_blocks``, whichever the tree has);
- ``verify_calls``: ``order_of_combination`` calls;
- ``entry_bits_max``: the largest bit-length of an integer entry adjoined to
  ``_Echelon``;
- ``report_sha256``: a sha256 of the report without ``wall_time_ms`` (and
  with the input file's directory dropped), so the two sides can be checked
  for identical output (``same_report``).

Per request and side the tool records the ``ROUNDS`` times with their
median and quartiles, the exit code and the counts above; a side whose
counts or report change between rounds stops the tool.  Results go under
``--label`` into ``BENCH_poles.json`` at the repository root, next to the
labels already there::

    python3 tools/bench_poles.py --base ../old-checkout/src --label alternating

Stdlib only.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

from _bench import ROOT, best_of, compare, env, over_rounds, parser, record, report_digest

OUT = os.path.join(ROOT, "BENCH_poles.json")
REPEAT = 5
ROUNDS = 10
SEED = 1
SIDES = ("base", "src")
COUNTS = ("exit_code", "columns_built", "verify_calls", "entry_bits_max",
          "report_sha256")
# one side of a round: ``measure`` in a fresh process on the tree argv[2]
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import bench_poles; " \
    "bench_poles.measure(sys.argv[2])"

sys.path.insert(0, ROOT)
from perfbench.workloads import POLE_SHAPES, _pole_family  # noqa: E402

SHAPES = [(cmd, p, n, C, n if C == 1 else n // 2 + 2) for cmd, p, n, C in POLE_SHAPES]
SHAPES.append(("order-set", 3, 45, 2, 45))


class PoleCount:
    """Counts blocks, verifications and entry bits while installed."""

    def __init__(self, poles):
        self.poles = poles
        self.columns = self.verify_calls = self.bits_max = 0
        self.saved = []

    def _patch(self, owner, name, make):
        old = getattr(owner, name, None)
        if old is not None:
            self.saved.append((owner, name, old))
            setattr(owner, name, make(old))

    def __enter__(self):
        def integer_blocks(old):
            def counted(rows, C):
                self.columns += len(rows[0])
                return old(rows, C)
            return counted

        def coefficient_blocks(old):
            def counted(fam, K):
                scale, blocks = old(fam, K)

                def each():
                    for block in blocks:
                        self.columns += 1
                        yield block
                return scale, each()
            return counted

        def order_of_combination(old):
            def counted(*args, **kw):
                self.verify_calls += 1
                return old(*args, **kw)
            return counted

        def add(old):
            def counted(echelon, vec):
                self.bits_max = max(self.bits_max, *(abs(c).bit_length() for c in vec))
                return old(echelon, vec)
            return counted

        self._patch(self.poles, "_integer_blocks", integer_blocks)
        self._patch(self.poles, "_coefficient_blocks", coefficient_blocks)
        self._patch(self.poles, "order_of_combination", order_of_combination)
        self._patch(self.poles._Echelon, "add", add)
        return self

    def __exit__(self, *exc):
        for owner, name, old in reversed(self.saved):
            setattr(owner, name, old)


def poles_digest(payload):
    """``report_digest`` with the input file's temporary directory dropped."""
    inputs = dict(payload["inputs"],
                  poles=os.path.basename(payload["inputs"]["poles"]))
    return report_digest(dict(payload, inputs=inputs))


def measure(tree):
    """Time and count every request against the ``nonarch`` of ``tree``;
    prints one JSON row per request."""
    sys.path.insert(0, tree)
    from nonarch import cli, poles

    home = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if home != tree:
        raise SystemExit(f"nonarch imported from {home}, not {tree}")
    rng = random.Random(SEED)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for idx, (cmd, p, n, C, nmax) in enumerate(SHAPES):
            path = os.path.join(tmp, f"poles-{idx}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_pole_family(rng, p, n, C), fh)
            argv_ = [cmd, "--poles", path]
            if cmd == "order-set":
                argv_ += ["--nmax", str(nmax)]
            t_req, (code, payload) = best_of(lambda: cli.dispatch(argv_), REPEAT)
            with PoleCount(poles) as count:
                cli.dispatch(argv_)
            rows.append({
                "exit_code": code,
                "request_ms": round(t_req * 1e3, 3),
                "columns_built": count.columns,
                "verify_calls": count.verify_calls,
                "entry_bits_max": count.bits_max,
                "report_sha256": poles_digest(payload),
            })
    json.dump(rows, sys.stdout)


def main(argv=None):
    ap = parser(__doc__)
    ap.add_argument("--base", required=True, help="the tree to compare --src against")
    args = ap.parse_args(argv)
    trees = {"base": os.path.abspath(args.base), "src": os.path.abspath(args.src)}
    runs = compare(CHILD, trees, ROUNDS)

    rows = []
    for idx, (cmd, p, n, C, nmax) in enumerate(SHAPES):
        row = {"command": cmd, "p": p, "poles": n, "C": C,
               "nmax": nmax if cmd == "order-set" else None}
        for side in SIDES:
            row[side] = over_rounds([r[idx] for r in runs[side]], COUNTS,
                                    f"{cmd} n={n} on {side}")
        row["same_report"] = row["base"]["report_sha256"] == row["src"]["report_sha256"]
        rows.append(row)

    total = {side: round(sum(row[side]["median_ms"] for row in rows), 3) for side in SIDES}
    record(OUT, args.label, {"env": env(REPEAT, seed=SEED, rounds=ROUNDS),
                             "sum_of_medians_ms": total, "rows": rows})
    for row in rows:
        base, src = row["base"], row["src"]
        print(f"{row['command']:>10} p={row['p']} n={row['poles']:>2} C={row['C']} "
              f"{base['median_ms']:8.3f} -> {src['median_ms']:8.3f} ms  "
              f"columns {base['columns_built']:>3} -> {src['columns_built']:>3}  "
              f"verify {base['verify_calls']} -> {src['verify_calls']}  "
              f"bits {base['entry_bits_max']:>5} -> {src['entry_bits_max']:>5}"
              f"{'' if row['same_report'] else '  REPORTS DIFFER'}")
    print(f"{'sum of medians':>25} {total['base']:8.3f} -> {total['src']:8.3f} ms")


if __name__ == "__main__":
    main()
