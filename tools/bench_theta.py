"""Times one ``nonarch theta`` request per shape on two trees, in
alternating rounds, and counts its scalars.

Every shape has p = 3, q = p, z = 5, z0 = 2 and M in 8, 32, 128, 256.  The
one-pair f = (x - q)/(x - q^2) runs at l = 1, where the telescoped product
keeps two factors, and at l = 3, where its zero and pole lie in different
classes mod l and nothing cancels.  The two-pair
f = (x - 1)(x - q)/((x - q^3)(x - q^2)) runs at l = 3: its first pair
shares a class and cancels, its second does not.  One more shape runs the
one pair at l = 1 and M = 100 000, where the product still keeps two
factors, so what grows with M is the bookkeeping of the exponents e_m and
the size of the q^(+-M) operands.  Each round runs one fresh process
against ``--base`` and one against ``--src``, the order of the two sides
reversed every other round (``_bench.alternating``).  A process imports
``nonarch`` from its tree and, for each shape, times ``cli.dispatch`` on
the theta argv (best of ``REPEAT`` runs, ``time.perf_counter``), then runs
the request once more with every ``PadicNumber.__init__`` call counted
(every ``PadicNumber`` is built there).  That run records the number of
``PadicNumber`` objects built and the largest operand bit-length
(numerator or denominator of either component) among them, plus a sha256
of the report without ``wall_time_ms``, so the two sides can be checked
for identical output (``same_report``).

Per shape and side the tool records the ``ROUNDS`` times with their median
and quartiles, the exit code, the counts and the digest; a side whose
counts or report change between rounds stops the tool.  Results go under
``--label`` into ``BENCH_theta.json`` at the repository root, next to the
labels already there::

    python3 tools/bench_theta.py --base ../old-checkout/src --label windowed

Stdlib only.
"""

from __future__ import annotations

import json
import os
import sys

from _bench import ROOT, best_of, compare, env, over_rounds, parser, record, report_digest

OUT = os.path.join(ROOT, "BENCH_theta.json")
REPEAT = 3
ROUNDS = 5
SIDES = ("base", "src")
COUNTS = ("exit_code", "padic_numbers_built", "operand_bits_max", "report_sha256")
# one side of a round: ``measure`` in a fresh process on the tree argv[2],
# the shapes argv[3] as JSON
CHILD = "import json, sys; sys.path.insert(0, sys.argv[1]); import bench_theta; " \
    "bench_theta.measure(sys.argv[2], json.loads(sys.argv[3]))"

ONE_PAIR = "[[1, 1], [2, -1]]"
TWO_PAIRS = "[[0, 1], [3, -1], [1, 1], [2, -1]]"
SHAPES = [(factors, M, l) for M in (8, 32, 128, 256)
          for factors, l in ((ONE_PAIR, 1), (ONE_PAIR, 3), (TWO_PAIRS, 3))]
SHAPES.append((ONE_PAIR, 100000, 1))


def theta_argv(factors, M, l):
    return ["theta", "--p", "3", "--q", "p", "--factors", factors,
            "--l", str(l), "--z", "5", "--z0", "2", "--M", str(M)]


class ScalarCount:
    """Counts PadicNumber constructions while installed."""

    def __init__(self, padic):
        self.padic = padic
        self.built = 0
        self.bits_max = 0

    def _seen(self, x):
        self.built += 1
        for c in (x.rat, x.pi_part):
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > self.bits_max:
                self.bits_max = b

    def __enter__(self):
        cls = self.padic.PadicNumber
        init = self.init = cls.__init__

        def counted_init(obj, *args, **kw):
            init(obj, *args, **kw)
            self._seen(obj)

        cls.__init__ = counted_init
        return self

    def __exit__(self, *exc):
        self.padic.PadicNumber.__init__ = self.init


def measure(tree, shapes):
    """Time and count the request of every shape against the ``nonarch``
    of ``tree``; prints one JSON row per shape."""
    sys.path.insert(0, tree)
    from nonarch import cli, padic

    home = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if home != tree:
        raise SystemExit(f"nonarch imported from {home}, not {tree}")
    rows = []
    for factors, M, l in shapes:
        argv_ = theta_argv(factors, M, l)
        t_req, (code, payload) = best_of(lambda: cli.dispatch(argv_), REPEAT)
        with ScalarCount(padic) as count:
            cli.dispatch(argv_)
        rows.append({
            "exit_code": code,
            "request_ms": round(t_req * 1e3, 3),
            "padic_numbers_built": count.built,
            "operand_bits_max": count.bits_max,
            "report_sha256": report_digest(payload),
        })
    json.dump(rows, sys.stdout)


def main(argv=None):
    ap = parser(__doc__)
    ap.add_argument("--base", required=True, help="the tree to compare --src against")
    args = ap.parse_args(argv)
    trees = {"base": os.path.abspath(args.base), "src": os.path.abspath(args.src)}
    runs = compare(CHILD, trees, ROUNDS, json.dumps(SHAPES))

    rows = []
    for idx, (factors, M, l) in enumerate(SHAPES):
        row = {"factors": factors, "M": M, "l": l}
        for side in SIDES:
            row[side] = over_rounds([r[idx] for r in runs[side]], COUNTS,
                                    f"{factors} M={M} l={l} on {side}")
        row["same_report"] = row["base"]["report_sha256"] == row["src"]["report_sha256"]
        rows.append(row)

    record(OUT, args.label, {
        "env": env(REPEAT, rounds=ROUNDS),
        "argv": theta_argv("<factors>", "<M>", "<l>"),
        "rows": rows,
    })
    for row in rows:
        base, src = row["base"], row["src"]
        print(f"{row['factors']:<34} M={row['M']:>6} l={row['l']} "
              f"{base['median_ms']:9.3f} -> {src['median_ms']:9.3f} ms  "
              f"built {base['padic_numbers_built']:>5} -> {src['padic_numbers_built']:>5}  "
              f"bits {base['operand_bits_max']:>6} -> {src['operand_bits_max']:>6}"
              f"{'' if row['same_report'] else '  REPORTS DIFFER'}")


if __name__ == "__main__":
    main()
