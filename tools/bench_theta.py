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
the size of the q^(+-M) operands.  In each round, one process per tree
(``_bench.compare``) times ``cli.dispatch`` on each shape's theta argv
(best of ``REPEAT`` runs, ``time.perf_counter``), then runs the request
once more with every ``PadicNumber.__init__`` call counted (every
``PadicNumber`` is built there).  That run records the number of
``PadicNumber`` objects built and the largest operand bit-length
(numerator or denominator of either component) among them, plus a sha256
of the report without ``wall_time_ms``, so the two sides can be checked
for identical output (``same_report``).

Per shape the tool records what ``_bench.side_by_side`` folds: each side's
``ROUNDS`` times with their median and quartiles, exit code, counts and
digest, ``same_report`` and ``src_faster_rounds``; a side whose counts or
report change between rounds stops the tool.  Results go under ``--label``
into ``BENCH_theta.json`` at the repository root::

    python3 tools/bench_theta.py --base ../old-checkout/src --label windowed

Stdlib only.
"""

from __future__ import annotations

import os

from _bench import ROOT, best_of, compare, env, load, patched, record, report_digest, \
    side_by_side, trees

OUT = os.path.join(ROOT, "BENCH_theta.json")
REPEAT = 3
ROUNDS = 5
COUNTS = ("exit_code", "padic_numbers_built", "operand_bits_max", "report_sha256")

ONE_PAIR = "[[1, 1], [2, -1]]"
TWO_PAIRS = "[[0, 1], [3, -1], [1, 1], [2, -1]]"
SHAPES = [(factors, M, l) for M in (8, 32, 128, 256)
          for factors, l in ((ONE_PAIR, 1), (ONE_PAIR, 3), (TWO_PAIRS, 3))]
SHAPES.append((ONE_PAIR, 100000, 1))


def theta_argv(factors, M, l):
    return ["theta", "--p", "3", "--q", "p", "--factors", factors,
            "--l", str(l), "--z", "5", "--z0", "2", "--M", str(M)]


def scalar_counts(padic):
    """(counts, patches): a ``_bench.patched`` patch that counts, into
    ``counts``, the PadicNumbers built under it and their largest operand
    bit-length."""
    counts = {"padic_numbers_built": 0, "operand_bits_max": 0}

    def init(old):
        def counted(obj, *args, **kw):
            old(obj, *args, **kw)
            counts["padic_numbers_built"] += 1
            for c in (obj.rat, obj.pi_part):
                b = max(c.numerator.bit_length(), c.denominator.bit_length())
                if b > counts["operand_bits_max"]:
                    counts["operand_bits_max"] = b
        return counted

    return counts, ((padic.PadicNumber, "__init__", init),)


def measure(tree, shapes):
    """Time and count the request of every shape against the ``nonarch``
    of ``tree``; one row per shape."""
    cli, padic = load(tree, "cli", "padic")
    rows = []
    for factors, M, l in shapes:
        argv_ = theta_argv(factors, M, l)
        t_req, (code, payload) = best_of(lambda: cli.dispatch(argv_), REPEAT)
        counts, patches = scalar_counts(padic)
        with patched(*patches):
            cli.dispatch(argv_)
        rows.append(dict(counts, exit_code=code, request_ms=round(t_req * 1e3, 3),
                         report_sha256=report_digest(payload)))
    return rows


def main(argv=None):
    label, sides = trees(__doc__, argv)
    runs = compare(measure, sides, ROUNDS, SHAPES)
    heads = [{"factors": factors, "M": M, "l": l} for factors, M, l in SHAPES]
    rows, faster = side_by_side(runs, heads, COUNTS, "report")

    record(OUT, label, {
        "env": env(REPEAT, rounds=ROUNDS),
        "argv": theta_argv("<factors>", "<M>", "<l>"),
        "src_faster_rounds": faster,
        "rows": rows,
    })
    for row in rows:
        base, src = row["base"], row["src"]
        print(f"{row['factors']:<34} M={row['M']:>6} l={row['l']} "
              f"{base['median_ms']:9.3f} -> {src['median_ms']:9.3f} ms  "
              f"built {base['padic_numbers_built']:>5} -> {src['padic_numbers_built']:>5}  "
              f"bits {base['operand_bits_max']:>6} -> {src['operand_bits_max']:>6}"
              f"{'' if row['same_report'] else '  REPORTS DIFFER'}")
    print(f"src faster in {faster} of {ROUNDS} rounds, summed over every shape")


if __name__ == "__main__":
    main()
