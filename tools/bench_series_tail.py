"""Times the series-tail kernels on fixed seeded unit series on two trees,
in alternating rounds.

For each input (explicit degree 8, 32 or 64; p, m; with or without a tail)
it times four kernels, each one row: the root tail
(``series._root_tail(f, m)``), ``series_p_power_root``, the coefficients
of 1/f from the power recurrence ``series._power_coeffs`` at exponent -1
(the exponents the binomial factors of ``currents.alpha_germ`` use when
negative) and ``torsor.splitting_logradius_numeric`` (best of ``REPEAT``
runs, ``time.perf_counter``; stored as ``request_ms``).  Each round runs
one fresh process against ``--base`` and one against ``--src``, the order
of the two sides reversed every other round (``_bench.alternating``).
With every row go the number of constraint points of f - 1, the largest
operand bit-length (numerator or denominator) of the input and of the
expanded root, and a sha256 of the results (the root's coefficients, its
tail, 1/f and the radius), so the two sides can be checked for identical
output (``same_result``).

Per row and side the tool records the ``ROUNDS`` times with their median
and quartiles and the values above; a side whose values change between
rounds stops the tool.  Results go under ``--label`` into
``BENCH_series_tail.json`` at the repository root, next to the labels
already there::

    python3 tools/bench_series_tail.py --base ../old-checkout/src --label recurrence

Stdlib only.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

from _bench import ROOT, best_of, compare, env, over_rounds, parser, record, report_digest

OUT = os.path.join(ROOT, "BENCH_series_tail.json")
REPEAT = 5
ROUNDS = 10
SIDES = ("base", "src")
KERNELS = ("root_tail", "series_p_power_root", "power_inverse",
           "splitting_logradius_numeric")
COUNTS = ("constraint_points", "input_operand_bits_max", "root_operand_bits_max",
          "result_sha256")
# one side of a round: ``measure`` in a fresh process on the tree argv[2],
# the shapes argv[3] as JSON
CHILD = "import json, sys; sys.path.insert(0, sys.argv[1]); import bench_series_tail; " \
    "bench_series_tail.measure(sys.argv[2], json.loads(sys.argv[3]))"

# (p, explicit degree D, m, with tail); the i-th series is drawn with seed i
SHAPES = [(p, D, m, tailed) for D in (8, 32, 64)
          for p, m, tailed in ((2, 1, False), (3, 2, True), (5, 2, True), (5, 3, False))]


def make_series(series, p, D, tailed, seed):
    """f = 1 + sum c_j X^j with c_j = r_j p^(s_j), r_j a small rational prime
    to p (a few zero), s_j in 0..2; tail v(a_k) >= k/2 when ``tailed``."""
    rng = random.Random(seed)
    dens = [d for d in (1, 2, 3, 4, 5, 7) if d % p]
    coeffs = [Fraction(1)]
    for j in range(1, D + 1):
        r = Fraction(rng.randint(-9, 9), rng.choice(dens))
        if j == 1 and r == 0:
            r = Fraction(1)
        coeffs.append(r * Fraction(p) ** rng.randint(0, 2))
    tail = series.TailBound(Fraction(1, 2), Fraction(0)) if tailed else None
    return series.BoundedSeries.build(p, coeffs, tail)


def operand_bits(coeffs):
    return max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for c in coeffs for x in (c.rat, c.pi_part))


def texts(coeffs):
    """Each coefficient's two components as text."""
    return [[str(x) for x in (c.rat, c.pi_part)] for c in coeffs]


def measure(tree, shapes):
    """Time the kernels on the series of every shape against the
    ``nonarch`` of ``tree``; prints one JSON row per shape and kernel."""
    sys.path.insert(0, tree)
    from nonarch import series, torsor

    home = os.path.dirname(os.path.dirname(os.path.abspath(series.__file__)))
    if home != tree:
        raise SystemExit(f"nonarch imported from {home}, not {tree}")
    rows = []
    for i, (p, D, m, tailed) in enumerate(shapes):
        f = make_series(series, p, D, tailed, seed=i)
        u = series.BoundedSeries(p, (series.PadicNumber.zero(p),) + f.coeffs[1:], f.tail)
        germ = torsor.RamifiedGerm(f)
        times, (tail, root, inverse, radius) = zip(
            best_of(lambda: series._root_tail(f, m), REPEAT),
            best_of(lambda: series.series_p_power_root(f, m), REPEAT),
            best_of(lambda: series._power_coeffs(
                f.coeffs, Fraction(-1), f.coeffs[0].inverse(), D), REPEAT),
            best_of(lambda: torsor.splitting_logradius_numeric(germ, m), REPEAT))
        counts = {
            "constraint_points": len(u.explicit_points()) + tailed,
            "input_operand_bits_max": operand_bits(f.coeffs),
            "root_operand_bits_max": operand_bits(root.coeffs),
            "result_sha256": report_digest({
                "root": texts(root.coeffs), "root_tail": [str(tail.alpha), str(tail.beta)],
                "inverse": texts(inverse), "radius": str(radius)}),
        }
        rows += [dict(counts, request_ms=round(t * 1e3, 3)) for t in times]
    json.dump(rows, sys.stdout)


def main(argv=None):
    ap = parser(__doc__)
    ap.add_argument("--base", required=True, help="the tree to compare --src against")
    args = ap.parse_args(argv)
    trees = {"base": os.path.abspath(args.base), "src": os.path.abspath(args.src)}
    runs = compare(CHILD, trees, ROUNDS, json.dumps(SHAPES))

    rows = []
    for idx, ((p, D, m, tailed), kernel) in enumerate(
            (shape, kernel) for shape in SHAPES for kernel in KERNELS):
        row = {"p": p, "degree": D, "m": m, "tail": tailed, "kernel": kernel}
        for side in SIDES:
            row[side] = over_rounds([r[idx] for r in runs[side]], COUNTS,
                                    f"p={p} D={D} m={m} {kernel} on {side}")
        row["same_result"] = row["base"]["result_sha256"] == row["src"]["result_sha256"]
        rows.append(row)

    record(OUT, args.label, {"env": env(REPEAT, rounds=ROUNDS), "rows": rows})
    for row in rows:
        base, src = row["base"], row["src"]
        print(f"p={row['p']} D={row['degree']:>2} m={row['m']} tail={row['tail']!s:5} "
              f"{row['kernel']:<27} {base['median_ms']:8.3f} -> {src['median_ms']:8.3f} ms"
              f"{'' if row['same_result'] else '  RESULTS DIFFER'}")


if __name__ == "__main__":
    main()
