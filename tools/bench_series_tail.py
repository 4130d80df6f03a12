"""Times the series-tail kernels on fixed seeded unit series on two trees,
in alternating rounds.

For each input (explicit degree 8, 32 or 64; p, m; with or without a tail)
it times four kernels, each one row: the root tail
(``series._root_tail(f, m)``), ``series_p_power_root``, the coefficients
of 1/f from the power recurrence ``series._power_coeffs`` at exponent -1
(the exponents the binomial factors of ``currents.alpha_germ`` use when
negative) and ``torsor.splitting_logradius_numeric`` (best of ``REPEAT``
runs, ``time.perf_counter``; stored as ``request_ms``), in one process per
tree and round (``_bench.compare``).  With every row go the number of
constraint points of f - 1, the largest operand bit-length (numerator or
denominator) of the input and of the expanded root, and a sha256 of the
results (the root's coefficients, its tail, 1/f and the radius), so the
two sides can be checked for identical output (``same_result``).

Per row the tool records what ``_bench.side_by_side`` folds: each side's
``ROUNDS`` times with their median and quartiles and the values above,
``same_result`` and ``src_faster_rounds``; a side whose values change
between rounds stops the tool.  Results go under ``--label`` into
``BENCH_series_tail.json`` at the repository root::

    python3 tools/bench_series_tail.py --base ../old-checkout/src --label recurrence

Stdlib only.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from _bench import ROOT, best_of, compare, env, load, record, report_digest, side_by_side, \
    trees

OUT = os.path.join(ROOT, "BENCH_series_tail.json")
REPEAT = 5
ROUNDS = 10
KERNELS = ("root_tail", "series_p_power_root", "power_inverse",
           "splitting_logradius_numeric")
COUNTS = ("constraint_points", "input_operand_bits_max", "root_operand_bits_max",
          "result_sha256")

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
    ``nonarch`` of ``tree``; one row per shape and kernel."""
    series, torsor = load(tree, "series", "torsor")
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
    return rows


def main(argv=None):
    label, sides = trees(__doc__, argv)
    runs = compare(measure, sides, ROUNDS, SHAPES)
    heads = [{"p": p, "degree": D, "m": m, "tail": tailed, "kernel": kernel}
             for p, D, m, tailed in SHAPES for kernel in KERNELS]
    rows, faster = side_by_side(runs, heads, COUNTS, "result")

    record(OUT, label, {"env": env(REPEAT, rounds=ROUNDS), "src_faster_rounds": faster,
                        "rows": rows})
    for row in rows:
        base, src = row["base"], row["src"]
        print(f"p={row['p']} D={row['degree']:>2} m={row['m']} tail={row['tail']!s:5} "
              f"{row['kernel']:<27} {base['median_ms']:8.3f} -> {src['median_ms']:8.3f} ms"
              f"{'' if row['same_result'] else '  RESULTS DIFFER'}")
    print(f"src faster in {faster} of {ROUNDS} rounds, summed over every row")


if __name__ == "__main__":
    main()
