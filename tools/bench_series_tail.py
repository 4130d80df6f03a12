"""Times the series-tail kernels on fixed seeded unit series.

For each input (explicit degree 8, 32 or 64; p, m; with or without a tail)
it times the root tail (``series._root_tail(f, m)``, or in older trees
``series._root_tail(u, e, m, p)`` on a prebuilt u = f - 1),
``series_p_power_root``, ``BoundedSeries.inverse`` (the other caller of
the power recurrence ``series._power_coeffs``) and
``torsor.splitting_logradius_numeric`` (best of ``REPEAT`` runs,
``time.perf_counter``), and records the number of constraint points of
f - 1 and the largest operand bit-length (numerator or denominator) of
the input and of the expanded root.  Results go under ``--label`` into
``BENCH_series_tail.json`` at the repository root, next to the labels
already there, so one file holds a before and an after run::

    python3 tools/bench_series_tail.py --src ../old-checkout/src --label before
    python3 tools/bench_series_tail.py --label after

Stdlib only; ``--src`` picks the ``nonarch`` source tree to import.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from _bench import ROOT, best_of, env, parse_args, record

OUT = os.path.join(ROOT, "BENCH_series_tail.json")
REPEAT = 5

# (p, explicit degree D, m, with tail)
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


def main(argv=None):
    args = parse_args(__doc__, argv)
    from nonarch import series, torsor

    rows = []
    for i, (p, D, m, tailed) in enumerate(SHAPES):
        f = make_series(series, p, D, tailed, seed=i)
        u = series.BoundedSeries(p, (series.PadicNumber.zero(p),) + f.coeffs[1:], f.tail)
        germ = torsor.RamifiedGerm(f)
        if series._root_tail.__code__.co_argcount == 2:
            t_tail, tail = best_of(lambda: series._root_tail(f, m), REPEAT)
        else:
            t_tail, tail = best_of(lambda: series._root_tail(u, u.ord(), m, p), REPEAT)
        t_root, root = best_of(lambda: series.series_p_power_root(f, m), REPEAT)
        t_inverse, _ = best_of(f.inverse, REPEAT)
        t_radius, radius = best_of(lambda: torsor.splitting_logradius_numeric(germ, m), REPEAT)
        rows.append({
            "p": p, "degree": D, "m": m, "tail": tailed,
            "constraint_points": len(u.explicit_points()) + tailed,
            "input_operand_bits_max": operand_bits(f.coeffs),
            "root_operand_bits_max": operand_bits(root.coeffs),
            "root_tail": [str(tail.alpha), str(tail.beta)],
            "radius": str(radius),
            "root_tail_ms": round(t_tail * 1e3, 3),
            "series_p_power_root_ms": round(t_root * 1e3, 3),
            "inverse_ms": round(t_inverse * 1e3, 3),
            "splitting_logradius_numeric_ms": round(t_radius * 1e3, 3),
        })

    record(OUT, args.label, {
        "env": env(REPEAT),
        "rows": rows,
    })
    for r in rows:
        print(f"p={r['p']} D={r['degree']:>2} m={r['m']} tail={r['tail']!s:5} "
              f"points={r['constraint_points']:>2} tail {r['root_tail_ms']:8.3f} ms  "
              f"root {r['series_p_power_root_ms']:8.3f} ms  "
              f"inverse {r['inverse_ms']:8.3f} ms  "
              f"radius {r['splitting_logradius_numeric_ms']:8.3f} ms")


if __name__ == "__main__":
    main()
