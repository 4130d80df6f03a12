"""Times one ``nonarch theta`` request per shape and counts its scalars.

Every shape has p = 3, q = p, z = 5, z0 = 2 and M in 8, 32, 128, 256.  The
one-pair f = (x - q)/(x - q^2) runs at l = 1, where the telescoped product
keeps two factors, and at l = 3, where its zero and pole lie in different
classes mod l and nothing cancels.  The two-pair
f = (x - 1)(x - q)/((x - q^3)(x - q^2)) runs at l = 3: its first pair
shares a class and cancels, its second does not.  One more shape runs the
one pair at l = 1 and M = 100 000, where the product still keeps two
factors, so what grows with M is the bookkeeping of the exponents e_m and
the size of the q^(+-M) operands.  For each shape it times
``cli.dispatch`` on the theta argv (best of ``REPEAT`` runs,
``time.perf_counter``), then runs the request once more with every
``PadicNumber.__init__`` call counted (every ``PadicNumber`` is built
there).  That run records the number of ``PadicNumber`` objects built and the largest
operand bit-length (numerator or denominator of either component) among
them, plus a sha256 of the report without ``wall_time_ms``, so a before
and an after run can be checked for identical output.  Results go under
``--label`` into ``BENCH_theta.json`` at the repository root, next to the
labels already there::

    python3 tools/bench_theta.py --src ../old-checkout/src --label before
    python3 tools/bench_theta.py --label after

Stdlib only; ``--src`` picks the ``nonarch`` source tree to import.
"""

from __future__ import annotations

import os

from _bench import ROOT, best_of, env, parse_args, record, report_digest

OUT = os.path.join(ROOT, "BENCH_theta.json")
REPEAT = 3

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


def main(argv=None):
    args = parse_args(__doc__, argv)
    from nonarch import cli, padic

    rows = []
    for factors, M, l in SHAPES:
        argv_ = theta_argv(factors, M, l)
        t_req, (code, payload) = best_of(lambda: cli.dispatch(argv_), REPEAT)
        with ScalarCount(padic) as count:
            cli.dispatch(argv_)
        rows.append({
            "factors": factors, "M": M, "l": l, "exit_code": code,
            "request_ms": round(t_req * 1e3, 3),
            "padic_numbers_built": count.built,
            "operand_bits_max": count.bits_max,
            "report_sha256": report_digest(payload),
        })

    record(OUT, args.label, {
        "env": env(REPEAT),
        "argv": theta_argv("<factors>", "<M>", "<l>"),
        "rows": rows,
    })
    for r in rows:
        print(f"{r['factors']:<34} M={r['M']:>6} l={r['l']} "
              f"request {r['request_ms']:9.3f} ms  built {r['padic_numbers_built']:>7}  "
              f"bits {r['operand_bits_max']:>7}  {r['report_sha256'][:12]}")


if __name__ == "__main__":
    main()
