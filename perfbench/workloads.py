"""Seeded job generators for the four benchmark workloads.

Every workload is a sequence of *cycles*.  A cycle holds one job per
stratum; the strata (input shapes such as p, l, M or the number of poles)
are fixed per workload, and the seed only picks the concrete values inside
each stratum and the order of the jobs within a cycle.  Every cycle, and
so every run, therefore has the same mix of job sizes, which keeps the
run-to-run spread of the timing metrics small across seeds.

Only the standard library is used: nonarch receives the generated inputs and
nothing else.  Input files (pole families, currents, towers) are written
below the work directory and referenced from the job argv by paths relative
to the repository root.

Run ``python3 perfbench/workloads.py --seed 1 --out perfbench/corpus/seed-1``
to write the corpus for a seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
from fractions import Fraction

DEFAULT_SEED = 1

# Why each workload exists, and its input sizes, is recorded in BENCHMARK.json.
WORKLOADS = ("theta-sweep", "root-ladder", "pole-orders", "cli-mix")

# Cycles per second of job time at the reference speed (worker.CAL_REF_MS)
# on the seed code; only used to size the job list, at 1.5 times what a run
# of --seconds completes, so that a run rarely wraps around to its first job.
CYCLES_PER_SECOND = {"theta-sweep": 1.2, "root-ladder": 2.1,
                     "pole-orders": 0.9, "cli-mix": 11.3}
# Cycles run by a traced run: a fixed count so that trace counters repeat.
TRACE_CYCLES = {"theta-sweep": 3, "root-ladder": 3, "pole-orders": 3,
                "cli-mix": 10}


def _unit(rng, p, nums=range(2, 14), dens=(1, 2, 3, 4, 7)):
    """A small rational p-adic unit different from 1."""
    while True:
        num = rng.choice([n for n in nums if n % p])
        den = rng.choice([d for d in dens if d % p])
        u = Fraction(num, den)
        if u != 1:
            return u


def _rat(x) -> str:
    return str(Fraction(x))


# -- theta-sweep --------------------------------------------------------

# (p, l, M, pairs of grid zeros/poles, v(z)), ordered by cost on the seed
# code.  Jobs 11-12 and 19-22 of each cycle cost about the same, so the
# median and the 90th percentile fall inside a cluster, not across a gap.
THETA_SHAPES = [
    (3, 1, 4, 1, 0), (5, 2, 4, 1, 1), (5, 1, 6, 1, 0), (3, 3, 6, 1, 1),
    (3, 2, 4, 2, 0), (5, 3, 8, 1, 1), (3, 1, 10, 1, 0), (5, 2, 10, 1, 1),
    (5, 1, 12, 1, 0), (3, 3, 6, 2, 1), (3, 2, 12, 1, 0), (5, 3, 12, 1, 1),
    (3, 1, 8, 2, 0), (5, 2, 16, 1, 1), (3, 3, 16, 1, 0), (5, 1, 12, 2, 1),
    (3, 2, 24, 1, 0), (5, 3, 28, 1, 1),
    (3, 1, 32, 1, 0), (5, 2, 32, 1, 1), (3, 3, 32, 1, 1), (5, 1, 32, 1, 0),
]


def _zeros(rng, pairs):
    """Degree-zero factorization: each pair is a zero and a pole of order 1."""
    js = rng.sample(range(-2, 4), 2 * pairs)
    return [[j, 1 - 2 * (i % 2)] for i, j in enumerate(js)]


def _theta_job(rng, p, l, M, pairs, e=0):
    zeros = _zeros(rng, pairs)
    z = _unit(rng, p) * p ** e
    z0 = _unit(rng, p)
    argv = ["theta", "--p", str(p), "--q", "p", "--factors", json.dumps(zeros),
            "--l", str(l), "--z", _rat(z), "--z0", _rat(z0), "--M", str(M)]
    return {"kind": "cli", "label": f"theta p={p} l={l} M={M} pairs={pairs}",
            "argv": argv, "spec": {"cmd": "theta", "p": p, "zeros": zeros, "l": l,
                                   "M": M, "z": _rat(z), "z0": _rat(z0)}}


def _theta_cycle(rng, ctx):
    return [_theta_job(rng, *shape) for shape in THETA_SHAPES]


# -- root-ladder --------------------------------------------------------

# ("root", p, explicit degree D, m, ord of f - 1, with tail) runs the library
# root; ("ladder", p, ord) and ("radius", p, N, n) run ladder-ord and
# splitting-radius --numeric.  Ordered by cost on the seed code, with
# clusters at jobs 9-12 and 17-20 as in THETA_SHAPES.
ROOT_LADDER_SHAPES = [
    ("radius", 2, 3, 4), ("radius", 3, 5, 3), ("radius", 5, 8, 5),
    ("radius", 2, 6, 2), ("root", 2, 8, 1, 1, False), ("ladder", 3, 0),
    ("root", 3, 12, 2, 2, True), ("ladder", 5, 0),
    ("root", 2, 12, 1, 1, False), ("root", 3, 16, 2, 2, False),
    ("root", 5, 12, 3, 1, True), ("root", 5, 16, 1, 2, False),
    ("root", 2, 20, 2, 2, True), ("root", 3, 16, 3, 1, False),
    ("root", 5, 24, 2, 2, False), ("root", 2, 20, 1, 1, True),
    ("ladder", 2, 1), ("ladder", 5, 2), ("root", 3, 28, 1, 2, False),
    ("ladder", 3, 1), ("root", 5, 32, 2, 1, False),
]
# a window of 7 ladder depths leaves room for up to three transient
# differences before the three equal ones that ladder_ord requires
LADDER_NMAX = 7

TAIL_ALPHA = Fraction(1, 2)


def _root_job(rng, p, D, m, e, with_tail):
    dens = [d for d in (1, 2, 3, 4, 5, 7) if d % p]
    top = 2 * D if with_tail else D
    full = [Fraction(1)] + [Fraction(0)] * top
    for j in range(e, top + 1):
        r = Fraction(rng.randint(-9, 9), rng.choice(dens))
        if j == e and r == 0:
            r = Fraction(1)
        s = rng.randint(0, 2)
        if j > D:
            s = max(s, math.ceil(TAIL_ALPHA * j))
        full[j] = r * Fraction(p) ** s
    spec = {"p": p, "m": m, "coeffs": [_rat(c) for c in full[: D + 1]],
            "tail": ({"alpha": _rat(TAIL_ALPHA), "beta": "0"} if with_tail else None),
            "full": [_rat(c) for c in full]}
    return {"kind": "root", "label": f"root p={p} D={D} m={m} e={e}"
            + (" tail" if with_tail else ""), "spec": spec}


def _dlog_row(z, poles, t):
    """Taylor coefficient t of d log prod (x - c)^(k_c) at z, per pole, up to sign."""
    return [Fraction(1) / (z - c) ** (t + 1) for c in poles]


def _nullspace(rows, ncols):
    mat = [list(r) for r in rows]
    pivots = []
    rr = 0
    for col in range(ncols):
        sel = next((r for r in range(rr, len(mat)) if mat[r][col] != 0), None)
        if sel is None:
            continue
        mat[rr], mat[sel] = mat[sel], mat[rr]
        pv = mat[rr][col]
        mat[rr] = [x / pv for x in mat[rr]]
        for r in range(len(mat)):
            if r != rr and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [x - c * y for x, y in zip(mat[r], mat[rr])]
        pivots.append(col)
        rr += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][free]
        basis.append(v)
    return basis


def current_json(x_exponent, zeros):
    """Window current whose alpha is x^m prod (x - q^j)^k up to a scalar,
    in the documented current file format."""
    cusp = {j: k for j, k in zeros if k}
    s0 = x_exponent + sum(k for j, k in cusp.items() if j >= 1)
    if cusp:
        jmin, jmax = min(cusp), max(cusp)
        left = s0 - sum(v for j, v in cusp.items() if jmin <= j <= 0)
    else:
        jmin = jmax = 0
        left = s0
    spine = {jmin - 1: left}
    run = left
    for j in range(jmin, jmax + 1):
        run += cusp.get(j, 0)
        spine[j] = run
    return {"ring": "Z", "period": None, "window": [jmin, jmax],
            "cusp": {str(j): v for j, v in sorted(cusp.items())},
            "spine": {str(j): v for j, v in sorted(spine.items())}}


def _seed_ord_function(rng, p, ord_target):
    """Integer (m, k_j) with d log(x^m prod (x - p^j)^k_j) vanishing to order
    exactly ord_target at a seeded unit z, solved over Q."""
    while True:
        z = Fraction(rng.choice([u for u in (2, 4, 5, 7, 8, 11, 13) if u % p]))
        size = ord_target + 1 if ord_target else rng.randint(1, 2)
        grid = sorted(rng.sample(range(1, 6), size))
        poles = [Fraction(0)] + [Fraction(p) ** j for j in grid]
        if ord_target == 0:
            cands = [[Fraction(1)] * len(poles),
                     [Fraction(1)] + [Fraction(0)] * len(grid)]
        else:
            cands = _nullspace([_dlog_row(z, poles, t) for t in range(ord_target)],
                               len(poles))
        for vec in cands:
            if sum(v * c for v, c in zip(vec, _dlog_row(z, poles, ord_target))) == 0:
                continue
            scale = math.lcm(*(f.denominator for f in vec))
            ints = [int(f * scale) for f in vec]
            zeros = [[j, k] for j, k in zip(grid, ints[1:]) if k]
            if ints[0] == 0 and not zeros:
                continue
            return z, ints[0], zeros


def _ladder_job(rng, ctx, p, ord_target, nmax=LADDER_NMAX):
    z, m, zeros = _seed_ord_function(rng, p, ord_target)
    path = ctx.write_json("current", current_json(m, zeros))
    argv = ["ladder-ord", "--file", path, "--p", str(p), "--q", "p",
            "--z", _rat(z), "--nmax", str(nmax)]
    return {"kind": "cli", "label": f"ladder-ord p={p} ord={ord_target} nmax={nmax}",
            "argv": argv, "spec": {"cmd": "ladder-ord", "ord": ord_target,
                                   "nmax": nmax}}


def _radius_job(p, N, n, numeric=True):
    argv = ["splitting-radius", "--p", str(p), "--N", str(N), "--n", str(n)]
    if numeric:
        argv.append("--numeric")
    return {"kind": "cli", "label": f"splitting-radius p={p} N={N} n={n}"
            + (" numeric" if numeric else ""), "argv": argv,
            "spec": {"cmd": "splitting-radius", "p": p, "N": N, "n": n,
                     "numeric": numeric}}


def _root_ladder_cycle(rng, ctx):
    jobs = []
    for kind, *shape in ROOT_LADDER_SHAPES:
        if kind == "root":
            jobs.append(_root_job(rng, *shape))
        elif kind == "ladder":
            jobs.append(_ladder_job(rng, ctx, *shape))
        else:
            p, N, n = shape
            jobs.append(_radius_job(p, N, rng.randint(max(1, n - 2), n)))
    return jobs


# -- pole-orders --------------------------------------------------------

# (command, p, number of poles, C), ordered by cost on the seed code.  Jobs
# 9-12 and 18-20 of each cycle cost about the same, so the median and the
# 90th percentile of job times fall inside a cluster, not across a gap.
POLE_SHAPES = [
    ("order-set", 2, 10, 1), ("order-set", 3, 10, 2), ("find-order", 5, 10, 1),
    ("order-set", 5, 12, 2), ("find-order", 2, 12, 2), ("order-set", 3, 14, 1),
    ("order-set", 2, 16, 2), ("find-order", 3, 16, 1),
    ("order-set", 5, 18, 1), ("order-set", 2, 18, 2), ("find-order", 3, 18, 1),
    ("find-order", 5, 18, 2),
    ("order-set", 3, 20, 2), ("order-set", 5, 22, 1), ("order-set", 2, 24, 2),
    ("find-order", 2, 28, 1), ("order-set", 3, 26, 1),
    ("order-set", 2, 28, 1), ("order-set", 3, 28, 2), ("order-set", 5, 28, 1),
    ("order-set", 5, 35, 1),
]


def _pole_family(rng, p, n, C):
    # poles of one magnitude (7-8 bits), so that the cost of a job depends on
    # its stratum and hardly on the seed
    vals = rng.sample(range(100, 200), n)
    poles = []
    for i, v in enumerate(vals):
        if C == 2 and i % 2:
            poles.append({"rat": str(v), "pi": str(rng.randint(1, 4))})
        else:
            poles.append(str(v))
    return {"p": p, "x": "0", "poles": poles}


def _order_set_job(rng, ctx, p, n, C):
    fam = _pole_family(rng, p, n, C)
    nmax = n if C == 1 else n // 2 + 2
    path = ctx.write_json("poles", fam)
    return {"kind": "cli", "label": f"order-set p={p} n={n} C={C}",
            "argv": ["order-set", "--poles", path, "--nmax", str(nmax)],
            "spec": {"cmd": "order-set", "family": fam, "nmax": nmax}}


def _find_order_job(rng, ctx, p, n, C, nmax=None):
    fam = _pole_family(rng, p, n, C)
    path = ctx.write_json("poles", fam)
    argv = ["find-order", "--poles", path]
    if nmax is not None:
        argv += ["--nmax", str(nmax)]
    return {"kind": "cli", "label": f"find-order p={p} n={n} C={C}",
            "argv": argv, "spec": {"cmd": "find-order", "family": fam,
                                   "nmax": nmax}}


def _pole_orders_cycle(rng, ctx):
    make = {"order-set": _order_set_job, "find-order": _find_order_job}
    return [make[cmd](rng, ctx, p, n, C) for cmd, p, n, C in POLE_SHAPES]


# -- cli-mix ------------------------------------------------------------


def random_tower(rng, depth):
    """Seeded tower (subdivided edges plus hanging trees per level) in the
    documented tower file format, and the bookkeeping the oracle needs to
    retract points independently of nonarch."""
    graphs = [{"vertices": ["v0", "v1"],
               "edges": [["r0", "v0", "v1", str(rng.randint(1, 4))]], "cusps": []}]
    refinements = []
    levels = []  # per refinement: how each fine vertex/edge sits over the coarse graph
    fresh = [0]

    def name(prefix):
        fresh[0] += 1
        return f"{prefix}{fresh[0]}"

    for level in range(depth):
        coarse = graphs[-1]
        vertices = list(coarse["vertices"])
        edges, paths = [], {}
        vert_over = {w: ("vertex", w) for w in coarse["vertices"]}
        edge_over = {}
        for eid, u, v, length in coarse["edges"]:
            length = Fraction(length)
            pieces = rng.randint(1, 3)
            cuts = sorted(rng.sample(range(1, 8), pieces - 1))
            offsets = [Fraction(0)] + [length * Fraction(c, 8) for c in cuts] + [length]
            chain, prev = [], u
            for k in range(pieces):
                nxt = v if k == pieces - 1 else name("w")
                if nxt != v:
                    vertices.append(nxt)
                    vert_over[nxt] = ("edge", eid, _rat(offsets[k + 1]))
                sid = name("s")
                edges.append([sid, prev, nxt, str(offsets[k + 1] - offsets[k])])
                edge_over[sid] = ("piece", eid, _rat(offsets[k]))
                chain.append([sid, 1])
                prev = nxt
            paths[eid] = chain
        hangs = rng.randint(1 if level == depth - 1 else 0, 2)
        for _ in range(hangs):
            anchor = rng.choice(sorted(vertices))
            t1 = name("t")
            vertices.append(t1)
            h1 = name("h")
            edges.append([h1, anchor, t1, str(rng.randint(1, 3))])
            vert_over[t1] = ("hang", anchor)
            edge_over[h1] = ("hang", anchor)
            if rng.random() < 0.5:
                t2 = name("t")
                vertices.append(t2)
                h2 = name("h")
                edges.append([h2, t1, t2, "1"])
                vert_over[t2] = ("hang", anchor)
                edge_over[h2] = ("hang", anchor)
        graphs.append({"vertices": sorted(vertices), "edges": edges, "cusps": []})
        refinements.append({"coarse": level, "fine": level + 1,
                            "vertex_map": {w: w for w in coarse["vertices"]},
                            "edge_paths": paths})
        levels.append({"vertices": vert_over, "edges": edge_over})
    return {"graphs": graphs, "refinements": refinements}, levels


def _tower_points(rng, tower):
    """Two distinct points of the finest graph: a vertex or an interior
    edge point, written as the CLI expects them."""
    fine = tower["graphs"][-1]

    def point():
        if rng.random() < 0.3:
            return rng.choice(fine["vertices"])
        eid, _, _, length = rng.choice(fine["edges"])
        den = rng.randint(2, 9)
        return f"{eid}@{_rat(Fraction(length) * Fraction(rng.randint(1, den - 1), den))}"

    x = point()
    y = point()
    while y == x:
        y = point()
    return x, y


def _hanging_pair(rng, tower, levels):
    """Two points of one tree hung at the finest level: no proper level
    separates them, so the documented result is exit 4."""
    hangs = [e for e in tower["graphs"][-1]["edges"]
             if levels[-1]["edges"].get(e[0], ("",))[0] == "hang"]
    eid, _, _, length = rng.choice(hangs)
    length = Fraction(length)
    return f"{eid}@{_rat(length / 3)}", f"{eid}@{_rat(2 * length / 3)}"


def _skeleton_jobs(rng, ctx):
    depth = rng.randint(2, 4)
    tower, levels = random_tower(rng, depth)
    path = ctx.write_json("tower", tower)
    spec = {"cmd": "skeleton-tower", "tower": tower, "levels": levels}
    compose = {"kind": "cli", "label": f"skeleton-tower compose depth={depth}",
               "argv": ["skeleton-tower", "--file", path, "--check", "compose",
                        "--samples", "40", "--seed", str(rng.randint(0, 999))],
               "spec": dict(spec, check="compose")}
    x, y = _tower_points(rng, tower)
    sep = {"kind": "cli", "label": f"skeleton-tower separation depth={depth}",
           "argv": ["skeleton-tower", "--file", path, "--check", "separation",
                    "--x", x, "--y", y],
           "spec": dict(spec, check="separation", x=x, y=y)}
    x, y = _hanging_pair(rng, tower, levels)
    coarse = {"kind": "cli", "label": f"skeleton-tower too-coarse depth={depth}",
              "argv": ["skeleton-tower", "--file", path, "--check", "separation",
                       "--x", x, "--y", y],
              "spec": dict(spec, check="separation", x=x, y=y)}
    return [compose, sep, coarse]


def _window_current(rng):
    cusp = {j: rng.randint(-3, 3) for j in range(-2, 4) if rng.random() < 0.5}
    cusp = {j: k for j, k in cusp.items() if k}
    if not cusp:
        cusp = {1: 1}
    return current_json(rng.randint(-2, 2), sorted(cusp.items()))


def _current_jobs(rng, ctx):
    p = rng.choice((2, 3, 5))
    cur = _window_current(rng)
    path = ctx.write_json("current", cur)
    z = _unit(rng, p) * Fraction(p) ** rng.randint(-1, 1)
    jobs = [
        {"kind": "cli", "label": "current validate",
         "argv": ["current", "--file", path],
         "spec": {"cmd": "current", "current": cur}},
        {"kind": "cli", "label": "current delta-at",
         "argv": ["current", "--file", path, "--p", str(p), "--q", "p",
                  "--delta-at", _rat(z)],
         "spec": {"cmd": "current", "current": cur, "p": p, "delta_at": _rat(z)}},
        {"kind": "cli", "label": "current alpha-at",
         "argv": ["current", "--file", path, "--p", str(p), "--q", "p",
                  "--alpha-at", _rat(z)],
         "spec": {"cmd": "current", "current": cur, "p": p, "alpha_at": _rat(z)}},
    ]
    # a broken spine relation: the documented report is valid = false
    bad = json.loads(json.dumps(cur))
    key = rng.choice(sorted(bad["spine"], key=int)[1:] or sorted(bad["spine"]))
    bad["spine"][key] += rng.choice((-1, 1))
    bad_path = ctx.write_json("current", bad)
    jobs.append({"kind": "cli", "label": "current invalid",
                 "argv": ["current", "--file", bad_path],
                 "spec": {"cmd": "current", "current": bad}})
    # periodic current evaluated too far out for the window J: exit 4
    period = rng.randint(2, 3)
    k = rng.randint(1, 3)
    pcusp = {"0": k, "1": -k}
    pspine = {"0": 0, "1": -k}
    if period == 3:
        pcusp["2"] = 0
        pspine["2"] = -k
    per = {"ring": "Z", "period": period, "window": [0, period - 1],
           "cusp": pcusp, "spine": pspine}
    per_path = ctx.write_json("current", per)
    J = rng.randint(0, 1)
    zfar = _unit(rng, p) * Fraction(p) ** (J + 1 + rng.randint(0, 1))
    jobs.append({"kind": "cli", "label": "current periodic window-too-small",
                 "argv": ["current", "--file", per_path, "--p", str(p), "--q", "p",
                          "--J", str(J), "--delta-at", _rat(zfar)],
                 "spec": {"cmd": "current", "current": per, "p": p, "J": J,
                          "delta_at": _rat(zfar)}})
    return jobs


def _cli_mix_cycle(rng, ctx):
    p = rng.choice((2, 3, 5))
    jobs = [_radius_job(p, rng.randint(1, 6), rng.randint(1, 5), numeric=False),
            _radius_job(rng.choice((2, 3, 5)), rng.randint(1, 4), rng.randint(1, 4))]
    e = rng.randint(1, 200)
    q = rng.choice((2, 3, 5, 7))
    jobs.append({"kind": "cli", "label": "as-genus",
                 "argv": ["as-genus", "--e", str(e), "--p", str(q)],
                 "spec": {"cmd": "as-genus", "e": e, "p": q}})
    jobs.append(_order_set_job(rng, ctx, rng.choice((2, 3, 5)), rng.randint(3, 6),
                               rng.randint(1, 2)))
    jobs.append(_find_order_job(rng, ctx, rng.choice((3, 5)), rng.randint(3, 6), 1))
    # no admissible order: every achieved k has k + 1 a power of p
    if rng.random() < 0.5:
        jobs.append(_find_order_job(rng, ctx, 2, 2, 1))
    else:
        jobs.append(_find_order_job(rng, ctx, rng.choice((2, 3, 5)),
                                    rng.randint(3, 6), 1, nmax=0))
    jobs += _current_jobs(rng, ctx)
    p = rng.choice((2, 3, 5))
    n = rng.randint(1, 3)
    J = rng.randint(4, 10)
    q = rng.choice(("p", "p^2"))
    jobs.append({"kind": "cli", "label": "moebius-check",
                 "argv": ["moebius-check", "--p", str(p), "--q", q, "--n", str(n),
                          "--J", str(J)],
                 "spec": {"cmd": "moebius-check", "p": p, "q": q, "n": n, "J": J}})
    p = rng.choice((2, 3, 5))
    dens = [d for d in (1, 2, 3, 4, 7) if d % p]
    coeffs = [_rat(Fraction(rng.randint(-9, 9), rng.choice(dens)))
              for _ in range(rng.randint(2, 4))]
    J = rng.randint(4, 10)
    jobs.append({"kind": "cli", "label": "poly-eval",
                 "argv": ["poly-eval", "--p", str(p), "--q", "p",
                          "--coeffs=" + ",".join(coeffs), "--J", str(J)],
                 "spec": {"cmd": "poly-eval", "p": p, "coeffs": coeffs, "J": J}})
    jobs.append(_theta_job(rng, rng.choice((3, 5)), rng.randint(1, 2),
                           rng.randint(4, 5), 1, rng.randint(0, 1)))
    # truncation too short to certify the tail: exit 4
    p = rng.choice((3, 5))
    zeros = [[-2, 1], [rng.randint(1, 3), -1]]
    z, z0 = _rat(_unit(rng, p)), _rat(_unit(rng, p))
    jobs.append({"kind": "cli", "label": "theta M-too-small",
                 "argv": ["theta", "--p", str(p), "--q", "p", "--factors",
                          json.dumps(zeros), "--l", "1", "--z", z, "--z0", z0,
                          "--M", "0"],
                 "spec": {"cmd": "theta", "p": p, "zeros": zeros, "l": 1, "M": 0,
                          "z": z, "z0": z0}})
    jobs.append(_ladder_job(rng, ctx, rng.choice((2, 3, 5)), 0))
    jobs += _skeleton_jobs(rng, ctx)
    return jobs


CYCLES = {"theta-sweep": _theta_cycle, "root-ladder": _root_ladder_cycle,
          "pole-orders": _pole_orders_cycle, "cli-mix": _cli_mix_cycle}


class _Context:
    """Writes input files below ``root/rel_dir`` and returns their paths
    relative to ``root``."""

    def __init__(self, root, rel_dir):
        self.root = root
        self.rel_dir = rel_dir
        self.count = 0
        os.makedirs(os.path.join(root, rel_dir), exist_ok=True)

    def write_json(self, stem, data) -> str:
        """Write ``data`` unless the file already holds exactly this text
        (a repeated set-up then reads instead of rewriting)."""
        self.count += 1
        rel = f"{self.rel_dir}/{stem}-{self.count:04d}.json"
        path = os.path.join(self.root, rel)
        text = json.dumps(data, sort_keys=True) + "\n"
        try:
            with open(path, encoding="utf-8") as fh:
                if fh.read() == text:
                    return rel
        except FileNotFoundError:
            pass
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return rel


def job_count_cycles(workload: str, seconds: float, trace: bool) -> int:
    """Cycles to generate: the fixed trace count, or 1.5 times what the seed
    code completes in ``seconds``."""
    if trace:
        return TRACE_CYCLES[workload]
    return max(TRACE_CYCLES[workload],
               math.ceil(1.5 * seconds * CYCLES_PER_SECOND[workload]))


def generate(workload: str, seed: int, cycles: int, root: str, rel_dir: str):
    """Jobs of ``cycles`` cycles of ``workload`` for ``seed``; input files go
    to ``root/rel_dir``.  Returns the job list; job ids are stable."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload}")
    ctx = _Context(root, rel_dir)
    jobs = []
    for c in range(cycles):
        rng = random.Random(f"perfbench:{workload}:{seed}:{c}")
        cycle = CYCLES[workload](rng, ctx)
        rng.shuffle(cycle)
        for i, job in enumerate(cycle):
            job["id"] = f"{workload}/{c:03d}/{i:02d}"
            job["cycle"] = c
            job["input_dir"] = rel_dir
            jobs.append(job)
    return jobs


def warmup_jobs(workload: str, root: str, rel_dir: str):
    """One small job of every kind the workload runs, for warm-up."""
    ctx = _Context(root, rel_dir)
    rng = random.Random(f"perfbench:warmup:{workload}")
    cycle = CYCLES[workload](rng, ctx)
    seen, out = set(), []
    for job in cycle:
        key = job["kind"] if job["kind"] == "root" else job["argv"][0]
        if key not in seen:
            seen.add(key)
            job["id"] = f"warmup/{workload}/{len(out)}"
            out.append(job)
    return out


def write_corpus(seed: int, out_rel: str, root: str):
    """Generator output for every workload: the job lists (and input files)
    of the traced run, which are also the first cycles of every untraced
    run for ``seed``."""
    for w in WORKLOADS:
        jobs = generate(w, seed, TRACE_CYCLES[w], root, f"{out_rel}/{w}")
        with open(os.path.join(root, out_rel, w, "jobs.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(jobs, sort_keys=True, indent=0) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", required=True,
                    help="output directory, relative to the repository root")
    args = ap.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    write_corpus(args.seed, args.out, root)


if __name__ == "__main__":
    main()
