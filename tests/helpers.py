"""Shared seeded builders and independent oracles for the test suite."""

import random
from fractions import Fraction
from math import lcm

from nonarch import (Current, FactoredFunction, PadicNumber, Refinement,
                     SkeletonGraph, SkeletonTower, TailBound, current_from_slopes)


def rref_nullspace(rows):
    """Exact nullspace basis of the linear system rows * v = 0."""
    nrows = len(rows)
    ncols = len(rows[0])
    mat = [list(r) for r in rows]
    pivots = []
    rr = 0
    for col in range(ncols):
        sel = next((r for r in range(rr, nrows) if mat[r][col] != 0), None)
        if sel is None:
            continue
        mat[rr], mat[sel] = mat[sel], mat[rr]
        pv = mat[rr][col]
        mat[rr] = [x / pv for x in mat[rr]]
        for r in range(nrows):
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


def rank_oracle(rows):
    """Independent Gaussian-elimination rank over Q."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return 0
    rank = 0
    for col in range(len(mat[0])):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [x - c * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def root_tail_oracle(u, e, m, p):
    """Brute-force root tail: every point crossing and every pairwise slope
    of u's constraint points as candidate slopes, each scored against all
    points (the same certificate as ``series._root_tail``)."""
    M = Fraction(m) + Fraction(1, p - 1)
    one_over = Fraction(1, p - 1)
    cons = list(u.explicit_points())
    candidates = set()
    if u.tail is not None:
        j0 = u.degree + 1
        cons.append((j0, u.tail.at(j0)))
        candidates.add(u.tail.alpha)
    for i, (ji, wi) in enumerate(cons):
        candidates.add((wi - M) / ji)
        for jk, wk in cons[i + 1:]:
            candidates.add((wi - wk) / (ji - jk))
    if u.tail is not None:
        candidates = {a for a in candidates if a <= u.tail.alpha}
    best = None
    for a in candidates:
        b = min(w - a * j for j, w in cons)
        key = (a, b - M + one_over) if b >= M else (a + (b - M) / e, one_over)
        best = key if best is None else max(best, key)
    return TailBound(*best)


def power_coeffs_oracle(v, a, w0, d):
    """Miller's power recurrence on PadicNumber scalars, one scalar
    operation at a time: coefficients 0..d of V^a with W_0 = w0, each
    carrying the prec that PadicNumber arithmetic gives it."""
    inv0 = v[0].inverse()
    support = [k for k in range(1, min(d, len(v) - 1) + 1) if not v[k].is_exact_zero]
    w = [w0]
    for n in range(1, d + 1):
        acc = PadicNumber.zero(w0.p)
        for k in support:
            if k > n:
                break
            acc = acc + v[k] * w[n - k] * ((a + 1) * k - n)
        w.append(acc * (inv0 / n))
    return w


def seeded_window_current(rng, lo=-3, hi=5):
    cusp = {}
    for j in range(lo, hi + 1):
        if rng.random() < 0.5:
            cusp[j] = rng.randint(-4, 4)
    return Current.windowed(cusp, left_spine=rng.randint(-3, 3))


def seed_current_with_ord(q, z, ord_target, grid):
    """Integer current whose differential vanishes to exact order ord_target
    at z, found by solving the linear conditions on (m, c_j) exactly."""
    poles = [Fraction(0)] + [Fraction(q.rat) ** j for j in grid]

    def row(t):
        return [Fraction(1) / (Fraction(z.rat) - pl) ** (t + 1) for pl in poles]

    if ord_target == 0:
        candidates = [[Fraction(1)] + [Fraction(1)] * len(grid),
                      [Fraction(1)] + [Fraction(0)] * len(grid)]
    else:
        candidates = rref_nullspace([row(t) for t in range(ord_target)])
    for vec in candidates:
        checkrow = row(ord_target)
        if sum(v * c for v, c in zip(vec, checkrow)) == 0:
            continue
        scale = lcm(*(f.denominator for f in vec))
        ints = [int(f * scale) for f in vec]
        fd = FactoredFunction(x_exponent=ints[0],
                              zeros=tuple((j, k) for j, k in zip(grid, ints[1:])))
        if fd.x_exponent == 0 and not fd.zeros:
            continue
        return current_from_slopes(fd, q)
    raise AssertionError("could not seed the requested order")


def random_tower(seed, depth):
    """Seeded tower: subdivide edges and hang trees level by level."""
    rng = random.Random(seed)
    g = SkeletonGraph.build(["v0", "v1"],
                            [("r0", "v0", "v1", Fraction(rng.randint(1, 4)))])
    graphs = [g]
    refs = []
    fresh = [0]

    def new_name(prefix):
        fresh[0] += 1
        return f"{prefix}{fresh[0]}"

    for _ in range(depth):
        coarse = graphs[-1]
        vertices = set(coarse.vertices)
        edges = []
        vmap = {w: w for w in coarse.vertices}
        paths = {}
        for e in coarse.edges:
            pieces = rng.randint(1, 3)
            cuts = sorted(rng.sample(range(1, 8), pieces - 1))
            offsets = [Fraction(0)] + [e.length * Fraction(c, 8) for c in cuts] \
                + [e.length]
            chain = []
            prev_v = e.u
            for k in range(pieces):
                nxt = e.v if k == pieces - 1 else new_name("w")
                vertices.add(nxt)
                eid = new_name("s")
                edges.append((eid, prev_v, nxt, offsets[k + 1] - offsets[k]))
                chain.append((eid, 1))
                prev_v = nxt
            paths[e.id] = chain
        for _ in range(rng.randint(0, 2)):
            anchor = rng.choice(sorted(vertices))
            w = new_name("t")
            vertices.add(w)
            edges.append((new_name("h"), anchor, w, Fraction(rng.randint(1, 3))))
            if rng.random() < 0.5:
                w2 = new_name("t")
                vertices.add(w2)
                edges.append((new_name("h"), w, w2, Fraction(1)))
        fine = SkeletonGraph.build(sorted(vertices), edges)
        refs.append(Refinement.build(coarse, fine, vmap, paths))
        graphs.append(fine)
    return SkeletonTower(tuple(graphs), tuple(refs))
