"""Shared seeded builders and independent oracles for the test suite."""

import itertools
import random
from fractions import Fraction
from math import lcm

from nonarch import (INF, BallPoint, BoundedSeries, Current, FactoredFunction,
                     GraphPoint, PadicNumber, RamifiedGerm, Refinement,
                     SkeletonGraph, SkeletonTower, TailBound, alpha_germ,
                     current_from_slopes, moebius, seminorm,
                     splitting_logradius_numeric, valuation)
from nonarch.berkovich import product_at
from nonarch.currents import EvalResult, _tate_valuation
from nonarch.padic import parse_extended, vp_fraction
from nonarch.errors import (NonStabilizedError, PoleCollisionError,
                            PrecisionExhaustedError, TailCertificateError)


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


def ladder_germ(c, q, z):
    """The germ ``ladder_ord`` reads: ``alpha_germ`` at degree 8, 16, 32
    and 64 until the ramification index is certified."""
    for d in (8, 16, 32, 64):
        try:
            return RamifiedGerm(alpha_germ(c, q, z, degree=d))
        except PrecisionExhaustedError:
            if d == 64:
                raise


def ladder_walk_oracle(germ, vz, nmax):
    """The ladder table by walking the levels m = 1, 2, ... with one
    ``splitting_logradius_numeric`` each, until the log-radius reaches
    t_n = vz + n + 1/(p-1) for every depth n <= nmax; NonStabilizedError
    with ``ladder_ord``'s text past level 16(nmax + 4)."""
    offset = Fraction(1, germ.series.p - 1)
    cap = 16 * (nmax + 4)
    table = []
    m = 1
    rho_m = splitting_logradius_numeric(germ, m)
    for n in range(1, nmax + 1):
        threshold = vz + n + offset
        while rho_m < threshold:
            m += 1
            if m > cap:
                raise NonStabilizedError(
                    f"no torsor level below {cap} reaches ladder depth {n}")
            rho_m = splitting_logradius_numeric(germ, m)
        table.append((n, m))
    return table


def power_coeffs_oracle(v, a, w0, d):
    """Miller's power recurrence on PadicNumber scalars, one scalar
    operation at a time: coefficients 0..d of V^a with W_0 = w0, each
    carrying the prec that PadicNumber arithmetic gives it, from a zero at
    V_0's prec."""
    inv0 = v[0].inverse()
    support = [k for k in range(1, min(d, len(v) - 1) + 1) if not v[k].is_exact_zero]
    w = [w0]
    for n in range(1, d + 1):
        acc = PadicNumber.zero(w0.p, v[0].prec)
        for k in support:
            if k > n:
                break
            acc = acc + v[k] * w[n - k] * ((a + 1) * k - n)
        w.append(acc * (inv0 / n))
    return w


def truncated(f, d):
    """f cut to degree d (f itself when d >= its degree), with a tail that
    bounds every dropped explicit coefficient and f's own tail, at f's
    tail slope (0 for a polynomial)."""
    if d >= f.degree:
        return f
    dropped = [(j, v) for j, v in f.explicit_points() if j > d]
    if f.tail is None and not dropped:
        return BoundedSeries(f.p, f.coeffs[:d + 1], None)
    alpha = Fraction(0) if f.tail is None else f.tail.alpha
    betas = [v - alpha * j for j, v in dropped]
    if f.tail is not None:
        betas.append(f.tail.beta)
    return BoundedSeries(f.p, f.coeffs[:d + 1], TailBound(alpha, min(betas)))


def dlog_coeffs(f, n):
    """Coefficients 0..n of f'/f for a polynomial f with rational
    coefficients and f(0) != 0, by long division of f' by f in exact
    rationals: f(0) q_k = (k + 1) a_(k+1) - sum_(i=1..k) a_i q_(k-i)."""
    a = [c.rat for c in f.coeffs] + [Fraction(0)] * (n + 1)
    if f.tail is not None or any(c.pi_part for c in f.coeffs) or not a[0]:
        raise ValueError("needs a rational polynomial with f(0) != 0")
    q = []
    for k in range(n + 1):
        q.append(((k + 1) * a[k + 1] - sum(a[i] * q[k - i] for i in range(1, k + 1)))
                 / a[0])
    return q


def deinterleave(u, p):
    """(a, b) whose base-p digits are the even and the odd digits of u:
    the inverse of ``padic._interleave``."""
    a, b, w = 0, 0, 1
    while u:
        u, (db, da) = u // (p * p), divmod(u % (p * p), p)
        a, b, w = a + da * w, b + db * w, w * p
    return a, b


def padic_from_json(data):
    """The element that ``PadicNumber.to_json`` wrote, read back: v and the
    unit digits (interleaved for Q_p(pi)) give p^v * unit, to the unit's
    prec digits."""
    p, prec = int(data["p"]), int(data["prec"])
    v = parse_extended(data["val"])
    if v == INF:
        return PadicNumber.zero(p, prec)
    unit = int(data["unit"])
    if not data.get("ext", False) and v.denominator == 1:
        return PadicNumber(p, Fraction(unit) * Fraction(p) ** v, Fraction(0), prec)
    a, b = deinterleave(unit, p)
    t, odd = divmod(int(2 * v), 2)
    pt = Fraction(p) ** t
    if odd == 0:
        return PadicNumber(p, a * pt, b * pt, prec)
    return PadicNumber(p, b * pt * p, a * pt, prec)


def current_json(c):
    """The current file of ``c``, as ``cli`` reads it with
    ``Current.from_json``: an int value is a JSON integer and any other
    value the string "a/b" ("a/1" for an integral Fraction, so the file
    stays "Zp")."""
    def enc(v):
        return v if isinstance(v, int) else f"{v.numerator}/{v.denominator}"
    return {"ring": c.ring, "period": c.period, "window": list(c.window),
            "cusp": {str(j): enc(v) for j, v in c.cusp},
            "spine": {str(j): enc(v) for j, v in c.spine}}


def graph_json(g):
    """The graph entry of a tower file, as ``SkeletonGraph.from_json``
    reads it."""
    return {"vertices": sorted(g.vertices),
            "edges": [[e.id, e.u, e.v, str(e.length)] for e in g.edges],
            "cusps": [list(c) for c in g.cusps]}


# -- the split-loop evaluators that ``berkovich.product_at`` replaced -----
# Each evaluates the same factored product as the package, one hand-written
# loop per kind of point; kept as oracles for values, precs and exceptions.


def alpha_eval_oracle(c, q, z, J=None):
    """alpha(c) at z with separate j >= 1 and j <= 0 factors; ball points
    by one ``seminorm`` per linear factor."""
    if c.modulus is not None:
        raise ValueError("alpha needs an integer current, not Z/nZ")
    support = c.support()
    if c.period is not None and support:
        raise ValueError("alpha of a periodic current with cusps is only "
                         "defined up to regularization; use a window current")
    if J is not None and any(abs(j) > J for j in support):
        raise ValueError(f"window J={J} does not cover the support {support}")
    s0 = c.spine_at(0)
    if not all(isinstance(c.cusp_at(j), int) for j in support) or \
            not isinstance(s0, int):
        raise ValueError("alpha needs integer current values")
    if isinstance(z, BallPoint):
        vq = _tate_valuation(q)
        one = PadicNumber.one(q.p)
        sem_x = seminorm([PadicNumber.zero(q.p), one], z)
        total = s0 * sem_x
        for j in support:
            cj = c.cusp_at(j)
            sem_f = seminorm([-(q ** j), one], z)
            total += cj * (sem_f - sem_x) if j >= 1 else cj * (sem_f - j * vq)
        return EvalResult(total, INF)
    if z.is_exact_zero:
        raise PoleCollisionError("alpha is evaluated on G_m: z must be nonzero")
    value = z ** s0
    for j in support:
        cj = c.cusp_at(j)
        num = z - q ** j
        if num.is_exact_zero and cj < 0:
            raise PoleCollisionError(f"z collides with the pole q^{j}")
        base = num / z if j >= 1 else num / q ** j
        value = value * base ** cj
    return EvalResult(value, INF)


def delta_eval_oracle(c, q, z, J=None):
    """delta(c)/dx at z term by term: c(e_j) (1/(z - q^j) - [j >= 1]/z)."""
    def term(j):
        kernel = (z - q ** j).inverse()
        if j >= 1:
            kernel = kernel - z.inverse()
        return kernel * c.cusp_at(j)

    t = _grid_index(z, q)
    if t is not None and c.cusp_at(t) != 0:
        return EvalResult(None, INF, pole_ord=-1)
    if z.is_exact_zero:
        raise PoleCollisionError("delta has its dx/x kernel at z = 0")
    value = z.inverse() * c.spine_at(0)
    if c.is_window_supported or not c.support():
        for j in (c.support() if c.is_window_supported else ()):
            value = value + term(j)
        return EvalResult(value, INF)
    if J is None:
        raise ValueError("periodic currents with cusps need a truncation window J")
    vq, vz = _tate_valuation(q), valuation(z)
    if not ((J + 1) * vq > vz and -(J + 1) * vq < vz):
        raise TailCertificateError("window too small")
    for j in range(c.period):
        cj = c.cusp_at(j)
        if cj and vp_fraction(Fraction(cj), q.p) < 0:
            raise ValueError("tail certificates need p-integral cusp values")
    for j in range(-J, J + 1):
        if c.cusp_at(j) != 0:
            value = value + term(j)
    return EvalResult(value, min((J + 1) * vq - 2 * vz, (J + 1) * vq))


def factored_value_oracle(fd, q, w):
    """f(w) = w^m prod (w - q^j)^(k_j); a zero is returned at the prec of
    the factor that vanishes."""
    out = w ** fd.x_exponent
    for j, k in fd.zeros:
        base = w - q ** j
        if base.is_exact_zero:
            if k < 0:
                raise PoleCollisionError(f"evaluation at the pole q^{j}")
            return PadicNumber.zero(w.p, base.prec)
        out = out * base ** k
    return out


def finite_product_oracle(poles, exponents, x, z):
    """prod ((X - i)/(x - i))^(a_i) factor by factor, from a one at the
    least prec of x and z; at a ball point sum a_i (log-seminorm of X - i -
    prec-capped v(x - i))."""
    if len(poles) != len(exponents):
        raise ValueError("pole and exponent counts differ")
    if isinstance(z, BallPoint):
        total = Fraction(0)
        for i, a in zip(poles, exponents):
            total += a * (seminorm([-i, PadicNumber.one(i.p)], z) - valuation(x - i))
        return total
    value = PadicNumber.one(x.p, min(x.prec, z.prec))
    for i, a in zip(poles, exponents):
        num = z - i
        if num.is_exact_zero and a < 0:
            raise PoleCollisionError(f"evaluation point hits the pole {i!r}")
        value = value * (num / (x - i)) ** a if a >= 0 else value * ((x - i) / num) ** (-a)
    return value


def _grid_index(z, q):
    """j with z = q^j exactly, if any."""
    vz, vq = z.exact_valuation, _tate_valuation(q)
    if vz == INF:
        return None
    t = Fraction(vz) / Fraction(vq)
    if t.denominator != 1:
        return None
    t = int(t)
    return t if (z - q ** t).is_exact_zero else None


def _theta_tail(fd, q, l, z, z0, M):
    """Check a theta request from scratch and return the relative tail
    bound of its product: the checks, in order and with the texts, that
    ``theta_product`` makes, each grid index found by a power of q and an
    exact comparison."""
    if l < 1 or M < 0:
        raise ValueError("l must be positive, M nonnegative")
    if fd.x_exponent != 0 or fd.total_degree != 0:
        raise ValueError("theta products need x_exponent = 0 and total degree 0")
    if z.is_exact_zero or z0.is_exact_zero:
        raise PoleCollisionError("z and z0 must lie in G_m")
    vq = _tate_valuation(q)
    for w, name in ((z, "z"), (z0, "z0")):
        t = _grid_index(w, q)
        if t is not None and any((t - j) % l == 0 for j, _ in fd.zeros):
            raise PoleCollisionError(
                f"{name} meets a zero/pole of a Gamma'-translate of f")
    if not fd.zeros:
        return INF
    vz, vz0 = z.exact_valuation, z0.exact_valuation
    jvals = [Fraction(j) * vq for j, _ in fd.zeros]
    beta_pos = Fraction(l) * (M + 1) * vq + min(vz, vz0) - max(jvals)
    beta_neg = Fraction(l) * (M + 1) * vq + min(jvals) - max(vz, vz0)
    rel_err = min(beta_pos, beta_neg)
    if rel_err <= 0:
        raise TailCertificateError(
            f"truncation M={M} cannot certify the tail (bound {rel_err})")
    return rel_err


def theta_exponents_oracle(zeros, l, M):
    """The nonzero e_m of the theta product, in increasing m, from a dict
    holding every m = lk - j with |k| <= M of every zero (j, k_j)."""
    e = {}
    for j, kj in zeros:
        for m in range(-l * M - j, l * M - j + 1, l):
            e[m] = e.get(m, 0) + kj
    return sorted((m, em) for m, em in e.items() if em)


def theta_product_oracle(fd, q, l, z, z0, M):
    """The truncated theta product untelescoped: every f(q^(lk) z) and
    f(q^(lk) z0) with |k| <= M evaluated from f's factors, each quotient
    multiplied into a one at the least prec of q, z and z0; the same checks
    and tail bound as ``theta_product``."""
    rel_err = _theta_tail(fd, q, l, z, z0, M)
    factors = fd.factors(q)
    value = PadicNumber.one(q.p, min(q.prec, z.prec, z0.prec))
    step = q ** l
    g = q ** (-l * M)  # the grid point q^(lk), stepped by q^l
    for k in range(-M, M + 1):
        if k > -M:
            g = g * step
        value = value * product_at(factors, g * z) / product_at(factors, g * z0)
    return EvalResult(value, rel_err + value.exact_valuation)


def theta_automorphy_ratio_oracle(fd, q, l, z, z0, M):
    """theta(q^l z) / theta(z) as the quotient f(q^(l(M+1)) z) / f(q^(-lM) z)
    of the two end factors, with both requests checked from scratch by
    ``_theta_tail``, z's first and then q^l z's."""
    rel = min(_theta_tail(fd, q, l, z, z0, M),
              _theta_tail(fd, q, l, q ** l * z, z0, M))
    factors = fd.factors(q)
    num = product_at(factors, q ** (l * (M + 1)) * z)
    den = product_at(factors, q ** (-l * M) * z)
    value = PadicNumber.one(q.p, z0.prec) * num / den
    return EvalResult(value, rel + value.exact_valuation)


def delta_at_one_oracle(n, q, J):
    """The Lambert sum sum_{j<=J} mu(j) q^(jn) / (1 - q^(jn)) term by term,
    from a zero at q's prec, with the tail bound n(J+1)v(q); the same
    checks, in the same order, as ``delta_at_one``."""
    if n < 1:
        raise ValueError("n must be positive")
    if J < 0:
        raise ValueError("J must be nonnegative")
    vq = _tate_valuation(q)
    acc = PadicNumber.zero(q.p, q.prec)
    one = PadicNumber.one(q.p, q.prec)
    for j in range(1, J + 1):
        mu = moebius(j)
        if mu == 0:
            continue
        t = q ** (j * n)
        acc = acc + (t / (one - t)) * mu
    return EvalResult(acc, Fraction(n) * (J + 1) * vq)


def theta_automorphy_constant_oracle(fd, q):
    """prod_j (-q^j)^(k_j) factor by factor, from a one at q's prec."""
    out = PadicNumber.one(q.p, q.prec)
    for j, k in fd.zeros:
        out = out * (-(q ** j)) ** k
    return out


def spine_oracle(c):
    """The spine of c as ``Current.windowed`` and ``Current.periodic`` built
    and stored it before the spine was derived: a running sum of the cusp
    values from the left spine value (window) or from c(e'_0) (period)."""
    cusp = dict(c.cusp)
    if c.period is None:
        jmin, jmax = c.window
        spine = {jmin - 1: c.base}
        run = c.base
        for j in range(jmin, jmax + 1):
            run = run + cusp.get(j, 0)
            spine[j] = run
    else:
        cusp_full = {j: cusp.get(j, 0) for j in range(c.period)}
        spine = {0: c.base}
        run = c.base
        for j in range(1, c.period):
            run = run + cusp_full[j]
            spine[j] = run
    return spine


def spine_at_oracle(c, j):
    """c(e'_j) walked from the base key by the defining relation
    c(e'_i) = c(e'_{i-1}) + c(e_i), one cusp value at a time."""
    cusp = dict(c.cusp)

    def at(i):
        return cusp.get(i if c.period is None else i % c.period, 0)

    first = c.window[0] - 1 if c.period is None else 0
    if j >= first:
        return c.base + sum(at(i) for i in range(first + 1, j + 1))
    return c.base - sum(at(i) for i in range(j + 1, first + 1))


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
        refs.append(Refinement(coarse, fine, vmap, paths))
        graphs.append(fine)
    return SkeletonTower(tuple(graphs), tuple(refs))


def tower_json(tower):
    """The tower file of ``tower``: refinement i embeds graphs[i] into
    graphs[i + 1]."""
    return {"graphs": [graph_json(g) for g in tower.graphs],
            "refinements": [{"coarse": i, "fine": i + 1,
                             "vertex_map": r.vertex_map,
                             "edge_paths": {e: [list(s) for s in p]
                                            for e, p in r.edge_paths.items()}}
                            for i, r in enumerate(tower.refinements)]}


def arclength_oracle(fine, vertex_map, edge_paths):
    """Coarse positions read off ``edge_paths``: each path edge -> (coarse
    edge, sign, arclength before it), and each image point -> its coarse
    point (a vertex of the coarse graph or an interior stop of an arc)."""
    edges = {}
    stops = {fv: GraphPoint.at_vertex(cv) for cv, fv in vertex_map.items()}
    for ceid, path in edge_paths.items():
        run = Fraction(0)
        for feid, sign in path:
            fe = fine.edge_map[feid]
            edges[feid] = (ceid, sign, run)
            run += fe.length
            stops.setdefault(fe.v if sign == 1 else fe.u, GraphPoint.on_edge(ceid, run))
    return edges, stops


def complement_walk_oracle(fine, edge_loc, image):
    """The retraction of every fine vertex, checked the way ``Refinement``
    once did: walk the complement of the embedded arcs from each vertex off
    the image, stopping at image points, and require a tree that attaches
    at one of them by one edge; then require that every vertex is reached
    and that no off-image edge joins two image points.  ``edge_loc`` and
    ``image`` are the embedded edges and the image points with their coarse
    points.  Raises ValueError (with a text that may depend on the hash
    seed) where the embedding is refused."""
    image = dict(image)
    on_image = set(image)
    adj = {w: [] for w in fine.vertices}
    for fe in fine.edges:
        if fe.id not in edge_loc:
            adj[fe.u].append((fe.id, fe.v))
            adj[fe.v].append((fe.id, fe.u))
    for start in fine.vertices:
        if start in image or not adj[start]:
            continue
        comp_v, comp_e = {start}, set()
        anchors = set()
        stack = [start]
        while stack:
            w = stack.pop()
            for eid, nb in adj[w]:
                if eid in comp_e:
                    continue
                comp_e.add(eid)
                if nb in on_image:
                    anchors.add(nb)
                elif nb not in comp_v:
                    comp_v.add(nb)
                    stack.append(nb)
                else:
                    raise ValueError("complement component contains a cycle")
        if len(anchors) != 1:
            raise ValueError(f"hanging component {sorted(comp_v)} attaches at "
                             f"{len(anchors)} image points, expected 1")
        if len(comp_e) != len(comp_v):
            raise ValueError("complement component is not a tree")
        anchor_image = image[anchors.pop()]
        for w in comp_v:
            image[w] = anchor_image
    for w in fine.vertices:
        if w not in image:
            raise ValueError(f"fine vertex {w} is disconnected from the image")
    for fe in fine.edges:
        if fe.id not in edge_loc and fe.u in on_image and fe.v in on_image:
            raise ValueError(f"complement edge {fe.id} joins two image points")
    return image


def off_image_mutation(fine, rng, kinds):
    """``fine`` with, per entry of ``kinds``, an extra edge between two
    random vertices ("edge"), a loop ("loop"), a second copy of a random
    edge ("double") or a pendant chain of 1-3 new vertices ("chain")."""
    vertices = set(fine.vertices)
    edges = [(e.id, e.u, e.v, e.length) for e in fine.edges]
    fresh = (f"z{i}" for i in itertools.count())
    for kind in kinds:
        w = rng.choice(sorted(vertices))
        if kind == "edge":
            edges.append((next(fresh), w, rng.choice(sorted(vertices)), Fraction(1)))
        elif kind == "loop":
            edges.append((next(fresh), w, w, Fraction(1)))
        elif kind == "double":
            edges.append((next(fresh), *rng.choice(edges)[1:]))
        else:
            for _ in range(rng.randint(1, 3)):
                nxt = next(fresh)
                vertices.add(nxt)
                edges.append((next(fresh), w, nxt, Fraction(1)))
                w = nxt
    return SkeletonGraph.build(vertices, edges)


JSON_KINDS = {"object": dict, "list": list, "integer": int, "string": str,
              "null": type(None)}


def json_shape_oracle(value, kind, what, size=None):
    """``padic.json_shape`` as it was written before it resolved each kind
    to a set of types once: split ``kind`` on every call and test each
    type in turn."""
    if any(type(value) is JSON_KINDS[k] for k in kind.split(" or ")) and \
            (size is None or len(value) == size):
        return value
    entries = "" if size is None else f" of {size} entries"
    raise ValueError(f"{what} must be a JSON {kind}{entries}, not {value!r}")
