import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from nonarch import (PadicNumber, PoleFamily, find_nonppower_order,
                     finite_product_eval, integer_approximation, moebius_orbit,
                     order_of_combination, order_set, BallPoint)
from nonarch.errors import NoAdmissibleOrderError, PrecisionExhaustedError
from nonarch import poles as poles_module
from nonarch.poles import _Echelon


def Q(p, r, prec=64):
    return PadicNumber.from_rational(p, Fraction(r), prec)


# ------------------------------------------------------------- oracles


def poly_mul(a, b):
    out = [PadicNumber.zero(a[0].p) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def numerator_order_oracle(coeffs, fam):
    """ord_x of sum a_i/(X-i) as the multiplicity of x in the numerator
    polynomial N(X) = sum a_i prod_{j != i} (X - j): evaluate derivatives."""
    p = fam.p
    one = PadicNumber.one(p)
    n = len(fam.poles)
    num = [PadicNumber.zero(p)]
    for i in range(n):
        term = [one * coeffs[i]] if not isinstance(coeffs[i], PadicNumber) \
            else [coeffs[i]]
        for j in range(n):
            if j != i:
                term = poly_mul(term, [-fam.poles[j], one])
        while len(num) < len(term):
            num.append(PadicNumber.zero(p))
        for k, c in enumerate(term):
            num[k] = num[k] + c
    # multiplicity of x: successive derivatives at x
    def eval_at(poly, x):
        acc = PadicNumber.zero(p)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    def derive(poly):
        return [poly[k] * k for k in range(1, len(poly))]

    k = 0
    cur = num
    while cur:
        if not eval_at(cur, fam.x).is_exact_zero:
            return k
        cur = derive(cur)
        k += 1
    raise AssertionError("zero numerator")


def rank_oracle(rows):
    """Independent fraction Gaussian elimination (row echelon)."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
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


def family_rational_rows(fam, ncols):
    rows = []
    for row in fam.matrix(ncols):
        flat = []
        for e in row:
            flat.append(e.rat)
            if fam.C == 2:
                flat.append(e.pi_part)
        rows.append(flat)
    return rows


# ------------------------------------------------------------- tests


def test_single_pole_order_zero():
    fam = PoleFamily((Q(3, 1),), Q(3, 0))
    assert order_of_combination([1], fam) == 0


def test_engineered_cancellation_gives_positive_order():
    p = 5
    i, j, x = Q(p, 1), Q(p, 2), Q(p, 0)
    fam = PoleFamily((i, j), x)
    # a1/(x-i) + a2/(x-j) = 0 at x: a1 = (x-i), a2 = -(x-j)
    a = [x - i, -(x - j)]
    k = order_of_combination(a, fam)
    assert k >= 1
    assert numerator_order_oracle(a, fam) == k


def test_zero_combination_rejected():
    fam = PoleFamily((Q(3, 1), Q(3, 2)), Q(3, 0))
    with pytest.raises(ValueError):
        order_of_combination([0, 0], fam)


def test_order_set_full_rank_c1():
    p = 5
    fam = PoleFamily(tuple(Q(p, i) for i in (1, 2, 3, 4, 6)), Q(p, 0))
    res = order_set(fam, 4)
    assert res.C == 1
    assert res.dims == (0, 1, 2, 3, 4)
    assert res.E_window == (0, 1, 2, 3, 4)
    assert all(res.u[n] >= res.dims[n] for n in range(5))
    assert res.check_inequality()


def test_order_set_nmax_zero():
    fam = PoleFamily((Q(3, 1), Q(3, 2)), Q(3, 0))
    res = order_set(fam, 0)
    assert res.E_window == (0,)


def test_order_set_c2_inequality():
    p = 5
    pi = PadicNumber.uniformizer(p)
    fam = PoleFamily((Q(p, 1), Q(p, 1) + pi, Q(p, 2), Q(p, 3) + pi * 2), Q(p, 0))
    res = order_set(fam, 5)
    assert res.C == 2
    assert res.check_inequality()
    # independent rank oracle on the same rational matrix
    rows = family_rational_rows(fam, 6)
    for n in range(6):
        expected = rank_oracle([r[: n * 2] for r in rows]) if n else 0
        assert res.dims[n] == expected


def test_order_set_translation_invariance():
    p = 3
    shift = Q(p, 7)
    fam = PoleFamily((Q(p, 1), Q(p, 2), Q(p, 5)), Q(p, 0))
    fam2 = PoleFamily(tuple(i + shift for i in fam.poles), fam.x + shift)
    r1, r2 = order_set(fam, 3), order_set(fam2, 3)
    assert r1.E_window == r2.E_window and r1.dims == r2.dims


def test_find_order_simple_p3():
    # window contains k = 1 and 1+1 = 2 is not a power of 3
    p = 3
    fam = PoleFamily((Q(p, 1), Q(p, 2), Q(p, 4)), Q(p, 0))
    coeffs = find_nonppower_order(fam, p)
    k = order_of_combination(coeffs, fam)
    n = k + 1
    while n % p == 0:
        n //= p
    assert n != 1
    assert numerator_order_oracle(coeffs, fam) == k


def test_find_order_failure_for_p2_two_poles():
    # achievable orders are {0, 1}; k+1 in {1, 2} are both powers of 2
    p = 2
    fam = PoleFamily((Q(p, 1), Q(p, 3)), Q(p, 0))
    with pytest.raises(NoAdmissibleOrderError):
        find_nonppower_order(fam, p)


def test_find_order_seeded_roundtrip():
    rng = random.Random(9)
    p = 5
    for _ in range(5):
        vals = rng.sample(range(1, 40), 6)
        fam = PoleFamily(tuple(Q(p, v) for v in vals), Q(p, 0))
        coeffs = find_nonppower_order(fam, p)
        for c in coeffs:
            num = Fraction(c)
            while num.denominator % p == 0:  # pragma: no cover - must not happen
                raise AssertionError("coefficient not p-integral")
        k = order_of_combination(coeffs, fam)
        assert numerator_order_oracle(coeffs, fam) == k
        m = k + 1
        while m % p == 0:
            m //= p
        assert m != 1


def seeded_family(seed, p, ramified, npoles):
    """Distinct poles a + b*pi (b = 0 unless ramified) around a rational x."""
    rng = random.Random(seed)
    pi = PadicNumber.uniformizer(p)
    x = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
    points = set()
    while len(points) < npoles:
        a = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
        b = rng.randint(-2, 2) if ramified else 0
        if (a, b) != (x, 0):
            points.add((a, b))
    points = sorted(points)
    rng.shuffle(points)
    if ramified and all(b == 0 for _, b in points):
        points[0] = (points[0][0], 1)
    return PoleFamily(tuple(Q(p, a) + pi * b for a, b in points), Q(p, x))


def vp(c, p):
    num, den, v = c.numerator, c.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from((2, 3, 5)),
       ramified=st.booleans(), npoles=st.integers(2, 8))
def test_order_set_and_witness_match_oracles(seed, p, ramified, npoles):
    fam = seeded_family(seed, p, ramified, npoles)
    C, nmax = fam.C, npoles + 1
    assert C == (2 if ramified else 1)
    rows = family_rational_rows(fam, nmax + 1)
    res = order_set(fam, nmax)
    assert res.dims == tuple(helpers.rank_oracle([r[: n * C] for r in rows])
                             for n in range(nmax + 1))
    # one linear condition on (a_i) per rational coordinate column
    conditions = [[r[j] for r in rows] for j in range(len(rows[0]))]
    identity = [[Fraction(int(i == j)) for j in range(npoles)]
                for i in range(npoles)]
    achieved, expected = [], None
    for k in range(npoles):
        kernel = helpers.rref_nullspace(conditions[: k * C]) if k else identity
        block = conditions[k * C: (k + 1) * C]
        hit = next((v for v in kernel
                    if any(sum(a * c for a, c in zip(v, col)) for col in block)),
                   None)
        if hit is None:
            continue
        achieved.append(k)
        if not is_p_power(k + 1, p):
            shift = min(vp(c, p) for c in hit if c)
            expected = [c * Fraction(p) ** max(-shift, 0) for c in hit]
            break
    if expected is None:
        with pytest.raises(NoAdmissibleOrderError) as exc:
            find_nonppower_order(fam)
        assert exc.value.orders == tuple(achieved)
    else:
        assert list(find_nonppower_order(fam)) == expected


def test_integer_approximation_examples():
    assert integer_approximation(Q(3, 0), 4) == 0
    assert integer_approximation(Q(3, 0), 0) == 0
    assert integer_approximation(Q(3, -1), 2) == 8  # -1 = 8 mod 9


def test_integer_approximation_congruence():
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(15):
            den = rng.randint(1, 30)
            while den % p == 0:
                den = rng.randint(1, 30)
            a = Q(p, Fraction(rng.randint(-100, 100), den))
            n = rng.randint(0, 8)
            r = integer_approximation(a, n)
            assert 0 <= r < p ** n or (n == 0 and r == 0)
            assert (a - r).exact_valuation >= n


def test_integer_approximation_precision_guard():
    a = Q(3, 5, prec=4)
    with pytest.raises(PrecisionExhaustedError):
        integer_approximation(a, 10)


def test_finite_product_trivial_cases():
    p = 5
    x = Q(p, 7)
    assert (finite_product_eval((), (), x, Q(p, 3)) - 1).is_exact_zero
    poles = (Q(p, 1), Q(p, 2))
    at_x = finite_product_eval(poles, (2, -3), x, x)
    assert (at_x - 1).is_exact_zero


def test_finite_product_single_factor_direct():
    p = 3
    x, i, z = Q(p, 7), Q(p, 1), Q(p, 4)
    got = finite_product_eval((i,), (1,), x, z)
    direct = (z - i) / (x - i)
    assert (got - direct).is_exact_zero


def test_finite_product_at_ball_point():
    p = 3
    x, i = Q(p, 1), Q(p, 0)
    b = BallPoint(Q(p, 0), Fraction(2))
    got = finite_product_eval((i,), (3,), x, b)
    # |X| = p^-2 on the ball, |x - i| = 1: log form 3*(2 - 0)
    assert got == 6


def test_moebius_orbit():
    p = 5
    t = Q(p, 2)
    # g(z) = z + 1
    orbit = moebius_orbit((1, 1, 0, 1), t, -2, 2)
    assert [o.rat for o in orbit] == [0, 1, 2, 3, 4]
    # scaling map g(z) = 5z around the fixed point 0
    orbit = moebius_orbit((5, 0, 0, 1), t, 0, 2)
    assert [o.rat for o in orbit] == [2, 10, 50]


# ------------------------------------- integer elimination at larger sizes


def oracle_witness(fam, p, nblocks):
    """The first rref_nullspace vector of phi_k with a nonzero image on
    block k, over k + 1 not a p-power, rescaled by a p-power to be
    p-integral; None with the achieved orders when there is none."""
    C, n = fam.C, len(fam.poles)
    rows = family_rational_rows(fam, nblocks)
    conditions = [[r[j] for r in rows] for j in range(len(rows[0]))]
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    achieved = []
    for k in range(nblocks):
        kernel = helpers.rref_nullspace(conditions[: k * C]) if k else identity
        block = conditions[k * C: (k + 1) * C]
        hit = next((v for v in kernel
                    if any(sum(a * c for a, c in zip(v, col)) for col in block)),
                   None)
        if hit is None:
            continue
        achieved.append(k)
        if not is_p_power(k + 1, p):
            shift = min(vp(c, p) for c in hit if c)
            return [c * Fraction(p) ** max(-shift, 0) for c in hit], achieved
    return None, achieved


@pytest.mark.parametrize("seed, p, ramified, npoles", [
    (1, 2, False, 10), (2, 3, True, 10), (3, 5, False, 13), (4, 2, True, 15),
    (5, 3, False, 18), (6, 5, True, 20), (7, 2, False, 24), (8, 3, True, 24),
])
def test_integer_elimination_matches_oracles_past_full_rank(seed, p, ramified, npoles):
    fam = seeded_family(seed, p, ramified, npoles)
    C = fam.C
    nmax = npoles // C + 2  # past the block where the rank becomes full
    rows = family_rational_rows(fam, nmax + 1)
    res = order_set(fam, nmax)
    assert res.dims[-1] == npoles
    assert res.dims == tuple(helpers.rank_oracle([r[: n * C] for r in rows])
                             for n in range(nmax + 1))
    expected, achieved = oracle_witness(fam, p, npoles)
    if expected is None:
        with pytest.raises(NoAdmissibleOrderError) as exc:
            find_nonppower_order(fam)
        assert exc.value.orders == tuple(achieved)
    else:
        assert list(find_nonppower_order(fam)) == expected


def test_echelon_kernel_matches_rref_on_scaled_columns():
    rng = random.Random(5)
    unequal = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(1, n + 2)):
            if rows and rng.random() < 0.3:  # a dependent row
                a, b = rng.choice(rows), rng.choice(rows)
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                rows.append([x + c * y for x, y in zip(a, b)])
            else:
                rows.append([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                             if rng.random() < 0.8 else Fraction(0)
                             for _ in range(n)])
        # any positive multiple of the lcm of a column's denominators clears it
        scale = [lcm(*(r[i].denominator for r in rows)) * rng.randint(1, 6)
                 for i in range(n)]
        unequal += len(set(scale)) > 1
        echelon = _Echelon(len(scale))
        for m, r in enumerate(rows, 1):
            grew = echelon.add([int(x * d) for x, d in zip(r, scale)])
            assert grew == (helpers.rank_oracle(rows[:m])
                            > helpers.rank_oracle(rows[:m - 1]))
        pairs = list(echelon.kernel())
        assert all(type(x) is int for _, a in pairs for x in a)
        # a pair is the kernel vector of the scaled columns; unscaled, it is
        # a_r scale_r / (a_f scale_f), equal to 1 at f
        assert [[Fraction(x * d, a[f] * scale[f]) for x, d in zip(a, scale)]
                for f, a in pairs] == helpers.rref_nullspace(rows)
    assert unequal > 200


# ----------------------------------------- lazy blocks and early exits


@pytest.fixture
def block_count(monkeypatch):
    """Counts the coefficient blocks the solver actually builds."""
    built = [0]
    stream = poles_module._coefficient_blocks

    def counted(fam, K):
        scale, blocks = stream(fam, K)

        def each():
            for block in blocks:
                built[0] += 1
                yield block

        return scale, each()

    monkeypatch.setattr(poles_module, "_coefficient_blocks", counted)
    return built


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from((2, 3, 5)),
       ramified=st.booleans(), npoles=st.integers(1, 6), K=st.integers(0, 7))
def test_coefficient_blocks_are_the_scaled_matrix(seed, p, ramified, npoles, K):
    fam = seeded_family(seed, p, ramified, npoles)
    scale, blocks = poles_module._coefficient_blocks(fam, K)
    blocks = list(blocks)
    K = min(K, npoles - 1)  # the rank is full by block npoles - 1
    rows = fam.matrix(K + 1)
    assert len(blocks) == K + 1
    for d, row in zip(scale, rows):
        lcm_scale = lcm(*(c.denominator for e in row for c in (e.rat, e.pi_part)))
        assert d > 0 and d % lcm_scale == 0
        assert d == lcm_scale or ramified  # the lcm scale itself when C = 1
    for k, block in enumerate(blocks):
        parts = [[e[k].rat for e in rows]]
        if fam.C == 2:
            parts.append([e[k].pi_part for e in rows])
        assert block == [[c * d for c, d in zip(part, scale)] for part in parts]


@pytest.mark.parametrize("seed, p, ramified", [(21, 3, False), (22, 5, True)])
def test_order_set_far_past_full_rank_matches_the_rank_oracle(block_count, seed, p,
                                                               ramified):
    fam = seeded_family(seed, p, ramified, 5)
    C, nmax = fam.C, 40
    rows = family_rational_rows(fam, nmax + 1)
    res = order_set(fam, nmax)
    dims = tuple(helpers.rank_oracle([r[: n * C] for r in rows])
                 for n in range(nmax + 1))
    assert res.dims == dims
    assert res.E_window == tuple(n for n in range(nmax) if dims[n + 1] > dims[n])
    full = dims.index(5)  # blocks 0..full - 1 fill the rank
    assert block_count[0] == full < nmax


def test_find_order_without_witness_stops_at_full_rank(block_count):
    fam = PoleFamily((Q(2, 1), Q(2, 3)), Q(2, 0))  # orders 0, 1; 1 and 2 are 2-powers
    with pytest.raises(NoAdmissibleOrderError) as exc:
        find_nonppower_order(fam, nmax=10)
    assert str(exc.value) == ("no order k <= 10 with k+1 not a p-power; "
                              "achieved orders: (0, 1)")
    assert block_count[0] == 2


def test_ramified_find_order_without_witness_stops_at_full_rank(block_count):
    fam = seeded_family(3, 2, True, 4)
    assert order_set(fam, 3).dims == (0, 2, 4, 4)
    block_count[0] = 0
    with pytest.raises(NoAdmissibleOrderError) as exc:
        find_nonppower_order(fam, nmax=9)
    assert str(exc.value) == ("no order k <= 9 with k+1 not a p-power; "
                              "achieved orders: (0, 1)")
    assert block_count[0] == 2


@pytest.mark.parametrize("seed, p, ramified, npoles", [
    (31, 2, False, 6), (32, 3, True, 8), (33, 5, False, 12), (34, 2, True, 10),
])
def test_find_order_builds_no_block_past_the_witness(block_count, seed, p, ramified,
                                                     npoles):
    fam = seeded_family(seed, p, ramified, npoles)
    coeffs, order = poles_module._find_witness(fam, None, None)
    assert block_count[0] == order + 1
    assert numerator_order_oracle(coeffs, fam) == order
    assert not is_p_power(order + 1, p)


@pytest.fixture
def kernel_draws(monkeypatch):
    """[kernel dimension, pairs drawn] for each kernel the solver reads."""
    draws = []
    kernel = _Echelon.kernel

    def counted(echelon):
        draw = [echelon.n - len(echelon.leading), 0]
        draws.append(draw)
        for pair in kernel(echelon):
            draw[1] += 1
            yield pair

    monkeypatch.setattr(_Echelon, "kernel", counted)
    return draws


def symmetric_ramified_family():
    """p = 2, x = 0 and poles 2, -pi, +-(1 - pi), 1 + pi, +-(2 - pi): the
    first two kernel vectors of phi_2 are killed by block 2."""
    pi = PadicNumber.uniformizer(2)
    return PoleFamily(tuple(Q(2, a) + pi * Q(2, b) for a, b in
                            ((-2, 1), (2, -1), (2, 0), (-1, 1), (1, -1), (1, 1), (0, -1))),
                      Q(2, 0))


@pytest.mark.parametrize("fam", [
    seeded_family(31, 2, False, 6), seeded_family(32, 3, True, 8),
    seeded_family(33, 5, False, 12), seeded_family(34, 2, True, 10),
    symmetric_ramified_family(),
])
def test_find_order_draws_no_kernel_pair_past_the_witness(kernel_draws, fam):
    coeffs, order = poles_module._find_witness(fam, None, None)
    C = fam.C
    rows = family_rational_rows(fam, order + 1)
    conditions = [[r[j] for r in rows] for j in range(len(rows[0]))]
    kernel = helpers.rref_nullspace(conditions[: order * C])
    block = conditions[order * C:]
    killed = [not any(sum(a * c for a, c in zip(v, col)) for col in block)
              for v in kernel]
    # every kernel read before order's is killed whole and drawn whole; the
    # witness's kernel is drawn up to its first vector that block k keeps
    *before, last = kernel_draws
    assert all(dim == drawn for dim, drawn in before)
    assert last == [len(kernel), killed.index(False) + 1]


def test_find_order_stops_inside_a_kernel_at_the_witness(kernel_draws):
    coeffs, order = poles_module._find_witness(symmetric_ramified_family(), None, None)
    assert order == 2 and kernel_draws == [[3, 2]]


@pytest.mark.parametrize("p", [4, 6, -3, 0])
def test_find_order_rejects_a_non_prime_p(p):
    fam = PoleFamily((Q(5, 1), Q(5, 2), Q(5, 3)), Q(5, 0))
    with pytest.raises(ValueError, match=f"p = {p} is not prime"):
        find_nonppower_order(fam, p)


def test_find_order_rejects_a_negative_nmax():
    fam = PoleFamily((Q(5, 1), Q(5, 2)), Q(5, 0))
    with pytest.raises(ValueError, match="nmax must be nonnegative"):
        find_nonppower_order(fam, nmax=-1)
    with pytest.raises(NoAdmissibleOrderError):
        find_nonppower_order(fam, nmax=0)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from((2, 3, 5)),
       ramified=st.booleans(), npoles=st.integers(1, 7), window=st.integers(0, 6))
def test_order_of_combination_matches_the_matrix(seed, p, ramified, npoles, window):
    """A random combination of the kernel of phi_j, for a random j, has
    the order of the first nonzero coefficient of the PadicNumber matrix."""
    fam = seeded_family(seed, p, ramified, npoles)
    rng = random.Random(seed)
    C = fam.C
    j = rng.randint(0, (npoles - 1) // C)  # phi_j has a nonzero kernel
    rows = family_rational_rows(fam, j)
    conditions = [[r[m] for r in rows] for m in range(j * C)]
    kernel = (helpers.rref_nullspace(conditions) if j else
              [[Fraction(int(a == b)) for b in range(npoles)] for a in range(npoles)])
    coeffs = [Fraction(0)] * npoles
    while not any(coeffs):
        for vec in kernel:
            c = rng.randint(-3, 3)
            coeffs = [a + c * v for a, v in zip(coeffs, vec)]
    matrix = fam.matrix(window + 1)
    first = next((k for k in range(window + 1)
                  if not sum((row[k] * c for row, c in zip(matrix, coeffs)),
                             PadicNumber.zero(p)).is_exact_zero), None)
    if first is None:
        with pytest.raises(PrecisionExhaustedError):
            order_of_combination(coeffs, fam, window)
    else:
        assert first >= j
        assert order_of_combination(coeffs, fam, window) == first


def test_is_p_power_matches_the_division_loop():
    def naive(n, p):
        if n < 1:
            return False
        while n % p == 0:
            n //= p
        return n == 1

    for p in (2, 3, 5, 7):
        for n in list(range(-3, 400)) + [p ** 40, p ** 40 + 1, 3 * p ** 40]:
            assert poles_module._is_p_power(n, p) == naive(n, p), (n, p)
