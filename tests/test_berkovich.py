import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nonarch import (BallPoint, INF, PadicNumber, Segment, classify_type, join,
                     ladder_point, same_point, seminorm, valuation)


def Q(p, r, prec=64):
    return PadicNumber.from_rational(p, Fraction(r), prec)


def poly(p, *coeffs):
    return [Q(p, c) for c in coeffs]


def test_seminorm_of_coordinate_function():
    b = BallPoint(Q(3, 0), Fraction(5, 2))
    assert seminorm(poly(3, 0, 1), b) == Fraction(5, 2)


def test_seminorm_of_constant_p():
    for rho in (Fraction(0), Fraction(3, 4), INF):
        b = BallPoint(Q(3, 7), rho)
        assert seminorm(poly(3, 3), b) == 1


def test_seminorm_at_a_type_1_root_is_inf():
    # (X - 7)(X + 2) = X^2 - 5X - 14 vanishes at the type-1 point 7
    assert seminorm(poly(3, -14, -5, 1), BallPoint(Q(3, 7), INF)) == INF


def test_seminorm_termwise_example():
    # X^2 + pX at b_{0,1}: min(2*1, 1 + 1) = 2
    b = BallPoint(Q(3, 0), Fraction(1))
    assert seminorm(poly(3, 0, 3, 1), b) == 2


def test_seminorm_multiplicative():
    rng = random.Random(11)
    p = 5
    for _ in range(25):
        f = [Fraction(rng.randint(-8, 8)) for _ in range(rng.randint(1, 4))]
        g = [Fraction(rng.randint(-8, 8)) for _ in range(rng.randint(1, 4))]
        if all(c == 0 for c in f) or all(c == 0 for c in g):
            continue
        prod = [Fraction(0)] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, c in enumerate(g):
                prod[i + j] += a * c
        center = Q(p, rng.randint(-10, 10))
        b = BallPoint(center, Fraction(rng.randint(-4, 8), rng.randint(1, 3)))
        sf = seminorm([Q(p, c) for c in f], b)
        sg = seminorm([Q(p, c) for c in g], b)
        sp = seminorm([Q(p, c) for c in prod], b)
        assert sp == sf + sg


def test_same_point_containment_example():
    # b_{0,0} and b_{1,0}: v(0-1) = 0 >= 0
    assert same_point(BallPoint(Q(5, 0), 0), BallPoint(Q(5, 1), 0))


def test_same_point_distinct_type1():
    assert not same_point(BallPoint(Q(5, 0), INF), BallPoint(Q(5, 5), INF))


def test_same_point_is_equivalence():
    rng = random.Random(2)
    p = 3
    pts = []
    for _ in range(12):
        center = Q(p, rng.randint(-10, 10))
        rho = Fraction(rng.randint(0, 4), rng.randint(1, 2))
        pts.append(BallPoint(center, rho))
    for a in pts:
        assert same_point(a, a)
        for b in pts:
            assert same_point(a, b) == same_point(b, a)
            for c in pts:
                if same_point(a, b) and same_point(b, c):
                    assert same_point(a, c)


def test_classify_type():
    assert classify_type(BallPoint(Q(3, 4), INF)) == 1
    assert classify_type(BallPoint(Q(3, 0), Fraction(1, 2))) == 2
    assert classify_type(BallPoint(Q(3, 0), 0)) == 2  # Gauss point


def test_classify_invariant_under_equality():
    a = BallPoint(Q(3, 0), Fraction(2))
    b = BallPoint(Q(3, 9), Fraction(2))
    assert same_point(a, b)
    assert classify_type(a) == classify_type(b)


def test_join_examples():
    assert join(Q(3, 0), Q(3, 1)) == BallPoint(Q(3, 0), 0)
    assert join(Q(3, 0), Q(3, 3)) == BallPoint(Q(3, 0), 1)
    # v(p^3) = 3
    assert join(Q(3, 3), Q(3, 3 + 27)) == BallPoint(Q(3, 3), 3)


def test_join_symmetric_and_contains_inputs():
    rng = random.Random(5)
    p = 3
    one = PadicNumber.one(p)
    for _ in range(20):
        a1 = Q(p, Fraction(rng.randint(-40, 40), rng.choice((1, 1, 3))))
        a2 = Q(p, Fraction(rng.randint(-40, 40), rng.choice((1, 1, 3))))
        if (a1 - a2).is_exact_zero:
            continue
        b = join(a1, a2)
        assert same_point(b, join(a2, a1))
        # containment: |X - a_i| <= r on the ball, i.e. log-seminorm >= rho
        for a in (a1, a2):
            assert seminorm([-a, one], b) >= b.logradius


def test_join_degenerate_flag():
    a = Q(3, 7, prec=4)
    b = a + Q(3, 3 ** 6, prec=4)  # equal at precision 4
    j = join(a, b)
    assert classify_type(j) == 1
    assert j.degenerate


def test_ladder_point_examples():
    z = Q(3, 2)  # v(z) = 0
    assert ladder_point(z, 0) == BallPoint(z, Fraction(1, 2))
    z2 = Q(2, 1)
    assert ladder_point(z2, 2) == BallPoint(z2, 3)


def test_ladder_points_shrink():
    z = Q(5, 10)
    rhos = [ladder_point(z, n).logradius for n in range(6)]
    assert all(rhos[i] < rhos[i + 1] for i in range(5))


def test_ladder_point_rejects_zero():
    with pytest.raises(ValueError):
        ladder_point(PadicNumber.zero(3), 1)


def test_segment_contains():
    z = Q(3, 1)
    seg = Segment(z, INF, Fraction(2))
    assert seg.contains(BallPoint(z, Fraction(7, 2)))
    assert seg.contains(BallPoint(z, INF))
    assert not seg.contains(BallPoint(z, Fraction(1)))
    far = Q(3, 2)  # v(1-2) = 0 < 3: not on the ray at rho = 3
    assert not seg.contains(BallPoint(far, Fraction(3)))


def test_ballpoint_json_roundtrip():
    b = BallPoint(Q(3, 7, prec=10), Fraction(5, 2))
    assert BallPoint.from_json(b.to_json()) == b
    t1 = BallPoint(Q(3, 7, prec=10), INF)
    assert BallPoint.from_json(t1.to_json()) == t1


def _element(draw, p, ramified):
    rat = Fraction(draw(st.integers(-30, 30)), draw(st.sampled_from((1, 2, 3, 4, 25))))
    pi = draw(st.integers(-3, 3)) if ramified else 0
    return PadicNumber(p, rat, Fraction(pi))


@st.composite
def seminorm_cases(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    ramified = draw(st.booleans())
    f, g = ([_element(draw, p, ramified) for _ in range(draw(st.integers(1, 4)))]
            for _ in range(2))
    center = _element(draw, p, ramified)
    rho = draw(st.one_of(st.just(INF), st.fractions(-4, 8, max_denominator=6)))
    return f, g, BallPoint(center, rho)


@settings(max_examples=150, deadline=None, database=None)
@given(seminorm_cases())
def test_seminorm_is_multiplicative_property(case):
    f, g, b = case
    prod = [PadicNumber.zero(b.p) for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, c in enumerate(g):
            prod[i + j] = prod[i + j] + a * c
    assert seminorm(prod, b) == seminorm(f, b) + seminorm(g, b)
