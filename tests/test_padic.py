import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import nonarch
from nonarch import (BoundedSeries, Current, INF, NEG_INF, PadicNumber, RamifiedGerm,
                     TailBound, alpha_germ, binom_fractional, convergence_logradius,
                     series_p_power_root, splitting_logradius_numeric, valuation,
                     vp_factorial)
from nonarch.currents import _binomial_factor
from nonarch.errors import PoleCollisionError, PrecisionExhaustedError, UndecidableSlopeError
from nonarch.cli import _JSONDecimal
from nonarch.padic import (exact_text, is_prime, json_shape, padic_digit_string,
                           parse_extended, parse_fraction, vp_int)
from nonarch.series import _least_root_level, _power_coeffs, _root_tail, _unit_points

from helpers import (JSON_KINDS, dlog_coeffs, json_shape_oracle, padic_from_json,
                     power_coeffs_oracle, root_tail_oracle, truncated)


def Q(p, r, prec=64):
    return PadicNumber.from_rational(p, Fraction(r), prec)


# ---------------------------------------------------------------- scalars


def test_valuation_of_p_is_one():
    assert valuation(Q(5, 5)) == 1
    assert valuation(Q(2, 2)) == 1


def test_valuation_of_unit_is_zero():
    assert valuation(Q(3, 1)) == 0
    assert valuation(Q(3, Fraction(7, 4))) == 0


def test_valuation_of_uniformizer_is_half():
    pi = PadicNumber.uniformizer(3)
    assert valuation(pi) == Fraction(1, 2)
    assert (pi * pi - Q(3, 3)).is_exact_zero


def test_zero_at_precision_reports_infinite_valuation():
    x = Q(3, 3 ** 10, prec=8)
    assert valuation(x) is INF
    assert x.val is INF
    assert x.exact_valuation == 10


def test_valuation_multiplicative_and_ultrametric():
    rng = random.Random(7)
    for p in (2, 3, 5):
        pi = PadicNumber.uniformizer(p)
        for _ in range(40):
            x = Q(p, Fraction(rng.randint(-50, 50), rng.randint(1, 40))) + \
                pi * rng.randint(-5, 5)
            y = Q(p, Fraction(rng.randint(-50, 50), rng.randint(1, 40))) + \
                pi * rng.randint(-5, 5)
            if x.is_exact_zero or y.is_exact_zero:
                continue
            assert (x * y).exact_valuation == x.exact_valuation + y.exact_valuation
            vs = (x + y).exact_valuation
            assert vs >= min(x.exact_valuation, y.exact_valuation)
            if x.exact_valuation != y.exact_valuation:
                assert vs == min(x.exact_valuation, y.exact_valuation)


def test_division_and_power_roundtrip():
    x = Q(5, Fraction(7, 3)) + PadicNumber.uniformizer(5) * 2
    assert ((x / x) - 1).is_exact_zero
    assert ((x ** 3) * (x ** -3) - 1).is_exact_zero


def test_vp_factorial_examples():
    assert vp_factorial(0, 5) == 0
    assert vp_factorial(5, 5) == 1
    # direct factor counting in 10! = 2^8 3^4 5^2 7
    assert vp_factorial(10, 3) == 4


def test_vp_factorial_against_direct_count():
    import math
    for p in (2, 3, 5):
        for k in range(0, 40):
            n = math.factorial(k)
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            assert vp_factorial(k, p) == v


def test_binom_fractional_k0_is_one():
    b = binom_fractional(Fraction(3, 7), 0, 5)
    assert (b - 1).is_exact_zero


def test_binom_fractional_example_third():
    # C(1/3, 3) = (1/3)(1/3-1)(1/3-2)/6 = 5/81, valuation -3*1 - v_3(3!) = -4
    b = binom_fractional(Fraction(1, 3), 3, 3)
    assert b.rat == Fraction(5, 81)
    assert b.exact_valuation == -4


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_binomial_valuation_law(p, n):
    m = Fraction(1, p ** (n - 1))
    for k in range(1, 30):
        b = binom_fractional(m, k, p)
        assert b.exact_valuation == -k * (n - 1) - vp_factorial(k, p)


def test_serialization_roundtrip_qp():
    x = Q(3, Fraction(-22, 7), prec=16)
    back = padic_from_json(x.to_json())
    assert valuation(back - x) is INF  # agreement to the serialized precision


def test_serialization_roundtrip_ramified():
    pi = PadicNumber.uniformizer(3, prec=12)
    x = Q(3, 5, prec=12) + pi * Fraction(7, 2)
    back = padic_from_json(x.to_json())
    assert valuation(back - x) is INF


def test_padic_json_format():
    x = Q(3, Fraction(18, 5), prec=8)
    data = x.to_json()
    assert set(data) == {"p", "val", "unit", "prec"}
    assert data["p"] == 3 and data["val"] == "2" and data["prec"] == 8
    assert data["unit"].isdigit()


@settings(max_examples=200, deadline=None, database=None)
@given(x=st.one_of(st.fractions(), st.sampled_from([INF, NEG_INF])))
def test_exact_text_round_trip(x):
    text = exact_text(x)
    if x == NEG_INF:
        # printed (an entire series' log-radius) but never a parsed quantity
        assert text == "-inf"
        with pytest.raises(ValueError):
            parse_extended(text)
    else:
        assert text == ("inf" if x == INF else str(x))
        assert parse_extended(text) == x
        assert parse_extended(x) == x


@pytest.mark.parametrize("x, cutoff, text", [
    (Q(3, 0, prec=10), INF, "0"),
    (Q(3, 0, prec=10), 5, "O(p^5)"),
    (Q(3, 0, prec=10), Fraction(7, 2), "O(p^7/2)"),
    (Q(3, 9), 2, "O(p^2)"),
    (Q(3, -1, prec=3), INF, "2 + 2*p + 2*p^2"),
    (Q(3, -1, prec=3), 10, "2 + 2*p + 2*p^2 + O(p^10)"),
    (Q(3, -1), Fraction(7, 2), "2 + 2*p + 2*p^2 + 2*p^3 + O(p^7/2)"),
])
def test_digit_string_cutoffs(x, cutoff, text):
    assert padic_digit_string(x, cutoff) == text


def test_unit_digits_coprime_to_p():
    for r in (5, Fraction(9, 7), Fraction(-3, 4)):
        x = Q(3, r)
        assert x.unit_digits % 3 != 0


@pytest.mark.parametrize("pi_part", [4, Fraction(7, 2), -1, 9, Fraction(-5, 3)])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_serialization_roundtrip_pure_pi_multiples(p, pi_part):
    # odd valuation and rat == 0: the unit is still interleaved.  The unit
    # keeps prec digits, so the round trip agrees to relative precision prec
    # (to the full precision when the valuation is nonnegative).
    x = PadicNumber.uniformizer(p, prec=12) * pi_part
    data = x.to_json()
    assert data["ext"] is True
    back = padic_from_json(data)
    assert (back - x).exact_valuation >= x.prec + x.exact_valuation
    if x.exact_valuation >= 0:
        assert valuation(back - x) is INF


@pytest.mark.parametrize("p", [0, 1, 4, 9, -3])
def test_non_prime_p_is_rejected(p):
    for _ in range(2):  # the second call is answered by the primality cache
        with pytest.raises(ValueError):
            PadicNumber(p, Fraction(1))
        with pytest.raises(ValueError):
            PadicNumber.from_rational(p, 1)


@pytest.mark.parametrize("n, prime", [
    (2 ** 61 - 1, True), (10 ** 16 + 61, True),  # trial division took 6 s on the second
    (561, False),  # a Carmichael number
    (3215031751, False),  # a strong pseudoprime to the bases 2, 3, 5 and 7
])
def test_is_prime_decides_large_p_at_once(n, prime):
    assert is_prime(n) is prime
    if not prime:
        with pytest.raises(ValueError, match=f"^p = {n} is not prime$"):
            PadicNumber(n, 1)


def test_is_prime_matches_trial_division_below_ten_thousand():
    assert [n for n in range(-3, 10 ** 4) if is_prime(n)] == \
        [n for n in range(2, 10 ** 4) if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def test_probable_prime_beyond_the_proved_range_is_refused():
    # 2^89 - 1 is prime, but above 3.3 * 10^24 the 13 bases prove nothing
    n = 2 ** 89 - 1
    with pytest.raises(ValueError, match=f"^p = {n} passes a probable-prime test "
                                         "but is too large to be proved prime$"):
        PadicNumber(n, 1)


def test_precision_below_one_is_rejected():
    for _ in range(2):
        with pytest.raises(ValueError):
            PadicNumber(3, Fraction(1), Fraction(0), 0)
        with pytest.raises(ValueError):
            PadicNumber.from_rational(3, 1, prec=0)


def test_padic_number_is_immutable_and_hash_ignores_prec():
    x = PadicNumber(3, Fraction(2, 5), Fraction(1, 3), prec=20)
    for attr in ("p", "rat", "pi_part", "prec", "other"):
        with pytest.raises(AttributeError):
            setattr(x, attr, 1)
    with pytest.raises(AttributeError):
        del x.rat
    y = PadicNumber(3, Fraction(2, 5), Fraction(1, 3), prec=64)
    assert x == y and hash(x) == hash(y)
    assert x != PadicNumber(3, Fraction(2, 5), Fraction(0), prec=20)
    assert PadicNumber(3, 1) != PadicNumber(5, 1)
    assert PadicNumber(3, 2) == PadicNumber(3, Fraction(2)) and PadicNumber(3, 2) != 2
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is PadicNumber and twin == x and twin.prec == x.prec == 20
        assert (twin.p, twin.rat, twin.pi_part) == (x.p, x.rat, x.pi_part)
    for p in (3, 5):
        a, b = Q(p, Fraction(7, 4), prec=12), Q(p, Fraction(-2, 9), prec=30)
        pi = PadicNumber.uniformizer(p, prec=40)
        for u, w in ((a, b), (a + pi, b), (b, a * pi - 1)):
            for r in (u + w, u - w, u * w, u / w, w.inverse(), -u, u + 1, 2 - w,
                      u * Fraction(1, 2), 3 / w, u ** 0, u ** 3, u ** -2):
                assert type(r.rat) is Fraction and type(r.pi_part) is Fraction
                assert type(r) is PadicNumber and r.p == p
            assert (u + w).prec == (u * w).prec == (u / w).prec == min(u.prec, w.prec)
    with pytest.raises(ValueError):
        PadicNumber(4, 1)
    with pytest.raises(ValueError):
        PadicNumber(3, 1, prec=0)


def test_power_edge_cases():
    pi = PadicNumber.uniformizer(5, prec=9)
    for x in (Q(5, Fraction(-7, 10), prec=9), pi * 3 + 2, PadicNumber.zero(5, 9)):
        one = x ** 0
        assert one == PadicNumber.one(5) and one.prec == 9
        assert x ** 1 == x and (x ** 1).prec == 9
    with pytest.raises(ZeroDivisionError):
        PadicNumber.zero(5, 9) ** -1


# Textbook arithmetic of Q_p(pi), pi^2 = p, on bare (rat, pi_part) pairs.


def o_mul(p, x, y):
    (a, b), (c, d) = x, y
    return (a * c + p * b * d, a * d + b * c)


def o_inv(p, x):
    a, b = x
    n = a * a - p * b * b
    return (a / n, -b / n)


def o_pow(p, x, k):
    base = o_inv(p, x) if k < 0 else x
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = o_mul(p, out, base)
    return out


small = st.fractions(min_value=-60, max_value=60, max_denominator=40)
operand = st.tuples(small, st.one_of(st.just(Fraction(0)), small),
                    st.integers(1, 80))


@settings(max_examples=150, deadline=None, database=None)
@given(p=st.sampled_from((2, 3, 5)), xs=st.tuples(operand, operand, operand),
       n=st.integers(-9, 9), k=st.integers(-4, 8))
def test_arithmetic_matches_textbook_oracle(p, xs, n, k):
    x, y, z = (PadicNumber(p, r, b, prec) for r, b, prec in xs)
    ox, oy = (x.rat, x.pi_part), (y.rat, y.pi_part)
    nn = (Fraction(n), Fraction(0))
    pr = min(x.prec, y.prec)
    cases = [
        (x + y, (ox[0] + oy[0], ox[1] + oy[1]), pr),
        (x - y, (ox[0] - oy[0], ox[1] - oy[1]), pr),
        (x * y, o_mul(p, ox, oy), pr),
        (-x, (-ox[0], -ox[1]), x.prec),
        (n + x, (n + ox[0], ox[1]), x.prec),
        (n - x, (n - ox[0], -ox[1]), x.prec),
        (x - n, (ox[0] - n, ox[1]), x.prec),
        (n * x, o_mul(p, nn, ox), x.prec),
    ]
    if not x.is_exact_zero:
        cases += [(x.inverse(), o_inv(p, ox), x.prec),
                  (y / x, o_mul(p, oy, o_inv(p, ox)), pr),
                  (n / x, o_mul(p, nn, o_inv(p, ox)), x.prec)]
    if k >= 0 or not x.is_exact_zero:
        cases.append((x ** k, o_pow(p, ox, k), x.prec))
    else:
        with pytest.raises(ZeroDivisionError):
            x ** k
    for got, (rat, pi_part), prec in cases:
        assert type(got.rat) is Fraction and type(got.pi_part) is Fraction
        assert (got.rat, got.pi_part) == (rat, pi_part)
        assert got.prec == prec
    # field laws of Q_p(pi)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x - x).is_exact_zero and (x + (-x)).is_exact_zero
    if not x.is_exact_zero:
        assert x * x.inverse() == PadicNumber.one(p)
        assert (y / x) * x == y
    back = padic_from_json(x.to_json())
    assert (back - x).exact_valuation >= x.prec + x.exact_valuation


# ---------------------------------------------------------------- series


def conv_oracle(a, b):
    """Brute-force polynomial convolution on exact coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_mul_matches_convolution_oracle():
    p = 5
    rng = random.Random(3)
    for _ in range(10):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
        f = BoundedSeries.build(p, a)
        g = BoundedSeries.build(p, b)
        expect = conv_oracle(a, b)
        got = f.mul(g)
        assert [c.rat for c in got.coeffs] == expect


def test_root_of_constant_one():
    f = BoundedSeries.build(3, [1])
    g = series_p_power_root(f, 4)
    assert g.degree == 0 and (g.coeffs[0] - 1).is_exact_zero and g.tail is None


def test_root_coefficients_are_binomials():
    p, n = 3, 3
    # f = 1 + X^2 explicit to degree 8
    f = BoundedSeries.build(p, [1, 0, 1] + [0] * 6)
    g = series_p_power_root(f, n)
    for k in range(0, 4):
        expect = binom_fractional(Fraction(1, p ** n), k, p)
        assert (g.coeffs[2 * k] - expect).is_exact_zero
    # odd coefficients vanish
    assert all(g.coeffs[j].is_exact_zero for j in range(1, g.degree + 1, 2))


def test_root_power_recovers_input():
    p, m = 3, 1
    f = BoundedSeries.build(p, [1, 1, 2, Fraction(1, 2), 0, 5, 0, 0, 0])
    g = series_p_power_root(f, m)
    h = g
    for _ in range(p ** m - 1):
        h = h.mul(g, trunc=f.degree)
    for j in range(f.degree + 1):
        assert (h.coeffs[j] - f.coeffs[j]).is_exact_zero


def test_root_square_against_multiplication_oracle():
    # f = (1+X)^2 with p = 3: the p^m-th root of f is the square of the
    # root of 1+X, checked coefficientwise via the convolution oracle.
    p, m, D = 3, 1, 8
    one_plus = BoundedSeries.build(p, [1, 1] + [0] * (D - 1))
    f = BoundedSeries.build(p, conv_oracle([Fraction(1), Fraction(1)],
                                           [Fraction(1), Fraction(1)]) + [0] * (D - 2))
    r1 = series_p_power_root(one_plus, m)
    r2 = series_p_power_root(f, m)
    square = r1.mul(r1, trunc=D)
    for j in range(D + 1):
        assert (square.coeffs[j] - r2.coeffs[j]).is_exact_zero


def test_convergence_geometric_series():
    p = 3
    f = BoundedSeries.build(p, [1] * 7, TailBound(0, 0))
    assert convergence_logradius(f) == 0


def test_convergence_p_powers_newton_slope():
    # sum p^k X^k: the valuation sequence v_k = k has Newton slope 1,
    # so the convergence log-radius is -1 (radius p).
    p = 3
    coeffs = [Fraction(p) ** k for k in range(6)]
    vals = [k for k in range(6)]  # oracle: lower hull of (k, v_k) has slope 1
    slope = min((vals[j] - vals[i]) / (j - i)
                for i in range(6) for j in range(i + 1, 6))
    assert slope == 1
    f = BoundedSeries.build(p, coeffs, TailBound(1, 0))
    assert convergence_logradius(f) == -slope


def test_convergence_polynomial_is_entire():
    f = BoundedSeries.build(3, [1, 4, 0, 2])
    assert convergence_logradius(f) is NEG_INF


@pytest.mark.parametrize("p,N,n", [(2, 1, 1), (3, 2, 3), (5, 3, 2), (3, 4, 5)])
def test_root_radius_matches_closed_form(p, N, n):
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    coeffs[N] = 1
    f = BoundedSeries.build(p, coeffs)
    g = series_p_power_root(f, n)
    assert convergence_logradius(g) == (Fraction(n) + Fraction(1, p - 1)) / N


def test_rescaled_germ_radius():
    # f = 1 + X^2 composed with X -> pX gives 1 + p^2 X^2; its p^n-th root
    # has coefficients C(1/p^n, k) p^(2k) at degree 2k, so the Newton slope
    # is (n + 1/(p-1))/2 - v(p^2)/2 and the log-radius drops by v(p) = 1:
    # for p = 3, n = 3 the radius is 7/4 - 1 = 3/4.
    p, n = 3, 3
    f = BoundedSeries.build(p, [1, 0, 1]).rescale(Q(p, p))
    g = series_p_power_root(f, n)
    assert convergence_logradius(g) == Fraction(3, 4)
    # oracle: explicit coefficients sit on the certified line
    line = g.tail
    k = 1
    assert g.coeffs[2 * k].exact_valuation == line.at(2 * k)


def test_tail_bound_is_conservative():
    p = 3
    f = BoundedSeries.build(p, [1, 0, 1, 0, 0, 0, 0, 0, 0])
    g = series_p_power_root(f, 2)
    for j, v in g.explicit_points():
        if j >= 1:
            assert v >= g.tail.at(j)


def test_convergence_flag_on_inconsistent_series():
    p = 3
    f = BoundedSeries.build(p, [1, Fraction(1, p)], TailBound(0, 0))
    with pytest.raises(UndecidableSlopeError):
        convergence_logradius(f)


def test_derivative_and_inverse():
    # f = 1 + X^2: the dlog oracle's f'/f is 2X/(1 + X^2) = 2X - 2X^3 + ...,
    # and Miller's recurrence at a = -1 gives 1/f = 1 - X^2 + X^4 - ...
    p = 5
    f = BoundedSeries.build(p, [1, 0, 1])
    assert dlog_coeffs(f, 5) == [0, 2, 0, -2, 0, 2]
    inv = _power_coeffs(f.coeffs, Fraction(-1), PadicNumber.one(p), 6)
    assert [c.rat for c in inv] == [1, 0, -1, 0, 1, 0, -1]


def test_monotone_radius_under_high_valuation_perturbation():
    # perturbing explicit coefficients above the tail line leaves the
    # certified radius unchanged
    p = 3
    base = BoundedSeries.build(p, [1, 1, 1, 1], TailBound(0, 0))
    bumped = BoundedSeries.build(p, [1, 1 + 9, 1, 1 + 27], TailBound(0, 0))
    assert convergence_logradius(base) == convergence_logradius(bumped)


# ---------------------------------------------------- series powers


coeff_part = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def unit_series(draw, degrees=st.integers(1, 24), tailed=True):
    """(p, f) with f(0) = 1, Q_p or ramified coefficients, optional tail."""
    p = draw(st.sampled_from((2, 3, 5)))
    ramified = draw(st.booleans())
    degree = draw(degrees)
    coeffs = [PadicNumber.one(p)]
    for _ in range(degree):
        rat = draw(coeff_part) * Fraction(p) ** draw(st.integers(-1, 3))
        pi_part = draw(coeff_part) if ramified else Fraction(0)
        coeffs.append(PadicNumber(p, rat, pi_part))
    tail = None
    if tailed and draw(st.booleans()):
        tail = TailBound(draw(st.integers(0, 3)), draw(st.integers(-2, 2)))
    return p, BoundedSeries(p, tuple(coeffs), tail)


def coeff(f, j):
    """a_j of f; zero past the degree of a polynomial."""
    if j <= f.degree:
        return f.coeffs[j]
    assert f.tail is None, j
    return PadicNumber.zero(f.p)


def assert_coeffs_equal(got, want, degree):
    for j in range(degree + 1):
        assert coeff(got, j) == coeff(want, j), j


@settings(max_examples=60, deadline=None, database=None)
@given(data=unit_series(), m=st.integers(1, 2))
def test_root_power_and_inverse_match_multiplication(data, m):
    p, f = data
    D = f.degree
    if f.tail is not None and all(c.is_exact_zero for c in f.coeffs[1:]):
        with pytest.raises(PrecisionExhaustedError):
            series_p_power_root(f, m)
    else:
        root = series_p_power_root(f, m)
        power = root
        for _ in range(p ** m - 1):
            power = power.mul(root, trunc=D)
        assert_coeffs_equal(power, f, D)
    # the recurrence at a = -1 inverts g; a non-unit constant term
    # exercises w0 = 1/c0
    g = f.scalar_mul(PadicNumber(p, Fraction(p, 7), Fraction(1)))
    inverse = _power_coeffs(g.coeffs, Fraction(-1), g.coeffs[0].inverse(), D)
    product = g.mul(BoundedSeries(p, tuple(inverse)), trunc=D)
    assert_coeffs_equal(product, BoundedSeries.build(p, [1]), D)


@settings(max_examples=60, deadline=None, database=None)
@given(p=st.sampled_from((2, 3, 5)), rat=coeff_part.filter(bool),
       pi_part=st.one_of(st.just(Fraction(0)), coeff_part),
       mexp=st.integers(-4, 6), D=st.integers(0, 24))
def test_binomial_factor_matches_binomial_oracle(p, rat, pi_part, mexp, D):
    u = PadicNumber(p, rat, pi_part)
    factor = _binomial_factor(p, u, mexp, D)
    top = D if mexp < 0 else min(mexp, D)
    assert factor.degree == top
    for k in range(top + 1):
        assert factor.coeffs[k] == binom_fractional(mexp, k, p) * u ** k, k
    assert (factor.tail is None) == (0 <= mexp <= D)


@st.composite
def power_inputs(draw):
    """(v, a, w0, d) for Miller's recurrence: Q_p or Q_p(pi) coefficients
    with sparse support and mixed precs, a in {1/p^m, -1, small integers}
    and w0 = V_0^a."""
    p = draw(st.sampled_from((2, 3, 5)))
    ramified = draw(st.booleans())
    precs = st.integers(1, 80)

    def scalar():
        rat = draw(coeff_part) * Fraction(p) ** draw(st.integers(-1, 3))
        pi_part = draw(coeff_part) if ramified else Fraction(0)
        return PadicNumber(p, rat, pi_part, draw(precs))

    kind = draw(st.sampled_from(("root", "inverse", "integer")))
    if kind == "root":
        a = Fraction(1, p ** draw(st.integers(1, 3)))
        v0 = PadicNumber(p, 1, 0, draw(precs))
        w0 = PadicNumber(p, 1, 0, draw(precs))
    else:
        v0 = scalar()
        assume(not v0.is_exact_zero)
        a = Fraction(-1 if kind == "inverse" else draw(st.integers(-3, 4)))
        w0 = v0 ** int(a)
    v = [v0] + [scalar() if draw(st.booleans()) else PadicNumber(p, 0, 0, draw(precs))
                for _ in range(draw(st.integers(0, 10)))]
    return v, a, w0, draw(st.integers(0, 14))


@settings(max_examples=200, deadline=None, database=None)
@given(data=power_inputs())
def test_power_coeffs_match_the_scalar_oracle(data):
    v, a, w0, d = data
    got = _power_coeffs(v, a, w0, d)
    want = power_coeffs_oracle(v, a, w0, d)
    assert len(got) == len(want) == d + 1
    for n, (x, y) in enumerate(zip(got, want)):
        assert x == y, n
        assert x.prec == y.prec, n


def naive_vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@settings(max_examples=300, deadline=None, database=None)
@given(p=st.sampled_from((2, 3, 5, 7)), v=st.integers(0, 300),
       unit=st.integers(1, 10 ** 30), negative=st.booleans())
def test_vp_int_matches_the_naive_loop(p, v, unit, negative):
    n = unit * p ** v * (-1 if negative else 1)
    assert vp_int(n, p) == naive_vp(n, p)
    assert vp_int(n, p) == v + naive_vp(unit, p)


def test_vp_int_edge_cases():
    assert vp_int(0, 3) == INF
    for p in (0, -3):
        with pytest.raises(ValueError, match=f"p = {p} is not prime"):
            vp_int(6, p)
    # p = 1 looped forever; a fresh process with a timeout keeps a
    # regression from hanging the suite
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(nonarch.__file__)))
    done = subprocess.run([sys.executable, "-c",
                           "from nonarch.padic import vp_int; vp_int(6, 1)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert "ValueError: p = 1 is not prime" in done.stderr


POWER_OPS = {
    "root1": lambda f: series_p_power_root(f, 1),
    "root2": lambda f: series_p_power_root(f, 2),
    "root3": lambda f: series_p_power_root(f, 3),
}


@settings(max_examples=80, deadline=None, database=None)
@given(data=unit_series(degrees=st.integers(1, 6).map(lambda D: 4 * D), tailed=False),
       op_name=st.sampled_from(sorted(POWER_OPS)))
def test_tails_bound_coefficients_of_the_longer_expansion(data, op_name):
    # Compute at explicit degree D and again from the degree-4D polynomial;
    # the degree-D tail must bound every explicit coefficient D < k <= 4D.
    _, f = data
    D = f.degree // 4
    op = POWER_OPS[op_name]
    # a root needs a certified order of f - 1 within degree D
    assume(any(not c.is_exact_zero for c in f.coeffs[1:D + 1]))
    short = op(truncated(f, D))
    long = op(f)
    assert short.degree == D and long.degree == 4 * D
    assert_coeffs_equal(short, long, D)
    assert_tail_bounds(short, long)


def assert_tail_bounds(short, long):
    """Every explicit coefficient of ``long`` past the degree of ``short``
    meets the tail of ``short``; returns the degrees where it meets it with
    equality."""
    attained = []
    for k in range(short.degree + 1, long.degree + 1):
        c = long.coeffs[k]
        if not c.is_exact_zero:
            assert c.exact_valuation >= short.tail.at(k), (k, short.tail)
            if c.exact_valuation == short.tail.at(k):
                attained.append(k)
    return attained


@settings(max_examples=80, deadline=None, database=None)
@given(p=st.sampled_from((2, 3, 5)), rat=coeff_part.filter(bool),
       pi_part=st.one_of(st.just(Fraction(0)), coeff_part), D=st.integers(1, 6),
       past=st.integers(1, 30), negative=st.booleans())
# (1 + T/2)^-1: the k-th coefficient has valuation k v(u), as low as the
# tail allows, so a tail offset above 0 is false
@example(p=2, rat=Fraction(1, 2), pi_part=Fraction(0), D=3, past=1, negative=True)
def test_binomial_factor_tail_bounds_the_longer_expansion(p, rat, pi_part, D, past,
                                                          negative):
    # (1 + uT)^m keeps a tail for m < 0 and for m > D; checked against the
    # degree-4D factor, which is exact when m <= 4D
    u = PadicNumber(p, rat, pi_part)
    mexp = -past if negative else D + past
    short = _binomial_factor(p, u, mexp, D)
    long = _binomial_factor(p, u, mexp, 4 * D)
    assert_coeffs_equal(short, long, D)
    assert_tail_bounds(short, long)


@settings(max_examples=40, deadline=None, database=None)
@given(p=st.sampled_from((2, 3, 5)),
       cusp=st.dictionaries(st.integers(-2, 3), st.integers(-2, 2), min_size=1, max_size=3),
       left_spine=st.integers(-2, 2), e=st.integers(1, 2), z=coeff_part.filter(bool),
       D=st.integers(1, 6))
def test_alpha_germ_tail_bounds_the_longer_expansion(p, cusp, left_spine, e, z, D):
    c = Current.windowed(cusp, left_spine)
    q, z = PadicNumber(p, Fraction(p) ** e), PadicNumber(p, z)
    try:
        short = alpha_germ(c, q, z, degree=D)
    except PoleCollisionError:
        assume(False)
    long = alpha_germ(c, q, z, degree=4 * D)
    assert_coeffs_equal(short, long, D)
    if short.tail is not None:
        assert_tail_bounds(short, long)


def test_binomial_and_germ_tails_are_attained():
    # C(-1, k) = (-1)^k is a unit: v of the k-th coefficient of (1 + uT)^-1
    # is k v(u) exactly, the tail's claim; a tail offset above 0 is false
    D = 3
    for p, u in ((2, Fraction(1, 2)), (3, Fraction(3)), (5, Fraction(7, 5))):
        u = PadicNumber(p, u)
        short = _binomial_factor(p, u, -1, D)
        long = _binomial_factor(p, u, -1, 4 * D)
        assert assert_tail_bounds(short, long) == list(range(D + 1, 4 * D + 1))
    # alpha(c) = x^-1 (x - 1)^-1 at z = 5, p = 3: the germ is
    # (1 + T/5)^-1 (1 + T/4)^-1, whose even-degree coefficients are units,
    # as low as its tail TailBound(0, 0) allows
    c, q, z = Current.windowed({0: -1}), PadicNumber(3, 3), PadicNumber(3, 5)
    short, long = alpha_germ(c, q, z, degree=D), alpha_germ(c, q, z, degree=4 * D)
    assert short.tail == TailBound(0, 0)
    assert assert_tail_bounds(short, long) == list(range(D + 1, 4 * D + 1, 2))


# op name -> (the operation on degree-D inputs, its exact value on the
# degree-4D polynomials)
TAIL_OPS = {
    "scalar_mul": lambda f, g, c, D: (truncated(f, D).scalar_mul(c), f.scalar_mul(c)),
    "mul": lambda f, g, c, D: (truncated(f, D).mul(truncated(g, D)), f.mul(g)),
    "rescale": lambda f, g, c, D: (truncated(f, D).rescale(c), f.rescale(c)),
}


@settings(max_examples=80, deadline=None, database=None)
@given(data=unit_series(degrees=st.integers(1, 6).map(lambda D: 4 * D), tailed=False),
       order=st.integers(0, 2), rat=coeff_part.filter(bool),
       pi_part=st.one_of(st.just(Fraction(0)), coeff_part), shift=st.integers(-2, 2),
       op_name=st.sampled_from(sorted(TAIL_OPS)))
# f = 1 + X + ... + X^4 meets its truncation's tail TailBound(0, 0) at every
# dropped degree, and so do f scaled or rescaled by c = 1: a larger offset
# or slope is false
@example(data=(2, BoundedSeries.build(2, [1] * 5)), order=0, rat=Fraction(1),
         pi_part=Fraction(0), shift=0, op_name="scalar_mul")
@example(data=(2, BoundedSeries.build(2, [1] * 5)), order=0, rat=Fraction(1),
         pi_part=Fraction(0), shift=0, op_name="rescale")
def test_tails_of_ring_operations_bound_the_longer_expansion(
        data, order, rat, pi_part, shift, op_name):
    # Same oracle as for the powers: the degree-D tail must bound every
    # explicit coefficient of the exact result beyond the explicit degree.
    p, f = data
    D = f.degree // 4
    # a second factor of order 0..2: f reversed, shifted by X^order
    g = BoundedSeries.build(p, [0] * order + list(reversed(f.coeffs)))
    c = PadicNumber(p, rat * Fraction(p) ** shift, pi_part)
    short, long = TAIL_OPS[op_name](f, g, c, D)
    assert_coeffs_equal(short, long, short.degree)
    for k in range(short.degree + 1, long.degree + 1):
        coeff = long.coeffs[k]
        if not coeff.is_exact_zero:
            assert short.tail is not None, k
            assert coeff.exact_valuation >= short.tail.at(k), (k, short.tail)


# ------------------------------------------------ root tails and minorants


# steep negative slopes and offsets up to 8 let the tail slope bind the
# root tail (beta >= M)
tails = st.one_of(st.none(), st.builds(
    TailBound, st.fractions(-6, 4, max_denominator=3), st.fractions(-3, 8, max_denominator=2)))


def constraint_points(f):
    """Every certified constraint point of f, tail point included."""
    points = f.explicit_points()
    if f.tail is not None:
        points.append((f.degree + 1, f.tail.at(f.degree + 1)))
    return points


@settings(max_examples=150, deadline=None, database=None)
@given(data=unit_series(tailed=False), tail=tails, m=st.integers(1, 3))
# u's tail slope -1 lies below the tangent slope -1/2 from (0, 3/2)
@example(data=(3, BoundedSeries.build(3, [1, 3])), tail=TailBound(-1, 8), m=1)
def test_root_tail_matches_the_all_pairs_oracle(data, tail, m):
    p, f = data
    f = BoundedSeries(p, f.coeffs, tail)
    u = BoundedSeries(p, (PadicNumber.zero(p),) + f.coeffs[1:], tail)
    if u.is_zero():
        assert series_p_power_root(f, m).tail is None
        return
    if all(c.is_exact_zero for c in u.coeffs):
        # only the tail carries terms: the order of f - 1 is not certified
        with pytest.raises(PrecisionExhaustedError):
            series_p_power_root(f, m)
        with pytest.raises(PrecisionExhaustedError):
            RamifiedGerm(f)
        return
    assert _root_tail(f, m) == root_tail_oracle(u, u.ord(), m, p)
    root = series_p_power_root(f, m)
    assert splitting_logradius_numeric(RamifiedGerm(f), m) == convergence_logradius(root)
    for j, v in root.explicit_points():
        if j >= 1:
            assert v >= root.tail.at(j), (j, root.tail)


@settings(max_examples=100, deadline=None, database=None)
@given(data=unit_series(tailed=False), tail=tails)
def test_germ_points_give_the_root_tail_at_every_level(data, tail):
    # the germ reads the points of f - 1 once; every level must agree with
    # the certificate computed from the series and, for small levels, with
    # the radius of the expanded root
    p, f = data
    f = BoundedSeries(p, f.coeffs, tail)
    assume(any(not c.is_exact_zero for c in f.coeffs[1:]))
    germ = RamifiedGerm(f)
    for n in range(1, 21):
        assert splitting_logradius_numeric(germ, n) == -_root_tail(f, n).alpha, n
    for n in (1, 2):
        root = series_p_power_root(f, n)
        assert splitting_logradius_numeric(germ, n) == convergence_logradius(root), n


@settings(max_examples=100, deadline=None, database=None)
@given(data=unit_series(tailed=False), tail=tails,
       t=st.fractions(-4, 6, max_denominator=6), at_tail=st.booleans())
def test_least_root_level_is_the_first_level_of_the_walk(data, tail, t, at_tail):
    # the inverse of the level's log-radius, against the levels walked one
    # at a time; at_tail puts t on -(tail slope of f - 1), which the tail
    # alone reaches at every level
    p, f = data
    f = BoundedSeries(p, f.coeffs, tail)
    assume(any(not c.is_exact_zero for c in f.coeffs[1:]))
    points, alpha_u = _unit_points(f)
    if at_tail and tail is not None:
        t = -alpha_u
    m, x = _least_root_level(points, alpha_u, p, t)
    assert x == min(t * j + w for j, w in constraint_points(f) if j) - Fraction(1, p - 1)
    germ = RamifiedGerm(f)
    assert m == next(k for k in itertools.count(1)
                     if splitting_logradius_numeric(germ, k) >= t)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 2), (5, 3)])
def test_root_tail_capped_by_a_strong_input_tail(p, m):
    # f = 1 + p^6 X + O(p^6 X^2): every crossing (w - M)/j exceeds the tail
    # slope 0, so the root tail keeps slope 0 with offset 6 - M + 1/(p-1)
    f = BoundedSeries.build(p, [1, p ** 6], TailBound(0, 6))
    u = BoundedSeries.build(p, [0, p ** 6], TailBound(0, 6))
    want = TailBound(0, 6 - m)
    assert _root_tail(f, m) == root_tail_oracle(u, 1, m, p) == want
    assert series_p_power_root(f, m).tail == want
    assert splitting_logradius_numeric(RamifiedGerm(f), m) == 0


def test_minorant_of_the_zero_series_raises():
    with pytest.raises(ValueError, match="^zero series has no affine minorant$"):
        BoundedSeries.build(3, [0, 0]).minorant_at(0)


@settings(max_examples=150, deadline=None, database=None)
@given(data=unit_series(tailed=False), tail=tails,
       a=st.fractions(-4, 4, max_denominator=6))
def test_minorant_and_slope_check(data, tail, a):
    p, f = data
    f = BoundedSeries(p, f.coeffs, tail)
    points = constraint_points(f)
    # minorant_at against the minimum over all points
    if tail is not None and a > tail.alpha:
        with pytest.raises(ValueError):
            f.minorant_at(a)
    else:
        assert f.minorant_at(a) == min(w - a * j for j, w in points)
    # the slope check names the first explicit coefficient below the line
    if tail is not None:
        below = [(j, v) for j, v in f.explicit_points() if j >= 1 and v < tail.at(j)]
        if below:
            j, v = below[0]
            with pytest.raises(UndecidableSlopeError, match=f"coefficient {j} has"):
                convergence_logradius(f)
        else:
            assert convergence_logradius(f) == -tail.alpha


# ------------------------------------------------------------ input shapes


def _outcome(shape, value, kind, size):
    try:
        return "returns", id(shape(value, kind, "the value", size))
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def test_json_shape_matches_the_per_call_oracle():
    # every single kind and every pair, which covers each kind the package
    # passes; values of every JSON type, a bool, null and both float readings
    kinds = list(JSON_KINDS) + [f"{a} or {b}" for a, b in
                                itertools.permutations(JSON_KINDS, 2)]
    values = [{}, {"a": 1}, [], [1, 2], ["a", "b", "c", "d"], "", "ab", 0, 7, -1,
              10 ** 30, True, False, None, 1.5, Decimal("0.1"), _JSONDecimal("1.5"),
              [_JSONDecimal("2.5"), 1]]
    for kind, value, size in itertools.product(kinds, values, (None, 2, 4)):
        assert _outcome(json_shape, value, kind, size) == \
            _outcome(json_shape_oracle, value, kind, size), (kind, value, size)


def test_json_shape_shows_a_json_decimal_as_written():
    with pytest.raises(ValueError, match=r"^x must be a JSON integer, not \[1\.5, 1E\+5\]$"):
        json_shape([_JSONDecimal("1.5"), _JSONDecimal("1e5")], "integer", "x")


@pytest.mark.parametrize("text, value", [("0.1", Fraction(1, 10)), ("-2.50", Fraction(-5, 2)),
                                         ("1e3", Fraction(1000)), ("1E-3", Fraction(1, 1000)),
                                         ("1e4300", Fraction(10 ** 4300)),
                                         ("1e-4300", Fraction(1, 10 ** 4300))])
def test_parse_fraction_reads_a_decimal_exactly(text, value):
    assert parse_fraction(Decimal(text)) == value
    assert parse_fraction(_JSONDecimal(text)) == value


@pytest.mark.parametrize("text", ["1e4301", "1e-4301", "25e999999999"])
def test_parse_fraction_refuses_a_decimal_exponent_past_the_digit_limit(text):
    with pytest.raises(ValueError, match=r"^decimal exponent beyond \+-4300: "):
        parse_fraction(_JSONDecimal(text))


@pytest.mark.parametrize("text", ["NaN", "Infinity"])
def test_parse_fraction_refuses_a_decimal_that_is_not_finite(text):
    with pytest.raises(ValueError, match=f"^not a rational number: {text}$"):
        parse_fraction(_JSONDecimal(text))


@pytest.mark.parametrize("value", [True, False])
def test_parse_fraction_refuses_a_bool(value):
    with pytest.raises(ValueError, match=f"^not a rational number: {value}$"):
        parse_fraction(value)
