from fractions import Fraction

import pytest

from nonarch import (BoundedSeries, NEG_INF, PadicNumber, RamifiedGerm,
                     artin_schreier_certificate, dlog_ord, ramification_index,
                     splitting_logradius_exact, splitting_logradius_numeric)
from nonarch.errors import IndeterminateGermError

from helpers import dlog_coeffs


def S(p, *coeffs):
    return BoundedSeries.build(p, list(coeffs))


def test_ramification_index_examples():
    assert ramification_index(S(3, 1, 0, 1)) == 2           # 1 + X^2
    assert ramification_index(S(3, 1, 3, 0, 1)) == 1        # 1 + pX + X^3
    with pytest.raises(IndeterminateGermError):
        ramification_index(S(3, 1))


def test_ramification_matches_dlog_ord():
    # e_0(f) = ord_0(df/f) + 1, cross-checked by actual series division
    f = S(5, 1, 0, 1, 4)  # 1 + X^2 + 4X^3
    assert ramification_index(f) == dlog_ord(f) + 1 == 2
    # oracle: df/f = (2X + 12X^2) / (1 + X^2 + 4X^3) by exact long division
    quot = dlog_coeffs(f, 3)
    assert quot[:2] == [0, 2] and dlog_ord(f) == 1


def test_dlog_ord_logarithmic_pole():
    # f = x about 0: df/f = dx/x
    assert dlog_ord(S(3, 0, 1)) == -1


def test_dlog_ord_series_division_example():
    # f = 1 + X^2: df/f = 2X/(1+X^2), order 1
    f = S(3, 1, 0, 1)
    assert dlog_ord(f) == 1
    assert dlog_coeffs(f, 2) == [0, 2, 0]


def test_dlog_ord_with_polynomial_shift():
    # f = 1 + (x-2)^2 expanded about 0 is x^2 - 4x + 5; about z = 2 it is a unit germ
    p = 5
    f = S(p, 5, -4, 1)
    z = PadicNumber.from_rational(p, 2)
    assert dlog_ord(f, shift=z) == 1


def test_splitting_exact_examples():
    assert splitting_logradius_exact(2, 4, 3) == Fraction(9, 4)
    assert splitting_logradius_exact(1, 1, 2) == 2
    for N in (1, 2, 3, 4):
        for n in range(1, 5):
            d = splitting_logradius_exact(N, n + 1, 5) - splitting_logradius_exact(N, n, 5)
            assert d == Fraction(1, N)


def test_splitting_numeric_model_case():
    germ = RamifiedGerm(S(3, 1, 0, 1))  # 1 + X^2
    assert splitting_logradius_numeric(germ, 3) == Fraction(7, 4)
    assert splitting_logradius_numeric(germ, 3) == splitting_logradius_exact(2, 3, 3)


def test_splitting_numeric_level_zero_is_trivial():
    germ = RamifiedGerm(S(3, 1, 1))  # 1 + X
    assert splitting_logradius_numeric(germ, 0) is NEG_INF


def test_splitting_numeric_rescaled_germ():
    # 1 + X^2 composed with X -> pX: substitution shifts the certified
    # Newton slope by v(p), so the log-radius drops by 1: 7/4 - 1 = 3/4
    p = 3
    base = S(p, 1, 0, 1)
    germ = RamifiedGerm(base.rescale(PadicNumber.from_rational(p, p)))
    assert splitting_logradius_numeric(germ, 3) == Fraction(3, 4)


def test_asymptotic_law_for_general_germs():
    # rho_n - n/e0 becomes constant once the leading term dominates; the
    # third germ crosses over from the cubic to the quadratic regime first
    for coeffs in ([1, 0, 1, 1], [1, 0, 0, 2, 5], [1, 0, 9, 1]):
        germ = RamifiedGerm(S(3, *coeffs))
        e0 = germ.e0
        gaps = [splitting_logradius_numeric(germ, n) - Fraction(n, e0)
                for n in range(2, 12)]
        assert gaps[-3] == gaps[-2] == gaps[-1]


def test_germ_normalization():
    f = S(3, 2, 0, 2)  # normalized to 1 + X^2
    germ = RamifiedGerm(f)
    assert (germ.series.coeffs[0] - 1).is_exact_zero
    assert germ.e0 == 2


def test_artin_schreier_trivial_cases():
    assert artin_schreier_certificate(1, 3).genus == 0
    for p in (2, 3, 5):
        for m in range(0, 5):
            cert = artin_schreier_certificate(p ** m, p)
            assert cert.genus == 0 and not cert.forces_vertex


def test_artin_schreier_example():
    cert = artin_schreier_certificate(6, 5)
    assert (cert.m, cert.d, cert.genus) == (0, 6, 10)
    assert cert.forces_vertex
    assert cert.residue_equation == "T^5 - T = X^6"


def test_genus_flag_iff_not_p_power():
    for p in (2, 3, 5, 7):
        for e in range(1, 120):
            cert = artin_schreier_certificate(e, p)
            n = e
            while n % p == 0:
                n //= p
            assert cert.forces_vertex == (n != 1)
            assert cert.genus == (cert.d - 1) * (p - 1) // 2
