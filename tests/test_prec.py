"""One meaning for ``prec``: a value a request computes carries the least
prec of its operands, and no kernel falls back to ``DEFAULT_PREC``.

An AST guard keeps every constructor call inside the package explicit
about its prec; kernel tests record the prec of every PadicNumber built
during a call; and a recomputation oracle checks reported values against
the same request at a larger window and prec 400."""

import ast
import inspect
import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nonarch import (BoundedSeries, Current, FactoredFunction, PadicNumber,
                     PoleFamily, RamifiedGerm, alpha_germ, binom_fractional,
                     delta_at_one, moebius_orbit, order_of_combination,
                     padic_digit_string, poly_current_eval, series_p_power_root,
                     theta_product)
from nonarch.errors import NonarchError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "nonarch")

# dotted call name -> the position of its prec argument
PREC_CALLS = {
    name: list(inspect.signature(fn).parameters).index("prec")
    for name, fn in {
        "PadicNumber.zero": PadicNumber.zero,
        "PadicNumber.one": PadicNumber.one,
        "PadicNumber.from_rational": PadicNumber.from_rational,
        "PadicNumber.uniformizer": PadicNumber.uniformizer,
        "BoundedSeries.build": BoundedSeries.build,
        "binom_fractional": binom_fractional,
        "RamifiedGerm.model": RamifiedGerm.model,
    }.items()}


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def _sources():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, fh.read()


def test_no_constructor_call_in_the_package_omits_prec():
    omitted = []
    for name, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            called = _dotted(node.func) or ""
            for suffix, at in PREC_CALLS.items():
                if called == suffix or called.endswith("." + suffix):
                    if len(node.args) <= at and \
                            not any(k.arg == "prec" for k in node.keywords):
                        omitted.append(f"{name}:{node.lineno} {called}")
    assert omitted == []


def test_default_prec_is_named_only_by_padic_and_cli():
    assert [name for name, text in _sources() if "DEFAULT_PREC" in text] == \
        ["cli.py", "padic.py"]


# ---------------------------------------------------------------- kernels


@pytest.fixture
def built_precs(monkeypatch):
    """The prec of every PadicNumber built from here on."""
    precs = []
    init = PadicNumber.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        precs.append(self.prec)

    monkeypatch.setattr(PadicNumber, "__init__", recording)
    return precs


def Q(p, r, prec=100):
    return PadicNumber.from_rational(p, Fraction(r), prec)


def test_moebius_orbit_keeps_the_point_prec(built_precs):
    t = Q(5, Fraction(2, 3))
    orbit = moebius_orbit((1, 5, 0, 1), t, -3, 3)
    assert {z.prec for z in orbit} == set(built_precs) == {100}


def test_order_of_combination_keeps_the_family_prec(built_precs):
    fam = PoleFamily(tuple(Q(5, i) for i in (1, 2, 3, 4)), Q(5, 0))
    # 1/(0 - 1) - 2/(0 - 2) = 0; coefficient 1 is -1 + 2/4
    assert order_of_combination([1, -2, 0, 0], fam) == 1
    assert set(built_precs) == {100}


def test_alpha_germ_keeps_the_prec_of_q_and_z(built_precs):
    germ = alpha_germ(Current.windowed({1: 1, 2: -1}), Q(3, 3), Q(3, 5), degree=6)
    assert {c.prec for c in germ.coeffs} == set(built_precs) == {100}


def test_series_p_power_root_keeps_the_coefficient_prec(built_precs):
    f = BoundedSeries.build(3, [1, 3, Fraction(1, 3), 0, 9], None, 100)
    root = series_p_power_root(f, 2)
    assert root.degree == 4
    assert {c.prec for c in root.coeffs} == set(built_precs) == {100}


# ------------------------------------------------ recomputation oracle


def _agree_to(res, again, cutoff):
    """The reported value and the recomputed one print the same digits
    below ``cutoff``."""
    return padic_digit_string(res.value, cutoff) == \
        padic_digit_string(again.value, cutoff)


def _at_400(x):
    return PadicNumber(x.p, x.rat, x.pi_part, 400)


@st.composite
def _scalars(draw, p, prec, vmin, vmax):
    unit = draw(st.fractions(min_value=-20, max_value=20, max_denominator=7).filter(
        lambda u: u != 0 and u.numerator % p and u.denominator % p))
    v = draw(st.integers(vmin, vmax))
    return PadicNumber.from_rational(p, unit * Fraction(p) ** v, prec)


PRIMES, PRECS = st.sampled_from([2, 3, 5]), st.sampled_from([5, 10, 64, 100])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_theta_product_agrees_with_a_longer_product_at_prec_400(data):
    p, prec = data.draw(PRIMES), data.draw(PRECS)
    q = data.draw(_scalars(p, prec, 1, 2))
    z, z0 = (data.draw(_scalars(p, prec, -2, 3)) for _ in range(2))
    ja, jb = data.draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2, unique=True))
    fd = FactoredFunction(0, ((ja, 1), (jb, -1)))
    l, M = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 10))
    try:
        res = theta_product(fd, q, l, z, z0, M)
    except NonarchError:
        assume(False)
    again = theta_product(fd, _at_400(q), l, _at_400(z), _at_400(z0), M + 4)
    assert res.value.prec == prec
    assert _agree_to(res, again, min(res.error_valuation, prec))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_delta_at_one_agrees_with_a_longer_sum_at_prec_400(data):
    p, prec = data.draw(PRIMES), data.draw(PRECS)
    q = data.draw(_scalars(p, prec, 1, 2))
    n, J = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 12))
    res = delta_at_one(n, q, J)
    again = delta_at_one(n, _at_400(q), J + 6)
    assert res.value.prec == prec
    assert _agree_to(res, again, min(res.error_valuation, prec))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_poly_current_eval_agrees_with_a_longer_sum_at_prec_400(data):
    p, prec = data.draw(PRIMES), data.draw(PRECS)
    q = data.draw(_scalars(p, prec, 1, 2))
    P = data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    J = data.draw(st.integers(0, 10))
    res = poly_current_eval(P, q, J)
    again = poly_current_eval(P, _at_400(q), J + 6)
    assert res.value.prec == prec
    assert _agree_to(res, again, min(res.error_valuation, prec))


@pytest.mark.xfail(strict=True, reason="a report still claims O(p^error_valuation) "
                   "past prec; the prec cap (ROADMAP) is not in yet")
def test_a_theta_report_claims_no_digit_past_prec():
    # error_valuation 19 > prec 10: the digits stop at p^9 under O(p^19)
    fd = FactoredFunction(0, ((1, 1), (2, -1)))
    q, z, z0 = Q(3, 3, 10), Q(3, 5, 10), Q(3, 2, 10)
    res = theta_product(fd, q, 1, z, z0, 20)
    assert res.error_valuation > q.prec
    again = theta_product(fd, _at_400(q), 1, _at_400(z), _at_400(z0), 24)
    assert _agree_to(res, again, res.error_valuation)
