"""alpha, delta, FactoredFunction.value and finite_product_eval evaluate one
factored form through ``berkovich.product_at``; the split-loop evaluators it
replaced (tests/helpers.py) are the oracles for values, precs and
exception types, apart from the deviations each test names."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nonarch import (INF, BallPoint, Current, FactoredFunction, PadicNumber,
                     alpha_eval, delta_eval, finite_product_eval, product_at)
from nonarch.currents import EvalResult
from nonarch.errors import NonarchError, PoleCollisionError, TailCertificateError

from helpers import (alpha_eval_oracle, delta_eval_oracle, factored_value_oracle,
                     finite_product_oracle)

PRECS = (10, 64, 100)


def Q(p, r, prec=64):
    return PadicNumber.from_rational(p, Fraction(r), prec)


def outcome(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except (NonarchError, ValueError, ZeroDivisionError) as exc:
        return type(exc)


def key(r):
    """What the comparisons read: rat, pi_part and prec of a p-adic value."""
    if isinstance(r, EvalResult):
        return key(r.value), r.error_valuation, r.pole_ord
    if isinstance(r, PadicNumber):
        return r.rat, r.pi_part, r.prec
    return r


@st.composite
def tate_parameters(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    unit = Fraction(draw(st.integers(1, 12).filter(lambda n: n % p)),
                    draw(st.integers(1, 4).filter(lambda n: n % p)))
    return Q(p, p ** draw(st.integers(1, 2)) * unit, draw(st.sampled_from(PRECS)))


@st.composite
def type1_points(draw, q):
    """Grid points q^j, zero, Q_p elements and ramified elements."""
    p, prec = q.p, draw(st.sampled_from(PRECS))
    kind = draw(st.sampled_from(("grid", "zero", "free", "ramified")))
    if kind == "grid":
        g = q ** draw(st.integers(-3, 3))
        return PadicNumber(p, g.rat, g.pi_part, prec)
    if kind == "zero":
        return PadicNumber.zero(p, prec)
    unit = Fraction(draw(st.integers(-12, 12).filter(lambda n: n % p)),
                    draw(st.integers(1, 4).filter(lambda n: n % p)))
    rat = unit * Fraction(p) ** draw(st.integers(-3, 4))
    pi = Fraction(draw(st.integers(1, 5))) if kind == "ramified" else 0
    return PadicNumber(p, rat, pi, prec)


@st.composite
def points(draw, q):
    z = draw(type1_points(q))
    if draw(st.booleans()):
        return z
    rho = draw(st.one_of(st.just(INF), st.fractions(-4, 8, max_denominator=2)))
    return BallPoint(z, rho)


@st.composite
def currents(draw, p):
    """Window currents, and periodic ones (with cusps or cusp-free), over Z,
    or over Z_p with a p-integral or a non-p-integral scale."""
    if draw(st.booleans()):
        cusp = draw(st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), max_size=4))
        c = Current.windowed(cusp, left_spine=draw(st.integers(-3, 3)))
    else:
        period = draw(st.integers(1, 3))
        vals = draw(st.lists(st.integers(-3, 3), min_size=period - 1,
                             max_size=period - 1))
        c = Current.periodic(period, dict(enumerate(vals + [-sum(vals)])),
                             spine0=draw(st.integers(-3, 3)))
    return c.scale(draw(st.sampled_from((1, 1, 1, Fraction(1, 2), Fraction(1, p)))))


def type1_limit(at_rho):
    """What a type-1 ball b_{c, INF} reads under the rule, from an oracle
    at b_{c, rho}: rho past every finite v(c - a) leaves the factors with
    c = a, whose total exponent is the slope in rho: a pole (slope < 0)
    raises, a zero (slope > 0) gives INF, and without either the value
    stays put."""
    lo, hi = at_rho(1000), at_rho(1001)
    return PoleCollisionError if hi < lo else INF if hi > lo else lo


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_alpha_eval_matches_the_split_loop_oracle(data):
    q = data.draw(tate_parameters())
    c = data.draw(currents(q.p))
    z = data.draw(points(q))
    J = data.draw(st.one_of(st.none(), st.integers(0, 4)))
    got, want = outcome(alpha_eval, c, q, z, J), outcome(alpha_eval_oracle, c, q, z, J)
    if isinstance(z, BallPoint) and z.logradius == INF and isinstance(want, EvalResult):
        # the oracle's 0 * INF and INF - INF there read nan
        want = type1_limit(
            lambda rho: alpha_eval_oracle(c, q, BallPoint(z.center, rho), J).value)
        assert (got if got is PoleCollisionError else got.value) == want
    elif isinstance(want, EvalResult) and isinstance(z, PadicNumber):
        # the value carries q's prec also where c has no cusp in its support
        assert key(got)[0][:2] == key(want)[0][:2]
        assert got.value.prec == min(z.prec, q.prec)
        if c.support():
            assert got.value.prec == want.value.prec
    else:
        assert key(got) == key(want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_delta_eval_matches_the_term_by_term_oracle(data):
    q = data.draw(tate_parameters())
    c = data.draw(currents(q.p))
    z = data.draw(type1_points(q))
    J = data.draw(st.one_of(st.none(), st.integers(0, 6)))
    assert key(outcome(delta_eval, c, q, z, J)) == \
        key(outcome(delta_eval_oracle, c, q, z, J))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_factored_function_value_matches_its_oracle(data):
    q = data.draw(tate_parameters())
    zeros = data.draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
                               max_size=3))
    fd = FactoredFunction(data.draw(st.integers(-2, 2)), tuple(zeros))
    w = data.draw(type1_points(q))
    got, want = outcome(fd.value, q, w), outcome(factored_value_oracle, fd, q, w)
    if want is ZeroDivisionError:
        # w = 0 with m < 0: a pole of f like any other
        assert w.is_exact_zero and fd.x_exponent < 0 and got is PoleCollisionError
    elif isinstance(want, PadicNumber):
        # every factor, x^m included, carries q's prec, and so does a zero
        # (the oracle's x^m is w^m, at w's prec alone)
        assert (got.rat, got.pi_part) == (want.rat, want.pi_part)
        assert got.prec == (min(w.prec, q.prec) if fd.factors(q) else w.prec)
        if fd.zeros:
            assert got.prec == want.prec
    else:
        assert key(got) == key(want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_finite_product_eval_matches_its_oracle(data):
    q = data.draw(tate_parameters())
    poles = data.draw(st.lists(type1_points(q), max_size=3, unique=True))
    exponents = data.draw(st.lists(st.integers(-2, 2), min_size=len(poles),
                                   max_size=len(poles)))
    x = data.draw(type1_points(q).filter(lambda x: x not in poles))
    z = data.draw(points(q))
    got = outcome(finite_product_eval, poles, exponents, x, z)
    if not isinstance(z, BallPoint):
        want = outcome(finite_product_oracle, poles, exponents, x, z)
        if isinstance(want, type):
            assert got is want
        else:
            # a factor of exponent 0 adds no prec, where the oracle's
            # (num / (x - i))^0 carries i's
            assert (got.rat, got.pi_part) == (want.rat, want.pi_part)
            assert got.prec == min([z.prec, x.prec] +
                                   [i.prec for i, a in zip(poles, exponents) if a])
        return

    # the normalisation reads exact valuations, not prec-capped ones: at
    # prec 10^4 the oracle's valuations are exact; factors of exponent 0,
    # where the oracle reads 0 * INF at a type-1 ball, are skipped
    def exact(a):
        return PadicNumber(a.p, a.rat, a.pi_part, 10 ** 4)

    live = [(exact(i), a) for i, a in zip(poles, exponents) if a]

    def want_at(b):
        return finite_product_oracle([i for i, _ in live], [a for _, a in live],
                                     exact(x), b)

    if z.logradius == INF:
        assert got == type1_limit(lambda rho: want_at(BallPoint(z.center, rho)))
    else:
        assert got == want_at(z)


# ---------------------------------------------------------- properties


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ball_above_every_factor_reads_the_type1_valuation(data):
    """At b_{z, rho} with rho above every v(z - a) the log-seminorm is the
    valuation of the type-1 value."""
    q = data.draw(tate_parameters())
    centers = data.draw(st.lists(type1_points(q), min_size=1, max_size=4))
    factors = [(a, data.draw(st.integers(-3, 3))) for a in centers]
    z = data.draw(type1_points(q).filter(lambda z: z not in centers))
    top = max((z - a).exact_valuation for a in centers)
    rho = top + data.draw(st.fractions(0, 3, max_denominator=2))
    value = product_at(factors, z)
    assert product_at(factors, BallPoint(z, rho)) == value.exact_valuation
    assert product_at(factors, BallPoint(z, INF)) == value.exact_valuation


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_alpha_ball_above_every_grid_point_reads_the_type1_valuation(data):
    q = data.draw(tate_parameters())
    c = data.draw(currents(q.p).filter(lambda c: c.is_window_supported and c.ring == "Z"))
    z = data.draw(type1_points(q).filter(lambda z: not z.is_exact_zero))
    value = outcome(alpha_eval, c, q, z)
    if value is PoleCollisionError:
        return
    top = max([z.exact_valuation] + [(z - q ** j).exact_valuation for j in c.support()])
    rho = top + data.draw(st.fractions(0, 3, max_denominator=2))
    assert alpha_eval(c, q, BallPoint(z, rho)).value == value.value.exact_valuation


def test_former_nan_cases_follow_the_type1_ball_rule():
    # alpha(c) = (x - q)/x: a pole at 0, a zero at q
    c = Current.windowed({1: 1})
    q = Q(3, 3)
    with pytest.raises(PoleCollisionError):
        alpha_eval(c, q, BallPoint(Q(3, 0), INF))
    assert alpha_eval(c, q, BallPoint(q, INF)).value == INF
    # an exponent 0 factor is skipped: the product is 1, of log-seminorm 0
    got = finite_product_eval([Q(3, 1)], [0], Q(3, 2), BallPoint(Q(3, 1), INF))
    assert got == 0


def test_ball_normalisation_reads_the_exact_valuation_of_x():
    # x - i = 3^12 at prec 10: the prec-capped valuation would be INF
    x = Q(3, 3 ** 12, prec=10)
    got = finite_product_eval([Q(3, 0, prec=10)], [1], x, BallPoint(Q(3, 0), 0))
    assert got == -12


def test_finite_product_x_on_a_zero_or_pole_raises():
    i = Q(5, 1)
    for a in (1, -1):
        with pytest.raises(PoleCollisionError):
            finite_product_eval([i], [a], i, Q(5, 3))
        with pytest.raises(PoleCollisionError):
            finite_product_eval([i], [a], i, BallPoint(Q(5, 3), 1))


def test_product_at_zero_carries_the_operands_prec():
    q = Q(3, 3, prec=20)
    w = Q(3, 3, prec=30)
    zero = FactoredFunction(0, ((1, 1), (2, -1))).value(q, w)
    assert zero.is_exact_zero and zero.prec == 20
    with pytest.raises(PoleCollisionError):
        FactoredFunction(-1, ((1, 1),)).value(q, Q(3, 0))


def test_alpha_pole_message_names_the_grid_index():
    c = Current.windowed({2: -1})
    with pytest.raises(PoleCollisionError, match=r"z collides with the pole q\^2"):
        alpha_eval(c, Q(3, 3), Q(3, 9))


@pytest.mark.parametrize("z, J", [(Q(3, 1), 0), (Q(3, 1, prec=10), 0),
                                  (Q(3, 27), 3), (Q(3, 27), 5), (Q(3, 1), 2)])
def test_truncated_delta_skips_zero_cusps(z, J):
    # c(e_0) = c(e_3) = 0: the truncation to |j| <= J must not invert z - q^j
    # at those grid points, nor let a zero term lower the prec
    c = Current.periodic(3, {0: 0, 1: 1, 2: -1})
    q = Q(3, 3)
    got = delta_eval(c, q, z, J)
    assert key(got) == key(delta_eval_oracle(c, q, z, J))
    assert got.value.prec == z.prec


@pytest.mark.parametrize("z", [Q(3, Fraction(2, 9)), Q(3, 18)])
def test_truncated_delta_refuses_a_z_not_separated_from_the_dropped_grid_points(z):
    # J = 1 drops the q^j with |j| >= 2, which lie on both sides of z: v(z)
    # must be strictly between -(J + 1) v(q) = -2 and (J + 1) v(q) = 2
    c = Current.periodic(3, {0: 0, 1: 1, 2: -1})
    for f in (delta_eval, delta_eval_oracle):
        assert outcome(f, c, Q(3, 3), z, 1) is TailCertificateError


@pytest.mark.parametrize("f", [alpha_eval, delta_eval])
@pytest.mark.parametrize("c", [Current.windowed({}), Current.windowed({1: 1}),
                               Current.periodic(2, {0: 1, 1: -1})])
def test_negative_J_is_a_usage_error(f, c):
    with pytest.raises(ValueError, match="J must be nonnegative"):
        f(c, Q(3, 3), Q(3, 5), -3)
