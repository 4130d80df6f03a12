import json
import random
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nonarch import (BallPoint, Current, FactoredFunction, INF, PadicNumber,
                     ThetaRequest, alpha_eval, alpha_germ, current_from_slopes,
                     current_x, delta_at_one, delta_eval, dlog_ord,
                     factored_alpha, ladder_ord, moebius, moebius_current,
                     poly_current_eval, theta_automorphy_constant, theta_product,
                     valuation)
from nonarch import currents as currents_module
from nonarch.cli import dispatch
from nonarch.currents import EvalResult, _tate_valuation, _theta_exponents
from nonarch.errors import (IndeterminateGermError, NonStabilizedError,
                            PoleCollisionError, PrecisionExhaustedError,
                            TailCertificateError)
from nonarch.series import _unit_points

from helpers import (current_json, delta_at_one_oracle, ladder_germ,
                     ladder_walk_oracle, seed_current_with_ord, seeded_window_current,
                     spine_at_oracle, spine_oracle,
                     theta_automorphy_constant_oracle,
                     theta_automorphy_ratio_oracle, theta_exponents_oracle,
                     theta_product_oracle)


def Q(p, r, prec=64):
    return PadicNumber.from_rational(p, Fraction(r), prec)


def automorphy_ratio(*args):
    """theta(q^l z) / theta(z) of the theta request ``args``."""
    return ThetaRequest(*args).automorphy_ratio()


def rebuild(c, **change):
    """The current the constructor builds from the fields of ``c``, with
    ``change`` applied to them; the constructor checks every one."""
    fields = {"window": c.window, "cusp": c.cusp, "base": c.base,
              "period": c.period, "modulus": c.modulus}
    return Current(**{**fields, **change})


# ------------------------------------------------------------ validation


def test_validate_x_current():
    c = current_x()
    assert rebuild(c) == c  # the fields rebuild it through the check


def test_validate_moebius_grid():
    for n in (1, 2, 3):
        for J in (0, 1, 4, 9):
            c = moebius_current(n, J)
            assert rebuild(c) == c


def test_from_json_rejects_a_broken_relation():
    data = current_json(Current.windowed({1: 2, 3: -1}, left_spine=1))
    data["spine"]["1"] += 1
    with pytest.raises(ValueError, match="^invalid current: defining relation fails$"):
        Current.from_json(data)


def test_validate_periodic_sum():
    c = Current.periodic(3, {0: 1, 1: -1, 2: 0}, spine0=2)
    assert rebuild(c) == c
    with pytest.raises(ValueError, match="^cusp values do not sum to 0 over a period$"):
        Current.periodic(3, {0: 1, 1: 1, 2: 1})
    for period in (0, -2):
        with pytest.raises(ValueError, match="^period must be positive$"):
            Current.periodic(period, {})


W = Current.windowed({1: 1, 3: -1}, left_spine=2)  # window [1, 3], spine 0..3
P = Current.periodic(2, {0: 1, 1: -1})             # window [0, 1], spine 0..1


@pytest.mark.parametrize("base, change, message", [
    (W, {"window": (3, 1)}, "the window needs jmin <= jmax"),
    (W, {"window": (1, 2)}, "cusp keys must lie in 1..2"),
    (W, {"cusp": W.cusp + ((5, 0),)}, "cusp keys must lie in 1..3"),
    (W, {"spine": W.spine[1:]}, "spine keys must be exactly 0..3"),
    (W, {"spine": W.spine + ((4, 2),)}, "spine keys must be exactly 0..3"),
    (W, {"spine": W.spine[1:] + ((4, 2),)}, "spine keys must be exactly 0..3"),
    (P, {"period": 0}, "period must be positive"),
    (P, {"period": -2}, "period must be positive"),
    (P, {"window": (1, 2)}, "a periodic current needs the window [0, 1]"),
    (P, {"cusp": P.cusp + ((2, 0),)}, "cusp keys must lie in 0..1"),
    (P, {"spine": ((0, 0), (1, -1), (-1, 0))}, "spine keys must be exactly 0..1"),
    (P, {"cusp": ((0, 1), (1, 1))}, "cusp values do not sum to 0 over a period"),
    (P, {"spine": ((0, 0), (1, 0))}, "defining relation fails"),
])
def test_constructor_enforces_the_current_rules(base, change, message):
    """Each row breaks one rule in a file, which from_json refuses; the
    constructor takes no spine, so it refuses the rows without one."""
    data = current_json(base)
    for key, value in change.items():
        if key in ("cusp", "spine"):
            value = {str(j): v for j, v in value}
        data[key] = list(value) if key == "window" else value
    with pytest.raises(ValueError) as exc:
        Current.from_json(data)
    assert str(exc.value) == f"invalid current: {message}"
    if "spine" not in change:
        with pytest.raises(ValueError) as exc:
            rebuild(base, **change)
        assert str(exc.value) == message


def test_relation_and_sum_hold_modulo_n_over_z_mod_n():
    # 3 = 0 and 2 + 1 = 0 in Z/3Z
    data = {"ring": "Z/3Z", "period": None, "window": [1, 1], "cusp": {"1": 3},
            "spine": {"0": 1, "1": 1}}
    c = Current.from_json(data)
    assert c.spine_at(5) == 4 and c.modulus == 3  # 1 + 3, that is 1 in Z/3Z
    assert Current.periodic(2, {0: 2, 1: 1}, modulus=3).period == 2
    with pytest.raises(ValueError, match="^invalid current: defining relation fails$"):
        Current.from_json(dict(data, ring="Z"))
    with pytest.raises(ValueError, match="^cusp values do not sum to 0 over a period$"):
        Current.periodic(2, {0: 2, 1: 1}, modulus=4)


@pytest.mark.parametrize("scalar, residue", [(Fraction(1, 2), 2), (Fraction(5, 2), 1),
                                             (Fraction(-1, 4), 2), (2, 2), (-1, 2)])
def test_scale_over_z_mod_n_multiplies_by_the_residue_of_a_rational(scalar, residue):
    # 1/2 is 2 in Z/3Z; scale truncated it to int(1/2) = 0
    c = Current.windowed({1: 1, 2: 2}, left_spine=1, modulus=3).scale(scalar)
    assert c == Current.windowed({1: residue, 2: 2 * residue % 3}, residue, 3)


def test_scale_over_z_mod_n_refuses_a_rational_without_a_residue():
    with pytest.raises(ValueError, match="not invertible"):
        Current.windowed({1: 1}, modulus=4).scale(Fraction(1, 2))


@st.composite
def _edited_current_files(draw):
    """The file of a valid current over Z or Z_p, sometimes retagged Z/nZ,
    with one edit: a period of -1 or 0, a shifted or reversed window, an
    added or dropped key, or one changed value."""
    if draw(st.booleans()):
        cusp = draw(st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), max_size=4))
        c = Current.windowed(cusp, left_spine=draw(st.integers(-3, 3)))
    else:
        period = draw(st.integers(1, 3))
        vals = draw(st.lists(st.integers(-3, 3), min_size=period - 1,
                             max_size=period - 1))
        c = Current.periodic(period, dict(enumerate(vals + [-sum(vals)])),
                             spine0=draw(st.integers(-3, 3)))
    data = current_json(c.scale(draw(st.sampled_from((1, Fraction(1, 2))))))
    modulus = draw(st.sampled_from((None, None, 2, 3)))
    if modulus:
        data["ring"] = f"Z/{modulus}Z"
    edit = draw(st.sampled_from(("period", "shift", "reverse", "add", "drop", "value")))
    jmin, jmax = data["window"]
    if edit == "period":
        data["period"] = draw(st.sampled_from((-1, 0)))
    elif edit == "shift":
        step = draw(st.sampled_from((-1, 1)))
        data["window"] = [jmin + step, jmax + step]
    elif edit == "reverse":
        data["window"] = [jmax, jmin] if jmin < jmax else [jmin + 1, jmin]
    else:
        part = data[draw(st.sampled_from(("cusp", "spine")))]
        if edit == "add":
            part[str(draw(st.integers(-6, 6)))] = draw(st.integers(-3, 3))
        elif part:
            key = draw(st.sampled_from(sorted(part)))
            if edit == "drop":
                del part[key]
            else:
                v, step = part[key], draw(st.sampled_from((-1, 1)))
                part[key] = v + step if isinstance(v, int) else str(Fraction(v) + step)
    return data


@settings(max_examples=300, deadline=None)
@given(_edited_current_files())
def test_edited_current_files_round_trip_or_raise(data):
    try:
        c = Current.from_json(data)
    except ValueError as exc:
        assert str(exc).startswith("invalid current: ")
    else:
        assert Current.from_json(current_json(c)) == c
        # the relation, read through the accessors, holds past the window too
        lo, hi = c.window if c.period is None else (-c.period, 2 * c.period)
        for j in range(lo - 3, hi + 2):
            d = c.spine_at(j + 1) - c.spine_at(j) - c.cusp_at(j + 1)
            assert d == 0 if c.modulus is None else d % c.modulus == 0
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "current.json"
        f.write_text(json.dumps(data))
        assert dispatch(["current", "--file", str(f)])[0] in (0, 2)
        for flag in ("--alpha-at", "--delta-at"):
            argv = ["current", "--file", str(f), "--p", "3", "--J", "2", flag, "5"]
            assert dispatch(argv)[0] in (0, 2, 4)


@st.composite
def _built_currents(draw):
    """Currents from windowed, periodic, scale and +, over Z, Z_p or Z/nZ;
    a Z/nZ current holds integers."""
    modulus = draw(st.sampled_from((None, None, 2, 3)))
    values = st.integers(-3, 3)
    if modulus is None:
        values = st.one_of(values, st.fractions(-3, 3, max_denominator=3))
    period = draw(st.sampled_from((None, None, 1, 2, 3)))

    def one():
        if period is None:
            cusp = draw(st.dictionaries(st.integers(-3, 3), values, max_size=4))
            return Current.windowed(cusp, draw(values), modulus)
        vals = draw(st.lists(values, min_size=period - 1, max_size=period - 1))
        return Current.periodic(period, dict(enumerate(vals + [-sum(vals)])),
                                draw(values), modulus)

    c = one()
    if draw(st.booleans()):
        c = c + one()
    if period is None and draw(st.booleans()):
        c = c + Current.periodic(1, {}, draw(values), modulus)  # flat
    if draw(st.booleans()):
        c = c.scale(draw(values))
    return c


@settings(max_examples=300, deadline=None)
@given(_built_currents())
def test_built_currents_round_trip_with_a_ring_that_matches_their_values(c):
    data = current_json(c)
    back = Current.from_json(data)
    assert back == c and back.ring == c.ring == data["ring"]
    # current_json writes an int as a JSON integer and anything else as a string
    values = [*data["cusp"].values(), *data["spine"].values()]
    assert (c.ring == "Zp") == any(isinstance(v, str) for v in values)


@settings(max_examples=300, deadline=None)
@given(_built_currents(), st.data())
def test_derived_spine_matches_the_oracle(c, data):
    # the same cusp pairs in any order build the same current
    shuffled = rebuild(c, cusp=tuple(data.draw(st.permutations(c.cusp))))
    assert shuffled == c and hash(shuffled) == hash(c)
    assert dict(shuffled.spine) == spine_oracle(c)
    lo, hi = c.window
    for j in range(lo - 4, hi + 5):
        d = shuffled.spine_at(j) - spine_at_oracle(c, j)
        assert d == 0 if c.modulus is None else d % c.modulus == 0


def test_cusp_pair_order_changes_neither_equality_nor_hash():
    given_order = Current((1, 3), ((3, -1), (1, 1)), 2)
    assert given_order == W and hash(given_order) == hash(W)
    assert given_order.cusp == ((1, 1), (3, -1))


def test_a_repeated_cusp_key_is_refused():
    # both pairs were kept in cusp and the last in the lookup table, so
    # support() gave 1 twice and alpha was ((5 - 3)/5)^4 = 16/625
    with pytest.raises(ValueError, match="^cusp key 1 is repeated$"):
        Current((1, 1), ((1, 1), (1, 2)), 0)
    with pytest.raises(ValueError, match="^cusp key 0 is repeated$"):
        Current((0, 1), ((0, 1), (1, -1), (0, 1)), 0, period=2)
    value = alpha_eval(Current((1, 1), ((1, 2),), 0), Q(3, 3), Q(3, 5)).value
    assert value.rat == Fraction(4, 25)


def test_a_wide_window_current_costs_its_cusps_not_its_window():
    tracemalloc.start()
    try:
        c = Current.windowed({0: 1, 10 ** 6: -1})
        d = c + c.scale(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6  # a table of every spine value took 85 MB
    assert d.cusp == ((0, 3), (10 ** 6, -3))
    assert [d.spine_at(j) for j in (-1, 0, 10 ** 6 - 1, 10 ** 6)] == [0, 3, 3, 0]


@pytest.mark.parametrize("cusp", [3, 0])
def test_z_mod_n_currents_are_not_evaluated(cusp):
    # cusp value 3 and 0 are one current over Z/3Z, and alpha or delta of
    # the two would differ
    c = Current.from_json({"ring": "Z/3Z", "period": None, "window": [1, 1],
                           "cusp": {"1": cusp}, "spine": {"0": 0, "1": cusp}})
    q = Q(5, 5)
    for z in (Q(5, 2), q):
        for what, call in (("alpha", lambda: alpha_eval(c, q, z)),
                           ("alpha", lambda: factored_alpha(c)),
                           ("alpha", lambda: alpha_germ(c, q, z)),
                           ("delta", lambda: delta_eval(c, q, z)),
                           ("the ladder", lambda: ladder_ord(c, q, z, 7))):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"{what} needs an integer current, not Z/nZ"


def test_moebius_values():
    assert [moebius(k) for k in range(1, 5)] == [1, -1, -1, 0]
    cur = moebius_current(1, 4)
    assert [cur.cusp_at(j) for j in (1, 2, 3, 4)] == [1, -1, -1, 0]
    assert all(cur.spine_at(j) == 0 for j in range(-5, 1))


def test_current_json_roundtrip():
    c = seeded_window_current(random.Random(4))
    assert Current.from_json(current_json(c)) == c
    c2 = Current.periodic(2, {0: 1, 1: -1}, spine0=3)
    assert Current.from_json(current_json(c2)) == c2


# ------------------------------------------------------------ alpha


def test_alpha_of_x_current_is_identity():
    q = Q(3, 3)
    for zr in (1, 5, Fraction(7, 2)):
        z = Q(3, zr)
        assert (alpha_eval(current_x(), q, z).value - z).is_exact_zero


def test_alpha_of_zero_current_is_one():
    q = Q(3, 3)
    res = alpha_eval(Current.windowed({}), q, Q(3, 11))
    assert (res.value - 1).is_exact_zero
    assert res.error_valuation is INF


def test_alpha_single_cusp_direct_oracle():
    q = Q(3, 3)
    c = Current.windowed({1: 1})
    z = Q(3, 1)
    got = alpha_eval(c, q, z).value
    # direct product: x^0 * ((x - q)/x)^1 at x = 1
    direct = (z - q) / z
    assert (got - direct).is_exact_zero
    assert (got - (1 - q.rat)).is_exact_zero


def test_alpha_homomorphism_seeded():
    rng = random.Random(21)
    q = Q(5, 5)
    z = Q(5, 7)
    for _ in range(15):
        a = seeded_window_current(rng)
        b = seeded_window_current(rng)
        lhs = alpha_eval(a + b, q, z).value
        rhs = alpha_eval(a, q, z).value * alpha_eval(b, q, z).value
        assert (lhs - rhs).is_exact_zero


def test_alpha_rejects_periodic_with_cusps():
    c = Current.periodic(2, {0: 1, 1: -1})
    with pytest.raises(ValueError):
        alpha_eval(c, Q(3, 3), Q(3, 2))


# ------------------------------------------------ slopes and round trips


def annulus_slopes_oracle(c, q, jlo, jhi):
    """Slopes of |alpha(c)| on each annulus, read off two seminorm values."""
    vq = q.exact_valuation
    zero = PadicNumber.zero(q.p)
    out = {}
    for J in range(jlo, jhi + 1):
        r1 = J * vq + vq / 3
        r2 = J * vq + 2 * vq / 3
        w1 = alpha_eval(c, q, BallPoint(zero, r1)).value
        w2 = alpha_eval(c, q, BallPoint(zero, r2)).value
        s = (w2 - w1) / (r2 - r1)
        assert s.denominator == 1
        out[J] = int(s)
    return out


def test_round_trip_direct_factored_form():
    rng = random.Random(31)
    q = Q(3, 3)
    for _ in range(25):
        c = seeded_window_current(rng)
        assert current_from_slopes(factored_alpha(c), q) == c


def test_round_trip_via_seminorm_slope_extraction():
    rng = random.Random(32)
    q = Q(3, 3)
    for _ in range(10):
        c = seeded_window_current(rng)
        jmin = min(list(c.support()) + [0]) - 1
        jmax = max(list(c.support()) + [0])
        slopes = annulus_slopes_oracle(c, q, jmin, jmax)
        m = slopes[jmax]
        zeros = tuple((J + 1, slopes[J] - slopes[J + 1])
                      for J in range(jmin, jmax))
        fd = FactoredFunction(x_exponent=m, zeros=zeros)
        assert current_from_slopes(fd, q) == c


def test_current_from_slopes_of_constant():
    # alpha kills scalars: a constant function maps to the zero current
    fd = FactoredFunction(x_exponent=0, zeros=())
    assert current_from_slopes(fd, Q(3, 3)) == Current.windowed({})


def test_current_from_slopes_of_x():
    fd = FactoredFunction(x_exponent=1, zeros=())
    c = current_from_slopes(fd, Q(3, 3))
    assert c.spine_at(0) == 1 and not c.support()
    z = Q(3, 10)
    assert (alpha_eval(c, Q(3, 3), z).value - z).is_exact_zero


def test_alpha_matches_factored_function_up_to_scalar():
    rng = random.Random(33)
    q = Q(5, 5)
    for _ in range(8):
        c = seeded_window_current(rng)
        fd = factored_alpha(c)
        z1, z2 = Q(5, 2), Q(5, 13)
        a1, a2 = alpha_eval(c, q, z1).value, alpha_eval(c, q, z2).value
        f1, f2 = fd.value(q, z1), fd.value(q, z2)
        if f1.is_exact_zero or f2.is_exact_zero:
            continue
        # alpha(c)/f is a nonzero constant
        assert (a1 * f2 - a2 * f1).is_exact_zero


# ------------------------------------------------------------ delta


def test_delta_of_x_current_at_one():
    q = Q(3, 3)
    res = delta_eval(current_x(), q, Q(3, 1))
    assert (res.value - 1).is_exact_zero


def test_delta_zero_current():
    res = delta_eval(Current.windowed({}), Q(3, 3), Q(3, 5))
    assert res.value.is_exact_zero


def test_delta_linearity():
    rng = random.Random(41)
    q = Q(3, 3)
    z = Q(3, 5)
    for _ in range(10):
        a = seeded_window_current(rng)
        b = seeded_window_current(rng)
        lhs = delta_eval(a + b, q, z).value
        rhs = delta_eval(a, q, z).value + delta_eval(b, q, z).value
        assert (lhs - rhs).is_exact_zero


def test_delta_pole_marker():
    q = Q(3, 3)
    c = Current.windowed({2: 1})
    res = delta_eval(c, q, q * q)
    assert res.is_pole and res.pole_ord == -1


def test_delta_of_x_current_is_one_over_z():
    q = Q(3, 3)
    assert (delta_eval(current_x(), q, Q(3, 2)).value - Fraction(1, 2)).is_exact_zero


def test_delta_periodic_truncation_certificate():
    # periodic current with cusps: compare the J-truncation against a much
    # deeper truncation; the difference must respect the certificate
    q = Q(3, 3)
    c = Current.periodic(2, {0: 1, 1: -1}, spine0=0)
    z = Q(3, 5)
    shallow = delta_eval(c, q, z, J=4)
    deep = delta_eval(c, q, z, J=40)
    assert (shallow.value - deep.value).exact_valuation >= shallow.error_valuation


# ----------------------------------------------------- Moebius-Lambert


def test_delta_at_one_equals_q_within_tail():
    q = Q(3, 3)
    res = delta_at_one(1, q, 10)
    assert res.error_valuation == 11
    assert (res.value - q).exact_valuation >= 11


def test_delta_at_one_list_example_n2():
    for qr in (2, 3, 5):
        q = Q(5, 5) if qr == 5 else Q(qr, qr)
        res = delta_at_one(2, q, 2)
        target = q ** 2
        assert (res.value - target).exact_valuation >= 3 * 2 * q.exact_valuation


def test_delta_at_one_empty_window():
    q = Q(3, 3)
    res = delta_at_one(2, q, 0)
    assert res.value.is_exact_zero
    assert res.error_valuation == 2 * q.exact_valuation


@st.composite
def _lambert_requests(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    unit = st.fractions(min_value=-20, max_value=20, max_denominator=7).filter(
        lambda u: u != 0 and u.numerator % p and u.denominator % p)
    prec = draw(st.sampled_from([5, 10, 64, 100]))
    # mostly Tate parameters; a unit, a non-integral or a zero q raises
    e = draw(st.sampled_from([1, 1, 2, 3, 0, -1]))
    q = PadicNumber.from_rational(p, draw(unit) * Fraction(p) ** e, prec)
    if draw(st.integers(0, 19)) == 0:
        q = PadicNumber.zero(p, prec)
    return draw(st.integers(0, 3)), q, draw(st.integers(-1, 10))


@settings(max_examples=300, deadline=None)
@given(_lambert_requests())
def test_delta_at_one_matches_the_lambert_sum(args):
    # value, prec, error valuation, or exception type and message
    assert _outcome(delta_at_one, *args) == _outcome(delta_at_one_oracle, *args)


def test_poly_current_eval_monomials():
    q = Q(3, 3)
    res = poly_current_eval([0, 1], q, 12)  # P = X
    assert (res.value - q).exact_valuation >= res.error_valuation
    res = poly_current_eval([1], q, 12)  # P = 1
    assert (res.value - 1).is_exact_zero
    res = poly_current_eval([0, -1, 1], q, 12)  # P = X^2 - X
    target = q ** 2 - q
    assert (res.value - target).exact_valuation >= res.error_valuation


def _count_moebius(monkeypatch):
    """The arguments of every call of ``currents.moebius`` from now on."""
    calls, mu = [], currents_module.moebius
    monkeypatch.setattr(currents_module, "moebius", lambda k: calls.append(k) or mu(k))
    return calls


@pytest.mark.parametrize("argv, scanned", [
    # mu(k) refuses k > 10^6 itself
    (["moebius-check", "--n", "1", "--J", "2000000"], []),
    (["moebius-check", "--n", "1", "--J", "1000001"], []),
    (["poly-eval", "--coeffs", "0,1", "--J", "2000000"], []),
    # the window [n, Jn] is wider than 10^6 (500003 is squarefree)
    (["moebius-check", "--n", "2", "--J", "500003"], [500003]),
    (["poly-eval", "--coeffs", "0,0,1", "--J", "500003"], [500003]),
    (["moebius-check", "--n", "500001", "--J", "3"], [3]),
])
def test_a_moebius_current_beyond_the_window_is_refused_first(monkeypatch, argv, scanned):
    """Only the values of mu that find the window's end are computed, none
    of the mu(1..J), before the request exits 2 with the window's text."""
    calls = _count_moebius(monkeypatch)
    code, payload = dispatch(argv + ["--p", "3", "--q", "p"])
    assert code == 2
    assert payload["error"] == {"kind": "ValueError",
                                "reason": "input beyond the supported window size"}
    assert calls == scanned


def test_poly_eval_computes_each_moebius_value_once(monkeypatch):
    # 97 is the largest squarefree number <= 100: finding it costs mu(100),
    # ..., mu(97), and the four Moebius currents share one table of
    # mu(1..100), where each computed its own (416 calls)
    calls = _count_moebius(monkeypatch)
    argv = ["poly-eval", "--coeffs", "0,1,1,1,1", "--J", "100", "--p", "3", "--q", "p"]
    assert dispatch(argv)[0] == 0
    assert calls == [100, 99, 98, 97] + list(range(1, 101))


def test_a_moebius_sum_beyond_the_window_is_refused_before_the_table(monkeypatch):
    # each of c_1 and c_500001 has a window of width <= 10^6 at J = 2, but
    # their sum spans [1, 1000002]; the request is refused before mu(1..2)
    calls = _count_moebius(monkeypatch)
    P = [0, 1] + [0] * 499999 + [1]
    with pytest.raises(ValueError, match="^input beyond the supported window size$"):
        poly_current_eval(P, Q(3, 3), 2)
    assert calls == [2]


@pytest.mark.parametrize("n, J, scanned", [
    (500000, 3, [3]),        # the window [n, 3n] is 10^6 wide
    (500000, 4, [4, 3]),     # mu(4) = 0, so the window is [n, 3n] too
    (2, 0, []),              # no cusp: the window [0, 0]
])
def test_a_moebius_current_at_the_window_edge_is_built(monkeypatch, n, J, scanned):
    # the cusps moebius_current hands to the constructor, before it drops the zeros
    monkeypatch.setattr(currents_module.Current, "windowed",
                        lambda cusp, left_spine=0: (cusp, left_spine))
    calls = _count_moebius(monkeypatch)
    cusp, left = moebius_current(n, J)
    assert left == 0 and cusp == {k * n: moebius(k) for k in range(1, J + 1)}
    assert calls == scanned + list(range(1, J + 1))


# ------------------------------------------------------------ theta


def test_theta_constant_function():
    q = Q(3, 3)
    fd = FactoredFunction(0, ())
    res = theta_product(fd, q, 1, Q(3, 5), Q(3, 2), 6)
    assert (res.value - 1).is_exact_zero
    assert res.error_valuation == INF
    assert automorphy_ratio(fd, q, 1, Q(3, 5), Q(3, 2), 6).error_valuation == INF


def test_theta_normalization_at_base_point():
    q = Q(3, 3)
    fd = FactoredFunction(0, ((0, 1), (1, -1)))
    z0 = Q(3, 2)
    res = theta_product(fd, q, 2, z0, z0, 6)
    assert (res.value - 1).is_exact_zero


def test_theta_automorphy_direct_comparison():
    q = Q(3, 3)
    fd = FactoredFunction(0, ((1, 1), (2, -1)))
    z0 = Q(3, 2)
    const = theta_automorphy_constant(fd, q)
    for l in (1, 2):
        for zr in (5, 7):
            z = Q(3, zr)
            th = theta_product(fd, q, l, z, z0, 8)
            sh = theta_product(fd, q, l, (q ** l) * z, z0, 8)
            ratio = sh.value / th.value
            rel = min(th.error_valuation - th.value.exact_valuation,
                      sh.error_valuation - sh.value.exact_valuation)
            bound = rel + ratio.exact_valuation
            # the ratio is the constant f(0)/f(inf), independent of l
            assert (ratio - const).exact_valuation >= bound


def test_theta_requires_degree_zero():
    q = Q(3, 3)
    msg = r"^theta products need x_exponent = 0 and total degree 0$"
    # x (x - q)^-1 has total degree 0 but a zero at 0
    for fd in (FactoredFunction(1, ()), FactoredFunction(0, ((1, 2),)),
               FactoredFunction(1, ((1, -1),))):
        with pytest.raises(ValueError, match=msg):
            theta_product(fd, q, 1, Q(3, 5), Q(3, 2), 4)
        with pytest.raises(ValueError, match=msg):
            theta_automorphy_constant(fd, q)


def test_theta_pole_collision():
    q = Q(3, 3)
    fd = FactoredFunction(0, ((1, 1), (2, -1)))
    with pytest.raises(PoleCollisionError):
        theta_product(fd, q, 1, q ** 4, Q(3, 2), 6)  # q^4 = q^1 * q^(3): translate hit


def test_theta_tail_not_certifiable():
    # deep grid zeros with a tiny window cannot certify the tail
    q = Q(3, 3)
    fd = FactoredFunction(0, ((6, 1), (-6, -1)))
    with pytest.raises(TailCertificateError):
        theta_product(fd, q, 1, Q(3, 5), Q(3, 2), 0)


def _ratio_from_two_products(fd, q, l, z, z0, M):
    """theta(q^l z) / theta(z) from two full products, with the relative
    error the worse of theirs."""
    th = theta_product(fd, q, l, z, z0, M)
    sh = theta_product(fd, q, l, (q ** l) * z, z0, M)
    ratio = sh.value / th.value
    rel = min(th.error_valuation - th.value.exact_valuation,
              sh.error_valuation - sh.value.exact_valuation)
    return EvalResult(ratio, rel if rel == INF else rel + ratio.exact_valuation)


def _outcome(fn, *args):
    try:
        res = fn(*args)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    v = res.value
    return ("value", v.p, v.rat, v.pi_part, v.prec, res.error_valuation)


@st.composite
def _theta_requests(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    precs = st.integers(5, 80)
    unit = st.fractions(min_value=-20, max_value=20, max_denominator=7).filter(
        lambda u: u != 0 and u.numerator % p and u.denominator % p)

    def point(ramified):
        a = draw(unit) * Fraction(p) ** draw(st.integers(-3, 4))
        b = draw(unit) * Fraction(p) ** draw(st.integers(-3, 4)) if ramified else 0
        return PadicNumber(p, a, b, draw(precs))

    # q = p^e u in Q_p, or the ramified q = pi u
    if draw(st.booleans()):
        q = PadicNumber(p, 0, draw(unit), draw(precs))
    else:
        e = draw(st.integers(1, 2))
        q = PadicNumber(p, draw(unit) * Fraction(p) ** e, 0, draw(precs))
    zeros = []
    for _ in range(draw(st.integers(0, 2))):
        ja, jb = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2, unique=True))
        k = draw(st.integers(1, 2))
        zeros += [(ja, k), (jb, -k)]
    fd = FactoredFunction(0, tuple(zeros))
    l = draw(st.integers(1, 3))
    # z on a grid point q^t, which may meet a zero/pole of a translate of f,
    # or on a Gamma'-translate q^(j + ls) of a zero/pole
    where = draw(st.integers(0, 3))
    if where == 0:
        z = q ** draw(st.integers(-3, 3))
    elif where == 1 and zeros:
        z = q ** (draw(st.sampled_from(zeros))[0] + l * draw(st.integers(-2, 2)))
    else:
        z = point(draw(st.booleans()))
    z0 = point(draw(st.booleans()))
    return fd, q, l, z, z0, draw(st.integers(0, 20))


@settings(max_examples=150, deadline=None)
@given(_theta_requests())
def test_telescoped_automorphy_ratio_matches_two_products(args):
    # value, prec, error valuation, or exception type and message
    assert _outcome(automorphy_ratio, *args) == \
        _outcome(_ratio_from_two_products, *args)


@settings(max_examples=300, deadline=None)
@given(_theta_requests())
def test_telescoped_product_matches_the_untelescoped_loop(args):
    # value, prec, error valuation, or exception type and message
    assert _outcome(theta_product, *args) == _outcome(theta_product_oracle, *args)


@settings(max_examples=300, deadline=None)
@given(_theta_requests())
def test_automorphy_constant_is_f_at_zero(args):
    fd, q = args[:2]
    got = theta_automorphy_constant(fd, q)
    want = theta_automorphy_constant_oracle(fd, q)
    assert (got.rat, got.pi_part, got.prec) == (want.rat, want.pi_part, want.prec)


def test_telescoped_product_matches_the_loop_at_large_M():
    # at l = 1 only R(-2002) and R(1999) survive of the loop's 4 * 4001 factors
    args = (FactoredFunction(0, ((1, 1), (2, -1))), Q(3, 3), 1, Q(3, 5), Q(3, 2), 2000)
    assert _outcome(theta_product, *args) == _outcome(theta_product_oracle, *args)


def test_automorphy_ratio_reports_a_failing_shifted_bound():
    # z's own tail certifies (bound 1); at q z the bound drops to 0
    q = Q(3, 3)
    fd = FactoredFunction(0, ((0, 1), (1, -1)))
    z, z0 = Q(3, 15), Q(3, 2)
    assert theta_product(fd, q, 1, z, z0, 1).error_valuation is not INF
    for fn in (automorphy_ratio, _ratio_from_two_products,
               theta_automorphy_ratio_oracle):
        with pytest.raises(TailCertificateError,
                           match=r"^truncation M=1 cannot certify the tail \(bound 0\)$"):
            fn(fd, q, 1, z, z0, 1)


def _product_then_ratio(product, ratio, *args):
    """The outcome of the product, then of the automorphy ratio if the
    product succeeded."""
    first = _outcome(product, *args)
    return (first,) if first[0] == "raised" else (first, _outcome(ratio, *args))


def _as_cli_builds_it(args):
    """A theta request as ``cli`` builds it: one ``ThetaRequest``, whose
    error is the outcome if it raises, then its product and its ratio."""
    try:
        req = ThetaRequest(*args)
    except Exception as exc:  # compared by type and message
        return (("raised", type(exc), str(exc)),)
    return _product_then_ratio(ThetaRequest.product, ThetaRequest.automorphy_ratio, req)


@settings(max_examples=150, deadline=None)
@given(_theta_requests())
def test_one_checked_request_matches_three_checks(args):
    # the product and the ratio read one checked request; the oracles check
    # z for the product, then z and q^l z again for the ratio
    assert _as_cli_builds_it(args) == \
        _product_then_ratio(theta_product_oracle, theta_automorphy_ratio_oracle, *args)


@pytest.mark.parametrize("i, other", [
    (0, FactoredFunction(0, ((1, 2),))), (1, Q(3, 5)), (2, 0), (3, Q(3, 27)),
    (4, Q(3, 9)), (5, 0)])
def test_a_request_differing_in_one_argument_is_checked_afresh(i, other):
    # each variant fails a check that the base request passes
    base = (FactoredFunction(0, ((1, 1), (2, -1))), Q(3, 3), 1, Q(3, 5), Q(3, 2), 8)
    args = base[:i] + (other,) + base[i + 1:]
    for fn, oracle in ((theta_product, theta_product_oracle),
                       (automorphy_ratio, theta_automorphy_ratio_oracle)):
        theta_product(*base)
        got = _outcome(fn, *args)
        assert got == _outcome(oracle, *args) and got[0] == "raised"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 50),
       st.lists(st.tuples(st.integers(-8, 8), st.integers(-3, 3)), max_size=5))
def test_theta_exponents_match_the_dict_of_every_m(l, M, zeros):
    assert _theta_exponents(zeros, l, M) == theta_exponents_oracle(zeros, l, M)


# ------------------------------------------------------------ ladder


@pytest.mark.parametrize("ord_target", [0, 1, 2])
def test_ladder_ord_matches_dlog(ord_target):
    q = Q(3, 3)
    z = Q(3, 5)
    c = seed_current_with_ord(q, z, ord_target, grid=(1, 2, 3))
    germ = alpha_germ(c, q, z)
    assert dlog_ord(germ) == ord_target
    res = ladder_ord(c, q, z, nmax=5)
    assert not res.pole
    assert res.value == ord_target + 1
    # inf-index grows affinely in n with slope e0 = ord + 1
    steps = [res.table[i + 1][1] - res.table[i][1] for i in range(len(res.table) - 1)]
    assert steps[-2:] == [ord_target + 1, ord_target + 1]


@settings(max_examples=200, deadline=None, database=None)
@given(p=st.sampled_from([2, 3, 5, 7]), qexp=st.integers(1, 2),
       cusp=st.dictionaries(st.integers(-2, 4), st.integers(-3, 3), max_size=4),
       spine=st.integers(-2, 2),
       j=st.one_of(st.integers(-2, 5), st.integers(60, 160)),
       k=st.integers(0, 10), u=st.integers(1, 50), nmax=st.integers(2, 12))
# z = 3 + 3^8: six rows do not settle; z = 3^150 with alpha = x - q: depth 1
# needs a level above 16 (nmax + 4)
@example(p=3, qexp=1, cusp={1: 1}, spine=0, j=1, k=7, u=1, nmax=6)
@example(p=3, qexp=1, cusp={1: 1}, spine=1, j=150, k=0, u=1, nmax=2)
def test_ladder_ord_matches_the_level_walk(p, qexp, cusp, spine, j, k, u, nmax):
    # z = p^j (1 + p^k u) is generic for k = 0, and near the p-power p^j,
    # a grid point when qexp divides j, for k >= 1
    c = Current.windowed(cusp, left_spine=spine)
    q = Q(p, p ** qexp)
    z = Q(p, Fraction(p) ** j * (1 + p ** k * u if k else u), prec=256)
    try:
        res = ladder_ord(c, q, z, nmax)
    except (IndeterminateGermError, NonStabilizedError) as err:
        res = err
    if getattr(res, "pole", False):
        return
    try:
        germ = ladder_germ(c, q, z)
    except IndeterminateGermError:  # alpha(c) is constant
        assert isinstance(res, IndeterminateGermError)
        return
    try:
        table = ladder_walk_oracle(germ, valuation(z), nmax)
    except NonStabilizedError as err:
        assert isinstance(res, NonStabilizedError) and str(res) == str(err)
        return
    diffs = [table[i + 1][1] - table[i][1] for i in range(nmax - 1)]
    if isinstance(res, NonStabilizedError):
        assert str(res) == (f"ladder differences not certified within "
                            f"nmax={nmax}: {diffs}; raise nmax")
        return
    assert list(res.table) == table
    # a certified value is ord + 1 of the germ, and the walk's last
    # differences show it
    assert res.value == dlog_ord(germ.series) + 1
    assert diffs[-min(3, nmax - 1):] == [res.value] * min(3, nmax - 1)


@settings(max_examples=200, deadline=None, database=None)
@given(p=st.sampled_from([2, 3, 5, 7]), qexp=st.integers(1, 2),
       cusp=st.dictionaries(st.integers(-2, 4), st.integers(-3, 3), max_size=4),
       spine=st.integers(-2, 2), j=st.integers(-2, 5), k=st.integers(0, 10),
       u=st.integers(1, 50))
def test_alpha_germ_points_lie_on_or_above_a_tail_line_with_offset_at_most_0(
        p, qexp, cusp, spine, j, k, u):
    """The two facts behind ladder_ord's settled rule: for the tail
    (alpha_u, beta) of an alpha germ, beta <= 0, and every point of f - 1
    lies on or above alpha_u*j + beta, the tail point at D + 1 on it.  So a
    row with t_n <= -alpha_u whose minimum e0 attains has x_n < 0."""
    c = Current.windowed(cusp, left_spine=spine)
    q = Q(p, p ** qexp)
    z = Q(p, Fraction(p) ** j * (1 + p ** k * u if k else u), prec=256)
    try:
        f = ladder_germ(c, q, z).series
    except (IndeterminateGermError, PoleCollisionError, PrecisionExhaustedError):
        return
    points, alpha_u = _unit_points(f)
    if f.tail is None:
        assert alpha_u == INF
        return
    assert alpha_u == f.tail.alpha and f.tail.beta <= 0
    assert all(w >= f.tail.at(i) for i, w in points)
    assert points[-1] == (f.degree + 1, f.tail.at(f.degree + 1))


@pytest.mark.parametrize("ord_target", [0, 1, 2])
@pytest.mark.parametrize("j, k", [(1, 1), (1, 4), (2, 3), (3, 2)])
def test_certified_ladder_near_a_grid_point_is_dlog_ord(ord_target, j, k):
    # z = q^j + q^(j+k) lies in the ball of radius p^-(j+k) about the grid
    # point q^j, so the first ladder rows may still see a zero or pole of
    # alpha there; a small nmax may be refused, but never answered wrongly
    q = Q(3, 3)
    z = q ** j + q ** (j + k)
    c = seed_current_with_ord(q, z, ord_target, grid=(1, 2, 3))
    want = dlog_ord(alpha_germ(c, q, z)) + 1
    assert want == ord_target + 1
    for nmax in range(2, k + 6):
        try:
            assert ladder_ord(c, q, z, nmax).value == want, nmax
        except NonStabilizedError as err:
            assert str(err).endswith("; raise nmax"), err
    assert ladder_ord(c, q, z, k + 6).value == want


def test_ladder_rows_near_a_zero_of_delta_are_not_settled_until_they_step_by_e0():
    # delta(c) vanishes at 5, so at z = 5 + 3^4 the germ's coefficient 1 has
    # valuation 5 and the first rows take their minimum at j = 2: they step
    # by 2 although e0 = ord + 1 = 1, and x_n > 0 alone would settle them
    q = Q(3, 3)
    c = seed_current_with_ord(q, Q(3, 5), 1, grid=(1, 2, 3))
    z = Q(3, 5 + 3 ** 4, prec=256)
    with pytest.raises(NonStabilizedError, match=r"nmax=4: \[2, 2, 1\]; raise nmax$"):
        ladder_ord(c, q, z, 4)
    res = ladder_ord(c, q, z, 8)
    assert res.value == 1 and [m for _, m in res.table] == [4, 6, 8, 9, 10, 11, 12, 13]


def test_ladder_ord_cusp_short_circuit():
    q = Q(3, 3)
    c = Current.windowed({2: 3})
    res = ladder_ord(c, q, q ** 2, nmax=4)
    assert res.pole and res.value == 0


def test_tate_curve_validation():
    # a Tate parameter needs 0 < v(q) < inf
    for q in (Q(3, 1), Q(3, Fraction(1, 3)), Q(3, 0)):
        with pytest.raises(ValueError, match="^Tate parameter needs 0 < v\\(q\\) < inf$"):
            _tate_valuation(q)
    assert _tate_valuation(Q(3, 9)) == 2
