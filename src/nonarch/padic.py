"""Exact arithmetic in Q_p and its ramified quadratic extension Q_p(pi).

Conventions: the valuation is normalized so that v(p) = 1 and the norm so
that |x| = p^(-v(x)).  The uniformizer pi of the quadratic extension
satisfies pi^2 = p, hence v(pi) = 1/2; every representable valuation lies
in (1/2)Z.

Elements are stored exactly as x = rat + pi_part * pi with Fraction
components, so field arithmetic never loses digits.  The ``prec``
attribute is the absolute certification cap N: the value is treated as
known modulo p^N, anything with v(x) >= N is indistinguishable from zero
at that precision, and serialization truncates to N digits.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal
from fractions import Fraction

INF = float("inf")
NEG_INF = float("-inf")

DEFAULT_PREC = 64

_HALF = Fraction(1, 2)
_ZERO = Fraction(0)
_ONE = Fraction(1)


# The first 13 primes.  As Miller-Rabin bases they prove every n below
# _MR_PROOF_BOUND that passes them prime (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROOF_BOUND = 3317044064679887385961981


@functools.lru_cache(maxsize=128)
def is_prime(n: int) -> bool:
    """Whether n is prime, by the strong (Miller-Rabin) test to the bases
    ``_MR_BASES``.  A base that witnesses compositeness proves it at any
    size; passing every base proves primality only below
    ``_MR_PROOF_BOUND``, so a larger n that passes raises ValueError
    rather than claim it.  Memoized per n: ``PadicNumber`` asks on every
    construction."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROOF_BOUND:
        raise ValueError(f"p = {n} passes a probable-prime test but is too "
                         "large to be proved prime")
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def require_window(n: int) -> None:
    """Refuse a size above 10^6 before the work or memory it asks for."""
    if n > 10 ** 6:
        raise ValueError("input beyond the supported window size")


def vp_int(n: int, p: int):
    """p-adic valuation of an integer; INF for 0.  Raises ValueError for
    p < 2, where no valuation exists.

    Divides by p, p^2, p^4, ... while they divide n, then tries the same
    powers back down, so a valuation v costs O(log v) big-integer
    divisions; n prime to p costs one.
    """
    if p < 2:
        raise ValueError(f"p = {p} is not prime")
    if n == 0:
        return INF
    if n % p:
        return _ZERO
    powers = []
    q = p
    while True:
        n2, r = divmod(n, q)
        if r:
            break
        n = n2
        powers.append(q)
        q *= q
    v = (1 << len(powers)) - 1
    for i in range(len(powers) - 1, -1, -1):
        n2, r = divmod(n, powers[i])
        if not r:
            n = n2
            v += 1 << i
    return Fraction(v)


def vp_fraction(x, p: int):
    if type(x) is not Fraction:
        x = Fraction(x)
    if x == 0:
        return INF
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def vp_factorial(k: int, p: int) -> int:
    """v_p(k!) by Legendre's formula."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = 0
    q = p
    while q <= k:
        total += k // q
        q *= p
    return total


class PadicNumber:
    """Element of Q_p (pi_part = 0) or Q_p(pi), held exactly.

    ``val`` applies the precision cutoff mandated by the data model: it is
    +inf exactly when the element is zero at precision ``prec``.  The raw
    valuation of the stored representative is ``exact_valuation``.

    Instances are immutable; equality and hashing ignore ``prec``.  Every
    instance, arithmetic results included, is built by ``__init__``, which
    validates ``p`` and ``prec``.
    """

    __slots__ = ("p", "rat", "pi_part", "prec")

    def __init__(self, p: int, rat, pi_part=_ZERO, prec: int = DEFAULT_PREC):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if prec < 1:
            raise ValueError("precision must be >= 1")
        _set_p(self, p)
        _set_rat(self, rat if type(rat) is Fraction else Fraction(rat))
        _set_pi(self, pi_part if type(pi_part) is Fraction else Fraction(pi_part))
        _set_prec(self, prec)

    def __setattr__(self, name, value):
        raise AttributeError(f"PadicNumber is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PadicNumber is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not PadicNumber:
            return NotImplemented
        return (self.p == other.p and self.rat == other.rat
                and self.pi_part == other.pi_part)

    def __hash__(self):
        return hash((self.p, self.rat, self.pi_part))

    def __reduce__(self):
        return (PadicNumber, (self.p, self.rat, self.pi_part, self.prec))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, p: int, value, prec: int = DEFAULT_PREC) -> "PadicNumber":
        return cls(p, value, _ZERO, prec)

    @classmethod
    def zero(cls, p: int, prec: int = DEFAULT_PREC) -> "PadicNumber":
        return cls(p, _ZERO, _ZERO, prec)

    @classmethod
    def one(cls, p: int, prec: int = DEFAULT_PREC) -> "PadicNumber":
        return cls(p, _ONE, _ZERO, prec)

    @classmethod
    def uniformizer(cls, p: int, prec: int = DEFAULT_PREC) -> "PadicNumber":
        """pi with pi^2 = p."""
        return cls(p, _ZERO, _ONE, prec)

    # -- structure ----------------------------------------------------

    @property
    def exact_valuation(self):
        va = vp_fraction(self.rat, self.p)
        vb = vp_fraction(self.pi_part, self.p)
        # INF + 1/2 is INF too, but every Q_p element (vb = INF) passes here,
        # and the float/Fraction sum costs ~1.8 us against ~25 ns for this test
        if vb != INF:
            vb = vb + _HALF
        return min(va, vb)

    @property
    def val(self):
        v = self.exact_valuation
        return INF if v >= self.prec else v

    @property
    def is_exact_zero(self) -> bool:
        return self.rat == 0 and self.pi_part == 0

    @property
    def is_ramified(self) -> bool:
        return self.pi_part != 0

    @property
    def unit_digits(self) -> int:
        """Integer encoding of the unit part x / pi^(2 val).

        For elements of Q_p this is the usual unit modulo p^prec.  For
        ramified elements the unit A + B*pi is encoded by interleaving the
        base-p digits of A and B (digit c_k of pi^k maps to weight p^k).
        """
        v = self.exact_valuation
        if v == INF:
            return 0
        twov = 2 * v
        t, odd = divmod(int(twov), 2)
        pt = Fraction(self.p) ** t
        if odd == 0:
            a_unit = self.rat / pt
            b_unit = self.pi_part / pt
        else:
            a_unit = self.pi_part / pt
            b_unit = self.rat / (pt * self.p)
        a, b = (integer_lift_mod(u, self.p, self.prec) if u else 0
                for u in (a_unit, b_unit))
        return _interleave(a, b, self.p) if self.is_ramified else a

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "PadicNumber":
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber(self.p, Fraction(other), _ZERO, self.prec)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        b, d = self.pi_part, o.pi_part
        return PadicNumber(self.p, self.rat + o.rat, b + d if b or d else _ZERO,
                           min(self.prec, o.prec))

    __radd__ = __add__

    def __neg__(self):
        return PadicNumber(self.p, -self.rat, -self.pi_part, self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        b, d = self.pi_part, o.pi_part
        return PadicNumber(self.p, self.rat - o.rat, b - d if b or d else _ZERO,
                           min(self.prec, o.prec))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, d = self.rat, self.pi_part, o.rat, o.pi_part
        prec = min(self.prec, o.prec)
        if not (b or d):
            return PadicNumber(self.p, a * c, _ZERO, prec)
        return PadicNumber(self.p, a * c + self.p * b * d, a * d + b * c, prec)

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        if self.is_exact_zero:
            raise ZeroDivisionError("inverse of zero")
        a, b = self.rat, self.pi_part
        if not b:
            return PadicNumber(self.p, 1 / a, _ZERO, self.prec)
        nrm = a * a - self.p * b * b  # nonzero: v(a^2) is even, v(p b^2) odd
        return PadicNumber(self.p, a / nrm, -b / nrm, self.prec)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return PadicNumber(self.p, _ONE, _ZERO, self.prec)
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        out = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                out = out * base
            k >>= 1
        return out

    def __repr__(self):
        body = str(self.rat)
        if self.pi_part:
            body += f" + {self.pi_part}*pi"
        return f"<{self.p}-adic {body} (prec {self.prec})>"

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        v = self.exact_valuation
        out = {
            "p": self.p,
            "val": exact_text(v),
            "unit": str(self.unit_digits),
            "prec": self.prec,
        }
        if self.is_ramified:
            out["ext"] = True
        return out

    @classmethod
    def from_json(cls, data: dict) -> "PadicNumber":
        p = int(data["p"])
        prec = int(data["prec"])
        v = parse_extended(data["val"])
        if v == INF:
            return cls.zero(p, prec)
        unit = int(data["unit"])
        if not data.get("ext", False) and v.denominator == 1:
            return cls(p, Fraction(unit) * Fraction(p) ** v, Fraction(0), prec)
        a, b = _deinterleave(unit, p)
        t, odd = divmod(int(2 * v), 2)
        pt = Fraction(p) ** t
        if odd == 0:
            return cls(p, a * pt, b * pt, prec)
        return cls(p, b * pt * p, a * pt, prec)


def _interleave(a: int, b: int, p: int) -> int:
    """The integer whose base-p digits alternate those of a, b >= 0: digit
    i of a weighs p^(2i) and digit i of b weighs p^(2i+1)."""
    out, w = 0, 1
    while a or b:
        (a, da), (b, db) = divmod(a, p), divmod(b, p)
        out, w = out + (da + db * p) * w, w * p * p
    return out


def _deinterleave(u: int, p: int) -> tuple:
    """(a, b) with ``_interleave(a, b, p) == u``."""
    a, b, w = 0, 0, 1
    while u:
        u, (db, da) = u // (p * p), divmod(u % (p * p), p)
        a, b, w = a + da * w, b + db * w, w * p
    return a, b


_set_p = PadicNumber.p.__set__
_set_rat = PadicNumber.rat.__set__
_set_pi = PadicNumber.pi_part.__set__
_set_prec = PadicNumber.prec.__set__


def valuation(x: PadicNumber):
    """v(x), or +inf when x is zero at its working precision."""
    return x.val


def binom_fractional(m, k: int, p: int, prec: int = DEFAULT_PREC) -> PadicNumber:
    """Exact generalized binomial coefficient C(m, k) = m(m-1)...(m-k+1)/k!.

    For m = 1/p^(n-1) the valuation is -k(n-1) - v_p(k!).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    m = Fraction(m)
    num = Fraction(1)
    for i in range(k):
        num *= m - i
    return PadicNumber(p, num / math.factorial(k), Fraction(0), prec)


# Python's default limit on the digits of an int <-> str conversion
MAX_DIGITS = 4300


def parse_fraction(s) -> Fraction:
    """A rational from input text or a JSON number, read exactly: a
    ``Decimal`` (how the command line reads a JSON number with a fraction
    part or an exponent) is the decimal it spells.  A zero denominator, an
    infinite float, a Decimal exponent beyond +-MAX_DIGITS (whose power of
    ten no report could print) or a value of another type, a bool included,
    is a ValueError."""
    try:
        if isinstance(s, bool):
            raise TypeError
        if isinstance(s, Decimal) and abs(s.as_tuple().exponent) > MAX_DIGITS:
            raise ValueError(f"decimal exponent beyond +-{MAX_DIGITS}: {s!r}")
        return Fraction(s)
    except (ZeroDivisionError, TypeError, OverflowError):
        raise ValueError(f"not a rational number: {s!r}") from None


_KINDS = {"object": dict, "list": list, "integer": int, "string": str, "null": type(None)}
# the types of every kind json_shape accepts, resolved once
_TYPES = {**{a: frozenset({t}) for a, t in _KINDS.items()},
          **{f"{a} or {b}": frozenset({t, u}) for a, t in _KINDS.items()
             for b, u in _KINDS.items() if a != b}}


def json_shape(value, kind: str, what: str, size=None):
    """``value`` if it has the JSON type ``kind`` (a key of _KINDS, or
    two joined by " or ") and ``size`` entries if a size is given, else a
    ValueError naming ``what``.  A bool is not an integer."""
    if type(value) in _TYPES[kind] and (size is None or len(value) == size):
        return value
    entries = "" if size is None else f" of {size} entries"
    raise ValueError(f"{what} must be a JSON {kind}{entries}, not {value!r}")


def exact_text(x) -> str:
    """Text form of a valuation or log-radius: "inf", "-inf" or "a/b"."""
    if x == INF:
        return "inf"
    if x == NEG_INF:
        return "-inf"
    return str(Fraction(x))


def parse_extended(s):
    """Inverse of ``exact_text`` on Q and +inf: INF for INF or "inf", else
    ``parse_fraction``.  No parsed quantity (a valuation or a log-radius)
    can be -inf."""
    if s == INF or s == "inf":
        return INF
    return parse_fraction(s)


def integer_lift_mod(value: Fraction, p: int, n: int) -> int:
    """Canonical representative in [0, p^n) of a p-integral rational mod p^n."""
    if value.denominator % p == 0:
        raise ValueError("value is not p-integral")
    pk = p ** n
    num = value.numerator % pk
    den = value.denominator % pk
    return num * pow(den, -1, pk) % pk


def padic_digit_string(x: PadicNumber, cutoff) -> str:
    """Render x as a digit expansion in powers of p up to the cutoff valuation.

    Produces strings like ``"p + 2*p^3 + O(p^11)"``; the O-term is omitted
    when ``cutoff`` is infinite.  Only Q_p elements are rendered.
    """
    if x.is_ramified:
        raise ValueError("digit strings are only rendered for Q_p elements")
    terms = []
    v = x.exact_valuation
    if v < cutoff:
        k = int(v)
        limit = x.prec if cutoff >= x.prec else math.ceil(cutoff)
        # the digits at p^k .. p^(limit-1) are those of one lift of x/p^v
        n = integer_lift_mod(x.rat / Fraction(x.p) ** k, x.p, limit - k) \
            if limit > k else 0
        while n:
            n, d = divmod(n, x.p)
            if d:
                if k == 0:
                    terms.append(str(d))
                elif k == 1:
                    terms.append("p" if d == 1 else f"{d}*p")
                else:
                    terms.append(f"p^{k}" if d == 1 else f"{d}*p^{k}")
            k += 1
    body = " + ".join(terms) if terms else "0"
    if cutoff == INF:
        return body
    tail = f"O(p^{exact_text(cutoff)})"
    return tail if body == "0" else f"{body} + {tail}"
