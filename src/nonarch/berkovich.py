"""Ball-point model of the Berkovich affine line over Q_p and Q_p(pi).

A point b_{a,rho} is a center a together with the log-radius
rho = -log_p r; rho = +inf encodes the type-1 point a itself.  The
multiplicative seminorm |f|_b = max_i |a_i| r^i is computed in log form as
min_i (v(a_i) + i*rho) after recentering f at a, which is exact for
polynomial input.  A factored function prod (X - a)^k is evaluated at both
kinds of point by ``product_at``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple, Union

from .errors import PoleCollisionError
from .padic import INF, PadicNumber, _Record, _set_field, parse_extended, valuation


class BallPoint(_Record):
    """b_{a, rho}; type 1 when rho = INF, type 2 otherwise.  ``logradius``
    is a Fraction or INF; the constructor also takes its ``exact_text``.

    Equality is ball equality: same log-radius and v(a - a') >= rho.  The
    ``degenerate`` flag marks points produced by joining two centers that
    agree at working precision.
    """

    __slots__ = _fields = ("center", "logradius", "degenerate")

    def __init__(self, center: PadicNumber, logradius: Union[Fraction, float],
                 degenerate: bool = False):
        _set_field(self, "center", center)
        _set_field(self, "logradius", parse_extended(logradius))
        _set_field(self, "degenerate", degenerate)

    @property
    def p(self) -> int:
        return self.center.p

    def __eq__(self, other):
        if not isinstance(other, BallPoint):
            return NotImplemented
        return same_point(self, other)

    def __hash__(self):
        return hash((self.center.p, self.logradius))

    def __repr__(self):
        return f"b({self.center!r}, rho={self.logradius})"


def same_point(b1: BallPoint, b2: BallPoint) -> bool:
    """Ball equality: rho_1 = rho_2 and v(a_1 - a_2) >= rho_1."""
    if b1.center.p != b2.center.p:
        return False
    if b1.logradius != b2.logradius:
        return False
    return valuation(b1.center - b2.center) >= b1.logradius


def classify_type(b: BallPoint) -> int:
    """1 if r = 0, else 2 (rational log-radii give r in p^Q)."""
    return 1 if b.logradius == INF else 2


def _recenter(coeffs: Sequence[PadicNumber], a: PadicNumber):
    """Coefficients of f(a + T) by iterated synthetic division; exact."""
    out = list(coeffs)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] = out[j] + a * out[j + 1]
    return out


def seminorm(coeffs: Sequence[PadicNumber], b: BallPoint):
    """-log_p |f|_b = min_i (v(c_i) + i*rho) for f = sum c_i (X - a)^i.

    ``coeffs`` are the coefficients of f in X (low degree first); the
    recentering at b's center is exact.  Returns a Fraction, or INF for the
    zero polynomial / a type-1 point at a root of f.
    """
    if not coeffs:
        return INF
    shifted = _recenter(list(coeffs), b.center)
    rho = b.logradius
    best = INF
    for i, c in enumerate(shifted):
        v = c.exact_valuation
        term = v + i * rho if i else v  # i = 0 would give 0 * INF = nan
        if term < best:
            best = term
    return best


def product_at(factors: Sequence[Tuple[PadicNumber, int]],
               z: Union[PadicNumber, BallPoint]):
    """prod (X - a)^k over the factors (a, k) with k != 0, at z.

    At a type-1 point z this is prod (z - a)^k, a zero (z = a, k > 0)
    carrying its operands' prec.  At a ball point b_{c, rho} it is the
    log-seminorm sum k * min(v(c - a), rho), exact as in ``seminorm``; a
    type-1 ball gives INF at a zero, never nan.  A pole (z = a, k < 0)
    raises PoleCollisionError at either kind of point.
    """
    if isinstance(z, BallPoint):
        c, rho = z.center, z.logradius
        total = Fraction(0)
        for a, k in factors:
            if k:
                v = min((c - a).exact_valuation, rho)
                if v == INF and k < 0:
                    raise PoleCollisionError(f"evaluation point hits the pole {a!r}")
                total += k * v
        return total
    out = PadicNumber.one(z.p, z.prec)
    for a, k in factors:
        if k:
            d = z - a
            if k < 0 and d.is_exact_zero:
                raise PoleCollisionError(f"evaluation point hits the pole {a!r}")
            out = out * d ** k
    return out


def join(a1: PadicNumber, a2: PadicNumber) -> BallPoint:
    """Smallest ball containing the two type-1 points: b_{a1, v(a1-a2)}.

    When the centers agree at working precision the returned point is
    type 1 and carries the ``degenerate`` flag.
    """
    v = valuation(a1 - a2)
    if v == INF:
        return BallPoint(a1, INF, degenerate=True)
    return BallPoint(a1, v)


def ladder_point(z: PadicNumber, n: int) -> BallPoint:
    """b_{z, v(z) + n + 1/(p-1)}, the level-n splitting point of the
    canonical p^n-torsor of the coordinate function about z."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    vz = valuation(z)
    if vz == INF:
        raise ValueError("ladder_point requires z nonzero at working precision")
    return BallPoint(z, vz + n + Fraction(1, z.p - 1))


class Segment(_Record):
    """Center-anchored ray of ball points b_{anchor, rho},
    rho decreasing from rho_start (closest to the anchor) to rho_end."""

    __slots__ = _fields = ("anchor", "rho_start", "rho_end")

    def __init__(self, anchor: PadicNumber, rho_start: Union[Fraction, float],
                 rho_end: Union[Fraction, float]):
        rho_start, rho_end = parse_extended(rho_start), parse_extended(rho_end)
        if rho_start < rho_end:
            raise ValueError("rho_start must be >= rho_end")
        _set_field(self, "anchor", anchor)
        _set_field(self, "rho_start", rho_start)
        _set_field(self, "rho_end", rho_end)

    def contains(self, b: BallPoint) -> bool:
        if not self.rho_end <= b.logradius <= self.rho_start:
            return False
        return valuation(b.center - self.anchor) >= b.logradius
