"""Power series with exact leading coefficients and certified affine tail bounds.

A BoundedSeries holds exact coefficients for degrees 0..D together with an
optional TailBound (alpha, beta) certifying v(a_k) >= alpha*k + beta for all
k > D.  ``tail is None`` asserts that every coefficient beyond D vanishes,
i.e. the series is a polynomial.  All bound propagation is conservative: an
operation may weaken a tail but never claim more than it can prove.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import PrecisionExhaustedError, UndecidableSlopeError
# binom_fractional is re-exported (public name of this module), not called here
from .padic import INF, NEG_INF, PadicNumber, binom_fractional  # noqa: F401
from .padic import _Record, _set_field

_ZERO = Fraction(0)


class TailBound(_Record):
    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha: Fraction, beta: Fraction):
        _set_field(self, "alpha", Fraction(alpha))
        _set_field(self, "beta", Fraction(beta))

    def at(self, k) -> Fraction:
        return self.alpha * k + self.beta


def _as_coeff(p: int, c, prec: Optional[int]) -> PadicNumber:
    """c over p; a rational at ``prec`` (None: the PadicNumber default)."""
    if isinstance(c, PadicNumber):
        if c.p != p:
            raise ValueError("mixed primes in series")
        return c
    return PadicNumber(p, c) if prec is None else PadicNumber(p, c, _ZERO, prec)


class BoundedSeries(_Record):
    __slots__ = _fields = ("p", "coeffs", "tail")

    def __init__(self, p: int, coeffs: tuple, tail: Optional[TailBound] = None):
        if not coeffs:
            raise ValueError("series needs at least the degree-0 coefficient")
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, PadicNumber) or c.p != p:
                raise ValueError("coefficients must be PadicNumbers over the same p")
        _set_field(self, "p", p)
        _set_field(self, "coeffs", coeffs)
        _set_field(self, "tail", tail)

    @classmethod
    def build(cls, p: int, coeffs: Sequence, tail: Optional[TailBound] = None,
              prec: Optional[int] = None) -> "BoundedSeries":
        return cls(p, tuple(_as_coeff(p, c, prec) for c in coeffs), tail)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def prec(self) -> int:
        """The least coefficient prec, which a rational scalar takes."""
        return min(c.prec for c in self.coeffs)

    def ord(self) -> Optional[int]:
        """Index of the first nonzero coefficient; None for the zero polynomial."""
        for j, c in enumerate(self.coeffs):
            if not c.is_exact_zero:
                return j
        if self.tail is None:
            return None
        raise PrecisionExhaustedError(
            "order not certified: all explicit coefficients vanish but a tail remains")

    def is_zero(self) -> bool:
        return self.tail is None and all(c.is_exact_zero for c in self.coeffs)

    def explicit_points(self):
        """(j, v(a_j)) for the nonzero explicit coefficients."""
        return [(j, c.exact_valuation) for j, c in enumerate(self.coeffs)
                if not c.is_exact_zero]

    def minorant_at(self, a: Fraction) -> Fraction:
        """Largest b with v(a_j) >= a*j + b for every certified coefficient.

        Requires a <= tail.alpha when a tail is present.
        """
        a = Fraction(a)
        best = min((v - a * j for j, v in self.explicit_points()), default=INF)
        if self.tail is not None:
            if a > self.tail.alpha:
                raise ValueError("slope exceeds the certified tail slope")
            j0 = self.degree + 1
            best = min(best, self.tail.at(j0) - a * j0)
        if best == INF:
            raise ValueError("zero series has no affine minorant")
        return best

    # -- ring operations ----------------------------------------------

    def scalar_mul(self, c) -> "BoundedSeries":
        c = _as_coeff(self.p, c, self.prec)
        if c.is_exact_zero:
            zero = PadicNumber.zero(self.p, min(c.prec, self.prec))
            return BoundedSeries(self.p, (zero,), None)
        vc = c.exact_valuation
        tail = None if self.tail is None else TailBound(self.tail.alpha,
                                                        self.tail.beta + vc)
        return BoundedSeries(self.p, tuple(c * a for a in self.coeffs), tail)

    def mul(self, other: "BoundedSeries", trunc: Optional[int] = None) -> "BoundedSeries":
        if self.p != other.p:
            raise ValueError("mixed primes")
        f, g = self, other
        zero = PadicNumber.zero(self.p, min(f.prec, g.prec))
        if f.is_zero() or g.is_zero():
            return BoundedSeries(self.p, (zero,), None)
        of = _ord_or_zero(f)
        og = _ord_or_zero(g)
        if f.tail is None and g.tail is None:
            d_out = f.degree + g.degree
            tail = None
        else:
            d_out = min(
                g.degree + of if g.tail is not None else f.degree + g.degree,
                f.degree + og if f.tail is not None else f.degree + g.degree)
            a = min(t.alpha for t in (f.tail, g.tail) if t is not None)
            tail = TailBound(a, f.minorant_at(a) + g.minorant_at(a))
        if trunc is not None:
            d_out = min(d_out, trunc)
        out = [zero] * (d_out + 1)
        for i, ci in enumerate(f.coeffs):
            if ci.is_exact_zero or i > d_out:
                continue
            for j, cj in enumerate(g.coeffs):
                if i + j > d_out:
                    break
                if not cj.is_exact_zero:
                    out[i + j] = out[i + j] + ci * cj
        return BoundedSeries(self.p, tuple(out), tail)

    def rescale(self, c) -> "BoundedSeries":
        """Substitution X -> c*X."""
        c = _as_coeff(self.p, c, self.prec)
        if c.is_exact_zero:
            return BoundedSeries(self.p, (self.coeffs[0],), None)
        vc = c.exact_valuation
        coeffs = tuple(a * c ** j for j, a in enumerate(self.coeffs))
        tail = None if self.tail is None else TailBound(self.tail.alpha + vc,
                                                        self.tail.beta)
        return BoundedSeries(self.p, coeffs, tail)


def _ord_or_zero(f: BoundedSeries) -> int:
    for j, c in enumerate(f.coeffs):
        if not c.is_exact_zero:
            return j
    return 0  # conservative when only the tail carries terms


def _power_coeffs(v: Sequence[PadicNumber], a: Fraction, w0: PadicNumber,
                  d: int) -> list:
    """Coefficients 0..d of W = V^a, given v = (V_0, V_1, ...) with V_0 != 0
    (zero beyond its length) and w0 = V_0^a.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
    n V_0 W_n = sum_{k=1..n} ((a+1)k - n) V_k W_{n-k}.  Exact arithmetic
    makes the coefficients unique, so every caller gets the values a
    binomial or convolution expansion would give, in O(d^2) operations.

    The sum runs on the (rat, pi_part) Fraction components, and the pi
    products are skipped when every pi part is zero.  Each W_n is one
    PadicNumber whose prec is the running minimum that PadicNumber
    arithmetic would give it: V_0's prec and the precs of the V_k and
    W_{n-k} that feed it.
    """
    p = w0.p
    inv0 = v[0].inverse()
    r0, s0 = inv0.rat, inv0.pi_part
    support = [(k, c.rat, c.pi_part, c.prec)
               for k, c in enumerate(v[1:min(d, len(v) - 1) + 1], 1)
               if not c.is_exact_zero]
    ramified = bool(s0 or w0.pi_part or any(s for _, _, s, _ in support))
    a1 = a + 1
    prec0 = inv0.prec
    xs, ys, precs = [w0.rat], [w0.pi_part], [w0.prec]
    w = [w0]
    for n in range(1, d + 1):
        x = y = _ZERO
        prec = prec0
        for k, r, s, pk in support:
            if k > n:
                break
            prec = min(prec, pk, precs[n - k])
            c = a1 * k - n
            xj, yj = xs[n - k], ys[n - k]
            if not c or not (xj or yj):
                continue
            if ramified:
                x += (r * xj + s * yj * p) * c
                y += (r * yj + s * xj) * c
            else:
                x += r * xj * c
        if ramified:
            x, y = (x * r0 + y * s0 * p) / n, (x * s0 + y * r0) / n
        else:
            x = x * r0 / n
        xs.append(x)
        ys.append(y)
        precs.append(prec)
        w.append(PadicNumber(p, x, y, prec))
    return w


def _unit_points(f: BoundedSeries):
    """The constraint points of u = f - 1 and u's tail slope, for f(0) = 1:
    (j, v(u_j)) for the nonzero explicit u_j, j >= 1, plus the tail point
    (D + 1, tail.at(D + 1)), and tail.alpha (INF for a polynomial).  The
    points are empty when u = 0.  Raises PrecisionExhaustedError when
    ord(u) is not certified (only the tail carries terms).
    """
    points = [(j, w) for j, w in f.explicit_points() if j]
    if f.tail is None:
        return points, INF
    if not points:
        raise PrecisionExhaustedError(
            "order not certified: all explicit coefficients vanish but a tail remains")
    j0 = f.degree + 1
    points.append((j0, f.tail.at(j0)))
    return points, f.tail.alpha


def _root_tail(f: BoundedSeries, m: int) -> Optional[TailBound]:
    """Certified tail of f^(1/p^m) = sum_k C(1/p^m, k) u^k, u = f - 1, for
    f(0) = 1 and m >= 1, read from u's coefficient data alone; None when
    u = 0 and the root is the polynomial 1.  Raises PrecisionExhaustedError
    when ord(u) is not certified.

    Each supporting line v(u_j) >= a*j + b of u's constraint points gives
    v([T^j] u^k) >= a*j + k*b; with v(C(1/p^m, k)) = -kM + s_p(k)/(p-1),
    M = m + 1/(p-1), and k <= j/e (e = ord u), every term of coefficient
    j >= 1 is bounded by the line of slope a + min(0, b - M)/e and offset
    1/(p-1) when b < M, or of slope a and offset b - M + 1/(p-1) when
    b >= M.  The best b for a is bmax(a) = min over u's constraint points
    (j, w) (explicit points and the tail point at D + 1) of w - a*j, and
    bmax(a) >= M exactly when a <= a* = min (w - M)/j, the slope of the
    lower tangent from (0, M) to those points.  Up to a*, the output slope
    is a and grows; past a*, it changes at rate 1 - j/e <= 0 (j the point
    attaining bmax, j >= e), so it never exceeds a*.  The tail is therefore
    (a*, 1/(p-1)), or, when u's tail slope lies below a*, that slope with
    offset bmax - M + 1/(p-1): one pass over the points (``_unit_points``).
    """
    points, alpha_u = _unit_points(f)
    if not points:
        return None
    one_over = Fraction(1, f.p - 1)
    M = m + one_over
    a = min((w - M) / j for j, w in points)
    if alpha_u < a:
        bmax = min(w - alpha_u * j for j, w in points)
        return TailBound(alpha_u, bmax - M + one_over)
    return TailBound(a, one_over)


def _least_root_level(points, alpha_u, p: int, t):
    """(m, x): the least level m >= 1 whose root log-radius reaches t, and
    x = min (t*j + w) - 1/(p-1) over the nonempty points (j, w) of
    ``_unit_points`` with tail slope alpha_u.

    By ``_root_tail`` the level-m log-radius is rho_m =
    max(max (m + 1/(p-1) - w)/j, -alpha_u).  As every j >= 1,
    (m + 1/(p-1) - w)/j >= t is m >= t*j + w - 1/(p-1), so rho_m >= t
    exactly when -alpha_u >= t or m >= x.  Neither condition weakens as m
    grows: m is 1 in the first case, else max(1, ceil(x)).
    """
    x = min(t * j + w for j, w in points) - Fraction(1, p - 1)
    return (1 if -alpha_u >= t else max(1, math.ceil(x))), x


def series_p_power_root(f: BoundedSeries, m: int) -> BoundedSeries:
    """Binomial-series expansion of f^(1/p^m) for f with f(0) = 1.

    Explicit coefficients are exact (Miller's power recurrence, see
    ``_power_coeffs``); the output tail is certified from the
    valuations v(C(1/p^m, k)) = -km - v_p(k!) and u = f - 1.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    p = f.p
    one = PadicNumber.one(p, f.coeffs[0].prec)  # the root's W_0, at V_0's prec
    if f.coeffs[0] != one:
        raise ValueError("series_p_power_root requires constant term 1")
    if m == 0:
        return f
    tail = _root_tail(f, m)
    if tail is None:
        return BoundedSeries(p, (one,), None)
    coeffs = _power_coeffs(f.coeffs, Fraction(1, p ** m), one, f.degree)
    return BoundedSeries(p, tuple(coeffs), tail)


def convergence_logradius(f: BoundedSeries):
    """Certified infimum rho such that f converges on every ball point of
    log-radius > rho (rho = -log_p r).

    Returns NEG_INF for polynomials (entire), else -tail.alpha.  Raises
    UndecidableSlopeError when an explicit coefficient undercuts the tail
    line, i.e. the finite data contradicts the certificate's critical slope.
    """
    if f.tail is None:
        return NEG_INF
    for j, v in f.explicit_points():
        if j >= 1 and v < f.tail.at(j):
            raise UndecidableSlopeError(
                f"coefficient {j} has valuation {v} below the tail line "
                f"{f.tail.at(j)}")
    return -f.tail.alpha
