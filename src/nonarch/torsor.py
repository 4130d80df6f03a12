"""Splitting radii of mu_{p^n}-torsors pulled back along a germ on a disk,
with Artin-Schreier residue certificates and the genus criterion.

The split/non-split threshold at a centered ball point is defined as
convergence/divergence of the p^n-th root series of the germ; for the model
germ 1 + X^N the certified log-radius is exactly (n + 1/(p-1))/N.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .berkovich import _recenter
from .errors import IndeterminateGermError, PrecisionExhaustedError
from .padic import (NEG_INF, PadicNumber, _Record, _set_field, require_prime,
                    require_window, vp_int)
from .series import BoundedSeries, _root_tail


class RamifiedGerm(_Record):
    """A unit germ at 0, normalized to f(0) = 1, with its ramification index.

    e0 = min{k >= 1 : a_k != 0} = ord_0(df/f) + 1.
    """

    __slots__ = _fields = ("series", "e0")
    _args = ("series",)

    def __init__(self, series: BoundedSeries):
        c0 = series.coeffs[0]
        if c0.is_exact_zero:
            raise ValueError("germ must not vanish at 0")
        if c0 != PadicNumber.one(series.p, c0.prec):
            series = series.scalar_mul(c0.inverse())
        _set_field(self, "series", series)
        _set_field(self, "e0", ramification_index(series))

    @classmethod
    def model(cls, p: int, n_index: int, prec: Optional[int] = None) -> "RamifiedGerm":
        """The model germ 1 + X^N, at ``prec`` as ``BoundedSeries.build``."""
        require_window(n_index)
        coeffs = [1] + [0] * (n_index - 1) + [1]
        return cls(BoundedSeries.build(p, coeffs, None, prec))


def ramification_index(f: BoundedSeries) -> int:
    """First index k >= 1 with a_k != 0; equals ord_0(df/f) + 1."""
    for j in range(1, f.degree + 1):
        if not f.coeffs[j].is_exact_zero:
            return j
    if f.tail is None:
        raise IndeterminateGermError("germ is constant: no ramification index")
    raise PrecisionExhaustedError(
        "nonconstant term not certified at the explicit degree")


def splitting_logradius_exact(N: int, n: int, p: int) -> Fraction:
    """Closed form (n + 1/(p-1))/N for the model germ 1 + X^N.

    Consecutive differences are 1/N, the log form of the asymptotic law
    r_0 = C p^(-n/e0).
    """
    if N < 1 or n < 1:
        raise ValueError("N and n must be positive")
    require_prime(p)
    return (Fraction(n) + Fraction(1, p - 1)) / N


def splitting_logradius_numeric(germ: RamifiedGerm, n: int):
    """Certified splitting log-radius at level n: the convergence log-radius
    of the p^n-th root series of the germ, read from the root's tail alone.

    n = 0 returns NEG_INF: the torsor is trivial and the root is the germ
    itself, entire on the disk.

    The value equals ``convergence_logradius(series_p_power_root(f, n))``
    without expanding the root.  That function returns -tail.alpha unless
    an explicit root coefficient undercuts the tail line, and none can:
    the root is sum_k C(1/p^n, k) u^k with u = f - 1, and the tail is
    built from a line v(u_j) >= a*j + b supporting every certified
    coefficient of u, so that v([T^j] u^k) >= a*j + k*b and
    v(C(1/p^n, k)) >= -k*M + 1/(p-1), M = n + 1/(p-1).  With u^k vanishing
    below degree k*e, the term k of coefficient j is bounded by the tail
    line for every k <= j/e and every j >= 1, not only beyond the explicit
    degree; by the ultrametric inequality so is their sum, the exact root
    coefficient.  The tail is ``series._root_tail``'s.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return NEG_INF
    # RamifiedGerm certifies a nonzero coefficient of f - 1, so the tail exists
    return -_root_tail(germ.series, n).alpha


class ArtinSchreierData(_Record):
    """Certificate for the residue curve T^p - T = X^e.

    e = p^m * d with gcd(d, p) = 1 and genus g = (d-1)(p-1)/2; the torsor
    point is forced into the vertex set exactly when g >= 1, i.e. when e is
    not a power of p.
    """

    __slots__ = _fields = ("e", "p", "m", "d", "genus", "forces_vertex",
                           "residue_equation")

    def __init__(self, e: int, p: int, m: int, d: int, genus: int,
                 forces_vertex: bool, residue_equation: str):
        _set_field(self, "e", e)
        _set_field(self, "p", p)
        _set_field(self, "m", m)
        _set_field(self, "d", d)
        _set_field(self, "genus", genus)
        _set_field(self, "forces_vertex", forces_vertex)
        _set_field(self, "residue_equation", residue_equation)

    def to_json(self) -> dict:
        return {
            "e": self.e,
            "p": self.p,
            "m": self.m,
            "d": self.d,
            "genus": self.genus,
            "forces_vertex": self.forces_vertex,
            "residue_equation": self.residue_equation,
        }


def artin_schreier_certificate(e: int, p: int) -> ArtinSchreierData:
    if e < 1:
        raise ValueError("e must be positive")
    require_prime(p)
    m = int(vp_int(e, p))
    d = e // p ** m
    genus = (d - 1) * (p - 1) // 2
    return ArtinSchreierData(
        e=e, p=p, m=m, d=d, genus=genus,
        forces_vertex=genus >= 1,
        residue_equation=f"T^{p} - T = X^{e}",
    )


def dlog_ord(f: BoundedSeries, shift: Optional[PadicNumber] = None) -> int:
    """(x - z)-adic valuation of (df/f)/dx for the germ f about z.

    ``f`` is the series expansion in T = x - z; a nonzero ``shift``
    recenters a polynomial f exactly (certified-tail series must be
    supplied about the point directly).  Returns -1 at a logarithmic pole
    (f vanishing at the point), else ord(f')  since 1/f is then a unit.
    """
    if shift is not None and not shift.is_exact_zero:
        if f.tail is not None:
            raise PrecisionExhaustedError(
                "recentring a certified-tail series is not supported; "
                "expand the germ about the point instead")
        f = BoundedSeries(f.p, tuple(_recenter(list(f.coeffs), shift)), None)
    m = f.ord()
    if m is None:
        raise ValueError("dlog_ord requires f not identically zero")
    if m >= 1:
        return -1
    return ramification_index(f) - 1
