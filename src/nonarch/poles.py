"""Vanishing orders of Q_p-combinations of simple poles sum a_i/(X - i).

The order-set solver works over exact rational linear algebra: the Taylor
coefficients of 1/(X - i) about x live in K_0 (Q_p or its quadratic
extension, degree C in {1, 2}); each coefficient contributes C rational
coordinates, and kernel-dimension jumps of the truncation maps phi_n
determine which orders are achieved.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, List, Optional, Sequence, Tuple, Union

# seminorm is re-exported (public name of this module), not called here
from .berkovich import BallPoint, product_at, seminorm  # noqa: F401
from .errors import NoAdmissibleOrderError, PoleCollisionError, PrecisionExhaustedError
from .padic import (PadicNumber, _Record, _set_field, integer_lift_mod, require_prime,
                    require_window, vp_fraction, vp_int)


class PoleFamily(_Record):
    """Finite truncation of a pole set I in K_0, with the base point x not in I."""

    __slots__ = _fields = ("poles", "x")

    def __init__(self, poles: Tuple[PadicNumber, ...], x: PadicNumber):
        poles = tuple(poles)
        if not poles:
            raise ValueError("pole family must be nonempty")
        p = x.p
        for i in poles:
            if i.p != p:
                raise ValueError("mixed primes in pole family")
        # the first pole equal to x or to a later pole raises; x is checked first
        keys = [(i.rat, i.pi_part) for i in poles]
        last = {key: a for a, key in enumerate(keys)}
        for a, key in enumerate(keys):
            if key == (x.rat, x.pi_part):
                raise ValueError("x collides with a pole")
            if last[key] != a:
                raise ValueError("poles must be distinct")
        _set_field(self, "poles", poles)
        _set_field(self, "x", x)

    @property
    def p(self) -> int:
        return self.x.p

    @property
    def C(self) -> int:
        """Degree [K_0 : Q_p] of the field generated by the data."""
        ramified = self.x.is_ramified or any(i.is_ramified for i in self.poles)
        return 2 if ramified else 1

    def expansion_row(self, pole: PadicNumber, ncoeffs: int) -> List[PadicNumber]:
        """Taylor coefficients of 1/(X - pole) about x: (-1)^k/(x-pole)^(k+1)."""
        inv = (self.x - pole).inverse()
        step = -inv
        row = []
        cur = inv
        for _ in range(ncoeffs):
            row.append(cur)
            cur = cur * step
        return row

    def matrix(self, ncoeffs: int) -> List[List[PadicNumber]]:
        return [self.expansion_row(i, ncoeffs) for i in self.poles]


# -- exact integer linear algebra -------------------------------------


def _coefficient_blocks(fam: PoleFamily,
                        K: int) -> Tuple[List[int], Iterator[List[List[int]]]]:
    """Integer column scales and a lazy stream of coefficient blocks 0..K.

    K is first capped at n - 1 for n poles: a nonzero combination has a
    numerator of degree < n, so its order is at most n - 1 and blocks
    0..n-1 already have full rank.

    With (x - i)^(-1) = (R + S pi)/L for integers R, S and L > 0, coefficient
    k of 1/(X - i) is (-1)^k (R + S pi)^(k+1) / L^(k+1).  Pole i gets the
    scale L^(K+1), a positive multiple of the lcm of the denominators of its
    coefficients 0..K, so block k holds the ``rat`` vector and (when C = 2)
    the ``pi_part`` vector of (-1)^k (R + S pi)^(k+1) L^(K-k) over the poles.
    Each block is the one before times -(R + S pi)/L, an exact division
    while k < K.  Scaling a column by a nonzero rational keeps the rank and
    the pivot columns and maps the kernel by the inverse scaling.
    """
    p, C = fam.p, fam.C
    K = min(K, len(fam.poles) - 1)
    units = []
    for i in fam.poles:
        inv = (fam.x - i).inverse()
        L = lcm(inv.rat.denominator, inv.pi_part.denominator)
        units.append((inv.rat.numerator * (L // inv.rat.denominator),
                      inv.pi_part.numerator * (L // inv.pi_part.denominator), L))

    def blocks():
        rat = [R * L ** K for R, _, L in units]
        pi = [S * L ** K for _, S, L in units]
        for k in range(K + 1):
            yield [rat, pi] if C == 2 else [rat]
            if k < K:
                rat, pi = ([-(a * R + p * b * S) // L
                            for a, b, (R, S, L) in zip(rat, pi, units)],
                           [-(a * S + b * R) // L
                            for a, b, (R, S, L) in zip(rat, pi, units)])

    return [L ** (K + 1) for _, _, L in units], blocks()


class _Echelon:
    """Incremental echelon form of the span of integer vectors of length n.

    Each stored vector has content 1 and is zero before its leading index
    and at the leading indices stored before it, so the leading indices are
    the pivot columns of the reduced row echelon form of the span.
    """

    def __init__(self, n: int):
        self.n = n
        self.leading = {}  # leading index -> stored vector

    def add(self, vec: Sequence[int]) -> bool:
        """Adjoin vec to the span; True when the rank grows."""
        if len(self.leading) == self.n:
            return False
        v = list(vec)
        for lead, b in self.leading.items():
            x = v[lead]
            if x:
                y = b[lead]
                g = gcd(x, y)
                x, y = x // g, y // g
                v = [y * s - x * t for s, t in zip(v, b)]
        for r in range(self.n):
            if v[r]:
                g = gcd(*v)
                self.leading[r] = [c // g for c in v] if g != 1 else v
                return True
        return False

    def kernel(self) -> Iterator[Tuple[int, List[int]]]:
        """Lazy basis of {a : sum_r a_r v_r = 0 for every adjoined v}: one
        pair (f, a) per non-leading index f, in increasing order, with a an
        integer vector that is 0 at the other non-leading indices.

        The leading entries follow by back-substitution from the largest
        leading index down, so a[f] != 0 and a / a[f] is the rational basis
        vector equal to 1 at f.  A dot product of a with an integer vector
        is nonzero exactly when that of a / a[f] is, so a caller pairs in
        integers and divides only the vector it keeps.
        """
        leads = sorted(self.leading, reverse=True)
        for f in range(self.n):
            if f in self.leading:
                continue
            a = [0] * self.n
            a[f] = 1
            for lead in leads:
                b = self.leading[lead]
                t = -sum(a[r] * b[r] for r in range(lead + 1, self.n))
                g = gcd(t, b[lead])
                m = b[lead] // g
                if m != 1:
                    a = [c * m for c in a]
                a[lead] = t // g
            yield f, a


# -- operations --------------------------------------------------------


def order_of_combination(a: Sequence, fam: PoleFamily,
                         window: Optional[int] = None) -> int:
    """(X - x)-adic valuation of sum a_i/(X - i), by exact expansion.

    Coefficient k of the sum is built from the PadicNumber expansions of
    the poles, one k at a time, independently of the integer blocks.
    """
    coeffs = [c if isinstance(c, PadicNumber) else
              PadicNumber.from_rational(fam.p, c, fam.x.prec) for c in a]
    if len(coeffs) != len(fam.poles):
        raise ValueError("coefficient count must match the pole count")
    if all(c.is_exact_zero for c in coeffs):
        raise ValueError("the zero combination has no order")
    kmax = len(fam.poles) if window is None else window
    # terms[i] = a_i (-1)^k/(x - i)^(k+1), coefficient k of a_i/(X - i)
    steps = [-(fam.x - i).inverse() for i in fam.poles]
    terms = [-c * s for c, s in zip(coeffs, steps)]
    for k in range(kmax + 1):
        if not sum(terms[1:], terms[0]).is_exact_zero:
            return k
        terms = [t * s for t, s in zip(terms, steps)]
    raise PrecisionExhaustedError(
        f"order exceeds the certified window {kmax}")


class OrderSetResult(_Record):
    """Achieved orders E in [0, nmax], the counts u_n = #(E cap [0,n]) and
    the dimension table dim_{Q_p} V_n."""

    __slots__ = _fields = ("nmax", "C", "E_window", "u", "dims")

    def __init__(self, nmax: int, C: int, E_window: Tuple[int, ...],
                 u: Tuple[int, ...], dims: Tuple[int, ...]):
        _set_field(self, "nmax", nmax)
        _set_field(self, "C", C)
        _set_field(self, "E_window", E_window)
        _set_field(self, "u", u)
        _set_field(self, "dims", dims)

    def check_inequality(self) -> bool:
        """dim V_n <= C * u_n, the proof inequality of the density lemma."""
        return all(self.dims[n] <= self.C * self.u[n] for n in range(self.nmax + 1))

    def to_json(self) -> dict:
        return {
            "nmax": self.nmax,
            "C": self.C,
            "E_window": list(self.E_window),
            "u": list(self.u),
            "dims": list(self.dims),
        }


def order_set(fam: PoleFamily, nmax: int) -> OrderSetResult:
    """Kernel-jump computation of the achieved orders.

    n is achieved iff Ker(phi_n) strictly contains Ker(phi_{n+1}), where
    phi_n maps a combination to its first n Taylor coefficients; equivalently
    iff rank grows when coefficient block n is adjoined.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    require_window(nmax)
    C = fam.C
    # blocks 0..nmax give ranks[0..nmax + 1], all that n <= nmax reads; once
    # the rank is full no later block can raise it
    _, blocks = _coefficient_blocks(fam, nmax)
    echelon = _Echelon(len(fam.poles))
    ranks = [0]  # ranks[n] = dim V_n
    for block in blocks:
        for vec in block:
            echelon.add(vec)
        ranks.append(len(echelon.leading))
        if ranks[-1] == echelon.n:
            break
    ranks += [ranks[-1]] * (nmax + 2 - len(ranks))
    E = tuple(n for n in range(nmax + 1) if ranks[n + 1] > ranks[n])
    u = []
    count = 0
    for n in range(nmax + 1):
        if n in E:
            count += 1
        u.append(count)
    dims = tuple(ranks[n] for n in range(nmax + 1))
    return OrderSetResult(nmax=nmax, C=C, E_window=E, u=tuple(u), dims=dims)


def _is_p_power(n: int, p: int) -> bool:
    return n >= 1 and n == p ** int(vp_int(n, p))


def find_nonppower_order(fam: PoleFamily, p: Optional[int] = None,
                         nmax: Optional[int] = None) -> Tuple[Fraction, ...]:
    """Coefficients (a_i) in Z_p with ord_x(sum a_i/(X-i)) + 1 not a p-power.

    The combination is built from an exact kernel basis of phi_k and rescaled
    by a p-power so every entry is p-integral; the claimed order is
    re-verified through the expansion before returning.  A p that is not
    prime or a negative nmax raises ValueError.
    """
    return _find_witness(fam, p, nmax)[0]


def _find_witness(fam: PoleFamily, p: Optional[int],
                  nmax: Optional[int]) -> Tuple[Tuple[Fraction, ...], int]:
    """``find_nonppower_order``'s witness with its verified order k.

    Blocks are built up to the witness, or until the rank is full, after
    which every kernel of phi_k is zero and no later order is achieved.
    """
    p = fam.p if p is None else p
    require_prime(p)
    if nmax is not None and nmax < 0:
        raise ValueError("nmax must be nonnegative")
    window = (len(fam.poles) - 1) if nmax is None else nmax
    require_window(window)
    scale, blocks = _coefficient_blocks(fam, window)
    echelon = _Echelon(len(scale))
    achieved = []
    for k, block in enumerate(blocks):
        if not _is_p_power(k + 1, p):
            # the first kernel vector of phi_k not killed by block k, mapped
            # back through the column scales
            hit = next(((f, a) for f, a in echelon.kernel()
                        if any(sum(x * c for x, c in zip(a, col)) for col in block)),
                       None)
            if hit is not None:
                f, a = hit
                witness = [Fraction(x * d, a[f] * scale[f]) for x, d in zip(a, scale)]
                shift = min(vp_fraction(c, p) for c in witness if c != 0)
                if shift < 0:
                    witness = [c * Fraction(p) ** (-shift) for c in witness]
                got = order_of_combination(witness, fam, window=window + 1)
                if got != k:
                    raise PrecisionExhaustedError(
                        f"kernel construction promised order {k} but verified {got}")
                return tuple(witness), got
        if any([echelon.add(vec) for vec in block]):
            achieved.append(k)
        if len(echelon.leading) == echelon.n:
            break
    raise NoAdmissibleOrderError(window, achieved)


def integer_approximation(a: PadicNumber, n: int) -> int:
    """Canonical integer representative of a in [0, p^n) with
    v_p(result - a) >= n; requires a in Z_p at precision >= n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if a.is_ramified:
        raise ValueError("integer approximation is defined for Z_p elements")
    if a.prec < n:
        raise PrecisionExhaustedError(
            f"precision {a.prec} is below the requested modulus exponent {n}")
    v = a.exact_valuation
    if v < 0:
        raise ValueError("a must be p-integral")
    if n == 0:
        return 0
    return integer_lift_mod(a.rat, a.p, n)


def finite_product_eval(poles: Sequence[PadicNumber], exponents: Sequence[int],
                        x: PadicNumber, z: Union[PadicNumber, BallPoint]):
    """Evaluate prod ((X - i)/(x - i))^(a_i), normalized to 1 at X = x.

    This is ``product_at`` at z over the same product at x.  At a type-1
    point the value is an exact field element; at a ball point it is the
    log-seminorm, less the exact valuation of the product at x.  An x on a
    zero or pole of the product raises PoleCollisionError.
    """
    if len(poles) != len(exponents):
        raise ValueError("pole and exponent counts differ")
    factors = tuple(zip(poles, exponents))
    at_z = product_at(factors, z)
    norm = product_at(factors, x)
    if norm.is_exact_zero:
        raise PoleCollisionError("x hits a zero of the product")
    return at_z - norm.exact_valuation if isinstance(z, BallPoint) else at_z / norm


def moebius_orbit(matrix, t: PadicNumber, kmin: int, kmax: int) -> List[PadicNumber]:
    """Orbit points g^k(t), kmin <= k <= kmax, for g = [[a, b], [c, d]] acting
    as the fractional-linear map (a t + b)/(c t + d)."""
    a, b, c, d = (x if isinstance(x, PadicNumber) else
                  PadicNumber.from_rational(t.p, x, t.prec) for x in matrix)
    det = a * d - b * c
    if det.is_exact_zero:
        raise ValueError("transformation must be invertible")

    def apply(m, z):
        ma, mb, mc, md = m
        den = mc * z + md
        if den.is_exact_zero:
            raise PoleCollisionError("orbit point escapes to infinity")
        return (ma * z + mb) / den

    fwd = (a, b, c, d)
    inv = (d, -b, -c, a)
    orbit = {0: t}
    cur = t
    for k in range(1, max(kmax, 0) + 1):
        cur = apply(fwd, cur)
        orbit[k] = cur
    cur = t
    for k in range(-1, min(kmin, 0) - 1, -1):
        cur = apply(inv, cur)
        orbit[k] = cur
    return [orbit[k] for k in range(kmin, kmax + 1)]
