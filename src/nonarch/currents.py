"""Currents on the Tate-curve tree and their function/differential realizations.

A current assigns values to cusp edges e_j (over the grid points q^j) and
spine edges e'_j subject to c(e'_{j+1}) = c(e'_j) + c(e_{j+1}).  Window
currents are finitely supported modifications of a flat current; periodic
currents repeat with period l, which forces the cusp values to sum to zero
over a period.

alpha realizes an integer current as an invertible function up to scalar,

    alpha(c) = x^{c(e'_0)} * prod_{j>=1} ((x-q^j)/x)^{c(e_j)}
                            * prod_{j<=0} ((x-q^j)/q^j)^{c(e_j)},

and delta = dlog o alpha extends Z_p-linearly to

    delta(c) = c(e'_0) dx/x + sum_{j>=1} c(e_j) (dx/(x-q^j) - dx/x)
                            + sum_{j<=0} c(e_j) dx/(x-q^j).

Both read one factored form: alpha(c) = q^N x^m prod_j (x-q^j)^{c(e_j)} with
m = c(e'_0) - sum_{j>=1} c(e_j) and N = -sum_{j<=0} j c(e_j), so
delta(c) = (m/x + sum_j c(e_j)/(x-q^j)) dx.

Every truncated evaluation carries a certified lower bound on the valuation
of the discarded tail.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple, Union

from .berkovich import BallPoint, product_at
from .errors import (NonStabilizedError, PoleCollisionError,
                     PrecisionExhaustedError, TailCertificateError)
# binom_fractional is re-exported (public name of this module), not called here
from .padic import (INF, PadicNumber, binom_fractional, json_shape,  # noqa: F401
                    parse_fraction, require_window, valuation, vp_fraction)
from .padic import _Record, _set_field
from .series import (BoundedSeries, TailBound, _least_root_level, _power_coeffs,
                     _unit_points)
from .torsor import RamifiedGerm

Value = Union[int, Fraction]


def _tate_valuation(q: PadicNumber):
    """v(q), checked to make q a Tate parameter: 0 < v(q) < inf."""
    v = q.exact_valuation
    if not 0 < v < INF:
        raise ValueError("Tate parameter needs 0 < v(q) < inf")
    return v


def _congruent(a: Value, b: Value, n: Optional[int]) -> bool:
    """a = b, modulo n when n is not None."""
    return a == b if n is None else (a - b) % n == 0


class Current(_Record):
    """A current stored as the data its definition leaves free: the window
    [jmin, jmax] (the window [0, period - 1] when periodic), the cusp values
    on it, one spine value ``base`` and the modulus n over Z/nZ (None over Z
    or Z_p).  ``base`` is c(e'_{jmin-1}) for a window current and c(e'_0)
    for a periodic one; the defining relation fixes every other spine
    value, so ``spine`` and ``ring`` are derived."""

    _fields = ("window", "cusp", "base", "period", "modulus")
    __slots__ = _fields + ("_cusp", "_spine")

    def __init__(self, window: Tuple[int, int], cusp: Tuple[Tuple[int, Value], ...],
                 base: Value = 0, period: Optional[int] = None,
                 modulus: Optional[int] = None):
        """The one check of a current, so that no invalid one exists: the
        rules on window, period and cusp keys (README design notes), the
        zero period sum, modulo n over Z/nZ, and integer values over Z/nZ.
        It then builds the cusp and spine tables the accessors read, the
        spine from ``base`` by c(e'_j) = c(e'_{j-1}) + c(e_j); with the zero
        sum, j = 1..period-1 cover a whole period.  A window wider than
        ``require_window`` allows is refused before the spine is built."""
        jmin, jmax = window
        if period is not None:
            if period < 1:
                raise ValueError("period must be positive")
            if window != (0, period - 1):
                raise ValueError(
                    f"a periodic current needs the window [0, {period - 1}]")
        elif jmin > jmax:
            raise ValueError("the window needs jmin <= jmax")
        require_window(jmax - jmin)
        by_j = dict(cusp)
        if not all(jmin <= j <= jmax for j in by_j):
            raise ValueError(f"cusp keys must lie in {jmin}..{jmax}")
        if period is not None and not _congruent(sum(by_j.values()), 0, modulus):
            raise ValueError("cusp values do not sum to 0 over a period")
        if modulus is not None and \
                not all(isinstance(v, int) for v in (base, *by_j.values())):
            raise ValueError(f"a current over Z/{modulus}Z needs integer values")
        first = jmin - 1 if period is None else 0
        spine = {first: base}
        for j in range(first + 1, jmax + 1):
            spine[j] = spine[j - 1] + by_j.get(j, 0)
        _set_field(self, "window", window)
        _set_field(self, "cusp", cusp)
        _set_field(self, "base", base)
        _set_field(self, "period", period)
        _set_field(self, "modulus", modulus)
        _set_field(self, "_cusp", by_j)
        _set_field(self, "_spine", spine)

    # -- constructors ---------------------------------------------------

    @classmethod
    def windowed(cls, cusp: Dict[int, Value], left_spine: Value = 0,
                 modulus: Optional[int] = None) -> "Current":
        cusp = {j: v for j, v in cusp.items() if v != 0}
        window = (min(cusp), max(cusp)) if cusp else (0, 0)
        return cls(window, tuple(sorted(cusp.items())), left_spine, modulus=modulus)

    @classmethod
    def periodic(cls, period: int, cusp: Dict[int, Value], spine0: Value = 0,
                 modulus: Optional[int] = None) -> "Current":
        return cls((0, period - 1), tuple((j, cusp.get(j, 0)) for j in range(period)),
                   spine0, period, modulus)

    # -- access ----------------------------------------------------------

    @property
    def spine(self) -> Tuple[Tuple[int, Value], ...]:
        """The spine values on the window, keys jmin - 1..jmax (0..period - 1
        when periodic)."""
        return tuple(self._spine.items())

    @property
    def ring(self) -> str:
        """"Z/nZ" for the modulus n (its values are ints); otherwise "Z"
        when every value is an int and "Zp" when one is not."""
        if self.modulus is not None:
            return f"Z/{self.modulus}Z"
        ints = isinstance(self.base, int) and all(isinstance(v, int) for _, v in self.cusp)
        return "Z" if ints else "Zp"

    @property
    def is_window_supported(self) -> bool:
        return self.period is None

    def cusp_at(self, j: int) -> Value:
        if self.period is not None:
            j %= self.period
        return self._cusp.get(j, 0)

    def spine_at(self, j: int) -> Value:
        if self.period is not None:
            return self._spine[j % self.period]
        jmin, jmax = self.window
        return self._spine[min(max(j, jmin - 1), jmax)]

    def support(self) -> Tuple[int, ...]:
        return tuple(j for j, v in self.cusp if v != 0)

    # -- module structure -------------------------------------------------

    def scale(self, c: Value) -> "Current":
        """c times the current; over Z/nZ a rational c acts as its residue."""
        if self.modulus is not None:
            c = Fraction(c)
            c = c.numerator * pow(c.denominator, -1, self.modulus) % self.modulus
            scl = lambda v: (v * c) % self.modulus
        else:
            scl = lambda v: v * c
        return Current(self.window, tuple((j, scl(v)) for j, v in self.cusp),
                       scl(self.base), self.period, self.modulus)

    def __add__(self, other: "Current") -> "Current":
        """The sum; a window current's base is its spine value everywhere
        left of its window, so the bases of two window currents add."""
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")
        if self.period is None and other.period is None:
            cusp = dict(self._cusp)
            for j, v in other.cusp:
                cusp[j] = cusp.get(j, 0) + v
            return Current.windowed(cusp, self.base + other.base, self.modulus)
        if self.period is not None and other.period == self.period:
            cusp = {j: self.cusp_at(j) + other.cusp_at(j) for j in range(self.period)}
            return Current.periodic(self.period, cusp, self.base + other.base,
                                    self.modulus)
        # a cusp-free periodic current is flat and shifts every spine value
        flat, win = (self, other) if self.period is not None else (other, self)
        if flat.period is not None and win.period is None and \
                not any(v for _, v in flat.cusp):
            return Current.windowed(dict(win.cusp), win.base + flat.base, win.modulus)
        raise ValueError("unsupported current addition")

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json(cls, data: dict) -> "Current":
        """The current a file describes.  Beyond the constructor's rules the
        file's spine must have exactly the keys of ``spine``, agree with the
        spine derived from its first value (modulo n over Z/nZ), and a "Z"
        or "Z/nZ" file must hold integers only.  A window wider than
        ``require_window`` allows is refused first, with that check's own
        text rather than an "invalid current" one."""
        ring = json_shape(data.get("ring"), "string", '"ring"')
        window = [json_shape(j, "integer", 'a "window" entry')
                  for j in json_shape(data.get("window"), "list", '"window"', 2)]
        period = json_shape(data.get("period"), "integer or null", '"period"')
        cusp, spine = (json_shape(data.get(part), "object", f'"{part}"')
                       for part in ("cusp", "spine"))
        n = re.fullmatch(r"Z/([1-9][0-9]*)Z", ring)
        if not n and ring not in ("Z", "Zp"):
            raise ValueError('"ring" must be "Z", "Zp" or "Z/nZ" with n a positive '
                             f'integer, not {ring!r}')
        modulus = int(n[1]) if n else None
        require_window(window[1] - window[0])

        def dec(v):
            v = json_shape(v, "integer or string", "a current value")
            if type(v) is int:
                return v
            return int(v) if "/" not in v else parse_fraction(v)

        cusp = {int(j): dec(v) for j, v in cusp.items()}
        spine = {int(j): dec(v) for j, v in spine.items()}
        first = window[0] - 1 if period is None else 0
        try:
            c = cls(tuple(window), tuple(sorted(cusp.items())), spine.get(first, 0),
                    period, modulus)
            if sorted(spine) != list(c._spine):
                raise ValueError(f"spine keys must be exactly {first}..{window[1]}")
            if not all(_congruent(spine[j], v, modulus) for j, v in c.spine):
                raise ValueError("defining relation fails")
            if ring != "Zp" and not all(isinstance(v, int) for v in
                                        [*cusp.values(), *spine.values()]):
                raise ValueError(f"a current over {ring} needs integer values")
        except ValueError as exc:
            raise ValueError(f"invalid current: {exc}") from None
        return c


def current_x() -> Current:
    """c_0: all cusp values 0, all spine values 1; alpha(c_0) = x."""
    return Current.periodic(1, {0: 0}, spine0=1)


class EvalResult(_Record):
    """A computed value together with a certified error valuation: the true
    quantity differs from ``value`` by something of valuation >= error_valuation.
    ``pole_ord`` = -1 marks evaluation at a cusp of the current."""

    __slots__ = _fields = ("value", "error_valuation", "pole_ord")

    def __init__(self, value: Union[PadicNumber, Fraction, None],
                 error_valuation: Union[Fraction, float], pole_ord: Optional[int] = None):
        _set_field(self, "value", value)
        _set_field(self, "error_valuation", error_valuation)
        _set_field(self, "pole_ord", pole_ord)

    @property
    def is_pole(self) -> bool:
        return self.pole_ord is not None


def _integer_ring(c: Current, what: str) -> str:
    """c.ring, after refusing a Z/nZ current: its values are residues, and a
    value of alpha or delta would depend on the representatives."""
    if c.modulus is not None:
        raise ValueError(f"{what} needs an integer current, not Z/nZ")
    return c.ring


def _grid_index(z: PadicNumber, q: PadicNumber) -> Optional[int]:
    """j with z = q^j exactly, if any."""
    vz, vq = z.exact_valuation, _tate_valuation(q)
    if vz == INF:
        return None
    t = Fraction(vz) / Fraction(vq)
    if t.denominator != 1:
        return None
    t = int(t)
    return t if (z - q ** t).is_exact_zero else None


def alpha_eval(c: Current, q: PadicNumber, z: Union[PadicNumber, BallPoint],
               J: Optional[int] = None) -> EvalResult:
    """Evaluate alpha(c); exact (error valuation +inf) once the window covers
    the support.

    Periodic currents are admitted only when cusp-free (alpha = x^spine);
    otherwise the one-orbit product has no certified tail in rank 1.  At a
    ball point the value is the log-seminorm N*v(q) + ``product_at``.
    """
    if J is not None and J < 0:
        raise ValueError("J must be nonnegative")
    ring = _integer_ring(c, "alpha")
    support = c.support()
    if c.period is not None and support:
        raise ValueError("alpha of a periodic current with cusps is only "
                         "defined up to regularization; use a window current")
    if J is not None and any(abs(j) > J for j in support):
        raise ValueError(f"window J={J} does not cover the support {support}")
    if ring != "Z":
        raise ValueError("alpha needs integer current values")
    fd = _factored(c, support)
    N = -sum(j * k for j, k in fd.zeros if j <= 0)
    vq = _tate_valuation(q)
    if isinstance(z, BallPoint):
        return EvalResult(N * vq + product_at(fd.factors(q), z), INF)
    if z.is_exact_zero:
        raise PoleCollisionError("alpha is evaluated on G_m: z must be nonzero")
    try:
        value = product_at(fd.factors(q), z)
    except PoleCollisionError:
        j = next(j for j, k in fd.zeros if k < 0 and q ** j == z)
        raise PoleCollisionError(f"z collides with the pole q^{j}") from None
    return EvalResult(value * q ** N, INF)


class FactoredFunction(_Record):
    """f = x^m * prod_j (x - q^j)^(k_j) over a finite set of grid indices."""

    __slots__ = _fields = ("x_exponent", "zeros")

    def __init__(self, x_exponent: int, zeros: Tuple[Tuple[int, int], ...]):
        _set_field(self, "x_exponent", x_exponent)
        _set_field(self, "zeros", tuple(sorted((j, k) for j, k in zeros if k != 0)))

    @property
    def total_degree(self) -> int:
        return self.x_exponent + sum(k for _, k in self.zeros)

    def value(self, q: PadicNumber, w: PadicNumber) -> PadicNumber:
        return product_at(self.factors(q), w)

    def factors(self, q: PadicNumber) -> Tuple[Tuple[PadicNumber, int], ...]:
        """f as factors (a, k) of prod (x - a)^k for ``product_at``: (0, m)
        when m != 0, then (q^j, k_j), all at q's prec; computed once for
        repeated evaluation."""
        head = ()
        if self.x_exponent:
            head = ((PadicNumber.zero(q.p, q.prec), self.x_exponent),)
        return head + tuple((q ** j, k) for j, k in self.zeros)


def current_from_slopes(fd: FactoredFunction, q: PadicNumber) -> Current:
    """Current with cusp values the multiplicities k_j and spine values fixed
    by the defining relation from c(e'_0) = m + sum_{j>=1} k_j; alpha of the
    result equals f up to a nonzero scalar."""
    cusp = {j: k for j, k in fd.zeros}
    s0 = fd.x_exponent + sum(k for j, k in fd.zeros if j >= 1)
    if not cusp:
        return Current.windowed({}, left_spine=s0)
    jmin = min(cusp)
    left = s0 - sum(v for j, v in cusp.items() if jmin <= j <= 0)
    return Current.windowed(cusp, left_spine=left)


def _factored(c: Current, js) -> FactoredFunction:
    """x^m prod_{j in js} (x - q^j)^(c(e_j)) with m = c(e'_0) - sum_{j>=1} c(e_j)."""
    zeros = tuple((j, c.cusp_at(j)) for j in js)
    m = c.spine_at(0) - sum(k for j, k in zeros if j >= 1)
    return FactoredFunction(x_exponent=m, zeros=zeros)


def factored_alpha(c: Current) -> FactoredFunction:
    """Factored form of alpha(c) for a window-supported integer current:
    x-exponent c(e'_0) - sum_{j>=1} c(e_j), zero multiplicities the cusp values."""
    _integer_ring(c, "alpha")
    if not c.is_window_supported:
        raise ValueError("factored form needs a window-supported current")
    return _factored(c, c.support())


def delta_eval(c: Current, q: PadicNumber, z: PadicNumber,
               J: Optional[int] = None) -> EvalResult:
    """Coefficient of dx in delta(c) at z, with a certified tail valuation.

    Window currents evaluate exactly; periodic currents with cusps are
    truncated to |j| <= J.  The value is m/z + sum_j c(e_j)/(z - q^j) over
    the factors of alpha (of the truncation, with its own m).  Evaluation
    at a cusp q^j with c(e_j) != 0 returns the ord = -1 marker instead of a
    value.
    """
    if J is not None and J < 0:
        raise ValueError("J must be nonnegative")
    _integer_ring(c, "delta")
    t = _grid_index(z, q)
    if t is not None and c.cusp_at(t) != 0:
        return EvalResult(None, INF, pole_ord=-1)
    if z.is_exact_zero:
        raise PoleCollisionError("delta has its dx/x kernel at z = 0")
    js, err = c.support(), INF
    if not c.is_window_supported and js:
        if J is None:
            raise ValueError("periodic currents with cusps need a truncation window J")
        vq, vz = _tate_valuation(q), valuation(z)
        if not ((J + 1) * vq > vz and -(J + 1) * vq < vz):
            raise TailCertificateError(
                "window too small: grid points of index beyond J are not "
                "separated from z")
        if any(cj and vp_fraction(Fraction(cj), q.p) < 0 for _, cj in c.cusp):
            raise ValueError("tail certificates need p-integral cusp values")
        js, err = range(-J, J + 1), min((J + 1) * vq - 2 * vz, (J + 1) * vq)
    fd = _factored(c, js)  # drops each j with c(e_j) = 0, as the support does
    value = z.inverse() * fd.x_exponent
    for j, k in fd.zeros:
        value = value + (z - q ** j).inverse() * k
    return EvalResult(value, err)


def moebius(n: int) -> int:
    """Moebius function by trial factorization (window-sized inputs)."""
    if n < 1:
        raise ValueError("moebius needs a positive integer")
    require_window(n)
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def moebius_current(n: int, J: int) -> Current:
    """Truncation of the current with cusp values mu(j/n) at j = n, 2n, ...
    (up to J*n) and spine values the Moebius partial sums; zero for j <= 0.

    Its window is [n, kn], k the largest squarefree number <= J (k = 1
    when J = 0).  The two refusals that building it would meet, mu of a
    number beyond ``require_window`` and the constructor's check of that
    window, run before mu(1..J) is computed; finding k costs J - k + 1
    values of mu."""
    if n < 1:
        raise ValueError("n must be positive")
    if J < 0:
        raise ValueError("J must be nonnegative")
    require_window(J)
    top = next((k for k in range(J, 0, -1) if moebius(k)), 1)
    require_window((top - 1) * n)
    cusp = {k * n: moebius(k) for k in range(1, J + 1)}
    return Current.windowed(cusp, left_spine=0)


def delta_at_one(n: int, q: PadicNumber, J: int) -> EvalResult:
    """delta(c_n)(1) for the Moebius current c_n = ``moebius_current(n, J)``,
    that is sum_{j<=J} mu(j) q^(jn) / (1 - q^(jn)); it equals q^n up to a
    tail of valuation >= n(J+1)v(q)."""
    res = delta_eval(moebius_current(n, J), q, PadicNumber.one(q.p, q.prec))
    return EvalResult(res.value, Fraction(n) * (J + 1) * _tate_valuation(q))


def poly_current_eval(P: Sequence[Value], q: PadicNumber, J: int) -> EvalResult:
    """delta(c_P)(1) for c_P = a_0 c_0 + sum_{n>=1} a_n c_n with P = sum a_n X^n;
    equals P(q) within the certified truncation error."""
    vq = _tate_valuation(q)
    coeffs = list(P)
    total = current_x().scale(coeffs[0]) if coeffs else current_x().scale(0)
    for n, a in enumerate(coeffs[1:], start=1):
        if a != 0:
            total = total + moebius_current(n, J).scale(a)
    res = delta_eval(total, q, PadicNumber.one(q.p, q.prec))
    err = INF
    for n, a in enumerate(coeffs[1:], start=1):
        if a != 0:
            va = vp_fraction(Fraction(a), q.p)
            if va < 0:
                raise ValueError("polynomial coefficients must lie in Z_p")
            err = min(err, va + Fraction(n) * (J + 1) * vq)
    return EvalResult(res.value, err)


def _require_theta_degree(fd: FactoredFunction) -> None:
    if fd.x_exponent != 0 or fd.total_degree != 0:
        raise ValueError("theta products need x_exponent = 0 and total degree 0")


def theta_automorphy_constant(fd: FactoredFunction, q: PadicNumber) -> PadicNumber:
    """The constant value of f_{Gamma'}(q^l z) / f_{Gamma'}(z): f(0) =
    prod_j (-q^j)^(k_j) for the degree-zero factorization (x_exponent = 0,
    total degree 0) a theta product needs; any other f raises ValueError."""
    _require_theta_degree(fd)
    return fd.value(q, PadicNumber.zero(q.p, q.prec))


def _theta_exponents(zeros: Sequence[Tuple[int, int]], l: int,
                     M: int) -> list:
    """The pairs (m, e_m) with e_m != 0, in increasing m, where e_m = sum k
    over the (j, k) in ``zeros`` with m = lk' - j for some |k'| <= M.

    Each j adds k to every m = -lM - j, -lM - j + l, ..., lM - j, all in
    the residue class -j mod l.  So each class holds a step function with
    a rise of k at -lM - j and a fall of k one step past lM - j; sweeping
    each class's sorted steps costs O(#zeros log #zeros) plus one entry per
    nonzero e_m, where a dict of every m would hold (2M + 1) * #zeros.
    """
    steps: Dict[int, list] = {}  # residue class -> its (m, rise) steps
    for j, k in zeros:
        steps.setdefault(-j % l, []).extend(((-l * M - j, k), (l * M - j + l, -k)))
    out = []
    for ends in steps.values():
        ends.sort()
        e = 0
        for (a, rise), (b, _) in zip(ends, ends[1:]):
            e += rise
            if e:
                out.extend((m, e) for m in range(a, b, l))
    out.sort()  # merges the classes' sorted runs
    return out


class ThetaRequest(_Record):
    """A theta request, checked once on construction so that no invalid one
    exists: f, q, l, z, z0 and M as ``theta_product`` takes them, with
    v(q), v(z0) and the relative tail bound ``rel`` of the product at z.
    ``product`` and ``automorphy_ratio`` both read it, so a caller that
    wants both, as the CLI does, checks the request once.

    The checks run in a fixed order, each with its own error: l and M, the
    degree of f, z and z0 in G_m, q a Tate parameter, z and z0 off every
    zero/pole q^(j + ls) of a Gamma'-translate of f, and a positive tail
    bound at z.  A point w can be such a q^(j + ls) only when
    t = v(w)/v(q) is an integer with t = j mod l, so the power q^t and the
    exact comparison run only then.
    """

    _fields = ("fd", "q", "l", "z", "z0", "M")
    __slots__ = _fields + ("vq", "vz0", "rel")

    def __init__(self, fd: FactoredFunction, q: PadicNumber, l: int,
                 z: PadicNumber, z0: PadicNumber, M: int):
        if l < 1 or M < 0:
            raise ValueError("l must be positive, M nonnegative")
        _require_theta_degree(fd)
        if z.is_exact_zero or z0.is_exact_zero:
            raise PoleCollisionError("z and z0 must lie in G_m")
        vq = _tate_valuation(q)
        vz, vz0 = z.exact_valuation, z0.exact_valuation
        for w, vw, name in ((z, vz, "z"), (z0, vz0, "z0")):
            t = vw / vq
            if t.denominator == 1 and \
                    any((t.numerator - j) % l == 0 for j, _ in fd.zeros) and \
                    (w - q ** t.numerator).is_exact_zero:
                raise PoleCollisionError(
                    f"{name} meets a zero/pole of a Gamma'-translate of f")
        _set_field(self, "fd", fd)
        _set_field(self, "q", q)
        _set_field(self, "l", l)
        _set_field(self, "z", z)
        _set_field(self, "z0", z0)
        _set_field(self, "M", M)
        _set_field(self, "vq", vq)
        _set_field(self, "vz0", vz0)
        _set_field(self, "rel", self._tail_bound(vz))

    def _tail_bound(self, vz):
        """Relative tail bound of the theta product at a point of valuation
        vz: the truncated product differs from the full one by a factor
        1 + O(p^rel), with rel = +inf when f is constant.  A bound <= 0
        certifies nothing and raises TailCertificateError."""
        zeros = self.fd.zeros
        if not zeros:
            return INF
        l, M, vq, vz0 = self.l, self.M, self.vq, self.vz0
        jmin, jmax = zeros[0][0], zeros[-1][0]  # the zeros are sorted
        beta_pos = (l * (M + 1) - jmax) * vq + min(vz, vz0)
        beta_neg = (l * (M + 1) + jmin) * vq - max(vz, vz0)
        rel_err = min(beta_pos, beta_neg)
        if rel_err <= 0:
            raise TailCertificateError(
                f"truncation M={M} cannot certify the tail (bound {rel_err})")
        return rel_err

    def product(self) -> EvalResult:
        """Truncated theta product prod_{|k|<=M} f(q^(lk) z)/f(q^(lk) z0)
        for the subgroup q^(lZ), with a certified tail valuation.

        Requires a degree-zero factorization with no zero/pole at 0 or
        infinity (x_exponent = 0 and total degree 0): that is the
        convergent core of the rank-1 theta construction.

        The product telescopes.  With f(w) = prod_j (w - q^j)^(k_j), each
        factor q^(lk) w - q^j is q^j (q^(lk-j) w - 1) and the q^(j k_j)
        cancel between z and z0, so f(q^(lk) z)/f(q^(lk) z0) =
        prod_j R(lk - j)^(k_j) with R(m) = (q^m z - 1)/(q^m z0 - 1).  The
        product is therefore prod_m R(m)^(e_m), where e_m = sum k_j over
        the pairs (j, k) with lk - j = m and |k| <= M, and only the m with
        e_m != 0 are evaluated.  At l = 1 the total degree 0 makes every
        interior e_m vanish, so a request costs O(#zeros * span of j)
        factors instead of O(M).  The grid checks of the constructor keep
        every q^m z and q^m z0 off 1.
        """
        q, z, z0 = self.q, self.z, self.z0
        value = one = PadicNumber.one(q.p, min(q.prec, z.prec, z0.prec))
        g, at, powers = PadicNumber.one(q.p, q.prec), 0, {}  # g = q^at
        for m, em in _theta_exponents(self.fd.zeros, self.l, self.M):
            if m - at not in powers:
                powers[m - at] = q ** (m - at)
            g, at = g * powers[m - at], m
            num, den = g * z - one, g * z0 - one
            if em < 0:
                num, den = den, num
            value = value * (num / den) ** abs(em)
        # the tail bound is multiplicative; report it additively
        return EvalResult(value, self.rel + value.exact_valuation)

    def automorphy_ratio(self) -> EvalResult:
        """theta(q^l z) / theta(z) for the truncated products of ``product``.

        The quotient telescopes: every factor at z0 cancels, and so does
        every factor at z but the two end ones, leaving
        f(q^(l(M+1)) z) / f(q^(-lM) z) exactly.  Its relative error is the
        worse of the two products' tail bounds, so both requests are
        checked as ``product`` would check them, z's first.  The check at
        q^l z follows from z's: v(q^l z) = v(z) + l v(q), and q^l z is a
        grid point exactly when z is, with index t + l, which meets the
        same translates of the zeros; so only its tail bound is new.  Like
        the quotient of the two products, the value carries z0's prec too.
        """
        fd, q, l, M, z = self.fd, self.q, self.l, self.M, self.z
        rel = min(self.rel, self._tail_bound(z.exact_valuation + l * self.vq))
        # the grid checks keep both end translates of z off the zeros of f
        factors = fd.factors(q)
        num = product_at(factors, q ** (l * (M + 1)) * z)
        den = product_at(factors, q ** (-l * M) * z)
        value = PadicNumber.one(q.p, self.z0.prec) * num / den
        return EvalResult(value, rel + value.exact_valuation)


def theta_product(fd: FactoredFunction, q: PadicNumber, l: int,
                  z: PadicNumber, z0: PadicNumber, M: int) -> EvalResult:
    """The truncated theta product: ``ThetaRequest(...).product()``."""
    return ThetaRequest(fd, q, l, z, z0, M).product()


class LadderResult(_Record):
    """Certified ladder value of ord_z(delta(c)) + 1.

    ``table`` records, for each canonical ladder depth n, the least torsor
    level m whose splitting point has entered [z, z'_n]; the certified
    consecutive difference is the estimate.
    """

    __slots__ = _fields = ("value", "pole", "table")

    def __init__(self, value: int, pole: bool, table: Tuple[Tuple[int, int], ...] = ()):
        _set_field(self, "value", value)
        _set_field(self, "pole", pole)
        _set_field(self, "table", table)


def _binomial_factor(p: int, u: PadicNumber, mexp: int, degree: int) -> BoundedSeries:
    """(1 + u*T)^mexp as a BoundedSeries (integer exponent, possibly negative)."""
    top = degree if mexp < 0 else min(mexp, degree)
    one = PadicNumber.one(p, u.prec)
    coeffs = _power_coeffs((one, u), Fraction(mexp), one, top)
    if 0 <= mexp <= degree:
        tail = None
    else:
        tail = TailBound(u.exact_valuation, Fraction(0))
    return BoundedSeries(p, tuple(coeffs), tail)


def alpha_germ(c: Current, q: PadicNumber, z: PadicNumber,
               degree: int = 8) -> BoundedSeries:
    """Normalized germ alpha(c)(z+T)/alpha(c)(z) = (1+T/z)^m *
    prod_j (1 + T/(z-q^j))^(k_j), as a BoundedSeries in T."""
    p = q.p
    out = BoundedSeries.build(p, [1], None, min(q.prec, z.prec))
    for center, k in factored_alpha(c).factors(q):
        dz = z - center
        if dz.is_exact_zero:
            raise PoleCollisionError("germ base point hits a zero/pole of alpha")
        out = out.mul(_binomial_factor(p, dz.inverse(), k, degree), trunc=degree)
    return out


def ladder_ord(c: Current, q: PadicNumber, z: PadicNumber, nmax: int) -> LadderResult:
    """Ladder computation of ord_z(delta(c)) + 1.

    Row n of the table is m_min(n), the least torsor level whose splitting
    log-radius for the germ f of alpha(c) about z reaches the ladder point
    z'_n = b_{z, t_n}, t_n = v(z) + n + 1/(p-1) (``series._least_root_level``).
    Row n is settled when t_n > -(tail slope of f - 1), the point (e0, w_e0)
    of f - 1 attains min (t_n*j + w_j) and x_n = t_n*e0 + w_e0 - 1/(p-1) > 0:
    then m_min(n) = ceil(x_n), and x_{n+1} = x_n + e0, so settled rows differ
    by e0 = ord_z(delta(c)) + 1.  The value needs the last min(3, nmax - 1)
    + 1 rows settled and no level above 16(nmax + 4), else
    NonStabilizedError.  A cusp short-circuits to 0 (= ord(-1) + 1).
    """
    if nmax < 2:
        raise ValueError("nmax must be at least 2 to observe a difference")
    require_window(nmax)
    _integer_ring(c, "the ladder")
    p = q.p
    t = _grid_index(z, q)
    if t is not None and c.cusp_at(t) != 0:
        return LadderResult(value=0, pole=True)
    vz = valuation(z)
    if vz == INF:
        raise ValueError("z must be a nonzero type-1 point")
    for d in (8, 16, 32, 64):
        try:
            germ = RamifiedGerm(alpha_germ(c, q, z, degree=d))
            break
        except PrecisionExhaustedError:
            if d == 64:
                raise
    points, alpha_u = _unit_points(germ.series)
    e0, offset = germ.e0, Fraction(1, p - 1)
    w0 = dict(points)[e0]
    cap = 16 * (nmax + 4)
    table, settled = [], []
    for n in range(1, nmax + 1):
        tn = vz + n + offset
        m, x = _least_root_level(points, alpha_u, p, tn)
        if m > cap:
            raise NonStabilizedError(
                f"no torsor level below {cap} reaches ladder depth {n}")
        table.append((n, m))
        settled.append(tn > -alpha_u and 0 < x == tn * e0 + w0 - offset)
    if not all(settled[-min(3, nmax - 1) - 1:]):
        diffs = [table[i + 1][1] - table[i][1] for i in range(nmax - 1)]
        raise NonStabilizedError(f"ladder differences not certified within "
                                 f"nmax={nmax}: {diffs}; raise nmax")
    return LadderResult(value=e0, pole=False, table=tuple(table))
