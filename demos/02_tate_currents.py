"""Currents on the Tate tree: the defining relation, the function/current
dictionary, the Moebius-Lambert identity delta(c_n)(1) = q^n, polynomial
probes, theta products, and the ladder computation of vanishing orders.

Run with:  python3 demos/02_tate_currents.py
"""

from fractions import Fraction

from nonarch import (Current, FactoredFunction, PadicNumber, alpha_eval,
                     alpha_germ, current_from_slopes, current_x, delta_at_one,
                     delta_eval, dlog_ord, factored_alpha, ladder_ord,
                     moebius_current, padic_digit_string, poly_current_eval,
                     theta_automorphy_constant, theta_product)

p = 3
q = PadicNumber.from_rational(p, p)

# --- the simplest current ------------------------------------------------
# c_0 has cusp values 0 and spine values 1; it realizes the coordinate
# function: alpha(c_0) = x and delta(c_0) = dx/x.  A Current stores its cusp
# values and one spine value; the defining relation
# c(e'_{j+1}) = c(e'_j) + c(e_{j+1}) derives the others, so it always holds.
# Its constructor checks the rest, such as a zero cusp sum over a period.
c0 = current_x()
try:
    Current.periodic(2, {0: 1, 1: 1})
except ValueError as exc:
    print("periodic current with cusp values 1, 1:", exc)
z = PadicNumber.from_rational(p, 5)
print("alpha(c_0)(5) =", alpha_eval(c0, q, z).value.rat)
print("delta(c_0)(1) =", delta_eval(c0, q, PadicNumber.one(p)).value.rat)

# --- functions <-> currents ----------------------------------------------
# A factored function x^m prod (x - q^j)^(k_j) corresponds to the current
# with cusp values k_j; the spine is fixed by the defining relation.
fd = FactoredFunction(x_exponent=2, zeros=((1, 1), (-1, -2)))
c = current_from_slopes(fd, q)
print("\ncurrent of x^2 (x-q) (x-q^-1)^-2:")
print("  cusp:", dict(c.cusp))
print("  spine:", dict(c.spine))
print("  round trip:", current_from_slopes(factored_alpha(c), q) == c)

# --- Moebius-Lambert ------------------------------------------------------
# The Moebius current c_n has cusp values mu(j/n) on the multiples of n;
# its differential at 1 telescopes to q^n with an explicit tail bound.
print("\nMoebius current n=2, window J=4:", dict(moebius_current(2, 4).cusp))
for n in (1, 2, 3):
    res = delta_at_one(n, q, 12)
    print(f"delta(c_{n})(1) = {padic_digit_string(res.value, res.error_valuation)}"
          f"   [target q^{n}]")

# --- polynomial probe -----------------------------------------------------
# c_P = a_0 c_0 + sum a_n c_n evaluates to P(q) within the certificate.
P = [1, -1, 0, 2]  # 1 - X + 2X^3
res = poly_current_eval(P, q, 12)
direct = sum((Fraction(a) * Fraction(p) ** k for k, a in enumerate(P)),
             Fraction(0))
print(f"\ndelta(c_P)(1) vs P(q): difference valuation = "
      f"{(res.value - PadicNumber.from_rational(p, direct)).exact_valuation} "
      f">= certified {res.error_valuation}")

# --- theta products -------------------------------------------------------
# For a degree-zero factorization, the one-orbit theta product converges
# and transforms by the constant f(0)/f(inf) under the subgroup generator.
fd = FactoredFunction(0, ((1, 1), (2, -1)))
z0 = PadicNumber.from_rational(p, 2)
const = theta_automorphy_constant(fd, q)
print("\nautomorphy constant:", const.rat)
for zr in (5, 7):
    zz = PadicNumber.from_rational(p, zr)
    th = theta_product(fd, q, 2, zz, z0, 8)
    sh = theta_product(fd, q, 2, (q ** 2) * zz, z0, 8)
    ratio = (sh.value / th.value)
    print(f"  z={zr}: v(ratio - const) = {(ratio - const).exact_valuation}")

# --- ladder computation of ord --------------------------------------------
# The splitting points of the p^m-torsors of alpha(c) about z climb the
# ladder with slope ord_z(delta(c)) + 1.
c = current_from_slopes(FactoredFunction(5, ((1, 10), (2, 24))), q)
zz = PadicNumber.from_rational(p, 5)
res = ladder_ord(c, q, zz, nmax=6)
print("\nladder table (n, least torsor level):", res.table)
print("stabilized slope:", res.value,
      "= dlog_ord + 1 =", dlog_ord(alpha_germ(c, q, zz)) + 1)
