"""Independent slow paths that the tests check the library against.

None of this is library code: the Abel-Jacobi closed form builds no jet, and
nothing in `pinchjac` inverts a jet or takes an exponential. These functions
give the series the closed form must agree with, computed the long way: the
jet of a rational function by series division (after a Taylor shift), the
jet inverse by the triangular recurrence, and the truncated exponential by
its power sum.
Tests import them with `from oracles import ...`.
"""

from __future__ import annotations

from fractions import Fraction

from pinchjac.algebra import Jet, P1Point, Poly
from pinchjac.errors import NonUnit, OrderNonpositive, PinchjacError


class DenominatorVanishes(PinchjacError):
    """The denominator of a rational function vanishes at the chosen center."""


def poly_shifted(p: Poly, a) -> Poly:
    """Coefficients of p(s + a): the expansion of p around the point a."""
    a = Fraction(a)
    out = Poly.zero()
    s_plus_a = Poly((a, 1))
    for c in reversed(p.coeffs):
        out = out * s_plus_a + Poly.constant(c)
    return out


def jet_inverse(jet: Jet) -> Jet:
    """Multiplicative inverse of a unit jet; exact at the truncation order."""
    if not jet.is_unit:
        raise NonUnit("cannot invert a jet with zero constant term")
    inv0 = 1 / jet.coeffs[0]
    out = [inv0] + [Fraction(0)] * (jet.order - 1)
    for k in range(1, jet.order):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += jet.coeffs[j] * out[k - j]
        out[k] = -inv0 * acc
    return Jet(jet.order, tuple(out))


def unit_exp(v: Jet) -> Jet:
    """Truncated exponential of a jet with zero constant term."""
    if v.constant_term != 0:
        raise ValueError("unit_exp requires a jet with zero constant term")
    result = Jet.constant(1, v.order)
    power = Jet.constant(1, v.order)
    factorial = 1
    for k in range(1, v.order):
        power = power * v
        factorial *= k
        result = result + power * Fraction(1, factorial)
    return result


def jet_of_rational_function(numerator: Poly, denominator: Poly,
                             center: P1Point, order: int) -> Jet:
    """Jet of numerator/denominator at the center, in the canonical coordinate.

    At a finite point a the coordinate is s = t - a; at infinity it is
    s = 1/t, where a polynomial p reads t^deg * p(1/t), its coefficients
    reversed. The denominator must not vanish at the center (for the center
    at infinity this means the function must not have a pole there).
    """
    if order < 1:
        raise OrderNonpositive(f"jet order must be >= 1, got {order}")
    if center.is_infinity:
        dn, dd = numerator.degree, denominator.degree
        if denominator.is_zero or (not numerator.is_zero and dn > dd):
            raise DenominatorVanishes("pole at infinity")
        if numerator.is_zero:
            return Jet.constant(0, order)
        num_local = Poly(tuple(reversed(numerator.coeffs)))
        den_local = Poly(tuple(reversed(denominator.coeffs)))
        valuation = dd - dn
    else:
        a = center.value
        num_local = poly_shifted(numerator, a)
        den_local = poly_shifted(denominator, a)
        if den_local.coefficient(0) == 0:
            raise DenominatorVanishes(f"denominator vanishes at {center}")
        valuation = 0
    den_jet = Jet.make(order, den_local.coeffs[:order])
    series = Jet.make(order, num_local.coeffs[:order]) * jet_inverse(den_jet)
    if valuation == 0:
        return series
    if valuation >= order:
        return Jet.constant(0, order)
    shifted = (Fraction(0),) * valuation + series.coeffs[: order - valuation]
    return Jet(order, shifted)
