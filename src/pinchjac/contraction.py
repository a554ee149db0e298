"""Contraction subalgebras of the polynomial ring.

Contracting a finite subscheme of the affine line with vanishing ideal (g)
produces the subalgebra K + (g) of polynomials of the form constant +
multiple of g. For g monic of degree e that subalgebra is generated by g,
g*t, ..., g*t^(e-1). Each generator set ships with a per-degree dimension
certificate computed by counting degrees: every product of the generators is
monic, so products of distinct degrees are linearly independent, and all of
them lie in K + (g), whose slice of degree at most d has dimension d - e + 2
for d >= e and 1 below e. Where the number of distinct product degrees up to
d meets that bound, the products span the slice. Membership is read off the
g-adic expansion of f (its Taylor expansion in base g): f lies in K + (g)
exactly when its lowest digit, f mod g, is a constant. The higher digits then
give the positive answer's explicit polynomial expression in the generators,
which re-expands to the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import prod
from typing import Union

from .algebra import P1Point, Poly, as_integer
from .curve_model import Branch, Component, CurveConfig, Singularity
from .errors import CertificateFailure, DegreeOne, InfinityUnsupported, NotMonic


@dataclass(frozen=True)
class FiniteSubscheme:
    """Finite closed subscheme of the line: points (numbers or P1Points) with multiplicities."""

    points: tuple[tuple[P1Point, int], ...]

    def __post_init__(self):
        points = tuple((P1Point.of(p), as_integer(m, "a multiplicity")) for p, m in self.points)
        if not points:
            raise ValueError("a finite subscheme needs at least one point")
        seen = set()
        infinities = 0
        for point, mult in points:
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            if point in seen:
                raise ValueError(f"repeated point {point}")
            seen.add(point)
            if point.is_infinity:
                infinities += 1
        if infinities > 1:
            raise ValueError("at most one point at infinity")
        object.__setattr__(self, "points", points)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.points)

    @property
    def has_infinity(self) -> bool:
        return any(p.is_infinity for p, _ in self.points)


def finite_subscheme(points) -> FiniteSubscheme:
    """Build a subscheme from (point-like, multiplicity) pairs."""
    return FiniteSubscheme(tuple(points))


def vanishing_ideal_generator(z: FiniteSubscheme) -> Poly:
    """Monic generator of the ideal of z: the product of (t - a)^mult."""
    if z.has_infinity:
        raise InfinityUnsupported("the subscheme must have affine support")
    g = Poly.one()
    for point, mult in z.points:
        g = g * Poly((-point.value, 1)) ** mult
    return g


# --------------------------------------------------------------------------
# Generator sets and their dimension certificate
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSet:
    generators: tuple[Poly, ...]
    degree_bound: int
    hilbert_checked_to: int


def _degree_sum_counts(degrees: list[int], depth: int) -> list[int]:
    """counts[d]: how many of 0..d are sums of the given degrees (0 is the empty sum)."""
    reachable = [True] + [False] * depth
    for d in range(1, depth + 1):
        reachable[d] = any(k <= d and reachable[d - k] for k in degrees)
    return list(accumulate(map(int, reachable)))


def _generators(g: Poly) -> tuple[Poly, ...]:
    """g*t^k for k < deg g, for a monic g of degree at least 1."""
    if not g.is_monic:
        raise NotMonic(f"expected a monic polynomial, got {g}")
    e = g.degree
    if e < 1:
        raise ValueError("the generator must have degree at least 1")
    return tuple(g * Poly.monomial(k) for k in range(e))


def contraction_generators(g: Poly) -> GeneratorSet:
    """Generators g*t^k (k < deg g) of the subalgebra K + (g), certified.

    The certificate checks, for every degree d up to 3*deg(g) + 3 (recorded
    as ``hilbert_checked_to``), that products of generators span the slice of
    K + (g) of degree at most d. The products are monic and a product's
    degree is the sum of its factors' degrees, so the number of distinct
    degree sums up to d (the empty product gives 0) bounds the span's
    dimension from below; the slice's dimension max(1, d - e + 2) bounds it
    from above. The degree sums are counted with integers, and any degree
    where the count misses the bound raises ``CertificateFailure``.
    """
    generators = _generators(g)
    e = len(generators)
    depth = 3 * e + 3

    counts = _degree_sum_counts([gen.degree for gen in generators], depth)
    for d, achieved in enumerate(counts):
        expected = max(1, d - e + 2)
        if achieved != expected:
            raise CertificateFailure(
                f"degree {d}: span dimension {achieved}, expected {expected}"
            )
    return GeneratorSet(generators, degree_bound=2 * e - 1, hilbert_checked_to=depth)


# --------------------------------------------------------------------------
# Membership with certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipCertificate:
    """f = constant + sum of coefficient * product of generators^exponents."""

    constant: Fraction
    terms: tuple[tuple[Fraction, tuple[int, ...]], ...]
    generators: tuple[Poly, ...]

    def expand(self) -> Poly:
        """The constant plus the terms as listed, each generator power built once."""
        powers: dict[tuple[int, int], Poly] = {}
        total = Poly.constant(self.constant)
        for coefficient, exponents in self.terms:
            factors = []
            for i, exp in enumerate(exponents):
                if exp:
                    if (i, exp) not in powers:
                        powers[i, exp] = self.generators[i] ** exp
                    factors.append(powers[i, exp])
            product = prod(factors[1:], start=factors[0]) if factors else Poly.one()
            total = total + product * coefficient
        return total


@dataclass(frozen=True)
class NotMember:
    """Negative membership answer with the degree where expression fails."""

    failing_degree: int


def subalgebra_membership(f: Poly, g: Poly) -> Union[MembershipCertificate, NotMember]:
    """Decide f in K + (g) and certify the answer.

    Repeated division by g gives the g-adic expansion f = d_0 + d_1 g + d_2 g^2
    + ..., each digit d_q of degree below e = deg g. So f lies in K + (g)
    exactly when d_0 = f mod g is a constant, and the negative answer reports
    the lowest nonzero degree of f mod g. Otherwise the constant is d_0, and
    each nonzero coefficient of t^r in a digit d_q with q >= 1 is one term,
    with the monic generator product g^(q-1) * (g*t^r) of degree q*e + r. The
    terms are listed from the highest degree down.
    """
    generators = _generators(g)
    e = len(generators)

    quotient, digit = divmod(f, g)
    if digit.degree > 0:
        lowest = min(d for d in range(1, e) if digit.coefficient(d) != 0)
        return NotMember(failing_degree=lowest)
    constant = digit.coefficient(0)

    terms: list[tuple[Fraction, tuple[int, ...]]] = []
    q = 0
    while not quotient.is_zero:
        q += 1
        quotient, digit = divmod(quotient, g)
        for r, coefficient in enumerate(digit.coeffs):
            if coefficient != 0:
                exponents = [0] * e
                exponents[0] = q - 1
                exponents[r] += 1  # g^(q-1) * (g*t^r), which is g^q when r = 0
                terms.append((coefficient, tuple(exponents)))
    return MembershipCertificate(constant, tuple(reversed(terms)), generators)


# --------------------------------------------------------------------------
# Contraction of subschemes of the projective line
# --------------------------------------------------------------------------

def contract_p1(z: FiniteSubscheme) -> CurveConfig:
    """One projective line pinched along z: the curve obtained by contraction."""
    if z.degree < 2:
        raise DegreeOne("contracting a single reduced point is an isomorphism")
    branches = tuple(Branch("L", point, mult) for point, mult in z.points)
    return CurveConfig(
        name="contracted",
        components=(Component("L", genus=0),),
        singularities=(Singularity("s", branches),),
    )


@dataclass(frozen=True)
class ContractionResult:
    config: CurveConfig
    generators: GeneratorSet
    ideal_generator: Poly
    coordinate_change: str | None


def contract_with_generators(z: FiniteSubscheme) -> ContractionResult:
    """Contraction datum plus subalgebra generators.

    A subscheme meeting infinity is first moved into the affine line by the
    substitution s = 1/(t - b), with b the smallest nonnegative integer that
    is not a point of z; the change of coordinates is recorded verbatim.
    """
    config = contract_p1(z)
    change = None
    affine = z
    if z.has_infinity:
        taken = {p.value for p, _ in z.points if not p.is_infinity}
        b = Fraction(0)
        while b in taken:
            b += 1
        moved = []
        for point, mult in z.points:
            if point.is_infinity:
                moved.append((P1Point.finite(0), mult))
            else:
                moved.append((P1Point.finite(1 / (point.value - b)), mult))
        affine = FiniteSubscheme(tuple(moved))
        change = f"s = 1/(t - {b})" if b != 0 else "s = 1/t"
    generator = vanishing_ideal_generator(affine)
    generators = contraction_generators(generator)
    return ContractionResult(config, generators, generator, change)
