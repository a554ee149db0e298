from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import membership_by_cancellation
from pinchjac.algebra import INFINITY, P1Point, Poly
from pinchjac.contraction import (
    FiniteSubscheme,
    MembershipCertificate,
    NotMember,
    _degree_sum_counts,
    contract_p1,
    contract_with_generators,
    contraction_generators,
    finite_subscheme,
    subalgebra_membership,
    vanishing_ideal_generator,
)
from pinchjac.errors import DegreeOne, InfinityUnsupported, NotMonic
from pinchjac.verify import _oracle_membership


def test_subscheme_guards():
    with pytest.raises(ValueError):
        finite_subscheme([])
    with pytest.raises(ValueError):
        finite_subscheme([(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        finite_subscheme([(0, 0)])
    with pytest.raises(ValueError):
        FiniteSubscheme(((INFINITY, 1), (INFINITY, 2)))


def test_subscheme_multiplicities_must_be_integers():
    with pytest.raises(ValueError, match="must be an integer"):
        finite_subscheme([(0, Fraction(5, 2))])
    with pytest.raises(ValueError, match="must be an integer"):
        FiniteSubscheme(((P1Point.finite(0), 1.5),))
    z = finite_subscheme([(0, Fraction(2)), (1, 1)])
    assert z.points == ((P1Point.finite(0), 2), (P1Point.finite(1), 1))
    assert all(type(m) is int for _, m in z.points)


def test_vanishing_ideal_generator():
    assert vanishing_ideal_generator(finite_subscheme([(0, 1), (1, 1)])) == Poly((0, -1, 1))
    assert vanishing_ideal_generator(finite_subscheme([(0, 2)])) == Poly((0, 0, 1))
    assert vanishing_ideal_generator(finite_subscheme([(2, 1)])) == Poly((-2, 1))
    with pytest.raises(InfinityUnsupported):
        vanishing_ideal_generator(finite_subscheme([(P1Point.infinity(), 1), (0, 1)]))


def test_generator_sets():
    node = contraction_generators(Poly((0, -1, 1)))
    assert [str(g) for g in node.generators] == ["t^2 - t", "t^3 - t^2"]
    assert node.hilbert_checked_to == 9
    assert node.degree_bound == 3

    cusp = contraction_generators(Poly((0, 0, 1)))
    assert [str(g) for g in cusp.generators] == ["t^2", "t^3"]

    cubic = contraction_generators(Poly((0, 0, 0, 1)))
    assert [str(g) for g in cubic.generators] == ["t^3", "t^4", "t^5"]
    assert cubic.hilbert_checked_to == 12

    with pytest.raises(NotMonic):
        contraction_generators(Poly((0, 0, 2)))


def test_certificate_never_fires_for_small_degrees():
    rng = random.Random(3)
    for e in range(1, 7):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(e)] + [Fraction(1)]
        contraction_generators(Poly(coeffs))


def _oracle_generator_products(generators: tuple[Poly, ...], max_degree: int) -> list[Poly]:
    """All products of generators (including the empty product) of bounded degree."""
    out: list[Poly] = []

    def rec(index: int, current: Poly) -> None:
        out.append(current)
        for k in range(index, len(generators)):
            extended = current * generators[k]
            if extended.degree <= max_degree:
                rec(k, extended)

    rec(0, Poly.one())
    return out


def _oracle_echelon_pivot_degrees(polys: list[Poly]) -> set[int]:
    """Pivot degrees of the row space, by exact elimination over the rationals."""
    pivots: dict[int, Poly] = {}
    for poly in polys:
        current = poly
        while not current.is_zero:
            d = current.degree
            if d in pivots:
                current = current - pivots[d] * (current.leading / pivots[d].leading)
            else:
                pivots[d] = current
                break
    return set(pivots)


def test_degree_count_matches_row_reduction_of_products():
    # the certificate counts degree sums; the oracle multiplies every product
    # out and row-reduces, so both must give the span dimension in every degree
    rng = random.Random(29)
    for e in range(1, 7):
        for _ in range(3):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(e)]
            g = Poly(coeffs + [Fraction(1)])
            depth = 3 * e + 3
            generators = contraction_generators(g).generators
            pivots = _oracle_echelon_pivot_degrees(
                _oracle_generator_products(generators, depth)
            )
            counts = _degree_sum_counts([gen.degree for gen in generators], depth)
            assert counts == [sum(1 for p in pivots if p <= d) for d in range(depth + 1)]


# --------------------------------------------------------------------------
# Membership
# --------------------------------------------------------------------------

def test_membership_examples():
    assert subalgebra_membership(Poly((0, 1)), Poly((0, 0, 1))) == NotMember(1)

    f = Poly((0, 0, 0, 0, -1, 1))  # t^5 - t^4
    cert = subalgebra_membership(f, Poly((0, -1, 1)))
    assert isinstance(cert, MembershipCertificate)
    assert cert.expand() == f

    cert = subalgebra_membership(Poly.constant(7), Poly((0, 0, 0, 1)))
    assert isinstance(cert, MembershipCertificate)
    assert cert.constant == 7 and cert.terms == ()


def test_membership_of_generator_products():
    rng = random.Random(13)
    for _ in range(100):
        e = rng.randint(1, 6)
        g = Poly([Fraction(rng.randint(-4, 4)) for _ in range(e)] + [Fraction(1)])
        generators = [g * Poly.monomial(k) for k in range(e)]
        product = Poly.one()
        for _ in range(rng.randint(1, 3)):
            product = product * rng.choice(generators)
        cert = subalgebra_membership(product, g)
        assert isinstance(cert, MembershipCertificate)
        assert cert.expand() == product


def test_membership_of_shifted_multiples():
    rng = random.Random(17)
    for _ in range(100):
        e = rng.randint(2, 6)
        g = Poly([Fraction(rng.randint(-4, 4)) for _ in range(e)] + [Fraction(1)])
        h = Poly([Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 7))])
        f = Poly.constant(rng.randint(-9, 9)) + g * h
        cert = subalgebra_membership(f, g)
        assert isinstance(cert, MembershipCertificate)
        assert cert.expand() == f


def test_degree_one_polynomials_never_belong():
    rng = random.Random(19)
    for _ in range(100):
        e = rng.randint(2, 6)
        g = Poly([Fraction(rng.randint(-4, 4)) for _ in range(e)] + [Fraction(1)])
        slope = Fraction(rng.randint(1, 9))
        f = Poly((Fraction(rng.randint(-9, 9)), slope))
        assert subalgebra_membership(f, g) == NotMember(1)


_small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def _membership_cases(draw):
    e = draw(st.integers(1, 5))
    g = Poly(draw(st.lists(_small_rationals, min_size=e, max_size=e)) + [Fraction(1)])
    h = Poly(draw(st.lists(_small_rationals, max_size=7)))
    constant = draw(_small_rationals)
    if draw(st.booleans()):
        f = Poly.constant(constant) + g * h
    else:
        f = h + Poly.constant(constant)
    return f, g


@settings(max_examples=100, deadline=None)
@given(_membership_cases())
def test_membership_agrees_with_row_reduction_oracle(case):
    f, g = case
    answer = subalgebra_membership(f, g)
    assert isinstance(answer, MembershipCertificate) == _oracle_membership(f, g)
    if isinstance(answer, MembershipCertificate):
        assert answer.expand() == f


_digit_coefficients = st.just(Fraction(0)) | st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def _expansion_cases(draw):
    """Monic g of degree 1 to 6 and f of degree at most 30: members c + g*h,
    built from g-adic digits that often have zero coefficients, members plus
    one term below deg g, arbitrary f, zero and constants."""
    e = draw(st.integers(1, 6))
    g = Poly(draw(st.lists(_digit_coefficients, min_size=e, max_size=e)) + [Fraction(1)])
    kind = draw(st.sampled_from(("member", "near member", "arbitrary", "zero", "constant")))
    if kind in ("member", "near member"):
        digits = draw(st.lists(st.lists(_digit_coefficients, max_size=e), max_size=(31 - e) // e))
        f = Poly.constant(draw(_digit_coefficients))
        for q, digit in enumerate(digits, start=1):
            f = f + Poly(digit) * g ** q
        if kind == "near member" and e > 1:
            f = f + Poly.monomial(draw(st.integers(1, e - 1))) * draw(_digit_coefficients)
    elif kind == "arbitrary":
        f = Poly(draw(st.lists(_digit_coefficients, max_size=31)))
    elif kind == "zero":
        f = Poly.zero()
    else:
        f = Poly.constant(draw(_digit_coefficients))
    return f, g


@settings(max_examples=200, deadline=None)
@given(_expansion_cases())
def test_g_adic_membership_matches_leading_term_cancellation(case):
    # the same constant, terms in the same order, generators, or NotMember degree
    f, g = case
    answer = subalgebra_membership(f, g)
    assert answer == membership_by_cancellation(f, g)
    if isinstance(answer, MembershipCertificate):
        assert answer.expand() == f


def test_dimension_oracle_by_semigroup_reachability():
    # the closed form behind the degree count: monic products of generators
    # exist in every degree from e up, because every d >= e is a sum of
    # values in {e, ..., 2e - 1}; so the slice dimension is 1 + #{e..d}
    for e in range(1, 7):
        depth = 3 * e + 3
        reachable = {0}
        degrees = list(range(e, 2 * e))
        frontier = [0]
        while frontier:
            d = frontier.pop()
            for step in degrees:
                nxt = d + step
                if nxt <= depth and nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        for d in range(depth + 1):
            expected = max(1, d - e + 2)
            assert sum(1 for r in reachable if r <= d) == expected


# --------------------------------------------------------------------------
# Contraction to a curve
# --------------------------------------------------------------------------

def test_contract_p1_examples():
    nodal = contract_p1(finite_subscheme([(0, 1), (1, 1)]))
    sing = nodal.singularities[0]
    assert [(b.component, str(b.point), b.multiplicity) for b in sing.branches] == [
        ("L", "0", 1),
        ("L", "1", 1),
    ]

    cusp = contract_p1(finite_subscheme([(0, 2)]))
    assert cusp.singularities[0].branches[0].multiplicity == 2

    with pytest.raises(DegreeOne):
        contract_p1(finite_subscheme([(0, 1)]))


def test_contract_with_generators_handles_infinity():
    z = finite_subscheme([(P1Point.infinity(), 1), (0, 1)])
    result = contract_with_generators(z)
    assert result.coordinate_change == "s = 1/(t - 1)"
    assert result.ideal_generator.degree == 2
    assert result.config.singularities[0].branches[0].point.is_infinity

    plain = contract_with_generators(finite_subscheme([(0, 1), (1, 1)]))
    assert plain.coordinate_change is None
    assert [str(g) for g in plain.generators.generators] == ["t^2 - t", "t^3 - t^2"]
