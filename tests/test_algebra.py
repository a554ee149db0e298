from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    DenominatorVanishes,
    fraction_product,
    jet_inverse,
    jet_of_rational_function,
    poly_shifted,
    unit_exp,
    unit_log_by_powers,
)
from pinchjac import algebra
from pinchjac.abel_jacobi import cuspidal_param, nodal_param, param_inverse
from pinchjac.algebra import INFINITY, Jet, P1Point, Poly, rational_str, unit_log
from pinchjac.errors import NonUnit, OrderMismatch, OrderNonpositive
from pinchjac.jacobian import JacElement

SRC = Path(__file__).resolve().parent.parent / "src" / "pinchjac"


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


def _random_poly(rng: random.Random, max_degree: int = 5) -> Poly:
    return Poly([_random_fraction(rng) for _ in range(rng.randint(0, max_degree + 1))])


# --------------------------------------------------------------------------
# Field elements
# --------------------------------------------------------------------------

def test_field_elements_are_normalized():
    q = Fraction(6, -4)
    assert q.numerator == -3
    assert q.denominator == 2
    assert rational_str(q) == "-3/2"
    assert rational_str(Fraction(14, 7)) == "2"


def test_field_axioms_on_random_triples():
    rng = random.Random(101)
    for _ in range(200):
        a, b, c = (_random_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a != 0:
            assert a * (1 / a) == 1


def test_large_exact_products_do_not_overflow():
    product = Fraction(1)
    for k in range(1, 60):
        product *= Fraction(10**6 + k, k)
    assert product.denominator > 0
    assert product * (1 / product) == 1


# --------------------------------------------------------------------------
# Polynomials
# --------------------------------------------------------------------------

def test_poly_basics():
    p = Poly((1, 0, -2, 0))
    assert p.degree == 2
    assert p.leading == -2
    assert str(Poly((0, -1, 1))) == "t^2 - t"
    assert str(Poly((0, 0, 1))) == "t^2"
    assert str(Poly((Fraction(1, 2), 1))) == "t + 1/2"


def test_poly_divmod_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        f = _random_poly(rng, 7)
        g = _random_poly(rng, 4)
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree
    f = Poly((1, 2))
    assert divmod(f, Poly((0, 0, 1))) == (Poly.zero(), f)  # the divisor's degree is larger
    assert divmod(f, Poly.constant(2)) == (Poly((Fraction(1, 2), 1)), Poly.zero())
    with pytest.raises(ZeroDivisionError):
        divmod(f, Poly.zero())


def test_poly_shift_and_reverse():
    p = Poly((-2, 1))  # t - 2
    assert poly_shifted(p, 0) == p
    assert poly_shifted(p, 3) == Poly((1, 1))  # (s + 3) - 2
    assert poly_shifted(poly_shifted(p, 3), -3) == p  # shifting back reverses the shift
    assert poly_shifted(Poly((1, 2, 3)), 1)(0) == Poly((1, 2, 3))(1)


def _repeated_mul(x, n: int, one):
    product = one
    for _ in range(n):
        product = product * x
    return product


def _mul_count(monkeypatch, cls) -> list[int]:
    """Patch ``cls.__mul__`` to count its calls into the returned one-item list."""
    calls = [0]
    mul = cls.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    return calls


def _fewest_muls(n: int) -> int:
    """Squarings plus extra products of left-to-right binary powering, n >= 1."""
    return n.bit_length() - 1 + bin(n).count("1") - 1


def test_poly_pow_matches_repeated_mul():
    p = Poly((1, 1))
    assert p ** 3 == p * p * p
    assert p ** 0 == Poly.one()
    q = Poly((Fraction(-2, 3), 0, 5, Fraction(1, 7)))
    for n in range(10):
        assert q ** n == _repeated_mul(q, n, Poly.one())


def test_pow_multiplies_neither_by_one_nor_past_the_last_bit(monkeypatch):
    p = Poly((1, 2, 3))
    calls = _mul_count(monkeypatch, Poly)
    for n in range(1, 10):
        calls[0] = 0
        p ** n
        assert calls[0] == _fewest_muls(n), n
    calls[0] = 0
    p ** 0
    assert calls[0] == 0


# --------------------------------------------------------------------------
# Products against the term-by-term Fraction oracle
# --------------------------------------------------------------------------

# zeros, small values that cancel, and 80-bit numerators over denominators up to 10^6
_COEFFICIENT = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 10**6)),
)


@st.composite
def _jet_pair(draw):
    order = draw(st.integers(1, 30))
    coefficients = st.lists(_COEFFICIENT, max_size=order)
    return Jet.make(order, draw(coefficients)), Jet.make(order, draw(coefficients))


@settings(max_examples=200, deadline=None)
@given(st.lists(_COEFFICIENT, max_size=30), st.lists(_COEFFICIENT, max_size=30))
def test_poly_product_matches_the_fraction_oracle(a, b):
    p, q = Poly(a), Poly(b)
    product = p * q
    assert product.coeffs == Poly(fraction_product(p.coeffs, q.coeffs, len(a) + len(b))).coeffs
    assert all(type(c) is Fraction for c in product.coeffs)


@settings(max_examples=200, deadline=None)
@given(_jet_pair())
def test_jet_product_matches_the_fraction_oracle(pair):
    u, v = pair
    product = u * v
    assert product.coeffs == fraction_product(u.coeffs, v.coeffs, u.order)
    assert all(type(c) is Fraction for c in product.coeffs)


def test_poly_products_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def as_sympy(p: Poly):
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
        return sympy.Poly(coeffs or [0], t, domain=sympy.QQ)

    rng = random.Random(37)
    for _ in range(40):
        p, q = (Poly([Fraction(rng.randint(-2**80, 2**80), rng.randint(1, 10**6)) * rng.randint(0, 1)
                      for _ in range(rng.randint(0, 20))]) for _ in range(2))
        expected = as_sympy(p) * as_sympy(q)
        assert [Fraction(int(c.p), int(c.q)) for c in expected.all_coeffs()] == (
            list(reversed((p * q).coeffs)) or [0])


# --------------------------------------------------------------------------
# Points
# --------------------------------------------------------------------------

def test_p1_points():
    assert P1Point.finite(Fraction(1, 2)) == P1Point.finite(Fraction(2, 4))
    assert INFINITY.is_infinity
    assert INFINITY != P1Point.finite(0)
    assert str(INFINITY) == "inf"
    assert str(P1Point.finite(Fraction(-3, 2))) == "-3/2"


def test_p1_point_holds_an_exact_rational():
    # the value is a Fraction or None, whatever number it was given as
    for bad in ("3", [3]):
        with pytest.raises(TypeError, match="a point must be a number"):
            P1Point(bad)
    for value in (3, 3.0, Fraction(3)):
        point = P1Point(value)
        assert type(point.value) is Fraction and point == P1Point.finite(3)
        assert hash(point) == hash(P1Point.finite(3))
    assert P1Point(2.5).value == Fraction(5, 2) and type(P1Point(2.5).value) is Fraction
    assert P1Point().is_infinity and P1Point(None) == INFINITY


# --------------------------------------------------------------------------
# Jets
# --------------------------------------------------------------------------

def test_jet_construction_guards():
    with pytest.raises(OrderNonpositive):
        Jet.make(0)
    with pytest.raises(OrderMismatch):
        Jet.make(2, (1,)) * Jet.make(3, (1,))
    with pytest.raises(NonUnit):
        jet_inverse(Jet.make(2, (0, 1)))


def test_jet_order_is_normalized_to_an_int():
    for order in (2.0, Fraction(2)):
        for jet in (Jet(order, (1, 1)), Jet.make(order, (1,))):
            assert type(jet.order) is int and jet.order == 2
            assert unit_log(jet) == unit_log(Jet(2, jet.coeffs))
    one = Jet(True, (3,))
    assert type(one.order) is int and str(one) == "(3) order 1"
    for build in (lambda order: Jet(order, (1, 1)), lambda order: Jet.make(order, (1,))):
        with pytest.raises(ValueError, match="jet order must be an integer"):
            build(2.5)
        with pytest.raises(TypeError, match="jet order must be a number"):
            build("2")


def test_jet_products():
    one_plus = Jet.make(2, (1, 1))
    one_minus = Jet.make(2, (1, -1))
    assert one_plus * one_minus == Jet.constant(1, 2)

    r, q = Fraction(5, 3), Fraction(-2, 7)
    lhs = Jet.make(2, (1, r)) * Jet.make(2, (1, q))
    assert lhs == Jet.make(2, (1, r + q))


def test_jet_inverse_example():
    u = Jet.make(2, (-3, 1))
    assert jet_inverse(u) == Jet.make(2, (Fraction(-1, 3), Fraction(-1, 9)))
    assert u * jet_inverse(u) == Jet.constant(1, 2)


def test_jet_inverse_random_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        order = rng.randint(1, 6)
        coeffs = [_random_fraction(rng) for _ in range(order)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1)
        u = Jet(order, tuple(coeffs))
        assert u * jet_inverse(u) == Jet.constant(1, order)


def test_unit_log_examples():
    r = Fraction(9, 4)
    assert unit_log(Jet.make(2, (1, r))) == Jet.make(2, (0, r))
    assert unit_log(Jet.constant(Fraction(-7, 5), 4)) == Jet.constant(0, 4)
    u = Jet.make(3, (2, 2, 2))  # 2 * (1 + s + s^2)
    assert unit_log(u) == Jet.make(3, (0, 1, Fraction(1, 2)))
    with pytest.raises(NonUnit):
        unit_log(Jet.make(2, (0, 1)))


def test_unit_log_is_additive():
    rng = random.Random(23)
    for _ in range(100):
        order = rng.randint(1, 6)
        a = Jet.make(order, [Fraction(1)] + [_random_fraction(rng) for _ in range(order - 1)])
        b = Jet.make(order, [Fraction(2)] + [_random_fraction(rng) for _ in range(order - 1)])
        assert unit_log(a * b) == unit_log(a) + unit_log(b)


def test_exp_log_roundtrip():
    rng = random.Random(37)
    for _ in range(100):
        order = rng.randint(1, 6)
        coeffs = [_random_fraction(rng) for _ in range(order)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(3)
        u = Jet(order, tuple(coeffs))
        assert unit_exp(unit_log(u)) * u.constant_term == u


# zeros, negatives and fractions; the constant term is never zero and rarely 1
_LOG_COEFFICIENT = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_unit_log_matches_the_power_sum_oracle(data):
    order = data.draw(st.integers(1, 30))
    constant = data.draw(_LOG_COEFFICIENT.filter(bool))
    rest = data.draw(st.lists(_LOG_COEFFICIENT, max_size=order - 1))
    u = Jet.make(order, [constant, *rest])
    assert unit_log(u) == unit_log_by_powers(u)


def test_unit_log_matches_sympy_rs_log():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_log
    from sympy.polys.rings import ring

    ring_, x = ring("s", sympy.QQ)
    rng = random.Random(29)
    for _ in range(30):
        order = rng.randint(1, 30)
        coeffs = [_random_fraction(rng) for _ in range(order)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(-5, 3)
        c = sympy.QQ(coeffs[0].numerator, coeffs[0].denominator)
        a = sum((sympy.QQ(f.numerator, f.denominator) / c * x**k
                 for k, f in enumerate(coeffs)), ring_.zero)
        series = rs_log(a, x, order)
        expected = [series.coeff(x**k) for k in range(order)]
        got = unit_log(Jet(order, tuple(coeffs))).coeffs
        assert [sympy.QQ(f.numerator, f.denominator) for f in got] == expected


def test_unit_log_takes_no_series_product(monkeypatch):
    calls = []
    convolve = algebra._convolve

    def counted(*args):
        calls.append(args)
        return convolve(*args)

    # `Jet * Jet` reads `_convolve` from the module globals at each call
    monkeypatch.setattr(algebra, "_convolve", counted)
    u = Jet.make(12, [Fraction(3), *(Fraction(k, k + 1) for k in range(1, 12))])
    log = unit_log(u)
    monkeypatch.undo()
    # the power sum of log(1 + w) takes one series product per power: 11 here
    assert len(calls) == 0
    assert log == unit_log_by_powers(u)


# --------------------------------------------------------------------------
# Jets of rational functions
# --------------------------------------------------------------------------

def test_jet_of_constant_function():
    jet = jet_of_rational_function(Poly.one(), Poly.one(), P1Point.finite(0), 3)
    assert jet == Jet.constant(1, 3)


def test_jet_of_ratio_of_linear_factors():
    jet = jet_of_rational_function(
        Poly((-2, 1)), Poly((-3, 1)), P1Point.finite(0), 2
    )
    assert jet == Jet.make(2, (Fraction(2, 3), Fraction(-1, 9)))


def test_jet_of_linear_factor():
    jet = jet_of_rational_function(Poly((-5, 1)), Poly.one(), P1Point.finite(0), 2)
    assert jet == Jet.make(2, (-5, 1))


def test_jet_errors():
    with pytest.raises(DenominatorVanishes):
        jet_of_rational_function(Poly.one(), Poly((0, 1)), P1Point.finite(0), 2)
    with pytest.raises(DenominatorVanishes):
        jet_of_rational_function(Poly((0, 1)), Poly.one(), INFINITY, 2)
    with pytest.raises(OrderNonpositive):
        jet_of_rational_function(Poly.one(), Poly.one(), P1Point.finite(0), 0)


def test_jet_at_infinity():
    # (t - 2)/(t - 3) = (1 - 2s)/(1 - 3s) in s = 1/t
    jet = jet_of_rational_function(Poly((-2, 1)), Poly((-3, 1)), INFINITY, 3)
    assert jet == Jet.make(3, (1, 1, 3))
    # 1/(t - 3) vanishes to order one at infinity
    jet = jet_of_rational_function(Poly.one(), Poly((-3, 1)), INFINITY, 3)
    assert jet.coeffs[0] == 0 and jet.coeffs[1] == 1


def test_jet_division_certificate():
    rng = random.Random(53)
    for _ in range(150):
        order = rng.randint(1, 6)
        num = _random_poly(rng)
        den = _random_poly(rng)
        a = _random_fraction(rng)
        center = P1Point.finite(a)
        if den(a) == 0:
            continue
        jet = jet_of_rational_function(num, den, center, order)
        den_jet = Jet.make(order, poly_shifted(den, a).coeffs[:order])
        num_jet = Jet.make(order, poly_shifted(num, a).coeffs[:order])
        assert jet * den_jet == num_jet


def test_jet_multiplicativity():
    rng = random.Random(59)
    for _ in range(100):
        order = rng.randint(1, 6)
        a = _random_fraction(rng)
        center = P1Point.finite(a)
        n1, d1 = _random_poly(rng), _random_poly(rng)
        n2, d2 = _random_poly(rng), _random_poly(rng)
        if d1(a) == 0 or d2(a) == 0:
            continue
        lhs = jet_of_rational_function(n1 * n2, d1 * d2, center, order)
        rhs = jet_of_rational_function(n1, d1, center, order) * jet_of_rational_function(
            n2, d2, center, order
        )
        assert lhs == rhs


# --------------------------------------------------------------------------
# Coefficient type
# --------------------------------------------------------------------------

def _all_exact_fractions(coeffs) -> bool:
    return all(type(c) is Fraction for c in coeffs)


def test_coefficients_are_always_exact_fractions():
    # int, bool and Fraction inputs all come out as Fraction itself, and so
    # does every arithmetic result, so no operation hands back an int
    for coeffs in ((3, -1, 2), (True, False, True), (Fraction(1, 2), 0, Fraction(-3))):
        p = Poly(coeffs)
        j = Jet(3, coeffs)
        made = Jet.make(4, coeffs)
        polys = [p, p + p, -p, p - Poly.one(), p * p, p * 2, p * True, p ** 3,
                 *divmod(p * p + Poly.one(), p)]
        jets = [j, made, Jet.constant(True, 3), j + j, -j, j * j, j * 3]
        if j.is_unit:
            jets.append(unit_log(j))
        for poly in polys:
            assert _all_exact_fractions(poly.coeffs), poly
        for jet in jets:
            assert _all_exact_fractions(jet.coeffs), jet
    assert type(Poly((1, 2))(3)) is Fraction
    assert type(Poly.one().leading) is Fraction


@pytest.mark.parametrize("build", [
    lambda: Poly((1, "2")),
    lambda: Poly.constant("2"),
    lambda: Poly((1, 2))("3"),
    lambda: Jet.make(2, (1, "2")),
    lambda: Jet(2, (1, "2")),
    lambda: Jet.constant("2", 2),
], ids=["Poly", "Poly.constant", "Poly.__call__", "Jet.make", "Jet", "Jet.constant"])
def test_strings_are_not_coefficients(build):
    # Fraction() parses strings, so "2" used to pass as the number 2
    with pytest.raises(TypeError, match="must be a number, got '[23]'"):
        build()


@pytest.mark.parametrize("build", [
    lambda: nodal_param("3"),
    lambda: cuspidal_param("3"),
    lambda: param_inverse("1", "2"),
    lambda: JacElement("fp", ("1/2",), ("3",)),
    lambda: rational_str("4/6"),
], ids=["nodal_param", "cuspidal_param", "param_inverse", "JacElement", "rational_str"])
def test_strings_are_not_numbers_at_the_entry_points(build):
    with pytest.raises(TypeError, match="must be a number, got '[0-9/]+'"):
        build()


def test_entry_points_still_take_every_number_kind():
    half = Fraction(1, 2)
    assert nodal_param(3) == (6, 18) and cuspidal_param(half) == (half ** 2, half ** 3)
    assert param_inverse(1, 2) == 2 and param_inverse(0.5, 0.25) == half
    element = JacElement("fp", (half, 2), (0.75,))
    assert element.torus_coords == (half, 2) and element.unipotent_coords == (Fraction(3, 4),)
    assert _all_exact_fractions(element.torus_coords + element.unipotent_coords)
    assert [rational_str(x) for x in (Fraction(4, 6), 3, 0.5)] == ["2/3", "3", "1/2"]


def _float_uses(path: Path) -> list[str]:
    """Each float literal, with the expression holding it, and each float() call."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{path.name}: {ast.get_source_segment(source, parents[node])}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(f"{path.name}: {ast.get_source_segment(source, node)}")
    return found


def test_float_scan_finds_literals_and_calls(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("x = 2 * 1.5\ny = float(x)\nz = 3\n", encoding="utf-8")
    assert sorted(_float_uses(sample)) == ["sample.py: 2 * 1.5", "sample.py: float(x)"]


def test_no_float_enters_a_computed_value():
    # the only floats are the seeded generators' draws of rng.random() against
    # a probability; they choose a shape and never become a coefficient
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert sorted(use for path in modules for use in _float_uses(path)) == [
        "builders.py: rng.random() < 0.3",
        "builders.py: self._rng.random() < 0.08",
    ]


def test_scalar_factors_of_every_number_kind():
    p, j = Poly((1, 2)), Jet.make(2, (1, 1))
    half_five = Fraction(5, 2)
    for factor in (2.5, half_five):
        assert p * factor == factor * p == Poly((half_five, 5))
        assert j * factor == factor * j == Jet.make(2, (half_five, half_five))
    assert _all_exact_fractions((p * 2.5).coeffs) and _all_exact_fractions((j * 2.5).coeffs)
    # anything that is neither a number nor the same kind is refused by Python itself
    for other in ("2", None, [1], Jet.make(2, (1,)), Poly((1,))):
        for x in (p, j):
            if type(other) is type(x):
                continue
            with pytest.raises(TypeError):
                x * other
            with pytest.raises(TypeError):
                other * x
