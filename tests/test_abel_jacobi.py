from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchjac import algebra, jacobian
from pinchjac.abel_jacobi import (
    CUSPIDAL_X,
    CUSPIDAL_Y,
    NODAL_X,
    NODAL_Y,
    SmoothDivisor,
    _branch_log,
    aj_eval,
    aj_injectivity_probe,
    cuspidal_param,
    divisor_class,
    nodal_param,
    param_inverse,
)
from oracles import forest_normalized_torus, jet_of_rational_function, pairwise_probe
from pinchjac.algebra import INFINITY, P1Point, Poly, unit_log
from pinchjac.builders import (
    cuspidal_cubic,
    elliptic_pair,
    nodal_cubic,
    random_rational_aj_config,
    two_lines,
    two_nodes_pair,
)
from pinchjac.contraction import contract_p1, finite_subscheme
from pinchjac.curve_model import (
    Branch,
    Component,
    CurveConfig,
    Singularity,
    is_smooth_point,
    smooth_sample,
)
from pinchjac.errors import (
    MissingBasepoint,
    NonzeroDegree,
    PointNotSmooth,
    PositiveGenusUnsupported,
    SingularPoint,
)
from pinchjac.jacobian import class_reduce, jac_add, jac_eq, jac_neg, jacobian_structure, unit_jet_vector
from pinchjac.verify import _random_degree_zero_divisor


def _pt(v) -> P1Point:
    return P1Point.finite(v)


# --------------------------------------------------------------------------
# Divisor classes
# --------------------------------------------------------------------------

def test_empty_divisor_is_zero():
    config = nodal_cubic()
    presentation = jacobian_structure(config)
    assert divisor_class(config, presentation, SmoothDivisor.of([])).is_zero


def test_divisor_of_a_curve_unit_is_zero_on_the_nodal_cubic():
    # f = (t-2)(t-3)/((t-4)(t-9/5)) takes the value 5/6 at both 0 and 1,
    # so it is a unit of the curve and its divisor is principal
    config = nodal_cubic()
    presentation = jacobian_structure(config)
    divisor = SmoothDivisor.of(
        [("L", 2, 1), ("L", 3, 1), ("L", 4, -1), ("L", Fraction(9, 5), -1)]
    )
    assert divisor_class(config, presentation, divisor).is_zero


def test_divisor_of_a_curve_unit_is_zero_on_the_cuspidal_cubic():
    # f = (t-2)(t-3)/((t-6)(t-3/2)) has (log f)'(0) = 0, hence constant 2-jet
    config = cuspidal_cubic()
    presentation = jacobian_structure(config)
    divisor = SmoothDivisor.of(
        [("L", 2, 1), ("L", 3, 1), ("L", 6, -1), ("L", Fraction(3, 2), -1)]
    )
    assert divisor_class(config, presentation, divisor).is_zero


def test_nodal_divisor_class_value():
    config = nodal_cubic()
    presentation = jacobian_structure(config)
    divisor = SmoothDivisor.of([("L", 2, 1), ("L", INFINITY, -1)])
    element = divisor_class(config, presentation, divisor)
    assert element.torus_coords == (Fraction(1, 2),)


def test_cuspidal_divisor_class_value():
    config = cuspidal_cubic()
    presentation = jacobian_structure(config)
    divisor = SmoothDivisor.of([("L", 5, 1), ("L", INFINITY, -1)])
    element = divisor_class(config, presentation, divisor)
    assert element.unipotent_coords == (Fraction(-1, 5),)


def test_divisor_negation_inverts_the_class():
    config = nodal_cubic()
    presentation = jacobian_structure(config)
    divisor = SmoothDivisor.of([("L", 2, 1), ("L", INFINITY, -1)])
    fwd = divisor_class(config, presentation, divisor)
    bwd = divisor_class(config, presentation, -divisor)
    assert jac_eq(bwd, jac_neg(fwd))
    assert bwd.torus_coords == (Fraction(2),)


def test_divisor_coefficients_must_be_integers():
    half = Fraction(1, 2)
    for bad in ((half, -half), (1.9, -1.9)):
        with pytest.raises(ValueError, match="must be an integer"):
            SmoothDivisor.of([("L", 2, bad[0]), ("L", 3, bad[1])])
    with pytest.raises(ValueError, match="must be an integer"):
        SmoothDivisor((("L", _pt(2), Fraction(1, 2)), ("L", _pt(3), Fraction(-1, 2))))
    exact = SmoothDivisor.of([("L", 2, Fraction(2)), ("L", 3, -2)])
    assert exact.entries == (("L", _pt(2), 2), ("L", _pt(3), -2))
    assert all(type(k) is int for _, _, k in exact.entries)


def test_divisor_built_directly_takes_plain_numbers():
    # a plain number is the finite point, so a branch point given as one is not smooth
    config = nodal_cubic()
    presentation = jacobian_structure(config)
    with pytest.raises(PointNotSmooth):
        divisor_class(config, presentation, SmoothDivisor((("L", 0, 1), ("L", 5, -1))))
    direct = SmoothDivisor((("L", 2, 1), ("L", Fraction(5), -1)))
    assert direct == SmoothDivisor.of([("L", 2, 1), ("L", 5, -1)])
    assert direct.entries == (("L", _pt(2), 1), ("L", _pt(5), -1))
    two, five = (aj_eval(config, presentation, "L", t) for t in (2, 5))
    assert jac_eq(divisor_class(config, presentation, direct), jac_add(two, jac_neg(five)))
    with pytest.raises(TypeError, match="a point must be a number"):
        SmoothDivisor((("L", "3", 1), ("L", 5, -1)))


def test_divisor_errors():
    config = nodal_cubic()
    presentation = jacobian_structure(config)
    with pytest.raises(NonzeroDegree):
        divisor_class(config, presentation, SmoothDivisor.of([("L", 2, 1)]))
    with pytest.raises(PointNotSmooth):
        divisor_class(
            config,
            presentation,
            SmoothDivisor.of([("L", 0, 1), ("L", 5, -1)]),
        )
    pair = elliptic_pair()
    with pytest.raises(PositiveGenusUnsupported):
        divisor_class(
            pair,
            jacobian_structure(pair),
            SmoothDivisor.of([("E1", 2, 1), ("E1", 3, -1)]),
        )


def test_scalar_rescaling_of_the_interpolating_function():
    # the class of [2] - [inf] equals the reduction of the jets of c*(t - 2)
    # for any c, not just the monic choice
    config = nodal_cubic()
    presentation = jacobian_structure(config)
    divisor = SmoothDivisor.of([("L", 2, 1), ("L", INFINITY, -1)])
    expected = divisor_class(config, presentation, divisor)
    for c in (Fraction(1), Fraction(3), Fraction(-7, 2)):
        f = Poly((-2, 1)) * c
        jets = {
            ("n", 0): jet_of_rational_function(f, Poly.one(), _pt(0), 1),
            ("n", 1): jet_of_rational_function(f, Poly.one(), _pt(1), 1),
        }
        reduced = class_reduce(config, presentation, unit_jet_vector(config, jets))
        assert jac_eq(reduced, expected)


# --------------------------------------------------------------------------
# Abel-Jacobi evaluation
# --------------------------------------------------------------------------

def test_aj_at_basepoint_is_zero():
    for config in (nodal_cubic(), cuspidal_cubic(), two_nodes_pair()):
        presentation = jacobian_structure(config)
        for component_id, base in config.basepoints:
            assert aj_eval(config, presentation, component_id, base).is_zero


def test_aj_frozen_values():
    nodal = nodal_cubic()
    np_ = jacobian_structure(nodal)
    assert aj_eval(nodal, np_, "L", 2).torus_coords == (Fraction(1, 2),)

    cusp = cuspidal_cubic()
    cp = jacobian_structure(cusp)
    assert aj_eval(cusp, cp, "L", 5).unipotent_coords == (Fraction(-1, 5),)


def test_aj_closed_forms():
    nodal = nodal_cubic()
    np_ = jacobian_structure(nodal)
    cusp = cuspidal_cubic()
    cp = jacobian_structure(cusp)
    for k in range(2, 22):
        p = Fraction(k, 3)
        if p in (0, 1):
            continue
        assert aj_eval(nodal, np_, "L", p).torus_coords == ((p - 1) / p,)
        assert aj_eval(cusp, cp, "L", p).unipotent_coords == (Fraction(-1, 1) / p,)


def test_aj_missing_basepoint():
    config = CurveConfig(
        name="nobase",
        components=(Component("L"),),
        singularities=(Singularity("n", (Branch("L", _pt(0)), Branch("L", _pt(1)))),),
    )
    with pytest.raises(MissingBasepoint):
        aj_eval(config, jacobian_structure(config), "L", 5)
    based = replace(config, basepoints=(("L", INFINITY),))
    element = aj_eval(based, jacobian_structure(based), "L", 5)
    assert element.torus_coords == (Fraction(4, 5),)


def test_moving_a_basepoint_subtracts_its_old_image():
    # aj with basepoint b on c is aj(p) - aj(b) with the old basepoint; the
    # presentations' fingerprints differ, so compare coordinates
    rng = random.Random(73)
    for _ in range(40):
        config = random_rational_aj_config(rng)
        presentation = jacobian_structure(config)
        c = rng.choice(config.components).id
        candidates = smooth_sample(config, c, 8)
        if is_smooth_point(config, c, INFINITY):
            candidates.append(INFINITY)
        p, b = rng.sample(candidates, 2)
        bases = tuple((cid, b if cid == c else q) for cid, q in config.basepoints)
        moved = replace(config, basepoints=bases)
        got = aj_eval(moved, jacobian_structure(moved), c, p)
        want = jac_add(
            aj_eval(config, presentation, c, p), jac_neg(aj_eval(config, presentation, c, b))
        )
        assert (got.torus_coords, got.unipotent_coords) == (
            want.torus_coords, want.unipotent_coords
        )


def test_plain_numbers_are_points():
    config = CurveConfig(
        "nodal",
        (Component("L"),),
        (Singularity("n", (Branch("L", 0), Branch("L", 1))),),
        (("L", INFINITY),),
    )
    assert config == nodal_cubic()
    assert config.fingerprint() == nodal_cubic().fingerprint()
    presentation = jacobian_structure(config)
    assert aj_eval(config, presentation, "L", 2).torus_coords == (Fraction(1, 2),)
    with pytest.raises(PointNotSmooth):
        aj_eval(config, presentation, "L", 0)
    numeric_base = CurveConfig("b", (Component("L"),), basepoints=(("L", 3),))
    assert numeric_base.basepoints == (("L", _pt(3)),)


def test_aj_with_branch_at_infinity():
    # gluing 0 to infinity on one line; with basepoint 1 the map is p -> p
    config = CurveConfig(
        name="zero_inf",
        components=(Component("L"),),
        singularities=(Singularity("n", (Branch("L", INFINITY), Branch("L", _pt(0)))),),
        basepoints=(("L", _pt(1)),),
    )
    presentation = jacobian_structure(config)
    for p in (Fraction(5), Fraction(-2), Fraction(7, 3)):
        assert aj_eval(config, presentation, "L", p).torus_coords == (p,)


def test_lut_collision_pair():
    config = two_nodes_pair()
    presentation = jacobian_structure(config)
    a = aj_eval(config, presentation, "L1", 2)
    b = aj_eval(config, presentation, "L2", -1)
    assert jac_eq(a, b)
    assert not a.is_zero


# --------------------------------------------------------------------------
# Injectivity probes
# --------------------------------------------------------------------------

def test_probe_finds_no_collisions_on_the_cubics():
    for config in (nodal_cubic(), cuspidal_cubic()):
        presentation = jacobian_structure(config)
        sample = [("L", _pt(k)) for k in range(2, 42)]
        report = aj_injectivity_probe(config, presentation, sample)
        assert report.collisions == ()


def test_probe_reports_the_lut_collision():
    config = two_nodes_pair()
    presentation = jacobian_structure(config)
    sample = [("L1", _pt(2)), ("L1", _pt(3)), ("L2", _pt(-1)), ("L2", _pt(4))]
    report = aj_injectivity_probe(config, presentation, sample)
    assert (("L1", _pt(2)), ("L2", _pt(-1))) in report.collisions


def test_probe_on_disconnected_lines_collapses_everything():
    config = CurveConfig(
        name="lines",
        components=(Component("L1"), Component("L2")),
        singularities=(),
        basepoints=(("L1", INFINITY), ("L2", INFINITY)),
    )
    presentation = jacobian_structure(config)
    sample = [("L1", _pt(1)), ("L1", _pt(2)), ("L2", _pt(3))]
    report = aj_injectivity_probe(config, presentation, sample)
    assert len(report.collisions) == 3  # trivial Jacobian: all classes equal


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("random", "lut", "two_lines")), st.integers(0, 10**6),
       st.lists(st.integers(0, 40), min_size=1, max_size=16))
def test_probe_matches_the_pairwise_reference(curve, seed, picks):
    # genus-0 samples with repeated points: on lut, L1:p and L2:1-p collide
    # (so -1 and 2 make two groups), and on two_lines every pair collides
    builders = {"lut": two_nodes_pair, "two_lines": two_lines,
                "random": lambda: random_rational_aj_config(random.Random(seed))}
    config = builders[curve]()
    presentation = jacobian_structure(config)
    points = [(c.id, p) for c in config.components for p in smooth_sample(config, c.id, 3)]
    sample = [points[k % len(points)] for k in picks] + [points[picks[0] % len(points)]]
    report = aj_injectivity_probe(config, presentation, sample)
    assert report == pairwise_probe(config, presentation, sample)


# --------------------------------------------------------------------------
# Parametrizations
# --------------------------------------------------------------------------

def test_param_examples():
    assert nodal_param(2) == (2, 4)
    x, y = nodal_param(2)
    assert y * y == x * y + x**3
    assert cuspidal_param(0) == (0, 0)
    for t in (Fraction(2), Fraction(3), Fraction(-1), Fraction(7, 2)):
        assert param_inverse(*nodal_param(t)) == t
        assert param_inverse(*cuspidal_param(t)) == t
    with pytest.raises(SingularPoint):
        param_inverse(0, 0)


def test_param_relations_vanish_symbolically():
    assert (NODAL_Y * NODAL_Y - NODAL_X * NODAL_Y - NODAL_X**3).is_zero
    assert (CUSPIDAL_Y * CUSPIDAL_Y - CUSPIDAL_X**3).is_zero


def test_param_points_satisfy_curve_equations_on_samples():
    rng = random.Random(61)
    for _ in range(25):
        t = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        x, y = nodal_param(t)
        assert y * y == x * y + x**3
        x, y = cuspidal_param(t)
        assert y * y == x**3


# --------------------------------------------------------------------------
# Compatibility with contraction, additivity
# --------------------------------------------------------------------------

def test_contracted_configs_reproduce_the_closed_forms():
    at_infinity = (("L", INFINITY),)
    nodal = replace(contract_p1(finite_subscheme([(0, 1), (1, 1)])), basepoints=at_infinity)
    cusp = replace(contract_p1(finite_subscheme([(0, 2)])), basepoints=at_infinity)
    np_ = jacobian_structure(nodal)
    cp = jacobian_structure(cusp)
    for k in range(2, 22):
        p = Fraction(k)
        assert aj_eval(nodal, np_, "L", p).torus_coords == ((p - 1) / p,)
        assert aj_eval(cusp, cp, "L", p).unipotent_coords == (-1 / p,)


def test_divisor_class_is_additive():
    rng = random.Random(67)
    config = two_nodes_pair()
    presentation = jacobian_structure(config)
    smooth = [k for k in range(2, 30)]
    for _ in range(50):
        def random_divisor():
            entries = []
            for component in ("L1", "L2"):
                a, b = rng.sample(smooth, 2)
                weight = rng.randint(1, 3)
                entries.append((component, a, weight))
                entries.append((component, b, -weight))
            return SmoothDivisor.of(entries)

        d1, d2 = random_divisor(), random_divisor()
        lhs = divisor_class(config, presentation, d1 + d2)
        rhs = jac_add(
            divisor_class(config, presentation, d1),
            divisor_class(config, presentation, d2),
        )
        assert jac_eq(lhs, rhs)


# --------------------------------------------------------------------------
# Jets from linear factors against the jets of the whole rational function
# --------------------------------------------------------------------------

def _product_function(points) -> tuple[Poly, Poly]:
    """Numerator and denominator of the product of (t - a)^k over the finite points."""
    numerator = denominator = Poly.one()
    for point, k in points:
        if not point.is_infinity:
            factor = Poly((-point.value, 1)) ** abs(k)
            if k > 0:
                numerator = numerator * factor
            else:
                denominator = denominator * factor
    return numerator, denominator


def _random_support(rng: random.Random, center: P1Point) -> list[tuple[P1Point, int]]:
    """Distinct smooth points off the center with coefficients summing to zero; the
    point at infinity takes part only when the center is finite. The balancing
    point 97/7 lies outside the range the centers and other points come from."""
    values = {Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))}
    values.discard(center.value)
    points = [(P1Point.finite(v), rng.choice((-3, -2, -1, 1, 2, 3))) for v in sorted(values)]
    balance = -sum(k for _, k in points)
    if balance:
        if center.is_infinity or rng.random() < 0.5:
            points.append((P1Point.finite(Fraction(97, 7)), balance))
        else:
            points.append((INFINITY, balance))
    rng.shuffle(points)
    return points


@pytest.mark.parametrize("order", range(1, 13))
def test_linear_factor_jets_match_the_rational_function(order):
    rng = random.Random(order)
    for _ in range(25):
        center = INFINITY if rng.random() < 0.4 else _pt(Fraction(rng.randint(-9, 9), 3))
        points = _random_support(rng, center)
        numerator, denominator = _product_function(points)
        expected = jet_of_rational_function(numerator, denominator, center, order)
        value, logs = _branch_log(points, center, order)
        assert value == expected.constant_term
        assert logs == unit_log(expected).coeffs


def test_log_coefficients_match_a_sympy_series():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_log
    from sympy.polys.rings import ring

    ring_, x = ring("s", sympy.QQ)
    s = sympy.Symbol("s")

    def rational(v: Fraction):
        return sympy.Rational(v.numerator, v.denominator)

    rng = random.Random(11)
    for _ in range(25):
        center = INFINITY if rng.random() < 0.4 else _pt(Fraction(rng.randint(-9, 9), 3))
        points = _random_support(rng, center)
        order = rng.randint(2, 8)
        t = 1 / s if center.is_infinity else rational(center.value) + s
        f = sympy.cancel(sympy.Mul(*(
            (t - rational(p.value)) ** k for p, k in points if not p.is_infinity
        )))
        numerator, denominator = (ring_(part) for part in sympy.fraction(f))
        n0, d0 = numerator.coeff(1), denominator.coeff(1)
        series = rs_log(numerator * (1 / n0), x, order) - rs_log(denominator * (1 / d0), x, order)
        value, logs = _branch_log(points, center, order)
        assert sympy.QQ.to_sympy(n0 / d0) == rational(value)
        assert [sympy.QQ.to_sympy(series.coeff(x**n)) for n in range(order)] == [
            rational(c) for c in logs
        ]


def _function_vector(config: CurveConfig, divisor: SmoothDivisor):
    """The jets at every branch of the divisor's rational function, per component."""
    support: dict[str, list] = {}
    for component_id, point, k in divisor.entries:
        support.setdefault(component_id, []).append((point, k))
    jets = {}
    for s in config.singularities:
        for i, b in enumerate(s.branches):
            numerator, denominator = _product_function(support.get(b.component, []))
            jets[(s.id, i)] = jet_of_rational_function(
                numerator, denominator, b.point, b.multiplicity
            )
    return unit_jet_vector(config, jets)


def test_divisor_class_matches_the_rational_function_path():
    rng = random.Random(5)
    for _ in range(40):
        config = random_rational_aj_config(rng)
        presentation = jacobian_structure(config)
        divisor = _random_degree_zero_divisor(rng, config)
        expected = class_reduce(config, presentation, _function_vector(config, divisor))
        assert divisor_class(config, presentation, divisor) == expected


_POOL = (INFINITY,) + tuple(_pt(v) for v in (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)))


@st.composite
def _config_and_divisor(draw):
    """Up to three lines, branches of multiplicity up to 4 grouped into up to three
    singularities, and a degree-zero divisor on the remaining points; the point at
    infinity can be a branch center or a divisor point."""
    n = draw(st.integers(1, 3))
    branches, entries = [], []
    for c in range(n):
        points = draw(st.permutations(_POOL))
        n_branches = draw(st.integers(0, 3))
        for point in points[:n_branches]:
            branches.append(Branch(f"L{c}", point, draw(st.integers(1, 4))))
        smooth = points[n_branches:n_branches + draw(st.integers(0, 4))]
        coefficients = [draw(st.integers(-3, 3)) for _ in smooth]
        if smooth:
            coefficients[-1] -= sum(coefficients)
        entries += [(f"L{c}", p, k) for p, k in zip(smooth, coefficients)]
    groups = draw(st.lists(st.integers(0, 2), min_size=len(branches), max_size=len(branches)))
    singularities = []
    for g in sorted(set(groups)):
        members = [b for b, h in zip(branches, groups) if h == g]
        if sum(b.multiplicity for b in members) < 2:
            members[0] = Branch(members[0].component, members[0].point, 2)
        singularities.append(Singularity(f"s{g}", tuple(members)))
    config = CurveConfig("h", tuple(Component(f"L{c}") for c in range(n)), tuple(singularities))
    return config, SmoothDivisor.of(entries)


@settings(max_examples=150, deadline=None)
@given(_config_and_divisor())
def test_divisor_class_matches_class_reduce_of_the_function_jets(case):
    config, divisor = case
    presentation = jacobian_structure(config)
    expected = class_reduce(config, presentation, _function_vector(config, divisor))
    assert divisor_class(config, presentation, divisor) == expected


@st.composite
def _ring_config_and_divisor(draw):
    """Two to four lines joined in a ring by nodes, so one cycle runs through
    every line, plus up to three more singularities with branches of
    multiplicity up to 3; a degree-zero divisor with negative coefficients on
    the remaining points. Branch centers and divisor points can be at infinity."""
    n = draw(st.integers(2, 4))
    free = {c: list(draw(st.permutations(_POOL))) for c in range(n)}
    singularities = [
        Singularity(f"r{c}", (Branch(f"L{c}", free[c].pop()), Branch(f"L{d}", free[d].pop())))
        for c, d in ((c, (c + 1) % n) for c in range(n))
    ]
    for j in range(draw(st.integers(0, 3))):
        on = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        branches = [Branch(f"L{c}", free[c].pop(), draw(st.integers(1, 3))) for c in on]
        if sum(b.multiplicity for b in branches) < 2:
            branches[0] = Branch(branches[0].component, branches[0].point, 2)
        singularities.append(Singularity(f"s{j}", tuple(branches)))
    entries = []
    for c in range(n):
        smooth = free[c][:draw(st.integers(0, 4))]
        coefficients = [draw(st.integers(-3, 3)) for _ in smooth]
        if smooth:
            coefficients[-1] -= sum(coefficients)
        entries += [(f"L{c}", p, k) for p, k in zip(smooth, coefficients)]
    config = CurveConfig("ring", tuple(Component(f"L{c}") for c in range(n)), tuple(singularities))
    return config, SmoothDivisor.of(entries)


@settings(max_examples=150, deadline=None)
@given(_ring_config_and_divisor())
def test_torus_coordinates_match_the_vertex_scalar_solve(case):
    config, divisor = case
    presentation = jacobian_structure(config)
    values = {(s, i): jet.constant_term for s, i, jet in _function_vector(config, divisor).entries}
    expected = forest_normalized_torus(config, presentation, values)
    assert divisor_class(config, presentation, divisor).torus_coords == expected


def test_aj_path_takes_no_log(monkeypatch):
    def refuse(jet):
        raise AssertionError("unit_log called")

    monkeypatch.setattr(algebra, "unit_log", refuse)
    monkeypatch.setattr(jacobian, "unit_log", refuse)
    config = cuspidal_cubic()
    presentation = jacobian_structure(config)
    assert aj_eval(config, presentation, "L", 3).unipotent_coords == (Fraction(-1, 3),)
    divisor = SmoothDivisor.of([("L", 2, 1), ("L", 3, -1)])
    assert divisor_class(config, presentation, divisor).unipotent_coords == (Fraction(-1, 6),)
    with pytest.raises(AssertionError, match="unit_log called"):
        class_reduce(config, presentation, _function_vector(config, divisor))
