from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchjac.algebra import Jet, P1Point
from pinchjac.builders import (
    cuspidal_cubic,
    elliptic_pair,
    nodal_cubic,
    random_config,
    random_unit_jet_vector,
    two_nodes_pair,
)
from pinchjac.curve_model import (
    Branch,
    Component,
    CurveConfig,
    Singularity,
    branch_edges,
    fundamental_cycles,
)
from pinchjac.errors import (
    InvalidConfig,
    NonUnitEntry,
    OrderMismatch,
    PresentationMismatch,
)
from pinchjac.jacobian import (
    UnitJetVector,
    class_reduce,
    constant_vector,
    jac_add,
    jac_eq,
    jac_neg,
    jac_zero,
    jacobian_structure,
    unit_jet_vector,
)


def _pt(v) -> P1Point:
    return P1Point.finite(v)


# --------------------------------------------------------------------------
# Local delta invariants and global structure
# --------------------------------------------------------------------------

def test_structure_examples():
    for config, ranks in (
        (nodal_cubic(), (1, 0, 0)),
        (cuspidal_cubic(), (0, 1, 0)),
        (two_nodes_pair(), (1, 0, 0)),
        (elliptic_pair(), (0, 0, 2)),
    ):
        p = jacobian_structure(config)
        assert (p.torus_rank, p.unipotent_rank, p.abelian_rank) == ranks


def test_structure_rejects_invalid_config():
    config = CurveConfig(
        name="bad",
        components=(Component("L"),),
        singularities=(Singularity("s", (Branch("X", _pt(0), 2),)),),
    )
    with pytest.raises(InvalidConfig):
        jacobian_structure(config)


def test_local_quotients_sum_to_global_ranks_on_one_singularity_curves():
    rng = random.Random(29)
    for _ in range(50):
        config = random_config(rng, max_components=1, max_singularities=1)
        p = jacobian_structure(config)
        total = sum(s.delta for s in config.singularities)
        assert p.torus_rank + p.unipotent_rank == total


# --------------------------------------------------------------------------
# class_reduce
# --------------------------------------------------------------------------

def test_all_ones_vector_is_zero_class():
    config = two_nodes_pair()
    presentation = jacobian_structure(config)
    ones = constant_vector(config, {"L1": Fraction(1), "L2": Fraction(1)})
    assert class_reduce(config, presentation, ones).is_zero


def test_componentwise_constants_are_zero_class():
    rng = random.Random(31)
    for _ in range(50):
        config = random_config(rng, positive_genus=False)
        presentation = jacobian_structure(config)
        scalars = {c.id: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for c in config.components}
        vec = constant_vector(config, scalars)
        assert class_reduce(config, presentation, vec).is_zero


def test_offdiagonal_value_on_two_node_pair():
    # value q on the first-listed branch of the second node; the non-forest
    # coordinate is the alternating cycle product, here 1/q
    config = two_nodes_pair()
    presentation = jacobian_structure(config)
    q = Fraction(5, 3)
    jets = {
        ("n1", 0): Jet.constant(1, 1),
        ("n1", 1): Jet.constant(1, 1),
        ("n2", 0): Jet.constant(q, 1),
        ("n2", 1): Jet.constant(1, 1),
    }
    element = class_reduce(config, presentation, unit_jet_vector(config, jets))
    assert presentation.torus_basis == (("n2", 1),)
    assert element.torus_coords == (1 / q,)
    # the same vector read through the multiplicative-system oracle
    assert _oracle_coordinates(config, presentation, jets) == element.torus_coords


def test_within_singularity_coordinates_are_ratios_to_first_branch():
    config = nodal_cubic()
    presentation = jacobian_structure(config)
    jets = {("n", 0): Jet.constant(Fraction(-2), 1), ("n", 1): Jet.constant(Fraction(-1), 1)}
    element = class_reduce(config, presentation, unit_jet_vector(config, jets))
    assert element.torus_coords == (Fraction(1, 2),)


def test_class_reduce_validates_entries():
    config = nodal_cubic()
    presentation = jacobian_structure(config)
    with pytest.raises(NonUnitEntry):
        unit_jet_vector(config, {("n", 0): Jet.constant(0, 1), ("n", 1): Jet.constant(1, 1)})
    with pytest.raises(OrderMismatch):
        unit_jet_vector(config, {("n", 0): Jet.constant(1, 2), ("n", 1): Jet.constant(1, 1)})
    other = cuspidal_cubic()
    with pytest.raises(PresentationMismatch):
        class_reduce(other, presentation, unit_jet_vector(other, {("s", 0): Jet.constant(1, 2)}))


# --------------------------------------------------------------------------
# Group operations
# --------------------------------------------------------------------------

def test_group_law_examples():
    config = two_nodes_pair()
    presentation = jacobian_structure(config)
    zero = jac_zero(presentation)
    a = type(zero)(presentation.config_fingerprint, (Fraction(2),), ())
    b = type(zero)(presentation.config_fingerprint, (Fraction(3),), ())
    assert jac_eq(jac_add(a, zero), a)
    assert jac_add(a, b).torus_coords == (Fraction(6),)
    assert jac_eq(jac_add(a, jac_neg(a)), zero)

    cusp = cuspidal_cubic()
    cp = jacobian_structure(cusp)
    r, q = Fraction(4, 7), Fraction(-2, 5)
    x = type(zero)(cp.config_fingerprint, (), (r,))
    y = type(zero)(cp.config_fingerprint, (), (q,))
    assert jac_add(x, y).unipotent_coords == (r + q,)

    with pytest.raises(PresentationMismatch):
        jac_add(a, x)


def test_class_reduce_is_a_homomorphism():
    rng = random.Random(41)
    for _ in range(50):
        config = random_config(rng)
        presentation = jacobian_structure(config)
        v = random_unit_jet_vector(rng, config)
        w = random_unit_jet_vector(rng, config)
        lhs = class_reduce(config, presentation, v * w)
        rhs = jac_add(
            class_reduce(config, presentation, v),
            class_reduce(config, presentation, w),
        )
        assert jac_eq(lhs, rhs)


def test_unit_jet_vector_is_keyed_by_branch_and_compares_by_entries():
    a, b, c = (Jet.constant(k, 1) for k in (2, 3, 5))
    v = UnitJetVector((("t", 0, a), ("s", 1, b), ("s", 0, c)))
    w = UnitJetVector((("s", 0, c), ("t", 0, a), ("s", 1, b)))
    assert v.entries == (("s", 0, c), ("s", 1, b), ("t", 0, a))
    assert v == w and hash(v) == hash(w)
    assert v != UnitJetVector((("s", 0, c), ("s", 1, b), ("t", 0, b)))
    assert (v.jet("s", 1), v.jet("t", 0)) == (b, a)
    with pytest.raises(KeyError):
        v.jet("t", 1)
    with pytest.raises(OrderMismatch):
        v * UnitJetVector((("s", 0, c),))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_unit_jet_vectors_commute_and_reduce_homomorphically(seed):
    rng = random.Random(seed)
    config = random_config(rng)
    presentation = jacobian_structure(config)
    v = random_unit_jet_vector(rng, config)
    w = random_unit_jet_vector(rng, config)
    assert v * w == w * v
    assert class_reduce(config, presentation, v * w) == jac_add(
        class_reduce(config, presentation, v), class_reduce(config, presentation, w)
    )


# --------------------------------------------------------------------------
# Kernel description against a brute-force oracle
# --------------------------------------------------------------------------

def _oracle_kernel(config: CurveConfig, vector) -> bool:
    """Solve the multiplicative vertex-scalar system and verify every edge."""
    for sing, idx, jet in vector.entries:
        if not jet.is_constant:
            return False
    values = {(s, i): j.constant_term for s, i, j in vector.entries}
    adjacency = {}
    for s in config.singularities:
        for i, b in enumerate(s.branches):
            u, v = ("C", b.component), ("S", s.id)
            adjacency.setdefault(u, []).append(((s.id, i), v))
            adjacency.setdefault(v, []).append(((s.id, i), u))
    vertices = [("C", c.id) for c in config.components] + [
        ("S", s.id) for s in config.singularities
    ]
    assign = {}
    for root in vertices:
        if root in assign:
            continue
        assign[root] = Fraction(1)
        stack = [root]
        while stack:
            v = stack.pop()
            for edge, w in adjacency.get(v, ()):
                if w not in assign:
                    assign[w] = values[edge] / assign[v]
                    stack.append(w)
    return all(
        values[(s.id, i)] == assign[("C", b.component)] * assign[("S", s.id)]
        for s in config.singularities
        for i, b in enumerate(s.branches)
    )


def _oracle_coordinates(config, presentation, jets):
    vector = unit_jet_vector(config, jets)
    cycles = fundamental_cycles(
        branch_edges(config), presentation.spanning_forest, presentation.torus_basis
    )
    coords = []
    for edge in presentation.torus_basis:
        cycle = cycles[edge]
        value = Fraction(1)
        for other, exponent in cycle.items():
            value *= vector.jet(*other).constant_term ** exponent
        coords.append(value)
    return tuple(coords)


def test_kernel_matches_bruteforce_solvability():
    rng = random.Random(43)
    zero_seen = nonzero_seen = 0
    for _ in range(120):
        config = random_config(rng, max_components=4, max_singularities=4)
        presentation = jacobian_structure(config)
        if rng.random() < 0.5:
            scalars = {c.id: Fraction(rng.randint(1, 5)) for c in config.components}
            vector = constant_vector(config, scalars)
            sing_scalars = {
                s.id: Fraction(rng.randint(1, 5)) for s in config.singularities
            }
            jets = {
                (s.id, i): vector.jet(s.id, i) * sing_scalars[s.id]
                for s in config.singularities
                for i, b in enumerate(s.branches)
            }
            vector = unit_jet_vector(config, jets) if jets else vector
        else:
            vector = random_unit_jet_vector(rng, config)
        reduced = class_reduce(config, presentation, vector)
        assert reduced.is_zero == _oracle_kernel(config, vector)
        zero_seen += reduced.is_zero
        nonzero_seen += not reduced.is_zero
    assert zero_seen > 10 and nonzero_seen > 10


def test_coordinates_match_cycle_products():
    rng = random.Random(47)
    for _ in range(60):
        config = random_config(rng)
        presentation = jacobian_structure(config)
        vector = random_unit_jet_vector(rng, config)
        jets = {(s, i): j for s, i, j in vector.entries}
        reduced = class_reduce(config, presentation, vector)
        assert reduced.torus_coords == _oracle_coordinates(config, presentation, jets)


# --------------------------------------------------------------------------
# Presentation invariance under relabeling
# --------------------------------------------------------------------------

def _permuted(rng: random.Random, config: CurveConfig) -> CurveConfig:
    components = list(config.components)
    rng.shuffle(components)
    singularities = []
    for s in config.singularities:
        order = list(range(len(s.branches)))
        rng.shuffle(order)
        singularities.append(Singularity(s.id, tuple(s.branches[i] for i in order)))
    rng.shuffle(singularities)
    return CurveConfig(
        name=config.name,
        components=tuple(components),
        singularities=tuple(singularities),
        basepoints=config.basepoints,
    )


def test_relabeling_permutes_coordinates_and_keeps_the_zero_class():
    rng = random.Random(53)
    for _ in range(60):
        config = random_config(rng, max_components=4, max_singularities=5)
        permuted = _permuted(rng, config)
        pres_a = jacobian_structure(config)
        pres_b = jacobian_structure(permuted)
        assert (pres_a.torus_rank, pres_a.unipotent_rank, pres_a.abelian_rank) == (
            pres_b.torus_rank,
            pres_b.unipotent_rank,
            pres_b.abelian_rank,
        )
        if rng.random() < 0.3:  # a kernel vector, zero in both presentations
            vector = constant_vector(config, {c.id: Fraction(rng.randint(1, 5))
                                              for c in config.components})
        else:
            vector = random_unit_jet_vector(rng, config)
        by_identity = {}
        for s in config.singularities:
            for i, b in enumerate(s.branches):
                by_identity[(b.component, b.point)] = vector.jet(s.id, i)
        jets_b = {}
        for s in permuted.singularities:
            for i, b in enumerate(s.branches):
                jets_b[(s.id, i)] = by_identity[(b.component, b.point)]
        class_a = class_reduce(config, pres_a, vector)
        class_b = class_reduce(permuted, pres_b, unit_jet_vector(permuted, jets_b))
        assert class_a.is_zero == class_b.is_zero
        assert sorted(class_a.unipotent_coords) == sorted(class_b.unipotent_coords)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def test_json_round_stability():
    config = two_nodes_pair()
    presentation = jacobian_structure(config)
    first = json.dumps(presentation.to_json_dict())
    second = json.dumps(jacobian_structure(config).to_json_dict())
    assert first == second
    payload = json.loads(first)
    assert payload["torus_rank"] == 1
    assert payload["unipotent_rank"] == 0
    assert payload["abelian_rank"] == 0

    element = jac_zero(presentation)
    body = element.to_json_dict()
    assert body["torus_coords"] == ["1"]
    assert body["unipotent_coords"] == []
