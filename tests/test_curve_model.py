from __future__ import annotations

import random

import pytest

from pinchjac.algebra import INFINITY, P1Point
from pinchjac.builders import (
    cuspidal_cubic,
    elliptic_pair,
    nodal_cubic,
    random_config,
    two_lines,
    two_nodes_pair,
)
from pinchjac.curve_model import (
    BASEPOINT_NOT_SMOOTH,
    DUPLICATE_BRANCH_POINT,
    Branch,
    Component,
    CurveConfig,
    Singularity,
    TOTAL_MULTIPLICITY_TOO_LOW,
    bridges,
    component_partition_without,
    dual_graph,
    is_smooth_point,
    validate,
    with_basepoints,
)
from pinchjac.errors import InvalidConfig, PositiveGenusUnsupported, UnknownComponent


def _pt(v) -> P1Point:
    return P1Point.finite(v)


def test_standard_configs_are_valid():
    for config in (nodal_cubic(), cuspidal_cubic(), two_nodes_pair(), two_lines(), elliptic_pair()):
        assert validate(config) == []


def test_duplicate_branch_point_is_reported():
    config = CurveConfig(
        name="bad",
        components=(Component("L1"), Component("L2")),
        singularities=(
            Singularity("a", (Branch("L1", _pt(0)), Branch("L2", _pt(0)))),
            Singularity("b", (Branch("L1", _pt(0)), Branch("L2", _pt(1)))),
        ),
    )
    kinds = [v.kind for v in validate(config)]
    assert kinds == [DUPLICATE_BRANCH_POINT]


def test_basepoint_on_branch_is_reported():
    config = with_basepoints(nodal_cubic(), {"L": _pt(0)})
    kinds = [v.kind for v in validate(config)]
    assert kinds == [BASEPOINT_NOT_SMOOTH]


def test_single_reduced_branch_is_not_a_singularity():
    config = CurveConfig(
        name="tiny",
        components=(Component("L"),),
        singularities=(Singularity("s", (Branch("L", _pt(0)),)),),
    )
    kinds = [v.kind for v in validate(config)]
    assert kinds == [TOTAL_MULTIPLICITY_TOO_LOW]


def test_validate_is_order_independent():
    rng = random.Random(5)
    for _ in range(50):
        config = random_config(rng)
        shuffled = CurveConfig(
            name=config.name,
            components=tuple(sorted(config.components, key=lambda c: rng.random())),
            singularities=tuple(
                sorted(config.singularities, key=lambda s: rng.random())
            ),
            basepoints=config.basepoints,
        )
        assert sorted((v.kind, v.message) for v in validate(config)) == sorted(
            (v.kind, v.message) for v in validate(shuffled)
        )
        assert validate(config) == validate(config)  # idempotent


def test_dual_graph_examples():
    lut = dual_graph(two_nodes_pair())
    assert (lut.betti1, lut.connected_components) == (1, 1)
    nodal = dual_graph(nodal_cubic())
    assert nodal.betti1 == 1
    assert dual_graph(two_lines()).betti1 == 0
    assert dual_graph(cuspidal_cubic()).betti1 == 0


def test_dual_graph_rejects_invalid_config():
    config = CurveConfig(
        name="bad",
        components=(Component("L"),),
        singularities=(Singularity("s", (Branch("X", _pt(0), 2),)),),
    )
    with pytest.raises(InvalidConfig):
        dual_graph(config)


def test_is_smooth_point():
    nodal = nodal_cubic()
    assert is_smooth_point(nodal, "L", _pt(5))
    assert not is_smooth_point(nodal, "L", _pt(0))
    assert is_smooth_point(two_nodes_pair(), "L2", INFINITY)
    with pytest.raises(UnknownComponent):
        is_smooth_point(nodal, "missing", _pt(0))
    with pytest.raises(PositiveGenusUnsupported):
        is_smooth_point(elliptic_pair(), "E1", _pt(5))


def test_component_partition_without_singularity():
    lut = two_nodes_pair()
    # removing either node leaves the two lines joined through the other
    assert component_partition_without(lut, "n1") == (("L1", "L2"),)
    assert component_partition_without(two_lines(), "n") == (("L1",), ("L2",))


def test_bridges_of_small_graphs():
    lut = two_nodes_pair()
    assert dual_graph(lut).connected_components == 1
    # the two nodes close a cycle, so cutting a branch of n1 leaves lut connected
    assert ("n1", 0) not in bridges(lut)
    assert bridges(two_lines()) == {("n", 0), ("n", 1)}


# --------------------------------------------------------------------------
# Bookkeeping identity against a union-find oracle
# --------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _oracle(config: CurveConfig) -> tuple[int, int]:
    vertices = [("C", c.id) for c in config.components] + [
        ("S", s.id) for s in config.singularities
    ]
    uf = _UnionFind(vertices)
    cycles = 0
    for s in config.singularities:
        for b in s.branches:
            if not uf.union(("S", s.id), ("C", b.component)):
                cycles += 1
    return cycles, len({uf.find(v) for v in vertices})


def test_betti_and_components_match_union_find_oracle():
    rng = random.Random(77)
    for _ in range(200):
        config = random_config(rng, max_components=6, max_singularities=8)
        graph = dual_graph(config)
        betti, components = _oracle(config)
        assert graph.betti1 == betti
        assert graph.connected_components == components


def test_delta_bookkeeping_identity():
    # sum(delta) - #components + #cc == betti1 + sum over branches of (mult - 1)
    rng = random.Random(78)
    for _ in range(200):
        config = random_config(rng)
        graph = dual_graph(config)
        delta_sum = sum(s.delta for s in config.singularities)
        thick = sum(
            b.multiplicity - 1 for s in config.singularities for b in s.branches
        )
        lhs = delta_sum - len(config.components) + graph.connected_components
        assert lhs == graph.betti1 + thick


def test_fingerprint_tracks_structure():
    a = nodal_cubic()
    b = nodal_cubic()
    assert a.fingerprint() == b.fingerprint()
    moved = with_basepoints(a, {"L": _pt(7)})
    assert moved.fingerprint() != a.fingerprint()
