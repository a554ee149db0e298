from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from pinchjac.abel_jacobi import SmoothDivisor, aj_eval, divisor_class
from pinchjac.algebra import INFINITY, P1Point
from pinchjac.builders import (
    cuspidal_cubic,
    elliptic_pair,
    nodal_cubic,
    random_config,
    two_lines,
    two_nodes_pair,
)
from pinchjac.contraction import finite_subscheme
from pinchjac.curve_model import (
    BASEPOINT_NOT_SMOOTH,
    DUPLICATE_BASEPOINT,
    DUPLICATE_BRANCH_POINT,
    DUPLICATE_COMPONENT_ID,
    DUPLICATE_SINGULARITY_ID,
    INVALID_ID,
    POSITIVE_GENUS_THICK_BRANCH,
    UNKNOWN_COMPONENT,
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
)
from pinchjac.dsl import parse_curve_dsl, print_curve_dsl
from pinchjac.errors import (
    InvalidConfig,
    PositiveGenusUnsupported,
    UnknownComponent,
    UnknownSingularity,
)
from pinchjac.jacobian import jacobian_structure
from pinchjac.modification import modifiable_sites
from pinchjac.obstruction import obstruction_witness


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
    config = replace(nodal_cubic(), basepoints=(("L", _pt(0)),))
    kinds = [v.kind for v in validate(config)]
    assert kinds == [BASEPOINT_NOT_SMOOTH]


def test_two_basepoints_on_one_component_are_reported():
    nodal = nodal_cubic()
    config = CurveConfig(
        nodal.name, nodal.components, nodal.singularities, (("L", INFINITY), ("L", _pt(5)))
    )
    assert [(v.kind, v.message) for v in validate(config)] == [
        (DUPLICATE_BASEPOINT, "basepoint of component 'L' repeats")
    ]
    # the readers agree on the first basepoint, and evaluation refuses the config
    assert config.basepoint("L") == INFINITY
    with pytest.raises(InvalidConfig):
        aj_eval(config, jacobian_structure(config), "L", 2)


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


# every parameter set that verify, the builders and the tests draw with
RANDOM_CONFIG_PARAMETERS = [
    {},
    {"positive_genus": False},
    {"with_basepoints": True},
    {"max_components": 5, "max_singularities": 5, "thick_branches": False},
    {"max_components": 4, "max_singularities": 5, "positive_genus": False, "with_basepoints": True},
    {"max_components": 1, "max_singularities": 5, "positive_genus": False, "with_basepoints": True},
    {"max_components": 5, "max_singularities": 6, "positive_genus": False, "with_basepoints": True},
    {"max_components": 1, "max_singularities": 1},
    {"max_components": 4, "max_singularities": 4},
    {"max_components": 6, "max_singularities": 8},
    {"max_components": 8, "max_singularities": 12},
]


@pytest.mark.parametrize("parameters", RANDOM_CONFIG_PARAMETERS)
def test_random_configs_are_valid_by_construction(parameters):
    rng = random.Random(13)
    for _ in range(300):
        assert validate(random_config(rng, **parameters)) == []


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
    assert not is_smooth_point(nodal, "L", 0)  # a plain number is a finite point
    assert is_smooth_point(nodal, "L", 5)
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
    moved = replace(a, basepoints=(("L", _pt(7)),))
    assert moved.fingerprint() != a.fingerprint()



@pytest.mark.parametrize(
    "value", [Fraction(5, 2), 2.5, Fraction(3, 2)], ids=["five_halves", "float", "three_halves"]
)
def test_non_integral_multiplicity_and_genus_are_refused(value):
    # unchecked, such a value passes validate, then aj_eval raises TypeError,
    # the abelian rank comes out fractional, and the printed "mult 5/2" or
    # "genus 3/2" does not parse back
    with pytest.raises(ValueError, match="must be an integer"):
        Branch("L", 0, value)
    with pytest.raises(ValueError, match="must be an integer"):
        Component("E", value)


def test_integral_multiplicity_and_genus_are_plain_ints():
    cusp = CurveConfig(
        "cuspidal",
        (Component("L", Fraction(0)),),
        (Singularity("s", (Branch("L", 0, Fraction(2)),)),),
        (("L", INFINITY),),
    )
    assert cusp == cuspidal_cubic()
    assert cusp.fingerprint() == cuspidal_cubic().fingerprint()
    assert type(cusp.singularities[0].branches[0].multiplicity) is int
    assert Branch("L", 0, True).multiplicity == 1 and Component("E", True).genus == 1
    assert parse_curve_dsl(print_curve_dsl(cusp)).config == cusp


STRING_INPUTS = {
    "branch_point": lambda: Branch("L", "3"),
    "branch_multiplicity": lambda: Branch("L", 0, "2"),
    "genus": lambda: Component("E", "1"),
    "divisor_point": lambda: SmoothDivisor.of([("L", "2", 1), ("L", 3, -1)]),
    "divisor_coefficient": lambda: SmoothDivisor.of([("L", 2, "1"), ("L", 3, -1)]),
    "subscheme_point": lambda: finite_subscheme([("1/2", 2), (0, 1)]),
    "subscheme_multiplicity": lambda: finite_subscheme([(0, "2"), (1, 1)]),
    "aj_point": lambda: aj_eval(nodal_cubic(), jacobian_structure(nodal_cubic()), "L", "2"),
}


@pytest.mark.parametrize("build", STRING_INPUTS.values(), ids=STRING_INPUTS)
def test_strings_are_not_numbers(build):
    # Fraction() parses strings, so "2" used to pass as the number 2
    with pytest.raises(TypeError, match="must be a number, got '"):
        build()


def test_numbers_of_every_exact_kind_are_accepted():
    for two in (2, Fraction(2), 2.0):
        assert Branch("L", two, two) == Branch("L", P1Point.finite(2), 2)
    assert Branch("L", True, True) == Branch("L", 1)
    divisor = SmoothDivisor.of([("L", Fraction(1, 2), True), ("L", 3, -1)])
    assert divisor.entries[0] == ("L", P1Point.finite(Fraction(1, 2)), 1)


def test_invalid_ids_are_violations():
    # the parser reads only these ids, so the printed text of any other would not parse back
    for config in (CurveConfig("my curve", (Component("L"),)),
                   CurveConfig("c", (Component("L 1"),)),
                   CurveConfig("c", (Component("L\n"),)),
                   CurveConfig("c", (Component("L"),), (Singularity("s-1", (Branch("L", 0, 2),)),))):
        assert [v.kind for v in validate(config)] == [INVALID_ID]
        with pytest.raises(InvalidConfig):
            jacobian_structure(config)


def test_mixed_type_basepoint_ids_are_reported_not_raised():
    config = CurveConfig("c", (Component("L"), Component(5)), (), ((5, 0), ("L", 1)))
    assert [(v.kind, v.message) for v in validate(config)] == [
        (INVALID_ID, "component 5 is not of the form [A-Za-z_][A-Za-z0-9_]*")
    ]
    assert config.basepoints == ((5, _pt(0)), ("L", _pt(1)))
    assert config.basepoint(5) == _pt(0) and config.basepoint("L") == _pt(1)


@pytest.mark.parametrize("build, what", [
    (lambda: CurveConfig("c", (Component(["L"]),)), "component ['L']"),
    (lambda: CurveConfig("c", (Component("L"),), (Singularity(["s"], (Branch("L", 0, 2),)),)),
     "singularity ['s']"),
    (lambda: CurveConfig("c", (Component("L"),),
                         (Singularity("s", (Branch("L", 0), Branch(["L"], 1))),)),
     "branch component ['L']"),
    (lambda: CurveConfig("c", (Component("L"),), (), ((["L"], 0),)), "basepoint component ['L']"),
], ids=["component", "singularity", "branch component", "basepoint component"])
def test_unhashable_ids_are_reported_not_raised(build, what):
    config = build()  # no lookup can hold a list, and hashing one must not escape as a TypeError
    assert [(v.kind, v.message) for v in validate(config)] == [
        (INVALID_ID, f"{what} is not of the form [A-Za-z_][A-Za-z0-9_]*")
    ]
    with pytest.raises(InvalidConfig):
        jacobian_structure(config)


# --------------------------------------------------------------------------
# Stored facts against linear scans
# --------------------------------------------------------------------------

def _scan(items, key, wanted):
    """The first item whose key is the wanted one, or None."""
    for item in items:
        if key(item) == wanted:
            return item
    return None


def _scan_component(config, component_id):
    return _scan(config.components, lambda c: c.id, component_id)


def _scan_violations(config) -> list[tuple[str, str]]:
    """(kind, message) of every violation, found by scanning the configuration."""
    out = []
    components = list(config.components)
    for k, c in enumerate(components):
        if _scan(components[:k], lambda d: d.id, c.id) is not None:
            out.append((DUPLICATE_COMPONENT_ID, f"component {c.id!r} repeats"))
    singularities = list(config.singularities)
    points = []  # branch points on known components, in configuration order
    for k, s in enumerate(singularities):
        if _scan(singularities[:k], lambda t: t.id, s.id) is not None:
            out.append((DUPLICATE_SINGULARITY_ID, f"singularity {s.id!r} repeats"))
        total = sum(b.multiplicity for b in s.branches)
        if total < 2:
            out.append((TOTAL_MULTIPLICITY_TOO_LOW,
                        f"singularity {s.id!r} has total multiplicity {total} < 2"))
        for b in s.branches:
            component = _scan_component(config, b.component)
            if component is None:
                out.append((UNKNOWN_COMPONENT,
                            f"singularity {s.id!r} references unknown component {b.component!r}"))
                continue
            if (b.component, b.point) in points:
                out.append((DUPLICATE_BRANCH_POINT,
                            f"branch point ({b.component}, {b.point}) appears more than once"))
            points.append((b.component, b.point))
            if component.genus > 0 and b.multiplicity > 1:
                out.append((POSITIVE_GENUS_THICK_BRANCH,
                            f"component {b.component!r} has positive genus and cannot "
                            f"carry a branch of multiplicity {b.multiplicity}"))
    bases = list(config.basepoints)
    for k, (cid, point) in enumerate(bases):
        if _scan(bases[:k], lambda kv: kv[0], cid) is not None:
            out.append((DUPLICATE_BASEPOINT, f"basepoint of component {cid!r} repeats"))
        if _scan_component(config, cid) is None:
            out.append((UNKNOWN_COMPONENT, f"basepoint names unknown component {cid!r}"))
            continue
        if (cid, point) in points:
            out.append((BASEPOINT_NOT_SMOOTH,
                        f"basepoint ({cid}, {point}) is a branch point of a singularity"))
    return out


def _scan_is_smooth_point(config, component_id, point):
    component = _scan_component(config, component_id)
    if component is None:
        raise UnknownComponent(component_id)
    if component.genus > 0:
        raise PositiveGenusUnsupported(component_id)
    return not any(
        (b.component, b.point) == (component_id, point)
        for s in config.singularities
        for b in s.branches
    )


def _outcome(fn, *args):
    """The value of a call, or the type of the library error it raised."""
    try:
        return ("value", fn(*args))
    except (UnknownComponent, PositiveGenusUnsupported) as exc:
        return ("raises", type(exc))


def _with_repeated_ids(rng: random.Random, config: CurveConfig) -> CurveConfig:
    """A copy with extra components, singularities and basepoints that reuse ids.

    Extra components get a random genus, so one id can name components of
    different genus; some branches and basepoints name a missing component X.
    """
    component_ids = [c.id for c in config.components]
    components = list(config.components) + [
        Component(rng.choice(component_ids), rng.choice((0, 1)))
        for _ in range(rng.randint(1, 3))
    ]
    rng.shuffle(components)
    singularities = list(config.singularities)
    for _ in range(rng.randint(1, 3)):
        sid = rng.choice([s.id for s in singularities] or ["s0"])
        branches = tuple(
            Branch(rng.choice(component_ids + ["X"]), _pt(rng.randint(-3, 3)), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        )
        singularities.insert(rng.randint(0, len(singularities)), Singularity(sid, branches))
    points = [(b.component, b.point) for s in singularities for b in s.branches]
    basepoints = list(config.basepoints)
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            basepoints.append(rng.choice(points))
        else:
            basepoints.append((rng.choice(component_ids + ["X"]), _pt(rng.randint(-3, 3))))
    return CurveConfig(config.name, tuple(components), tuple(singularities), tuple(basepoints))


def _configs_for_scans() -> list[CurveConfig]:
    rng = random.Random(41)
    out = []
    for _ in range(60):
        config = random_config(rng, with_basepoints=rng.random() < 0.5)
        out += [config, _with_repeated_ids(rng, config)]
    return out


def test_stored_facts_match_linear_scans():
    for config in _configs_for_scans():
        assert [(v.kind, v.message) for v in validate(config)] == _scan_violations(config)
        for cid in {c.id for c in config.components} | {"X"}:
            expected = _scan_component(config, cid)
            if expected is None:
                with pytest.raises(UnknownComponent):
                    config.component(cid)
            else:
                assert config.component(cid) is expected
            base = _scan(config.basepoints, lambda kv: kv[0], cid)
            assert config.basepoint(cid) == (None if base is None else base[1])
            points = [p for c, p in config.branch_points() if c == cid]
            for point in points + [INFINITY, _pt(0), _pt(1), _pt(-1), _pt(7)]:
                assert _outcome(is_smooth_point, config, cid, point) == _outcome(
                    _scan_is_smooth_point, config, cid, point
                )
        for sid in {s.id for s in config.singularities} | {"zz"}:
            expected = _scan(config.singularities, lambda s: s.id, sid)
            if expected is None:
                with pytest.raises(UnknownSingularity):
                    config.singularity(sid)
            else:
                assert config.singularity(sid) is expected


def test_repeated_ids_reach_every_violation_kind():
    kinds = {v.kind for config in _configs_for_scans() for v in validate(config)}
    assert kinds == {
        DUPLICATE_COMPONENT_ID, DUPLICATE_SINGULARITY_ID, TOTAL_MULTIPLICITY_TOO_LOW,
        UNKNOWN_COMPONENT, DUPLICATE_BRANCH_POINT, POSITIVE_GENUS_THICK_BRANCH,
        DUPLICATE_BASEPOINT, BASEPOINT_NOT_SMOOTH,
    }


def test_stored_facts_leave_equality_hash_and_repr_alone():
    a, b = nodal_cubic(), nodal_cubic()
    assert a == b and hash(a) == hash(b)
    assert repr(a) == (
        f"CurveConfig(name={a.name!r}, components={a.components!r}, "
        f"singularities={a.singularities!r}, basepoints={a.basepoints!r})"
    )


def test_violations_and_fingerprint_are_computed_once_per_config(monkeypatch):
    # the generated __init__ looks __post_init__ up on the class when it runs
    built = []
    post_init = CurveConfig.__post_init__

    def counted(config):
        built.append(config)
        post_init(config)

    monkeypatch.setattr(CurveConfig, "__post_init__", counted)
    config = two_nodes_pair()
    assert len(built) == 1 and built[0] is config
    presentation = jacobian_structure(config)
    for value in (2, 3, 5):
        aj_eval(config, presentation, "L1", value)
        divisor_class(config, presentation, SmoothDivisor.of([("L2", value, 1), ("L2", 9, -1)]))
    modifiable_sites(config)
    obstruction_witness(config, "n1", 0)
    assert validate(config) == []
    assert config.fingerprint() == presentation.config_fingerprint
    assert len(built) == 1
    other = CurveConfig("other", (Component("L"),))
    assert len(built) == 2 and built[1] is other
