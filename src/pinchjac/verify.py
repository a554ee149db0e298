"""The acceptance suite: every check the `verify` command runs.

Each criterion is a function returning a CheckResult; run_all executes them
in order with a seeded generator so the whole suite is reproducible. Where a
criterion calls for an independent oracle the oracle is implemented here,
separately from the library code it checks: connected components and cycle
ranks by union-find, subalgebra membership by exact row reduction over an
explicit spanning set, and collision equations in closed form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .abel_jacobi import (
    CUSPIDAL_X,
    CUSPIDAL_Y,
    NODAL_X,
    NODAL_Y,
    SmoothDivisor,
    aj_eval,
    aj_injectivity_probe,
    cuspidal_param,
    divisor_class,
    nodal_param,
    param_inverse,
)
from .algebra import Jet, P1Point, Poly
from .builders import (
    load_fixture,
    random_config,
    random_modifiable_config,
    random_rational_aj_config,
    random_unit_jet_vector,
)
from .contraction import (
    contraction_generators,
    finite_subscheme,
    MembershipCertificate,
    subalgebra_membership,
    vanishing_ideal_generator,
)
from .curve_model import CurveConfig, dual_graph, smooth_sample
from .jacobian import class_reduce, constant_vector, jac_add, jac_eq, jacobian_structure
from .modification import modifiable_sites, modify
from .obstruction import (
    Liftable,
    Witness,
    liftability_problem,
    liftability_test,
    obstruction_witness,
)


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    details: str


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, item):
        while self.parent[item] != item:
            self.parent[item] = self.parent[self.parent[item]]
            item = self.parent[item]
        return item

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _oracle_graph_ranks(config: CurveConfig) -> tuple[int, int]:
    """(first Betti number, connected components) by union-find."""
    vertices = [("C", c.id) for c in config.components] + [
        ("S", s.id) for s in config.singularities
    ]
    uf = _UnionFind(vertices)
    cycles = 0
    for s in config.singularities:
        for b in s.branches:
            if not uf.union(("S", s.id), ("C", b.component)):
                cycles += 1
    components = len({uf.find(v) for v in vertices})
    return cycles, components


def _oracle_membership(f: Poly, g: Poly) -> bool:
    """Is f in the span of {1, g, g*t, ..., g*t^(deg f - deg g)}?

    Decided by exact row reduction, independently of the certificate search.
    """
    basis = [Poly.one()]
    for j in range(max(f.degree - g.degree, 0) + 1):
        basis.append(g * Poly.monomial(j))
    pivots: dict[int, Poly] = {}
    for row in basis:
        current = row
        while not current.is_zero:
            d = current.degree
            if d in pivots:
                current = current - pivots[d] * (current.leading / pivots[d].leading)
            else:
                pivots[d] = current
                break
    current = f
    while not current.is_zero:
        d = current.degree
        if d not in pivots:
            return False
        current = current - pivots[d] * (current.leading / pivots[d].leading)
    return True


def _random_degree_zero_divisor(rng: random.Random, config: CurveConfig) -> SmoothDivisor:
    entries = []
    for component in config.components:
        pairs = rng.randint(0, 2)
        if pairs == 0:
            continue
        points = smooth_sample(config, component.id, 12)
        chosen = rng.sample(points, k=2 * pairs)
        for i in range(pairs):
            weight = rng.randint(1, 3)
            entries.append((component.id, chosen[2 * i], weight))
            entries.append((component.id, chosen[2 * i + 1], -weight))
    return SmoothDivisor.of(entries)


# --------------------------------------------------------------------------
# Criteria
# --------------------------------------------------------------------------

def criterion_1_jacobian_structures(seed: int = 0) -> CheckResult:
    expected = {
        "nodal": (1, 0, 0),
        "cuspidal": (0, 1, 0),
        "lut": (1, 0, 0),
        "elliptic_pair": (0, 0, 2),
    }
    failures = []
    for name, ranks in expected.items():
        p = jacobian_structure(load_fixture(name))
        got = (p.torus_rank, p.unipotent_rank, p.abelian_rank)
        if got != ranks:
            failures.append(f"{name}: expected {ranks}, got {got}")
    return CheckResult(
        1,
        "Jacobian structures of the standard curves",
        not failures,
        "; ".join(failures) or f"{len(expected)} structures matched exactly",
    )


def criterion_2_contraction_generators(seed: int = 0) -> CheckResult:
    rng = random.Random(seed + 2)
    failures = []

    node_g = vanishing_ideal_generator(finite_subscheme([(0, 1), (1, 1)]))
    cusp_g = vanishing_ideal_generator(finite_subscheme([(0, 2)]))
    node_set = contraction_generators(node_g)
    cusp_set = contraction_generators(cusp_g)
    if [str(p) for p in node_set.generators] != ["t^2 - t", "t^3 - t^2"]:
        failures.append(f"node generators: {[str(p) for p in node_set.generators]}")
    if [str(p) for p in cusp_set.generators] != ["t^2", "t^3"]:
        failures.append(f"cusp generators: {[str(p) for p in cusp_set.generators]}")
    if node_set.hilbert_checked_to < 9 or cusp_set.hilbert_checked_to < 9:
        failures.append("dimension certificate does not reach degree 9")

    checked = 0
    for trial in range(500):
        g = node_g if trial % 2 == 0 else cusp_g
        if trial % 4 < 2:
            f = Poly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 9))])
        else:
            h = Poly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))])
            f = Poly.constant(rng.randint(-9, 9)) + g * h
        answer = subalgebra_membership(f, g)
        member = isinstance(answer, MembershipCertificate)
        if member != _oracle_membership(f, g):
            failures.append(f"membership disagrees with oracle on {f} mod {g}")
            break
        if member and answer.expand() != f:
            failures.append(f"certificate for {f} does not re-expand")
            break
        checked += 1
    return CheckResult(
        2,
        "contraction generators with certified membership",
        not failures,
        "; ".join(failures) or f"generator sets exact, {checked} membership checks agree",
    )


def criterion_3_parametrizations(seed: int = 0) -> CheckResult:
    failures = []
    nodal_residual = NODAL_Y * NODAL_Y - NODAL_X * NODAL_Y - NODAL_X ** 3
    cusp_residual = CUSPIDAL_Y * CUSPIDAL_Y - CUSPIDAL_X ** 3
    if not nodal_residual.is_zero:
        failures.append(f"nodal relation residual {nodal_residual}")
    if not cusp_residual.is_zero:
        failures.append(f"cuspidal relation residual {cusp_residual}")
    samples = [Fraction(k) for k in (2, 3, -1, 5, -4, 7)] + [
        Fraction(7, 2),
        Fraction(-3, 5),
        Fraction(9, 4),
        Fraction(11, 3),
        Fraction(-8, 3),
        Fraction(13, 6),
        Fraction(4),
        Fraction(-6),
        Fraction(10),
        Fraction(1, 7),
        Fraction(-1, 9),
        Fraction(5, 8),
        Fraction(12),
        Fraction(-11, 2),
    ]
    for t in samples:
        if t not in (0, 1) and param_inverse(*nodal_param(t)) != t:
            failures.append(f"nodal inverse fails at {t}")
        if t != 0 and param_inverse(*cuspidal_param(t)) != t:
            failures.append(f"cuspidal inverse fails at {t}")
    return CheckResult(
        3,
        "cubic parametrization identities and rational inverse",
        not failures,
        "; ".join(failures)
        or f"relations vanish identically; {len(samples)} round trips exact",
    )


def criterion_4_abel_jacobi_injectivity(seed: int = 0) -> CheckResult:
    failures = []

    for name in ("nodal", "cuspidal"):
        config = load_fixture(name)
        sample = [("L", point) for point in smooth_sample(config, "L", 100)]
        report = aj_injectivity_probe(config, jacobian_structure(config), sample)
        if report.collisions:
            failures.append(f"{name} cubic produced {len(report.collisions)} collisions")

    lut = load_fixture("lut")
    lut_pres = jacobian_structure(lut)
    sample = [("L1", P1Point.finite(2)), ("L2", P1Point.finite(-1))]
    sample += [("L1", P1Point.finite(k)) for k in range(3, 13)]
    sample += [("L2", P1Point.finite(k)) for k in range(2, 12)]
    report = aj_injectivity_probe(lut, lut_pres, sample)
    derived_pair = (("L1", P1Point.finite(2)), ("L2", P1Point.finite(-1)))
    if derived_pair not in report.collisions:
        failures.append("the derived collision (L1:2, L2:-1) was not found")
    else:
        a = aj_eval(lut, lut_pres, "L1", 2)
        b = aj_eval(lut, lut_pres, "L2", -1)
        if not jac_eq(a, b):
            failures.append("derived collision classes differ")
        # closed forms: p/(p-1) on the first line equals (q-1)/q on the second
        p, q = Fraction(2), Fraction(-1)
        if a.torus_coords != (p / (p - 1),) or b.torus_coords != ((q - 1) / q,):
            failures.append("closed-form torus coordinates do not match")
    extra = [c for c in report.collisions if c != derived_pair]
    if extra:
        failures.append(f"unexpected collisions {extra}")
    return CheckResult(
        4,
        "Abel-Jacobi injective on each cubic, collision on the two-node pair",
        not failures,
        "; ".join(failures)
        or "200 cubic samples collision-free; two-node collision reproduced",
    )


def criterion_5_modification_invariance(seed: int = 0) -> CheckResult:
    rng = random.Random(seed + 5)
    failures = []
    for trial in range(100):
        config = random_modifiable_config(rng)
        sites = modifiable_sites(config)
        site = sites[rng.randrange(len(sites))]
        before = jacobian_structure(config)
        before_cc = dual_graph(config).connected_components
        modified = modify(config, site)
        after = jacobian_structure(modified)
        after_cc = dual_graph(modified).connected_components
        if (before.torus_rank, before.unipotent_rank, before.abelian_rank) != (
            after.torus_rank,
            after.unipotent_rank,
            after.abelian_rank,
        ):
            failures.append(f"trial {trial}: ranks changed at {site}")
            break
        if after_cc != before_cc + 1:
            failures.append(
                f"trial {trial}: connected components {before_cc} -> {after_cc}"
            )
            break
    return CheckResult(
        5,
        "modification preserves ranks and disconnects by exactly one",
        not failures,
        "; ".join(failures) or "100 random modifications invariant",
    )


def criterion_6_obstruction_witnesses(seed: int = 0) -> CheckResult:
    rng = random.Random(seed + 6)
    failures = []
    for name in ("nodal", "cuspidal", "lut"):
        config = load_fixture(name)
        for s in config.singularities:
            for i in range(len(s.branches)):
                if not isinstance(obstruction_witness(config, s.id, i), Witness):
                    failures.append(f"{name}: no witness at ({s.id}, {i})")
    count = 0
    for trial in range(100):
        config = random_modifiable_config(rng)
        sites = modifiable_sites(config)
        site = sites[rng.randrange(len(sites))]
        s = config.singularity(site.singularity)
        germ = {
            i: Jet.constant(2 if i == site.branch else 1, b.multiplicity)
            for i, b in enumerate(s.branches)
        }
        problem = liftability_problem(config, site.singularity, germ)
        if not isinstance(liftability_test(problem), Liftable):
            failures.append(f"trial {trial}: detached germ not liftable at {site}")
            break
        count += 1
    return CheckResult(
        6,
        "non-liftable witnesses exist off sites; detached germs lift",
        not failures,
        "; ".join(failures) or f"all fixture witnesses verified; {count} detached lifts",
    )


def criterion_7_structural_invariants(seed: int = 0) -> CheckResult:
    rng = random.Random(seed + 7)
    failures = []
    for trial in range(200):
        config = random_config(rng)
        presentation = jacobian_structure(config)
        betti_oracle, cc_oracle = _oracle_graph_ranks(config)
        if presentation.torus_rank != betti_oracle:
            failures.append(f"trial {trial}: torus {presentation.torus_rank} != betti {betti_oracle}")
            break
        delta_sum = sum(s.delta for s in config.singularities)
        expected = delta_sum - len(config.components) + cc_oracle
        if presentation.torus_rank + presentation.unipotent_rank != expected:
            failures.append(f"trial {trial}: rank sum differs from delta bookkeeping")
            break
        graph = dual_graph(config)
        if (graph.betti1, graph.connected_components) != (betti_oracle, cc_oracle):
            failures.append(f"trial {trial}: dual graph disagrees with union-find")
            break
    return CheckResult(
        7,
        "torus rank is the dual-graph Betti number; delta bookkeeping",
        not failures,
        "; ".join(failures) or "200 random configurations agree with oracles",
    )


def criterion_8_group_laws(seed: int = 0) -> CheckResult:
    rng = random.Random(seed + 8)
    failures = []

    for trial in range(50):
        config = random_config(rng, positive_genus=False)
        presentation = jacobian_structure(config)
        v = random_unit_jet_vector(rng, config)
        w = random_unit_jet_vector(rng, config)
        lhs = class_reduce(config, presentation, v * w)
        rhs = jac_add(
            class_reduce(config, presentation, v), class_reduce(config, presentation, w)
        )
        if not jac_eq(lhs, rhs):
            failures.append(f"trial {trial}: class_reduce is not a homomorphism")
            break

    for trial in range(50):
        config = random_rational_aj_config(rng)
        presentation = jacobian_structure(config)
        d1 = _random_degree_zero_divisor(rng, config)
        d2 = _random_degree_zero_divisor(rng, config)
        lhs = divisor_class(config, presentation, d1 + d2)
        rhs = jac_add(
            divisor_class(config, presentation, d1),
            divisor_class(config, presentation, d2),
        )
        if not jac_eq(lhs, rhs):
            failures.append(f"trial {trial}: divisor_class is not additive")
            break

    for trial in range(50):
        config = random_config(rng, positive_genus=False)
        presentation = jacobian_structure(config)
        v = random_unit_jet_vector(rng, config)
        scalars = {
            c.id: Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
            for c in config.components
        }
        rescaled = v * constant_vector(config, scalars)
        if not jac_eq(
            class_reduce(config, presentation, v),
            class_reduce(config, presentation, rescaled),
        ):
            failures.append(f"trial {trial}: scalar rescaling changed the class")
            break

    return CheckResult(
        8,
        "group laws: homomorphism, additivity, scalar invariance",
        not failures,
        "; ".join(failures) or "3 x 50 randomized trials exact",
    )


CRITERIA = (
    criterion_1_jacobian_structures,
    criterion_2_contraction_generators,
    criterion_3_parametrizations,
    criterion_4_abel_jacobi_injectivity,
    criterion_5_modification_invariance,
    criterion_6_obstruction_witnesses,
    criterion_7_structural_invariants,
    criterion_8_group_laws,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [criterion(seed) for criterion in CRITERIA]
