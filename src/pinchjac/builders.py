"""Ready-made configurations and seeded random generators.

The random generators are deterministic given a `random.Random` instance and
produce configurations satisfying the model invariants by construction:
branch points are drawn per component without repetition, thick branches are
placed only on genus-0 components, and every singularity has total
multiplicity at least 2.
"""

from __future__ import annotations

import random
from fractions import Fraction
from importlib import resources

from .algebra import INFINITY, Jet, P1Point
from .curve_model import Branch, Component, CurveConfig, Singularity, validate
from .dsl import parse_curve_dsl
from .jacobian import UnitJetVector, unit_jet_vector
from .modification import modifiable_sites


def load_fixture(name: str) -> CurveConfig:
    """Parse one of the shipped .curve fixture files."""
    path = resources.files("pinchjac").joinpath("fixtures", f"{name}.curve")
    return parse_curve_dsl(path.read_text(encoding="utf-8")).config


def nodal_cubic() -> CurveConfig:
    """One projective line with the points 0 and 1 glued to a node."""
    return load_fixture("nodal")


def cuspidal_cubic() -> CurveConfig:
    """One projective line with a doubled point at 0 contracted to a cusp."""
    return load_fixture("cuspidal")


def two_nodes_pair() -> CurveConfig:
    """Two projective lines meeting at two nodes (Jacobian a one-dimensional torus)."""
    return load_fixture("lut")


def two_lines() -> CurveConfig:
    """Two projective lines meeting at a single node (trivial Jacobian)."""
    return load_fixture("two_lines")


def elliptic_pair() -> CurveConfig:
    """Two genus-1 components meeting at a node; only the ranks matter."""
    return load_fixture("elliptic_pair")


# --------------------------------------------------------------------------
# Random configurations
# --------------------------------------------------------------------------

class _PointAllocator:
    """Hands out fresh points per component: 0, 1, -1, 2, ... and inf once."""

    def __init__(self, rng: random.Random, allow_infinity: bool = True):
        self._rng = rng
        self._next: dict[str, int] = {}
        self._inf_used: set[str] = set()
        self._allow_infinity = allow_infinity

    def take(self, component_id: str) -> P1Point:
        if (
            self._allow_infinity
            and component_id not in self._inf_used
            and self._rng.random() < 0.08
        ):
            self._inf_used.add(component_id)
            return INFINITY
        k = self._next.get(component_id, 0)
        self._next[component_id] = k + 1
        value = Fraction((k + 2) // 2 if k % 2 == 0 else -((k + 1) // 2))
        return P1Point.finite(value)


def random_config(
    rng: random.Random,
    max_components: int = 6,
    max_singularities: int = 8,
    thick_branches: bool = True,
    positive_genus: bool = True,
    with_basepoints: bool = False,
) -> CurveConfig:
    """A random valid configuration within the given size bounds."""
    n_components = rng.randint(1, max_components)
    components = []
    for i in range(n_components):
        genus = rng.choice((0, 0, 0, 1)) if positive_genus else 0
        components.append(Component(f"C{i}", genus))
    genus_of = {c.id: c.genus for c in components}
    allocator = _PointAllocator(rng)

    singularities = []
    n_singularities = rng.randint(0, max_singularities)
    for j in range(n_singularities):
        branches = []
        r = rng.randint(1, 4)
        chosen = [rng.randrange(n_components) for _ in range(r)]
        for index in chosen:
            component = components[index]
            if thick_branches and genus_of[component.id] == 0 and rng.random() < 0.3:
                mult = rng.randint(2, 3)
            else:
                mult = 1
            branches.append(Branch(component.id, allocator.take(component.id), mult))
        # a lone reduced branch is not a singularity; thicken or extend it
        if sum(b.multiplicity for b in branches) < 2:
            b = branches[0]
            if genus_of[b.component] == 0:
                branches[0] = Branch(b.component, b.point, 2)
            else:
                other = components[(chosen[0] + 1) % n_components]
                branches.append(Branch(other.id, allocator.take(other.id), 1))
        singularities.append(Singularity(f"s{j}", tuple(branches)))

    basepoints = ()
    if with_basepoints:
        basepoints = tuple((c.id, allocator.take(c.id)) for c in components)

    config = CurveConfig(
        name=f"random_{rng.randrange(10**6)}",
        components=tuple(components),
        singularities=tuple(singularities),
        basepoints=basepoints,
    )
    if validate(config):
        # the allocator guarantees fresh points, so this should be unreachable
        return random_config(
            rng, max_components, max_singularities, thick_branches, positive_genus,
            with_basepoints,
        )
    return config


def random_modifiable_config(rng: random.Random) -> CurveConfig:
    """A random all-reduced configuration with at least one modification site."""
    for _ in range(200):
        config = random_config(
            rng,
            max_components=5,
            max_singularities=5,
            thick_branches=False,
            positive_genus=True,
        )
        if len(config.components) >= 2 and modifiable_sites(config):
            return config
    raise RuntimeError("could not find a modifiable configuration")


def random_rational_aj_config(rng: random.Random) -> CurveConfig:
    """A random all-genus-0 configuration with basepoints on every component."""
    return random_config(
        rng,
        max_components=4,
        max_singularities=5,
        positive_genus=False,
        with_basepoints=True,
    )


def random_unit_jet(rng: random.Random, order: int) -> Jet:
    values = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))]
    values += [
        Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(order - 1)
    ]
    return Jet.make(order, values)


def random_unit_jet_vector(rng: random.Random, config: CurveConfig) -> UnitJetVector:
    jets = {
        (s.id, i): random_unit_jet(rng, b.multiplicity)
        for s in config.singularities
        for i, b in enumerate(s.branches)
    }
    return unit_jet_vector(config, jets)
