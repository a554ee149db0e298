"""Curve configurations: rational components pinched at contraction points.

A configuration is a list of components (projective lines, or positive-genus
labels that only contribute rank bookkeeping) together with singularities.
Each singularity is an ordered list of branches; a branch names a component,
a point of it, and a multiplicity recording how thick the pinch is along
that branch. The local ring at a singularity is of contraction type
(constants plus the product of the branch ideals), so its delta invariant is
the total branch multiplicity minus one.

The dual graph has one vertex per component and per singularity and one edge
per branch; its first Betti number is the torus rank of the Jacobian. Every
graph question (ranks, components, partitions, fundamental cycles, bridges)
is answered from one spanning forest grown by ``spanning_forest``.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .algebra import P1Point, RatLike, as_integer
from .errors import (
    InvalidConfig,
    PositiveGenusUnsupported,
    UnknownComponent,
    UnknownSingularity,
)

# Violation kinds reported by validate().
DUPLICATE_COMPONENT_ID = "DuplicateComponentId"
DUPLICATE_SINGULARITY_ID = "DuplicateSingularityId"
UNKNOWN_COMPONENT = "UnknownComponent"
DUPLICATE_BRANCH_POINT = "DuplicateBranchPoint"
BASEPOINT_NOT_SMOOTH = "BasepointNotSmooth"
DUPLICATE_BASEPOINT = "DuplicateBasepoint"
TOTAL_MULTIPLICITY_TOO_LOW = "TotalMultiplicityTooLow"
POSITIVE_GENUS_THICK_BRANCH = "PositiveGenusThickBranch"


@dataclass(frozen=True)
class Component:
    """An irreducible component: a projective line when genus is zero."""

    id: str
    genus: int = 0

    def __post_init__(self):
        genus = as_integer(self.genus, f"component {self.id}: genus")
        object.__setattr__(self, "genus", genus)
        if self.genus < 0:
            raise ValueError(f"component {self.id}: genus must be nonnegative")


@dataclass(frozen=True)
class Branch:
    """A point of the normalization over a singularity; a number is a finite point."""

    component: str
    point: P1Point
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "point", P1Point.of(self.point))
        multiplicity = as_integer(self.multiplicity, "branch multiplicity")
        object.__setattr__(self, "multiplicity", multiplicity)
        if self.multiplicity < 1:
            raise ValueError("branch multiplicity must be positive")


@dataclass(frozen=True)
class Singularity:
    """A contraction-type singular point with its ordered branch list."""

    id: str
    branches: tuple[Branch, ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))

    @property
    def total_multiplicity(self) -> int:
        return sum(b.multiplicity for b in self.branches)

    @property
    def delta(self) -> int:
        """Delta invariant: total branch multiplicity minus one."""
        return self.total_multiplicity - 1


@dataclass(frozen=True)
class CurveConfig:
    """A full configuration; basepoints are optional and per component.

    The facts every entry point reads (violations, fingerprint, id lookups,
    branch points) are computed once, when the configuration is built. Where
    an id repeats, lookups return its first occurrence. A basepoint given as a
    number is a finite point.
    """

    name: str
    components: tuple[Component, ...]
    singularities: tuple[Singularity, ...] = ()
    basepoints: tuple[tuple[str, P1Point], ...] = ()
    _components: dict[str, Component] = field(init=False, repr=False, compare=False)
    _singularities: dict[str, Singularity] = field(init=False, repr=False, compare=False)
    _basepoints: dict[str, P1Point] = field(init=False, repr=False, compare=False)
    _branch_points: frozenset[tuple[str, P1Point]] = field(init=False, repr=False, compare=False)
    _violations: tuple[Violation, ...] = field(init=False, repr=False, compare=False)
    _fingerprint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "singularities", tuple(self.singularities))
        bases = ((cid, P1Point.of(point)) for cid, point in self.basepoints)
        ordered = tuple(sorted(bases, key=lambda kv: kv[0]))
        object.__setattr__(self, "basepoints", ordered)
        # the first occurrence of a repeated id wins, as in a scan
        object.__setattr__(self, "_components", {c.id: c for c in reversed(self.components)})
        object.__setattr__(self, "_singularities", {s.id: s for s in reversed(self.singularities)})
        object.__setattr__(self, "_basepoints", dict(reversed(ordered)))
        points = frozenset((b.component, b.point) for s in self.singularities for b in s.branches)
        object.__setattr__(self, "_branch_points", points)
        object.__setattr__(self, "_violations", _find_violations(self))
        object.__setattr__(self, "_fingerprint", _structure_hash(self))

    def component(self, component_id: str) -> Component:
        component = self._components.get(component_id)
        if component is None:
            raise UnknownComponent(f"no component named {component_id!r}")
        return component

    def singularity(self, singularity_id: str) -> Singularity:
        singularity = self._singularities.get(singularity_id)
        if singularity is None:
            raise UnknownSingularity(f"no singularity named {singularity_id!r}")
        return singularity

    def basepoint(self, component_id: str) -> P1Point | None:
        return self._basepoints.get(component_id)

    def branch_points(self) -> frozenset[tuple[str, P1Point]]:
        """Every (component id, point) that lies over a singularity."""
        return self._branch_points

    def fingerprint(self) -> str:
        """Structural hash tying presentations and classes to this config."""
        return self._fingerprint


def _structure_hash(config: CurveConfig) -> str:
    parts = []
    for c in config.components:
        parts.append(f"C:{c.id}:{c.genus}")
    for s in config.singularities:
        branches = ",".join(
            f"{b.component}@{b.point}^{b.multiplicity}" for b in s.branches
        )
        parts.append(f"S:{s.id}:[{branches}]")
    for cid, point in config.basepoints:
        parts.append(f"B:{cid}@{point}")
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


def validate(config: CurveConfig) -> list[Violation]:
    """All violations of the configuration invariants; empty means valid."""
    return list(config._violations)


def require_valid(config: CurveConfig) -> None:
    if config._violations:
        raise InvalidConfig(config._violations)


def _find_violations(config: CurveConfig) -> tuple[Violation, ...]:
    out: list[Violation] = []

    seen_components: set[str] = set()
    for c in config.components:
        if c.id in seen_components:
            out.append(Violation(DUPLICATE_COMPONENT_ID, f"component {c.id!r} repeats"))
        seen_components.add(c.id)

    seen_sings: set[str] = set()
    seen_points: set[tuple[str, P1Point]] = set()
    for s in config.singularities:
        if s.id in seen_sings:
            out.append(Violation(DUPLICATE_SINGULARITY_ID, f"singularity {s.id!r} repeats"))
        seen_sings.add(s.id)
        if s.total_multiplicity < 2:
            out.append(
                Violation(
                    TOTAL_MULTIPLICITY_TOO_LOW,
                    f"singularity {s.id!r} has total multiplicity {s.total_multiplicity} < 2",
                )
            )
        for b in s.branches:
            if b.component not in config._components:
                out.append(
                    Violation(
                        UNKNOWN_COMPONENT,
                        f"singularity {s.id!r} references unknown component {b.component!r}",
                    )
                )
                continue
            key = (b.component, b.point)
            if key in seen_points:
                out.append(
                    Violation(
                        DUPLICATE_BRANCH_POINT,
                        f"branch point ({b.component}, {b.point}) appears more than once",
                    )
                )
            seen_points.add(key)
            if config._components[b.component].genus > 0 and b.multiplicity > 1:
                out.append(
                    Violation(
                        POSITIVE_GENUS_THICK_BRANCH,
                        f"component {b.component!r} has positive genus and cannot "
                        f"carry a branch of multiplicity {b.multiplicity}",
                    )
                )

    seen_bases: set[str] = set()
    for cid, point in config.basepoints:
        if cid in seen_bases:
            out.append(Violation(DUPLICATE_BASEPOINT, f"basepoint of component {cid!r} repeats"))
        seen_bases.add(cid)
        if cid not in config._components:
            out.append(
                Violation(UNKNOWN_COMPONENT, f"basepoint names unknown component {cid!r}")
            )
            continue
        if (cid, point) in config._branch_points:
            out.append(
                Violation(
                    BASEPOINT_NOT_SMOOTH,
                    f"basepoint ({cid}, {point}) is a branch point of a singularity",
                )
            )

    return tuple(out)


# --------------------------------------------------------------------------
# Dual graph
# --------------------------------------------------------------------------

Vertex = tuple[str, str]  # ("C", component id) or ("S", singularity id)
Edge = tuple[str, int]  # (singularity id, branch index)


@dataclass(frozen=True)
class DualGraph:
    """Invariants of the bipartite incidence graph of components and singularities."""

    betti1: int
    connected_components: int


def branch_edges(config: CurveConfig) -> dict[Edge, tuple[Vertex, Vertex]]:
    """Each branch edge with its (component, singularity) ends, in configuration order."""
    return {
        (s.id, i): (("C", b.component), ("S", s.id))
        for s in config.singularities
        for i, b in enumerate(s.branches)
    }


def spanning_forest(
    config: CurveConfig, *, without: str | None = None
) -> tuple[tuple[Edge, ...], dict[Vertex, Vertex]]:
    """The spanning forest of the dual graph and the tree root of every vertex.

    The forest is grown by union-find over the branch edges sorted by
    (singularity id, branch index), so it comes out in that order. The root map
    lists components, then singularities, in configuration order. With
    ``without``, that singularity vertex and its branch edges are left out.
    """
    parent: dict[Vertex, Vertex] = {("C", c.id): ("C", c.id) for c in config.components}
    parent.update((("S", s.id), ("S", s.id)) for s in config.singularities if s.id != without)

    def find(v: Vertex) -> Vertex:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    forest = []
    for edge, (u, v) in sorted(branch_edges(config).items()):
        if edge[0] == without:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            forest.append(edge)
    return tuple(forest), {v: find(v) for v in parent}


def forest_parents(
    ends: Mapping[Edge, tuple[Vertex, Vertex]], forest: Iterable[Edge]
) -> dict[Vertex, tuple[Vertex | None, Edge | None]]:
    """Parent vertex and parent edge of every vertex on a forest edge, parents first.

    Each tree is rooted at its first vertex in forest order; roots map to
    (None, None).
    """
    adjacency: dict[Vertex, list[tuple[Edge, Vertex]]] = {}
    for edge in forest:
        u, v = ends[edge]
        adjacency.setdefault(u, []).append((edge, v))
        adjacency.setdefault(v, []).append((edge, u))
    parents: dict[Vertex, tuple[Vertex | None, Edge | None]] = {}
    for root in adjacency:
        if root in parents:
            continue
        parents[root] = (None, None)
        queue = [root]
        for v in queue:  # breadth first; the queue grows while it is read
            for edge, w in adjacency[v]:
                if w not in parents:
                    parents[w] = (v, edge)
                    queue.append(w)
    return parents


def fundamental_cycles(
    ends: Mapping[Edge, tuple[Vertex, Vertex]],
    forest: Iterable[Edge],
    edges: Iterable[Edge],
) -> dict[Edge, dict[Edge, int]]:
    """Exponent vector of the cycle each non-forest edge closes through the forest.

    Edges are oriented component -> singularity; a cycle runs through its
    non-forest edge positively and back through the forest. Both ends climb the
    parent pointers to their common ancestor.
    """
    parents = forest_parents(ends, forest)
    depth: dict[Vertex, int] = {}
    for v, (p, _) in parents.items():
        depth[v] = 0 if p is None else depth[p] + 1
    cycles = {}
    for edge in edges:
        # the forest path runs from the singularity end b down to the
        # component end a; a step counts +1 when it goes component -> singularity
        a, b = ends[edge]
        cycle = {edge: 1}
        while a != b:
            if depth[a] >= depth[b]:
                a, f = parents[a]  # walked parent -> child
                cycle[f] = 1 if a[0] == "C" else -1
            else:
                b, f = parents[b]  # walked child -> parent
                cycle[f] = 1 if b[0] == "S" else -1
        cycles[edge] = cycle
    return cycles


def bridges(config: CurveConfig) -> frozenset[Edge]:
    """Branch edges whose removal disconnects the dual graph.

    These are the forest edges on no fundamental cycle: the fundamental cycles
    span the cycle space over GF(2), so a forest edge lies on some cycle only if
    it lies on a fundamental one. Parallel edges (two branches of one
    singularity on one component) are never bridges, since the one left out of
    the forest closes a cycle through the other.
    """
    ends = branch_edges(config)
    forest, _ = spanning_forest(config)
    tree = set(forest)
    on_cycle = set()
    for cycle in fundamental_cycles(ends, forest, [e for e in ends if e not in tree]).values():
        on_cycle.update(cycle)
    return frozenset(tree - on_cycle)


def dual_graph(config: CurveConfig) -> DualGraph:
    """The dual graph with its first Betti number and component count."""
    require_valid(config)
    forest, root = spanning_forest(config)
    edges = sum(len(s.branches) for s in config.singularities)
    return DualGraph(edges - len(forest), len(root) - len(forest))


def component_partition_without(config: CurveConfig, singularity_id: str) -> tuple[tuple[str, ...], ...]:
    """Partition of component ids after normalizing above one singularity.

    Classes are the connected components of the dual graph with the named
    singularity vertex (and all its branch edges) removed. Classes and their
    members follow the component order of the configuration.
    """
    config.singularity(singularity_id)  # raises UnknownSingularity
    _, root = spanning_forest(config, without=singularity_id)
    classes: dict[Vertex, list[str]] = {}
    for c in config.components:
        classes.setdefault(root[("C", c.id)], []).append(c.id)
    return tuple(tuple(members) for members in classes.values())


def is_smooth_point(config: CurveConfig, component_id: str, point: P1Point | RatLike) -> bool:
    """True when the point is not a branch point of any singularity."""
    component = config.component(component_id)
    if component.genus > 0:
        raise PositiveGenusUnsupported(
            f"component {component_id!r} has genus {component.genus}; "
            "point arithmetic is only supported on genus-0 components"
        )
    return (component_id, P1Point.of(point)) not in config.branch_points()


def smooth_sample(config: CurveConfig, component_id: str, count: int) -> list[P1Point]:
    """The first ``count`` smooth points among 0, 1, -1, 2, -2, ... of a component."""
    points = (P1Point.finite((k + 1) // 2 if k % 2 else -(k // 2)) for k in itertools.count())
    smooth = (p for p in points if is_smooth_point(config, component_id, p))
    return list(itertools.islice(smooth, count))
