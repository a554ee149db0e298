"""Curve configurations: rational components pinched at contraction points.

A configuration is a list of components (projective lines, or positive-genus
labels that only contribute rank bookkeeping) together with singularities.
Each singularity is an ordered list of branches; a branch names a component,
a point of it, and a multiplicity recording how thick the pinch is along
that branch. The local ring at a singularity is of contraction type
(constants plus the product of the branch ideals), so its delta invariant is
the total branch multiplicity minus one.

One walk over a configuration, when it is built, fills its id lookups and
branch points (an entry already there is a duplicate), its violations and its
fingerprint.

The dual graph has one vertex per component and per singularity and one edge
per branch; its first Betti number is the torus rank of the Jacobian. Every
graph question (ranks, components, partitions, fundamental cycles, bridges)
is answered from one spanning forest grown by ``spanning_forest``.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass, field

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
INVALID_ID = "InvalidId"

# The ids the curve-file format reads, so every valid configuration prints and parses back.
ID_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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
    branch points) come from one walk when the configuration is built. Where
    an id repeats, lookups return its first occurrence and each later one is a
    violation; an id that cannot be hashed is an InvalidId and no lookup holds
    it. A basepoint given as a number is a finite point.
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
        components = tuple(self.components)
        singularities = tuple(self.singularities)
        bases = ((cid, P1Point.of(point)) for cid, point in self.basepoints)
        # keyed by str so mixed-type ids sort too; a non-string id is an InvalidId
        basepoints = tuple(sorted(bases, key=lambda kv: str(kv[0])))
        by_component: dict[str, Component] = {}
        by_singularity: dict[str, Singularity] = {}
        by_basepoint: dict[str, P1Point] = {}
        points: set[tuple[str, P1Point]] = set()
        found: list[tuple[str, str]] = []  # (kind, message) of each violation
        unhashable: list[tuple[str, object]] = []  # ids the lookups cannot hold
        parts = []  # of the fingerprint
        for c in components:
            parts.append(f"C:{c.id}:{c.genus}")
            try:
                if c.id in by_component:
                    found.append((DUPLICATE_COMPONENT_ID, f"component {c.id!r} repeats"))
                else:
                    by_component[c.id] = c
            except TypeError:  # unhashable: an InvalidId, reported with the others at the end
                pass
        for s in singularities:
            try:
                if s.id in by_singularity:
                    found.append((DUPLICATE_SINGULARITY_ID, f"singularity {s.id!r} repeats"))
                else:
                    by_singularity[s.id] = s
            except TypeError:  # unhashable: an InvalidId, reported with the others at the end
                pass
            total = s.total_multiplicity
            if total < 2:
                found.append((TOTAL_MULTIPLICITY_TOO_LOW,
                              f"singularity {s.id!r} has total multiplicity {total} < 2"))
            labels = []
            for b in s.branches:
                labels.append(f"{b.component}@{b.point}^{b.multiplicity}")
                try:
                    component = by_component.get(b.component)
                except TypeError:
                    unhashable.append(("branch component", b.component))
                    continue
                key = (b.component, b.point)
                if component is None:  # its key never meets a key on a known component
                    found.append((UNKNOWN_COMPONENT, f"singularity {s.id!r} references "
                                                     f"unknown component {b.component!r}"))
                elif key in points:
                    found.append((DUPLICATE_BRANCH_POINT, f"branch point ({b.component}, "
                                                          f"{b.point}) appears more than once"))
                if component is not None and component.genus > 0 and b.multiplicity > 1:
                    found.append((POSITIVE_GENUS_THICK_BRANCH,
                                  f"component {b.component!r} has positive genus and cannot "
                                  f"carry a branch of multiplicity {b.multiplicity}"))
                points.add(key)
            parts.append(f"S:{s.id}:[{','.join(labels)}]")
        for cid, point in basepoints:
            parts.append(f"B:{cid}@{point}")
            try:
                if cid in by_basepoint:
                    found.append((DUPLICATE_BASEPOINT, f"basepoint of component {cid!r} repeats"))
                else:
                    by_basepoint[cid] = point
            except TypeError:
                unhashable.append(("basepoint component", cid))
                continue
            if cid not in by_component:
                found.append((UNKNOWN_COMPONENT, f"basepoint names unknown component {cid!r}"))
            elif (cid, point) in points:
                found.append((BASEPOINT_NOT_SMOOTH,
                              f"basepoint ({cid}, {point}) is a branch point of a singularity"))
        ids = [("curve name", self.name)] + [("component", c.id) for c in components]
        ids += [("singularity", s.id) for s in singularities] + unhashable
        for what, name in ids:
            if not (isinstance(name, str) and ID_PATTERN.fullmatch(name)):
                message = f"{what} {name!r} is not of the form {ID_PATTERN.pattern}"
                found.append((INVALID_ID, message))
        digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "singularities", singularities)
        object.__setattr__(self, "basepoints", basepoints)
        object.__setattr__(self, "_components", by_component)
        object.__setattr__(self, "_singularities", by_singularity)
        object.__setattr__(self, "_basepoints", by_basepoint)
        object.__setattr__(self, "_branch_points", frozenset(points))
        object.__setattr__(self, "_violations", tuple(Violation(*v) for v in found))
        object.__setattr__(self, "_fingerprint", digest[:16])

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


def fundamental_cycles(config: CurveConfig, forest: tuple[Edge, ...]) -> dict[Edge, dict[Edge, int]]:
    """Exponent vector of the cycle each non-forest edge closes through the
    forest, for every non-forest edge in configuration order.

    Edges are oriented component -> singularity; a cycle runs through its
    non-forest edge positively and back through the forest. One breadth-first
    pass roots each tree at its first vertex in forest order and records the
    parent and depth of every vertex; both ends of a non-forest edge then climb
    the parent pointers to their common ancestor.
    """
    ends = branch_edges(config)
    adjacency: dict[Vertex, list[tuple[Edge, Vertex]]] = {}
    for edge in forest:
        u, v = ends[edge]
        adjacency.setdefault(u, []).append((edge, v))
        adjacency.setdefault(v, []).append((edge, u))
    parents: dict[Vertex, tuple[Vertex, Edge]] = {}
    depth: dict[Vertex, int] = {}
    for root in adjacency:
        if root in depth:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:  # breadth first; the queue grows while it is read
            for edge, w in adjacency[v]:
                if w not in depth:
                    parents[w] = (v, edge)
                    depth[w] = depth[v] + 1
                    queue.append(w)
    tree = set(forest)
    cycles = {}
    for edge, (a, b) in ends.items():
        if edge in tree:
            continue
        # the forest path runs from the singularity end b down to the
        # component end a; a step counts +1 when it goes component -> singularity
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
    forest, _ = spanning_forest(config)
    on_cycle = set()
    for cycle in fundamental_cycles(config, forest).values():
        on_cycle.update(cycle)
    return frozenset(set(forest) - on_cycle)


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
