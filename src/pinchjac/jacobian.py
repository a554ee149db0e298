"""Generalized Jacobians with explicit coordinates.

The Jacobian of a configuration splits into a torus part, a unipotent part,
and an abelian label. The torus rank is the first Betti number of the dual
graph; its coordinates are indexed by the branch edges left out of a
deterministically chosen spanning forest. The unipotent rank is the sum of
(multiplicity - 1) over all branches; its coordinates are the truncated-log
coefficients of unit jets, which makes the group law literally additive in
characteristic zero. The abelian rank is the total genus and carries no
arithmetic.

A degree-zero class is represented by a unit jet at every branch (the value
of a rational function along the fibers of the normalization). ``class_reduce``
maps such a vector to canonical coordinates: unipotent coordinates are log
coefficients, and torus coordinates are branch values after the unique
vertex-scalar normalization that makes every spanning-forest edge value 1.
Within a singularity this reduces to the ratio convention value(b_i)/value(b_0)
against the first-listed branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .algebra import Jet, rational_str, unit_log
from .curve_model import (
    CurveConfig,
    Edge,
    Singularity,
    Vertex,
    branch_edges,
    forest_parents,
    fundamental_cycles,
    require_valid,
    spanning_forest,
)
from .errors import NonUnitEntry, OrderMismatch, PresentationMismatch

TORUS_ORIENTATION = "branch value over first-listed branch value, forest-normalized"


# --------------------------------------------------------------------------
# Local unit quotients
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalUnitQuotient:
    """Ranks of (units along the branches) / (local units of the curve)."""

    singularity: str
    torus_rank: int
    unipotent_rank: int
    branch_order: tuple

    @property
    def delta(self) -> int:
        return self.torus_rank + self.unipotent_rank


def local_unit_quotient(s: Singularity) -> LocalUnitQuotient:
    """Local units of a contraction-type ring contribute only constants, so
    the quotient has torus rank (branches - 1) and unipotent rank
    sum(multiplicity - 1)."""
    torus = s.branch_count - 1
    unipotent = sum(b.multiplicity - 1 for b in s.branches)
    return LocalUnitQuotient(s.id, torus, unipotent, tuple(s.branches))


# --------------------------------------------------------------------------
# Presentations
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobianPresentation:
    config_fingerprint: str
    torus_rank: int
    unipotent_rank: int
    abelian_rank: int
    spanning_forest: tuple[Edge, ...]
    torus_basis: tuple[Edge, ...]
    unipotent_basis: tuple[tuple[str, int, int], ...]  # (singularity, branch, jet degree)

    def to_json_dict(self) -> dict:
        return {
            "torus_rank": self.torus_rank,
            "unipotent_rank": self.unipotent_rank,
            "abelian_rank": self.abelian_rank,
            "spanning_forest": [[s, i] for s, i in self.spanning_forest],
            "torus_basis": [[s, i] for s, i in self.torus_basis],
            "unipotent_basis": [[s, i, k] for s, i, k in self.unipotent_basis],
            "conventions": {"torus_coordinate": TORUS_ORIENTATION},
            "config": self.config_fingerprint,
        }


def jacobian_structure(config: CurveConfig) -> JacobianPresentation:
    """Ranks and coordinate bases of the Jacobian of a valid configuration.

    The spanning forest is grown over the branch edges sorted by
    (singularity id, branch index); the torus basis is the non-forest edges
    in configuration order.
    """
    require_valid(config)
    forest, _ = spanning_forest(config)
    in_forest = set(forest)
    torus_basis = tuple(edge for edge in branch_edges(config) if edge not in in_forest)
    unipotent_basis = tuple(
        (s.id, i, k)
        for s in config.singularities
        for i, b in enumerate(s.branches)
        for k in range(1, b.multiplicity)
    )
    abelian = sum(c.genus for c in config.components)
    return JacobianPresentation(
        config_fingerprint=config.fingerprint(),
        torus_rank=len(torus_basis),
        unipotent_rank=len(unipotent_basis),
        abelian_rank=abelian,
        spanning_forest=forest,
        torus_basis=torus_basis,
        unipotent_basis=unipotent_basis,
    )


# --------------------------------------------------------------------------
# Unit-jet vectors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitJetVector:
    """One unit jet per branch, the jet order matching the branch multiplicity."""

    entries: tuple[tuple[str, int, Jet], ...]
    _jets: dict[Edge, Jet] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ordered = tuple(sorted(self.entries, key=lambda e: (e[0], e[1])))
        object.__setattr__(self, "entries", ordered)
        object.__setattr__(self, "_jets", {(s, i): j for s, i, j in ordered})

    def jet(self, singularity_id: str, branch_index: int) -> Jet:
        return self._jets[(singularity_id, branch_index)]

    def __mul__(self, other: "UnitJetVector") -> "UnitJetVector":
        if self._jets.keys() != other._jets.keys():
            raise OrderMismatch("unit-jet vectors live on different branch sets")
        return UnitJetVector(
            tuple((s, i, j * other._jets[(s, i)]) for s, i, j in self.entries)
        )

    def inverse(self) -> "UnitJetVector":
        return UnitJetVector(tuple((s, i, j.inverse()) for s, i, j in self.entries))


def unit_jet_vector(config: CurveConfig, jets: Mapping[tuple[str, int], Jet]) -> UnitJetVector:
    """Validate a branch-indexed family of jets against the configuration."""
    entries = []
    for s in config.singularities:
        for i, b in enumerate(s.branches):
            try:
                jet = jets[(s.id, i)]
            except KeyError:
                raise NonUnitEntry(f"missing jet at branch ({s.id}, {i})") from None
            if jet.order != b.multiplicity:
                raise OrderMismatch(
                    f"branch ({s.id}, {i}) needs a jet of order {b.multiplicity}, "
                    f"got order {jet.order}"
                )
            if not jet.is_unit:
                raise NonUnitEntry(f"jet at branch ({s.id}, {i}) is not a unit")
            entries.append((s.id, i, jet))
    extra = set(jets) - {(s, i) for s, i, _ in entries}
    if extra:
        raise NonUnitEntry(f"jets supplied for unknown branches: {sorted(extra)}")
    return UnitJetVector(tuple(entries))


def constant_vector(config: CurveConfig, values: Mapping[str, Fraction]) -> UnitJetVector:
    """The vector of a global constant per component (a kernel element)."""
    jets = {}
    for s in config.singularities:
        for i, b in enumerate(s.branches):
            jets[(s.id, i)] = Jet.constant(values[b.component], b.multiplicity)
    return unit_jet_vector(config, jets)


# --------------------------------------------------------------------------
# Classes and the reduction map
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class JacElement:
    """Canonical coordinates of a degree-zero class."""

    config_fingerprint: str
    torus_coords: tuple[Fraction, ...]
    unipotent_coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "torus_coords", tuple(Fraction(c) for c in self.torus_coords))
        object.__setattr__(
            self, "unipotent_coords", tuple(Fraction(c) for c in self.unipotent_coords)
        )
        if any(c == 0 for c in self.torus_coords):
            raise NonUnitEntry("torus coordinates must be nonzero")

    @property
    def is_zero(self) -> bool:
        return all(c == 1 for c in self.torus_coords) and all(
            c == 0 for c in self.unipotent_coords
        )

    def to_json_dict(self) -> dict:
        return {
            "torus_coords": [rational_str(c) for c in self.torus_coords],
            "unipotent_coords": [rational_str(c) for c in self.unipotent_coords],
            "config": self.config_fingerprint,
        }


def _check_same_presentation(a: JacElement, b: JacElement) -> None:
    if a.config_fingerprint != b.config_fingerprint:
        raise PresentationMismatch(
            "classes belong to different configurations; coordinates do not compare"
        )


def jac_zero(presentation: JacobianPresentation) -> JacElement:
    return JacElement(
        presentation.config_fingerprint,
        (Fraction(1),) * presentation.torus_rank,
        (Fraction(0),) * presentation.unipotent_rank,
    )


def jac_add(a: JacElement, b: JacElement) -> JacElement:
    """Group law: torus coordinates multiply, unipotent coordinates add."""
    _check_same_presentation(a, b)
    return JacElement(
        a.config_fingerprint,
        tuple(x * y for x, y in zip(a.torus_coords, b.torus_coords)),
        tuple(x + y for x, y in zip(a.unipotent_coords, b.unipotent_coords)),
    )


def jac_neg(a: JacElement) -> JacElement:
    return JacElement(
        a.config_fingerprint,
        tuple(1 / x for x in a.torus_coords),
        tuple(-x for x in a.unipotent_coords),
    )


def jac_eq(a: JacElement, b: JacElement) -> bool:
    _check_same_presentation(a, b)
    return a.torus_coords == b.torus_coords and a.unipotent_coords == b.unipotent_coords


def class_reduce(
    config: CurveConfig, presentation: JacobianPresentation, vector: UnitJetVector
) -> JacElement:
    """Canonical coordinates of the class represented by a unit-jet vector.

    Unipotent coordinates are the truncated-log coefficients of the branch
    jets. For the torus part, one scalar per dual-graph vertex is solved for
    so that every spanning-forest edge value becomes 1; the coordinates are
    the normalized values at the remaining edges. The kernel is exactly the
    vectors of the form (constant per component) * (constant per singularity)
    with trivial higher jets.
    """
    if presentation.config_fingerprint != config.fingerprint():
        raise PresentationMismatch("presentation was computed from a different config")
    vector = unit_jet_vector(config, vector._jets)
    unipotent = tuple(
        unit_log(vector.jet(sing, idx)).coeffs[k]
        for sing, idx, k in presentation.unipotent_basis
    )

    ends = branch_edges(config)
    values = {edge: vector.jet(*edge).constant_term for edge in ends}

    # Any root works: rescaling a tree's root multiplies the scalars of one
    # side of the bipartite tree by a constant and the other side by its
    # inverse, which leaves every product scalar[C] * scalar[S] unchanged.
    scalar: dict[Vertex, Fraction] = {}
    for v, (p, edge) in forest_parents(ends, presentation.spanning_forest).items():
        scalar[v] = Fraction(1) if p is None else 1 / (values[edge] * scalar[p])

    torus = tuple(
        values[edge] * scalar[ends[edge][0]] * scalar[ends[edge][1]]
        for edge in presentation.torus_basis
    )
    return JacElement(presentation.config_fingerprint, torus, unipotent)


# --------------------------------------------------------------------------
# Change of basis between presentations of the same curve
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassTransport:
    """Coordinate change between presentations of one underlying curve.

    Torus coordinates transform by the unimodular change between the two
    fundamental-cycle bases; unipotent coordinates are permuted along the
    branch correspondence.
    """

    src_fingerprint: str
    dst_fingerprint: str
    torus_exponents: tuple[tuple[tuple[int, int], ...], ...]  # per dst coord: (src index, exponent)
    unipotent_map: tuple[int, ...]  # per dst coord: src index

    def apply(self, element: JacElement) -> JacElement:
        if element.config_fingerprint != self.src_fingerprint:
            raise PresentationMismatch("element does not belong to the source presentation")
        torus = []
        for powers in self.torus_exponents:
            value = Fraction(1)
            for src_index, exponent in powers:
                value *= element.torus_coords[src_index] ** exponent
            torus.append(value)
        unipotent = tuple(element.unipotent_coords[i] for i in self.unipotent_map)
        return JacElement(self.dst_fingerprint, tuple(torus), unipotent)


def _branch_identity_map(
    src_config: CurveConfig, dst_config: CurveConfig
) -> dict[Edge, Edge]:
    """Match branches of two configurations by (component, point) identity."""
    def keyed(config):
        out = {}
        for s in config.singularities:
            for i, b in enumerate(s.branches):
                out[(b.component, b.point)] = ((s.id, i), b.multiplicity)
        return out

    src = keyed(src_config)
    dst = keyed(dst_config)
    if set(src) != set(dst):
        raise PresentationMismatch("configurations have different branch sets")
    mapping = {}
    for key, (dst_edge, dst_mult) in dst.items():
        src_edge, src_mult = src[key]
        if src_mult != dst_mult:
            raise PresentationMismatch(f"branch {key} changed multiplicity")
        mapping[dst_edge] = src_edge
    return mapping


def change_of_basis(
    src_config: CurveConfig,
    src_presentation: JacobianPresentation,
    dst_config: CurveConfig,
    dst_presentation: JacobianPresentation,
) -> ClassTransport:
    """Transport classes between presentations of the same underlying curve.

    The two configurations must have identical branches up to relabeling of
    list positions (matched by component and point).
    """
    dst_to_src = _branch_identity_map(src_config, dst_config)
    src_index = {edge: k for k, edge in enumerate(src_presentation.torus_basis)}

    cycles = fundamental_cycles(
        branch_edges(dst_config),
        dst_presentation.spanning_forest,
        dst_presentation.torus_basis,
    )
    torus_rows = []
    for cycle in cycles.values():
        row = []
        for edge, exponent in sorted(cycle.items()):
            src_edge = dst_to_src[edge]
            if src_edge in src_index:
                row.append((src_index[src_edge], exponent))
        torus_rows.append(tuple(row))

    src_unip_index = {
        (sing, idx, k): pos
        for pos, (sing, idx, k) in enumerate(src_presentation.unipotent_basis)
    }
    unip_map = []
    for sing, idx, k in dst_presentation.unipotent_basis:
        src_sing, src_idx = dst_to_src[(sing, idx)]
        unip_map.append(src_unip_index[(src_sing, src_idx, k)])

    return ClassTransport(
        src_fingerprint=src_presentation.config_fingerprint,
        dst_fingerprint=dst_presentation.config_fingerprint,
        torus_exponents=tuple(torus_rows),
        unipotent_map=tuple(unip_map),
    )
