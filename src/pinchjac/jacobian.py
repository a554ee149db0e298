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
coefficients, and the torus coordinate of a non-forest edge is the product of
the branch values around its fundamental cycle, each raised to its exponent
(``branch_class``, which also serves classes given by branch values directly).
Vertex scalars cancel around a cycle, so this is the value at that edge once
every spanning-forest edge value is scaled to 1. Within a singularity it is
the ratio value(b_i)/value(b_0) against the first-listed branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Mapping

from .algebra import Jet, as_number, rational_str, unit_log
from .curve_model import (
    CurveConfig,
    Edge,
    branch_edges,
    fundamental_cycles,
    require_valid,
    spanning_forest,
)
from .errors import NonUnitEntry, OrderMismatch, PresentationMismatch

TORUS_ORIENTATION = "branch value over first-listed branch value, forest-normalized"


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
        for name in ("torus_coords", "unipotent_coords"):
            coords = tuple(
                c if type(c) is Fraction else as_number(c, "a coordinate") for c in getattr(self, name)
            )
            object.__setattr__(self, name, coords)
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


def branch_class(
    config: CurveConfig,
    presentation: JacobianPresentation,
    values: Mapping[Edge, Fraction],
    unipotent: Mapping[tuple[str, int, int], Fraction],
) -> JacElement:
    """Canonical coordinates of the class with the given branch values and
    unipotent coordinates.

    A branch missing from ``values`` has value 1, and a unipotent basis
    element missing from ``unipotent`` has coordinate 0. Each torus coordinate
    is the product of the branch values around the fundamental cycle of its
    torus-basis edge, each raised to its exponent.
    """
    if presentation.config_fingerprint != config.fingerprint():
        raise PresentationMismatch("presentation was computed from a different config")
    cycles = fundamental_cycles(config, presentation.spanning_forest)
    torus = tuple(
        prod((values[e] ** k for e, k in cycles[edge].items() if e in values), start=Fraction(1))
        for edge in presentation.torus_basis
    )
    coords = tuple(unipotent.get(key, 0) for key in presentation.unipotent_basis)
    return JacElement(presentation.config_fingerprint, torus, coords)


def class_reduce(
    config: CurveConfig, presentation: JacobianPresentation, vector: UnitJetVector
) -> JacElement:
    """Canonical coordinates of the class represented by a unit-jet vector.

    Unipotent coordinates are the truncated-log coefficients of the branch
    jets, and the branch values are the jets' constant terms. The kernel is
    exactly the vectors of the form (constant per component) * (constant per
    singularity) with trivial higher jets.
    """
    # checked before the presentation's unipotent basis indexes the jets
    if presentation.config_fingerprint != config.fingerprint():
        raise PresentationMismatch("presentation was computed from a different config")
    vector = unit_jet_vector(config, vector._jets)
    unipotent = {
        (sing, idx, k): unit_log(vector.jet(sing, idx)).coeffs[k]
        for sing, idx, k in presentation.unipotent_basis
    }
    values = {(sing, idx): jet.constant_term for sing, idx, jet in vector.entries}
    return branch_class(config, presentation, values, unipotent)
