"""Abel-Jacobi maps and divisor classes in explicit Jacobian coordinates.

A smooth divisor of per-component degree zero determines, on each projective
line, a rational function with that divisor, unique up to a scalar: the
product of (t - a)^k over its finite points (the point at infinity never gets
an explicit factor). Its class is read off in closed form. Near a branch over
c, with local parameter s, each factor t - a is a constant times 1 - u s,
where u = 1/(a - c) over a finite c and u = a over infinity. So the branch
value is the product of (c - a)^k (1 over infinity, where the powers of s
cancel because the degree is zero), and the s^n log coefficient is
-(1/n) sum k u^n. Only branches on the divisor's own components get entries.
The scalar ambiguity lies in the reduction kernel, so the class is well
defined. ``aj_eval`` is the class of [point] - [basepoint].

The module also carries the two standard cubic parametrizations and an exact
collision probe for Abel-Jacobi maps over finite samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import P1Point, Poly, RatLike, as_integer, as_number
from .curve_model import CurveConfig, is_smooth_point, require_valid
from .errors import (
    MissingBasepoint,
    NonzeroDegree,
    PointNotSmooth,
    PositiveGenusUnsupported,
    SingularPoint,
)
from .jacobian import JacElement, JacobianPresentation, branch_class


@dataclass(frozen=True)
class SmoothDivisor:
    """Formal sum of smooth points with integer coefficients."""

    entries: tuple[tuple[str, P1Point, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(
            (component, point, as_integer(coefficient, "a divisor coefficient"))
            for component, point, coefficient in self.entries
        ))

    @classmethod
    def of(cls, entries) -> "SmoothDivisor":
        return cls(tuple((component, P1Point.of(point), k) for component, point, k in entries))

    def degree_by_component(self) -> dict[str, int]:
        degrees: dict[str, int] = {}
        for component, _, coefficient in self.entries:
            degrees[component] = degrees.get(component, 0) + coefficient
        return degrees

    def __add__(self, other: "SmoothDivisor") -> "SmoothDivisor":
        return SmoothDivisor(self.entries + other.entries)

    def __neg__(self) -> "SmoothDivisor":
        return SmoothDivisor(tuple((c, p, -k) for c, p, k in self.entries))


def _require_genus_zero(config: CurveConfig) -> None:
    for c in config.components:
        if c.genus > 0:
            raise PositiveGenusUnsupported(f"component {c.id!r} has genus {c.genus}")


def _branch_log(
    points: list[tuple[P1Point, int]], center: P1Point, order: int
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Value at the center of the product of (t - a)^k over the points, and the
    coefficients of s^0, ..., s^(order - 1) in the log of its normalized jet."""
    value = Fraction(1)
    weights = []
    for point, k in points:
        if not point.is_infinity:
            a = point.value
            if center.is_infinity:
                weights.append((k, a))
            else:
                value *= (center.value - a) ** k
                weights.append((k, 1 / (a - center.value)))
    logs = tuple(Fraction(-sum(k * u**n for k, u in weights), n) for n in range(1, order))
    return value, (Fraction(0),) + logs


def divisor_class(
    config: CurveConfig, presentation: JacobianPresentation, divisor: SmoothDivisor
) -> JacElement:
    """Class of a per-component-degree-zero divisor supported in the smooth locus."""
    require_valid(config)
    _require_genus_zero(config)

    merged: dict[tuple[str, P1Point], int] = {}
    for component_id, point, coefficient in divisor.entries:
        config.component(component_id)
        merged[(component_id, point)] = merged.get((component_id, point), 0) + coefficient
    support: dict[str, list[tuple[P1Point, int]]] = {}
    for (component_id, point), coefficient in merged.items():
        if coefficient == 0:
            continue
        if (component_id, point) in config.branch_points():
            raise PointNotSmooth(f"({component_id}, {point}) is a branch point")
        support.setdefault(component_id, []).append((point, coefficient))

    for component_id, degree in divisor.degree_by_component().items():
        if degree != 0:
            raise NonzeroDegree(
                f"divisor has degree {degree} on component {component_id!r}"
            )
    values = {}
    unipotent = {}
    for s in config.singularities:
        for i, b in enumerate(s.branches):
            points = support.get(b.component)
            if points:
                values[(s.id, i)], logs = _branch_log(points, b.point, b.multiplicity)
                unipotent.update(((s.id, i, n), logs[n]) for n in range(1, b.multiplicity))
    return branch_class(config, presentation, values, unipotent)


def aj_eval(
    config: CurveConfig,
    presentation: JacobianPresentation,
    component_id: str,
    point: P1Point | RatLike,
) -> JacElement:
    """Abel-Jacobi image of a smooth point: the class of [point] - [basepoint].

    The basepoint is the configuration's own; every component must have one.
    """
    point = P1Point.of(point)
    require_valid(config)
    # the configuration's own basepoints are smooth, or require_valid fails
    for component in config.components:
        if config.basepoint(component.id) is None:
            raise MissingBasepoint(f"component {component.id!r} has no basepoint")
    if not is_smooth_point(config, component_id, point):
        raise PointNotSmooth(f"({component_id}, {point}) is a branch point")
    base = config.basepoint(component_id)
    return divisor_class(
        config, presentation, SmoothDivisor(((component_id, point, 1), (component_id, base, -1)))
    )


@dataclass(frozen=True)
class ProbeReport:
    """Collision report of an exact Abel-Jacobi injectivity probe."""

    sample: tuple[tuple[str, P1Point], ...]
    collisions: tuple[tuple[tuple[str, P1Point], tuple[str, P1Point]], ...]


def aj_injectivity_probe(
    config: CurveConfig,
    presentation: JacobianPresentation,
    sample,
) -> ProbeReport:
    """Collisions of Abel-Jacobi classes over a finite sample, exactly.

    Two points collide exactly when their canonical coordinates are equal, so
    the sample is grouped by class. Collisions are the pairs of distinct
    points within a group, reported in sample order.
    """
    normalized = [(c, P1Point.of(p)) for c, p in sample]
    groups: dict[JacElement, list[int]] = {}
    for index, (component_id, point) in enumerate(normalized):
        groups.setdefault(aj_eval(config, presentation, component_id, point), []).append(index)
    pairs = sorted(
        (i, j) for group in groups.values() for i, j in combinations(group, 2)
        if normalized[i] != normalized[j]
    )
    return ProbeReport(tuple(normalized), tuple((normalized[i], normalized[j]) for i, j in pairs))


# --------------------------------------------------------------------------
# The two cubic parametrizations
# --------------------------------------------------------------------------

NODAL_X = Poly((0, -1, 1))  # t^2 - t
NODAL_Y = Poly((0, 0, -1, 1))  # t^3 - t^2
CUSPIDAL_X = Poly((0, 0, 1))  # t^2
CUSPIDAL_Y = Poly((0, 0, 0, 1))  # t^3


def nodal_param(t: RatLike) -> tuple[Fraction, Fraction]:
    """Point (t^2 - t, t^3 - t^2) of the plane cubic y^2 = x*y + x^3."""
    t = as_number(t, "a parameter")
    return NODAL_X(t), NODAL_Y(t)


def cuspidal_param(t: RatLike) -> tuple[Fraction, Fraction]:
    """Point (t^2, t^3) of the plane cubic y^2 = x^3."""
    t = as_number(t, "a parameter")
    return CUSPIDAL_X(t), CUSPIDAL_Y(t)


def param_inverse(x: RatLike, y: RatLike) -> Fraction:
    """Rational inverse y/x of either parametrization, defined for x != 0."""
    x, y = as_number(x, "a coordinate"), as_number(y, "a coordinate")
    if x == 0:
        raise SingularPoint("the inverse is undefined at the singular point")
    return y / x
