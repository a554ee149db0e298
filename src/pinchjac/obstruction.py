"""Non-liftable unit germs: the obstruction to extending Abel-Jacobi maps.

Fix a singularity c and normalize the curve above c only. A unit germ along
the branches over c lifts to a global unit of that partial normalization
times a local unit of the curve exactly when every branch jet is constant
and branches whose components stay connected away from c carry equal values.
The solver decides this exactly and returns either the scalars certifying a
lift or the first offending branch (a nonconstant jet, or a value mismatch
within one connected class).

Witnesses are built by a fixed three-case search (a thick branch gets the
germ 1 + s; otherwise the scalar 2 at the distinguished branch and 1
elsewhere) and every candidate is re-verified by the solver before being
returned; a candidate the solver accepts is reported as not found rather
than forced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .algebra import Jet
from .curve_model import CurveConfig, component_partition_without, require_valid
from .errors import InvalidProblem, SiteIsModifiable
from .modification import ModificationSite, modifiable_sites

CASE_NON_REDUCED_JET = "NonReducedJet"
CASE_SAME_COMPONENT = "SameComponentTwoBranches"
CASE_CONNECTIVITY = "ConnectivityValue"


@dataclass(frozen=True)
class LiftabilityProblem:
    """A unit germ over one singularity, against the partial normalization."""

    config: CurveConfig
    singularity: str
    germ: tuple[Jet, ...]
    partition: tuple[tuple[str, ...], ...]


def liftability_problem(
    config: CurveConfig, singularity_id: str, germ: Mapping[int, Jet]
) -> LiftabilityProblem:
    """Assemble and validate a liftability problem.

    ``germ`` maps branch indices of the singularity to jets whose orders must
    match the branch multiplicities.
    """
    require_valid(config)
    s = config.singularity(singularity_id)
    jets = []
    for i, b in enumerate(s.branches):
        jet = germ.get(i)
        if jet is None:
            raise InvalidProblem(f"missing germ entry for branch {i} of {s.id!r}")
        if jet.order != b.multiplicity:
            raise InvalidProblem(
                f"branch {i} of {s.id!r} needs a jet of order {b.multiplicity}, "
                f"got {jet.order}"
            )
        if not jet.is_unit:
            raise InvalidProblem(f"germ entry at branch {i} of {s.id!r} is not a unit")
        jets.append(jet)
    if set(germ) - set(range(len(s.branches))):
        raise InvalidProblem("germ names branch indices outside the singularity")
    partition = component_partition_without(config, singularity_id)
    return LiftabilityProblem(config, singularity_id, tuple(jets), partition)


@dataclass(frozen=True)
class Liftable:
    """Certificate: germ at branch b equals class_scalar[class of b] * mu."""

    mu: Fraction
    class_scalars: tuple[Fraction, ...]


@dataclass(frozen=True)
class NotLiftable:
    """Failure witness: a nonconstant jet, or unequal values in one class."""

    reason: str  # "NonconstantJet" or "ValueMismatch"
    branch: int
    other_branch: int | None = None
    values: tuple[Fraction, Fraction] | None = None


def liftability_test(problem: LiftabilityProblem) -> Union[Liftable, NotLiftable]:
    """Decide whether the germ lifts, with an explicit certificate either way."""
    s = problem.config.singularity(problem.singularity)
    class_of = {c: index for index, members in enumerate(problem.partition) for c in members}
    for i, jet in enumerate(problem.germ):
        if not jet.is_constant:
            return NotLiftable(reason="NonconstantJet", branch=i)

    values = [jet.constant_term for jet in problem.germ]
    first: dict[int, int] = {}  # class -> its first branch, whose value is the class scalar
    for i, b in enumerate(s.branches):
        j = first.setdefault(class_of[b.component], i)
        if values[i] != values[j]:
            return NotLiftable(
                reason="ValueMismatch", branch=i, other_branch=j, values=(values[i], values[j])
            )
    scalars = (values[first[k]] if k in first else Fraction(1) for k in range(len(problem.partition)))
    return Liftable(mu=Fraction(1), class_scalars=tuple(scalars))


@dataclass(frozen=True)
class Witness:
    """A verified non-liftable germ: 1 away from the distinguished branch."""

    singularity: str
    branch: int
    case: str
    scalar: Fraction | None
    germ: tuple[Jet, ...]
    failure: NotLiftable


@dataclass(frozen=True)
class NotFound:
    """The heuristic germ turned out to be liftable; its certificate is kept."""

    singularity: str
    branch: int
    liftable: Liftable


def obstruction_witness(
    config: CurveConfig, singularity_id: str, branch_index: int
) -> Union[Witness, NotFound]:
    """Search for a unit germ over the singularity that does not lift.

    The distinguished branch must not be a modification site. Cases, in
    order: a branch of multiplicity at least 2 receives the germ 1 + s; a
    branch sharing its component with another branch of the singularity
    receives the value 2; otherwise the value 2 is tried and kept only if
    the solver rejects it.
    """
    require_valid(config)
    s = config.singularity(singularity_id)
    if not 0 <= branch_index < len(s.branches):
        raise InvalidProblem(
            f"singularity {singularity_id!r} has no branch {branch_index}"
        )
    if ModificationSite(singularity_id, branch_index) in modifiable_sites(config):
        raise SiteIsModifiable(
            f"({singularity_id}, {branch_index}) is a modification site; "
            "the curve extends there instead of obstructing"
        )

    branch = s.branches[branch_index]
    if branch.multiplicity >= 2:
        case = CASE_NON_REDUCED_JET
        scalar = None
        distinguished = Jet.make(branch.multiplicity, (1, 1))
    else:
        siblings = sum(1 for b in s.branches if b.component == branch.component)
        case = CASE_SAME_COMPONENT if siblings > 1 else CASE_CONNECTIVITY
        scalar = Fraction(2)
        distinguished = Jet.constant(scalar, branch.multiplicity)

    germ = tuple(
        distinguished if i == branch_index else Jet.constant(1, b.multiplicity)
        for i, b in enumerate(s.branches)
    )
    problem = liftability_problem(config, singularity_id, dict(enumerate(germ)))
    outcome = liftability_test(problem)
    if isinstance(outcome, Liftable):
        return NotFound(singularity_id, branch_index, outcome)
    return Witness(
        singularity=singularity_id,
        branch=branch_index,
        case=case,
        scalar=scalar,
        germ=germ,
        failure=outcome,
    )
