"""Exception hierarchy shared by all pinchjac modules."""

from __future__ import annotations


class PinchjacError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------- algebra

class OrderNonpositive(PinchjacError):
    """A jet order must be a positive integer."""


class OrderMismatch(PinchjacError):
    """Jets of different truncation orders were combined."""


class NonUnit(PinchjacError):
    """A jet with vanishing constant term cannot be inverted or logged."""


# ---------------------------------------------------------------- curve model

class InvalidConfig(PinchjacError):
    """A curve configuration failed validation.

    Carries the list of violations so callers can report them all.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(f"{v.kind}: {v.message}" for v in self.violations)
        super().__init__(f"invalid configuration: {lines}")


class UnknownComponent(PinchjacError):
    """A component id does not occur in the configuration."""


class UnknownSingularity(PinchjacError):
    """A singularity id does not occur in the configuration."""


class PositiveGenusUnsupported(PinchjacError):
    """Point arithmetic was requested on a positive-genus component."""


# ---------------------------------------------------------------- contraction

class InfinityUnsupported(PinchjacError):
    """The operation requires a subscheme with affine support."""


class NotMonic(PinchjacError):
    """A monic polynomial was required."""


class CertificateFailure(PinchjacError):
    """A generator set failed its dimension certificate (internal bug)."""


class DegreeOne(PinchjacError):
    """Contracting a single reduced point is an isomorphism; nothing to do."""


# ---------------------------------------------------------------- jacobian

class NonUnitEntry(PinchjacError):
    """A unit-jet vector contained a non-unit jet."""


class PresentationMismatch(PinchjacError):
    """Jacobian classes from different presentations were combined."""


# ---------------------------------------------------------------- abel-jacobi

class NonzeroDegree(PinchjacError):
    """A divisor class requires per-component degree zero."""


class PointNotSmooth(PinchjacError):
    """The point lies on a singularity branch."""


class MissingBasepoint(PinchjacError):
    """A component has no basepoint assigned."""


class SingularPoint(PinchjacError):
    """The rational inverse of a cubic parametrization is undefined here."""


# ---------------------------------------------------------------- modification

class NotASite(PinchjacError):
    """The requested (singularity, branch) pair is not a modification site."""


# ---------------------------------------------------------------- obstruction

class InvalidProblem(PinchjacError):
    """A liftability problem was inconsistent with its configuration."""


class SiteIsModifiable(PinchjacError):
    """Obstruction witnesses only exist where the curve is not modifiable."""
