"""pinchjac: exact arithmetic for pinched rational curve configurations.

The package models reduced projective curves whose singularities are of
contraction type (a point of the normalization pinched along a finite
subscheme), computes their generalized Jacobians in explicit torus and
unipotent coordinates, evaluates Abel-Jacobi maps, performs modifications,
computes contraction subalgebras with membership certificates, and builds
the unit germs that obstruct extending Abel-Jacobi maps beyond the smooth
locus. Everything runs over the rationals with exact arithmetic.

Each exported name is imported from its submodule on first use (PEP 562), so
`import pinchjac` loads no submodule until a name is asked for.
"""

import importlib

_EXPORTS = {
    "algebra": ("INFINITY", "Jet", "P1Point", "Poly", "unit_log"),
    "abel_jacobi": (
        "SmoothDivisor", "aj_eval", "aj_injectivity_probe", "cuspidal_param",
        "divisor_class", "nodal_param", "param_inverse",
    ),
    "contraction": (
        "ContractionResult", "FiniteSubscheme", "GeneratorSet", "MembershipCertificate",
        "NotMember", "contract_p1", "contract_with_generators", "contraction_generators",
        "finite_subscheme", "subalgebra_membership", "vanishing_ideal_generator",
    ),
    "curve_model": (
        "Branch", "Component", "CurveConfig", "DualGraph", "Singularity", "Violation",
        "dual_graph", "is_smooth_point", "validate",
    ),
    "dsl": ("CurveDoc", "Diagnostic", "DslParseError", "parse_curve_dsl", "print_curve_dsl"),
    "jacobian": (
        "JacElement", "JacobianPresentation", "UnitJetVector", "class_reduce", "jac_add",
        "jac_eq", "jac_neg", "jac_zero", "jacobian_structure", "unit_jet_vector",
    ),
    "modification": ("ModificationSite", "indeterminate_sites", "modifiable_sites", "modify"),
    "obstruction": (
        "Liftable", "LiftabilityProblem", "NotFound", "NotLiftable", "Witness",
        "liftability_problem", "liftability_test", "obstruction_witness",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without calling here
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
