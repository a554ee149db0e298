"""Exception type and message of every rejected input on the Abel-Jacobi,
obstruction and modification entry points, against a recording.

Several cases hold two faults at once; they pin which check runs first. A
change that means to alter an error re-records the file with
`PYTHONPATH=src python tests/test_errors.py > tests/golden/errors.json` and
says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from pinchjac.abel_jacobi import SmoothDivisor, aj_eval, divisor_class
from pinchjac.algebra import INFINITY, Jet, P1Point
from pinchjac.builders import cuspidal_cubic, nodal_cubic, two_lines, two_nodes_pair
from pinchjac.curve_model import Branch, Component, CurveConfig, Singularity
from pinchjac.errors import PinchjacError
from pinchjac.jacobian import UnitJetVector, class_reduce, jacobian_structure
from pinchjac.modification import ModificationSite, modify
from pinchjac.obstruction import obstruction_witness

GOLDEN = Path(__file__).parent / "golden" / "errors.json"

NODAL = nodal_cubic()
CUSP = cuspidal_cubic()
LUT = two_nodes_pair()
TWO_LINES = two_lines()
# a line and an elliptic curve meeting at a node
MIXED = CurveConfig(
    "mixed",
    (Component("L"), Component("E", genus=1)),
    (Singularity("n", (Branch("L", P1Point.finite(0)), Branch("E", P1Point.finite(0)))),),
    (("L", INFINITY), ("E", P1Point.finite(1))),
)
# the nodal cubic with its component listed twice, and without basepoints
INVALID = CurveConfig("invalid", (Component("L"), Component("L")), NODAL.singularities)
NO_BASE = CurveConfig("no_base", NODAL.components, NODAL.singularities)
NODAL_PRES = jacobian_structure(NODAL)
LUT_PRES = jacobian_structure(LUT)
MIXED_PRES = jacobian_structure(MIXED)


def _div(*entries) -> SmoothDivisor:
    return SmoothDivisor.of(entries)


def _vector(*entries) -> UnitJetVector:
    """Jets by (singularity, branch, coefficients), with no check against a curve."""
    return UnitJetVector(tuple((s, i, Jet.make(len(c), c)) for s, i, c in entries))


GOOD_NODAL = _vector(("n", 0, (2,)), ("n", 1, (3,)))

CASES = {
    # aj_eval: config, basepoints, point, genus, presentation
    "aj_invalid_config": lambda: aj_eval(INVALID, NODAL_PRES, "L", 2),
    "aj_missing_basepoint": lambda: aj_eval(NO_BASE, NODAL_PRES, "L", 2),
    "aj_missing_basepoint_before_unknown_component": lambda: aj_eval(NO_BASE, NODAL_PRES, "X", 2),
    "aj_unknown_component": lambda: aj_eval(NODAL, NODAL_PRES, "X", 2),
    "aj_point_not_smooth": lambda: aj_eval(NODAL, NODAL_PRES, "L", 0),
    "aj_genus_elsewhere": lambda: aj_eval(MIXED, MIXED_PRES, "L", 2),
    "aj_genus_of_point_component": lambda: aj_eval(MIXED, MIXED_PRES, "E", 2),
    "aj_point_not_smooth_before_genus_elsewhere": lambda: aj_eval(MIXED, MIXED_PRES, "L", 0),
    "aj_fingerprint_mismatch": lambda: aj_eval(NODAL, LUT_PRES, "L", 2),
    "aj_point_not_smooth_before_mismatch": lambda: aj_eval(NODAL, LUT_PRES, "L", 0),
    "aj_genus_before_mismatch": lambda: aj_eval(MIXED, NODAL_PRES, "L", 2),
    # divisor_class: config, genus, components, support, degree, presentation
    "div_invalid_config": lambda: divisor_class(INVALID, NODAL_PRES, _div(("L", 2, 1))),
    "div_genus": lambda: divisor_class(MIXED, MIXED_PRES, _div(("L", 2, 1), ("L", 3, -1))),
    "div_genus_before_unknown_component": lambda: divisor_class(
        MIXED, MIXED_PRES, _div(("X", 2, 1))
    ),
    "div_unknown_component": lambda: divisor_class(
        NODAL, NODAL_PRES, _div(("X", 2, 1), ("X", 3, -1))
    ),
    "div_unknown_component_before_point_not_smooth": lambda: divisor_class(
        NODAL, NODAL_PRES, _div(("L", 0, 1), ("L", 2, -1), ("X", 3, 1))
    ),
    "div_point_not_smooth": lambda: divisor_class(
        NODAL, NODAL_PRES, _div(("L", 2, 1), ("L", 1, -1))
    ),
    "div_point_not_smooth_before_degree": lambda: divisor_class(
        NODAL, NODAL_PRES, _div(("L", 0, 1))
    ),
    "div_nonzero_degree": lambda: divisor_class(NODAL, NODAL_PRES, _div(("L", 2, 1))),
    "div_nonzero_degree_first_component": lambda: divisor_class(
        LUT, LUT_PRES, _div(("L2", 3, 2), ("L1", 2, 1))
    ),
    "div_fingerprint_mismatch": lambda: divisor_class(
        NODAL, LUT_PRES, _div(("L", 2, 1), ("L", 3, -1))
    ),
    "div_nonzero_degree_before_mismatch": lambda: divisor_class(
        NODAL, LUT_PRES, _div(("L", 2, 1))
    ),
    # class_reduce: presentation, then the jets branch by branch, then extras
    "reduce_fingerprint_mismatch": lambda: class_reduce(NODAL, LUT_PRES, GOOD_NODAL),
    "reduce_mismatch_before_missing_jet": lambda: class_reduce(NODAL, LUT_PRES, _vector()),
    "reduce_missing_jet": lambda: class_reduce(NODAL, NODAL_PRES, _vector(("n", 0, (2,)))),
    "reduce_extra_jet": lambda: class_reduce(
        NODAL, NODAL_PRES, _vector(("n", 0, (2,)), ("n", 1, (3,)), ("m", 0, (1,)))
    ),
    "reduce_missing_before_extra": lambda: class_reduce(
        NODAL, NODAL_PRES, _vector(("n", 0, (2,)), ("m", 0, (1,)))
    ),
    "reduce_wrong_order": lambda: class_reduce(
        CUSP, jacobian_structure(CUSP), _vector(("s", 0, (1,)))
    ),
    "reduce_wrong_order_before_not_unit": lambda: class_reduce(
        CUSP, jacobian_structure(CUSP), _vector(("s", 0, (0,)))
    ),
    "reduce_not_unit": lambda: class_reduce(
        NODAL, NODAL_PRES, _vector(("n", 0, (0,)), ("n", 1, (3,)))
    ),
    # obstruction_witness: config, singularity, branch index, site
    "witness_invalid_config": lambda: obstruction_witness(INVALID, "n", 0),
    "witness_invalid_before_unknown_singularity": lambda: obstruction_witness(INVALID, "zz", 0),
    "witness_unknown_singularity": lambda: obstruction_witness(LUT, "zz", 0),
    "witness_unknown_singularity_before_branch": lambda: obstruction_witness(LUT, "zz", 9),
    "witness_bad_branch": lambda: obstruction_witness(LUT, "n1", 2),
    "witness_negative_branch": lambda: obstruction_witness(LUT, "n1", -1),
    "witness_bad_branch_before_site": lambda: obstruction_witness(TWO_LINES, "n", 2),
    "witness_site_is_modifiable": lambda: obstruction_witness(TWO_LINES, "n", 0),
    # modify: config, then the site
    "modify_invalid_config": lambda: modify(INVALID, ModificationSite("n", 0)),
    "modify_not_a_site": lambda: modify(LUT, ModificationSite("n1", 0)),
    "modify_unknown_singularity": lambda: modify(TWO_LINES, ModificationSite("zz", 0)),
    "modify_bad_branch": lambda: modify(TWO_LINES, ModificationSite("n", 7)),
}


def observed(name: str) -> dict:
    try:
        CASES[name]()
    except PinchjacError as exc:
        return {"type": type(exc).__name__, "message": str(exc)}
    return {"type": None, "message": None}


def test_recording_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_error_matches_recording(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert observed(name) == expected


if __name__ == "__main__":
    sys.stdout.write(json.dumps({n: observed(n) for n in sorted(CASES)}, indent=2) + "\n")
