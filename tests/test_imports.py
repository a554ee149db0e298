"""What pinchjac exports and imports, and when.

No module imports another module's private (underscore) names: a helper that
one module needs from another is public API there, or it stays in its own
module. The package exports a fixed list of names and resolves each on first
use; names that left it stay out. The CLI loads only the modules a command
runs.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

import pinchjac

SRC = Path(__file__).resolve().parent.parent / "src" / "pinchjac"


def _private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "pinchjac")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_scan_finds_a_private_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .jacobian import JacElement, _reduce\n", encoding="utf-8")
    assert _private_imports(sample) == ["sample.py:1: from .jacobian import _reduce"]


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [line for path in modules for line in _private_imports(path)] == []


# the public API: what the CLI, `verify`, the demos and the README tour use
EXPORTS = {
    "algebra": ["INFINITY", "Jet", "P1Point", "Poly", "unit_log"],
    "abel_jacobi": ["SmoothDivisor", "aj_eval", "aj_injectivity_probe", "cuspidal_param",
                    "divisor_class", "nodal_param", "param_inverse"],
    "contraction": ["ContractionResult", "FiniteSubscheme", "GeneratorSet",
                    "MembershipCertificate", "NotMember", "contract_p1",
                    "contract_with_generators", "contraction_generators", "finite_subscheme",
                    "subalgebra_membership", "vanishing_ideal_generator"],
    "curve_model": ["Branch", "Component", "CurveConfig", "DualGraph", "Singularity",
                    "Violation", "dual_graph", "is_smooth_point", "validate"],
    "dsl": ["CurveDoc", "Diagnostic", "DslParseError", "parse_curve_dsl", "print_curve_dsl"],
    "jacobian": ["JacElement", "JacobianPresentation", "UnitJetVector", "class_reduce", "jac_add",
                 "jac_eq", "jac_neg", "jac_zero", "jacobian_structure", "unit_jet_vector"],
    "modification": ["ModificationSite", "indeterminate_sites", "modifiable_sites", "modify"],
    "obstruction": ["Liftable", "LiftabilityProblem", "NotFound", "NotLiftable", "Witness",
                    "liftability_problem", "liftability_test", "obstruction_witness"],
}
HOMES = {name: module for module, names in EXPORTS.items() for name in names}

# Names that left the package: test oracles now in tests/oracles.py, and API
# that nothing in the library used. None may come back into src/.
GONE = ("jet_of_rational_function", "unit_exp", "DenominatorVanishes", "with_basepoints",
        "LocalUnitQuotient", "local_unit_quotient", "change_of_basis", "ClassTransport",
        "_branch_identity_map", "FieldElem", "forest_parents")
GONE_ATTRIBUTES = {
    "algebra.Jet": ("inverse", "__pow__"),
    "algebra.Poly": ("from_roots", "x", "reversed_coeffs", "__floordiv__", "shifted"),
    "jacobian.UnitJetVector": ("inverse",),
    "curve_model.Singularity": ("branch_count",),
    "dsl.CurveDoc": ("line_of",),
}


def test_package_exports_the_same_names():
    assert len(HOMES) == 59
    assert sorted(pinchjac.__all__) == sorted(HOMES)
    assert pinchjac.__version__ == "0.1.0"


def test_each_export_is_its_home_modules_object():
    homes = {module: importlib.import_module(f"pinchjac.{module}") for module in EXPORTS}
    assert [n for n, m in HOMES.items() if getattr(pinchjac, n) is not getattr(homes[m], n)] == []


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from pinchjac import *", namespace)
    assert all(namespace[name] is getattr(pinchjac, name) for name in HOMES)
    assert set(HOMES) <= set(dir(pinchjac))


def test_removed_names_are_reachable_from_no_module():
    modules = [importlib.import_module(f"pinchjac.{info.name}")
               for info in pkgutil.iter_modules(pinchjac.__path__)]
    assert "pinchjac.algebra" in {m.__name__ for m in modules}
    reachable = [f"{m.__name__}.{name}" for m in (pinchjac, *modules) for name in GONE
                 if hasattr(m, name)]
    for owner, attributes in GONE_ATTRIBUTES.items():
        module, cls = owner.split(".")
        home = getattr(importlib.import_module(f"pinchjac.{module}"), cls)
        reachable += [f"{owner}.{name}" for name in attributes if hasattr(home, name)]
    assert reachable == []


def test_no_optional_parameters_or_unread_fields():
    # a setting with one value in use is a constant, and a field nothing reads is gone
    functions = (pinchjac.aj_eval, pinchjac.aj_injectivity_probe,
                 pinchjac.contraction_generators, pinchjac.Poly.monomial)
    assert [f"{f.__qualname__}({name})" for f in functions
            for name, parameter in inspect.signature(f).parameters.items()
            if parameter.default is not inspect.Parameter.empty] == []
    assert [f.name for f in dataclasses.fields(pinchjac.DualGraph)] == [
        "betti1", "connected_components"]
    assert [f.name for f in dataclasses.fields(pinchjac.CurveDoc)] == ["config"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pinchjac.no_such_name  # noqa: B018
    assert not hasattr(pinchjac, "no_such_name")
    from pinchjac import verify  # a submodule still imports by name

    assert verify.__name__ == "pinchjac.verify"


# Run in a new interpreter: in this one, pytest has already imported everything.
LOADED_BY_CLI = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("pinchjac."))
import pinchjac.cli
after_import = loaded()
pinchjac.cli.main(["jacobian", sys.argv[1]])
print(json.dumps([after_import, loaded()]))
"""
HEAVY = {f"pinchjac.{m}" for m in
         ("verify", "builders", "contraction", "obstruction", "modification", "abel_jacobi")}


def test_cli_loads_only_what_jacobian_runs(fresh_python):
    lut = Path(pinchjac.__file__).parent / "fixtures" / "lut.curve"
    done = fresh_python("-c", LOADED_BY_CLI, str(lut))
    assert done.returncode == 0, done.stderr
    after_import, after_jacobian = json.loads(done.stdout.splitlines()[-1])
    assert "pinchjac.cli" in after_import
    assert HEAVY.isdisjoint(after_import)
    assert HEAVY.isdisjoint(after_jacobian)
