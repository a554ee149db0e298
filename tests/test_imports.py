"""No pinchjac module imports another module's private (underscore) names.

A helper that one module needs from another is public API there, or it
stays in its own module.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
