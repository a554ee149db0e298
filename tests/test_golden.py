"""CLI stdout on the shipped fixtures, byte for byte against recorded output.

A refactor must leave every recording in tests/golden/ unchanged. A change
that means to alter an output re-records that file with
`python -m pinchjac.cli <argv> > tests/golden/<name>.json` and says why.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import pinchjac
from pinchjac.cli import main

FIXTURES = Path(pinchjac.__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
NAMES = ("cuspidal", "elliptic_pair", "lut", "nodal", "two_lines")
AJ_POINTS = {"cuspidal": "L:2", "lut": "L1:2", "nodal": "L:2", "two_lines": "L2:2"}

CASES = (
    [(f"jacobian_{n}", ["jacobian", str(FIXTURES / f"{n}.curve")]) for n in NAMES]
    + [(f"modifiable_{n}", ["modifiable", str(FIXTURES / f"{n}.curve")]) for n in NAMES]
    + [
        (f"aj_{n}", ["aj", str(FIXTURES / f"{n}.curve"), "--point", point])
        for n, point in AJ_POINTS.items()
    ]
    + [
        (
            "witness_lut_n1_0",
            ["witness", str(FIXTURES / "lut.curve"), "--sing", "n1", "--branch", "0"],
        )
    ]
)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_stdout_matches_recording(capsys, name, argv):
    assert main(argv) == 0
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
