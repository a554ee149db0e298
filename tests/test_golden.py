"""CLI stdout on the shipped fixtures and on fixed subschemes to contract, byte
for byte against recorded output.

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
# the probe reports its collisions in order, so these pin that order too
PROBE_NAMES = ("nodal", "cuspidal", "lut", "two_lines")
# one subscheme per degree e, with the multiplicities the benchmark contracts,
# plus one through infinity that needs a change of coordinates
CONTRACT_POINTS = {
    "contract_e4": "-2:2,0:1,3:1",
    "contract_e6": "1:2,-1:2,0:1,4:1",
    "contract_e8": "0:3,2:2,-3:1,5:1,-1:1",
    "contract_e10": "-1:3,1:2,3:2,-4:2,6:1",
    "contract_e12": "2:3,-2:3,0:2,5:2,-5:1,1:1",
    "contract_inf": "inf:2,0:1,1:1",
}

CASES = (
    [(f"jacobian_{n}", ["jacobian", str(FIXTURES / f"{n}.curve")]) for n in NAMES]
    + [(f"modifiable_{n}", ["modifiable", str(FIXTURES / f"{n}.curve")]) for n in NAMES]
    + [
        (f"aj_{n}", ["aj", str(FIXTURES / f"{n}.curve"), "--point", point])
        for n, point in AJ_POINTS.items()
    ]
    + [
        (f"probe_{n}", ["probe", str(FIXTURES / f"{n}.curve"), "--samples", "12"])
        for n in PROBE_NAMES
    ]
    + [
        (
            "witness_lut_n1_0",
            ["witness", str(FIXTURES / "lut.curve"), "--sing", "n1", "--branch", "0"],
        )
    ]
    + [(name, ["contract", f"--points={points}"]) for name, points in CONTRACT_POINTS.items()]
)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_stdout_matches_recording(capsys, name, argv):
    assert main(argv) == 0
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


# The tests above call main() after pytest has imported the whole package;
# these run the real entry point in a new interpreter, which loads only what
# the command imports.
@pytest.mark.parametrize("name", ["jacobian_lut", "aj_nodal", "contract_e4"])
def test_entry_point_in_a_fresh_interpreter_matches_recording(fresh_python, name):
    done = fresh_python("-m", "pinchjac.cli", *dict(CASES)[name])
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")
