from __future__ import annotations

import json
from pathlib import Path

import pytest

import pinchjac
from pinchjac.cli import main

NODAL = "curve nodal\ncomponent L genus 0\nsing n node (L at 0) (L at 1)\nbase L at inf\n"
LUT = (
    "curve lut\ncomponent L1\ncomponent L2\n"
    "sing n1 node (L1 at 0) (L2 at 0)\nsing n2 node (L1 at 1) (L2 at 1)\n"
    "base L1 at inf\nbase L2 at inf\n"
)
TWO_LINES = (
    "curve two_lines\ncomponent L1\ncomponent L2\n"
    "sing n node (L1 at 0) (L2 at 0)\nbase L1 at inf\nbase L2 at inf\n"
)
MIXED = (
    "curve mixed\ncomponent L genus 0\ncomponent E genus 1\n"
    "sing n node (L at 0) (E at 0)\nbase L at inf\nbase E at 1\n"
)
ELLIPTIC_PAIR = Path(pinchjac.__file__).parent / "fixtures" / "elliptic_pair.curve"


@pytest.fixture
def curves(tmp_path: Path) -> dict[str, str]:
    paths = {}
    for name, text in (("nodal", NODAL), ("lut", LUT), ("two_lines", TWO_LINES), ("mixed", MIXED)):
        path = tmp_path / f"{name}.curve"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def _run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jacobian_command(capsys, curves):
    code, out, _ = _run(capsys, ["jacobian", curves["lut"]])
    assert code == 0
    payload = json.loads(out)
    assert payload["torus_rank"] == 1
    assert payload["unipotent_rank"] == 0
    assert payload["abelian_rank"] == 0
    assert payload["torus_basis"] == [["n2", 1]]


def test_jacobian_output_is_byte_stable(capsys, curves):
    _, first, _ = _run(capsys, ["jacobian", curves["lut"]])
    _, second, _ = _run(capsys, ["jacobian", curves["lut"]])
    assert first == second


def test_aj_command(capsys, curves):
    code, out, _ = _run(capsys, ["aj", curves["nodal"], "--point", "L:2"])
    assert code == 0
    assert json.loads(out)["torus_coords"] == ["1/2"]


def test_aj_rejects_branch_point(capsys, curves):
    code, _, err = _run(capsys, ["aj", curves["nodal"], "--point", "L:0"])
    assert code == 1
    assert "PointNotSmooth" in err


def test_aj_unknown_component_is_usage_error(capsys, curves):
    code, _, _ = _run(capsys, ["aj", curves["nodal"], "--point", "X:2"])
    assert code == 2


def test_probe_command(capsys, curves):
    code, out, _ = _run(capsys, ["probe", curves["lut"], "--samples", "4"])
    assert code == 0
    payload = json.loads(out)
    assert [["L1", "2"], ["L2", "-1"]] in payload["collisions"]

    code, out, _ = _run(capsys, ["probe", curves["nodal"], "--samples", "25"])
    assert code == 0
    assert json.loads(out)["collisions"] == []


# A positive-genus component is a mathematical negative (exit 1), not a usage
# error: point arithmetic exists only on genus-0 components.
@pytest.mark.parametrize(
    "point,message",
    [
        ("L:2", "PositiveGenusUnsupported: component 'E' has genus 1\n"),
        (
            "E:2",
            "PositiveGenusUnsupported: component 'E' has genus 1; "
            "point arithmetic is only supported on genus-0 components\n",
        ),
    ],
    ids=["L:2", "E:2"],
)
def test_aj_on_mixed_genera_is_negative(capsys, curves, point, message):
    assert _run(capsys, ["aj", curves["mixed"], "--point", point]) == (1, "", message)


def test_probe_on_positive_genus_is_negative(capsys):
    code, out, err = _run(capsys, ["probe", str(ELLIPTIC_PAIR), "--samples", "3"])
    assert (code, out) == (1, "")
    assert err.startswith("PositiveGenusUnsupported: component 'E1' has genus 1; ")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_probe_rejects_nonpositive_samples(capsys, curves, samples):
    code, out, err = _run(capsys, ["probe", curves["lut"], "--samples", samples])
    assert code == 2
    assert out == ""
    assert "--samples" in err


def test_modifiable_command(capsys, curves):
    code, out, _ = _run(capsys, ["modifiable", curves["lut"]])
    assert code == 0
    assert json.loads(out) == {"sites": [], "indeterminate": [], "modifiable": False}

    code, out, _ = _run(capsys, ["modifiable", curves["two_lines"]])
    payload = json.loads(out)
    assert payload["modifiable"] is True
    assert len(payload["sites"]) == 2


def test_modify_command(capsys, curves, tmp_path):
    out_path = tmp_path / "out.curve"
    code, out, _ = _run(
        capsys,
        ["modify", curves["two_lines"], "--sing", "n", "--branch", "0", "-o", str(out_path)],
    )
    assert code == 0
    assert json.loads(out)["config"]["singularities"] == []
    text = out_path.read_text(encoding="utf-8")
    assert "sing" not in text
    code, out, _ = _run(capsys, ["jacobian", str(out_path)])
    assert code == 0


def test_modify_non_site_is_negative(capsys, curves, tmp_path):
    code, _, err = _run(
        capsys,
        ["modify", curves["lut"], "--sing", "n1", "--branch", "0", "-o", str(tmp_path / "x")],
    )
    assert code == 1
    assert "NotASite" in err


@pytest.mark.parametrize("command", ["modify", "witness"])
@pytest.mark.parametrize(
    "sing, branch, message",
    [
        ("zz", "0", "no singularity named 'zz'"),
        ("n1", "99", "singularity 'n1' has no branch 99"),
        ("n1", "-1", "singularity 'n1' has no branch -1"),
    ],
    ids=["unknown-singularity", "branch-past-the-end", "negative-branch"],
)
def test_site_the_file_lacks_is_a_usage_error(capsys, curves, tmp_path, command, sing, branch,
                                              message):
    output = tmp_path / "x.curve"
    argv = [command, curves["lut"], "--sing", sing, "--branch", branch]
    argv += ["-o", str(output)] if command == "modify" else []
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (2, "", message + "\n")
    assert not output.exists()


def test_contract_command(capsys):
    code, out, _ = _run(capsys, ["contract", "--points", "0:2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == ["t^2", "t^3"]
    assert payload["config"]["singularities"][0]["branches"][0]["multiplicity"] == 2

    code, out, _ = _run(capsys, ["contract", "--points", "0:1,1:1"])
    payload = json.loads(out)
    assert payload["generators"] == ["t^2 - t", "t^3 - t^2"]

    code, _, _ = _run(capsys, ["contract", "--points", "0:1"])
    assert code == 1  # contracting one reduced point is an isomorphism

    code, _, _ = _run(capsys, ["contract", "--points", "bogus"])
    assert code == 2

    code, _, err = _run(capsys, ["contract", "--points=0:\u00b2"])
    assert code == 2
    assert "not a positive multiplicity" in err


def test_witness_command(capsys, curves):
    code, out, _ = _run(capsys, ["witness", curves["lut"], "--sing", "n1", "--branch", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["case"] == "ConnectivityValue"
    assert payload["scalar"] == "2"
    assert payload["not_liftable"]["reason"] == "ValueMismatch"


def test_witness_at_modifiable_site_is_negative(capsys, curves):
    code, _, err = _run(capsys, ["witness", curves["two_lines"], "--sing", "n", "--branch", "0"])
    assert code == 1
    assert "SiteIsModifiable" in err


def test_witness_not_found_exits_one(capsys, tmp_path):
    mixed = tmp_path / "mixed.curve"
    mixed.write_text(
        "curve mixed\ncomponent L1\ncomponent L2\n"
        "sing s pinch (L1 at 0) (L2 at 0 mult 2)\n",
        encoding="utf-8",
    )
    code, out, _ = _run(capsys, ["witness", str(mixed), "--sing", "s", "--branch", "0"])
    assert code == 1
    assert json.loads(out)["found"] is False


def test_parse_errors_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.curve"
    bad.write_text("curve x\nsing n node (L at 0)\n", encoding="utf-8")
    code, _, err = _run(capsys, ["jacobian", str(bad)])
    assert code == 2
    assert "line 2" in err


def test_invalid_config_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.curve"
    bad.write_text(
        "curve x\ncomponent L\nsing a node (L at 0) (L at 1)\nsing b node (L at 0) (L at 2)\n",
        encoding="utf-8",
    )
    code, _, err = _run(capsys, ["jacobian", str(bad)])
    assert code == 2
    assert "DuplicateBranchPoint" in err


def test_missing_file_exits_two(capsys):
    code, _, _ = _run(capsys, ["jacobian", "/nonexistent/x.curve"])
    assert code == 2


def test_file_that_is_not_utf8_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.curve"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = _run(capsys, ["jacobian", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {bad}: ")


def test_file_with_a_byte_order_mark_reads_as_without(capsys, curves, tmp_path):
    marked = tmp_path / "marked.curve"
    marked.write_bytes(b"\xef\xbb\xbf" + LUT.encode("utf-8"))
    assert _run(capsys, ["jacobian", str(marked)]) == _run(capsys, ["jacobian", curves["lut"]])
    code, out, err = _run(capsys, ["jacobian", str(marked)])
    assert (code, err) == (0, "")
    assert json.loads(out)["torus_rank"] == 1


@pytest.mark.parametrize("target", ["missing/x.curve", "."], ids=["missing-dir", "a-directory"])
def test_modify_to_unwritable_output_exits_two(capsys, curves, tmp_path, target):
    output = str(tmp_path / target)
    code, out, err = _run(
        capsys, ["modify", curves["two_lines"], "--sing", "n", "--branch", "0", "-o", output]
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot write {output}: ")


def test_verify_command(capsys):
    code, out, err = _run(capsys, ["verify", "--seed", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["criteria"]) == 8
    assert err.count("PASS") == 8
