"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1 through 8 run through the same seeded checkers the `verify`
command uses (their oracles are implemented independently of the library
paths they check); criterion 9 drives the CLI itself. The per-criterion tests
read one shared seed-0 run, and the determinism test compares that run with a
fresh one.
"""

from __future__ import annotations

import json

import pytest

from pinchjac.cli import main
from pinchjac.verify import CRITERIA, run_all


@pytest.fixture(scope="module")
def seed_0_results():
    """One seed-0 run of criteria 1 through 8, shared by the tests that only read it."""
    return run_all(seed=0)


@pytest.mark.parametrize("checker", CRITERIA, ids=lambda c: c.__name__)
def test_criterion(checker, seed_0_results, capsys):
    result = seed_0_results[CRITERIA.index(checker)]
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"criterion {result.criterion} {status}: {result.name} [{result.details}]")
    assert result.passed, f"criterion {result.criterion}: {result.details}"


def test_criterion_9_verify_command(capsys):
    code = main(["verify", "--seed", "0"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    with capsys.disabled():
        status = "PASS" if code == 0 else "FAIL"
        print(f"criterion 9 {status}: verify runs criteria 1-8 and exits 0")
    assert code == 0
    assert payload["all_passed"] is True
    assert [c["criterion"] for c in payload["criteria"]] == list(range(1, 9))


def test_suite_is_deterministic(seed_0_results):
    first = seed_0_results
    second = run_all(seed=0)
    assert [(r.criterion, r.passed, r.details) for r in first] == [
        (r.criterion, r.passed, r.details) for r in second
    ]
