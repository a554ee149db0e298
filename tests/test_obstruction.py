from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pinchjac.algebra import Jet, P1Point
from pinchjac.builders import (
    cuspidal_cubic,
    nodal_cubic,
    random_modifiable_config,
    two_lines,
    two_nodes_pair,
)
from pinchjac.curve_model import Branch, Component, CurveConfig, Singularity
from pinchjac.errors import InvalidProblem, SiteIsModifiable
from pinchjac.modification import modifiable_sites
from pinchjac.obstruction import (
    CASE_CONNECTIVITY,
    CASE_NON_REDUCED_JET,
    CASE_SAME_COMPONENT,
    Liftable,
    NotFound,
    NotLiftable,
    Witness,
    liftability_problem,
    liftability_test,
    obstruction_witness,
)


def _pt(v) -> P1Point:
    return P1Point.finite(v)


def _constant_germ(config, singularity_id, special_branch, value):
    s = config.singularity(singularity_id)
    return {
        i: Jet.constant(value if i == special_branch else 1, b.multiplicity)
        for i, b in enumerate(s.branches)
    }


# --------------------------------------------------------------------------
# The solver
# --------------------------------------------------------------------------

def test_all_ones_germ_is_liftable():
    config = two_nodes_pair()
    problem = liftability_problem(config, "n1", _constant_germ(config, "n1", None, 1))
    outcome = liftability_test(problem)
    assert isinstance(outcome, Liftable)
    assert outcome.mu == 1 and set(outcome.class_scalars) == {Fraction(1)}


def test_two_node_pair_value_mismatch():
    # the two lines stay connected through the second node, so a value 2
    # against a value 1 within the same class cannot lift
    config = two_nodes_pair()
    problem = liftability_problem(config, "n1", _constant_germ(config, "n1", 0, 2))
    assert problem.partition == (("L1", "L2"),)
    outcome = liftability_test(problem)
    assert isinstance(outcome, NotLiftable)
    assert outcome.reason == "ValueMismatch"
    assert {outcome.branch, outcome.other_branch} == {0, 1}


def test_the_first_branch_of_a_class_carries_its_scalar():
    # without s1 the three lines stay one class through s2; M is a class of its own
    config = CurveConfig(
        name="triple",
        components=(Component("L1"), Component("L2"), Component("L3"), Component("M")),
        singularities=(
            Singularity("s1", (Branch("L1", 0), Branch("L2", 0), Branch("L3", 0))),
            Singularity("s2", (Branch("L1", 1), Branch("L2", 1), Branch("L3", 1))),
        ),
    )

    def outcome(*values):
        germ = {i: Jet.constant(v, 1) for i, v in enumerate(values)}
        return liftability_test(liftability_problem(config, "s1", germ))

    assert outcome(1, 1, 2) == NotLiftable("ValueMismatch", branch=2, other_branch=0, values=(2, 1))
    partition = liftability_problem(config, "s1", {i: Jet.constant(1, 1) for i in range(3)}).partition
    scalars = tuple(Fraction(3) if "L1" in members else Fraction(1) for members in partition)
    assert len(partition) == 2 and outcome(3, 3, 3) == Liftable(Fraction(1), scalars)


def test_single_node_distinct_values_lift():
    config = two_lines()
    problem = liftability_problem(config, "n", _constant_germ(config, "n", 0, 2))
    assert problem.partition == (("L1",), ("L2",))
    outcome = liftability_test(problem)
    assert isinstance(outcome, Liftable)
    assert sorted(outcome.class_scalars) == [Fraction(1), Fraction(2)]


def test_nonconstant_jet_never_lifts():
    config = cuspidal_cubic()
    germ = {0: Jet.make(2, (1, 1))}
    outcome = liftability_test(liftability_problem(config, "s", germ))
    assert outcome == NotLiftable(reason="NonconstantJet", branch=0)


def test_problem_validation():
    config = cuspidal_cubic()
    with pytest.raises(InvalidProblem):
        liftability_problem(config, "s", {})
    with pytest.raises(InvalidProblem):
        liftability_problem(config, "s", {0: Jet.constant(1, 1)})  # wrong order
    with pytest.raises(InvalidProblem):
        liftability_problem(config, "s", {0: Jet.make(2, (0, 1))})  # non-unit


# --------------------------------------------------------------------------
# Witness search
# --------------------------------------------------------------------------

def test_witness_cases_on_the_standard_curves():
    lut = two_nodes_pair()
    w = obstruction_witness(lut, "n1", 0)
    assert isinstance(w, Witness)
    assert w.case == CASE_CONNECTIVITY and w.scalar == 2

    cusp = cuspidal_cubic()
    w = obstruction_witness(cusp, "s", 0)
    assert isinstance(w, Witness)
    assert w.case == CASE_NON_REDUCED_JET
    assert w.germ[0] == Jet.make(2, (1, 1))
    assert w.failure.reason == "NonconstantJet"

    nodal = nodal_cubic()
    for branch in (0, 1):
        w = obstruction_witness(nodal, "n", branch)
        assert isinstance(w, Witness)
        assert w.case == CASE_SAME_COMPONENT and w.scalar == 2


def test_every_fixture_witness_is_rejected_by_the_solver():
    for config in (nodal_cubic(), cuspidal_cubic(), two_nodes_pair()):
        for s in config.singularities:
            for i in range(len(s.branches)):
                w = obstruction_witness(config, s.id, i)
                assert isinstance(w, Witness)
                problem = liftability_problem(config, s.id, dict(enumerate(w.germ)))
                assert isinstance(liftability_test(problem), NotLiftable)


def test_witness_refused_at_modifiable_sites():
    config = two_lines()
    with pytest.raises(SiteIsModifiable):
        obstruction_witness(config, "n", 0)


def test_witness_not_found_at_indeterminate_disconnecting_branch():
    # the reduced branch disconnects, but the thick branch keeps the
    # singularity off the site list; the heuristic germ then lifts
    config = CurveConfig(
        name="mixed",
        components=(Component("L1"), Component("L2")),
        singularities=(
            Singularity("s", (Branch("L1", _pt(0)), Branch("L2", _pt(0), 2))),
        ),
    )
    outcome = obstruction_witness(config, "s", 0)
    assert isinstance(outcome, NotFound)
    assert sorted(outcome.liftable.class_scalars) == [Fraction(1), Fraction(2)]


def test_witnesses_are_deterministic():
    config = two_nodes_pair()
    assert obstruction_witness(config, "n1", 0) == obstruction_witness(config, "n1", 0)


def test_detached_germs_lift_at_modifiable_sites():
    rng = random.Random(83)
    for _ in range(100):
        config = random_modifiable_config(rng)
        sites = modifiable_sites(config)
        site = sites[rng.randrange(len(sites))]
        germ = _constant_germ(config, site.singularity, site.branch, 2)
        problem = liftability_problem(config, site.singularity, germ)
        assert isinstance(liftability_test(problem), Liftable)


def test_witnesses_exist_at_every_non_site_branch_of_random_curves():
    rng = random.Random(89)
    found = 0
    for _ in range(60):
        config = random_modifiable_config(rng)
        sites = {(s.singularity, s.branch) for s in modifiable_sites(config)}
        for s in config.singularities:
            for i in range(len(s.branches)):
                if (s.id, i) in sites:
                    continue
                outcome = obstruction_witness(config, s.id, i)
                if isinstance(outcome, Witness):
                    found += 1
                    problem = liftability_problem(
                        config, s.id, dict(enumerate(outcome.germ))
                    )
                    assert isinstance(liftability_test(problem), NotLiftable)
    assert found > 50
