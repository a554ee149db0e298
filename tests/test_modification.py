from __future__ import annotations

import random

import pytest

from pinchjac.algebra import P1Point
from pinchjac.builders import (
    elliptic_pair,
    nodal_cubic,
    cuspidal_cubic,
    random_config,
    random_modifiable_config,
    two_lines,
    two_nodes_pair,
)
from pinchjac.curve_model import (
    Branch,
    Component,
    CurveConfig,
    Singularity,
    dual_graph,
    validate,
)
from pinchjac.errors import InvalidProblem, NotASite, UnknownSingularity
from pinchjac.jacobian import jacobian_structure
from pinchjac.modification import ModificationSite, indeterminate_sites, modifiable_sites, modify
from pinchjac.obstruction import obstruction_witness
from pinchjac.verify import _oracle_graph_ranks


def _pt(v) -> P1Point:
    return P1Point.finite(v)


def _triple_point() -> CurveConfig:
    return CurveConfig(
        name="triple",
        components=(Component("L1"), Component("L2"), Component("L3")),
        singularities=(
            Singularity(
                "t",
                (Branch("L1", _pt(0)), Branch("L2", _pt(0)), Branch("L3", _pt(0))),
            ),
        ),
    )


def test_two_lines_has_both_sites():
    assert modifiable_sites(two_lines()) == (
        ModificationSite("n", 0),
        ModificationSite("n", 1),
    )


def test_two_node_pair_has_no_sites():
    assert modifiable_sites(two_nodes_pair()) == ()


def test_elliptic_pair_has_both_sites():
    assert modifiable_sites(elliptic_pair()) == (
        ModificationSite("n", 0),
        ModificationSite("n", 1),
    )


def test_irreducible_curves_have_no_sites():
    assert modifiable_sites(nodal_cubic()) == ()
    assert modifiable_sites(cuspidal_cubic()) == ()


def test_triple_point_sites_and_modify():
    config = _triple_point()
    assert len(modifiable_sites(config)) == 3
    modified = modify(config, ModificationSite("t", 0))
    assert validate(modified) == []
    remaining = modified.singularities[0]
    assert [b.component for b in remaining.branches] == ["L2", "L3"]


def test_modify_two_lines_detaches_completely():
    config = two_lines()
    modified = modify(config, ModificationSite("n", 0))
    assert modified.singularities == ()
    assert len(modified.components) == 2


def test_modify_rejects_non_sites():
    with pytest.raises(NotASite):
        modify(two_nodes_pair(), ModificationSite("n1", 0))
    with pytest.raises(NotASite):
        modify(nodal_cubic(), ModificationSite("n", 0))


@pytest.mark.parametrize(
    "sing, branch, error",
    [("zz", 0, UnknownSingularity), ("n1", 99, InvalidProblem), ("n1", -1, InvalidProblem)],
    ids=["unknown-singularity", "branch-past-the-end", "negative-branch"],
)
def test_a_branch_the_curve_lacks_is_the_same_error_as_in_the_witness(sing, branch, error):
    config = two_nodes_pair()
    with pytest.raises(error) as witnessed:
        obstruction_witness(config, sing, branch)
    with pytest.raises(error) as modified:
        modify(config, ModificationSite(sing, branch))
    assert str(modified.value) == str(witnessed.value)


def test_indeterminate_sites():
    config = CurveConfig(
        name="mixed",
        components=(Component("L1"), Component("L2")),
        singularities=(
            Singularity("s", (Branch("L1", _pt(0)), Branch("L2", _pt(0), 2))),
        ),
    )
    assert modifiable_sites(config) == ()
    assert indeterminate_sites(config) == (ModificationSite("s", 0),)


def test_sites_follow_relabeling():
    rng = random.Random(71)
    for _ in range(40):
        config = random_modifiable_config(rng)
        reversed_sings = CurveConfig(
            name=config.name,
            components=config.components,
            singularities=tuple(reversed(config.singularities)),
            basepoints=config.basepoints,
        )
        original = {(s.singularity, s.branch) for s in modifiable_sites(config)}
        relabeled = {(s.singularity, s.branch) for s in modifiable_sites(reversed_sings)}
        assert original == relabeled


def test_modification_preserves_ranks_and_disconnects():
    rng = random.Random(73)
    for _ in range(100):
        config = random_modifiable_config(rng)
        sites = modifiable_sites(config)
        site = sites[rng.randrange(len(sites))]
        before = jacobian_structure(config)
        cc_before = dual_graph(config).connected_components
        modified = modify(config, site)
        after = jacobian_structure(modified)
        assert (before.torus_rank, before.unipotent_rank, before.abelian_rank) == (
            after.torus_rank,
            after.unipotent_rank,
            after.abelian_rank,
        )
        assert dual_graph(modified).connected_components == cc_before + 1


def test_iterated_modification_terminates():
    rng = random.Random(79)
    for _ in range(25):
        config = random_modifiable_config(rng)
        budget = sum(len(s.branches) for s in config.singularities)
        steps = 0
        while True:
            sites = modifiable_sites(config)
            if not sites:
                break
            config = modify(config, sites[0])
            steps += 1
            assert steps <= budget
        assert modifiable_sites(config) == ()


# --------------------------------------------------------------------------
# Sites against a brute-force component count
# --------------------------------------------------------------------------

def _without_branch(config: CurveConfig, sing_id: str, branch: int) -> CurveConfig:
    """The config with one branch edge cut but the singularity kept."""
    sings = []
    for s in config.singularities:
        if s.id == sing_id:
            kept = tuple(b for i, b in enumerate(s.branches) if i != branch)
            sings.append(Singularity(s.id, kept))
        else:
            sings.append(s)
    return CurveConfig(config.name, config.components, tuple(sings), config.basepoints)


def _brute_force_configs():
    rng = random.Random(83)
    configs = [random_config(rng, max_components=6, max_singularities=8) for _ in range(60)]
    configs += [random_modifiable_config(rng) for _ in range(30)]
    # a multigraph: two branches of s on L1 are parallel edges, L2 hangs off a bridge
    configs.append(
        CurveConfig(
            name="parallel",
            components=(Component("L1"), Component("L2")),
            singularities=(
                Singularity(
                    "s", (Branch("L1", _pt(0)), Branch("L1", _pt(1)), Branch("L2", _pt(0)))
                ),
            ),
        )
    )
    # a thick singularity joining three lines; a node closes a cycle through L1 and L2
    configs.append(
        CurveConfig(
            name="thick",
            components=(Component("L1"), Component("L2"), Component("L3")),
            singularities=(
                Singularity(
                    "t",
                    (Branch("L1", _pt(0)), Branch("L2", _pt(0), 3), Branch("L3", _pt(0))),
                ),
                Singularity("n", (Branch("L1", _pt(1)), Branch("L2", _pt(1)))),
            ),
        )
    )
    return configs


def test_sites_match_brute_force_component_counts():
    listed_seen = unlisted_seen = 0
    for config in _brute_force_configs():
        sites = modifiable_sites(config)
        undecided = indeterminate_sites(config)
        listed = {(s.singularity, s.branch) for s in sites + undecided}
        assert len(listed) == len(sites) + len(undecided)
        _, cc = _oracle_graph_ranks(config)
        for s in config.singularities:
            all_reduced = all(b.multiplicity == 1 for b in s.branches)
            for i, b in enumerate(s.branches):
                siblings = sum(1 for other in s.branches if other.component == b.component)
                if b.multiplicity != 1 or siblings != 1:
                    assert (s.id, i) not in listed
                    continue
                _, cut_cc = _oracle_graph_ranks(_without_branch(config, s.id, i))
                if (s.id, i) in listed:
                    assert cut_cc == cc + 1
                    site = ModificationSite(s.id, i)
                    assert site in (sites if all_reduced else undecided)
                    listed_seen += 1
                else:
                    assert cut_cc == cc
                    unlisted_seen += 1
    assert listed_seen > 20 and unlisted_seen > 20

