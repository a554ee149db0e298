"""Every small configuration, once up to relabeling: an exhaustive check.

The bound: 1 to 3 lines and 1 or 2 singularities. Each singularity has 1 to 3
branches of multiplicity 1 or 2, with total multiplicity at least 2. The
branch points on each line sit at 0, 1, 2, ... in the order the branches are
listed, and every basepoint at 100. A configuration is its number of lines and
the sorted tuple of its singularities, each a sorted tuple of (line,
multiplicity) pairs; `configurations` yields one only when no relabeling of
its lines gives a smaller such form.

`check_structure` decides, on one configuration, the ranks against verify's
union-find oracle and the delta bookkeeping, the sites and indeterminate sites
against brute-force cut counts, `obstruction_witness` at every branch that is
not a site, and the curve-file round trip. `check_abel_jacobi` compares
`jac_eq` on Abel-Jacobi images with `oracles.principal` on every pair of
smooth sample points.

`tests/test_small_scope.py` runs both in Tier-1, the Abel-Jacobi check on one
smooth point per line. The full sweep, with 4 points per line, is a script
that pytest does not collect:

    python tests/small_scope.py
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # as a script, import pinchjac from the src/ next to tests/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pinchjac.abel_jacobi import SmoothDivisor, aj_eval
from pinchjac.curve_model import Branch, Component, CurveConfig, Singularity, smooth_sample
from pinchjac.dsl import parse_curve_dsl, print_curve_dsl
from pinchjac.jacobian import jac_eq, jacobian_structure
from pinchjac.modification import indeterminate_sites, modifiable_sites
from pinchjac.obstruction import NotFound, Witness, obstruction_witness
from pinchjac.verify import _oracle_graph_ranks
from oracles import principal
from test_modification import _without_branch

BASEPOINT = 100


def _canonical(lines: int, form: tuple) -> tuple:
    """The smallest sorted form over every relabeling of the lines."""
    return min(
        tuple(sorted(tuple(sorted((relabel[line], m) for line, m in s)) for s in form))
        for relabel in itertools.permutations(range(lines))
    )


def _build(lines: int, form: tuple) -> CurveConfig:
    names = [f"L{i}" for i in range(lines)]
    next_point = [0] * lines
    singularities = []
    for k, branches in enumerate(form):
        built = []
        for line, multiplicity in branches:
            built.append(Branch(names[line], next_point[line], multiplicity))
            next_point[line] += 1
        singularities.append(Singularity(f"s{k}", tuple(built)))
    return CurveConfig("small", tuple(Component(name) for name in names), tuple(singularities),
                       tuple((name, BASEPOINT) for name in names))


def configurations(max_lines: int = 3, max_singularities: int = 2, max_branches: int = 3):
    """Each configuration of the bound once up to relabeling of its lines."""
    for lines in range(1, max_lines + 1):
        kinds = [(line, m) for line in range(lines) for m in (1, 2)]
        singularities = sorted(
            branches
            for size in range(1, max_branches + 1)
            for branches in itertools.combinations_with_replacement(kinds, size)
            if sum(m for _, m in branches) >= 2
        )
        for count in range(1, max_singularities + 1):
            for form in itertools.combinations_with_replacement(singularities, count):
                if form == _canonical(lines, form):
                    yield _build(lines, form)


def check_structure(config: CurveConfig) -> dict[str, int]:
    """Assert every structural fact of one configuration; count what was seen."""
    presentation = jacobian_structure(config)
    betti, cc = _oracle_graph_ranks(config)
    thick = sum(b.multiplicity - 1 for s in config.singularities for b in s.branches)
    assert (presentation.torus_rank, presentation.unipotent_rank) == (betti, thick)
    assert presentation.abelian_rank == 0
    delta = sum(s.delta for s in config.singularities)
    assert delta - len(config.components) + cc == betti + thick

    sites = {(site.singularity, site.branch) for site in modifiable_sites(config)}
    undecided = {(site.singularity, site.branch) for site in indeterminate_sites(config)}
    counts = {"sites": len(sites), "indeterminate": len(undecided), "witnesses": 0, "not_found": 0}
    for s in config.singularities:
        reduced = all(b.multiplicity == 1 for b in s.branches)
        for i, b in enumerate(s.branches):
            _, cut_cc = _oracle_graph_ranks(_without_branch(config, s.id, i))
            reduced_bridge = b.multiplicity == 1 and cut_cc == cc + 1
            assert ((s.id, i) in sites) == (reduced_bridge and reduced)
            assert ((s.id, i) in undecided) == (reduced_bridge and not reduced)
            if (s.id, i) in sites:
                continue
            outcome = obstruction_witness(config, s.id, i)
            if (s.id, i) in undecided:
                assert isinstance(outcome, NotFound)
                counts["not_found"] += 1
            else:
                assert isinstance(outcome, Witness)
                counts["witnesses"] += 1

    again = parse_curve_dsl(print_curve_dsl(config)).config
    assert again == config and again.fingerprint() == config.fingerprint()
    return counts


def check_abel_jacobi(config: CurveConfig, points_per_line: int) -> dict[str, int]:
    """`jac_eq` of Abel-Jacobi images against `principal` on every pair of points."""
    presentation = jacobian_structure(config)
    sample = [(c.id, p) for c in config.components
              for p in smooth_sample(config, c.id, points_per_line)]
    images = [aj_eval(config, presentation, c, p) for c, p in sample]
    pairs = equal = 0
    for (i, (ca, pa)), (j, (cb, pb)) in itertools.combinations(enumerate(sample), 2):
        # AJ(a) - AJ(b) is the class of [a] - [base a] - [b] + [base b]
        difference = SmoothDivisor(((ca, pa, 1), (ca, config.basepoint(ca), -1),
                                    (cb, pb, -1), (cb, config.basepoint(cb), 1)))
        same = jac_eq(images[i], images[j])
        assert same == principal(config, difference), (config, sample[i], sample[j])
        pairs += 1
        equal += same
    return {"pairs": pairs, "equal_pairs": equal}


def sweep(points_per_line: int = 0, **bound) -> dict[str, int]:
    """Check every configuration of the bound; the summed counts."""
    totals = {"configurations": 0}
    for config in configurations(**bound):
        totals["configurations"] += 1
        found = check_structure(config)
        if points_per_line:
            found |= check_abel_jacobi(config, points_per_line)
        for key, value in found.items():
            totals[key] = totals.get(key, 0) + value
    return totals


if __name__ == "__main__":
    start = time.perf_counter()
    totals = sweep(points_per_line=4)
    elapsed = time.perf_counter() - start
    print(", ".join(f"{key} {value:,}" for key, value in totals.items()) + f" in {elapsed:.1f} s")
