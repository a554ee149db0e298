"""Every configuration of the small bound in `small_scope`, checked exhaustively.

The structural checks run over the whole bound here, and the Abel-Jacobi check
against `oracles.principal` on one smooth point per line. The full sweep, with
4 points per line, runs with `python tests/small_scope.py`.
"""

from __future__ import annotations

import itertools

from small_scope import _canonical, configurations, sweep


def test_every_small_configuration_is_checked():
    assert sweep(points_per_line=1) == {
        "configurations": 965,
        "sites": 198,
        "indeterminate": 304,
        "witnesses": 4417,
        "not_found": 304,
        "pairs": 2183,
        "equal_pairs": 141,
    }


def test_relabeling_the_lines_gives_the_same_canonical_form():
    form = (((0, 1), (1, 1)), ((1, 2),), ((0, 1), (2, 1), (2, 2)))
    for relabel in itertools.permutations(range(3)):
        moved = tuple(tuple((relabel[line], m) for line, m in s) for s in reversed(form))
        assert _canonical(3, moved) == _canonical(3, form)
    fingerprints = [config.fingerprint() for config in configurations()]
    assert len(set(fingerprints)) == len(fingerprints) == 965
