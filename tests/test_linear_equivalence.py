"""Linear equivalence from its definition, against the library's coordinates.

`oracles.principal` decides whether a divisor is the divisor of a function
whose germ at every singularity lies in the local ring. It shares no spanning
forest, log or closed form with the library, so it checks `jac_eq` on pairs of
Abel-Jacobi images, and the abstract's claims as sampled properties: the
Abel-Jacobi map of an irreducible rational curve with a singularity separates
points, and detaching a modification site keeps every equivalence.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pinchjac.abel_jacobi import SmoothDivisor, aj_eval
from pinchjac.algebra import INFINITY, P1Point
from pinchjac.builders import cuspidal_cubic, nodal_cubic, random_config, two_nodes_pair
from pinchjac.curve_model import is_smooth_point, smooth_sample
from pinchjac.jacobian import jac_eq, jacobian_structure
from pinchjac.modification import modifiable_sites, modify
from oracles import principal

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _sample(rng: random.Random, config) -> list[tuple[str, P1Point]]:
    """Two small smooth points per component, infinity when it is smooth, and
    one random rational when it is smooth and new."""
    out = []
    for c in config.components:
        extra = (INFINITY, P1Point.finite(Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
        points = smooth_sample(config, c.id, 2)
        points += [p for p in extra if p not in points and is_smooth_point(config, c.id, p)]
        out += [(c.id, p) for p in points]
    return out


def _first_config(rng: random.Random, wanted, **bounds):
    """The first seeded genus-0 configuration with basepoints that has what is wanted."""
    configs = (random_config(rng, positive_genus=False, with_basepoints=True, **bounds)
               for _ in itertools.count())
    return next(config for config in configs if wanted(config))


def _aj_difference(config, a: tuple[str, P1Point], b: tuple[str, P1Point]) -> SmoothDivisor:
    """The divisor whose class is AJ(a) - AJ(b)."""
    (ca, pa), (cb, pb) = a, b
    return SmoothDivisor(((ca, pa, 1), (ca, config.basepoint(ca), -1),
                          (cb, pb, -1), (cb, config.basepoint(cb), 1)))


def test_principal_on_the_standard_curves():
    pair = two_nodes_pair()
    two, minus_one, three = (P1Point.finite(v) for v in (2, -1, 3))
    assert principal(pair, _aj_difference(pair, ("L1", two), ("L2", minus_one)))
    assert not principal(pair, _aj_difference(pair, ("L1", two), ("L2", three)))
    for curve in (nodal_cubic(), cuspidal_cubic()):
        assert principal(curve, SmoothDivisor.of([("L", 2, 1), ("L", 2, -1)]))
        assert not principal(curve, SmoothDivisor.of([("L", 2, 1), ("L", 3, -1)]))
    # (t - 2)(t + 1) / ((t - 3)(t + 2)) takes the value 1/3 at both branches
    # of the node, 0 and 1
    node_unit = [("L", 2, 1), ("L", -1, 1), ("L", 3, -1), ("L", -2, -1)]
    assert principal(nodal_cubic(), SmoothDivisor.of(node_unit))
    # (t^2 - 1) / (t^2 - 4) is even, so its jet at the cusp's branch is constant
    cusp_unit = [("L", 1, 1), ("L", -1, 1), ("L", 2, -1), ("L", -2, -1)]
    assert principal(cuspidal_cubic(), SmoothDivisor.of(cusp_unit))
    assert not principal(cuspidal_cubic(), SmoothDivisor.of(node_unit))


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_jac_eq_agrees_with_the_definition(seed):
    rng = random.Random(seed)
    config = random_config(rng, max_components=4, max_singularities=5,
                           positive_genus=False, with_basepoints=True)
    presentation = jacobian_structure(config)
    sample = _sample(rng, config)
    images = [aj_eval(config, presentation, c, p) for c, p in sample]
    for i in range(len(sample)):
        for j in range(i + 1, len(sample)):
            expected = principal(config, _aj_difference(config, sample[i], sample[j]))
            assert jac_eq(images[i], images[j]) == expected, (sample[i], sample[j])


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_irreducible_rational_curves_embed(seed):
    # one line with at least one singularity: no two distinct smooth points
    # are linearly equivalent
    rng = random.Random(seed)
    config = _first_config(rng, lambda c: c.singularities, max_components=1, max_singularities=5)
    presentation = jacobian_structure(config)
    sample = _sample(rng, config)
    for i, (c, p) in enumerate(sample):
        for _, q in sample[i + 1:]:
            assert not principal(config, SmoothDivisor(((c, p, 1), (c, q, -1))))
            assert not jac_eq(aj_eval(config, presentation, c, p), aj_eval(config, presentation, c, q))


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_detaching_a_site_keeps_every_equivalence(seed):
    rng = random.Random(seed)
    config = _first_config(rng, modifiable_sites, max_components=5, max_singularities=6)
    sites = modifiable_sites(config)
    sample = _sample(rng, config)
    pairs = [(a, b) for i, a in enumerate(sample) for b in sample[i + 1:]]
    pairs = rng.sample(pairs, min(len(pairs), 15))
    before = [principal(config, _aj_difference(config, a, b)) for a, b in pairs]
    for site in sites:
        detached = modify(config, site)
        assert [principal(detached, _aj_difference(detached, a, b)) for a, b in pairs] == before
