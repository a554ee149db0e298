"""Seeded input generators for the benchmark workloads (standard library only).

Curves are produced as DSL text, so the program under test receives them the
way a user would hand them over. Nothing here imports pinchjac: generation
runs before the set-up clock starts, and set-up time then covers the import
of the library itself.

Sizes and shapes are fixed by the workload (branch-count and multiplicity
ladders); the seed chooses wiring, points and jet coefficients. Keeping sizes
out of the seed's reach is what keeps figures from different seeds
comparable.
"""

from __future__ import annotations

import random
from fractions import Fraction

WIDE_LADDER = ((24, 300), (48, 600), (80, 1000))  # (components, branches)
# Multiplicity of each curve's thickest branch. An odd number of closely spaced
# rungs puts the median operation inside overlapping clusters of latencies,
# not in the gap between two rungs.
THICK_LADDER = (4, 6, 8, 10, 11, 12, 13, 14, 16, 20, 24)
EDIT_LADDER = (  # (components, branches); small configs dominate, as in hand edits
    (10, 0), (10, 4), (12, 8), (14, 16), (16, 24), (20, 32), (24, 48),
    (30, 64), (36, 96), (44, 128), (54, 192), (64, 256), (80, 400),
)
CONTRACT_LADDER = (4, 6, 8, 10, 12)  # degree e of the contracted subscheme


def rng_for(workload: str, seed: int, *parts) -> random.Random:
    """Independent deterministic stream per (workload, seed, parts)."""
    return random.Random(":".join(str(p) for p in (workload, seed, *parts)))


def fresh_points(count_by_component: dict) -> dict:
    """Integer branch points 1, -1, 2, -2, ... handed out per component."""
    return {c: [(k + 2) // 2 if k % 2 == 0 else -((k + 1) // 2) for k in range(n)]
            for c, n in count_by_component.items()}


def smooth_value(rng: random.Random) -> Fraction:
    """A rational that is never an integer, so never a generated branch point."""
    d = rng.randint(2, 9)
    return rng.randint(-20, 20) + Fraction(rng.randint(1, d - 1), d)


def _branch(component: str, point, mult: int = 1) -> str:
    return f"({component} at {point}" + (f" mult {mult})" if mult > 1 else ")")


def nodal_curve_text(rng: random.Random, name: str, components: int, branches: int) -> str:
    """Genus-0 lines joined by ordinary nodes; basepoints at infinity."""
    ends = [(rng.randrange(components), rng.randrange(components)) for _ in range(branches // 2)]
    counts = {c: 0 for c in range(components)}
    for a, b in ends:
        counts[a] += 1
        counts[b] += 1
    points = fresh_points(counts)
    lines = [f"curve {name}"] + [f"component C{c}" for c in range(components)]
    for j, (a, b) in enumerate(ends):
        lines.append(f"sing n{j} node {_branch(f'C{a}', points[a].pop())} "
                     f"{_branch(f'C{b}', points[b].pop())}")
    lines += [f"base C{c} at inf" for c in range(components)]
    return "\n".join(lines) + "\n"


def thick_curve_text(rng: random.Random, rung: int, mult: int) -> tuple[str, tuple[str, ...]]:
    """One or two lines with one to three singularities; one branch of `mult`.

    The shape (lines, singularities, multiplicities, basepoints at infinity,
    the thick branch at 0) is fixed by the rung so every seed builds curves of
    about the same cost; the seed picks the other branch points.
    """
    two_lines = rung % 2 == 1
    n_sings = 1 + rung % 3
    comps = ("L1", "L2") if two_lines else ("L1",)
    pool = {c: rng.sample((-3, -2, -1, 1, 2, 3), 6) for c in comps}
    sings = [[_branch("L1", 0, mult)]]
    if two_lines:
        sings[0].append(_branch("L2", pool["L2"].pop()))
    if n_sings >= 2:
        other = "L2" if two_lines else "L1"
        sings.append([_branch("L1", pool["L1"].pop(), 2),
                      _branch(other, pool[other].pop())])
    if n_sings == 3:
        last = comps[-1]
        sings.append([_branch(last, pool[last].pop(), 3)])
    lines = [f"curve thick{rung}"] + [f"component {c}" for c in comps]
    lines += [f"sing s{j} pinch {' '.join(b)}" for j, b in enumerate(sings)]
    lines += [f"base {c} at inf" for c in comps]
    return "\n".join(lines) + "\n", comps


def thick_points(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Two smooth points near the thick branch at 0, at distances 1/2 and 3/2.

    The distance to that branch sets the bit length of every jet
    coefficient, so it is fixed; the seed picks only the sides.
    """
    return Fraction(rng.choice((-1, 1)), 2), Fraction(rng.choice((-3, 3)), 2)


def random_jet_coeffs(rng: random.Random, order: int) -> list[Fraction]:
    """Coefficients of a unit jet: small nonzero rationals, so that every jet
    of one order is about as dense and as long in bits as any other."""
    head = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))
    return [head] + [Fraction(rng.randint(1, 6) * rng.choice((1, -1)), rng.randint(1, 3))
                     for _ in range(order - 1)]


EDIT_SING_SIZES = (2, 2, 3, 2, 4)


def edit_config(rng: random.Random, name: str, components: int, branches: int):
    """A config with positive genus allowed and multiplicities up to 3.

    The shape is fixed by the size, so that configs of one rung cost about
    the same whatever the seed: every seventh component has genus 1,
    singularity sizes cycle through EDIT_SING_SIZES, the branches of one
    singularity lie on distinct components, every fifth branch is thick (on a
    line), and the last component hangs off the rest by a single node, so
    there is always a modification site once there are branches. The seed
    picks the components each singularity joins.

    Returns the DSL text plus the expected unipotent and abelian ranks, which
    the checker compares against the library.
    """
    genus = [1 if c % 7 == 6 else 0 for c in range(components)]
    leaf = components - 1
    sizes = []
    left = max(branches - 2, 0)
    while left > 0:
        r = min(left, EDIT_SING_SIZES[len(sizes) % len(EDIT_SING_SIZES)])
        if left - r == 1:
            r += 1
        sizes.append(r)
        left -= r
    lines_only = [c for c in range(leaf) if genus[c] == 0]
    sings = []  # per singularity: (component, multiplicity) of each branch
    j = 0
    for r in sizes:
        members = []
        for _ in range(r):
            thick = j % 5 == 4
            pool = lines_only if thick else range(leaf)
            c = rng.choice([x for x in pool if x not in {m for m, _ in members}])
            members.append((c, 2 + (j // 5) % 2 if thick else 1))
            j += 1
        sings.append(members)
    if branches:
        sings.append([(rng.randrange(leaf), 1), (leaf, 1)])
    counts = {c: 0 for c in range(components)}
    for members in sings:
        for c, _ in members:
            counts[c] += 1
    points = fresh_points(counts)
    lines = [f"curve {name}"] + [f"component C{c} genus {g}" for c, g in enumerate(genus)]
    unipotent = 0
    for s, members in enumerate(sings):
        unipotent += sum(mult - 1 for _, mult in members)
        groups = [_branch(f"C{c}", points[c].pop(), mult) for c, mult in members]
        lines.append(f"sing s{s} pinch {' '.join(groups)}")
    return "\n".join(lines) + "\n", unipotent, sum(genus)


def modifiable_curve_text(rng: random.Random) -> tuple[str, tuple[str, int], tuple[str, int]]:
    """A small all-reduced curve with a known site and a known non-site branch.

    Component T meets the rest only at the node `leaf`, so its branch there is
    a modification site. Singularity `twin` has two branches on C0, so its
    first branch is not a site and always carries a witness.
    """
    core = 5
    sings = [[rng.randrange(core) for _ in range(2)] for _ in range(6)]
    counts = {c: 0 for c in range(core)}
    for members in sings:
        for c in members:
            counts[c] += 1
    counts[0] += 2
    anchor = rng.randrange(core)
    counts[anchor] += 1
    points = fresh_points(counts)
    lines = ["curve editable"] + [f"component C{c}" for c in range(core)] + ["component T"]
    for j, (a, b) in enumerate(sings):
        lines.append(f"sing s{j} node {_branch(f'C{a}', points[a].pop())} "
                     f"{_branch(f'C{b}', points[b].pop())}")
    lines.append(f"sing twin node {_branch('C0', points[0].pop())} {_branch('C0', points[0].pop())}")
    lines.append(f"sing leaf node {_branch(f'C{anchor}', points[anchor].pop())} {_branch('T', 0)}")
    lines += [f"base C{c} at inf" for c in range(core)] + ["base T at inf"]
    return "\n".join(lines) + "\n", ("leaf", 1), ("twin", 0)


# Multiplicities of the contracted points per degree: fixed, so that the seed
# (which picks the points) does not change how hard a rung is.
CONTRACT_MULTS = {4: (2, 1, 1), 6: (2, 2, 1, 1), 8: (3, 2, 1, 1, 1), 10: (3, 2, 2, 2, 1),
                  12: (3, 3, 2, 2, 1, 1)}


def contract_points(rng: random.Random, degree: int) -> str:
    """`--points` text for a subscheme of the given degree on small integers."""
    mults = CONTRACT_MULTS[degree]
    values = rng.sample(range(-6, 7), len(mults))
    return ",".join(f"{v}:{m}" for v, m in zip(values, mults))
