"""Modifications: pulling a component away from the rest at one branch.

A modification site is a reduced bridge of the dual graph with no sibling
branch on its component, at a singularity whose branches are all reduced. A
bridge is a branch edge whose removal disconnects the dual graph, so
detaching the branch adds exactly one connected component. A sibling branch
(another branch of the same singularity on the same component) would be a
parallel edge, so a bridge never has one. Performing the modification
removes the branch; a singularity left with a single reduced branch
disappears entirely (the point becomes smooth). All three Jacobian ranks are
invariant under modification.

Singularities mixing reduced and non-reduced branches are excluded from the
site list and reported separately as indeterminate: whether such a branch
qualifies is not settled by the contraction-type model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve_model import CurveConfig, Singularity, bridges, require_valid
from .errors import InvalidProblem, NotASite


@dataclass(frozen=True)
class ModificationSite:
    """A (singularity, branch index) pair along which the curve can be pulled apart."""

    singularity: str
    branch: int


def _reduced_bridges(config: CurveConfig, *, thick: bool) -> tuple[ModificationSite, ...]:
    """Reduced bridges at singularities with (thick) or without a thick branch, unvalidated."""
    cut = bridges(config)
    return tuple(
        ModificationSite(s.id, i)
        for s in config.singularities
        if any(b.multiplicity > 1 for b in s.branches) == thick
        for i, b in enumerate(s.branches)
        if b.multiplicity == 1 and (s.id, i) in cut
    )


def modifiable_sites(config: CurveConfig) -> tuple[ModificationSite, ...]:
    """All modification sites, in configuration order."""
    require_valid(config)
    return _reduced_bridges(config, thick=False)


def indeterminate_sites(config: CurveConfig) -> tuple[ModificationSite, ...]:
    """Reduced bridges at singularities with a thick branch.

    These satisfy every site condition except full reducedness of the
    singularity; eligibility is left undecided rather than guessed.
    """
    require_valid(config)
    return _reduced_bridges(config, thick=True)


def modify(config: CurveConfig, site: ModificationSite) -> CurveConfig:
    """Detach the site's branch; drop the singularity if one branch remains."""
    require_valid(config)
    if not 0 <= site.branch < len(config.singularity(site.singularity).branches):
        raise InvalidProblem(f"singularity {site.singularity!r} has no branch {site.branch}")
    if site not in modifiable_sites(config):
        raise NotASite(
            f"({site.singularity}, {site.branch}) is not a modification site"
        )
    singularities = []
    for s in config.singularities:
        if s.id != site.singularity:
            singularities.append(s)
            continue
        remaining = tuple(
            b for i, b in enumerate(s.branches) if i != site.branch
        )
        if len(remaining) >= 2:
            singularities.append(Singularity(s.id, remaining))
        # a single remaining reduced branch is a smooth point: singularity gone
    result = CurveConfig(
        name=f"{config.name}_mod",
        components=config.components,
        singularities=tuple(singularities),
        basepoints=config.basepoints,
    )
    require_valid(result)
    return result
