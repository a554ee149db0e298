"""Command-line interface: JSON on stdout, diagnostics on stderr.

Exit codes: 0 on success, 1 for a mathematical negative (no witness, not a
site, a point off the smooth locus, a failed verify run), 2 for usage or
parse errors, among them a singularity or branch that the curve file lacks.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .algebra import P1Point, rational_str
from .curve_model import CurveConfig, require_valid, smooth_sample
from .dsl import DslParseError, parse_curve_dsl, parse_point, print_curve_dsl
from .errors import (
    InvalidConfig,
    MissingBasepoint,
    PinchjacError,
    UnknownComponent,
    UnknownSingularity,
)
from .jacobian import jacobian_structure

_USAGE_ERRORS = (MissingBasepoint, UnknownComponent, UnknownSingularity)


class _CliUsage(Exception):
    pass


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _config_json(config: CurveConfig) -> dict:
    return {
        "name": config.name,
        "components": [{"id": c.id, "genus": c.genus} for c in config.components],
        "singularities": [
            {
                "id": s.id,
                "branches": [
                    {
                        "component": b.component,
                        "point": str(b.point),
                        "multiplicity": b.multiplicity,
                    }
                    for b in s.branches
                ],
            }
            for s in config.singularities
        ],
        "basepoints": {cid: str(p) for cid, p in config.basepoints},
    }


def _load_config(path: str) -> CurveConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliUsage(f"cannot read {path}: {exc}") from exc
    doc = parse_curve_dsl(text)
    require_valid(doc.config)
    return doc.config


def _load_config_at_branch(args) -> CurveConfig:
    """The curve file, once --sing and --branch name a branch that it has."""
    config = _load_config(args.file)
    if not 0 <= args.branch < len(config.singularity(args.sing).branches):
        raise _CliUsage(f"singularity {args.sing!r} has no branch {args.branch}")
    return config


def _parse_point_arg(text: str) -> P1Point:
    point = parse_point(text)
    if point is None:
        raise _CliUsage(f"not a point literal: {text!r}")
    return point


def _parse_component_point(text: str) -> tuple[str, P1Point]:
    if ":" not in text:
        raise _CliUsage("expected COMPONENT:POINT")
    component, _, literal = text.partition(":")
    return component, _parse_point_arg(literal)


def _parse_subscheme(text: str):
    from .contraction import finite_subscheme

    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        point_text, _, mult_text = chunk.partition(":")
        point = _parse_point_arg(point_text.strip())
        mult_text = mult_text.strip() or "1"
        if not mult_text.isdecimal() or int(mult_text) < 1:
            raise _CliUsage(f"not a positive multiplicity: {mult_text!r}")
        pairs.append((point, int(mult_text)))
    if not pairs:
        raise _CliUsage("no points given")
    try:
        return finite_subscheme(pairs)
    except ValueError as exc:
        raise _CliUsage(str(exc)) from exc


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_jacobian(args) -> int:
    config = _load_config(args.file)
    _emit(jacobian_structure(config).to_json_dict())
    return 0


def _cmd_aj(args) -> int:
    from .abel_jacobi import aj_eval

    config = _load_config(args.file)
    component, point = _parse_component_point(args.point)
    presentation = jacobian_structure(config)
    element = aj_eval(config, presentation, component, point)
    _emit(element.to_json_dict())
    return 0


def _cmd_probe(args) -> int:
    from .abel_jacobi import aj_injectivity_probe

    if args.samples < 1:
        raise _CliUsage(f"--samples must be at least 1, got {args.samples}")
    config = _load_config(args.file)
    presentation = jacobian_structure(config)
    sample = [
        (component.id, point)
        for component in config.components
        for point in smooth_sample(config, component.id, args.samples)
    ]
    report = aj_injectivity_probe(config, presentation, sample)
    _emit(
        {
            "samples_per_component": args.samples,
            "sample_size": len(report.sample),
            "collisions": [
                [[a, str(p)], [b, str(q)]] for (a, p), (b, q) in report.collisions
            ],
        }
    )
    return 0


def _cmd_modifiable(args) -> int:
    from .modification import indeterminate_sites, modifiable_sites

    config = _load_config(args.file)
    sites = modifiable_sites(config)
    undecided = indeterminate_sites(config)
    _emit(
        {
            "sites": [{"singularity": s.singularity, "branch": s.branch} for s in sites],
            "indeterminate": [
                {"singularity": s.singularity, "branch": s.branch} for s in undecided
            ],
            "modifiable": bool(sites),
        }
    )
    return 0


def _cmd_modify(args) -> int:
    from .modification import ModificationSite, modify

    config = _load_config_at_branch(args)
    site = ModificationSite(args.sing, args.branch)
    modified = modify(config, site)
    text = print_curve_dsl(modified)
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _CliUsage(f"cannot write {args.output}: {exc}") from exc
    _emit({"output": args.output, "config": _config_json(modified)})
    return 0


def _cmd_contract(args) -> int:
    from .contraction import contract_with_generators

    z = _parse_subscheme(args.points)
    result = contract_with_generators(z)
    _emit(
        {
            "ideal_generator": str(result.ideal_generator),
            "generators": [str(g) for g in result.generators.generators],
            "degree_bound": result.generators.degree_bound,
            "hilbert_checked_to": result.generators.hilbert_checked_to,
            "coordinate_change": result.coordinate_change,
            "config": _config_json(result.config),
            "dsl": print_curve_dsl(result.config),
        }
    )
    return 0


def _cmd_witness(args) -> int:
    from .obstruction import NotFound, obstruction_witness

    config = _load_config_at_branch(args)
    outcome = obstruction_witness(config, args.sing, args.branch)
    if isinstance(outcome, NotFound):
        _emit(
            {
                "found": False,
                "singularity": outcome.singularity,
                "branch": outcome.branch,
                "liftable": {
                    "mu": rational_str(outcome.liftable.mu),
                    "class_scalars": [
                        rational_str(v) for v in outcome.liftable.class_scalars
                    ],
                },
            }
        )
        return 1
    failure = {
        "reason": outcome.failure.reason,
        "branch": outcome.failure.branch,
    }
    if outcome.failure.other_branch is not None:
        failure["other_branch"] = outcome.failure.other_branch
    if outcome.failure.values is not None:
        failure["values"] = [rational_str(v) for v in outcome.failure.values]
    _emit(
        {
            "found": True,
            "singularity": outcome.singularity,
            "branch": outcome.branch,
            "case": outcome.case,
            "scalar": None if outcome.scalar is None else rational_str(outcome.scalar),
            "germ": [[rational_str(c) for c in jet.coeffs] for jet in outcome.germ],
            "not_liftable": failure,
        }
    )
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(seed=args.seed)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        sys.stderr.write(f"criterion {result.criterion} {status}: {result.name}\n")
    _emit(
        {
            "seed": args.seed,
            "criteria": [dataclasses.asdict(r) for r in results],
            "all_passed": all(r.passed for r in results),
        }
    )
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchjac",
        description="Exact Jacobians, Abel-Jacobi maps, contractions, and "
        "unit-lifting obstructions for pinched rational curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jacobian", help="print the Jacobian presentation of a curve file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_jacobian)

    p = sub.add_parser("aj", help="evaluate the Abel-Jacobi map at a smooth point")
    p.add_argument("file")
    p.add_argument("--point", required=True, metavar="COMP:PT")
    p.set_defaults(func=_cmd_aj)

    p = sub.add_parser("probe", help="search a deterministic sample for class collisions")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=25, metavar="N")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("modifiable", help="list modification sites")
    p.add_argument("file")
    p.set_defaults(func=_cmd_modifiable)

    p = sub.add_parser("modify", help="pull a component away along a site")
    p.add_argument("file")
    p.add_argument("--sing", required=True)
    p.add_argument("--branch", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_modify)

    p = sub.add_parser("contract", help="contract a finite subscheme of the line")
    p.add_argument("--points", required=True, metavar="PT:MULT,...")
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("witness", help="construct a non-liftable unit germ")
    p.add_argument("file")
    p.add_argument("--sing", required=True)
    p.add_argument("--branch", type=int, required=True)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="run the full acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DslParseError as exc:
        for diagnostic in exc.diagnostics:
            sys.stderr.write(f"{diagnostic}\n")
        return 2
    except InvalidConfig as exc:
        for violation in exc.violations:
            sys.stderr.write(f"{violation.kind}: {violation.message}\n")
        return 2
    except (_CliUsage, *_USAGE_ERRORS) as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except PinchjacError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
