"""The four workloads: seeded inputs, the timed call, and the output checks.

Every workload is a closed loop with one client. Its operations come in
cycles; a cycle is the unit after which the mix of operations repeats, and a
run always ends on a cycle boundary, so every run measures the same mix.

Nothing here imports pinchjac at module level: `setup` imports it, because
set-up time starts just before that import. Library calls go through module
attributes (`lib.abel_jacobi.aj_eval`), so the traced run's wrappers see them.

Checks run outside the timed region. Where possible an operation is checked
against the outputs of earlier operations in the same group (additivity,
homomorphism), which costs no extra library work inside the loop.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import gen

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    curve: int = 0  # which curve (or session slot) the operation uses
    args: tuple = ()
    key: tuple = ()  # name under which a later relation finds this output
    relation: tuple | None = None  # (plus keys, minus keys): out == sum(plus) - sum(minus)


def load_library() -> SimpleNamespace:
    import pinchjac  # noqa: F401  (the package import is what users pay first)
    from pinchjac import (abel_jacobi, algebra, contraction, curve_model, dsl, jacobian,
                          modification, obstruction)
    return SimpleNamespace(abel_jacobi=abel_jacobi, algebra=algebra, contraction=contraction,
                           curve_model=curve_model, dsl=dsl, jacobian=jacobian,
                           modification=modification, obstruction=obstruction)


class CheckFailed(Exception):
    """An operation's output failed its check."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def element_text(e) -> str:
    return ("T" + ",".join(str(c) for c in e.torus_coords)
            + "|U" + ",".join(str(c) for c in e.unipotent_coords))


def element_bits(e) -> int:
    coords = e.torus_coords + e.unipotent_coords
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coords),
               default=0)


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    recorder = None  # the span recorder, set by the traced run

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, k: int) -> list[Op]:
        raise NotImplementedError

    def prepare(self, op: Op):
        """A zero-argument callable performing the operation (the timed part)."""
        raise NotImplementedError

    def check(self, op: Op, out) -> None:
        """Raise CheckFailed (or any error) when the output is wrong."""
        raise NotImplementedError

    def canonical(self, op: Op, out) -> str:
        raise NotImplementedError

    def corrupt(self, op: Op, out):
        raise NotImplementedError

    def coeff_bits(self, op: Op, out) -> int:
        return 0

    def child_calibration(self) -> tuple[float, float, float] | None:
        """For an operation that ran in a child process and timed the kernel
        there: (seconds the child spent calibrating, kernel time before the
        work, kernel time after it). These replace the kernel times taken in
        this process, which track a child's speed poorly."""
        return None

    def adopt_spans(self, recorder, parent: int) -> None:
        pass


class _ClassGroups(Workload):
    """Shared checks for `wide` and `thick`: relations between classes."""

    def setup(self) -> None:
        self.lib = load_library()
        self.curves = []
        for text in self.texts:
            config = self.lib.dsl.parse_curve_dsl(text).config
            self.curves.append((config, self.lib.jacobian.jacobian_structure(config)))
        self.done: dict[tuple, object] = {}

    def prepare(self, op: Op):
        config, presentation = self.curves[op.curve]
        lib = self.lib
        if op.kind == "aj":
            component, value = op.args
            return lambda: lib.abel_jacobi.aj_eval(config, presentation, component, value)
        if op.kind == "div":
            divisor = lib.abel_jacobi.SmoothDivisor.of(op.args)
            return lambda: lib.abel_jacobi.divisor_class(config, presentation, divisor)
        vector, = op.args
        return lambda: lib.jacobian.class_reduce(config, presentation, vector)

    def check(self, op: Op, out) -> None:
        """Shape checks, then `out == sum(plus) - sum(minus)` over earlier outputs."""
        jac = self.lib.jacobian
        _, presentation = self.curves[op.curve]
        expect(out.config_fingerprint == presentation.config_fingerprint, "wrong config")
        expect(len(out.torus_coords) == presentation.torus_rank, "torus length")
        expect(len(out.unipotent_coords) == presentation.unipotent_rank, "unipotent length")
        if op.relation is None:
            self.done[op.key] = out  # kept until the group's relation consumes it
            return
        plus, minus = op.relation
        total = jac.jac_zero(presentation)
        for k in plus:
            total = jac.jac_add(total, self.done.pop(k))
        for k in minus:
            total = jac.jac_add(total, jac.jac_neg(self.done.pop(k)))
        expect(jac.jac_eq(out, total), f"{op.kind} is not additive")

    def canonical(self, op: Op, out) -> str:
        return f"{op.kind}:{op.curve}:{element_text(out)}"

    def corrupt(self, op: Op, out):
        torus = out.torus_coords
        if torus:
            return replace(out, torus_coords=(torus[0] * 2,) + torus[1:])
        unipotent = out.unipotent_coords
        return replace(out, unipotent_coords=(unipotent[0] + 1,) + unipotent[1:])

    def coeff_bits(self, op: Op, out) -> int:
        return element_bits(out)


class Wide(_ClassGroups):
    """Large nodal genus-0 curves (300/600/1,000 reduced branches), reused by every call.

    Per curve and cycle: three `aj_eval` calls at seeded smooth points p, q, r
    and one `divisor_class` of p - q + r - base(r), on one component or two.
    The divisor's class must equal aj(p) - aj(q) + aj(r).
    """

    name = "wide"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.texts = [gen.nodal_curve_text(gen.rng_for("wide", seed, "curve", i), f"wide{i}", c, b)
                      for i, (c, b) in enumerate(gen.WIDE_LADDER)]

    def cycle(self, k: int) -> list[Op]:
        ops = []
        for i, (components, _) in enumerate(gen.WIDE_LADDER):
            rng = gen.rng_for("wide", self.seed, "ops", k, i)
            c1 = f"C{rng.randrange(components)}"
            c2 = c1 if rng.random() < 0.5 else f"C{rng.randrange(components)}"
            p, q, r = (gen.smooth_value(rng) for _ in range(3))
            config, _ = self.curves[i]
            divisor = ((c1, p, 1), (c1, q, -1), (c2, r, 1), (c2, config.basepoint(c2), -1))
            ops += [Op("aj", i, (c1, p), key=(k, i, "p")), Op("aj", i, (c1, q), key=(k, i, "q")),
                    Op("aj", i, (c2, r), key=(k, i, "r")),
                    Op("div", i, divisor, relation=(((k, i, "p"), (k, i, "r")), ((k, i, "q"),)))]
        return ops


class Thick(_ClassGroups):
    """Small curves with one thick branch each, multiplicity 4 to 24.

    Per curve and cycle: `aj_eval` at p and at q, `divisor_class` of
    p - base(p) - q + base(q) (two points when both lie on one line, four
    otherwise), then `class_reduce` of seeded unit-jet vectors v, w and v*w.
    Checks: div = aj(p) - aj(q) and reduce(v*w) = reduce(v) + reduce(w).
    """

    name = "thick"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        built = [gen.thick_curve_text(gen.rng_for("thick", seed, "curve", rung), rung, m)
                 for rung, m in enumerate(gen.THICK_LADDER)]
        self.texts = [text for text, _ in built]
        self.lines = [comps for _, comps in built]

    def cycle(self, k: int) -> list[Op]:
        jac, algebra = self.lib.jacobian, self.lib.algebra
        ops = []
        for i, comps in enumerate(self.lines):
            config, _ = self.curves[i]
            rng = gen.rng_for("thick", self.seed, "ops", k, i)
            cp, cq = "L1", comps[-1]  # the same mix in every cycle
            p, q = gen.thick_points(rng)
            if cp == cq:
                divisor = ((cp, p, 1), (cq, q, -1))
            else:
                divisor = ((cp, p, 1), (cp, config.basepoint(cp), -1),
                           (cq, q, -1), (cq, config.basepoint(cq), 1))
            vectors = []
            for _ in range(2):
                jets = {(s.id, j): algebra.Jet.make(b.multiplicity,
                                                    gen.random_jet_coeffs(rng, b.multiplicity))
                        for s in config.singularities for j, b in enumerate(s.branches)}
                vectors.append(jac.unit_jet_vector(config, jets))
            vectors.append(vectors[0] * vectors[1])
            ops += [Op("aj", i, (cp, p), key=(k, i, "p")), Op("aj", i, (cq, q), key=(k, i, "q")),
                    Op("div", i, divisor, relation=(((k, i, "p"),), ((k, i, "q"),))),
                    Op("reduce", i, (vectors[0],), key=(k, i, "v")),
                    Op("reduce", i, (vectors[1],), key=(k, i, "w")),
                    Op("reduce", i, (vectors[2],), relation=(((k, i, "v"), (k, i, "w")), ()))]
        return ops


class Edit(Workload):
    """A fresh config per operation, 10 to 80 components and 0 to 400 branches.

    One operation: parse the DSL text; `jacobian_structure` and `dual_graph`;
    `modifiable_sites` and `indeterminate_sites`; `modify` at the first site
    with `jacobian_structure` and `print_curve_dsl` of the result; and
    `obstruction_witness` at the first branch that is not a site. A cycle
    walks the size ladder once.
    """

    name = "edit"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.lib = load_library()
        from pinchjac import verify
        self.oracle_ranks = verify._oracle_graph_ranks

    def cycle(self, k: int) -> list[Op]:
        ops = []
        for j, (components, branches) in enumerate(gen.EDIT_LADDER):
            rng = gen.rng_for("edit", self.seed, "op", k, j)
            text, unipotent, abelian = gen.edit_config(rng, f"edit{j}", components, branches)
            ops.append(Op("edit", j, (text, unipotent, abelian)))
        return ops

    def prepare(self, op: Op):
        lib, text = self.lib, op.args[0]

        def run():
            out = SimpleNamespace(modified=None, witness=None, witness_at=None)
            config = out.config = lib.dsl.parse_curve_dsl(text).config
            out.presentation = lib.jacobian.jacobian_structure(config)
            out.graph = lib.curve_model.dual_graph(config)
            out.sites = lib.modification.modifiable_sites(config)
            out.indeterminate = lib.modification.indeterminate_sites(config)
            if out.sites:
                out.modified = lib.modification.modify(config, out.sites[0])
                out.modified_presentation = lib.jacobian.jacobian_structure(out.modified)
                out.printed = lib.dsl.print_curve_dsl(out.modified)
            sites = {(s.singularity, s.branch) for s in out.sites}
            out.witness_at = next(((s.id, i) for s in config.singularities
                                   for i in range(len(s.branches)) if (s.id, i) not in sites),
                                  None)
            if out.witness_at is not None:
                out.witness = lib.obstruction.obstruction_witness(config, *out.witness_at)
            return out

        return run

    @staticmethod
    def _ranks(presentation) -> tuple:
        return (presentation.torus_rank, presentation.unipotent_rank, presentation.abelian_rank)

    def check(self, op: Op, out) -> None:
        _, unipotent, abelian = op.args
        betti, cc = self.oracle_ranks(out.config)
        expect(self._ranks(out.presentation) == (betti, unipotent, abelian), "ranks vs oracle")
        expect((out.graph.betti1, out.graph.connected_components) == (betti, cc), "dual graph")
        for site in out.sites + out.indeterminate:
            cut = self._without_branch(out.config, site)
            expect(self.oracle_ranks(cut)[1] == cc + 1, f"{site} does not disconnect")
        if out.modified is not None:
            expect(self._ranks(out.modified_presentation) == self._ranks(out.presentation),
                   "modify changed a rank")
            expect(self.oracle_ranks(out.modified)[1] == cc + 1, "modify must add one component")
            expect(self.lib.dsl.parse_curve_dsl(out.printed).config == out.modified, "round trip")
        if out.witness is not None and isinstance(out.witness, self.lib.obstruction.Witness):
            ob = self.lib.obstruction
            problem = ob.liftability_problem(out.config, out.witness.singularity,
                                             dict(enumerate(out.witness.germ)))
            expect(isinstance(ob.liftability_test(problem), ob.NotLiftable), "witness lifts")

    def _without_branch(self, config, site):
        """The config with one branch edge cut but the singularity kept (oracle input)."""
        cm = self.lib.curve_model
        sings = []
        for s in config.singularities:
            if s.id == site.singularity:
                kept = tuple(b for i, b in enumerate(s.branches) if i != site.branch)
                sings.append(cm.Singularity(s.id, kept))
            else:
                sings.append(s)
        return cm.CurveConfig(config.name, config.components, tuple(sings), config.basepoints)

    def canonical(self, op: Op, out) -> str:
        parts = [self._ranks(out.presentation), (out.graph.betti1, out.graph.connected_components),
                 [(s.singularity, s.branch) for s in out.sites],
                 [(s.singularity, s.branch) for s in out.indeterminate]]
        if out.modified is not None:
            parts += [self._ranks(out.modified_presentation), out.printed]
        w = out.witness
        if isinstance(w, self.lib.obstruction.Witness):
            parts.append((w.singularity, w.branch, w.case, str(w.scalar),
                          [[str(c) for c in jet.coeffs] for jet in w.germ],
                          w.failure.reason, w.failure.branch, w.failure.other_branch))
        elif w is not None:
            parts.append(("not-found", w.singularity, w.branch,
                          [str(c) for c in w.liftable.class_scalars]))
        return json.dumps(parts, separators=(",", ":"))

    def corrupt(self, op: Op, out):
        p = out.presentation
        out.presentation = replace(p, torus_rank=p.torus_rank + 1)
        return out


class Cli(Workload):
    """A terminal session: one CLI process per command, one at a time.

    Each command runs through cli_calib.py, which does what
    `python -m pinchjac.cli` does and times the calibration kernel inside
    the command's process (see calib.py). The session (the cycle) is fixed by the seed and repeated. Curve files are
    generated into the run directory before set-up; the fixtures shipped with
    the package are used as they are.
    """

    name = "cli"
    FIXTURES = Path("src/pinchjac/fixtures")

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.dir = out_dir / f"cli-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._pending_spans = None
        self.calib_file = self.dir / "calib.json"
        rng = gen.rng_for("cli", seed, "session")
        mid = self.dir / "mid.curve"
        mid.write_text(gen.nodal_curve_text(rng, "mid", 8, 60), encoding="utf-8")
        text, site, non_site = gen.modifiable_curve_text(rng)
        editable = self.dir / "editable.curve"
        editable.write_text(text, encoding="utf-8")
        lut, nodal = self.FIXTURES / "lut.curve", self.FIXTURES / "nodal.curve"
        self.files = [lut, nodal, mid, editable]
        points = [gen.smooth_value(rng) for _ in range(4)]  # str() gives DSL literals
        # Mostly short commands, as at a terminal: 13 of the 19, so the median
        # command is a short one, not one on the edge between short and long.
        self.session = [("jacobian", str(path)) for path in self.files]
        self.session += [
            ("aj", str(nodal), "--point", f"L:{points[0]}"),
            ("aj", str(nodal), "--point", f"L:{points[1]}"),
            ("aj", str(mid), "--point", f"C{rng.randrange(8)}:{points[2]}"),
            ("aj", str(mid), "--point", f"C{rng.randrange(8)}:{points[3]}"),
            ("probe", str(mid), "--samples", "3"),
            ("modifiable", str(mid)),
            ("modifiable", str(editable)),
            ("modify", str(editable), "--sing", site[0], "--branch", str(site[1]),
             "-o", str(self.dir / "modified.curve")),
            ("witness", str(editable), "--sing", non_site[0], "--branch", str(non_site[1])),
        ]
        # `--points=` keeps argparse from reading a leading "-3:1" as an option
        self.session += [("contract", f"--points={gen.contract_points(rng, e)}")
                         for e in gen.CONTRACT_LADDER]
        self.session.append(("verify", "--seed", str(seed)))
        self.env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))

    def setup(self) -> None:
        self.lib = load_library()
        self.curves = {}
        for path in self.files:
            config = self.lib.dsl.parse_curve_dsl(path.read_text(encoding="utf-8")).config
            self.curves[str(path)] = (config, self.lib.jacobian.jacobian_structure(config))
        self.expected: dict[tuple, object] = {}
        self.first_outputs: dict[int, str] = {}

    def cycle(self, k: int) -> list[Op]:
        return [Op(argv[0], i, argv) for i, argv in enumerate(self.session)]

    def prepare(self, op: Op):
        argv = list(op.args)
        if self.recorder is None:
            command = [sys.executable, str(HERE / "cli_calib.py"), str(self.calib_file), *argv]
        else:
            self._pending_spans = self.dir / f"spans-{op.curve}.bin"
            command = [sys.executable, str(HERE / "cli_boot.py"), str(self._pending_spans), "0",
                       *argv]

        def run():
            if self.recorder is not None:
                command[3] = str(time.perf_counter_ns())
            done = subprocess.run(command, env=self.env, capture_output=True, text=True,
                                  timeout=60)
            return done.returncode, done.stdout

        return run

    def child_calibration(self):
        if self.recorder is not None or not self.calib_file.exists():
            return None  # traced commands run cli_boot.py, which times no kernel
        found = json.loads(self.calib_file.read_text(encoding="utf-8"))
        self.calib_file.unlink()
        return found["spent"], found["before"], found["after"]

    def adopt_spans(self, recorder, parent: int) -> None:
        if self._pending_spans is not None and self._pending_spans.exists():
            recorder.adopt(self._pending_spans, parent)
            self._pending_spans.unlink()

    def _expect(self, argv: tuple):
        """In-process result of the same command, computed once per run."""
        if argv in self.expected:
            return self.expected[argv]
        lib = self.lib
        kind = argv[0]
        if kind == "contract":
            pairs = [(Fraction(p), int(m)) for p, m in
                     (chunk.split(":") for chunk in argv[1].partition("=")[2].split(","))]
            result = lib.contraction.contract_with_generators(lib.contraction.finite_subscheme(pairs))
            value = {"ideal_generator": str(result.ideal_generator),
                     "generators": [str(g) for g in result.generators.generators],
                     "degree_bound": result.generators.degree_bound,
                     "hilbert_checked_to": result.generators.hilbert_checked_to,
                     "coordinate_change": result.coordinate_change,
                     "dsl": lib.dsl.print_curve_dsl(result.config)}
        elif kind == "verify":
            value = None
        else:
            config, presentation = self.curves[argv[1]]
            if kind == "jacobian":
                value = presentation.to_json_dict()
            elif kind == "aj":
                component, _, literal = argv[3].partition(":")
                value = lib.abel_jacobi.aj_eval(config, presentation, component,
                                                Fraction(literal)).to_json_dict()
            elif kind == "probe":
                value = int(argv[3]) * len(config.components)
            elif kind == "modifiable":
                value = ([[s.singularity, s.branch] for s in lib.modification.modifiable_sites(config)],
                         [[s.singularity, s.branch]
                          for s in lib.modification.indeterminate_sites(config)])
            elif kind == "modify":
                site = lib.modification.ModificationSite(argv[3], int(argv[5]))
                value = lib.modification.modify(config, site)
            elif kind == "witness":
                value = lib.obstruction.obstruction_witness(config, argv[3], int(argv[5]))
        self.expected[argv] = value
        return value

    def check(self, op: Op, out) -> None:
        rc, stdout = out
        payload = json.loads(stdout)
        kind, argv = op.kind, op.args
        expected = self._expect(argv)
        expect(rc == 0, f"{kind} exited {rc}")
        if kind in ("jacobian", "aj"):
            expect(payload == json.loads(json.dumps(expected)), f"{kind} differs from library")
        elif kind == "contract":
            expect({k: payload[k] for k in expected} == expected, "contract differs from library")
        elif kind == "probe":
            expect(payload["sample_size"] == expected, "probe sample size")
            expect(isinstance(payload["collisions"], list), "probe collisions")
        elif kind == "modifiable":
            listed = [[[e["singularity"], e["branch"]] for e in payload[k]]
                      for k in ("sites", "indeterminate")]
            expect(tuple(listed) == expected, "sites differ from library")
        elif kind == "modify":
            written = Path(argv[-1]).read_text(encoding="utf-8")
            expect(self.lib.dsl.parse_curve_dsl(written).config == expected, "modify output")
            expect(payload["config"]["name"] == expected.name, "modify name")
        elif kind == "witness":
            expect(payload["found"] and payload["case"] == expected.case, "witness case")
            expect(payload["germ"] == [[str(c) for c in jet.coeffs] for jet in expected.germ],
                   "witness germ")
        elif kind == "verify":
            expect(payload["all_passed"] is True, "verify reported a failed criterion")
            expect(len(payload["criteria"]) == 8, "verify criteria count")
        text = self.canonical(op, out)
        first = self.first_outputs.setdefault(op.curve, text)
        expect(text == first, f"{kind} output changed between sessions")

    def canonical(self, op: Op, out) -> str:
        rc, stdout = out
        payload = json.loads(stdout)
        if op.kind in ("jacobian", "aj"):
            payload.pop("config", None)
        elif op.kind == "modify":
            payload.pop("output", None)
        elif op.kind == "verify":
            payload = [[c["criterion"], c["passed"]] for c in payload["criteria"]]
        return f"{op.kind}:{rc}:" + json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def corrupt(self, op: Op, out):
        rc, stdout = out
        digit = next(i for i, ch in enumerate(stdout) if ch.isdigit())
        swapped = "1" if stdout[digit] != "1" else "2"
        return rc, stdout[:digit] + swapped + stdout[digit + 1:]

    def coeff_bits(self, op: Op, out) -> int:
        if op.kind != "aj":
            return 0
        coords = json.loads(out[1])
        values = [Fraction(c) for c in coords["torus_coords"] + coords["unipotent_coords"]]
        return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
                   default=0)


WORKLOADS = {w.name: w for w in (Wide, Thick, Edit, Cli)}
