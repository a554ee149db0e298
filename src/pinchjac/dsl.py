"""Line-oriented curve description language.

Grammar ('#' starts a comment, blank lines are ignored):

    curve <name>
    component <id> [genus <nonneg-int>]
    sing <id> pinch (<comp> at <point> [mult <pos-int>])+
    sing <id> node (<comp> at <point>) (<comp> at <point>)
    sing <id> cusp (<comp> at <point>)
    base <comp> at <point>

where <point> is a rational literal a, a/b, or inf. ``node`` abbreviates two
reduced branches and ``cusp`` one branch of multiplicity 2. Structural errors
are reported with line and column; semantic checks (duplicate points,
basepoints on branches, and so on) are left to curve_model.validate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import INFINITY, P1Point
from .curve_model import Branch, Component, CurveConfig, Singularity

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    token: str
    message: str

    def __str__(self) -> str:
        where = f"line {self.line}:{self.column}"
        if self.token:
            return f"{where}: {self.message} (near {self.token!r})"
        return f"{where}: {self.message}"


class DslParseError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass(frozen=True)
class CurveDoc:
    """A parsed curve description."""

    config: CurveConfig


def parse_point(text: str) -> P1Point | None:
    """Parse a point literal; None when the text is not a valid point."""
    if text == "inf":
        return INFINITY
    if not _RATIONAL_RE.match(text):
        return None
    if "/" in text:
        numerator, denominator = text.split("/")
        if int(denominator) == 0:
            return None
        return P1Point.finite(Fraction(int(numerator), int(denominator)))
    return P1Point.finite(int(text))


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


class _LineParser:
    """Cursor over the tokens of one line with diagnostic helpers."""

    def __init__(self, tokens: list[_Token], line: int, diagnostics: list[Diagnostic]):
        self.tokens = tokens
        self.line = line
        self.pos = 0
        self.diagnostics = diagnostics

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> _Token | None:
        return None if self.exhausted else self.tokens[self.pos]

    def take(self) -> _Token | None:
        token = self.peek()
        if token is not None:
            self.pos += 1
        return token

    def fail(self, message: str, token: _Token | None = None) -> None:
        if token is None:
            token = self.peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else None
            column = (last.column + len(last.text)) if last else 1
            self.diagnostics.append(Diagnostic(self.line, column, "", message))
        else:
            self.diagnostics.append(
                Diagnostic(self.line, token.column, token.text, message)
            )

    def expect_name(self, what: str) -> str | None:
        token = self.take()
        if token is None or not _NAME_RE.match(token.text):
            self.fail(f"expected {what}", token)
            return None
        return token.text

    def expect_keyword(self, keyword: str) -> bool:
        token = self.take()
        if token is None or token.text != keyword:
            self.fail(f"expected {keyword!r}", token)
            return False
        return True

    def expect_point(self) -> P1Point | None:
        token = self.take()
        point = parse_point(token.text) if token is not None else None
        if point is None:
            self.fail("expected a point (rational literal or inf)", token)
            return None
        return point

    def expect_int(self, what: str, minimum: int) -> int | None:
        token = self.take()
        if token is None or not token.text.isdecimal() or int(token.text) < minimum:
            self.fail(f"expected {what}", token)
            return None
        return int(token.text)

    def expect_end(self) -> None:
        if not self.exhausted:
            self.fail("unexpected trailing tokens")


def _tokenize(line_text: str, line_number: int) -> list[_Token]:
    comment = line_text.find("#")
    if comment >= 0:
        line_text = line_text[:comment]
    return [
        _Token(m.group(0), line_number, m.start() + 1)
        for m in _TOKEN_RE.finditer(line_text)
    ]


def _parse_branch_group(parser: _LineParser, allow_mult: bool) -> Branch | None:
    opener = parser.take()
    if opener is None or opener.text != "(":
        parser.fail("expected '('", opener)
        return None
    component = parser.expect_name("a component id")
    if component is None:
        return None
    if not parser.expect_keyword("at"):
        return None
    point = parser.expect_point()
    if point is None:
        return None
    multiplicity = 1
    token = parser.peek()
    if token is not None and token.text == "mult":
        if not allow_mult:
            parser.fail("mult is not allowed in this form")
            return None
        parser.take()
        multiplicity = parser.expect_int("a positive multiplicity", 1)
        if multiplicity is None:
            return None
    closer = parser.take()
    if closer is None or closer.text != ")":
        parser.fail("expected ')'", closer)
        return None
    return Branch(component, point, multiplicity)


def parse_curve_dsl(text: str) -> CurveDoc:
    """Parse a curve description; raises DslParseError with all diagnostics."""
    diagnostics: list[Diagnostic] = []
    name: str | None = None
    components: list[Component] = []
    singularities: list[Singularity] = []
    basepoints: list[tuple[str, P1Point]] = []
    seen_base: set[str] = set()

    for line_number, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_number)
        if not tokens:
            continue
        parser = _LineParser(tokens, line_number, diagnostics)
        head = parser.take()

        if head.text == "curve":
            if name is not None:
                parser.fail("a curve was already named", head)
                continue
            parsed = parser.expect_name("a curve name")
            if parsed is None:
                continue
            name = parsed
            parser.expect_end()

        elif head.text == "component":
            component_id = parser.expect_name("a component id")
            if component_id is None:
                continue
            genus = 0
            if not parser.exhausted:
                if not parser.expect_keyword("genus"):
                    continue
                genus = parser.expect_int("a nonnegative genus", 0)
                if genus is None:
                    continue
            parser.expect_end()
            components.append(Component(component_id, genus))

        elif head.text == "sing":
            sing_id = parser.expect_name("a singularity id")
            if sing_id is None:
                continue
            kind = parser.take()
            if kind is None or kind.text not in ("pinch", "node", "cusp"):
                parser.fail("expected one of pinch, node, cusp", kind)
                continue
            branches: list[Branch] = []
            ok = True
            while not parser.exhausted and ok:
                branch = _parse_branch_group(parser, allow_mult=kind.text == "pinch")
                if branch is None:
                    ok = False
                    break
                branches.append(branch)
            if not ok:
                continue
            if kind.text == "node":
                if len(branches) != 2:
                    parser.fail("node requires exactly two branches", kind)
                    continue
            elif kind.text == "cusp":
                if len(branches) != 1:
                    parser.fail("cusp requires exactly one branch", kind)
                    continue
                b = branches[0]
                branches = [Branch(b.component, b.point, 2)]
            elif not branches:
                parser.fail("pinch requires at least one branch", kind)
                continue
            singularities.append(Singularity(sing_id, tuple(branches)))

        elif head.text == "base":
            component_id = parser.expect_name("a component id")
            if component_id is None:
                continue
            if not parser.expect_keyword("at"):
                continue
            point = parser.expect_point()
            if point is None:
                continue
            parser.expect_end()
            if component_id in seen_base:
                parser.fail(f"duplicate basepoint for component {component_id!r}", head)
                continue
            seen_base.add(component_id)
            basepoints.append((component_id, point))

        else:
            parser.fail("unknown directive", head)

    if name is None:
        diagnostics.append(Diagnostic(1, 1, "", "missing 'curve <name>' line"))

    if diagnostics:
        raise DslParseError(diagnostics)

    config = CurveConfig(
        name=name,
        components=tuple(components),
        singularities=tuple(singularities),
        basepoints=tuple(basepoints),
    )
    return CurveDoc(config)


def print_curve_dsl(config: CurveConfig) -> str:
    """Canonical source text for a configuration; parses back to equal data."""
    lines = [f"curve {config.name}"]
    for c in config.components:
        lines.append(f"component {c.id} genus {c.genus}")
    for s in config.singularities:
        groups = []
        for b in s.branches:
            inner = f"{b.component} at {b.point}"
            if b.multiplicity != 1:
                inner += f" mult {b.multiplicity}"
            groups.append(f"({inner})")
        mults = [b.multiplicity for b in s.branches]
        if mults == [1, 1]:
            lines.append(f"sing {s.id} node {' '.join(groups)}")
        elif mults == [2]:
            plain = f"({s.branches[0].component} at {s.branches[0].point})"
            lines.append(f"sing {s.id} cusp {plain}")
        else:
            lines.append(f"sing {s.id} pinch {' '.join(groups)}")
    for component_id, point in config.basepoints:
        lines.append(f"base {component_id} at {point}")
    return "\n".join(lines) + "\n"
