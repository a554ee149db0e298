"""Line-oriented curve description language.

Grammar ('#' starts a comment, blank lines are ignored):

    curve <name>
    component <id> [genus <nonneg-int>]
    sing <id> pinch (<comp> at <point> [mult <pos-int>])+
    sing <id> node (<comp> at <point>) (<comp> at <point>)
    sing <id> cusp (<comp> at <point>)
    base <comp> at <point>

where <point> is a rational literal a, a/b, or inf. ``node`` abbreviates two
reduced branches and ``cusp`` one branch of multiplicity 2.

Structural errors are reported with line and column. The first one on a line
ends that line: each ``expect_*`` step returns a value or records a
diagnostic and raises ``_LineError``, which ``parse_curve_dsl`` catches once
per line. Trailing tokens after a complete ``curve``, ``component`` or
``base`` line are reported without ending it. Every line is read, so one
parse reports each bad line. Semantic checks (duplicate points, basepoints
on branches, and so on) are left to curve_model.validate.
"""

from __future__ import annotations

import re
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn

from .algebra import INFINITY, P1Point
from .curve_model import ID_PATTERN, Branch, Component, CurveConfig, Singularity

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
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
    column: int


class _LineError(Exception):
    """Ends the current line; its diagnostic is already recorded."""


class _LineParser:
    """Cursor over the tokens of one line; each expect_* returns a value or fails."""

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

    def note(self, message: str, token: _Token | None = None) -> None:
        """Record a diagnostic at the token, or just past the end of the line."""
        token = token or self.peek()
        if token is None:
            last = self.tokens[-1]
            token = _Token("", last.column + len(last.text))
        self.diagnostics.append(Diagnostic(self.line, token.column, token.text, message))

    def fail(self, message: str, token: _Token | None = None) -> NoReturn:
        """Record a diagnostic and end the line."""
        self.note(message, token)
        raise _LineError

    def expect_name(self, what: str) -> str:
        token = self.take()
        if token is None or not ID_PATTERN.fullmatch(token.text):
            self.fail(f"expected {what}", token)
        return token.text

    def expect_keyword(self, keyword: str) -> str:
        token = self.take()
        if token is None or token.text != keyword:
            self.fail(f"expected {keyword!r}", token)
        return keyword

    def expect_point(self) -> P1Point:
        token = self.take()
        point = parse_point(token.text) if token is not None else None
        if point is None:
            self.fail("expected a point (rational literal or inf)", token)
        return point

    def expect_int(self, what: str, minimum: int) -> int:
        token = self.take()
        if token is None or not token.text.isdecimal() or int(token.text) < minimum:
            self.fail(f"expected {what}", token)
        return int(token.text)

    def expect_end(self) -> None:
        if not self.exhausted:
            self.note("unexpected trailing tokens")


def _tokenize(line_text: str) -> list[_Token]:
    comment = line_text.find("#")
    if comment >= 0:
        line_text = line_text[:comment]
    return [_Token(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line_text)]


def _parse_branch_group(parser: _LineParser, kind: str) -> Branch:
    """One "(<comp> at <point> [mult <pos-int>])"; a cusp branch has multiplicity 2."""
    parser.expect_keyword("(")
    component = parser.expect_name("a component id")
    parser.expect_keyword("at")
    point = parser.expect_point()
    multiplicity = 2 if kind == "cusp" else 1
    token = parser.peek()
    if token is not None and token.text == "mult":
        if kind != "pinch":
            parser.fail("mult is not allowed in this form")
        parser.take()
        multiplicity = parser.expect_int("a positive multiplicity", 1)
    parser.expect_keyword(")")
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
        tokens = _tokenize(raw)
        if not tokens:
            continue
        parser = _LineParser(tokens, line_number, diagnostics)
        head = parser.take()
        with suppress(_LineError):
            if head.text == "curve":
                if name is not None:
                    parser.fail("a curve was already named", head)
                name = parser.expect_name("a curve name")
                parser.expect_end()

            elif head.text == "component":
                component_id = parser.expect_name("a component id")
                genus = 0
                if not parser.exhausted:
                    parser.expect_keyword("genus")
                    genus = parser.expect_int("a nonnegative genus", 0)
                parser.expect_end()
                components.append(Component(component_id, genus))

            elif head.text == "sing":
                sing_id = parser.expect_name("a singularity id")
                kind = parser.take()
                if kind is None or kind.text not in ("pinch", "node", "cusp"):
                    parser.fail("expected one of pinch, node, cusp", kind)
                branches = []
                while not parser.exhausted:
                    branches.append(_parse_branch_group(parser, kind.text))
                if kind.text == "node" and len(branches) != 2:
                    parser.fail("node requires exactly two branches", kind)
                if kind.text == "cusp" and len(branches) != 1:
                    parser.fail("cusp requires exactly one branch", kind)
                if kind.text == "pinch" and not branches:
                    parser.fail("pinch requires at least one branch", kind)
                singularities.append(Singularity(sing_id, tuple(branches)))

            elif head.text == "base":
                component_id = parser.expect_name("a component id")
                parser.expect_keyword("at")
                point = parser.expect_point()
                parser.expect_end()
                if component_id in seen_base:
                    parser.fail(f"duplicate basepoint for component {component_id!r}", head)
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
