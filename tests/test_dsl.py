from __future__ import annotations

import random
import string
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchjac.algebra import INFINITY, P1Point
from pinchjac.builders import (
    cuspidal_cubic,
    elliptic_pair,
    nodal_cubic,
    random_config,
    two_lines,
    two_nodes_pair,
)
from pinchjac.curve_model import (
    ID_PATTERN,
    INVALID_ID,
    Branch,
    Component,
    CurveConfig,
    Singularity,
    validate,
)
from pinchjac.dsl import (
    DslParseError,
    parse_curve_dsl,
    parse_point,
    print_curve_dsl,
)

NODAL_TEXT = """curve nodal
component L genus 0
sing n node (L at 0) (L at 1)
base L at inf
"""

LUT_TEXT = """curve lut
component L1
component L2
sing n1 node (L1 at 0) (L2 at 0)
sing n2 node (L1 at 1) (L2 at 1)
base L1 at inf
base L2 at inf
"""


def _node(sing, first, second):
    return Singularity(sing, (Branch(first, P1Point.finite(0)), Branch(second, P1Point.finite(0))))


# The standard curves built by hand, independently of the parser and of the
# shipped fixtures the builders read.
NODAL = CurveConfig(
    name="nodal",
    components=(Component("L"),),
    singularities=(
        Singularity("n", (Branch("L", P1Point.finite(0)), Branch("L", P1Point.finite(1)))),
    ),
    basepoints=(("L", INFINITY),),
)
CUSPIDAL = CurveConfig(
    name="cuspidal",
    components=(Component("L"),),
    singularities=(Singularity("s", (Branch("L", P1Point.finite(0), 2),)),),
    basepoints=(("L", INFINITY),),
)
LUT = CurveConfig(
    name="lut",
    components=(Component("L1"), Component("L2")),
    singularities=(
        _node("n1", "L1", "L2"),
        Singularity("n2", (Branch("L1", P1Point.finite(1)), Branch("L2", P1Point.finite(1)))),
    ),
    basepoints=(("L1", INFINITY), ("L2", INFINITY)),
)
TWO_LINES = CurveConfig(
    name="two_lines",
    components=(Component("L1"), Component("L2")),
    singularities=(_node("n", "L1", "L2"),),
    basepoints=(("L1", INFINITY), ("L2", INFINITY)),
)
ELLIPTIC_PAIR = CurveConfig(
    name="elliptic_pair",
    components=(Component("E1", genus=1), Component("E2", genus=1)),
    singularities=(_node("n", "E1", "E2"),),
)


@pytest.mark.parametrize(
    "build, expected",
    [
        (nodal_cubic, NODAL),
        (cuspidal_cubic, CUSPIDAL),
        (two_nodes_pair, LUT),
        (two_lines, TWO_LINES),
        (elliptic_pair, ELLIPTIC_PAIR),
    ],
    ids=["nodal", "cuspidal", "lut", "two_lines", "elliptic_pair"],
)
def test_builders_match_hand_built_configs(build, expected):
    config = build()
    assert config == expected
    assert config.fingerprint() == expected.fingerprint()


def test_parse_nodal():
    doc = parse_curve_dsl(NODAL_TEXT)
    assert doc.config == NODAL


def test_parse_lut():
    doc = parse_curve_dsl(LUT_TEXT)
    assert doc.config == LUT


def test_parse_cusp_and_pinch_sugar():
    doc = parse_curve_dsl(
        "curve cuspidal\ncomponent L\nsing s cusp (L at 0)\nbase L at inf\n"
    )
    assert doc.config == CUSPIDAL
    pinch = parse_curve_dsl(
        "curve cuspidal\ncomponent L\nsing s pinch (L at 0 mult 2)\nbase L at inf\n"
    )
    assert pinch.config == CUSPIDAL


def test_parse_points():
    from fractions import Fraction

    assert parse_point("inf") == INFINITY
    assert parse_point("-7/2") == P1Point.finite(Fraction(-7, 2))
    assert parse_point("5") == P1Point.finite(5)
    assert parse_point("5/0") is None
    assert parse_point("x") is None
    assert parse_point("1.5") is None


def test_comments_and_blank_lines():
    text = "# heading\n\ncurve c  # trailing\ncomponent L\nsing s cusp (L at 0)\n"
    doc = parse_curve_dsl(text)
    assert doc.config.name == "c"


def test_crlf_line_endings():
    doc = parse_curve_dsl(NODAL_TEXT.replace("\n", "\r\n"))
    assert doc.config == NODAL


def test_node_arity_diagnostic():
    with pytest.raises(DslParseError) as err:
        parse_curve_dsl("curve c\ncomponent L\nsing n node (L at 0)\n")
    (diag,) = err.value.diagnostics
    assert diag.line == 3
    assert "exactly two branches" in diag.message


def test_diagnostics_carry_positions():
    with pytest.raises(DslParseError) as err:
        parse_curve_dsl("curve c\ncomponent L\nsing n node (L at zebra) (L at 1)\n")
    diag = err.value.diagnostics[0]
    assert diag.line == 3
    assert diag.token == "zebra"
    assert diag.column == 19


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("curve c\ncomponent L genus \u00b2\n", 2, 19),
        ("curve c\ncomponent L\nsing s pinch (L at 0 mult \u00b2)\n", 3, 27),
    ],
    ids=["genus", "mult"],
)
def test_superscript_digits_are_diagnosed(text, line, column):
    # "\u00b2".isdigit() holds, but int() refuses it
    with pytest.raises(DslParseError) as err:
        parse_curve_dsl(text)
    diag = err.value.diagnostics[0]
    assert (diag.line, diag.column, diag.token) == (line, column, "\u00b2")


def test_missing_curve_line():
    with pytest.raises(DslParseError) as err:
        parse_curve_dsl("component L\n")
    assert any("curve" in d.message for d in err.value.diagnostics)


def test_duplicate_basepoint_diagnostic():
    with pytest.raises(DslParseError):
        parse_curve_dsl("curve c\ncomponent L\nbase L at 0\nbase L at 1\n")


def test_unknown_directive():
    with pytest.raises(DslParseError) as err:
        parse_curve_dsl("curve c\nfrobnicate L\n")
    assert err.value.diagnostics[0].message == "unknown directive"


def test_mult_refused_outside_pinch():
    with pytest.raises(DslParseError):
        parse_curve_dsl("curve c\ncomponent L\nsing n node (L at 0 mult 2) (L at 1)\n")


def test_print_round_trip_on_standard_curves():
    for config in (nodal_cubic(), cuspidal_cubic(), two_nodes_pair(), two_lines(), elliptic_pair()):
        assert parse_curve_dsl(print_curve_dsl(config)).config == config


def test_print_round_trip_on_random_configs():
    rng = random.Random(97)
    for _ in range(200):
        config = random_config(rng, with_basepoints=rng.random() < 0.5)
        printed = print_curve_dsl(config)
        reparsed = parse_curve_dsl(printed)
        assert reparsed.config == config
        assert print_curve_dsl(reparsed.config) == printed


_FIRST = string.ascii_letters + "_"
_NAMES = st.builds(str.__add__, st.sampled_from(_FIRST),
                   st.text(_FIRST + string.digits, max_size=5))  # matches ID_PATTERN
# ids the parser cannot read: a space, a trailing newline, a leading digit, ...
_BAD_NAMES = st.one_of(st.sampled_from(["", "L 1", "L\n", "1L", "a-b", "\u00e9"]),
                       st.text(max_size=6)).filter(lambda name: not ID_PATTERN.fullmatch(name))
_POINTS = st.one_of(
    st.just(INFINITY),
    st.builds(P1Point.finite, st.fractions(min_value=-20, max_value=20, max_denominator=9)),
)


@st.composite
def _valid_configs(draw):
    """Up to four components of genus up to 2; branches at distinct points, of
    multiplicity up to 5 on genus-0 components, grouped into up to four
    singularities of total multiplicity at least 2; basepoints off the branches."""
    ids = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    components = tuple(Component(c, draw(st.integers(0, 2))) for c in ids)
    genus = {c.id: c.genus for c in components}
    places = draw(st.lists(st.tuples(st.sampled_from(ids), _POINTS), max_size=8, unique=True))
    branches = [Branch(c, p, 1 if genus[c] else draw(st.integers(1, 5))) for c, p in places]
    groups = draw(st.lists(st.integers(0, 3), min_size=len(branches), max_size=len(branches)))
    sing_ids = draw(st.lists(_NAMES, min_size=4, max_size=4, unique=True))
    singularities = []
    for g in sorted(set(groups)):
        members = tuple(b for b, h in zip(branches, groups) if h == g)
        if sum(b.multiplicity for b in members) >= 2:
            singularities.append(Singularity(sing_ids[g], members))
    taken = {(b.component, b.point) for s in singularities for b in s.branches}
    basepoints = []
    for c in ids:
        point = draw(_POINTS)
        if draw(st.booleans()) and (c, point) not in taken:
            basepoints.append((c, point))
    return CurveConfig(draw(_NAMES), components, tuple(singularities), tuple(basepoints))


@settings(deadline=None)
@given(_valid_configs())
def test_print_round_trip_on_drawn_configs(config):
    assert validate(config) == []
    reparsed = parse_curve_dsl(print_curve_dsl(config)).config
    assert reparsed == config
    assert reparsed.fingerprint() == config.fingerprint()


def _renamed(config: CurveConfig, where: str, bad: str) -> CurveConfig:
    """The configuration with its name, first component or first singularity
    renamed to ``bad``, every reference included (the name when it has no
    singularity)."""
    if where == "component":
        old = config.components[0].id
        rename = {old: bad}.get
        return CurveConfig(
            config.name,
            tuple(replace(c, id=rename(c.id, c.id)) for c in config.components),
            tuple(Singularity(s.id, tuple(replace(b, component=rename(b.component, b.component))
                                          for b in s.branches)) for s in config.singularities),
            tuple((rename(c, c), p) for c, p in config.basepoints),
        )
    if where == "singularity" and config.singularities:
        first, *rest = config.singularities
        return replace(config, singularities=(replace(first, id=bad), *rest))
    return replace(config, name=bad)


@settings(max_examples=50, deadline=None)
@given(_valid_configs(), st.sampled_from(("name", "component", "singularity")), _BAD_NAMES)
def test_ids_the_parser_cannot_read_are_violations(config, where, bad):
    renamed = _renamed(config, where, bad)
    assert [v.kind for v in validate(renamed)] == [INVALID_ID]
    # and the reason: its printed text does not parse back to it
    try:
        assert parse_curve_dsl(print_curve_dsl(renamed)).config != renamed
    except DslParseError:
        pass


def test_fuzz_inputs_never_crash():
    rng = random.Random(103)
    alphabet = string.printable + "\u00b2\u00bd\u0661"  # superscript two, one half, Arabic-Indic one
    seeds = [NODAL_TEXT, LUT_TEXT, "curve c\ncomponent L\n"]
    for trial in range(300):
        if trial % 3 == 0:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4096)))
        else:
            base = list(rng.choice(seeds))
            for _ in range(rng.randint(1, 12)):
                pos = rng.randrange(max(len(base), 1))
                base.insert(pos, rng.choice(alphabet))
            text = "".join(base)[:4096]
        try:
            parse_curve_dsl(text)
        except DslParseError as exc:
            assert exc.diagnostics
            assert all(d.line >= 1 for d in exc.diagnostics)
