"""What `parse_curve_dsl` makes of about 600 malformed and valid curve files,
against a recording: the printed config, or every diagnostic as a string.

The corpus is seeded: printable noise, the shipped fixtures with inserted
characters, and valid lines with one to three token edits, plus hand-written
inputs for the messages random edits rarely reach. A change that means to
alter a diagnostic re-records the file with
`PYTHONPATH=src python tests/test_dsl_recorded.py > tests/golden/dsl_diagnostics.json`
and says why.
"""

from __future__ import annotations

import ast
import json
import random
import re
import string
import sys
from pathlib import Path

from pinchjac import dsl
from pinchjac.dsl import DslParseError, parse_curve_dsl, print_curve_dsl

GOLDEN = Path(__file__).parent / "golden" / "dsl_diagnostics.json"
FIXTURES = sorted((Path(dsl.__file__).parent / "fixtures").glob("*.curve"))

# one valid file that uses every form of the grammar
EVERY_FORM = """curve demo
component A genus 1
component B
sing p pinch (A at 0 mult 3) (B at 1/2)
sing n node (A at 1) (B at -2)
sing c cusp (B at inf)
base A at 5
base B at 7/3
"""

VOCABULARY = (
    "curve", "component", "sing", "base", "genus", "pinch", "node", "cusp",
    "at", "mult", "(", ")", "A", "B", "x1", "0", "3", "-1", "1/0", "2/3",
    "inf", "0.5", "#", "_", "9x",
)

HAND_WRITTEN = {
    "mult_in_node": "curve c\ncomponent L\nsing n node (L at 0 mult 2) (L at 1)\n",
    "mult_in_cusp": "curve c\ncomponent L\nsing s cusp (L at 0 mult 3)\n",
    "mult_zero": "curve c\ncomponent L\nsing s pinch (L at 0 mult 0)\n",
    "mult_missing": "curve c\ncomponent L\nsing s pinch (L at 0 mult)\n",
    "node_one_branch": "curve c\ncomponent L\nsing n node (L at 0)\n",
    "node_three_branches": "curve c\ncomponent L\nsing n node (L at 0) (L at 1) (L at 2)\n",
    "cusp_two_branches": "curve c\ncomponent L\nsing s cusp (L at 0) (L at 1)\n",
    "cusp_no_branch": "curve c\ncomponent L\nsing s cusp\n",
    "pinch_no_branch": "curve c\ncomponent L\nsing s pinch\n",
    "node_no_branch": "curve c\ncomponent L\nsing n node\n",
    "unclosed_group": "curve c\ncomponent L\nsing s pinch (L at 0\n",
    "bad_group_after_good": "curve c\ncomponent L\nsing s pinch (L at 0) L at 1)\n",
    "duplicate_basepoint": "curve c\ncomponent L\nbase L at 0\nbase L at 1\n",
    "duplicate_basepoint_with_trailing": "curve c\ncomponent L\nbase L at 0\nbase L at 1 x\n",
    "trailing_everywhere": "curve c d\ncomponent L genus 0 x\nbase L at inf y\n",
    "second_curve": "curve c\ncurve d\ncomponent L\n",
    "second_curve_bad_name": "curve c\ncurve 9\n",
    "bad_genus_keyword": "curve c\ncomponent L gen 1\n",
    "negative_genus": "curve c\ncomponent L genus -1\n",
    "missing_genus": "curve c\ncomponent L genus\n",
    "bad_kind": "curve c\ncomponent L\nsing s tacnode (L at 0)\n",
    "missing_kind": "curve c\ncomponent L\nsing s\n",
    "bad_point": "curve c\ncomponent L\nbase L at 1/0\n",
    "missing_at": "curve c\ncomponent L\nbase L 0\n",
    "empty": "",
    "comments_only": "# nothing\n\n   # here\n",
    "every_form": EVERY_FORM,
    "every_line_bad": "curve\ncomponent\nsing\nbase\nfoo\n",
}


def _tokens(line: str) -> list[str]:
    return re.findall(r"\(|\)|[^\s()]+", line.split("#")[0])


def _noise(rng: random.Random) -> str:
    return "".join(rng.choice(string.printable) for _ in range(rng.randint(0, 80)))


def _inserted(rng: random.Random) -> str:
    text = rng.choice(FIXTURES).read_text(encoding="utf-8")
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(string.printable) + text[at:]
    return text


def _edited(rng: random.Random) -> str:
    source = rng.choice([EVERY_FORM] + [p.read_text(encoding="utf-8") for p in FIXTURES])
    lines = [_tokens(line) for line in source.splitlines()]
    lines = [tokens for tokens in lines if tokens]
    for _ in range(rng.randint(1, 3)):
        row = rng.randrange(len(lines))
        tokens = lines[row]
        edit = rng.choice(("delete", "replace", "insert", "repeat"))
        if edit == "repeat":
            lines.insert(row, list(tokens))
        elif edit == "insert":
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(VOCABULARY))
        elif tokens:
            at = rng.randrange(len(tokens))
            if edit == "delete":
                del tokens[at]
            else:
                tokens[at] = rng.choice(VOCABULARY)
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


def corpus() -> dict[str, str]:
    rng = random.Random(20240514)
    cases = {f"hand-{name}": text for name, text in HAND_WRITTEN.items()}
    for kind, make, count in (("noise", _noise, 150), ("inserted", _inserted, 200),
                              ("edited", _edited, 250)):
        for i in range(count):
            cases[f"{kind}-{i:03d}"] = make(rng)
    return cases


def observed(text: str) -> dict:
    try:
        config = parse_curve_dsl(text).config
    except DslParseError as exc:
        return {"input": text, "diagnostics": [str(d) for d in exc.diagnostics]}
    except Exception as exc:  # recorded too, so a new failure mode shows as a diff
        return {"input": text, "error": f"{type(exc).__name__}: {exc}"}
    return {"input": text, "config": print_curve_dsl(config)}


def recording() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def emitted_message_patterns() -> set[str]:
    """A regex for each diagnostic message dsl.py can emit, read from its source.

    A message is the string passed to `fail`, `note` or `Diagnostic`, or the
    `what`/keyword an `expect_*` call turns into "expected ..."; each
    formatted field of an f-string matches any text.
    """

    def pattern(node) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return re.escape(node.value)
        if isinstance(node, ast.JoinedStr):
            return "".join(
                re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
                for part in node.values
            )
        return None

    patterns = set()
    for node in ast.walk(ast.parse(Path(dsl.__file__).read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = getattr(node.func, "attr", None) or getattr(node.func, "id", "")
        if func in ("fail", "note"):
            found = pattern(node.args[0])
        elif func == "Diagnostic" and len(node.args) == 4:
            found = pattern(node.args[3])
        elif func in ("expect_name", "expect_int"):
            found = pattern(node.args[0])
            found = found and "expected " + found
        elif func == "expect_keyword" and isinstance(node.args[0], ast.Constant):
            found = "expected " + re.escape(repr(node.args[0].value))
        else:
            continue
        if found is not None:
            patterns.add(found)
    return patterns


def test_recording_covers_the_corpus():
    assert sorted(recording()) == sorted(corpus())


def test_parse_matches_recording():
    expected = recording()
    differing = [name for name, text in corpus().items() if observed(text) != expected[name]]
    assert differing == []


def test_every_message_is_recorded():
    patterns = emitted_message_patterns()
    assert len(patterns) >= 15
    diagnostics = [d for case in recording().values() for d in case.get("diagnostics", ())]

    def recorded(message: str) -> bool:
        # a diagnostic reads "line L:C: <message>" with an optional " (near 'token')"
        line = rf"line \d+:\d+: {message}( \(near .*\))?"
        return any(re.fullmatch(line, d, re.S) for d in diagnostics)

    assert sorted(p for p in patterns if not recorded(p)) == []


if __name__ == "__main__":
    sys.stdout.write(
        json.dumps({name: observed(text) for name, text in corpus().items()}, indent=1) + "\n"
    )
