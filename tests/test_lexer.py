"""The pattern-table lexer against the character loop it replaced.

``reference_lexer._tokenize`` is a frozen copy of the old loop. On every
input both must give the same tokens (kind, value, line, column) or the same
RuleSyntaxError (message, line, column). Five classes of input may differ,
and each has its own test in TestAllowedDifferences:

(a) a non-ASCII digit outside a string or comment: the old loop read `٣` as
    3 and crashed on `²`; the lexer calls either an unexpected character;
(b) an out-of-range numeral: the old loop crashed on an integer longer than
    int() accepts, read a 400-digit decimal as inf and a decimal with 400
    zeros after the point before a nonzero digit as 0.0; the lexer refuses
    all three at the literal;
(c) a backslash before a line break inside a string: the old loop went on
    with the string and miscounted later lines; the lexer says
    `unterminated string`;
(d) the EOF column after a trailing comment: the old loop gave the column
    where the comment starts, the lexer the one after its end;
(e) a string that ends in a lone backslash at end of text: the old message
    was `unterminated string escape`, now it is `unterminated string`.
"""

import ast
import math
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from reactor import RuleSyntaxError
from reactor.parser import _tokenize
from reference_lexer import _tokenize as reference_tokenize

ROOT = Path(__file__).resolve().parent.parent

# a string the old loop scans into an escaped line break before it ends
_OLD_STRING_WITH_BREAK = re.compile(r'"(?:[^"\\\n]|\\[^\n])*\\\n')
_OUT_OF_RANGE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")


def outcome(lex, text):
    """Tokens as (kind, value, line, col), an ("error", message, line, col)
    for a RuleSyntaxError, or ("crash", exception type) for anything else."""
    try:
        return [(t.kind, t.value, t.line, t.col) for t in lex(text)]
    except RuleSyntaxError as e:
        return ("error", str(e).rsplit(" (line ", 1)[0], e.line, e.column)
    except ValueError as e:
        return ("crash", type(e).__name__)


def offset(text, line, col):
    start = 0
    for _ in range(line - 1):
        start = text.index("\n", start) + 1
    return start + col - 1


def difference(text):
    """None when both lexers agree on ``text``, else the class (a)-(e) that
    accounts for the difference; fails when none does. Classes (a)-(c)
    stop the lexer at one position, and both lexers must agree on the text
    before it."""
    ref, new = outcome(reference_tokenize, text), outcome(_tokenize, text)
    if ref == new:
        return None
    if isinstance(ref, list) and isinstance(new, list):
        # (d): only the EOF column differs, and the old one is at a '#'
        (*ref_toks, ref_eof), (*new_toks, new_eof) = ref, new
        assert ref_toks == new_toks and ref_eof[2] == new_eof[2], text
        assert text[offset(text, ref_eof[2], ref_eof[3])] == "#", text
        return "d"
    assert isinstance(new, tuple) and new[0] == "error", (text, ref, new)
    _, msg, line, col = new
    at = offset(text, line, col)
    if msg == "unterminated string" and ref == ("error", "unterminated string escape", line, col):
        assert text.endswith("\\"), text
        return "e"
    if msg == "unterminated string":
        assert _OLD_STRING_WITH_BREAK.match(text, at), (text, ref, new)
        cls = "c"
    elif msg.endswith("literal out of range"):
        literal = _OUT_OF_RANGE.match(text, at).group()
        if "." in literal:
            value = float(literal)
            assert math.isinf(value) or (value == 0.0 and literal.strip("-0.")), text
        else:
            with pytest.raises(ValueError):
                int(literal)
        cls = "b"
    else:
        ch = text[at]
        assert msg == f"unexpected character {ch!r}", (text, ref, new)
        # the old loop also read a '-' before a digit as a numeral's sign
        digit = text[at + 1 : at + 2] if ch == "-" else ch
        assert digit.isdigit() and digit not in "0123456789", (text, ref, new)
        cls = "a"
    difference(text[:at])
    return cls


PIECES = (
    "rule", "r", "on", "a", "b_1", "Z9", "as", "?", "?x", "?_y", '"', "\\",
    "!", "!=", "=", "<", "<=", ">", ">=", "-", ".", "0", "1", "42", "-7",
    "3.5", "assert", "retract", "assert:", "retract:", "emit:", "x:", ":",
    "#", "\r", "\t", "\n", " ", "  ", "\f", "\v", "\u00a0", "(", ")", ",",
    "{", "}", "n", "t", "é", "ß", "Ω", "٣", "²", "１", "$", "'", "@",
    "\\n", "\\t", '\\"', "\\\\", "\\\n",
)


def random_texts(n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        yield "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 10)))


def source_strings():
    """Every string constant in the test modules and the bench workloads,
    f-string parts included: every rule text there is one of them."""
    paths = sorted((ROOT / "tests").glob("*.py")) + [ROOT / "bench" / "workloads.py"]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value


class TestDifferential:
    def test_seeded_random_texts(self):
        seen = Counter(difference(t) for t in random_texts(100_000, seed=6))
        # the generator reaches every class that needs no giant literal
        assert {"a", "c", "d", "e"} <= set(seen), seen
        assert seen[None] > 50_000, seen

    def test_every_rule_text_in_the_sources(self):
        texts = list(source_strings())
        assert any("rule burst: on times(3, ping)" in t for t in texts)
        seen = Counter(difference(t) for t in texts)
        assert seen[None] > 0.9 * len(texts), seen


class TestAllowedDifferences:
    def test_a_non_ascii_digits_are_unexpected_characters(self):
        assert outcome(reference_tokenize, "p(٣)")[2][:2] == ("INT", 3)
        assert outcome(reference_tokenize, "p(²)") == ("crash", "ValueError")
        for text, ch, col in (("p(٣)", "٣", 3), ("p(²)", "²", 3), ("x 1٣", "٣", 4),
                              ("-١", "-", 1), ('"٣"\n# ٣\n', None, None)):
            got = outcome(_tokenize, text)
            if ch is None:  # inside a string or comment a digit is text
                assert got == outcome(reference_tokenize, text)
            else:
                assert got == ("error", f"unexpected character {ch!r}", 1, col)
        assert difference("where ?x = 1٣") == "a"

    def test_b_out_of_range_numerals_fail_closed(self):
        limit = sys.get_int_max_str_digits()
        huge_int = "9" * (limit + 1)
        huge_decimal = "1" * 400 + ".0"
        assert outcome(reference_tokenize, huge_int) == ("crash", "ValueError")
        assert outcome(reference_tokenize, huge_decimal)[0][1] == float("inf")
        assert outcome(_tokenize, f"p({huge_int})") == (
            "error", "integer literal out of range", 1, 3)
        assert outcome(_tokenize, f"\n  -{huge_decimal}") == (
            "error", "decimal literal out of range", 2, 3)
        assert difference(f"p(-{huge_decimal})") == "b"
        tiny_decimal = "0." + "0" * 400 + "1"
        assert outcome(reference_tokenize, tiny_decimal)[0][1] == 0.0
        assert outcome(_tokenize, f"p(\n -{tiny_decimal})") == (
            "error", "decimal literal out of range", 2, 2)
        assert difference(f"p({tiny_decimal})") == "b"
        # the largest and smallest numerals still in range lex as before
        for text in ("9" * limit, "1" * 300 + ".5", "-" + "1" * 300 + ".5",
                     "0." + "0" * 322 + "5", "-0." + "0" * 400):
            assert difference(text) is None

    def test_c_escaped_line_break_ends_the_string(self):
        text = 'a "x\\\ny" b'
        ref = outcome(reference_tokenize, text)
        assert ref[1][:2] == ("STRING", "x\ny") and ref[2][2:] == (1, 10)
        assert outcome(_tokenize, text) == ("error", "unterminated string", 1, 3)
        assert difference(text) == "c"

    def test_d_eof_column_after_a_trailing_comment(self):
        assert outcome(reference_tokenize, "a # note")[-1] == ("EOF", None, 1, 3)
        assert outcome(_tokenize, "a # note")[-1] == ("EOF", None, 1, 9)
        assert difference("a # note") == "d"

    def test_e_lone_backslash_at_end_of_text(self):
        assert outcome(reference_tokenize, 'a "x\\') == (
            "error", "unterminated string escape", 1, 3)
        assert outcome(_tokenize, 'a "x\\') == ("error", "unterminated string", 1, 3)
        assert difference('a "x\\') == "e"

