"""The rule-text tokenizer as it was before the pattern-table lexer.

Frozen as the reference that tests/test_lexer.py compares the lexer in
``reactor.parser`` against. Do not edit it to match the new lexer: the
differences the test allows are listed there, each with its own test.
"""

from __future__ import annotations

from dataclasses import dataclass

from reactor.errors import RuleSyntaxError

_PUNCT = set("(){},:.")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


@dataclass(frozen=True)
class _Tok:
    kind: str  # WORD VAR INT DECIMAL STRING PUNCT OP EOF
    value: object
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(msg: str):
        raise RuleSyntaxError(msg, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            # assert:NAME / retract:NAME fuse into one type name
            if (
                word in ("assert", "retract")
                and j < n
                and text[j] == ":"
                and j + 1 < n
                and text[j + 1] in _IDENT_START
            ):
                k = j + 1
                while k < n and text[k] in _IDENT_CONT:
                    k += 1
                word = text[i:k]
                j = k
            toks.append(_Tok("WORD", word, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == "?":
            j = i + 1
            if j >= n or text[j] not in _IDENT_START:
                err("expected a variable name after '?'")
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            toks.append(_Tok("VAR", text[i + 1 : j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(_Tok("DECIMAL", float(text[i:j]), start_line, start_col))
            else:
                toks.append(_Tok("INT", int(text[i:j]), start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            out = []
            while True:
                if j >= n or text[j] == "\n":
                    err("unterminated string")
                c = text[j]
                if c == "\\":
                    if j + 1 >= n:
                        err("unterminated string escape")
                    esc = text[j + 1]
                    out.append({"n": "\n", "t": "\t"}.get(esc, esc))
                    j += 2
                    continue
                if c == '"':
                    j += 1
                    break
                out.append(c)
                j += 1
            toks.append(_Tok("STRING", "".join(out), start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in "=<>!":
            if ch == "=":
                toks.append(_Tok("OP", "=", start_line, start_col))
                i += 1
                col += 1
                continue
            if ch == "!":
                if i + 1 < n and text[i + 1] == "=":
                    toks.append(_Tok("OP", "!=", start_line, start_col))
                    i += 2
                    col += 2
                    continue
                err("expected '=' after '!'")
            op = ch
            if i + 1 < n and text[i + 1] == "=":
                op += "="
            toks.append(_Tok("OP", op, start_line, start_col))
            i += len(op)
            col += len(op)
            continue
        if ch in _PUNCT:
            toks.append(_Tok("PUNCT", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        err(f"unexpected character {ch!r}")
    toks.append(_Tok("EOF", None, line, col))
    return toks
