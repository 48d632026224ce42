"""Rule-source parser.

Tokens (`_TOKEN`, one alternative per kind; space, tab, CR and newline
separate them and `#` starts a line comment):

    IDENT   := [A-Za-z_][A-Za-z0-9_]*, and `assert:IDENT` / `retract:IDENT`
               as one type name
    VAR     := "?" IDENT
    INT     := ["-"] [0-9]+            at most sys.get_int_max_str_digits() digits
    DECIMAL := ["-"] [0-9]+ "." [0-9]+ a finite float, 0.0 only if all zeros
    STRING  := '"' ... '"' on one line; backslash escapes (\\n, \\t, any other
               character stands for itself, but never a line break)
    OPCMP   := "=" | "!=" | "<" | "<=" | ">" | ">="

Numerals are ASCII digits only; an out-of-range literal is a syntax error.

Grammar:

    ruleset := (rule | effect)*
    rule    := "rule" IDENT ":" "on" eexpr ["where" cond]
               "do" action ("," action)*
               ["post" cond] ["select" ("first"|"last"|"all")]
               ["consume" ("single"|"multiple")] ["window" INT]
    effect  := "effect" IDENT ("initiates"|"terminates") IDENT
    eexpr   := IDENT ["as" VAR]
             | "seq(" eexpr "," eexpr ")" | "and(" eexpr "," eexpr ")"
             | "or(" eexpr "," eexpr ")"
             | "not(" eexpr "," eexpr "," eexpr ")"
             | "any(" INT ("," IDENT)+ ")"
             | "times(" INT "," eexpr ")"
    cond    := atom ("and" atom)*
    atom    := term OPCMP term
             | ["not"] "fact(" IDENT ("," term)* ")"
             | "holds(" IDENT ")"
    action  := "assert(" facttpl ")" | "retract(" facttpl ")"
             | "emit(" IDENT "," "{" (IDENT ":" term)* "}" ")" | "noop"
    facttpl := IDENT ["(" term ("," term)* ")"]
    term    := INT | DECIMAL | STRING | VAR | VAR "." IDENT | IDENT

A bare IDENT in term position is a string constant (`sales` == "sales"),
except `true`/`false`, which are booleans. The event expression and
variable boundness are checked by `Rule` itself when the parser builds it,
as for a rule built through the API; the parser reports an InvalidExpression
at the expression, and a variable read before anything binds it raises
UnboundVariable.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import NamedTuple, Optional

from .algebra import And as AndExpr
from .algebra import Any as AnyExpr
from .algebra import _MAX_NESTING, Atomic, EventExpr, Not, Or, Seq, Times, validate_expr
from .detection import ConsumptionPolicy, SelectionPolicy
from .errors import InvalidExpression, InvalidRule, RuleSyntaxError
from .fluents import EffectMode
from .model import EventTypeId
from .rules import (
    Action,
    AssertAction,
    Atom,
    Comparison,
    Condition,
    EffectDecl,
    EmitAction,
    FactLookup,
    FactTemplate,
    FieldRef,
    HoldsAtom,
    Lit,
    NoopAction,
    RetractAction,
    Rule,
    RuleSet,
    Term,
    VarRef,
)

# seq/and/or/not take only subexpressions: constructor and arity
_EEXPR_NODES = {"seq": (Seq, 2), "and": (AndExpr, 2), "or": (Or, 2), "not": (Not, 3)}
_EEXPR_OPS = {*_EEXPR_NODES, "any", "times"}

# One alternative per token kind, tried in order; BAD catches any character
# that starts no complete token. re.ASCII keeps \w and \d to ASCII, and a
# string cannot hold a line break, escaped or not (`.` matches none).
_TOKEN = re.compile(
    r"""(?P<NL>\n)
      | (?P<SKIP>[ \t\r]+|\#[^\n]*)
      | (?P<WORD>(?:assert|retract):[A-Za-z_]\w*|[A-Za-z_]\w*)
      | (?P<VAR>\?[A-Za-z_]\w*)
      | (?P<DECIMAL>-?\d+\.\d+)
      | (?P<INT>-?\d+)
      | (?P<STRING>"(?:[^"\\\n]|\\.)*")
      | (?P<OP>[<>!]=|[=<>])
      | (?P<PUNCT>[(){},:.])
      | (?P<BAD>.)""",
    re.VERBOSE | re.ASCII,
)
_BAD_START = {
    "?": "expected a variable name after '?'",
    '"': "unterminated string",
    "!": "expected '=' after '!'",
}
_ESCAPE = re.compile(r"\\(.)")
_ESCAPED = {"n": "\n", "t": "\t"}  # any other escaped character stands for itself


class _Tok(NamedTuple):
    kind: str  # WORD VAR INT DECIMAL STRING PUNCT OP EOF
    value: object
    line: int
    col: int


# builds a _Tok without its Python-level __new__, half of a token's cost
_new_tuple = tuple.__new__


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        if kind == "NL":
            line += 1
            line_start = m.end()
            continue
        value = m.group()
        col = m.start() - line_start + 1
        if kind == "VAR":
            value = value[1:]
        elif kind == "INT":
            try:
                value = int(value)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                msg = "integer literal out of range"
                raise RuleSyntaxError(msg, line, col) from None
        elif kind == "DECIMAL":
            numeral, value = value, float(value)
            # out of range: past the largest float, or nonzero digits that
            # round to 0.0
            if not math.isfinite(value) or (value == 0.0 and numeral.strip("-0.")):
                raise RuleSyntaxError("decimal literal out of range", line, col)
        elif kind == "STRING":
            value = _ESCAPE.sub(lambda e: _ESCAPED.get(e[1], e[1]), value[1:-1])
        elif kind == "BAD":
            msg = _BAD_START.get(value, f"unexpected character {value!r}")
            raise RuleSyntaxError(msg, line, col)
        toks.append(_new_tuple(_Tok, (kind, value, line, col)))
    toks.append(_Tok("EOF", None, line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------ plumbing

    def peek(self, ahead: int = 0) -> _Tok:
        # the list ends with EOF, and pos never moves past it
        if ahead:
            return self.toks[min(self.pos + ahead, len(self.toks) - 1)]
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def err(self, msg: str, tok: Optional[_Tok] = None):
        tok = tok or self.peek()
        raise RuleSyntaxError(msg, tok.line, tok.col)

    def at(self, kind: str, value: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == kind and tok.value == value

    def accept(self, kind: str, value: str) -> bool:
        """Consume the next token if it is ``value`` of ``kind``."""
        tok = self.toks[self.pos]
        if tok.kind == kind and tok.value == value:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, value: str) -> None:
        if not self.accept(kind, value):
            self.err(f"expected '{value}'")

    def expect_kind(self, kind: str, what: str) -> _Tok:
        if self.peek().kind != kind:
            self.err(f"expected {what}")
        return self.next()

    def expect_choice(self, enum: type[Enum]) -> Enum:
        """A word naming one of ``enum``'s values; the error lists them in
        declaration order."""
        tok = self.peek()
        values = [member.value for member in enum]
        if tok.kind != "WORD" or tok.value not in values:
            quoted = [f"'{v}'" for v in values]
            self.err(f"expected {', '.join(quoted[:-1])} or {quoted[-1]}")
        self.next()
        return enum(tok.value)

    # ------------------------------------------------------------- ruleset

    def parse_ruleset(self) -> RuleSet:
        rules: list[Rule] = []
        effects: list[EffectDecl] = []
        while self.peek().kind != "EOF":
            if self.at("WORD", "rule"):
                rules.append(self.parse_rule())
            elif self.at("WORD", "effect"):
                effects.append(self.parse_effect())
            else:
                self.err("expected 'rule' or 'effect'")
        return RuleSet(tuple(rules), tuple(effects))

    def parse_effect(self) -> EffectDecl:
        self.expect("WORD", "effect")
        tname = self.expect_kind("WORD", "event type").value
        mode = self.expect_choice(EffectMode)
        fluent = self.expect_kind("WORD", "fluent name").value
        return EffectDecl(tname, mode, fluent)

    def parse_rule(self) -> Rule:
        self.expect("WORD", "rule")
        rid = self.expect_kind("WORD", "rule id").value
        self.expect("PUNCT", ":")
        self.expect("WORD", "on")
        expr_tok = self.peek()
        expr = self.parse_eexpr()
        where = self.parse_cond() if self.accept("WORD", "where") else None
        self.expect("WORD", "do")
        actions = [self.parse_action()]
        while self.accept("PUNCT", ","):
            actions.append(self.parse_action())
        post = self.parse_cond() if self.accept("WORD", "post") else None
        selection = SelectionPolicy.FIRST
        if self.accept("WORD", "select"):
            selection = self.expect_choice(SelectionPolicy)
        consumption = ConsumptionPolicy.SINGLE
        if self.accept("WORD", "consume"):
            consumption = self.expect_choice(ConsumptionPolicy)
        window = None
        if self.accept("WORD", "window"):
            tok = self.expect_kind("INT", "an integer window size")
            if tok.value <= 0:
                self.err("window must be positive", tok)
            window = tok.value

        try:  # Rule checks ``on`` first, so this is its first fault
            return Rule(
                id=rid,
                on=expr,
                where=where,
                actions=tuple(actions),
                post=post,
                selection=selection,
                consumption=consumption,
                window=window,
            )
        except InvalidExpression as e:
            self.err(str(e), expr_tok)

    # --------------------------------------------------- event expressions

    def parse_eexpr(self, depth: int = 1) -> EventExpr:
        """One event expression; an operator here is nested ``depth`` deep."""
        tok = self.expect_kind("WORD", "an event expression")
        if tok.value not in _EEXPR_OPS or not self.at("PUNCT", "("):
            var = None
            if self.accept("WORD", "as"):
                var = self.expect_kind("VAR", "a ?variable after 'as'").value
            return Atomic(EventTypeId(tok.value), var)
        if depth > _MAX_NESTING:
            self.err(f"event expression nested deeper than {_MAX_NESTING}", tok)
        self.next()  # the "(" checked above
        if tok.value in _EEXPR_NODES:
            node, arity = _EEXPR_NODES[tok.value]
            args = [self.parse_eexpr(depth + 1)]
            for _ in range(arity - 1):
                self.expect("PUNCT", ",")
                args.append(self.parse_eexpr(depth + 1))
            self.expect("PUNCT", ")")
            return node(*args)
        count = self.expect_kind("INT", "a count")
        if tok.value == "times":
            self.expect("PUNCT", ",")
            inner = self.parse_eexpr(depth + 1)
            self.expect("PUNCT", ")")
            return Times(count.value, inner)
        names = []
        while self.accept("PUNCT", ","):
            names.append(self.expect_kind("WORD", "event type").value)
        self.expect("PUNCT", ")")
        if not names:
            self.err("any needs at least one event type", count)
        return AnyExpr(count.value, tuple(EventTypeId(t) for t in names))

    # ----------------------------------------------------------- conditions

    def parse_cond(self) -> Condition:
        atoms = [self.parse_atom()]
        while self.accept("WORD", "and"):
            atoms.append(self.parse_atom())
        return Condition(tuple(atoms))

    def parse_atom(self) -> Atom:
        if self.at("WORD", "not") and self.at("WORD", "fact", 1):
            self.next()
            return self._parse_fact_lookup(negated=True)
        if self.at("WORD", "fact") and self.at("PUNCT", "(", 1):
            return self._parse_fact_lookup(negated=False)
        if self.at("WORD", "holds") and self.at("PUNCT", "(", 1):
            self.next()
            self.expect("PUNCT", "(")
            fluent = self.expect_kind("WORD", "fluent name").value
            self.expect("PUNCT", ")")
            return HoldsAtom(fluent)
        lhs = self.parse_term()
        op = self.expect_kind("OP", "a comparison operator").value
        return Comparison(lhs, op, self.parse_term())

    def _parse_fact_lookup(self, negated: bool) -> FactLookup:
        self.expect("WORD", "fact")
        self.expect("PUNCT", "(")
        name = self.expect_kind("WORD", "fact name").value
        terms = []
        while self.accept("PUNCT", ","):
            terms.append(self.parse_term())
        self.expect("PUNCT", ")")
        return FactLookup(name, tuple(terms), negated=negated)

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "INT" or tok.kind == "DECIMAL" or tok.kind == "STRING":
            self.next()
            return Lit(tok.value)
        if tok.kind == "VAR":
            self.next()
            if self.accept("PUNCT", "."):
                return FieldRef(tok.value, self.expect_kind("WORD", "field name").value)
            return VarRef(tok.value)
        if tok.kind == "WORD":
            self.next()
            # a bare symbol is a string constant, but for the two booleans
            return Lit({"true": True, "false": False}.get(tok.value, tok.value))
        self.err("expected a term")

    # -------------------------------------------------------------- actions

    def parse_action(self) -> Action:
        tok = self.expect_kind("WORD", "an action")
        if tok.value == "noop":
            return NoopAction()
        if tok.value in ("assert", "retract"):
            self.expect("PUNCT", "(")
            tpl = self._parse_fact_template()
            self.expect("PUNCT", ")")
            return AssertAction(tpl) if tok.value == "assert" else RetractAction(tpl)
        if tok.value == "emit":
            self.expect("PUNCT", "(")
            tname_tok = self.expect_kind("WORD", "event type")
            self.expect("PUNCT", ",")
            self.expect("PUNCT", "{")
            pairs = []
            while not self.at("PUNCT", "}"):
                key = self.expect_kind("WORD", "payload key").value
                self.expect("PUNCT", ":")
                pairs.append((key, self.parse_term()))
                self.accept("PUNCT", ",")  # comma between pairs is optional
            self.expect("PUNCT", "}")
            self.expect("PUNCT", ")")
            try:
                return EmitAction(tname_tok.value, tuple(pairs))
            except InvalidRule as err:  # a reserved type
                self.err(str(err), tname_tok)
        self.err("expected an action (assert / retract / emit / noop)", tok)

    def _parse_fact_template(self) -> FactTemplate:
        name = self.expect_kind("WORD", "fact name").value
        terms = []
        if self.accept("PUNCT", "("):
            terms.append(self.parse_term())
            while self.accept("PUNCT", ","):
                terms.append(self.parse_term())
            self.expect("PUNCT", ")")
        return FactTemplate(name, tuple(terms))


def parse_rules(text: str) -> RuleSet:
    """Parse rule source into a RuleSet (rules plus effect declarations)."""
    return _Parser(text).parse_ruleset()


def parse_expr(text: str) -> EventExpr:
    """Parse a standalone event expression (the CLI oracle input)."""
    p = _Parser(text)
    start = p.peek()
    expr = p.parse_eexpr()
    if p.peek().kind != "EOF":
        p.err("unexpected input after expression")
    try:
        validate_expr(expr)
    except InvalidExpression as e:
        p.err(str(e), start)
    return expr
