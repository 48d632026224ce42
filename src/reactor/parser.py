"""Rule-source parser.

Grammar (lexical: `#` starts a line comment; strings are double-quoted with
backslash escapes; `assert:NAME` / `retract:NAME` lex as single type names):

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
except `true`/`false`, which are booleans. Parsing also checks variable
boundness: conditions consume bindings left to right, positive fact lookups
introduce fresh variables, negated lookups and comparisons must find theirs
already bound, and action templates must be fully instantiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import And as AndExpr
from .algebra import Any as AnyExpr
from .algebra import _MAX_NESTING, Atomic, EventExpr, Not, Or, Seq, Times, validate_expr
from .detection import ConsumptionPolicy, SelectionPolicy
from .errors import InvalidExpression, RuleSyntaxError, UnboundVariable
from .fluents import EffectMode
from .model import EventTypeId, is_reserved_type
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
    term_vars,
)

_EEXPR_OPS = {"seq", "and", "or", "not", "any", "times"}
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


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------ plumbing

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def err(self, msg: str, tok: Optional[_Tok] = None):
        tok = tok or self.peek()
        raise RuleSyntaxError(msg, tok.line, tok.col)

    def expect_word(self, word: str) -> _Tok:
        tok = self.peek()
        if tok.kind != "WORD" or tok.value != word:
            self.err(f"expected '{word}'")
        return self.next()

    def expect_punct(self, ch: str) -> _Tok:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.value != ch:
            self.err(f"expected '{ch}'")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> _Tok:
        tok = self.peek()
        if tok.kind != "WORD":
            self.err(f"expected {what}")
        return self.next()

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "WORD" and tok.value == word

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value == ch

    # ------------------------------------------------------------- ruleset

    def parse_ruleset(self) -> RuleSet:
        rules: list[Rule] = []
        effects: list[EffectDecl] = []
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "WORD" and tok.value == "rule":
                rules.append(self.parse_rule())
            elif tok.kind == "WORD" and tok.value == "effect":
                effects.append(self.parse_effect())
            else:
                self.err("expected 'rule' or 'effect'")
        return RuleSet(tuple(rules), tuple(effects))

    def parse_effect(self) -> EffectDecl:
        self.expect_word("effect")
        tname = self.expect_ident("event type").value
        tok = self.peek()
        if tok.kind == "WORD" and tok.value in ("initiates", "terminates"):
            self.next()
            mode = EffectMode(tok.value)
        else:
            self.err("expected 'initiates' or 'terminates'")
        fluent = self.expect_ident("fluent name").value
        return EffectDecl(tname, mode, fluent)

    def parse_rule(self) -> Rule:
        self.expect_word("rule")
        rid = self.expect_ident("rule id").value
        self.expect_punct(":")
        self.expect_word("on")
        expr_tok = self.peek()
        expr = self.parse_eexpr()
        try:
            validate_expr(expr)
        except InvalidExpression as e:
            self.err(str(e), expr_tok)

        where = None
        if self.at_word("where"):
            self.next()
            where = self.parse_cond()
        self.expect_word("do")
        actions = [self.parse_action()]
        while self.at_punct(","):
            self.next()
            actions.append(self.parse_action())
        post = None
        if self.at_word("post"):
            self.next()
            post = self.parse_cond()
        selection = SelectionPolicy.FIRST
        if self.at_word("select"):
            self.next()
            tok = self.peek()
            if tok.kind == "WORD" and tok.value in ("first", "last", "all"):
                self.next()
                selection = SelectionPolicy(tok.value)
            else:
                self.err("expected 'first', 'last' or 'all'")
        consumption = ConsumptionPolicy.SINGLE
        if self.at_word("consume"):
            self.next()
            tok = self.peek()
            if tok.kind == "WORD" and tok.value in ("single", "multiple"):
                self.next()
                consumption = ConsumptionPolicy(tok.value)
            else:
                self.err("expected 'single' or 'multiple'")
        window = None
        if self.at_word("window"):
            self.next()
            tok = self.peek()
            if tok.kind != "INT":
                self.err("expected an integer window size")
            if tok.value <= 0:
                self.err("window must be positive")
            self.next()
            window = tok.value

        rule = Rule(
            id=rid,
            on=expr,
            where=where,
            actions=tuple(actions),
            post=post,
            selection=selection,
            consumption=consumption,
            window=window,
        )
        self._check_bindings(rule, expr_tok)
        return rule

    # --------------------------------------------------- event expressions

    def parse_eexpr(self, depth: int = 1) -> EventExpr:
        """One event expression; an operator here is nested ``depth`` deep."""
        tok = self.peek()
        if tok.kind != "WORD":
            self.err("expected an event expression")
        if tok.value in _EEXPR_OPS and self.peek(1).kind == "PUNCT" and self.peek(1).value == "(":
            if depth > _MAX_NESTING:
                self.err(f"event expression nested deeper than {_MAX_NESTING}")
            op = tok.value
            self.next()
            self.expect_punct("(")
            if op in ("seq", "and", "or"):
                left = self.parse_eexpr(depth + 1)
                self.expect_punct(",")
                right = self.parse_eexpr(depth + 1)
                self.expect_punct(")")
                cls = {"seq": Seq, "and": AndExpr, "or": Or}[op]
                return cls(left, right)
            if op == "not":
                absent = self.parse_eexpr(depth + 1)
                self.expect_punct(",")
                opener = self.parse_eexpr(depth + 1)
                self.expect_punct(",")
                closer = self.parse_eexpr(depth + 1)
                self.expect_punct(")")
                return Not(absent, opener, closer)
            if op == "any":
                cnt_tok = self.peek()
                if cnt_tok.kind != "INT":
                    self.err("expected a count")
                self.next()
                names = []
                while self.at_punct(","):
                    self.next()
                    names.append(self.expect_ident("event type").value)
                self.expect_punct(")")
                if not names:
                    self.err("any needs at least one event type", cnt_tok)
                return AnyExpr(cnt_tok.value, tuple(EventTypeId(t) for t in names))
            # times
            cnt_tok = self.peek()
            if cnt_tok.kind != "INT":
                self.err("expected a count")
            self.next()
            self.expect_punct(",")
            inner = self.parse_eexpr(depth + 1)
            self.expect_punct(")")
            return Times(cnt_tok.value, inner)
        # atomic
        self.next()
        var = None
        if self.at_word("as"):
            self.next()
            vtok = self.peek()
            if vtok.kind != "VAR":
                self.err("expected a ?variable after 'as'")
            self.next()
            var = vtok.value
        return Atomic(EventTypeId(tok.value), var)

    # ----------------------------------------------------------- conditions

    def parse_cond(self) -> Condition:
        atoms = [self.parse_atom()]
        while self.at_word("and"):
            self.next()
            atoms.append(self.parse_atom())
        return Condition(tuple(atoms))

    def parse_atom(self) -> Atom:
        tok = self.peek()
        if tok.kind == "WORD" and tok.value == "not" and self.peek(1).kind == "WORD" \
                and self.peek(1).value == "fact":
            self.next()
            return self._parse_fact_lookup(negated=True)
        if tok.kind == "WORD" and tok.value == "fact" and self.peek(1).kind == "PUNCT" \
                and self.peek(1).value == "(":
            return self._parse_fact_lookup(negated=False)
        if tok.kind == "WORD" and tok.value == "holds" and self.peek(1).kind == "PUNCT" \
                and self.peek(1).value == "(":
            self.next()
            self.expect_punct("(")
            fluent = self.expect_ident("fluent name").value
            self.expect_punct(")")
            return HoldsAtom(fluent)
        lhs = self.parse_term()
        op_tok = self.peek()
        if op_tok.kind != "OP":
            self.err("expected a comparison operator")
        self.next()
        rhs = self.parse_term()
        return Comparison(lhs, op_tok.value, rhs)

    def _parse_fact_lookup(self, negated: bool) -> FactLookup:
        self.expect_word("fact")
        self.expect_punct("(")
        name = self.expect_ident("fact name").value
        terms = []
        while self.at_punct(","):
            self.next()
            terms.append(self.parse_term())
        self.expect_punct(")")
        return FactLookup(name, tuple(terms), negated=negated)

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "INT" or tok.kind == "DECIMAL" or tok.kind == "STRING":
            self.next()
            return Lit(tok.value)
        if tok.kind == "VAR":
            self.next()
            if self.at_punct("."):
                self.next()
                fld = self.expect_ident("field name").value
                return FieldRef(tok.value, fld)
            return VarRef(tok.value)
        if tok.kind == "WORD":
            self.next()
            if tok.value == "true":
                return Lit(True)
            if tok.value == "false":
                return Lit(False)
            return Lit(tok.value)  # bare symbol, a string constant
        self.err("expected a term")

    # -------------------------------------------------------------- actions

    def parse_action(self) -> Action:
        tok = self.peek()
        if tok.kind != "WORD":
            self.err("expected an action")
        if tok.value == "noop":
            self.next()
            return NoopAction()
        if tok.value in ("assert", "retract"):
            self.next()
            self.expect_punct("(")
            tpl = self._parse_fact_template()
            self.expect_punct(")")
            return AssertAction(tpl) if tok.value == "assert" else RetractAction(tpl)
        if tok.value == "emit":
            self.next()
            self.expect_punct("(")
            tname_tok = self.expect_ident("event type")
            if is_reserved_type(tname_tok.value):
                self.err(
                    f"emit cannot raise reserved type {tname_tok.value!r}", tname_tok
                )
            self.expect_punct(",")
            self.expect_punct("{")
            pairs = []
            while not self.at_punct("}"):
                key = self.expect_ident("payload key").value
                self.expect_punct(":")
                pairs.append((key, self.parse_term()))
                if self.at_punct(","):  # comma between pairs is optional
                    self.next()
            self.expect_punct("}")
            self.expect_punct(")")
            return EmitAction(tname_tok.value, tuple(pairs))
        self.err("expected an action (assert / retract / emit / noop)")

    def _parse_fact_template(self) -> FactTemplate:
        name = self.expect_ident("fact name").value
        terms = []
        if self.at_punct("("):
            self.next()
            terms.append(self.parse_term())
            while self.at_punct(","):
                self.next()
                terms.append(self.parse_term())
            self.expect_punct(")")
        return FactTemplate(name, tuple(terms))

    # ------------------------------------------------------------ boundness

    def _check_bindings(self, rule: Rule, where_tok: _Tok) -> None:
        event_vars = _expr_vars(rule.on)
        bound = set(event_vars)
        if rule.where is not None:
            bound = self._walk_cond(rule.where, bound)
        for act in rule.actions:
            if isinstance(act, (AssertAction, RetractAction)):
                terms = act.fact.terms
            elif isinstance(act, EmitAction):
                terms = tuple(t for _, t in act.payload)
            else:
                continue
            for t in terms:
                for v in term_vars(t):
                    if v not in bound:
                        raise UnboundVariable(f"?{v} is not bound by the rule")
        if rule.post is not None:
            self._walk_cond(rule.post, set(bound))

    def _walk_cond(self, cond: Condition, bound: set[str]) -> set[str]:
        for atom in cond.atoms:
            if isinstance(atom, Comparison):
                for v in term_vars(atom.lhs) | term_vars(atom.rhs):
                    if v not in bound:
                        raise UnboundVariable(f"?{v} is not bound by the rule")
            elif isinstance(atom, FactLookup):
                if atom.negated:
                    for t in atom.terms:
                        for v in term_vars(t):
                            if v not in bound:
                                raise UnboundVariable(
                                    f"?{v} in a negated lookup is not bound elsewhere"
                                )
                else:
                    for t in atom.terms:
                        if isinstance(t, VarRef):
                            bound.add(t.name)
                        else:
                            for v in term_vars(t):
                                if v not in bound:
                                    raise UnboundVariable(
                                        f"?{v} is not bound by the rule"
                                    )
        return bound


def _expr_vars(expr: EventExpr) -> set[str]:
    out: set[str] = set()

    def walk(node: EventExpr) -> None:
        if isinstance(node, Atomic):
            if node.var:
                out.add(node.var)
        elif isinstance(node, (Seq, AndExpr, Or)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Not):
            # the absent slot only blocks; its bindings never reach a match
            walk(node.opener)
            walk(node.closer)
        elif isinstance(node, Times):
            pass  # grouped occurrences drop inner bindings
    walk(expr)
    return out


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
