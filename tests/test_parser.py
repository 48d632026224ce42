"""The rule source language: lexing, grammar, and static validation."""

import sys

import pytest

from reactor import (
    And,
    Any,
    Atomic,
    Comparison,
    ConsumptionPolicy,
    DuplicateEffect,
    DuplicateRuleId,
    EffectMode,
    EmitAction,
    Engine,
    EventTypeId,
    FactLookup,
    FieldRef,
    HoldsAtom,
    Lit,
    Not,
    NoopAction,
    Or,
    RetractAction,
    RuleSyntaxError,
    SelectionPolicy,
    Seq,
    Times,
    UnboundVariable,
    is_reserved_type,
    parse_expr,
    parse_rules,
)
from reactor.cli import main as cli_main


def rule1(text):
    rs = parse_rules(text)
    assert len(rs.rules) == 1
    return rs.rules[0]


class TestEventExpressions:
    def test_atomic(self):
        assert parse_expr("outage") == Atomic(EventTypeId("outage"))

    def test_atomic_with_binding(self):
        assert parse_expr("outage as ?o") == Atomic(EventTypeId("outage"), "o")

    def test_nested_operators(self):
        got = parse_expr("seq(a, or(b as ?x, and(c, d)))")
        assert got == Seq(
            Atomic(EventTypeId("a")),
            Or(
                Atomic(EventTypeId("b"), "x"),
                And(Atomic(EventTypeId("c")), Atomic(EventTypeId("d"))),
            ),
        )

    def test_not_takes_three_slots(self):
        got = parse_expr("not(x, a, b)")
        assert got == Not(
            Atomic(EventTypeId("x")), Atomic(EventTypeId("a")), Atomic(EventTypeId("b"))
        )

    def test_any_with_type_list(self):
        got = parse_expr("any(2, a, b, c)")
        assert got == Any(2, (EventTypeId("a"), EventTypeId("b"), EventTypeId("c")))

    def test_times(self):
        got = parse_expr("times(4, outage)")
        assert got == Times(4, Atomic(EventTypeId("outage")))

    def test_internal_type_atomics(self):
        got = parse_expr("retract:dept as ?d")
        assert got == Atomic(EventTypeId("retract:dept"), "d")
        assert is_reserved_type(got.type.name)

    def test_operator_names_usable_as_types(self):
        # an ident named like an operator is atomic unless followed by (
        assert parse_expr("seq") == Atomic(EventTypeId("seq"))

    def test_trailing_input_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_expr("a b")

    def test_arity_errors_are_positional(self):
        with pytest.raises(RuleSyntaxError) as ei:
            parse_expr("any(3, a, b)")
        # anchored at the expression start
        assert ei.value.line == 1 and ei.value.column == 1

    def test_missing_comma(self):
        with pytest.raises(RuleSyntaxError):
            parse_expr("seq(a b)")


class TestRuleGrammar:
    def test_minimal_rule(self):
        r = rule1("rule r: on a do noop")
        assert r.id == "r"
        assert r.on == Atomic(EventTypeId("a"))
        assert r.where is None and r.post is None
        assert r.actions == (NoopAction(),)
        assert r.selection is SelectionPolicy.FIRST
        assert r.consumption is ConsumptionPolicy.SINGLE
        assert r.window is None

    def test_full_rule(self):
        r = rule1(
            "rule esc: on seq(outage as ?o, outage as ?p)\n"
            "  where ?o.host = ?p.host and not fact(muted, ?o.host)\n"
            '  do assert(incident(?o.host)), emit(alert, {src: ?o.host sev: 2})\n'
            "  post fact(incident, ?o.host)\n"
            "  select last consume multiple window 30\n"
        )
        assert r.selection is SelectionPolicy.LAST
        assert r.consumption is ConsumptionPolicy.MULTIPLE
        assert r.window == 30
        assert len(r.where.atoms) == 2
        assert isinstance(r.where.atoms[0], Comparison)
        lookup = r.where.atoms[1]
        assert isinstance(lookup, FactLookup) and lookup.negated
        emit = r.actions[1]
        assert isinstance(emit, EmitAction)
        assert emit.payload == (("src", FieldRef("o", "host")), ("sev", Lit(2)))
        assert r.post is not None

    def test_comments_and_blank_lines(self):
        r = rule1("# header\n\nrule r: on a  # trailing\n  do noop\n")
        assert r.id == "r"

    def test_multiple_rules_and_effects(self):
        rs = parse_rules(
            "effect start_shift initiates on_duty\n"
            "effect end_shift terminates on_duty\n"
            "rule r1: on a do noop\n"
            "rule r2: on b do noop\n"
        )
        assert [r.id for r in rs.rules] == ["r1", "r2"]
        assert [(e.type_name, e.mode, e.fluent) for e in rs.effects] == [
            ("start_shift", EffectMode.INITIATES, "on_duty"),
            ("end_shift", EffectMode.TERMINATES, "on_duty"),
        ]

    def test_retract_template_with_fields(self):
        r = rule1("rule r: on dept_closed as ?c do retract(dept(?c.name))")
        act = r.actions[0]
        assert isinstance(act, RetractAction)
        assert act.fact.name == "dept"
        assert act.fact.terms == (FieldRef("c", "name"),)

    def test_zero_arity_template(self):
        r = rule1("rule r: on a do assert(flag)")
        assert r.actions[0].fact.terms == ()

    def test_emit_payload_commas_optional(self):
        r1 = rule1('rule r: on a as ?e do emit(out, {x: 1, y: 2})')
        r2 = rule1('rule r: on a as ?e do emit(out, {x: 1 y: 2})')
        assert r1.actions == r2.actions

    def test_empty_emit_payload(self):
        r = rule1("rule r: on a do emit(out, {})")
        assert r.actions[0].payload == ()

    def test_holds_atom(self):
        r = rule1("rule r: on timer where holds(on_duty) do noop")
        assert r.where.atoms == (HoldsAtom("on_duty"),)

    def test_bool_and_negative_literals(self):
        r = rule1("rule r: on a as ?e where ?e.up = true and ?e.delta > -4 do noop")
        cmp1, cmp2 = r.where.atoms
        assert cmp1.rhs == Lit(True)
        assert cmp2.rhs == Lit(-4)

    def test_string_escapes(self):
        r = rule1('rule r: on a where "x\\"y" != "a\\nb" do noop')
        assert r.where.atoms[0].lhs == Lit('x"y')

    def test_bare_ident_is_string_symbol(self):
        r = rule1("rule r: on a as ?e where ?e.dept = sales do noop")
        assert r.where.atoms[0].rhs == Lit("sales")

    def test_decimal_literal(self):
        r = rule1("rule r: on a as ?e where ?e.load > 0.75 do noop")
        assert r.where.atoms[0].rhs == Lit(0.75)


class TestStaticValidation:
    def test_duplicate_rule_id(self):
        with pytest.raises(DuplicateRuleId):
            parse_rules("rule r: on a do noop rule r: on b do noop")

    def test_duplicate_effect(self):
        with pytest.raises(DuplicateEffect) as ei:
            parse_rules("effect e initiates f\neffect e initiates f\n")
        assert str(ei.value) == "effect e initiates f declared twice"

    def test_unbound_action_variable(self):
        with pytest.raises(UnboundVariable) as ei:
            parse_rules("rule r: on a as ?x do assert(p(?y))")
        assert "?y" in str(ei.value)

    def test_unbound_comparison_variable(self):
        with pytest.raises(UnboundVariable):
            parse_rules("rule r: on a where ?z = 1 do noop")

    def test_unbound_negated_lookup_variable(self):
        # negation never binds; its variables must come from elsewhere
        with pytest.raises(UnboundVariable):
            parse_rules("rule r: on a where not fact(p, ?z) do noop")

    def test_positive_lookup_binds_for_later_atoms(self):
        parse_rules('rule r: on a where fact(emp, ?n) and ?n != "bob" do assert(seen(?n))')

    def test_post_sees_event_and_where_bindings(self):
        parse_rules(
            "rule r: on a as ?e where fact(p, ?x) do noop post fact(q, ?x, ?e.k)"
        )

    def test_times_bindings_are_dropped(self):
        with pytest.raises(UnboundVariable):
            parse_rules("rule r: on times(2, a as ?x) do assert(p(?x))")

    def test_absent_slot_bindings_unavailable(self):
        with pytest.raises(UnboundVariable):
            parse_rules("rule r: on not(m as ?m, a, b) do assert(p(?m.id))")
        parse_rules("rule r: on not(m, a as ?a, b) do assert(p(?a.id))")

    def test_duplicate_binding_variable(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("rule r: on seq(a as ?x, b as ?x) do noop")

    def test_emit_reserved_type_rejected(self):
        for bad in ("timer", "assert:p", "retract:p"):
            with pytest.raises(RuleSyntaxError):
                parse_rules(f"rule r: on a do emit({bad}, {{}})")

    def test_window_must_be_positive(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("rule r: on a do noop window 0")


class TestSyntaxErrorPositions:
    def test_line_and_column_reported(self):
        with pytest.raises(RuleSyntaxError) as ei:
            parse_rules("rule r: on a\n  do assert(\n")
        assert ei.value.line == 3  # ident expected after the open paren

    def test_unterminated_string(self):
        with pytest.raises(RuleSyntaxError) as ei:
            parse_rules('rule r: on a where ?q = "x do noop')
        assert ei.value.line == 1 and ei.value.column == 25

    def test_unexpected_character(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("rule r: on a do noop $")

    def test_bad_variable_token(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("rule r: on a as ?1 do noop")

    def test_lone_bang(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("rule r: on a where 1 ! 2 do noop")


class TestMessages:
    """The choice and boundness errors read as they always have."""

    @pytest.mark.parametrize(
        "text, error, msg",
        [
            ("rule r: on a do noop select most", RuleSyntaxError,
             "expected 'first', 'last' or 'all' (line 1, column 29)"),
            ("rule r: on a do noop consume once", RuleSyntaxError,
             "expected 'single' or 'multiple' (line 1, column 30)"),
            ("effect a starts f", RuleSyntaxError,
             "expected 'initiates' or 'terminates' (line 1, column 10)"),
            ("rule r: on a where ?x = 1 do noop", UnboundVariable,
             "?x is not bound by the rule"),
            ("rule r: on a where not fact(p, ?x) do noop", UnboundVariable,
             "?x in a negated lookup is not bound elsewhere"),
            ("rule r: on a where fact(p, ?z.f) do noop", UnboundVariable,
             "?z is not bound by the rule"),
            ("rule r: on a do emit(b, {v: ?y})", UnboundVariable,
             "?y is not bound by the rule"),
            ("rule r: on a as ?e do noop post fact(p, ?n) and ?n < ?m", UnboundVariable,
             "?m is not bound by the rule"),
        ],
    )
    def test_message(self, text, error, msg):
        with pytest.raises(error) as ei:
            parse_rules(text)
        assert str(ei.value) == msg

    @pytest.mark.parametrize(
        "text, msg, line, column",
        [
            ("rule r: on a do noop\nfoo", "expected 'rule' or 'effect'", 2, 1),
            ("rule r: on any(1) do noop", "any needs at least one event type", 1, 16),
            ("rule r: on a where 1 = ) do noop", "expected a term", 1, 24),
            ("rule r: on a do explode",
             "expected an action (assert / retract / emit / noop)", 1, 17),
        ],
    )
    def test_syntax_message_and_position(self, text, msg, line, column):
        with pytest.raises(RuleSyntaxError) as ei:
            parse_rules(text)
        assert str(ei.value) == f"{msg} (line {line}, column {column})"
        assert (ei.value.line, ei.value.column) == (line, column)


HUGE_INT = "9" * (sys.get_int_max_str_digits() + 1)
HUGE_DECIMAL = "1" * 400 + ".0"  # float() reads it as inf
TINY_DECIMAL = "0." + "0" * 400 + "1"  # float() reads it as 0.0


class TestNumerals:
    """A numeral is ASCII digits in range, or the text is refused at it."""

    REFUSED = [
        (HUGE_INT, "integer literal out of range"),
        ("-" + HUGE_DECIMAL, "decimal literal out of range"),
        (TINY_DECIMAL, "decimal literal out of range"),
        ("²", "unexpected character '²'"),  # str.isdigit, but int() refuses it
        ("٣", "unexpected character '٣'"),  # was read as 3
    ]
    REFUSED_IDS = [
        "long-int", "inf-decimal", "underflow-decimal", "superscript-digit", "arabic-digit",
    ]

    @pytest.mark.parametrize("literal, msg", REFUSED, ids=REFUSED_IDS)
    def test_refused_at_the_literal(self, literal, msg):
        with pytest.raises(RuleSyntaxError) as ei:
            parse_rules(f"rule r: on a as ?e\n  where ?e.v = {literal} do noop")
        assert msg in str(ei.value)
        assert (ei.value.line, ei.value.column) == (2, 16)

    @pytest.mark.parametrize("literal, msg", REFUSED, ids=REFUSED_IDS)
    def test_cli_exits_2(self, literal, msg, tmp_path, capsys):
        rules = tmp_path / "r.rr"
        rules.write_text(f"rule r: on a do assert(p({literal}))\n", encoding="utf-8")
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"type": "a", "time": 1}\n')
        for args in (
            ["check", "--rules", str(rules)],
            ["run", "--rules", str(rules), "--trace", str(trace)],
            ["oracle", "--expr", f"times({literal}, a)", "--trace", str(trace)],
        ):
            assert cli_main(args) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and msg in captured.err
            assert "Traceback" not in captured.err and captured.out == ""


def nested_seq(depth):
    return "seq(" * depth + "a" + ", b)" * depth


class TestNestingDepth:
    def test_limit_is_accepted_by_every_pass(self):
        rs = parse_rules(f"rule r: on {nested_seq(100)} do noop")
        Engine(rs).ingest("a", 1)  # validation, detector build and a feed
        assert parse_expr(nested_seq(100)) == rs.rules[0].on

    def test_one_deeper_is_refused_at_the_operator(self):
        with pytest.raises(RuleSyntaxError) as ei:
            parse_expr(nested_seq(101))
        assert "nested deeper than 100" in str(ei.value)
        assert (ei.value.line, ei.value.column) == (1, 1 + len("seq(") * 100)

    def test_deep_rule_fails_closed(self, tmp_path, capsys):
        text = f"rule r: on {nested_seq(2000)} do noop\n"
        with pytest.raises(RuleSyntaxError):
            parse_rules(text)
        rules = tmp_path / "deep.rr"
        rules.write_text(text)
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"type": "a", "time": 1}\n')
        assert cli_main(["check", "--rules", str(rules)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested deeper than 100" in err
        assert "Traceback" not in err
        args = ["oracle", "--expr", nested_seq(2000), "--trace", str(trace)]
        assert cli_main(args) == 2
        assert "nested deeper than 100" in capsys.readouterr().err
