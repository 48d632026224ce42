"""Terms, conditions, fact unification, and the journaled knowledge base."""

import dataclasses
import itertools
import pickle
import random

import pytest

from reactor import (
    And,
    Any,
    AssertAction,
    Atomic,
    Comparison,
    Condition,
    EffectDecl,
    EffectMode,
    EmitAction,
    EventTypeId,
    Fact,
    FactLookup,
    FactTemplate,
    FieldRef,
    FluentHistory,
    HoldsAtom,
    Interval,
    InvalidRule,
    KnowledgeBase,
    Lit,
    MissingField,
    NoopAction,
    Not,
    Or,
    ReactorError,
    RetractAction,
    Rule,
    RuleSet,
    RuleSyntaxError,
    Seq,
    Times,
    UnboundVariable,
    VarRef,
    apply_actions_txn,
    evaluate_condition,
    fact_sort_key,
    parse_rules,
    run_replay,
    validate_expr,
)
from reactor.algebra import EventExpr, _walk_expr
from reactor.rules import _getter

import reference_rules as ref
from helpers import make_event, random_expr

NAN, INF = float("nan"), float("inf")


class TestTerms:
    def test_literal(self):
        assert _getter(Lit(42))({}) == 42

    def test_bound_scalar_var(self):
        assert _getter(VarRef("x"))({"x": "hello"}) == "hello"

    def test_unbound_var(self):
        with pytest.raises(UnboundVariable):
            _getter(VarRef("x"))({})

    def test_bare_event_var_has_no_scalar_value(self):
        e = make_event("a", 1, {"k": 1}, id=1)
        with pytest.raises(MissingField):
            _getter(VarRef("x"))({"x": e})

    def test_field_access(self):
        e = make_event("a", 1, {"host": "w1"}, id=1)
        assert _getter(FieldRef("x", "host"))({"x": e}) == "w1"

    def test_missing_field(self):
        e = make_event("a", 1, {"host": "w1"}, id=1)
        with pytest.raises(MissingField):
            _getter(FieldRef("x", "port"))({"x": e})

    def test_field_access_on_scalar(self):
        with pytest.raises(MissingField):
            _getter(FieldRef("x", "host"))({"x": 5})

    def test_field_access_on_unbound(self):
        with pytest.raises(UnboundVariable):
            _getter(FieldRef("x", "host"))({})


class TestKnowledgeBase:
    def test_initial_facts(self):
        kb = KnowledgeBase([Fact("p", ("a",)), Fact("q")])
        assert Fact("p", ("a",)) in kb
        assert Fact("q") in kb
        assert len(kb) == 2

    def test_commit_applies_and_journals(self):
        kb = KnowledgeBase()
        kb.commit([("assert", Fact("p", ("a",)))])
        kb.commit([("retract", Fact("p", ("a",))), ("assert", Fact("q"))])
        assert Fact("p", ("a",)) not in kb
        assert Fact("q") in kb
        assert len(kb.journal) == 2

    def test_journal_replay_reproduces_state(self):
        kb = KnowledgeBase([Fact("base")])
        kb.commit([("assert", Fact("p", (1,)))])
        kb.commit([("retract", Fact("base"))])
        kb.commit([("assert", Fact("r", ("x", "y")))])
        assert kb.replay_journal() == kb.snapshot()

    def test_facts_preserve_insertion_order(self):
        kb = KnowledgeBase([Fact("b"), Fact("a")])
        kb.commit([("assert", Fact("c"))])
        assert kb.facts() == [Fact("b"), Fact("a"), Fact("c")]

    def test_fact_repr(self):
        assert repr(Fact("emp", ("ann", "sales"))) == "emp('ann', 'sales')"
        assert repr(Fact("p")) == "p"
        # a name that is no str still gives a str, not a TypeError
        assert repr(Fact(5)) == "5"

    def test_fact_sort_key_orders_by_name_arity_args(self):
        facts = [Fact("b", (2,)), Fact("a", ("z",)), Fact("a"), Fact("a", ("y", 1))]
        ordered = sorted(facts, key=fact_sort_key)
        assert ordered == [Fact("a"), Fact("a", ("z",)), Fact("a", ("y", 1)), Fact("b", (2,))]


class TestComparisons:
    def kb(self):
        return KnowledgeBase()

    def check(self, lhs, op, rhs, bindings=None):
        cond = Condition((Comparison(lhs, op, rhs),))
        return bool(evaluate_condition(cond, bindings or {}, self.kb(), at=0))

    def test_equality(self):
        assert self.check(Lit(3), "=", Lit(3))
        assert not self.check(Lit(3), "=", Lit(4))

    def test_inequality(self):
        assert self.check(Lit("a"), "!=", Lit("b"))

    def test_ordering(self):
        assert self.check(Lit(2), "<", Lit(5))
        assert self.check(Lit(5), ">=", Lit(5))
        assert not self.check(Lit(5), ">", Lit(5))

    def test_cross_type_equality_is_false(self):
        assert not self.check(Lit(1), "=", Lit("1"))
        assert self.check(Lit(1), "!=", Lit("1"))

    def test_cross_type_ordering_fails_closed(self):
        # no exception, no match
        assert not self.check(Lit(1), "<", Lit("a"))
        assert not self.check(Lit("a"), "<", Lit(1))

    def test_numeric_int_float_compare(self):
        assert self.check(Lit(1), "<", Lit(1.5))

    def test_event_fields(self):
        e = make_event("m", 1, {"sev": 7}, id=1)
        assert self.check(FieldRef("x", "sev"), ">", Lit(5), {"x": e})


class TestBuildTimeChecks:
    """An API-built rule that the engine could not run is refused when it
    is built, not at its first firing."""

    @pytest.mark.parametrize("op", ["~", "==", "<>", "", None, 1])
    def test_unknown_comparison_op_refused(self, op):
        with pytest.raises(InvalidRule, match="unknown comparison op"):
            Comparison(Lit(1), op, Lit(2))

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_every_op_the_parser_reads_builds(self, op):
        rs = parse_rules(f"rule r: on a as ?x where ?x.v {op} 1 do noop")
        assert rs.rules[0].where.atoms[0].op == op

    @pytest.mark.parametrize(
        "actions",
        [("x",), (NoopAction(), 5), (NoopAction,), [NoopAction()], NoopAction()],
        ids=repr,
    )
    def test_action_that_is_no_action_refused(self, actions):
        with pytest.raises(InvalidRule, match="actions must be a tuple of actions"):
            Rule("r", Atomic(EventTypeId("a")), actions=actions)

    def test_refusal_is_a_typed_value_error(self):
        assert issubclass(InvalidRule, ReactorError)
        assert issubclass(InvalidRule, ValueError)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"where": "?x.v > 1"}, "where and post must be conditions"),
            ({"post": (FactLookup("p", ()),)}, "where and post must be conditions"),
            ({"where": Condition(("p",))}, "not a condition atom"),
            ({"where": Condition((Comparison("x", ">", Lit(1)),))}, "not a term"),
            ({"where": Condition((FactLookup("p", (VarRef("x"), "y")),))}, "not a term"),
            ({"actions": (AssertAction(FactTemplate("p", ("x",))),)}, "not a term"),
            ({"actions": (EmitAction("out", (("k", "x"),)),)}, "not a term"),
            ({"actions": (RetractAction(Fact("p", (1,))),)}, "not a fact template"),
            ({"actions": (EmitAction("out", (("k", Lit(NAN)),)),)}, "finite"),
            ({"actions": (EmitAction("out", (("k", Lit(INF)),)),)}, "finite"),
            ({"actions": (AssertAction(FactTemplate("p", (Lit(-INF),))),)}, "finite"),
            ({"actions": (AssertAction(FactTemplate("p", (Lit(NAN),))),)}, "finite"),
            ({"actions": (AssertAction(FactTemplate("p", (Lit([1]),))),)}, "finite"),
            ({"actions": (RetractAction(FactTemplate("p", (Lit(None),))),)}, "finite"),
            ({"post": Condition((Comparison(Lit({}), "=", Lit(1)),))}, "finite"),
        ],
        ids=repr,
    )
    def test_rule_that_could_not_run_refused(self, fields, match):
        with pytest.raises(InvalidRule, match=match):
            Rule("r", Atomic(EventTypeId("a"), "x"), **fields)

    # each row builds its fields afresh: a generator is spent by one use
    @pytest.mark.parametrize(
        "fields, match",
        [
            (lambda: {
                "where": Condition(iter((Comparison(Lit(1), "=", Lit(2)),))),
                "actions": (EmitAction("out", iter((("k", Lit(1)),))),),
            }, "condition atoms must be a tuple"),
            (lambda: {"post": Condition([HoldsAtom("f")])},
             "condition atoms must be a tuple"),
            (lambda: {"actions": (EmitAction("out", iter((("k", Lit(1)),))),)},
             r"an emit payload must be a tuple of \(str, term\) pairs"),
            (lambda: {"actions": (EmitAction("out", ((1, Lit(1)),)),)},
             r"an emit payload must be a tuple of \(str, term\) pairs, got \(\(1,"),
            (lambda: {"actions": (EmitAction("out", (("k",),)),)},
             r"an emit payload must be a tuple of \(str, term\) pairs"),
            # a Fact is a (name, args) tuple, but no (key, term) pair
            (lambda: {"actions": (EmitAction("out", (Fact("k", Lit(1)),)),)},
             r"an emit payload must be a tuple of \(str, term\) pairs, got <tuple with no"),
            (lambda: {"where": Condition((FactLookup("p", [VarRef("y")]),))},
             "fact terms must be a tuple"),
            (lambda: {"actions": (RetractAction(FactTemplate("p", iter(()))),)},
             "fact terms must be a tuple"),
            (lambda: {"actions": (AssertAction(FactTemplate(5, ())),)},
             "a fact name must be a non-empty str, got 5"),
            (lambda: {"actions": (AssertAction(FactTemplate("", ())),)},
             "a fact name must be a non-empty str"),
            (lambda: {"where": Condition((FactLookup(None, ()),))},
             "a fact name must be a non-empty str"),
            (lambda: {"where": Condition((FactLookup("p", (VarRef(5),)),))},
             "a variable name must be a str, got 5"),
            (lambda: {"where": Condition((Comparison(FieldRef([], "v"), "=", Lit(1)),))},
             r"a variable name must be a str, got \[\]"),
        ],
        ids=[
            "generator-condition-and-emit-payload", "list-atoms",
            "generator-emit-payload", "int-payload-key", "payload-entry-no-pair",
            "fact-as-payload-pair",
            "list-lookup-terms", "generator-template-terms", "int-template-name",
            "empty-template-name", "none-lookup-name", "int-variable-name",
            "list-field-variable-name",
        ],
    )
    def test_sequence_name_or_key_that_could_not_run_refused(self, fields, match):
        with pytest.raises(InvalidRule, match=match):
            Rule("r", Atomic(EventTypeId("a"), "x"), **fields())

    # test_parser.py's UnboundVariable rows, each as text and built through
    # the API: the one check in Rule gives both the same class and text
    @pytest.mark.parametrize(
        "text, fields, msg",
        [
            ("rule r: on a where ?x = 1 do noop",
             {"where": Condition((Comparison(VarRef("x"), "=", Lit(1)),))},
             "?x is not bound by the rule"),
            ("rule r: on a where not fact(p, ?x) do noop",
             {"where": Condition((FactLookup("p", (VarRef("x"),), negated=True),))},
             "?x in a negated lookup is not bound elsewhere"),
            ("rule r: on a where fact(p, ?z.f) do noop",
             {"where": Condition((FactLookup("p", (FieldRef("z", "f"),)),))},
             "?z is not bound by the rule"),
            ("rule r: on a do emit(b, {v: ?y})",
             {"actions": (EmitAction("b", (("v", VarRef("y")),)),)},
             "?y is not bound by the rule"),
            ("rule r: on a as ?e do noop post fact(p, ?n) and ?n < ?m",
             {"on": Atomic(EventTypeId("a"), "e"), "post": Condition((
                 FactLookup("p", (VarRef("n"),)),
                 Comparison(VarRef("n"), "<", VarRef("m")),
             ))},
             "?m is not bound by the rule"),
            # a lookup binds a variable from its own term on, not before
            ("rule r: on a where fact(p, ?x.f, ?x) do noop",
             {"where": Condition((FactLookup("p", (FieldRef("x", "f"), VarRef("x"))),))},
             "?x is not bound by the rule"),
        ],
    )
    def test_unbound_variable_refused_from_text_and_api(self, text, fields, msg):
        with pytest.raises(UnboundVariable) as ei:
            parse_rules(text)
        assert str(ei.value) == msg
        fields = {"on": Atomic(EventTypeId("a")), "actions": (NoopAction(),), **fields}
        with pytest.raises(UnboundVariable) as ei:
            Rule("r", **fields)
        assert str(ei.value) == msg

    @pytest.mark.parametrize(
        "on, var",
        [
            (Times(2, Atomic(EventTypeId("a"), "x")), "x"),
            (Not(Atomic(EventTypeId("m"), "m"), Atomic(EventTypeId("a")),
                 Atomic(EventTypeId("b"))), "m"),
        ],
        ids=["times", "absent-slot"],
    )
    def test_binding_no_match_carries_refused(self, on, var):
        tpl = FactTemplate("p", (FieldRef(var, "id"),))
        with pytest.raises(UnboundVariable, match=f"\\?{var} is not bound"):
            Rule("r", on, actions=(AssertAction(tpl),))

    def test_variable_of_either_or_branch_counts_as_bound(self):
        # a firing from the other branch leaves it unbound: that is a firing
        # fault, with an audit record, not a build-time refusal
        on = Or(Atomic(EventTypeId("a"), "x"), Atomic(EventTypeId("b"), "y"))
        where = Condition((Comparison(FieldRef("x", "v"), "=", FieldRef("y", "v")),))
        Rule("r", on, where=where, actions=(NoopAction(),))

    def test_literal_itself_stays_constructible(self):
        # evaluating it directly is how the fact-store differential tests NaN
        assert Lit(NAN).value != Lit(NAN).value
        assert _getter(Lit(INF))({}) == INF

    def test_every_literal_kind_builds(self):
        lits = tuple(("k" + str(i), Lit(v)) for i, v in enumerate(["s", 1, 2.5, True]))
        rule = Rule("r", Atomic(EventTypeId("a")), actions=(EmitAction("out", lits),))
        assert rule.actions[0].payload == lits

    @pytest.mark.parametrize(
        "type_name, match",
        [
            ("assert:p", "emit cannot raise reserved type 'assert:p'"),
            ("retract:p", "emit cannot raise reserved type 'retract:p'"),
            ("timer", "emit cannot raise reserved type 'timer'"),
            ("", "emit type name must be a non-empty str"),
            (None, "emit type name must be a non-empty str"),
            (EventTypeId("out"), "emit type name must be a non-empty str"),
        ],
        ids=repr,
    )
    def test_emit_of_reserved_or_malformed_type_refused(self, type_name, match):
        with pytest.raises(InvalidRule, match=match):
            EmitAction(type_name, ())

    @pytest.mark.parametrize("type_name", ["assert:p", "retract:p", "timer"])
    def test_parser_reports_reserved_emit_at_the_type(self, type_name):
        text = f"rule r: on a do emit({type_name}, {{k: 1}})"
        with pytest.raises(RuleSyntaxError) as info:
            parse_rules(text)
        err = info.value
        assert str(err) == (
            f"emit cannot raise reserved type {type_name!r} (line 1, column 22)"
        )
        assert (err.line, err.column) == (1, text.index(type_name) + 1)

    # a number or a tuple id would reach the report as a JSON number or
    # fail its encoder; a list fluent is unhashable at the first firing
    @pytest.mark.parametrize("rule_id", [5, (1, 2), "", None], ids=repr)
    def test_rule_id_that_is_no_name_refused(self, rule_id):
        with pytest.raises(InvalidRule, match="a rule id must be a non-empty str"):
            Rule(rule_id, Atomic(EventTypeId("a")), actions=(NoopAction(),))

    @pytest.mark.parametrize("fluent", [["x"], "", 5, None], ids=repr)
    def test_holds_of_no_fluent_name_refused(self, fluent):
        where = Condition((HoldsAtom(fluent),))
        with pytest.raises(InvalidRule, match="a fluent name must be a non-empty str"):
            Rule("r", Atomic(EventTypeId("a")), where=where, actions=(NoopAction(),))

    def test_rule_pickles_and_compiles_again(self):
        (rule,) = parse_rules(
            "rule r: on a as ?e where fact(p, ?x) and ?e.v > ?x do emit(b, {w: ?x})"
            " select last window 5"
        ).rules
        copy = pickle.loads(pickle.dumps(rule))
        assert copy == rule and copy.type_names == rule.type_names
        assert copy.plan is not rule.plan
        kb = KnowledgeBase([Fact("p", (1,)), Fact("p", (3,))])
        sol = {"e": make_event("a", 1, {"v": 2}, id=1)}
        (got,) = evaluate_condition(copy.plan[0], sol, kb, 1)
        assert got == evaluate_condition(rule.where, sol, kb, 1)[0] == {**sol, "x": 1}

    def test_direct_evaluation_refuses_what_rule_would(self):
        kb = KnowledgeBase()
        with pytest.raises(InvalidRule, match="not a condition atom"):
            evaluate_condition(Condition(("p",)), {}, kb, at=0)
        with pytest.raises(InvalidRule, match="not a term"):
            _getter("x")({})
        with pytest.raises(InvalidRule, match="not an action: 'x'"):
            apply_actions_txn(("x",), {}, kb, at=1)
        assert kb.facts() == [] and kb.journal == []


class TestBinderWalk:
    """validate_expr's walk names the variables a match can bind exactly as
    the separate walk Rule used before it (tests/reference_rules.py)."""

    @staticmethod
    def with_vars(rng, node, fresh):
        """``node`` with a fresh variable on some of its atomics."""
        if isinstance(node, Atomic):
            return Atomic(node.type, next(fresh)) if rng.random() < 0.6 else node
        return dataclasses.replace(node, **{
            f.name: TestBinderWalk.with_vars(rng, getattr(node, f.name), fresh)
            for f in dataclasses.fields(node)
            if isinstance(getattr(node, f.name), EventExpr)
        })

    def test_binders_agree_with_the_reference(self):
        rng = random.Random(20260819)
        ops, bound, unbound = set(), 0, 0
        for _ in range(3000):
            fresh = (f"v{i}" for i in itertools.count())
            expr = self.with_vars(rng, random_expr(rng, depth=4), fresh)
            names, binders = _walk_expr(expr)
            assert binders == ref._bindable(expr), expr
            assert names == validate_expr(expr)
            todo, variables = [expr], set()
            while todo:
                node = todo.pop()
                ops.add(type(node))
                if isinstance(node, Atomic) and node.var:
                    variables.add(node.var)
                todo += [getattr(node, f.name) for f in dataclasses.fields(node)
                         if isinstance(getattr(node, f.name), EventExpr)]
            bound += len(binders)
            unbound += len(variables - binders)
        # every operator took part, and variables both did and did not bind
        assert ops == {Atomic, Seq, And, Or, Not, Any, Times}
        assert bound > 1000 and unbound > 1000

    @pytest.mark.parametrize(
        "on, binders",
        [
            (Or(Atomic(EventTypeId("a"), "x"), Atomic(EventTypeId("b"), "y")), {"x", "y"}),
            (Not(Atomic(EventTypeId("m"), "m"), Atomic(EventTypeId("a"), "o"),
                 Atomic(EventTypeId("b"), "c")), {"o", "c"}),
            (Times(2, Seq(Atomic(EventTypeId("a"), "x"), Atomic(EventTypeId("b")))), set()),
            (And(Any(1, (EventTypeId("a"),)), Atomic(EventTypeId("b"), "y")), {"y"}),
        ],
        ids=["or", "not", "times", "any"],
    )
    def test_binders_of_each_operator(self, on, binders):
        assert _walk_expr(on)[1] == ref._bindable(on) == binders


RULE = Rule("r", Atomic(EventTypeId("a")), actions=(NoopAction(),))
EFFECT = EffectDecl("a", EffectMode.INITIATES, "f")


class TestRuleSetParts:
    """A rule set takes tuples only: a generator would be spent by its own
    duplicate checks and leave the engine no rules."""

    # each row builds its parts afresh: a generator is spent by one use
    @pytest.mark.parametrize(
        "parts, match",
        [
            (lambda: ((x for x in (RULE,)),), "tuple of Rules"),
            (lambda: (("x",),), r"tuple of Rules, got \('x',\)"),
            (lambda: ([RULE],), "tuple of Rules"),
            (lambda: (RULE,), "tuple of Rules"),
            (lambda: ((RULE,), [EFFECT]), "tuple of EffectDecls"),
            (lambda: ((RULE,), (x for x in (EFFECT,))), "tuple of EffectDecls"),
            (lambda: ((RULE,), (("a", EffectMode.INITIATES, "f"),)),
             "tuple of EffectDecls"),
        ],
        ids=[
            "generator-rules", "str-rule", "list-rules", "bare-rule",
            "list-effects", "generator-effects", "tuple-effect",
        ],
    )
    def test_part_that_is_no_tuple_of_its_kind_refused(self, parts, match):
        with pytest.raises(InvalidRule, match=match):
            RuleSet(*parts())

    def test_tuples_build_and_run(self):
        report = run_replay(RuleSet((RULE,), (EFFECT,)), [make_event("a", 1, id=1)])
        assert [r.rule_id for r in report.records] == ["r"]
        assert report.fluents == {"f": (Interval(1, None),)}


class TestFactLookup:
    def kb(self):
        return KnowledgeBase(
            [Fact("emp", ("ann", "sales")), Fact("emp", ("bob", "sales")),
             Fact("emp", ("cyd", "ops")), Fact("muted", ("w9",))]
        )

    def test_fresh_var_binds_each_match(self):
        cond = Condition((FactLookup("emp", (VarRef("n"), Lit("sales"))),))
        sols = evaluate_condition(cond, {}, self.kb(), at=0)
        assert sorted(s["n"] for s in sols) == ["ann", "bob"]

    def test_bound_var_filters(self):
        cond = Condition((FactLookup("emp", (VarRef("n"), VarRef("d"))),))
        sols = evaluate_condition(cond, {"d": "ops"}, self.kb(), at=0)
        assert [s["n"] for s in sols] == ["cyd"]

    def test_join_across_lookups(self):
        # ?n works in sales and some ?m shares the department: 2x2 pairs
        cond = Condition((
            FactLookup("emp", (VarRef("n"), Lit("sales"))),
            FactLookup("emp", (VarRef("m"), Lit("sales"))),
        ))
        sols = evaluate_condition(cond, {}, self.kb(), at=0)
        assert len(sols) == 4

    def test_repeated_var_must_unify(self):
        kb = KnowledgeBase([Fact("edge", ("a", "a")), Fact("edge", ("a", "b"))])
        cond = Condition((FactLookup("edge", (VarRef("x"), VarRef("x"))),))
        sols = evaluate_condition(cond, {}, kb, at=0)
        assert [s["x"] for s in sols] == ["a"]

    def test_arity_must_match(self):
        cond = Condition((FactLookup("emp", (VarRef("n"),)),))
        assert evaluate_condition(cond, {}, self.kb(), at=0) == []

    def test_negation_as_failure(self):
        absent = Condition((FactLookup("muted", (Lit("w1"),), negated=True),))
        present = Condition((FactLookup("muted", (Lit("w9"),), negated=True),))
        assert evaluate_condition(absent, {}, self.kb(), at=0)
        assert evaluate_condition(present, {}, self.kb(), at=0) == []

    def test_negation_does_not_bind(self):
        cond = Condition((FactLookup("nothere", (VarRef("v"),), negated=True),))
        sols = evaluate_condition(cond, {}, self.kb(), at=0)
        assert sols == [{}]

    def test_vacuous_condition(self):
        assert evaluate_condition(None, {"x": 1}, self.kb(), at=0) == [{"x": 1}]
        assert evaluate_condition(Condition(()), {}, self.kb(), at=0) == [{}]


class TestHolds:
    def test_holds_queries_fluents_at_time(self):
        fl = FluentHistory(
            (
                EffectDecl("up", EffectMode.INITIATES, "f"),
                EffectDecl("down", EffectMode.TERMINATES, "f"),
            )
        )
        fl.record(make_event("up", 2, id=1))
        fl.record(make_event("down", 6, id=2))
        cond = Condition((HoldsAtom("f"),))
        kb = KnowledgeBase()
        assert evaluate_condition(cond, {}, kb, at=3, fluents=fl)
        assert evaluate_condition(cond, {}, kb, at=6, fluents=fl) == []

    def test_holds_without_history_fails(self):
        cond = Condition((HoldsAtom("f"),))
        assert evaluate_condition(cond, {}, KnowledgeBase(), at=0, fluents=None) == []


class TestConjunction:
    def test_left_to_right_chaining(self):
        kb = KnowledgeBase([Fact("emp", ("ann", "sales")), Fact("dept", ("sales", "hq"))])
        cond = Condition((
            FactLookup("emp", (VarRef("n"), VarRef("d"))),
            FactLookup("dept", (VarRef("d"), VarRef("site"))),
            Comparison(VarRef("site"), "=", Lit("hq")),
        ))
        sols = evaluate_condition(cond, {}, kb, at=0)
        assert sols == [{"n": "ann", "d": "sales", "site": "hq"}]

    def test_failing_atom_empties_solutions(self):
        kb = KnowledgeBase([Fact("p", (1,))])
        cond = Condition((
            FactLookup("p", (VarRef("x"),)),
            Comparison(VarRef("x"), ">", Lit(10)),
        ))
        assert evaluate_condition(cond, {}, kb, at=0) == []
