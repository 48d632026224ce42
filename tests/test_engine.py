"""Transactions, reaction dispatch, chaining, and the triggering graph."""

import random
import sys
from types import MappingProxyType

import pytest

from reactor import (
    Any,
    AssertAction,
    Atomic,
    ChainLimitExceeded,
    Comparison,
    Condition,
    ConsumptionPolicy,
    Detector,
    DetectorConfig,
    EffectDecl,
    EffectMode,
    EmitAction,
    Engine,
    EventTypeId,
    Fact,
    FactLookup,
    FactTemplate,
    FieldRef,
    FluentHistory,
    InvalidConfig,
    InvalidEvent,
    InvalidExpression,
    InvalidPeriod,
    InvalidRule,
    Interval,
    Lit,
    NonFinitePayload,
    NoopAction,
    Not,
    OutOfOrderEvent,
    RetractAction,
    Rule,
    RuleSet,
    SelectionPolicy,
    Seq,
    TemplateError,
    Times,
    TxnOutcome,
    VarRef,
    apply_actions_txn,
    is_reserved_type,
    occurrences,
    parse_rules,
    run_replay,
    triggering_graph,
    validate_expr,
)
import reactor.engine
from reactor.model import intern_type
from reactor.rules import KnowledgeBase

import reference_report
from helpers import MALFORMED_EVENTS, TYPES, make_event, random_expr, random_history


def on(name, var=None):
    return Atomic(EventTypeId(name), var)


# payloads that are neither None nor a mapping; kept apart from
# MALFORMED_EVENTS, which tests/test_loader.py also writes as trace lines
NON_MAPPING_PAYLOADS = [5, "xy", [("v", 1)], 0, "", [], (), b"v"]

# type a three ways: a rule lists it, only an effect names it, nothing does;
# each set also has a rule on b, so a later b shows the ids taken before it
NAMINGS = {
    "routed": "rule r: on b do assert(seen), emit(c, {})\nrule s: on a do noop",
    "effect-only": "rule r: on b do assert(seen), emit(c, {})\neffect a initiates f",
    "unnamed": "rule r: on b do assert(seen), emit(c, {})",
}

# firings that their own data fails, each on the rule's trigger type
FAULTY_RULES = {
    "post-missing-field": ("rule r: on a as ?x do assert(bad) post ?x.w = 1", "a"),
    "post-unbound-or-branch": (
        "rule r: on or(a as ?x, b) do assert(bad) post ?x.v = 1", "b"
    ),
    "where-unbound-or-branch": (
        "rule r: on or(a as ?x, b as ?y) where ?x.v = 1 do assert(bad)", "b"
    ),
}


class TestInstantiateFact:
    """A fact template is grounded where its action runs."""

    @staticmethod
    def instantiate(tpl, bindings):
        kb = KnowledgeBase()
        apply_actions_txn((AssertAction(tpl),), bindings, kb)
        (fact,) = kb.facts()
        return fact

    def test_grounds_templates(self):
        e = make_event("dept_closed", 4, {"name": "sales"}, id=1)
        tpl = FactTemplate("dept", (FieldRef("c", "name"),))
        assert self.instantiate(tpl, {"c": e}) == Fact("dept", ("sales",))

    def test_missing_field_becomes_template_error(self):
        e = make_event("dept_closed", 4, {}, id=1)
        tpl = FactTemplate("dept", (FieldRef("c", "name"),))
        with pytest.raises(TemplateError):
            self.instantiate(tpl, {"c": e})

    def test_unbound_variable_becomes_template_error(self):
        tpl = FactTemplate("dept", (VarRef("missing"),))
        with pytest.raises(TemplateError):
            self.instantiate(tpl, {})


class TestTransactions:
    def test_commit_raises_update_event(self):
        kb = KnowledgeBase()
        e = make_event("dept_created", 5, {"name": "sales"}, id=1)
        outcome, events = apply_actions_txn(
            [AssertAction(FactTemplate("dept", (FieldRef("c", "name"),)))],
            {"c": e},
            kb,
            at=5,
        )
        assert outcome is TxnOutcome.COMMITTED
        assert Fact("dept", ("sales",)) in kb
        (ev,) = events
        assert ev.type.name == "assert:dept"
        assert is_reserved_type(ev.type.name)
        assert ev.time == 5
        assert ev.payload == {"arg0": "sales"}
        assert len(kb.journal) == 1

    def test_failed_postcondition_rolls_back(self):
        kb = KnowledgeBase([Fact("stock", ("w1",))])
        before = kb.snapshot()
        outcome, events = apply_actions_txn(
            [AssertAction(FactTemplate("order", (Lit("o1"),)))],
            {},
            kb,
            post=Condition((FactLookup("approved", (Lit("o1"),)),)),
            at=3,
        )
        assert outcome is TxnOutcome.ROLLED_BACK
        assert events == []
        assert kb.snapshot() == before
        assert kb.journal == []  # nothing committed, nothing journaled
        assert kb.replay_journal() == before

    def test_postcondition_sees_transaction_effects(self):
        kb = KnowledgeBase()
        outcome, _ = apply_actions_txn(
            [AssertAction(FactTemplate("p", ()))],
            {},
            kb,
            post=Condition((FactLookup("p", ()),)),
            at=0,
        )
        assert outcome is TxnOutcome.COMMITTED

    def test_redundant_assert_raises_no_event(self):
        kb = KnowledgeBase([Fact("p")])
        outcome, events = apply_actions_txn(
            [AssertAction(FactTemplate("p", ()))], {}, kb, at=1
        )
        assert outcome is TxnOutcome.COMMITTED
        assert events == []
        assert kb.journal == [()]  # committed, but with zero effective ops

    def test_assert_twice_in_one_txn_is_one_event(self):
        kb = KnowledgeBase()
        _, events = apply_actions_txn(
            [AssertAction(FactTemplate("p", ())), AssertAction(FactTemplate("p", ()))],
            {},
            kb,
            at=1,
        )
        assert [e.type.name for e in events] == ["assert:p"]

    def test_retract_absent_fact_is_noop(self):
        kb = KnowledgeBase()
        outcome, events = apply_actions_txn(
            [RetractAction(FactTemplate("p", ()))], {}, kb, at=1
        )
        assert outcome is TxnOutcome.COMMITTED and events == []

    def test_assert_then_retract_in_one_txn(self):
        kb = KnowledgeBase()
        _, events = apply_actions_txn(
            [AssertAction(FactTemplate("p", ())), RetractAction(FactTemplate("p", ()))],
            {},
            kb,
            at=1,
        )
        # each op changed the transaction's view at its point in the sequence, so
        # both are effective: two update events, journal nets to no change
        assert Fact("p") not in kb
        assert [e.type.name for e in events] == ["assert:p", "retract:p"]
        assert len(kb.journal[-1]) == 2
        assert kb.replay_journal() == kb.snapshot()

    def test_emit_action_produces_external_event(self):
        kb = KnowledgeBase()
        e = make_event("outage", 2, {"host": "w3"}, id=1)
        _, events = apply_actions_txn(
            [EmitAction("alert", (("src", FieldRef("o", "host")),))],
            {"o": e},
            kb,
            at=2,
        )
        (ev,) = events
        assert ev.type.name == "alert" and not is_reserved_type(ev.type.name)
        assert ev.payload == {"src": "w3"}

    def test_template_error_propagates_from_direct_call(self):
        kb = KnowledgeBase()
        with pytest.raises(TemplateError):
            apply_actions_txn(
                [AssertAction(FactTemplate("p", (VarRef("nope"),)))], {}, kb, at=0
            )

    def test_journal_matches_update_events_one_to_one(self):
        kb = KnowledgeBase()
        _, events = apply_actions_txn(
            [
                AssertAction(FactTemplate("p", ())),
                AssertAction(FactTemplate("q", (Lit(1),))),
                EmitAction("ping", ()),
            ],
            {},
            kb,
            at=4,
        )
        update_events = [e for e in events if is_reserved_type(e.type.name)]
        assert len(kb.journal[-1]) == len(update_events) == 2

    def test_noop_action(self):
        kb = KnowledgeBase()
        outcome, events = apply_actions_txn([NoopAction()], {}, kb, at=0)
        assert outcome is TxnOutcome.COMMITTED and events == []


class TestDispatch:
    def cascade_engine(self):
        rs = RuleSet(
            (
                Rule(
                    id="close_dept",
                    on=on("dept_closed", "c"),
                    actions=(RetractAction(FactTemplate("dept", (FieldRef("c", "name"),))),),
                ),
                Rule(
                    id="cascade",
                    on=on("retract:dept", "d"),
                    where=Condition((FactLookup("emp", (VarRef("n"), FieldRef("d", "arg0"))),)),
                    actions=(RetractAction(FactTemplate("emp", (VarRef("n"), FieldRef("d", "arg0")))),),
                ),
            )
        )
        return Engine(
            rs,
            initial_facts=[
                Fact("dept", ("sales",)),
                Fact("emp", ("ann", "sales")),
                Fact("emp", ("bob", "sales")),
            ],
        )

    def test_cascade_chains_through_update_events(self):
        eng = self.cascade_engine()
        records = eng.ingest("dept_closed", 4, {"name": "sales"})
        assert [(r.rule_id, r.depth, r.outcome) for r in records] == [
            ("close_dept", 0, TxnOutcome.COMMITTED),
            ("cascade", 1, TxnOutcome.COMMITTED),
            ("cascade", 1, TxnOutcome.COMMITTED),
        ]
        assert eng.kb.facts() == []

    def test_solutions_fire_in_canonical_order(self):
        eng = self.cascade_engine()
        records = eng.ingest("dept_closed", 4, {"name": "sales"})
        names = [r.bindings["n"] for r in records if r.rule_id == "cascade"]
        assert names == ["ann", "bob"]

    def test_internal_event_ids_interleave_freshly(self):
        eng = self.cascade_engine()
        records = eng.ingest("dept_closed", 4, {"name": "sales"})
        raised = [e.id for r in records for e in r.events]
        assert raised == [2, 3, 4]  # stimulus took id 1

    def test_chain_terminates_when_updates_become_noops(self):
        rs = RuleSet(
            (
                Rule(id="r1", on=on("go"), actions=(AssertAction(FactTemplate("p", ())),)),
                Rule(id="r2", on=on("assert:p"), actions=(AssertAction(FactTemplate("q", ())),
                                                          AssertAction(FactTemplate("p", ())))),
            )
        )
        eng = Engine(rs)
        records = eng.ingest("go", 1)
        # r2's re-assert of p changes nothing, so no further assert:p event
        assert [(r.rule_id, r.depth, len(r.events)) for r in records] == [
            ("r1", 0, 1),
            ("r2", 1, 1),
        ]
        assert {f.name for f in eng.kb.facts()} == {"p", "q"}

    def test_chain_limit_aborts_with_partial_records(self):
        rs = RuleSet(
            (
                Rule(id="r1", on=on("a"), actions=(AssertAction(FactTemplate("p", ())),)),
                Rule(
                    id="r2",
                    on=on("assert:p"),
                    actions=(RetractAction(FactTemplate("p", ())), EmitAction("a", ())),
                ),
            )
        )
        eng = Engine(rs, chain_limit=5)
        with pytest.raises(ChainLimitExceeded) as ei:
            eng.ingest("a", 1)
        assert len(ei.value.records) > 0
        assert all(r.outcome is TxnOutcome.COMMITTED for r in ei.value.records)

    def test_engine_refuses_input_after_chain_abort(self):
        # the aborted cascade left its commits behind, so the engine is
        # poisoned: later input is refused and changes nothing
        eng = Engine(
            parse_rules(
                "effect a initiates f\n"
                "rule r1: on a do assert(p)\n"
                "rule r2: on assert:p do retract(p), emit(a, {})\n"
            ),
            chain_limit=5,
        )
        with pytest.raises(ChainLimitExceeded):
            eng.ingest("a", 1)

        def state():
            return (
                eng.kb.snapshot(),
                eng.fluents.fluent_intervals("f"),
                [(dict(det.retained), det._watermark) for _, det in eng.detectors],
                eng._seq,
            )

        before = state()
        with pytest.raises(ChainLimitExceeded) as ei:
            eng.ingest("a", 2)
        assert ei.value.records == []
        assert state() == before

    def test_rolled_back_rule_raises_nothing(self):
        rs = RuleSet(
            (
                Rule(
                    id="guarded",
                    on=on("go"),
                    actions=(AssertAction(FactTemplate("p", ())),),
                    post=Condition((FactLookup("never", ()),)),
                ),
                Rule(id="listener", on=on("assert:p"), actions=(NoopAction(),)),
            )
        )
        eng = Engine(rs)
        records = eng.ingest("go", 1)
        assert [(r.rule_id, r.outcome) for r in records] == [
            ("guarded", TxnOutcome.ROLLED_BACK)
        ]
        assert eng.kb.facts() == []

    def test_rollback_leaves_no_id_gaps(self):
        # update-event ids are minted at commit, so a rollback before a
        # commit does not burn ids
        rs = RuleSet(
            (
                Rule(
                    id="fails",
                    on=on("go"),
                    actions=(AssertAction(FactTemplate("p", ())),),
                    post=Condition((FactLookup("never", ()),)),
                ),
                Rule(id="works", on=on("go"), actions=(AssertAction(FactTemplate("q", ())),)),
            )
        )
        eng = Engine(rs)
        records = eng.ingest("go", 1)
        committed = [e.id for r in records for e in r.events]
        assert committed == [2]

    def test_missing_payload_field_records_rolled_back(self):
        rs = RuleSet(
            (
                Rule(
                    id="needs_field",
                    on=on("go", "g"),
                    actions=(AssertAction(FactTemplate("p", (FieldRef("g", "absent"),))),),
                ),
            )
        )
        eng = Engine(rs)
        records = eng.ingest("go", 1, {})
        (rec,) = records
        assert rec.outcome is TxnOutcome.ROLLED_BACK
        assert rec.error is not None
        assert eng.kb.facts() == []

    def test_condition_field_error_records_rolled_back(self):
        rs = RuleSet(
            (
                Rule(
                    id="cmp",
                    on=on("go", "g"),
                    where=Condition((Comparison(FieldRef("g", "absent"), "=", Lit(1)),)),
                    actions=(NoopAction(),),
                ),
            )
        )
        eng = Engine(rs)
        (rec,) = eng.ingest("go", 1, {})
        assert rec.outcome is TxnOutcome.ROLLED_BACK and rec.error is not None

    def test_watermark_rejects_time_regression(self):
        eng = Engine(RuleSet((Rule(id="r", on=on("a"), actions=(NoopAction(),)),)))
        eng.ingest("a", 5)
        with pytest.raises(OutOfOrderEvent):
            eng.ingest("a", 4)
        # refused before an id was minted
        (rec,) = eng.ingest("a", 5)
        assert rec.occurrence.components == {2}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_payload_refused(self, bad):
        eng = Engine(parse_rules("rule r: on a as ?x do assert(seen(?x.v))"))
        with pytest.raises(NonFinitePayload):
            eng.ingest("a", 1, {"v": bad})
        # refused before an id was minted or anything was committed
        assert len(eng.kb) == 0
        (rec,) = eng.ingest("a", 1, {"v": 2.5})
        assert rec.occurrence.components == {1}
        assert eng.kb.snapshot() == {Fact("seen", (2.5,))}

    @pytest.mark.parametrize("args", MALFORMED_EVENTS)
    def test_malformed_event_refused(self, args):
        # the same class and text whether a rule, an effect or nothing names a
        refusals = set()
        for rules in NAMINGS.values():
            eng = Engine(parse_rules(rules))
            with pytest.raises(InvalidEvent) as ei:
                eng.ingest(*args)
            assert isinstance(ei.value, ValueError)
            refusals.add((type(ei.value), str(ei.value)))
            # refused before an id was minted or anything was committed
            assert len(eng.kb) == 0
            (rec,) = eng.ingest("b", 1)
            assert rec.occurrence.components == {1}
        assert len(refusals) == 1, refusals

    @pytest.mark.parametrize("naming", NAMINGS)
    def test_stimulus_takes_an_id_and_moves_the_watermark(self, naming):
        # whether a rule, an effect or nothing names it, a takes id 1 and
        # moves the watermark to 5
        eng = Engine(parse_rules(NAMINGS[naming]))
        eng.ingest("a", 5, {"k": "v"})
        for late in ("a", "b", "w"):
            with pytest.raises(OutOfOrderEvent) as ei:
                eng.ingest(late, 4)
            assert str(ei.value) == f"event {late}@4#2 precedes watermark 5"
        (rec,) = eng.ingest("b", 5)
        assert rec.occurrence.components == {2}
        assert [e.id for e in rec.events] == [3, 4]  # assert:seen, then c
        assert eng.fluents.holds_at("f", 5) is (naming == "effect-only")

    @pytest.mark.parametrize("naming", NAMINGS)
    def test_str_subclass_type_name_acts_as_its_value(self, naming):
        # the type table is looked up with the name itself, not an interned copy
        class Name(str):
            pass

        def run(type_name):
            eng = Engine(parse_rules(NAMINGS[naming]))
            records = eng.ingest(type_name, 5, {"k": "v"}) + eng.ingest("b", 6)
            ids = [(r.occurrence.components, [e.id for e in r.events]) for r in records]
            return records, ids, eng.kb.facts(), eng.fluents.fluent_intervals("f")

        got = run(Name("a"))
        assert got == run("a")
        fired = ["s", "r"] if naming == "routed" else ["r"]
        held = [Interval(5, None)] if naming == "effect-only" else []
        assert [r.rule_id for r in got[0]] == fired and got[2:] == ([Fact("seen")], held)

    @pytest.mark.parametrize(
        "args, cls, text",
        [
            # a non-finite payload number wins over every malformed field
            (("", 1, {"v": float("nan")}), NonFinitePayload,
             "payload field 'v' must be finite, got nan"),
            (("a", -1, {"v": float("inf")}), NonFinitePayload,
             "payload field 'v' must be finite, got inf"),
            (("a", 1, {3: "x", "v": float("nan")}), NonFinitePayload,
             "payload field 'v' must be finite, got nan"),
            # then the payload's shape, the type name, the time, the keys
            (("", 1, [1]), InvalidEvent, "event payload must be a mapping, got [1]"),
            (("a", -1, {3: "x"}), InvalidEvent,
             "event time must be an integer >= 0, got -1"),
        ],
        ids=repr,
    )
    def test_refusal_precedence(self, args, cls, text):
        for rules in NAMINGS.values():  # a rule, an effect or nothing names a
            eng = Engine(parse_rules(rules))
            with pytest.raises(cls) as ei:
                eng.ingest(*args)
            assert type(ei.value) is cls and str(ei.value) == text
            # nothing was minted: the next good event takes id 1
            (rec,) = eng.ingest("b", 1)
            assert rec.occurrence.components == {1}

    @pytest.mark.parametrize("payload", NON_MAPPING_PAYLOADS, ids=repr)
    def test_payload_that_is_no_mapping_refused(self, payload):
        eng = Engine(parse_rules("rule r: on a do assert(seen)"))
        with pytest.raises(InvalidEvent, match="payload must be a mapping"):
            eng.ingest("a", 1, payload)
        # refused before an id was minted or anything was committed
        assert len(eng.kb) == 0
        (rec,) = eng.ingest("a", 1)
        assert rec.occurrence.components == {1}

    def test_any_mapping_is_a_payload(self):
        eng = Engine(parse_rules("rule r: on a as ?x do assert(seen(?x.v))"))
        eng.ingest("a", 1, MappingProxyType({"v": 2}))
        assert eng.kb.snapshot() == {Fact("seen", (2,))}

    @pytest.mark.parametrize("rule, trigger", FAULTY_RULES.values(), ids=FAULTY_RULES)
    def test_firing_fault_leaves_an_audit_record(self, rule, trigger):
        rs = parse_rules(
            f"rule go: on go do assert(started), emit({trigger}, {{u: 1}})\n"
            f"{rule}\n"
            f"rule also: on {trigger} do assert(seen)\n"
            "rule later: on stop do assert(stopped)\n"
        )
        report = run_replay(rs, [make_event("go", 1, id=1), make_event("stop", 2, id=2)])
        assert report.error is None and report.dispatched == 2
        assert [(r.rule_id, r.depth, r.outcome) for r in report.records] == [
            ("go", 0, TxnOutcome.COMMITTED),
            ("r", 1, TxnOutcome.ROLLED_BACK),
            ("also", 1, TxnOutcome.COMMITTED),
            ("later", 0, TxnOutcome.COMMITTED),
        ]
        fault = report.records[1]
        assert fault.error and fault.events == ()
        # the faulty firing changed nothing; the rest of its cascade stays
        assert set(report.facts) == {Fact("started"), Fact("seen"), Fact("stopped")}
        report.to_jsonl()

    @pytest.mark.parametrize("limit", [0, -1, 2.5, True, "5"])
    def test_malformed_chain_limit_refused(self, limit):
        with pytest.raises(InvalidConfig) as ei:
            Engine(parse_rules("rule r: on a do noop"), chain_limit=limit)
        assert isinstance(ei.value, ValueError)

    @pytest.mark.parametrize(
        "policy",
        [{"selection": "first"}, {"consumption": "single"}, {"window": 2.5},
         {"window": 0}],
    )
    def test_api_built_rule_with_malformed_policy_refused(self, policy):
        # refused when built, with the text the detector's own check gives
        with pytest.raises(InvalidConfig) as ei:
            Rule("r", Seq(on("a"), on("b")), actions=(NoopAction(),), **policy)
        with pytest.raises(InvalidConfig) as detector:
            DetectorConfig(**policy)
        assert str(ei.value) == str(detector.value)

    def test_malformed_policy_never_reaches_the_triggering_graph(self):
        go = Rule("go", on("a"), actions=(EmitAction("b", ()),))
        with pytest.raises(InvalidConfig, match="window must be a positive integer"):
            triggering_graph(
                RuleSet((go, Rule("r", on("b"), actions=(NoopAction(),), window=0)))
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_initial_fact_refused(self, bad):
        rs = parse_rules("rule r: on a do noop")
        with pytest.raises(NonFinitePayload):
            Engine(rs, initial_facts=[Fact("ok", (1.5,)), Fact("x", ("s", bad))])

    @pytest.mark.parametrize(
        "fact",
        [
            Fact("p", ((1, 2),)), Fact("p", ([1],)), Fact("p", (None,)),
            Fact("p", [1]), Fact("", ()), Fact(5, ()), ("p", 1),
        ],
        ids=["tuple-arg", "list-arg", "none-arg", "list-args", "empty-name",
             "int-name", "no-fact"],
    )
    def test_initial_fact_that_is_no_scalar_fact_refused(self, fact):
        rs = parse_rules("rule r: on a do noop")
        with pytest.raises(InvalidConfig) as ei:
            Engine(rs, initial_facts=[Fact("ok", (1.5, "s", 2, True)), fact])
        assert isinstance(ei.value, ValueError)

    def test_initial_facts_may_come_from_a_generator(self):
        eng = Engine(parse_rules("rule r: on a do noop"), (Fact(n) for n in "pq"))
        assert eng.kb.facts() == [Fact("p"), Fact("q")]

    def test_effects_recorded_before_rules_run(self):
        # the initiating event is visible to its own rule's holds()
        rs = parse_rules(
            "effect start initiates f\n"
            "rule r: on start where holds(f) do assert(seen)\n"
        )
        eng = Engine(rs)
        records = eng.ingest("start", 3)
        assert [r.outcome for r in records] == [TxnOutcome.COMMITTED]
        assert Fact("seen") in eng.kb

    def test_simultaneous_chain_keeps_timestamp(self):
        eng = self.cascade_engine()
        records = eng.ingest("dept_closed", 9, {"name": "sales"})
        assert all(e.time == 9 for r in records for e in r.events)


class TestSolutionOrder:
    def test_solutions_run_in_the_reference_key_order(self):
        # every solution binds ?e to the event and ?m, ?n to scalars; the
        # order names are worked out once per firing, from the scalars only
        rs = parse_rules(
            "rule r: on a as ?e where fact(p, ?m, ?n) do emit(b, {m: ?m, n: ?n})"
        )
        args = [("x", 1), ("y", 2), ("x", 12), ("x", "1"), ("w", 3.5), ("x", False),
                ("x", -1), ("\u00e9", 0), ("x", "12")]
        eng = Engine(rs, initial_facts=[Fact("p", a) for a in args])
        records = eng.ingest("a", 1, {"k": "v"})
        sols = [r.bindings for r in records]
        assert sorted(sols, key=reference_report._solution_order_key) == sols
        assert len(sols) == len(args) and all(s["e"].type.name == "a" for s in sols)
        order = [(s["m"], s["n"]) for s in sols]
        assert order.index(("x", 12)) < order.index(("x", 1))  # '2' sorts before '}'
        emitted = [tuple(r.events[0].payload.values()) for r in records]
        assert emitted == order


# an int with more digits than sys.get_int_max_str_digits() has no str(),
# so no report could write it; these sit just past and just at the limit
TOO_LONG = 10 ** sys.get_int_max_str_digits()
LONGEST = TOO_LONG - 1


class TestIntDigits:
    """Every way into the engine refuses an int that no report could write,
    and no error text shows the value, whose repr would raise as well."""

    @pytest.mark.parametrize("v", [TOO_LONG, -TOO_LONG], ids=["pos", "neg"])
    def test_payload_int_too_long_refused(self, v):
        eng = Engine(parse_rules("rule r: on a as ?e do assert(seen(?e.v))"))
        with pytest.raises(NonFinitePayload) as ei:
            eng.ingest("a", 1, {"v": v})
        text = "payload field 'v' must be finite, got an int too long to write"
        assert type(ei.value) is NonFinitePayload and str(ei.value) == text
        # refused before an id was minted or anything was committed
        (rec,) = eng.ingest("a", 1, {"v": 1})
        assert rec.occurrence.components == {1} and len(eng.kb) == 1

    def test_initial_fact_int_too_long_refused(self):
        # built, this engine would commit rule one's q and then raise a plain
        # ValueError from rule two's solution sort
        rs = parse_rules(
            "rule one: on a do assert(q), emit(b, {})\n"
            "rule two: on b where fact(p, ?x) do noop"
        )
        with pytest.raises(NonFinitePayload):
            Engine(rs, initial_facts=[Fact("p", (TOO_LONG,)), Fact("p", (1,))])

    @pytest.mark.parametrize(
        "where, actions",
        [
            (Condition((Comparison(Lit(TOO_LONG), "=", Lit(1)),)), ()),
            (None, (EmitAction("b", (("v", Lit(-TOO_LONG)),)),)),
            (None, (AssertAction(FactTemplate("p", (Lit(TOO_LONG),))),)),
        ],
        ids=["comparison", "emit", "assert"],
    )
    def test_literal_int_too_long_refused(self, where, actions):
        with pytest.raises(InvalidRule, match="got 'too many digits'"):
            Rule("r", on("a"), where=where, actions=actions)

    def test_int_with_the_limits_digits_replays_and_writes(self):
        rs = parse_rules("rule r: on a as ?e where fact(p, ?x) do emit(b, {w: ?x})")
        q = AssertAction(FactTemplate("q", (Lit(-LONGEST),)))
        rs = RuleSet(rs.rules + (Rule("lit", on("b"), actions=(q,)),))
        trace = [make_event("a", 1, {"v": LONGEST}, id=1)]
        report = run_replay(rs, trace, initial_facts=[Fact("p", (LONGEST,))])
        assert report.error is None and len(report.records) == 2
        text = report.to_jsonl()
        # a's payload, ?x, b's payload, q's assert event, facts p and q
        assert text.count(str(LONGEST)) == 6

    def test_the_limit_is_read_when_checked(self):
        eng = Engine(parse_rules("rule r: on a as ?e do assert(seen(?e.v))"))
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(1000)
            eng.ingest("a", 1, {"v": 10**1000 - 1})
            with pytest.raises(NonFinitePayload):
                eng.ingest("a", 2, {"v": 10**1000})
            sys.set_int_max_str_digits(0)  # no limit
            eng.ingest("a", 3, {"v": TOO_LONG})
        finally:
            sys.set_int_max_str_digits(old)
        assert len(eng.kb) == 2

    @pytest.mark.parametrize("t", [TOO_LONG, -TOO_LONG], ids=["pos", "neg"])
    def test_time_too_long_refused(self, t):
        # such a time used to be taken, and to_jsonl then raised a plain
        # ValueError after the whole run
        digits = sys.get_int_max_str_digits() + 1
        text = (
            f"event time is too long to write: <int of {digits} digits>" if t > 0
            else f"event time must be an integer >= 0, got <int of {digits} digits>"
        )
        eng = Engine(parse_rules("rule r: on a do noop"))
        for make in (lambda: eng.ingest("a", t), lambda: make_event("a", t)):
            with pytest.raises(InvalidEvent) as ei:
                make()
            assert type(ei.value) is InvalidEvent and str(ei.value) == text
        (rec,) = eng.ingest("a", LONGEST)  # nothing was minted before it
        assert rec.occurrence.components == {1}
        report = run_replay(parse_rules("rule r: on a do noop"), [make_event("a", LONGEST)])
        assert report.to_jsonl().count(str(LONGEST)) == 2  # the record's interval

    def test_error_texts_show_a_long_int_by_its_digits(self):
        # each used to raise a plain ValueError from its own error text
        shown = f"<int of {sys.get_int_max_str_digits() + 1} digits>"
        eng = Engine(parse_rules("rule r: on a do noop"))
        with pytest.raises(InvalidEvent) as ei:
            eng.ingest(TOO_LONG, 1)
        assert str(ei.value) == f"event type name must be a non-empty str: {shown}"
        with pytest.raises(InvalidEvent) as ei:
            eng.ingest("a", 1, {TOO_LONG: 1})
        assert str(ei.value) == f"payload key {shown} is not a string"
        with pytest.raises(InvalidRule) as ei:
            Rule(TOO_LONG, on("a"))
        assert str(ei.value) == f"rule {shown}: a rule id must be a non-empty str, got {shown}"
        assert eng._seq == 0

    @pytest.mark.parametrize(
        "make, error, text",
        [
            (lambda rs: Engine(rs, chain_limit=-TOO_LONG), InvalidConfig,
             "chain limit must be an integer >= 1, got {}"),
            (lambda rs: DetectorConfig(window=-TOO_LONG), InvalidConfig,
             "window must be a positive integer, got {}"),
            (lambda rs: run_replay(rs, [], tick=-TOO_LONG), InvalidPeriod,
             "tick period must be an integer >= 1, got {}"),
            (lambda rs: validate_expr(Any(-TOO_LONG, (EventTypeId("a"),))),
             InvalidExpression, "any needs an integer count >= 1, got {}"),
            (lambda rs: validate_expr(Any(TOO_LONG, (EventTypeId("a"),))),
             InvalidExpression, "any count {} exceeds 1 listed types"),
            (lambda rs: Engine(rs).ingest("a", 1, TOO_LONG), InvalidEvent,
             "event payload must be a mapping, got {}"),
            (lambda rs: Engine(rs).ingest("a", 1, {TOO_LONG: float("nan")}),
             NonFinitePayload, "payload field {} must be finite, got nan"),
            (lambda rs: Engine(rs, initial_facts=[TOO_LONG]), InvalidConfig,
             "an initial fact must be a Fact with a non-empty str name and a "
             "tuple of args, got {}"),
            (lambda rs: Engine(rs, initial_facts=[Fact("x", TOO_LONG)]), InvalidConfig,
             "an initial fact must be a Fact with a non-empty str name and a "
             "tuple of args, got ('x', {})"),
        ],
        ids=["chain-limit", "window", "tick-period", "any-count", "any-count-over",
             "payload", "non-finite-payload-key", "initial-fact", "initial-fact-args"],
    )
    def test_outside_int_in_an_error_text_is_shown_by_its_digits(self, make, error, text):
        # each used to raise a plain ValueError from its own error text
        shown = f"<int of {sys.get_int_max_str_digits() + 1} digits>"
        with pytest.raises(error) as ei:
            make(parse_rules("rule r: on a do noop"))
        assert type(ei.value) is error and str(ei.value) == text.format(shown)

    @pytest.mark.parametrize(
        "make, error, text",
        [
            (lambda rs: Engine(rs, initial_facts=[Fact("", (TOO_LONG,))]), InvalidConfig,
             "an initial fact must be a Fact with a non-empty str name and a "
             "tuple of args, got ('', <tuple holding an int too long to write>)"),
            (lambda rs: Engine(rs, initial_facts=[Fact("x", ([TOO_LONG],))]), InvalidConfig,
             "an initial fact argument must be a str, int, float or bool, got "
             "<list holding an int too long to write>"),
            (lambda rs: validate_expr(Atomic(TOO_LONG)), InvalidExpression,
             "atomic type must be an EventTypeId: <Atomic holding an int too long to write>"),
            (lambda rs: validate_expr(on("a", TOO_LONG)), InvalidExpression,
             "binding name must be a non-empty str: <Atomic holding an int too long to write>"),
            (lambda rs: validate_expr(Any(1, (EventTypeId("a"), TOO_LONG))), InvalidExpression,
             "any types must be EventTypeIds: <Any holding an int too long to write>"),
            (lambda rs: validate_expr(Seq(on("a"), (TOO_LONG,))), InvalidExpression,
             "unknown expression node <tuple holding an int too long to write>"),
            (lambda rs: make_event("a", 1, {"v": [TOO_LONG]}), InvalidEvent,
             "payload value v=<list holding an int too long to write> is not a scalar"),
            (lambda rs: Engine(rs).ingest("w", 1, {"v": [TOO_LONG]}), InvalidEvent,
             "payload value v=<list holding an int too long to write> is not a scalar"),
            (lambda rs: DetectorConfig(selection=[TOO_LONG]), InvalidConfig,
             "selection must be a SelectionPolicy, got <list holding an int too long "
             "to write>"),
            (lambda rs: DetectorConfig(consumption=[TOO_LONG]), InvalidConfig,
             "consumption must be a ConsumptionPolicy, got <list holding an int too "
             "long to write>"),
            (lambda rs: Detector(on("a"), [TOO_LONG]), InvalidConfig,
             "config must be a DetectorConfig, got <list holding an int too long to "
             "write>"),
            (lambda rs: EffectDecl([TOO_LONG], EffectMode.INITIATES, "f"), InvalidRule,
             "effect type name must be a non-empty str, got <list holding an int too "
             "long to write>"),
            (lambda rs: EffectDecl("a", EffectMode.INITIATES, [TOO_LONG]), InvalidRule,
             "effect fluent must be a non-empty str, got <list holding an int too long "
             "to write>"),
            (lambda rs: EffectDecl("a", [TOO_LONG], "f"), InvalidRule,
             "effect mode must be an EffectMode, got <list holding an int too long to "
             "write>"),
            (lambda rs: FluentHistory([[TOO_LONG]]), InvalidRule,
             "a fluent effect must be an EffectDecl, got <list holding an int too long "
             "to write>"),
            (lambda rs: Comparison(Lit(1), [TOO_LONG], Lit(1)), InvalidRule,
             "unknown comparison op <list holding an int too long to write>"),
            (lambda rs: EmitAction([TOO_LONG], ()), InvalidRule,
             "emit type name must be a non-empty str, got <list holding an int too "
             "long to write>"),
            (lambda rs: RuleSet([TOO_LONG]), InvalidRule,
             "a rule set takes a tuple of Rules, got <list holding an int too long to "
             "write>"),
        ],
        ids=["initial-fact-args", "initial-fact-arg", "atomic-type", "atomic-var",
             "any-types", "unknown-node", "payload-value", "unnamed-payload-value",
             "selection", "consumption", "detector-config", "effect-type-name",
             "effect-fluent", "effect-mode", "fluent-effect", "comparison-op",
             "emit-type-name", "rule-set-part"],
    )
    def test_value_holding_a_long_int_in_an_error_text_is_shown_by_its_type(
        self, make, error, text
    ):
        # each used to raise a plain ValueError from the repr in its own text
        with pytest.raises(error) as ei:
            make(parse_rules("rule r: on a do noop"))
        assert type(ei.value) is error and str(ei.value) == text

    @pytest.mark.parametrize(
        "make, error, text",
        [
            (lambda: RuleSet((Fact("k", 5),)), InvalidRule,
             "a rule set takes a tuple of Rules, got <tuple with no repr>"),
            (lambda: Rule("r", on("a"),
                          actions=(EmitAction("b", (("v", Fact("k", Lit(1))),)),)),
             InvalidRule, "rule 'r': not a term, got <Fact with no repr>"),
            (lambda: Engine(parse_rules("rule r: on a do noop")).ingest(
                "a", 1, {"v": Fact("k", 5)}),
             InvalidEvent, "payload value v=<Fact with no repr> is not a scalar"),
        ],
        ids=["rule-set-part", "emit-payload-term", "payload-value"],
    )
    def test_value_whose_repr_raises_a_type_error_is_shown_by_its_type(
        self, make, error, text
    ):
        # a fact whose args are no sequence has no repr; each used to raise
        # the plain TypeError from the repr in its own text
        with pytest.raises(error) as ei:
            make()
        assert type(ei.value) is error and str(ei.value) == text


class TestTriggeringGraph:
    def test_cascade_ruleset_is_acyclic(self):
        rs = parse_rules(
            "rule close_dept: on dept_closed as ?c do retract(dept(?c.name))\n"
            "rule cascade: on retract:dept as ?d where fact(emp, ?n, ?d.arg0)\n"
            "  do retract(emp(?n, ?d.arg0))\n"
        )
        g = triggering_graph(rs)
        assert g.nodes == ("close_dept", "cascade")
        assert g.edges == (("close_dept", "cascade"),)
        assert g.cycles == () and g.acyclic

    def test_two_rule_cycle_flagged(self):
        rs = parse_rules(
            "rule r1: on a do assert(p)\n"
            "rule r2: on assert:p do emit(a, {})\n"
        )
        g = triggering_graph(rs)
        assert set(g.edges) == {("r1", "r2"), ("r2", "r1")}
        assert g.cycles == (("r1", "r2"),)
        assert not g.acyclic

    def test_self_loop_flagged(self):
        rs = parse_rules("rule echo: on ping do emit(ping, {})\n")
        g = triggering_graph(rs)
        assert g.cycles == (("echo",),)

    def test_edges_are_conservative_over_not_and_any(self):
        # r2 listens for b only inside a not() absent slot; the analysis
        # still draws the edge (it cannot prove the event is harmless)
        rs = parse_rules(
            "rule r1: on go do emit(b, {})\n"
            "rule r2: on not(b, a, c) do noop\n"
        )
        g = triggering_graph(rs)
        assert ("r1", "r2") in g.edges

    def test_retract_edges_tracked_separately_from_assert(self):
        rs = parse_rules(
            "rule r1: on go do retract(p)\n"
            "rule on_assert: on assert:p do noop\n"
            "rule on_retract: on retract:p do noop\n"
        )
        g = triggering_graph(rs)
        assert ("r1", "on_retract") in g.edges
        assert ("r1", "on_assert") not in g.edges

    def test_cycles_ordered_by_declaration(self):
        rs = parse_rules(
            "rule z: on assert:q do assert(p)\n"
            "rule a: on assert:p do assert(q)\n"
        )
        g = triggering_graph(rs)
        assert g.cycles == (("z", "a"),)

    def test_long_acyclic_chain_needs_no_recursion(self):
        n = 1500
        rs = RuleSet(tuple(
            Rule(f"r{i}", on(f"e{i}"), actions=(EmitAction(f"e{i + 1}", ()),))
            for i in range(n)
        ))
        g = triggering_graph(rs)
        assert g.edges == tuple((f"r{i}", f"r{i + 1}") for i in range(n - 1))
        assert g.acyclic

    def test_long_ring_is_one_cycle(self):
        n = 1500
        rs = RuleSet(tuple(
            Rule(f"r{i}", on(f"e{i}"), actions=(EmitAction(f"e{(i + 1) % n}", ()),))
            for i in range(n)
        ))
        assert triggering_graph(rs).cycles == (tuple(f"r{i}" for i in range(n)),)

    def test_cycles_match_reachability_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(1, 8)
            rules = tuple(
                Rule(
                    f"r{i}", on(f"e{i}"),
                    actions=tuple(
                        EmitAction(f"e{j}", ()) for j in range(n) if rng.random() < 0.25
                    ),
                )
                for i in range(n)
            )
            g = triggering_graph(RuleSet(rules))
            succ = {r.id: {t for s, t in g.edges if s == r.id} for r in rules}
            reach = {v: set(succ[v]) for v in succ}
            for _ in range(n):
                for v in reach:
                    reach[v] |= {w for u in reach[v] for w in reach[u]}
            expect = []
            for r in rules:
                comp = tuple(s.id for s in rules if s.id in reach[r.id] and r.id in reach[s.id])
                if comp and comp[0] == r.id:
                    expect.append(comp)
            assert g.cycles == tuple(expect)


MALFORMED_EXPRS = [
    Atomic("a"),  # a str where an EventTypeId belongs
    Seq(on("a"), Atomic("b")),
    Atomic(EventTypeId("a"), 5),  # binding name not a str
    Atomic(EventTypeId("a"), ""),  # binding name empty
    Any(1, ("a",)),
    Any(1, EventTypeId("a")),  # types not a tuple
    Any(True, (EventTypeId("a"),)),  # count a bool
    Times("2", on("a")),
    Times(True, on("a")),
    Times(2.0, on("a")),
]


class TestMalformedExpressions:
    @pytest.mark.parametrize("expr", MALFORMED_EXPRS, ids=repr)
    def test_field_of_the_wrong_type_refused(self, expr):
        with pytest.raises(InvalidExpression):
            Rule(id="r", on=expr, actions=(NoopAction(),))
        with pytest.raises(InvalidExpression):
            validate_expr(expr)
        with pytest.raises(InvalidExpression):
            Detector(expr)
        with pytest.raises(InvalidExpression):
            occurrences(expr, [])

    @pytest.mark.parametrize("expr", MALFORMED_EXPRS, ids=repr)
    def test_rule_refuses_with_validate_exprs_text(self, expr):
        with pytest.raises(InvalidExpression) as walked:
            validate_expr(expr)
        with pytest.raises(InvalidExpression) as built:
            Rule(id="r", on=expr, where=Condition(()), actions=(NoopAction(),))
        assert type(built.value) is type(walked.value)
        assert str(built.value) == str(walked.value)

    def test_on_is_checked_before_any_other_part(self):
        with pytest.raises(InvalidExpression, match="atomic type must be"):
            Rule(id=5, on=Atomic("a"), where="not a condition", actions=None)


class TestDeepExpressions:
    def test_api_built_expression_past_the_limit_is_refused(self):
        # built through the API, so no parser stands in front of it
        expr = on("a")
        for _ in range(2000):
            expr = Seq(expr, on("b"))
        with pytest.raises(InvalidExpression, match="nested deeper than 100"):
            Detector(expr)
        with pytest.raises(InvalidExpression, match="nested deeper than 100"):
            Rule(id="deep", on=expr, actions=(NoopAction(),))


def _nodes(node):
    yield node
    for attr in ("left", "right", "absent", "inner"):
        child = getattr(node, attr, None)
        if child is not None:
            yield from _nodes(child)


class TestDetectorMemory:
    def test_kept_occurrences_bounded_by_retained_events(self):
        # no window, nothing consumed: every a and b stays retained, but
        # the a x b pairs are fired and never kept
        eng = Engine(
            parse_rules(
                "rule r: on seq(a as ?a, b as ?b) do noop "
                "select last consume multiple"
            )
        )
        for t in range(2000):
            eng.ingest("ab"[t % 2], t)
        ((_, det),) = eng.detectors
        assert len(det.retained) == 2000
        assert sum(len(n.occs) for n in _nodes(det._root)) <= len(det.retained)


class _EveryDetector:
    """A type table that names every type and routes it to every detector,
    in rule order: the reference that routed dispatch, and its shortcut for
    types nothing names, must agree with."""

    def __init__(self, detectors):
        self.detectors = detectors

    def get(self, name):
        return intern_type(name), self.detectors


def unrouted(eng):
    eng._types = _EveryDetector(eng.detectors)
    return eng


def replay(eng, events):
    records = []
    for e in events:
        records.extend(eng.ingest(e.type.name, e.time, e.payload))
    return records


class TestRouting:
    def test_routed_records_equal_feeding_every_detector(self):
        rng = random.Random(51)
        decoys = ("x", "y")  # no rule lists these
        fired = 0
        for case in range(300):
            exprs = [random_expr(rng) for _ in range(rng.randint(1, 3))]
            # a blocker of types the rest of its expression does not name
            exprs.append(
                Not(
                    random_expr(rng, 1, ("c", "d")),
                    random_expr(rng, 1, ("a", "b")),
                    random_expr(rng, 1, ("a", "b")),
                )
            )
            rules = tuple(
                Rule(
                    id=f"r{case}_{i}",
                    on=expr,
                    actions=(NoopAction(),),
                    selection=rng.choice(list(SelectionPolicy)),
                    consumption=rng.choice(list(ConsumptionPolicy)),
                    window=rng.choice((None, None, 1, 2, 4)),
                )
                for i, expr in enumerate(exprs)
            )
            h = random_history(rng, max_events=18, types=TYPES + decoys)
            routed = replay(Engine(RuleSet(rules)), h)
            assert routed == replay(unrouted(Engine(RuleSet(rules))), h), (rules, h)
            fired += len(routed)
        assert fired > 300, fired  # the corpus does fire

    def test_unlisted_type_feeds_no_detector(self, monkeypatch):
        fed = []
        feed = Detector.feed
        monkeypatch.setattr(
            Detector, "feed", lambda det, e: fed.append(e.type.name) or feed(det, e)
        )
        eng = Engine(
            parse_rules(
                "effect x initiates f\n"
                "rule pair: on seq(a, b) do noop\n"
                "rule gated: on a where holds(f) do assert(seen)\n"
            )
        )
        for t in range(1, 50):
            assert eng.ingest("x", t) == []
        assert fed == []
        assert eng.fluents.holds_at("f", 49)  # the effect still applies
        (rec,) = eng.ingest("a", 50)
        assert rec.rule_id == "gated" and Fact("seen") in eng.kb
        assert fed == ["a", "a"]  # no rule lists the raised assert:seen

    def test_window_expires_lazily_with_the_same_firings(self):
        rules = "rule r: on seq(a as ?a, b as ?b) do noop consume single window 5"
        trace = [("a", 0)] + [("x", t) for t in range(1, 21)] + [("b", 21)]
        trace += [("a", 22)] + [("x", t) for t in range(22, 26)] + [("b", 26)]
        trace += [("a", 30), ("a", 31)] + [("x", t) for t in range(32, 36)]
        trace += [("b", 36)]
        events = [make_event(n, t, id=i) for i, (n, t) in enumerate(trace, 1)]

        eng = Engine(parse_rules(rules))
        ((_, det),) = eng.detectors
        replay(eng, events[:21])
        assert len(det.retained) == 1  # a@0 waits for the next routed feed
        records = replay(eng, events[21:])
        got = [(r.bindings["a"].time, r.bindings["b"].time) for r in records]
        assert got == [(22, 26), (31, 36)]  # a@0 and a@30 expired first
        ref = replay(unrouted(Engine(parse_rules(rules))), events)
        assert replay(Engine(parse_rules(rules)), events) == ref

    def test_records_follow_rule_order(self):
        eng = Engine(
            parse_rules(
                "rule zeta: on a do noop\n"
                "rule alpha: on or(b, a) do noop\n"
                "rule mid: on a do noop\n"
            )
        )
        assert [r.rule_id for r in eng.ingest("a", 1)] == ["zeta", "alpha", "mid"]
        assert [r.rule_id for r in eng.ingest("b", 2)] == ["alpha"]


# x, y and assert:seen are raised, and no rule or effect names them; c is
# raised and a rule lists it
UNNAMED_RAISED = (
    "rule r: on a as ?a do emit(x, {v: ?a.v}), assert(seen), emit(c, {})\n"
    "rule s: on c do emit(y, {})\n"
    "rule t: on b do noop\n"
    "effect c initiates f\n"
)


class TestUnnamedRaised:
    """A raised event of a type that no rule or effect names stays in its
    record but is not queued: it reaches no detector and no fluent."""

    def test_keeps_its_id_and_later_ids_stay_the_same(self):
        eng = Engine(parse_rules(UNNAMED_RAISED))
        # a is 1; r raises x, assert:seen and c as 2, 3, 4; c fires s, whose y is 5
        first, second = eng.ingest("a", 1, {"v": 7})
        assert [(e.id, e.type.name) for e in first.events] == [
            (2, "x"), (3, "assert:seen"), (4, "c"),
        ]
        assert first.events[0].payload == {"v": 7}
        assert [(e.id, e.type.name) for e in second.events] == [(5, "y")]
        (rec,) = eng.ingest("b", 2)
        assert rec.occurrence.components == frozenset({6})
        # naming the raised types queues them, and changes no id
        named = UNNAMED_RAISED + "rule u: on or(x, y) do noop\n"
        ref = Engine(parse_rules(named))
        recs = ref.ingest("a", 1, {"v": 7}) + ref.ingest("b", 2)
        assert [r.rule_id for r in recs] == ["r", "u", "s", "u", "t"]
        kept = [r for r in recs if r.rule_id != "u"]
        assert kept == [first, second, rec]

    def test_never_reaches_the_fluent_history(self, monkeypatch):
        seen = []
        record = FluentHistory.record
        monkeypatch.setattr(
            FluentHistory, "record",
            lambda hist, e: seen.append(e.type.name) or record(hist, e),
        )
        eng = Engine(parse_rules(UNNAMED_RAISED))
        eng.ingest("a", 1, {"v": 7})
        assert seen == ["a", "c"]
        assert eng.fluents.holds_at("f", 1)

    def test_unrouted_reference_agrees(self):
        rng = random.Random(20)
        fired = 0
        for _ in range(100):
            h = random_history(rng, max_events=12, types=("a", "b", "c", "x"))
            h = [make_event(e.type.name, e.time, {"v": e.time}, id=e.id) for e in h]
            routed = Engine(parse_rules(UNNAMED_RAISED))
            ref = unrouted(Engine(parse_rules(UNNAMED_RAISED)))
            got = replay(routed, h)
            assert got == replay(ref, h), h
            assert routed.kb.facts() == ref.kb.facts()
            assert routed.fluents.fluent_intervals("f") == ref.fluents.fluent_intervals("f")
            fired += len(got)
        assert fired > 100, fired

    def test_counts_toward_the_chain_limit(self):
        # a raises b at depth 1, within the limit; b raises x, which nothing
        # names, at depth 2, past it
        rules = parse_rules("rule r: on a do emit(b, {})\nrule s: on b do emit(x, {})")
        eng = Engine(rules, chain_limit=1)
        with pytest.raises(ChainLimitExceeded, match="chain depth 2 exceeds limit 1") as exc:
            eng.ingest("a", 1)
        assert [r.rule_id for r in exc.value.records] == ["r", "s"]
        with pytest.raises(ChainLimitExceeded, match="engine stopped after"):
            eng.ingest("a", 2)
        assert [r.rule_id for r in Engine(rules, chain_limit=2).ingest("a", 1)] == ["r", "s"]


class TestTracingSeams:
    """bench/tracing.py times transactions and condition evaluation by
    patching ``reactor.engine._run_actions`` and
    ``reactor.engine.evaluate_condition``, so the engine must reach both
    through those module-level names: ``where`` from ``Engine.ingest`` and
    ``post`` from the transaction."""

    def test_engine_calls_through_the_patched_names(self, monkeypatch):
        calls = {"cond": 0, "txn": 0}
        evaluate = reactor.engine.evaluate_condition
        run_actions = reactor.engine._run_actions

        def counted_cond(*args, **kwargs):
            calls["cond"] += 1
            return evaluate(*args, **kwargs)

        def counted_txn(*args, **kwargs):
            calls["txn"] += 1
            return run_actions(*args, **kwargs)

        monkeypatch.setattr(reactor.engine, "evaluate_condition", counted_cond)
        monkeypatch.setattr(reactor.engine, "_run_actions", counted_txn)
        rs = parse_rules(
            "rule r: on a where fact(emp, ?n) do assert(seen(?n)) post fact(seen, ?n)"
        )
        trace = [make_event(t, i, id=i) for i, t in enumerate("aba", 1)]
        emps = [Fact("emp", ("ann",)), Fact("emp", ("bob",))]
        report = run_replay(rs, trace, initial_facts=emps)
        # each `a` evaluates where once, then runs a transaction and its
        # post once per solution, of which there are two
        assert [r.outcome for r in report.records] == [TxnOutcome.COMMITTED] * 4
        assert calls == {"cond": 2 * (1 + 2), "txn": 2 * 2}
