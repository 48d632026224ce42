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
    EmitAction,
    Engine,
    Fact,
    FactLookup,
    FactTemplate,
    FieldRef,
    InvalidConfig,
    InvalidEvent,
    InvalidExpression,
    InvalidRule,
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
    event_type,
    is_reserved_type,
    make_event,
    occurrences,
    parse_rules,
    run_replay,
    triggering_graph,
    validate_expr,
)
import reactor.engine
from reactor.rules import KnowledgeBase

from helpers import MALFORMED_EVENTS, TYPES, random_expr, random_history


def on(name, var=None):
    return Atomic(event_type(name), var)


# payloads that are neither None nor a mapping; kept apart from
# MALFORMED_EVENTS, which tests/test_loader.py also writes as trace lines
NON_MAPPING_PAYLOADS = [5, "xy", [("v", 1)], 0, "", [], (), b"v"]

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
        eng = Engine(parse_rules("rule r: on a do assert(seen)"))
        with pytest.raises(InvalidEvent) as ei:
            eng.ingest(*args)
        assert isinstance(ei.value, ValueError)
        # refused before an id was minted or anything was committed
        assert len(eng.kb) == 0
        (rec,) = eng.ingest("a", 1)
        assert rec.occurrence.components == {1}

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
        eng = Engine(parse_rules("rule r: on a do assert(seen)"))
        with pytest.raises(cls) as ei:
            eng.ingest(*args)
        assert type(ei.value) is cls and str(ei.value) == text
        # nothing was minted: the next good event takes id 1
        (rec,) = eng.ingest("a", 1)
        assert rec.occurrence.components == {1}

    @pytest.mark.parametrize("payload", NON_MAPPING_PAYLOADS, ids=repr)
    def test_payload_that_is_no_mapping_refused(self, payload):
        eng = Engine(parse_rules("rule r: on a do assert(seen)"))
        with pytest.raises(InvalidEvent, match="payload must be a mapping"):
            eng.ingest("a", 1, payload)
        with pytest.raises(InvalidEvent, match="payload must be a mapping"):
            make_event("a", 1, payload)
        # refused before an id was minted or anything was committed
        assert len(eng.kb) == 0
        (rec,) = eng.ingest("a", 1)
        assert rec.occurrence.components == {1}

    def test_any_mapping_is_a_payload(self):
        eng = Engine(parse_rules("rule r: on a as ?x do assert(seen(?x.v))"))
        eng.ingest("a", 1, MappingProxyType({"v": 2}))
        assert eng.kb.snapshot() == {Fact("seen", (2,))}
        assert make_event("a", 1, MappingProxyType({"v": 2})).payload == {"v": 2}

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
    Atomic(event_type("a"), 5),  # binding name not a str
    Atomic(event_type("a"), ""),  # binding name empty
    Any(1, ("a",)),
    Any(1, event_type("a")),  # types not a tuple
    Any(True, (event_type("a"),)),  # count a bool
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
    """A route table that sends every event to every detector, in rule
    order: the reference that routed dispatch must agree with."""

    def __init__(self, detectors):
        self.detectors = detectors

    def get(self, _name, _default):
        return self.detectors


def unrouted(eng):
    eng._routes = _EveryDetector(eng.detectors)
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
