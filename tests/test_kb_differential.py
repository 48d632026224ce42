"""Indexed fact store and overlay transactions against a naive reference.

The reference scans every fact for every lookup and runs each transaction
on a full copy of the store, as the simplest reading of the semantics. It
evaluates terms, comparisons and templates with the frozen copies in
tests/reference_rules.py. The indexed store must agree with it exactly: the
same solutions in the same order, the same exception type and text, the
same outcomes, raised events (type and payload), store order and journal.

Conditions and actions built here go through no Rule, so they run as
compiled where they are run. ``TestPlanFaults`` runs rules compiled when
built, through the engine, against the same reference.
"""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_report
import reference_rules as ref

import reactor.engine
import reactor.rules
from reactor import (
    AssertAction,
    Atomic,
    Comparison,
    Condition,
    EmitAction,
    Engine,
    Fact,
    FactLookup,
    FactTemplate,
    FieldRef,
    KnowledgeBase,
    Lit,
    MissingField,
    Or,
    RetractAction,
    Rule,
    RuleSet,
    TemplateError,
    TxnOutcome,
    UnboundVariable,
    VarRef,
    apply_actions_txn,
    evaluate_condition,
    event_type,
    load_trace,
    make_event,
    parse_rules,
    run_replay,
)
from reactor.model import ASSERT_PREFIX, RETRACT_PREFIX
from reactor.rules import Overlay, _compare

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

NAN = float("nan")

# 1 == 1.0 == True and 0 == 0.0 == False collide on purpose; NaN equals
# nothing, the shared object and fresh ones alike.
SCALARS = [0, 1, 2, 0.0, 1.0, 2.5, True, False, "a", "b", NAN]
OPS = ["=", "!=", "<", "<=", ">", ">="]
scalars = st.one_of(st.sampled_from(SCALARS), st.builds(float, st.just("nan")))
names = st.sampled_from(["p", "q"])
facts = st.builds(Fact, names, st.lists(scalars, max_size=2).map(tuple))
stores = st.lists(facts, max_size=12)
terms = st.one_of(
    st.builds(Lit, scalars),
    st.builds(VarRef, st.sampled_from(["x", "y", "e"])),
    st.builds(FieldRef, st.sampled_from(["e", "x", "z"]), st.sampled_from(["f", "g", "missing"])),
)
lookups = st.builds(
    FactLookup, names, st.lists(terms, max_size=2).map(tuple), st.booleans()
)
comparisons = st.builds(
    Comparison, terms, st.sampled_from(OPS), terms
)
conditions = st.builds(
    Condition,
    st.lists(st.one_of(lookups, lookups, comparisons), min_size=1, max_size=3).map(tuple),
)


@st.composite
def bindings(draw):
    payload = {k: draw(scalars) for k in draw(st.sets(st.sampled_from(["f", "g"])))}
    out = {"e": make_event("ev", 1, payload, id=1)}
    if draw(st.booleans()):
        out["x"] = draw(scalars)
    return out


templates = st.builds(FactTemplate, names, st.lists(terms, max_size=2).map(tuple))
fact_actions = st.one_of(
    st.builds(AssertAction, templates), st.builds(RetractAction, templates)
)
emits = st.builds(
    EmitAction,
    st.sampled_from(["out", "alert"]),
    st.lists(st.tuples(st.sampled_from(["k", "m"]), terms), max_size=2).map(tuple),
)
actions = st.one_of(fact_actions, emits)
transactions = st.tuples(
    st.lists(actions, max_size=4), st.one_of(st.none(), conditions), bindings()
)


# ------------------------------------------------------------- reference


def ref_unify(lookup, fact, sol):
    if fact.name != lookup.name or len(fact.args) != len(lookup.terms):
        return None
    extended = dict(sol)
    for term, arg in zip(lookup.terms, fact.args):
        if isinstance(term, VarRef) and term.name not in extended:
            extended[term.name] = arg
            continue
        if ref.eval_term(term, extended) != arg:
            return None
    return extended


def ref_evaluate(cond, sol, store):
    """Left-to-right conjunction over a full scan of ``store`` (a list)."""
    solutions = [dict(sol)]
    for atom in cond.atoms:
        nxt = []
        for s in solutions:
            if isinstance(atom, Comparison):
                lhs, rhs = ref.eval_term(atom.lhs, s), ref.eval_term(atom.rhs, s)
                if ref._compare(lhs, atom.op, rhs):
                    nxt.append(s)
            elif atom.negated:
                if not any(ref_unify(atom, f, s) is not None for f in store):
                    nxt.append(s)
            else:
                nxt += [x for f in store if (x := ref_unify(atom, f, s)) is not None]
        solutions = nxt
        if not solutions:
            break
    return solutions


class RefStore:
    """A dict of facts and a journal; each transaction runs on a copy."""

    def __init__(self, initial):
        self.facts = dict.fromkeys(initial)
        self.journal = []

    def txn(self, acts, post, sol):
        shadow = dict(self.facts)
        ops, events = [], []  # events as (type name, payload)
        for act in acts:
            if isinstance(act, EmitAction):
                events.append((act.type_name, ref.emit_payload(act, sol)))
                continue
            fact = ref.instantiate_fact(act.fact, sol)
            if isinstance(act, AssertAction) and fact not in shadow:
                shadow[fact] = None
                ops.append(("assert", fact))
                events.append((ASSERT_PREFIX + fact.name, ref._fact_payload(fact)))
            elif isinstance(act, RetractAction) and fact in shadow:
                del shadow[fact]
                ops.append(("retract", fact))
                events.append((RETRACT_PREFIX + fact.name, ref._fact_payload(fact)))
        if post is not None and not ref_evaluate(post, sol, list(shadow)):
            return TxnOutcome.ROLLED_BACK, []
        self.facts = shadow
        self.journal.append(tuple(ops))
        return TxnOutcome.COMMITTED, events


def outcome_of(fn, *args):
    """The result, or the type and text of the exception raised instead."""
    try:
        return fn(*args)
    except (MissingField, UnboundVariable, TemplateError) as err:
        return type(err), str(err)


def same(a, b) -> bool:
    # NaN-safe: the same NaN object compares equal inside containers
    return a == b or repr(a) == repr(b)


# ----------------------------------------------------------------- tests


SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


def test_compare_matches_reference():
    # every pair of sample scalars, a fresh NaN among them, under every op
    values = [*SCALARS, float("nan")]
    for a, op, b in itertools.product(values, OPS, values):
        assert _compare(a, op, b) == ref._compare(a, op, b), (a, op, b)


@SETTINGS
@given(stores, conditions, bindings(), st.booleans())
def test_evaluate_condition_matches_full_scan(store, cond, sol, warm):
    kb = KnowledgeBase(store)
    if warm:  # index built before any commit, then maintained by commit
        kb.candidates("p", 0, ())
        kb.commit([("retract", f) for f in list(kb.facts())[:2]])
        kb.commit([("assert", f) for f in store[:2] if f not in kb])
    want = outcome_of(ref_evaluate, cond, sol, kb.facts())
    got = outcome_of(evaluate_condition, cond, sol, kb, 0)
    assert same(got, want)


@SETTINGS
@given(stores, st.lists(fact_actions, max_size=5), bindings(), conditions, bindings())
def test_overlay_reads_like_a_copy(store, acts, sol, cond, query):
    kb = KnowledgeBase(store)
    before = kb.facts()
    txn, shadow = Overlay(kb), dict.fromkeys(kb.facts())
    for act in acts:
        try:
            fact = ref.instantiate_fact(act.fact, sol)
        except TemplateError:
            continue
        if isinstance(act, AssertAction):
            assert txn.add(fact) == (fact not in shadow)
            shadow[fact] = None
        else:
            assert txn.discard(fact) == (fact in shadow)
            shadow.pop(fact, None)
        assert all(f in txn for f in shadow)
    want = outcome_of(ref_evaluate, cond, query, list(shadow))
    got = outcome_of(evaluate_condition, cond, query, txn, 0)
    assert same(got, want)
    assert kb.facts() == before and kb.journal == []  # dropped: store untouched


@SETTINGS
@given(stores, st.lists(transactions, max_size=6), conditions, bindings())
def test_transactions_match_copy_reference(store, txns, cond, query):
    kb, ref = KnowledgeBase(store), RefStore(store)
    for acts, post, sol in txns:
        want = outcome_of(ref.txn, acts, post, sol)
        got = outcome_of(apply_actions_txn, acts, sol, kb, post)
        if isinstance(got[0], TxnOutcome):
            outcome, events = got
            assert [e.id for e in events] == list(range(1, len(events) + 1))
            got = outcome, [(e.type.name, e.payload) for e in events]
        assert same(got, want)
        assert same(kb.facts(), list(ref.facts))
        assert kb.snapshot() == frozenset(ref.facts)
        assert same(kb.journal, ref.journal)
        assert kb.replay_journal() == kb.snapshot()
        assert same(
            outcome_of(evaluate_condition, cond, query, kb, 0),
            outcome_of(ref_evaluate, cond, query, list(ref.facts)),
        )


class TestIndex:
    def test_smallest_bucket_wins(self):
        kb = KnowledgeBase(
            [Fact("emp", (f"n{i}", "d0" if i < 8 else "d1")) for i in range(10)]
        )
        assert list(kb.candidates("emp", 2, [(1, "d1")])) == [
            Fact("emp", ("n8", "d1")), Fact("emp", ("n9", "d1")),
        ]
        assert list(kb.candidates("emp", 2, [(1, "d0"), (0, "n3")])) == [
            Fact("emp", ("n3", "d0")),
        ]
        assert list(kb.candidates("emp", 2, [(1, "d2")])) == []
        assert len(list(kb.candidates("emp", 2, []))) == 10
        assert list(kb.candidates("emp", 1, [])) == []

    def test_numeric_equality_and_nan(self):
        kb = KnowledgeBase([Fact("p", (1,)), Fact("p", (NAN,)), Fact("p", (2.5,))])
        assert list(kb.candidates("p", 1, [(0, True)])) == [Fact("p", (1,))]
        assert list(kb.candidates("p", 1, [(0, 1.0)])) == [Fact("p", (1,))]
        cond = Condition((FactLookup("p", (Lit(float("nan")),)),))
        assert evaluate_condition(cond, {}, kb, 0) == []
        cond = Condition((FactLookup("p", (Lit(NAN),)),))
        assert evaluate_condition(cond, {}, kb, 0) == []

    def test_commit_keeps_index_and_order(self):
        kb = KnowledgeBase([Fact("p", ("a",)), Fact("p", ("b",))])
        assert list(kb.candidates("p", 1, [])) == kb.facts()
        kb.commit([("retract", Fact("p", ("a",))), ("assert", Fact("p", ("c",)))])
        kb.commit([("assert", Fact("p", ("a",)))])
        assert list(kb.candidates("p", 1, [])) == kb.facts() == [
            Fact("p", ("b",)), Fact("p", ("c",)), Fact("p", ("a",)),
        ]
        kb.commit([("retract", Fact("p", ("c",)))])
        assert list(kb.candidates("p", 1, [(0, "c")])) == []

    def test_missing_field_fails_closed_only_when_reached(self):
        # a full scan reaches the missing field only through facts whose
        # earlier args match, so the index must not skip or add that error
        e = make_event("ev", 1, {"f": 1}, id=1)
        kb = KnowledgeBase([Fact("p", (1, 5)), Fact("p", (2, 6))])
        reach = Condition((FactLookup("p", (Lit(2), FieldRef("e", "missing"))),))
        with pytest.raises(MissingField):
            evaluate_condition(reach, {"e": e}, kb, 0)
        miss = Condition((FactLookup("p", (Lit(3), FieldRef("e", "missing"))),))
        assert evaluate_condition(miss, {"e": e}, kb, 0) == []
        first = Condition((FactLookup("p", (FieldRef("e", "missing"), Lit(7))),))
        with pytest.raises(MissingField):
            evaluate_condition(first, {"e": e}, kb, 0)

    def test_reasserted_fact_moves_to_the_end_of_the_view(self):
        kb = KnowledgeBase([Fact("p", ("a",)), Fact("p", ("b",))])
        txn = Overlay(kb)
        assert txn.discard(Fact("p", ("a",))) and txn.add(Fact("p", ("a",)))
        assert list(txn.candidates("p", 1, [])) == [Fact("p", ("b",)), Fact("p", ("a",))]
        assert txn.ops == [("retract", Fact("p", ("a",))), ("assert", Fact("p", ("a",)))]
        assert kb.facts() == [Fact("p", ("a",)), Fact("p", ("b",))]  # untouched


# ----------------------------------------------------- compiled rule faults


A, B = event_type("a"), event_type("b")

# each fault: the rule's event expression, the trigger (type and payload)
# and the terms that fail when that trigger fires it: ?x bound only on the
# other branch of an or, a payload field the event lacks, and an event
# binding read as a scalar
FAULTS = {
    "or-branch": (Or(Atomic(A, "x"), Atomic(B, "y")), "b", [FieldRef("x", "v"), VarRef("x")]),
    "missing-field": (Atomic(A, "x"), "a", [FieldRef("x", "v")]),
    "event-as-scalar": (Atomic(A, "x"), "a", [VarRef("x")]),
}


def fault_atom(rng, term):
    """A condition atom that reads ``term``, or for a lookup may bind it."""
    kind = rng.randrange(4)
    if kind == 0:
        lhs, rhs = term, Lit(rng.choice([1, "x"]))
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        return Comparison(lhs, rng.choice(OPS), rhs)
    terms = [Lit(rng.randrange(3)) for _ in range(rng.randrange(2))]
    terms.insert(rng.randrange(len(terms) + 1), term)
    return FactLookup("p", tuple(terms), negated=kind == 3)


def fault_action(rng, term):
    kind = rng.randrange(3)
    if kind == 2:
        return EmitAction("out", (("k", Lit(1)), ("m", term))[rng.randrange(2):])
    terms = (term, VarRef("n")) if rng.random() < 0.5 else (VarRef("n"), term)
    act = AssertAction if kind == 0 else RetractAction
    return act(FactTemplate("q", terms))


def fault_rule(rng, place, expr, term):
    """A rule that reads ``term`` in ``place``; a lookup that binds ?n comes
    first, so that a firing can have several solutions."""
    lookup = FactLookup("p", (VarRef("n"),))
    where, post = [lookup], None
    actions = [AssertAction(FactTemplate("q", (VarRef("n"), Lit(rng.randrange(3)))))]
    if place == "where":
        where.insert(rng.randrange(2), fault_atom(rng, term))
    elif place == "actions":
        actions.insert(rng.randrange(2), fault_action(rng, term))
    else:
        post = Condition((fault_atom(rng, term),))
    return Rule("r", expr, Condition(tuple(where)), tuple(actions), post)


def reference_firing(rule, base, facts):
    """(outcome, error text, bindings) per solution, as the engine records
    them, from the reference evaluator and a copied store."""
    where = outcome_of(ref_evaluate, rule.where, base, facts)
    if isinstance(where, tuple):  # an exception's type and text
        return [(TxnOutcome.ROLLED_BACK, where[1], base)]
    store, out = RefStore(facts), []
    for sol in sorted(where, key=reference_report._solution_order_key):
        got = outcome_of(store.txn, rule.actions, rule.post, sol)
        if isinstance(got[0], type):
            out.append((TxnOutcome.ROLLED_BACK, got[1], sol))
        else:
            out.append((got[0], None, sol))
    return out


class TestPlanFaults:
    """A firing of a rule compiled when built fails exactly as the
    reference does: the same records, error texts byte for byte."""

    @pytest.mark.parametrize("place", ["where", "actions", "post"])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_fault_texts_match_reference(self, fault, place):
        expr, trigger, fault_terms = FAULTS[fault]
        errors = Counter()
        for seed in range(40):
            rng = random.Random(seed)
            rule = fault_rule(rng, place, expr, rng.choice(fault_terms))
            facts = [Fact("p", (rng.randrange(3),)) for _ in range(rng.randint(1, 3))]
            facts += [Fact("q", (f.args[0], 0)) for f in facts if rng.random() < 0.5]
            facts = list(dict.fromkeys(facts))
            payload = {"w": 1} if fault == "missing-field" else {"v": rng.randrange(3)}
            records = Engine(RuleSet((rule,)), initial_facts=facts).ingest(trigger, 1, payload)
            event = make_event(trigger, 1, payload, id=1)
            base = {"y" if trigger == "b" else "x": event}
            want = reference_firing(rule, base, facts)
            got = [(r.outcome, r.error, r.bindings) for r in records]
            assert same(got, want), (seed, rule)
            errors.update(r.error.partition(":")[0] for r in records if r.error)
        assert errors, "no firing failed: the cases test nothing"


def test_plans_are_built_with_the_rules_and_never_per_firing(monkeypatch):
    """On a kb_join-shaped replay each rule compiles once, when built; its
    firings run that plan and compile nothing."""
    builds = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            builds[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (reactor.rules, reactor.engine):
        for name in ("_check", "_plan_condition", "_plan_actions", "_getter"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    inst = workloads.kb_join(0, depts=4, n=60)
    rs = parse_rules(inst.rules)
    # per rule: one check, its where and post, its actions, and four terms
    assert builds == {"_check": 2, "_plan_condition": 4, "_plan_actions": 2, "_getter": 8}
    builds.clear()
    report = run_replay(rs, load_trace(inst.lines), initial_facts=inst.facts)
    firings = sum(inst.expected.committed.values())
    assert firings > 100 and len(report.records) == firings
    assert builds == {}
