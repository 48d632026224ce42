"""Every input boundary fails closed: seeded, bounded fuzzing.

Each test feeds random inputs through one boundary and requires that a call
either succeeds or raises a ReactorError subclass; any other exception is a
fault that escaped its typed error. The boundaries are rule text
(``parse_rules``, then an engine over it), trace lines (``load_trace``, then
a replay and its report), ``Engine.ingest``'s name, time and payload, and
rule sets, rules and actions built through the API with malformed facts in
their parts. Each test runs a fixed number of seeded cases, in about a
second. A last test hands an Occurrence and a ReactionRecord, which are
tuples, to each place in the API that takes any tuple.
"""

from __future__ import annotations

import json
import random
import sys
from types import MappingProxyType

import pytest

from reactor import (
    Any, AssertAction, Atomic, Comparison, Condition, EmitAction, Engine, EventTypeId,
    Fact, FactLookup, FactTemplate, HoldsAtom, InvalidConfig, InvalidExpression,
    InvalidRule, KnowledgeBase, Lit, NoopAction, ReactorError, RetractAction, Rule,
    RuleSet, RunReport, VarRef, evaluate_condition, load_trace, parse_rules,
    run_replay, triggering_graph, validate_expr,
)
from reactor.fluents import EffectDecl, EffectMode

TOO_LONG = 10 ** sys.get_int_max_str_digits()
NAN, INF = float("nan"), float("inf")

RULE_TEXTS = [
    "rule r: on a as ?e where ?e.v > 1 do emit(b, {v: ?e.v}) select last",
    "rule j: on hit as ?h where fact(emp, ?n, ?h.d) do assert(seen(?n, ?h.d))\n"
    "rule c: on clear as ?c where fact(seen, ?n, ?c.d) do retract(seen(?n, ?c.d))",
    "rule s: on seq(a as ?x, b as ?y) where ?x.k = ?y.k do noop consume multiple window 10",
    "rule n: on not(a, b, c as ?z) where not fact(p, ?z.v) and holds(up) "
    "do assert(p(?z.v)), emit(out, {}) post fact(p, ?z.v)\n"
    "effect a initiates up\neffect b terminates up",
    "rule t: on times(2, a as ?x) do emit(x, {n: 1, s: \"q\\\"\", f: -1.5, t: true})",
    "rule y: on any(2, a, b, c) select all consume single do retract(p(1, x))",
    "rule o: on or(a as ?u, and(b as ?u, c)) where ?u.v <= 3 and ?u.w != none "
    "do assert(q(?u.v)) # comment",
]
# fragments a mutation splices in: tokens of the grammar and things near them
FRAGMENTS = [
    "(", ")", "{", "}", ",", ":", ".", "?", "?x", "?x.v", "=", "!=", "<=", ">", "!",
    "\"", "\\", "\n", " ", "#", "rule", "on", "do", "where", "post", "select",
    "consume", "window", "effect", "initiates", "seq(", "and(", "or(", "not(",
    "any(", "times(", "fact(", "holds(", "assert(", "retract(", "emit(", "noop",
    "assert:p", "retract:", "timer", "0", "-1", "1.5", "-0.0", "9" * 5000, "1e5",
    "0." + "0" * 400 + "1", "é", "\x00", "\t", "all", "first", "last", "multiple",
    "single", "true", "false", "as", "r", "a", "b",
]


def fails_closed(call, *args, **kwargs):
    """What ``call`` returns, or None when it raised a ReactorError."""
    try:
        return call(*args, **kwargs)
    except ReactorError:
        return None


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(text) + 1)
        cut = rng.randint(0, 8)
        kind = rng.random()
        if kind < 0.3:
            text = text[:at] + text[at + cut:]
        elif kind < 0.7:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at:]
        elif kind < 0.85:
            text = text[:at] + text[at:at + cut] * 2 + text[at + cut:]
        else:
            text = text[:at]
    return text


def exercise(ruleset, rng: random.Random) -> None:
    """Run a few events of the rule set's own types through an engine."""
    triggering_graph(ruleset)
    names = sorted({n for r in ruleset.rules for n in r.type_names}) or ["a"]
    engine = Engine(ruleset, initial_facts=[Fact("p", (1,)), Fact("emp", ("n1", "d"))])
    for t in range(6):
        payload = {k: rng.choice([1, 2, "d", 1.5, True]) for k in ("v", "k", "d", "w")}
        fails_closed(engine.ingest, rng.choice(names), t, payload)


def test_mutated_rule_texts_fail_closed():
    rng = random.Random(20261020)
    parsed = 0
    for _ in range(6000):
        text = mutate(rng, rng.choice(RULE_TEXTS))
        ruleset = fails_closed(parse_rules, text)
        if ruleset is not None:
            parsed += 1
            fails_closed(exercise, ruleset, rng)
    assert parsed > 300  # the mutations reach the engine, not just the lexer


TRACE_VALUES = [
    0, 1, -1, 7, 1.5, True, None, "3", [], {}, [1], {"v": 1}, 10**20, TOO_LONG,
    -TOO_LONG, NAN, INF, "a", "assert:p", "timer", "", "\ud800",
]
RAW_LINES = [
    "", " ", "{", "}", "[]", "null", "1", "\"x\"", "{\"type\": \"a\"}",
    "{\"type\": \"a\", \"time\": NaN}", "{\"type\": \"a\", \"time\": 1, \"payload\": "
    "{\"v\": Infinity}}", "{\"type\": \"a\", \"time\": " + "9" * 5000 + "}",
    "{\"type\": \"a\", \"time\": 1e400}", "{\"type\": \"a\", \"time\": 1} trailing",
    "[" * 3000 + "]" * 3000, "{\"type\": \"a\", \"time\": 1, \"payload\": {\"v\": 1e-400}}",
    "{\"type\": \"a\", \"time\": 1, \"x\": 2}", "\x00",
    "{\"type\": \"a\", \"time\": 1}\x0c",
]


def trace_line(rng: random.Random) -> str:
    if rng.random() < 0.2:
        return rng.choice(RAW_LINES)
    obj = {"type": rng.choice(TRACE_VALUES[-5:] + ["a", "b", "hit"]),
           "time": rng.choice(TRACE_VALUES) if rng.random() < 0.3 else rng.randint(0, 9)}
    if rng.random() < 0.6:
        obj["payload"] = (rng.choice(TRACE_VALUES) if rng.random() < 0.2 else
                          {rng.choice(["v", "d", ""]): rng.choice(TRACE_VALUES)})
    if rng.random() < 0.1:
        obj[rng.choice(["type", "time", "extra"])] = rng.choice(TRACE_VALUES)
    if rng.random() < 0.2:
        obj = [obj]
    try:
        return json.dumps(obj)  # NaN and Infinity as the JSON extensions
    except ValueError:  # an int too long to write: the line holds its digits
        return "{\"type\": \"a\", \"time\": " + "1" * 5000 + "}"


def test_malformed_trace_lines_fail_closed():
    rng = random.Random(7)
    rules = parse_rules(
        "rule r: on a as ?e do emit(b, {v: ?e.v}), assert(p(?e.v))\n"
        "rule s: on seq(a as ?x, b as ?y) do noop\neffect a initiates up"
    )
    loaded = 0
    for _ in range(3000):
        lines = [trace_line(rng) for _ in range(rng.randint(1, 4))]
        trace = fails_closed(load_trace, lines)
        if trace is not None:
            loaded += 1
            # ticks cover the whole span, so only a short one takes them
            short = max((e.time for e in trace), default=0) < 100
            tick = rng.choice([None, 3]) if short else None
            report = fails_closed(run_replay, rules, trace, tick=tick)
            if report is not None:
                report.to_jsonl()
    assert loaded > 150


INGEST_NAMES = ["a", "b", "hit", "", None, 5, TOO_LONG, b"a", ["a"], "assert:p",
                "retract:p", "timer", "\ud800", "é"]
INGEST_TIMES = [0, 1, 2, 5, -1, 1.5, True, "3", None, 10**20, TOO_LONG, 8**640]
INGEST_PAYLOADS = [
    None, {}, {"v": 1}, {"d": "d"}, {"v": NAN}, {"v": INF}, {"v": TOO_LONG}, {1: 2},
    {TOO_LONG: 1}, {"v": [1]}, {"v": None}, {"v": Fact("k", 5)}, [("v", 1)], "x", 0,
    MappingProxyType({"v": 2}), MappingProxyType({"v": [TOO_LONG]}), {"v": "\ud800"},
]


def test_bad_ingest_calls_fail_closed():
    rng = random.Random(3)
    rules = parse_rules(
        "rule r: on a as ?e where fact(p, ?n) do emit(b, {v: ?e.v, n: ?n})\n"
        "rule s: on b as ?e do assert(q(?e.v))\neffect hit initiates up"
    )
    for _ in range(200):
        engine = Engine(rules, initial_facts=[Fact("p", (1,)), Fact("p", ("x",))])
        records = []
        for _ in range(12):
            got = fails_closed(
                engine.ingest, rng.choice(INGEST_NAMES), rng.choice(INGEST_TIMES),
                rng.choice(INGEST_PAYLOADS),
            )
            records += got or []
        RunReport(tuple(records), 12, tuple(engine.kb.facts()), {}).to_jsonl()


BAD_FACTS = [
    Fact("k", 5), Fact("k", Lit(1)), Fact(5, ()), Fact("k", [1]), Fact("", ()),
    Fact(None), Fact("k", (TOO_LONG,)), Fact("k", ([TOO_LONG],)), Fact(TOO_LONG),
    Fact("k", (Fact("j", 5),)), Fact("k", (NAN,)), Fact("k", ("x", Lit(1))),
    Fact("k", VarRef("x")), Fact(("k", Lit(1)), (("j", Lit(2)),)),
]


def api_parts(rng: random.Random, bad: Fact):
    """A rule set through the API with ``bad`` in one part, and initial facts."""
    on = Atomic(EventTypeId("a"), "e")
    where, post, actions = None, None, [EmitAction("b", (("v", Lit(1)),))]
    rules, effects, facts = [], [], [Fact("p", (1,))]
    slot = rng.randrange(12)
    if slot == 0:
        actions.append(EmitAction("b", (bad,)))
    elif slot == 1:
        actions.append(EmitAction("b", (("k", bad),)))
    elif slot == 2:
        actions.append(EmitAction("b", bad))
    elif slot == 3:
        actions.append(rng.choice([AssertAction, RetractAction])(bad))
    elif slot == 4:
        actions.append(AssertAction(FactTemplate("p", bad)))
    elif slot == 5:
        where = Condition((FactLookup("p", bad),))
    elif slot == 6:
        post = Condition((Comparison(Lit(bad), "=", Lit(1)),))
    elif slot == 7:
        where = Condition((bad, HoldsAtom("up")))
    elif slot == 8:
        rules.append(bad)
    elif slot == 9:
        effects.append(rng.choice([bad, EffectDecl("a", EffectMode.INITIATES, "up")]))
    elif slot == 10:
        actions = bad if rng.random() < 0.5 else (NoopAction(), bad)
    else:
        facts.append(bad)
    return on, where, tuple(actions), post, rules, tuple(effects), facts


def build_and_run(on, where, actions, post, rules, effects, facts):
    rule = Rule("r", on, where=where, actions=actions, post=post)
    ruleset = RuleSet(tuple([rule, *rules]), effects)
    engine = Engine(ruleset, initial_facts=facts)
    for t in range(3):
        engine.ingest("a", t, {"v": t})


def test_api_parts_holding_malformed_facts_fail_closed():
    rng = random.Random(11)
    for _ in range(2000):
        fails_closed(build_and_run, *api_parts(rng, rng.choice(BAD_FACTS)))


def _tuple_backed():
    """An Occurrence and a ReactionRecord, as the engine builds them."""
    record = Engine(parse_rules("rule r: on a as ?e do noop")).ingest("a", 1, {"v": 1})[0]
    return {"occurrence": record.occurrence, "record": record}


_ON = Atomic(EventTypeId("a"), "e")
# each place where src/ takes any tuple, with the typed error it must raise
# when handed a tuple-backed value there
TUPLE_SITES = {
    "any types": (lambda v: validate_expr(Any(1, v)), InvalidExpression),
    "fact args": (lambda v: Engine(RuleSet(()), [Fact("k", v)]), InvalidConfig),
    "initial fact": (lambda v: Engine(RuleSet(()), [v]), InvalidConfig),
    "rule actions": (lambda v: Rule("r", _ON, actions=v), InvalidRule),
    "rule set rules": (lambda v: RuleSet(v), InvalidRule),
    "rule set effects": (lambda v: RuleSet((), v), InvalidRule),
    "template terms": (
        lambda v: Rule("r", _ON, actions=(AssertAction(FactTemplate("p", v)),)), InvalidRule),
    "lookup terms": (
        lambda v: Rule("r", _ON, where=Condition((FactLookup("p", v),))), InvalidRule),
    "condition atoms": (lambda v: Rule("r", _ON, where=Condition(v)), InvalidRule),
    "unchecked condition atoms": (
        lambda v: evaluate_condition(Condition(v), {}, KnowledgeBase(), 0), InvalidRule),
    "emit payload": (lambda v: Rule("r", _ON, actions=(EmitAction("b", v),)), InvalidRule),
    "emit payload pair": (
        lambda v: Rule("r", _ON, actions=(EmitAction("b", (v,)),)), InvalidRule),
}


@pytest.mark.parametrize("kind", ["occurrence", "record"])
@pytest.mark.parametrize("site", list(TUPLE_SITES))
def test_tuple_backed_value_as_a_tuple_fails_closed(site, kind):
    # an Occurrence or a ReactionRecord is a tuple, so each isinstance(x,
    # tuple) test lets it through: what follows must still refuse it typed
    call, error = TUPLE_SITES[site]
    with pytest.raises(error):
        call(_tuple_backed()[kind])
