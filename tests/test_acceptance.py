"""End-to-end acceptance gate.

One test class per contract the package must honor: detector/oracle
equivalence, interval-semantics composition, the selection/consumption
matrix, the outage and cascade reaction scenarios, termination analysis,
transactional rollback, fluent tracking, and a determinism/throughput
smoke on a large replay. Expected values are hand-derived and frozen;
randomized checks use fixed seeds so failures reproduce.
"""

import json
import random
import time

import pytest

from reactor import (
    Atomic,
    ChainLimitExceeded,
    ConsumptionPolicy,
    Detector,
    DetectorConfig,
    EffectDecl,
    EffectMode,
    Engine,
    EventTypeId,
    Fact,
    FluentHistory,
    SelectionPolicy,
    Seq,
    occurrences,
    occurrences_point,
    parse_rules,
    run_replay,
    triggering_graph,
)
from helpers import history, make_event, proj, random_expr, random_history

SEED = 20260819
ORACLE_TRIALS = 1000

A = Atomic(EventTypeId("a"))
B = Atomic(EventTypeId("b"))
C = Atomic(EventTypeId("c"))


def oracle_cases(trials=ORACLE_TRIALS, seed=SEED):
    """The shared randomized corpus: (history, expression) pairs."""
    rng = random.Random(seed)
    for _ in range(trials):
        yield random_history(rng), random_expr(rng)


class TestOracleEquivalence:
    """Incremental detection agrees with brute-force enumeration."""

    def test_feed_matches_enumeration_on_randomized_corpus(self):
        config = DetectorConfig(
            selection=SelectionPolicy.ALL,
            consumption=ConsumptionPolicy.MULTIPLE,
            window=None,
        )
        started = time.perf_counter()
        for hist, expr in oracle_cases():
            expected = proj(occurrences(expr, hist))
            det = Detector(expr, config)
            got = set()
            for e in hist:
                for o in det.feed(e):
                    got.add((o.interval.start, o.interval.end,
                             tuple(sorted(o.components))))
            assert got == expected, f"divergence on {expr!r} over {hist!r}"
        assert time.perf_counter() - started < 10.0


class TestIntervalComposition:
    """Why detection timestamps are intervals, not points."""

    # b@1, a@2, c@3: under point timestamps seq(a, seq(b, c)) "detects"
    # at 3 even though a follows b; interval timestamps reject it.
    TRACE = history(("b", 1), ("a", 2), ("c", 3))
    RIGHT = Seq(A, Seq(B, C))
    LEFT = Seq(Seq(A, B), C)

    def test_point_semantics_admits_the_misordered_match(self):
        got = occurrences_point(self.RIGHT, self.TRACE)
        assert {t for t, _ in got} == {3}
        assert {ids for _, ids in got} == {frozenset({1, 2, 3})}

    def test_interval_semantics_rejects_it(self):
        assert occurrences(self.RIGHT, self.TRACE) == frozenset()

    def test_point_semantics_breaks_seq_associativity(self):
        # same trace, other grouping: nothing detected, so the two
        # groupings disagree under point semantics
        assert occurrences_point(self.LEFT, self.TRACE) == frozenset()

    def test_interval_seq_is_associative_on_randomized_corpus(self):
        for hist, _ in oracle_cases():
            assert proj(occurrences(self.RIGHT, hist)) == proj(
                occurrences(self.LEFT, hist)
            )


class TestPolicyMatrix:
    """Hand-simulated firing schedule for a@1, a@2, b@3, b@4 with seq(a, b)."""

    STREAM = history(("a", 1), ("a", 2), ("b", 3), ("b", 4))

    def run(self, selection, consumption):
        det = Detector(
            Seq(A, B), DetectorConfig(selection=selection, consumption=consumption)
        )
        return [
            [(d.interval.start, d.interval.end)
             for d in det.feed(e)]
            for e in self.STREAM
        ]

    def test_first_single(self):
        # b@3 pairs with the earliest a (a@1), consuming both; b@4 gets a@2
        got = self.run(SelectionPolicy.FIRST, ConsumptionPolicy.SINGLE)
        assert got == [[], [], [(1, 3)], [(2, 4)]]

    def test_last_single(self):
        # b@3 pairs with the latest a (a@2); a@1 stays available for b@4
        got = self.run(SelectionPolicy.LAST, ConsumptionPolicy.SINGLE)
        assert got == [[], [], [(2, 3)], [(1, 4)]]

    def test_all_multiple(self):
        # nothing is consumed: each b pairs with every a seen so far
        got = self.run(SelectionPolicy.ALL, ConsumptionPolicy.MULTIPLE)
        assert got == [[], [], [(1, 3), (2, 3)], [(1, 4), (2, 4)]]


def alert_count(records):
    return sum(
        1 for r in records for e in r.events if e.type.name == "alert"
    )


class TestOutageScenario:
    """Four outages raise one alert; the fifth depends on consumption."""

    def rules(self, consumption):
        return parse_rules(
            "rule watch: on times(4, outage) do emit(alert, {})"
            f" select all consume {consumption}"
        )

    def test_single_receive_alerts_once(self):
        eng = Engine(self.rules("single"))
        counts = [
            alert_count(eng.ingest("outage", t, {})) for t in range(1, 6)
        ]
        # the 4th outage completes the quadruple and consumes it; the 5th
        # has nothing left to combine with
        assert counts == [0, 0, 0, 1, 0]

    def test_multiple_receive_alerts_again(self):
        eng = Engine(self.rules("multiple"))
        counts = [
            alert_count(eng.ingest("outage", t, {})) for t in range(1, 6)
        ]
        # at the 5th outage every size-4 subset containing it fires: C(4,3)
        assert counts == [0, 0, 0, 1, 4]


CASCADE_RULES = """
rule close_dept: on dept_closed as ?c do retract(dept(?c.name))
rule cascade: on retract:dept as ?d where fact(emp, ?n, ?d.arg0)
  do retract(emp(?n, ?d.arg0))
"""


class TestCascadeScenario:
    """Retracting a department cascades to its employees via chaining."""

    def test_both_employees_removed(self):
        eng = Engine(
            parse_rules(CASCADE_RULES),
            initial_facts=[
                Fact("dept", ("sales",)),
                Fact("emp", ("ann", "sales")),
                Fact("emp", ("bob", "sales")),
            ],
        )
        records = eng.ingest("dept_closed", 4, {"name": "sales"})
        assert eng.kb.snapshot() == frozenset()
        assert [r.rule_id for r in records] == ["close_dept", "cascade", "cascade"]

    def test_ruleset_is_statically_acyclic(self):
        g = triggering_graph(parse_rules(CASCADE_RULES))
        assert g.acyclic and g.cycles == ()


CYCLE_RULES = """
rule r1: on a do assert(p)
rule r2: on assert:p do retract(p), emit(a, {})
"""


class TestTermination:
    def test_static_analysis_flags_the_cycle(self):
        g = triggering_graph(parse_rules(CYCLE_RULES))
        assert not g.acyclic
        assert g.cycles == (("r1", "r2"),)

    def test_runtime_chain_aborts_at_the_limit(self):
        eng = Engine(parse_rules(CYCLE_RULES), chain_limit=10)
        with pytest.raises(ChainLimitExceeded) as ei:
            eng.ingest("a", 1, {})
        assert "limit 10" in str(ei.value)
        # everything up to the abort was committed and is reported
        assert [r.depth for r in ei.value.records] == list(range(11))

    @staticmethod
    def random_acyclic_ruleset(rng):
        """Rules only ever raise types of strictly later rules, so the
        triggering graph is a DAG by construction."""
        n = rng.randint(1, 6)
        lines = []
        for i in range(n):
            internal = i > 0 and rng.random() < 0.4
            trigger = f"assert:p{i}" if internal else f"e{i}"
            acts = []
            for _ in range(rng.randint(1, 3)):
                later = list(range(i + 1, n))
                roll = rng.random()
                if later and roll < 0.45:
                    acts.append(f"assert(p{rng.choice(later)})")
                elif later and roll < 0.75:
                    acts.append(f"emit(e{rng.choice(later)}, {{}})")
                elif roll < 0.9:
                    acts.append(f"assert(q{i})")
                else:
                    acts.append("noop")
            lines.append(f"rule r{i}: on {trigger} do {', '.join(acts)}")
        return "\n".join(lines), n

    def test_random_acyclic_rulesets_never_hit_the_limit(self):
        rng = random.Random(SEED)
        for _ in range(100):
            text, n = self.random_acyclic_ruleset(rng)
            rules = parse_rules(text)
            assert triggering_graph(rules).acyclic, text
            eng = Engine(rules)  # default limit 1000
            for i in range(n):
                eng.ingest(f"e{i}", i + 1, {})  # ChainLimitExceeded would fail


class TestTransactionalRollback:
    def test_failed_postcondition_leaves_no_trace(self):
        eng = Engine(parse_rules("rule guard: on go do assert(p) post fact(q)"))
        before = json.dumps(sorted(repr(f) for f in eng.kb.snapshot()))
        (record,) = eng.ingest("go", 1, {})
        assert record.outcome.value == "rolled_back"
        assert record.events == ()  # zero internal events escaped
        after = json.dumps(sorted(repr(f) for f in eng.kb.snapshot()))
        assert after == before
        assert list(eng.kb.journal) == []
        assert eng.kb.replay_journal() == eng.kb.snapshot()


def holds_by_membership(intervals, t):
    return any(
        iv.start <= t and (iv.end is None or t < iv.end) for iv in intervals
    )


class TestFluentConsistency:
    def make_history(self):
        return FluentHistory(
            (
                EffectDecl("go", EffectMode.INITIATES, "f"),
                EffectDecl("stop", EffectMode.TERMINATES, "f"),
            )
        )

    def test_start_one_stop_five(self):
        fh = self.make_history()
        fh.record(make_event("go", 1, id=1))
        fh.record(make_event("stop", 5, id=2))
        (iv,) = fh.fluent_intervals("f")
        assert (iv.start, iv.end) == (1, 5)
        assert [fh.holds_at("f", t) for t in (0, 1, 4, 5, 6)] == [
            False, True, True, False, False,
        ]

    def test_holds_agrees_with_intervals_on_random_histories(self):
        rng = random.Random(SEED)
        for _ in range(100):
            fh = self.make_history()
            t = 0
            for i in range(rng.randint(0, 20)):
                t += rng.randint(0, 3)
                fh.record(make_event(rng.choice(("go", "stop")), t, id=i + 1))
            intervals = fh.fluent_intervals("f")
            for tick in range(0, t + 3):
                assert fh.holds_at("f", tick) == holds_by_membership(
                    intervals, tick
                ), (intervals, tick)


REPLAY_RULES = """
effect ping initiates pinging
effect pong terminates pinging
rule burst: on times(3, ping) do emit(burst_alert, {}) consume single window 10
rule pair: on seq(ask as ?a, reply as ?r) where ?a.key = ?r.key
  do assert(seen(?r.key)) consume single window 2
rule audit: on ping where holds(pinging) do noop
"""


def big_trace(n=100_000):
    """Deterministic mix: mostly filler, with periodic pings, pongs, and
    matching ask/reply pairs."""
    out = []
    for i in range(n):
        t = i // 10
        r = i % 20
        if r == 0:
            out.append(make_event("ask", t, {"key": (i // 20) % 10}, id=i + 1))
        elif r == 10:
            out.append(make_event("reply", t, {"key": (i // 20) % 10}, id=i + 1))
        elif r in (6, 16):
            out.append(make_event("ping", t, None, id=i + 1))
        elif r == 13:
            out.append(make_event("pong", t, None, id=i + 1))
        else:
            out.append(make_event(f"w{i % 4}", t, None, id=i + 1))
    return out


class TestReplayDeterminismAndThroughput:
    def test_large_replay_is_fast_and_byte_stable(self):
        rules = parse_rules(REPLAY_RULES)
        trace = big_trace()

        started = time.perf_counter()
        first = run_replay(rules, trace).to_jsonl()
        first_elapsed = time.perf_counter() - started

        started = time.perf_counter()
        second = run_replay(rules, trace).to_jsonl()
        second_elapsed = time.perf_counter() - started

        assert first_elapsed < 10.0 and second_elapsed < 10.0
        assert first.encode() == second.encode()

        summary = json.loads(first.splitlines()[-1])["summary"]
        assert summary["dispatched"] >= 100_000
        assert summary["records"] > 3000  # the workload actually fires
        assert summary["error"] is None
