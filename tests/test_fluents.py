"""Fluent tracking: initiate/terminate effects over half-open intervals."""

import random

import pytest

from reactor import (
    DuplicateEffect,
    EffectDecl,
    EffectMode,
    EventTypeId,
    FluentHistory,
    Interval,
    InvalidRule,
    OutOfOrderEvent,
    RuleSet,
    parse_rules,
    run_replay,
)

from helpers import make_event


def fh(*effects):
    return FluentHistory(
        EffectDecl(tname, EffectMode(mode), fluent) for tname, mode, fluent in effects
    )


class TestDeclare:
    def test_duplicate_rejected(self):
        # the rule set that declares the effects is where duplicates stop
        eff = EffectDecl("start", EffectMode.INITIATES, "on_duty")
        with pytest.raises(DuplicateEffect):
            RuleSet((), (eff, eff))

    def test_same_event_different_fluents_ok(self):
        h = fh(("start", "initiates", "on_duty"), ("start", "initiates", "lights"))
        assert sorted(h.fluents) == ["lights", "on_duty"]

    def test_same_fluent_opposite_modes_ok(self):
        fh(("go", "initiates", "f"), ("go", "terminates", "f"))

    # a str mode would be applied as an initiation, and a fluent named 5
    # next to a str-named one would break the sort of the report's names
    @pytest.mark.parametrize(
        "fields, match",
        [
            (("down", "terminates", "f"),
             "effect mode must be an EffectMode, got 'terminates'"),
            (("up", EffectMode.INITIATES, 5),
             "effect fluent must be a non-empty str, got 5"),
            (("up", EffectMode.INITIATES, ""), "effect fluent must be a non-empty str"),
            (("", EffectMode.INITIATES, "f"), "effect type name must be a non-empty str"),
            ((EventTypeId("up"), EffectMode.INITIATES, "f"),
             "effect type name must be a non-empty str"),
        ],
        ids=repr,
    )
    def test_malformed_effect_refused(self, fields, match):
        with pytest.raises(InvalidRule, match=match):
            EffectDecl(*fields)

    @pytest.mark.parametrize(
        "item", [("up", "initiates", "f"), ("up", EffectMode.INITIATES, "f"), None],
        ids=repr,
    )
    def test_effect_that_is_no_effect_decl_refused(self, item):
        good = EffectDecl("down", EffectMode.TERMINATES, "f")
        with pytest.raises(InvalidRule, match="a fluent effect must be an EffectDecl"):
            FluentHistory([good, item])

    def test_parsed_effects_are_the_declared_ones(self):
        rs = parse_rules(
            "effect up initiates f\neffect down terminates f\nrule r: on up do noop"
        )
        assert rs.effects == (
            EffectDecl("up", EffectMode.INITIATES, "f"),
            EffectDecl("down", EffectMode.TERMINATES, "f"),
        )
        trace = [make_event("up", 1, id=1), make_event("down", 3, id=2)]
        assert '"fluents":{"f":[[1,3]]}' in run_replay(rs, trace).to_jsonl()


class TestHalfOpenInterval:
    def test_start_stop_gives_half_open(self):
        # start@1, stop@5 -> holds on [1,5): true at 1..4, false at 0 and 5
        h = fh(("start", "initiates", "f"), ("stop", "terminates", "f"))
        h.record(make_event("start", 1, id=1))
        h.record(make_event("stop", 5, id=2))
        assert not h.holds_at("f", 0)
        assert h.holds_at("f", 1)
        assert h.holds_at("f", 4)
        assert not h.holds_at("f", 5)
        assert not h.holds_at("f", 6)
        assert h.fluent_intervals("f") == [Interval(1, 5)]

    def test_unterminated_fluent_holds_forever(self):
        h = fh(("start", "initiates", "f"))
        h.record(make_event("start", 3, id=1))
        assert not h.holds_at("f", 2)
        assert h.holds_at("f", 3)
        assert h.holds_at("f", 10 ** 9)
        assert h.fluent_intervals("f") == [Interval(3, None)]

    def test_multiple_intervals(self):
        h = fh(("start", "initiates", "f"), ("stop", "terminates", "f"))
        for i, (t, tm) in enumerate(
            [("start", 1), ("stop", 3), ("start", 7), ("stop", 9)], start=1
        ):
            h.record(make_event(t, tm, id=i))
        assert h.fluent_intervals("f") == [Interval(1, 3), Interval(7, 9)]
        assert h.holds_at("f", 2) and h.holds_at("f", 8)
        assert not h.holds_at("f", 5)

    def test_redundant_initiate_keeps_original_start(self):
        h = fh(("start", "initiates", "f"), ("stop", "terminates", "f"))
        h.record(make_event("start", 1, id=1))
        h.record(make_event("start", 4, id=2))
        h.record(make_event("stop", 6, id=3))
        assert h.fluent_intervals("f") == [Interval(1, 6)]

    def test_terminate_when_not_holding_is_noop(self):
        h = fh(("stop", "terminates", "f"))
        h.record(make_event("stop", 4, id=1))
        assert h.fluent_intervals("f") == []


class TestSameInstantTies:
    def test_terminate_wins_when_open(self):
        # open since 1; start@5 and stop@5 in either order -> closed [1,5)
        for order in (("start", "stop"), ("stop", "start")):
            h = fh(("start", "initiates", "f"), ("stop", "terminates", "f"))
            h.record(make_event("start", 1, id=1))
            for i, tname in enumerate(order, start=2):
                h.record(make_event(tname, 5, id=i))
            assert h.fluent_intervals("f") == [Interval(1, 5)], order
            assert not h.holds_at("f", 5)

    def test_instantaneous_interval_is_dropped(self):
        # start@5 then stop@5 while closed: [5,5) is empty
        for order in (("start", "stop"), ("stop", "start")):
            h = fh(("start", "initiates", "f"), ("stop", "terminates", "f"))
            for i, tname in enumerate(order, start=1):
                h.record(make_event(tname, 5, id=i))
            assert h.fluent_intervals("f") == [], order
            assert not h.holds_at("f", 5)


class TestRecord:
    def test_regression_rejected(self):
        h = fh(("start", "initiates", "f"))
        h.record(make_event("start", 5, id=2))
        with pytest.raises(OutOfOrderEvent):
            h.record(make_event("start", 4, id=3))
        with pytest.raises(OutOfOrderEvent):
            h.record(make_event("start", 5, id=1))

    def test_applies_every_effect_of_the_type(self):
        h = fh(("go", "initiates", "f"), ("go", "initiates", "g"))
        assert h.record(make_event("go", 1, id=1)) is None
        assert h.holds_at("f", 1) and h.holds_at("g", 1)
        h.record(make_event("other", 2, id=2))  # no effect declared
        assert h.holds_at("f", 2) and h.holds_at("g", 2)
        assert h.fluent_intervals("f") == h.fluent_intervals("g") == [Interval(1, None)]
        assert h.fluents == ["f", "g"]

    def test_internal_update_events_can_drive_fluents(self):
        h = fh(("assert:busy", "initiates", "busy"), ("retract:busy", "terminates", "busy"))
        h.record(make_event("assert:busy", 2, id=1))
        h.record(make_event("retract:busy", 8, id=2))
        assert h.fluent_intervals("busy") == [Interval(2, 8)]

    def test_unknown_fluent_never_holds(self):
        h = fh()
        assert not h.holds_at("ghost", 3)
        assert h.fluent_intervals("ghost") == []


class TestConsistencyProperty:
    def test_holds_iff_interval_membership(self):
        rng = random.Random(41)
        for _ in range(100):
            h = fh(("up", "initiates", "f"), ("down", "terminates", "f"))
            t = 0
            n = rng.randint(0, 20)
            for i in range(1, n + 1):
                t += rng.randint(0, 3)
                h.record(make_event(rng.choice(["up", "down", "noise"]), t, id=i))
            ivs = h.fluent_intervals("f")
            for q in range(0, t + 2):
                member = any(
                    iv.start <= q and (iv.end is None or q < iv.end) for iv in ivs
                )
                assert h.holds_at("f", q) == member, (ivs, q)

    def test_intervals_are_disjoint_and_ordered(self):
        rng = random.Random(42)
        for _ in range(60):
            h = fh(("up", "initiates", "f"), ("down", "terminates", "f"))
            t = 0
            for i in range(1, rng.randint(1, 20) + 1):
                t += rng.randint(0, 2)
                h.record(make_event(rng.choice(["up", "down"]), t, id=i))
            ivs = h.fluent_intervals("f")
            for prev, cur in zip(ivs, ivs[1:]):
                assert prev.end is not None and prev.end <= cur.start
            # only the last interval may be open
            assert all(iv.end is not None for iv in ivs[:-1])
