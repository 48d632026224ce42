"""Interval-semantics occurrence enumeration (the brute-force oracle).

Expected sets in this file were enumerated by hand from the operator
definitions before running the implementation; the enumerations are kept in
comments next to each assertion.
"""

import random

import pytest

from reactor import (
    And,
    Any,
    Atomic,
    EventTypeId,
    InvalidExpression,
    Interval,
    Not,
    Or,
    Seq,
    Times,
    UnsortedHistory,
    occurrences,
    occurrences_point,
    validate_expr,
)
from reactor.algebra import (
    check_sorted,
    merge_group,
    merge_occurrences,
    occurrence_of,
)

from helpers import history, make_event, proj, random_expr, random_history

A, B, C, X = (Atomic(EventTypeId(t)) for t in "abcx")


class TestValidateExpr:
    def test_duplicate_binding_rejected(self):
        with pytest.raises(InvalidExpression):
            validate_expr(Seq(Atomic(EventTypeId("a"), "x"), Atomic(EventTypeId("b"), "x")))

    def test_any_count_exceeds_types(self):
        with pytest.raises(InvalidExpression):
            validate_expr(Any(3, (EventTypeId("a"), EventTypeId("b"))))

    def test_any_duplicate_types(self):
        with pytest.raises(InvalidExpression):
            validate_expr(Any(2, (EventTypeId("a"), EventTypeId("a"))))

    def test_counts_must_be_positive(self):
        with pytest.raises(InvalidExpression):
            validate_expr(Any(0, (EventTypeId("a"),)))
        with pytest.raises(InvalidExpression):
            validate_expr(Times(0, A))

    def test_nesting_limit(self):
        def nested(depth):
            expr = A
            for _ in range(depth):
                expr = Seq(expr, B)
            return expr

        validate_expr(nested(100))
        for depth in (101, 5000):
            with pytest.raises(InvalidExpression, match="nested deeper than 100"):
                validate_expr(nested(depth))

    def test_oracle_validates_before_recursing(self):
        deep = A
        for _ in range(2000):
            deep = Seq(deep, B)
        h = [make_event("a", 1, id=1)]
        for oracle in (occurrences, occurrences_point):
            with pytest.raises(InvalidExpression, match="nested deeper than 100"):
                oracle(deep, h)

    def test_node_that_is_no_expression_refused(self):
        with pytest.raises(InvalidExpression) as ei:
            validate_expr(Seq(A, "x"))
        assert str(ei.value) == "unknown expression node 'x'"

    def test_well_formed_pass(self):
        validate_expr(Seq(A, Not(X, B, C)))
        validate_expr(Times(1, Or(A, B)))

    def test_returns_every_type_name_mentioned(self):
        assert validate_expr(Seq(A, Not(X, B, C))) == frozenset("abcx")
        assert validate_expr(Times(2, Or(A, A))) == frozenset("a")
        y, z = EventTypeId("y"), EventTypeId("z")
        assert validate_expr(And(Any(1, (y, z)), B)) == frozenset("byz")


class TestOccurrenceMerge:
    def test_atomic_occurrence(self):
        e = make_event("a", 4, id=7)
        o = occurrence_of(e, "x")
        assert o.interval == Interval(4, 4)
        assert o.components == frozenset({7})
        assert o.bindings == {"x": e}

    def test_merge_covers_and_tracks_endpoints(self):
        e1 = make_event("b", 1, id=1)
        e2 = make_event("a", 3, id=2)
        m = merge_occurrences(occurrence_of(e2, "p"), occurrence_of(e1, "q"))
        assert m.interval == Interval(1, 3)
        assert m.initiator_time == 1 and m.initiator_id == 1
        assert m.terminator_time == 3 and m.terminator_id == 2
        assert m.bindings == {"p": e2, "q": e1}

    def test_merge_tie_breaks_by_id(self):
        # same instant: smallest id initiates, largest id terminates
        e1 = make_event("a", 5, id=1)
        e2 = make_event("b", 5, id=2)
        m = merge_occurrences(occurrence_of(e2), occurrence_of(e1))
        assert m.initiator_id == 1 and m.terminator_id == 2

    def test_merge_group_drops_bindings(self):
        e1 = make_event("a", 1, id=1)
        e2 = make_event("b", 2, id=2)
        g = merge_group([occurrence_of(e1, "x"), occurrence_of(e2, "y")])
        assert g.bindings == {}
        assert g.interval == Interval(1, 2)
        assert g.components == frozenset({1, 2})


class TestSortedHistory:
    def test_time_regression_rejected(self):
        h = [make_event("a", 5, id=1), make_event("b", 3, id=2)]
        with pytest.raises(UnsortedHistory):
            occurrences(A, h)

    def test_id_regression_at_same_time_rejected(self):
        h = [make_event("a", 5, id=2), make_event("b", 5, id=1)]
        with pytest.raises(UnsortedHistory):
            check_sorted(h)

    def test_simultaneous_events_allowed(self):
        h = history(("a", 5), ("b", 5))
        check_sorted(h)


class TestSeq:
    def test_two_starters_one_closer(self):
        # a@1#1, a@2#2, b@3#3; pairs with a strictly before b:
        # (1,3) -> [1,3], (2,3) -> [2,3]
        h = history(("a", 1), ("a", 2), ("b", 3))
        assert proj(occurrences(Seq(A, B), h)) == {(1, 3, (1, 3)), (2, 3, (2, 3))}

    def test_strictness_excludes_simultaneous(self):
        # a@2, b@2: [2,2] does not end before [2,2] starts
        h = history(("a", 2), ("b", 2))
        assert occurrences(Seq(A, B), h) == frozenset()

    def test_interval_order_not_arrival_order(self):
        # arrival b@1 then a@2: Seq(A,B) wants a's interval before b's; none
        h = history(("b", 1), ("a", 2))
        assert occurrences(Seq(A, B), h) == frozenset()
        assert proj(occurrences(Seq(B, A), h)) == {(1, 2, (1, 2))}


class TestAnomaly:
    """Trace b@1, a@2, c@3 separates interval from point-time semantics."""

    H = history(("b", 1), ("a", 2), ("c", 3))
    RIGHT = Seq(A, Seq(B, C))  # a before (b before c)
    LEFT = Seq(Seq(A, B), C)

    def test_interval_semantics_rejects(self):
        # Seq(B,C) gives [1,3]; a@2 is not strictly before [1,3]
        assert occurrences(self.RIGHT, self.H) == frozenset()

    def test_point_semantics_accepts(self):
        # point semantics dates Seq(B,C) at 3; a@2 < 3 passes; detection at 3
        assert occurrences_point(self.RIGHT, self.H) == frozenset(
            {(3, frozenset({1, 2, 3}))}
        )

    def test_point_semantics_is_not_associative(self):
        # regrouped: Seq(A,B) needs a's point 2 < b's point 1; empty
        assert occurrences_point(self.LEFT, self.H) == frozenset()

    def test_interval_semantics_agrees_on_both_groupings(self):
        assert occurrences(self.LEFT, self.H) == occurrences(self.RIGHT, self.H)


class TestAnd:
    def test_cover_any_order(self):
        # b@1#1, a@2#2: conjunction covers both -> [1,2]
        h = history(("b", 1), ("a", 2))
        assert proj(occurrences(And(A, B), h)) == {(1, 2, (1, 2))}
        assert proj(occurrences(And(B, A), h)) == {(1, 2, (1, 2))}

    def test_components_must_be_disjoint(self):
        # And(A, A) over a single a: one event cannot fill both slots
        h = history(("a", 1),)
        assert occurrences(And(A, A), h) == frozenset()

    def test_two_as_pair_both_ways(self):
        # a@1#1, a@2#2: {1,2} in either slot order; dedup to one occurrence
        h = history(("a", 1), ("a", 2))
        assert proj(occurrences(And(A, A), h)) == {(1, 2, (1, 2))}


class TestOr:
    def test_union(self):
        h = history(("a", 1), ("b", 2))
        assert proj(occurrences(Or(A, B), h)) == {(1, 1, (1,)), (2, 2, (2,))}

    def test_overlapping_alternatives_dedup(self):
        # Or(A, A): both branches yield the identical occurrence
        h = history(("a", 1),)
        assert proj(occurrences(Or(A, A), h)) == {(1, 1, (1,))}


class TestNot:
    def test_absence_blocks(self):
        # a@1, x@2, b@3: x strictly between [1,1] and [3,3] blocks the pair
        h = history(("a", 1), ("x", 2), ("b", 3))
        assert occurrences(Not(X, A, B), h) == frozenset()

    def test_no_blocker_matches(self):
        h = history(("a", 1), ("b", 3))
        assert proj(occurrences(Not(X, A, B), h)) == {(1, 3, (1, 2))}

    def test_boundary_blockers_do_not_block(self):
        # x@1 is not strictly after the opener; x@3 not strictly before closer
        h1 = history(("a", 1), ("x", 1), ("b", 3))
        assert proj(occurrences(Not(X, A, B), h1)) == {(1, 3, (1, 3))}
        h2 = history(("a", 1), ("x", 3), ("b", 3))
        assert proj(occurrences(Not(X, A, B), h2)) == {(1, 3, (1, 3))}

    def test_blocker_outside_window_between(self):
        # x@9 after the closer does not block [1,3]
        h = history(("a", 1), ("b", 3), ("x", 9))
        assert (1, 3, (1, 2)) in proj(occurrences(Not(X, A, B), h))

    def test_compound_absent(self):
        # absent = Seq(x,x): only blocks when two xs sit strictly inside
        expr = Not(Seq(X, X), A, B)
        blocked = history(("a", 1), ("x", 2), ("x", 3), ("b", 5))
        assert occurrences(expr, blocked) == frozenset()
        single_x = history(("a", 1), ("x", 2), ("b", 5))
        assert proj(occurrences(expr, single_x)) == {(1, 5, (1, 3))}


class TestAny:
    def test_distinct_types_pairs(self):
        # a@1#1, b@2#2, c@3#3 choose 2 of distinct types:
        # {a,b} [1,2], {a,c} [1,3], {b,c} [2,3]
        h = history(("a", 1), ("b", 2), ("c", 3))
        expr = Any(2, (EventTypeId("a"), EventTypeId("b"), EventTypeId("c")))
        assert proj(occurrences(expr, h)) == {
            (1, 2, (1, 2)),
            (1, 3, (1, 3)),
            (2, 3, (2, 3)),
        }

    def test_same_type_never_pairs(self):
        h = history(("a", 1), ("a", 2))
        expr = Any(2, (EventTypeId("a"), EventTypeId("b")))
        assert occurrences(expr, h) == frozenset()

    def test_bindings_dropped(self):
        h = history(("a", 1), ("b", 2))
        expr = Any(2, (EventTypeId("a"), EventTypeId("b")))
        (occ,) = occurrences(expr, h)
        assert occ.bindings == {}


class TestTimes:
    def test_exact_count_single_occurrence(self):
        # outage@1..4: exactly one 4-subset
        h = history(("outage", 1), ("outage", 2), ("outage", 3), ("outage", 4))
        expr = Times(4, Atomic(EventTypeId("outage")))
        assert proj(occurrences(expr, h)) == {(1, 4, (1, 2, 3, 4))}

    def test_five_events_give_five_subsets(self):
        h = history(*[("outage", t) for t in range(1, 6)])
        expr = Times(4, Atomic(EventTypeId("outage")))
        assert len(occurrences(expr, h)) == 5  # C(5,4)

    def test_component_disjoint_subsets_only(self):
        # seq occurrences over a@1,b@2,a@3,b@4: (1,2),(1,4),(3,4);
        # only {(1,2),(3,4)} is pairwise disjoint -> one grouped occurrence
        h = history(("a", 1), ("b", 2), ("a", 3), ("b", 4))
        expr = Times(2, Seq(A, B))
        assert proj(occurrences(expr, h)) == {(1, 4, (1, 2, 3, 4))}

    def test_times_one_drops_bindings(self):
        h = history(("a", 1),)
        expr = Times(1, Atomic(EventTypeId("a"), "x"))
        (occ,) = occurrences(expr, h)
        assert occ.bindings == {} and occ.components == frozenset({1})


class TestBindings:
    def test_seq_binds_variables(self):
        h = history(("a", 1), ("b", 2))
        (occ,) = occurrences(Seq(Atomic(EventTypeId("a"), "x"), Atomic(EventTypeId("b"), "y")), h)
        assert occ.bindings["x"] is h[0]
        assert occ.bindings["y"] is h[1]


class TestProperties:
    def test_seq_associative_under_interval_semantics(self):
        rng = random.Random(7)
        left = Seq(Seq(A, B), C)
        right = Seq(A, Seq(B, C))
        for _ in range(150):
            h = random_history(rng)
            assert proj(occurrences(left, h)) == proj(occurrences(right, h))

    def test_or_and_commute(self):
        rng = random.Random(8)
        for _ in range(100):
            h = random_history(rng)
            assert proj(occurrences(Or(A, B), h)) == proj(occurrences(Or(B, A), h))
            assert proj(occurrences(And(A, B), h)) == proj(occurrences(And(B, A), h))

    def test_interval_is_cover_of_components(self):
        rng = random.Random(9)
        for _ in range(120):
            h = random_history(rng)
            byid = {e.id: e for e in h}
            expr = random_expr(rng)
            for occ in occurrences(expr, h):
                times = [byid[i].time for i in occ.components]
                assert occ.interval.start == min(times)
                assert occ.interval.end == max(times)

    def test_append_monotone_without_not(self):
        # extending the history never removes existing occurrences
        rng = random.Random(10)
        for _ in range(100):
            h = random_history(rng, max_events=8)
            expr = random_expr(rng, allow_not=False)
            before = occurrences(expr, h)
            t = h[-1].time if h else 0
            nid = len(h) + 1
            suffix = [make_event(rng.choice("abcd"), t + rng.randint(0, 2), None, id=nid)]
            assert before <= occurrences(expr, h + suffix)

    def test_insertion_not_monotone_with_not(self):
        # a@1 .. c@5 matches; inserting the blocker x@3 removes the match,
        # so mid-history insertion is not monotone (append still is, since
        # appended events cannot fall strictly inside past intervals)
        expr = Not(X, A, C)
        sparse = history(("a", 1), ("c", 5))
        assert len(occurrences(expr, sparse)) == 1
        dense = history(("a", 1), ("x", 3), ("c", 5))
        assert occurrences(expr, dense) == frozenset()

    def test_point_terminator_matches_interval_terminator_for_seq(self):
        # for plain Seq both semantics agree when intervals are ordered
        h = history(("a", 1), ("b", 3))
        assert occurrences_point(Seq(A, B), h) == frozenset({(3, frozenset({1, 2}))})
        (occ,) = occurrences(Seq(A, B), h)
        assert occ.terminator_time == 3
