"""Intervals, event types, event instances."""

import itertools
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reactor import (
    EventInstance,
    EventTypeId,
    Interval,
    UnboundedInterval,
    event_type,
    is_reserved_type,
    make_event,
    strictly_before,
)
from reactor.algebra import merge_occurrences, occurrence_of
from reactor.model import intern_type, is_finite_scalar, shown

BOUNDED = [
    Interval(s, e) for s, e in itertools.product(range(5), repeat=2) if e >= s
]


class TestInterval:
    def test_point_interval(self):
        iv = Interval(3, 3)
        assert iv.start == 3 and iv.end == 3 and iv.bounded

    def test_open_interval(self):
        iv = Interval(2, None)
        assert not iv.bounded
        assert repr(iv) == "[2,OPEN]"

    def test_repr_bounded(self):
        assert repr(Interval(1, 3)) == "[1,3]"

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Interval(-1, 2)

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 3)

    def test_equality_is_structural(self):
        assert Interval(1, 2) == Interval(1, 2)
        assert Interval(1, 2) != Interval(1, 3)


def merged_cover(a, b):
    """The cover of two bounded intervals, as merge_occurrences derives it
    for occurrences spanning them."""

    def spanning(iv, first_id):
        start = occurrence_of(make_event("s", iv.start, id=first_id))
        end = occurrence_of(make_event("e", iv.end, id=first_id + 1))
        return merge_occurrences(start, end)

    return merge_occurrences(spanning(a, 1), spanning(b, 3)).interval


class TestCover:
    def test_example(self):
        assert merged_cover(Interval(1, 2), Interval(4, 5)) == Interval(1, 5)

    def test_containment(self):
        assert merged_cover(Interval(1, 9), Interval(3, 4)) == Interval(1, 9)

    def test_commutative_exhaustive(self):
        for a, b in itertools.product(BOUNDED, repeat=2):
            assert merged_cover(a, b) == merged_cover(b, a)

    def test_associative_exhaustive(self):
        # small grid, all triples
        grid = [Interval(s, e) for s, e in itertools.product(range(4), repeat=2) if e >= s]
        for a, b, c in itertools.product(grid, repeat=3):
            assert merged_cover(merged_cover(a, b), c) == merged_cover(
                a, merged_cover(b, c)
            )

    def test_idempotent(self):
        for a in BOUNDED:
            assert merged_cover(a, a) == a

    @given(
        st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
            lambda p: Interval(min(p), max(p))
        ),
        st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
            lambda p: Interval(min(p), max(p))
        ),
    )
    def test_cover_contains_both(self, a, b):
        c = merged_cover(a, b)
        assert c.start <= a.start and c.end >= a.end
        assert c.start <= b.start and c.end >= b.end
        # tight: endpoints come from the operands
        assert c.start in (a.start, b.start) and c.end in (a.end, b.end)


class TestStrictlyBefore:
    def test_separated(self):
        assert strictly_before(Interval(1, 2), Interval(3, 4))

    def test_adjacent_is_not_before(self):
        # sharing a boundary point is not strict precedence
        assert not strictly_before(Interval(1, 2), Interval(2, 3))

    def test_overlap_is_not_before(self):
        assert not strictly_before(Interval(1, 4), Interval(3, 5))

    def test_asymmetric_exhaustive(self):
        for a, b in itertools.product(BOUNDED, repeat=2):
            assert not (strictly_before(a, b) and strictly_before(b, a))

    def test_open_operand_rejected(self):
        with pytest.raises(UnboundedInterval):
            strictly_before(Interval(1, None), Interval(3, 4))


class TestEventTypes:
    def test_external(self):
        t = event_type("outage")
        assert t.name == "outage" and not is_reserved_type(t.name)

    def test_reserved_names(self):
        assert is_reserved_type("assert:dept")
        assert is_reserved_type("retract:dept")
        assert is_reserved_type("timer")
        assert not is_reserved_type("outage")
        assert not is_reserved_type("timer2")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            EventTypeId("")

    def test_one_interned_type_per_name(self):
        a1, a2, b = make_event("a", 1, id=1), make_event("a", 2, id=2), make_event("b", 2)
        assert a1.type is a2.type is intern_type("a")
        assert b.type is not a1.type and b.type == EventTypeId("b")


class TestEventInstance:
    def test_repr(self):
        assert repr(make_event("a", 2, id=1)) == "a@2#1"

    def test_id_must_be_positive(self):
        with pytest.raises(ValueError):
            make_event("a", 1, id=0)

    def test_time_must_be_non_negative(self):
        with pytest.raises(ValueError):
            make_event("a", -1, id=1)

    def test_payload_scalars_only(self):
        with pytest.raises(ValueError):
            make_event("a", 1, {"xs": [1, 2]}, id=1)
        with pytest.raises(ValueError):
            make_event("a", 1, {"sub": {"k": 1}}, id=1)

    def test_payload_keys_are_strings(self):
        with pytest.raises(ValueError):
            EventInstance(1, event_type("a"), 1, {3: "x"})

    def test_equal_events_dedup_in_sets(self):
        a1 = make_event("a", 1, {"k": 1}, id=1)
        a2 = make_event("a", 1, {"k": 1}, id=1)
        assert a1 == a2 and hash(a1) == hash(a2)
        assert len({a1, a2}) == 1

    def test_payload_excluded_from_hash_but_not_eq(self):
        a1 = make_event("a", 1, {"k": 1}, id=1)
        a2 = make_event("a", 1, {"k": 2}, id=1)
        assert a1 != a2
        assert hash(a1) == hash(a2)  # differ only in the unhashed payload

    def test_string_type_coercion(self):
        e = make_event("assert:p", 4, id=9)
        assert e.type == EventTypeId("assert:p") and is_reserved_type(e.type.name)
        e2 = make_event(event_type("b"), 1, id=1)
        assert e2.type.name == "b"


def _has_str(v):
    try:
        str(v)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return False
    return True


class TestFiniteScalar:
    @pytest.mark.parametrize("limit", [640, 1001, 4300])
    def test_an_int_passes_exactly_when_str_takes_it(self, limit):
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(limit)
            for digits in range(limit - 2, limit + 3):
                lo, hi = 10 ** (digits - 1), 10**digits - 1
                for v in (lo, hi, -lo, -hi):
                    assert is_finite_scalar(v) == _has_str(v) == (digits <= limit)
            # each bit length from the one-comparison bound (3 bits a
            # digit) to past the last one with at most ``limit`` digits
            for bits in range(3 * limit - 2, 4 * limit):
                v = 1 << bits
                assert is_finite_scalar(v) == _has_str(v)
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("limit", [640, 4300])
    def test_shown_counts_the_digits_of_an_int_too_long_to_write(self, limit):
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(limit)
            assert shown(10**limit - 1) == repr(10**limit - 1)  # writable
            for digits in range(limit + 1, limit + 40):
                for v in (10 ** (digits - 1), 10**digits - 1, -(10**digits - 1)):
                    assert shown(v) == f"<int of {digits} digits>"
            for bits in range(3 * limit + 1, 4 * limit, 7):
                v = (1 << bits) - 1
                sys.set_int_max_str_digits(0)
                digits = len(str(v))
                sys.set_int_max_str_digits(limit)
                assert shown(v) == (repr(v) if digits <= limit else f"<int of {digits} digits>")
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize(
        "value, ok",
        [(1, True), (True, True), ("s", True), (1.5, True), (float("nan"), False),
         (float("-inf"), False), (None, False), ((1,), False)],
        ids=repr,
    )
    def test_scalars(self, value, ok):
        assert is_finite_scalar(value) is ok
