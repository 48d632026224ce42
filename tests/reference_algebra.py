"""The brute-force evaluators as they were before point occurrences became a
projection of the interval evaluator, and before the one-step group merge.

Frozen as the reference that tests/test_algebra_differential.py compares
``occurrences``, ``occurrences_point`` and ``merge_group`` in
``reactor.algebra`` against. Do not edit it to match the new code: the test
allows no difference.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from reactor.algebra import (
    And,
    Any,
    Atomic,
    EventExpr,
    Not,
    Occurrence,
    Or,
    Seq,
    Times,
    _pairwise_disjoint,
    merge_occurrences,
    occurrence_of,
    occurrence_sort_key,
)
from reactor.errors import InvalidExpression
from reactor.model import EventInstance, Interval


# a copy, so that the reference takes no ordering test from the code it checks
def strictly_before(a: Interval, b: Interval) -> bool:
    """True iff a ends before b starts."""
    return a.end < b.start


def _strip_bindings(o: Occurrence) -> Occurrence:
    if not o.bindings:
        return o
    return Occurrence(
        bindings={},
        components=o.components,
        initiator_time=o.initiator_time,
        terminator_time=o.terminator_time,
        initiator_id=o.initiator_id,
        terminator_id=o.terminator_id,
    )


def merge_group(occs: Sequence[Occurrence]) -> Occurrence:
    """Merge pairwise component-disjoint occurrences; bindings are dropped
    (the grouping operators do not expose inner bindings)."""
    merged = _strip_bindings(occs[0])
    for o in occs[1:]:
        nxt = merge_occurrences(merged, _strip_bindings(o))
        assert nxt is not None  # stripped bindings cannot clash
        merged = nxt
    return merged



def _eval(expr: EventExpr, history: list[EventInstance]) -> set[Occurrence]:
    if isinstance(expr, Atomic):
        return {
            occurrence_of(e, expr.var) for e in history if e.type.name == expr.type.name
        }

    if isinstance(expr, Seq):
        lefts = _eval(expr.left, history)
        rights = _eval(expr.right, history)
        out = set()
        for l in lefts:
            for r in rights:
                if strictly_before(l.interval, r.interval):
                    merged = merge_occurrences(l, r)
                    if merged is not None:
                        out.add(merged)
        return out

    if isinstance(expr, And):
        lefts = _eval(expr.left, history)
        rights = _eval(expr.right, history)
        out = set()
        for l in lefts:
            for r in rights:
                if l.components & r.components:
                    continue
                merged = merge_occurrences(l, r)
                if merged is not None:
                    out.add(merged)
        return out

    if isinstance(expr, Or):
        return _eval(expr.left, history) | _eval(expr.right, history)

    if isinstance(expr, Not):
        absents = _eval(expr.absent, history)
        openers = _eval(expr.opener, history)
        closers = _eval(expr.closer, history)
        out = set()
        for o in openers:
            for c in closers:
                if not strictly_before(o.interval, c.interval):
                    continue
                blocked = any(
                    strictly_before(o.interval, a.interval)
                    and strictly_before(a.interval, c.interval)
                    for a in absents
                )
                if blocked:
                    continue
                merged = merge_occurrences(o, c)
                if merged is not None:
                    out.add(merged)
        return out

    if isinstance(expr, Any):
        names = {t.name for t in expr.types}
        pool = [e for e in history if e.type.name in names]
        out = set()
        for combo in itertools.combinations(pool, expr.count):
            types_used = {e.type.name for e in combo}
            if len(types_used) != len(combo):
                continue
            out.add(merge_group([occurrence_of(e) for e in combo]))
        return out

    if isinstance(expr, Times):
        inner = sorted(_eval(expr.of, history), key=occurrence_sort_key)
        out = set()
        for combo in itertools.combinations(inner, expr.count):
            if combo and _pairwise_disjoint(combo):
                out.add(merge_group(list(combo)))
        return out

    raise InvalidExpression(f"unknown expression node {expr!r}")


def _eval_point(expr: EventExpr, history: list[EventInstance]) -> set:
    if isinstance(expr, Atomic):
        return {
            (e.time, frozenset((e.id,)))
            for e in history
            if e.type.name == expr.type.name
        }

    if isinstance(expr, Seq):
        lefts = _eval_point(expr.left, history)
        rights = _eval_point(expr.right, history)
        return {
            (rt, lc | rc)
            for (lt, lc) in lefts
            for (rt, rc) in rights
            if lt < rt
        }

    if isinstance(expr, And):
        lefts = _eval_point(expr.left, history)
        rights = _eval_point(expr.right, history)
        return {
            (max(lt, rt), lc | rc)
            for (lt, lc) in lefts
            for (rt, rc) in rights
            if not (lc & rc)
        }

    if isinstance(expr, Or):
        return _eval_point(expr.left, history) | _eval_point(expr.right, history)

    if isinstance(expr, Not):
        absents = _eval_point(expr.absent, history)
        openers = _eval_point(expr.opener, history)
        closers = _eval_point(expr.closer, history)
        out = set()
        for (ot, oc) in openers:
            for (ct, cc) in closers:
                if not ot < ct:
                    continue
                if any(ot < at < ct for (at, _) in absents):
                    continue
                out.add((ct, oc | cc))
        return out

    if isinstance(expr, Any):
        names = {t.name for t in expr.types}
        pool = [e for e in history if e.type.name in names]
        out = set()
        for combo in itertools.combinations(pool, expr.count):
            if len({e.type.name for e in combo}) != len(combo):
                continue
            out.add(
                (max(e.time for e in combo), frozenset(e.id for e in combo))
            )
        return out

    if isinstance(expr, Times):
        inner = sorted(_eval_point(expr.of, history))
        out = set()
        for combo in itertools.combinations(inner, expr.count):
            if not combo:
                continue
            comps: set[int] = set()
            ok = True
            for (_, cc) in combo:
                if comps & cc:
                    ok = False
                    break
                comps |= cc
            if ok:
                out.add((max(t for (t, _) in combo), frozenset(comps)))
        return out

    raise InvalidExpression(f"unknown expression node {expr!r}")
