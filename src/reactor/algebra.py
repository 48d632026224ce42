"""Event expressions and their declarative occurrence semantics.

Two evaluators live here:

* ``occurrences``: interval semantics. A composite occurrence is valid over
  the whole span of its components (the cover of their intervals), and
  sequence requires the left operand's interval to end strictly before the
  right operand's interval starts. This evaluator is deliberately brute
  force: it enumerates candidate component combinations straight from the
  definitions and serves as the reference the incremental detector is
  checked against.

* ``occurrences_point``: the classic detection-time semantics, where each
  result is stamped with the time of its latest component and sequence only
  compares those stamps. Kept side by side because composing sequences under
  it is not associative; the interval evaluator repairs exactly that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvalidExpression, UnsortedHistory
from .model import EventInstance, EventTypeId, Interval, TimePoint, strictly_before

# =========================================================================
# Expression tree
# =========================================================================


class EventExpr:
    """Base class for event expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Atomic(EventExpr):
    """A single event of the given type; optionally binds the instance."""

    type: EventTypeId
    var: Optional[str] = None


@dataclass(frozen=True)
class Seq(EventExpr):
    """Left strictly before right (interval end < interval start)."""

    left: EventExpr
    right: EventExpr


@dataclass(frozen=True)
class And(EventExpr):
    """Both operands, any temporal order, disjoint components."""

    left: EventExpr
    right: EventExpr


@dataclass(frozen=True)
class Or(EventExpr):
    """Either operand."""

    left: EventExpr
    right: EventExpr


@dataclass(frozen=True)
class Not(EventExpr):
    """opener then closer with no absent occurrence strictly between them."""

    absent: EventExpr
    opener: EventExpr
    closer: EventExpr


@dataclass(frozen=True)
class Any(EventExpr):
    """count instances of pairwise-distinct types drawn from the list."""

    count: int
    types: tuple[EventTypeId, ...]


@dataclass(frozen=True)
class Times(EventExpr):
    """count component-disjoint occurrences of the operand; bindings drop."""

    count: int
    of: EventExpr


# deepest operator nesting the parser and validate_expr accept, so that no
# expression can exhaust the recursion of the passes over its tree
_MAX_NESTING = 100


def _check_count(op: str, count: object) -> None:
    if type(count) is not int or count < 1:  # bool is refused too
        raise InvalidExpression(f"{op} needs an integer count >= 1, got {count!r}")


def validate_expr(expr: EventExpr) -> frozenset[str]:
    """Check structural invariants and field types, nesting depth included
    (so the walk recurses at most _MAX_NESTING deep), and return every event
    type name the expression mentions; raises InvalidExpression."""
    seen_vars: set[str] = set()
    names: set[str] = set()

    def walk(node: EventExpr, depth: int) -> None:
        if isinstance(node, Atomic):
            if not isinstance(node.type, EventTypeId):
                raise InvalidExpression(f"atomic type must be an EventTypeId: {node!r}")
            if node.var is not None and not isinstance(node.var, str):
                raise InvalidExpression(f"binding name must be a str: {node!r}")
            names.add(node.type.name)
            if node.var is not None:
                if node.var in seen_vars:
                    raise InvalidExpression(f"binding ?{node.var} appears twice")
                seen_vars.add(node.var)
        elif depth > _MAX_NESTING:
            raise InvalidExpression(f"expression nested deeper than {_MAX_NESTING}")
        elif isinstance(node, (Seq, And, Or)):
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)
        elif isinstance(node, Not):
            walk(node.absent, depth + 1)
            walk(node.opener, depth + 1)
            walk(node.closer, depth + 1)
        elif isinstance(node, Any):
            _check_count("any", node.count)
            if not isinstance(node.types, tuple) or not all(
                isinstance(t, EventTypeId) for t in node.types
            ):
                raise InvalidExpression(f"any types must be EventTypeIds: {node!r}")
            listed = [t.name for t in node.types]
            if len(set(listed)) != len(listed):
                raise InvalidExpression("any type list contains duplicates")
            if node.count > len(listed):
                raise InvalidExpression(
                    f"any count {node.count} exceeds {len(listed)} listed types"
                )
            names.update(listed)
        elif isinstance(node, Times):
            _check_count("times", node.count)
            walk(node.of, depth + 1)
        else:
            raise InvalidExpression(f"unknown expression node {node!r}")

    walk(expr, 1)
    return frozenset(names)


# =========================================================================
# Occurrences
# =========================================================================


@dataclass(frozen=True)
class Occurrence:
    """One detected occurrence of an expression.

    components are instance ids; initiator/terminator are the earliest and
    latest components by (time, id), so the interval they span is the cover
    of the component intervals.
    """

    bindings: Mapping[str, EventInstance]
    components: frozenset[int]
    initiator_time: TimePoint
    terminator_time: TimePoint
    initiator_id: int
    terminator_id: int

    @property
    def interval(self) -> Interval:
        return Interval(self.initiator_time, self.terminator_time)

    def __hash__(self):
        return hash(
            (
                self.components,
                tuple(sorted((v, e.id) for v, e in self.bindings.items())),
            )
        )

    def __repr__(self):
        return f"<{self.interval} {sorted(self.components)}>"


def occurrence_of(inst: EventInstance, var: Optional[str] = None) -> Occurrence:
    """Atomic occurrence of one instance."""
    return Occurrence(
        bindings={var: inst} if var else {},
        components=frozenset((inst.id,)),
        initiator_time=inst.time,
        terminator_time=inst.time,
        initiator_id=inst.id,
        terminator_id=inst.id,
    )


def merge_occurrences(a: Occurrence, b: Occurrence) -> Optional[Occurrence]:
    """Combine two occurrences; None when they bind the same variable."""
    if a.bindings and b.bindings and (set(a.bindings) & set(b.bindings)):
        return None
    init_t, init_id = min(
        (a.initiator_time, a.initiator_id), (b.initiator_time, b.initiator_id)
    )
    term_t, term_id = max(
        (a.terminator_time, a.terminator_id), (b.terminator_time, b.terminator_id)
    )
    return Occurrence(
        bindings={**a.bindings, **b.bindings},
        components=a.components | b.components,
        initiator_time=init_t,
        terminator_time=term_t,
        initiator_id=init_id,
        terminator_id=term_id,
    )


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


def occurrence_sort_key(o: Occurrence):
    """Total deterministic order for reporting."""
    return (
        o.initiator_time,
        o.initiator_id,
        o.terminator_time,
        o.terminator_id,
        tuple(sorted(o.components)),
        tuple(sorted((v, e.id) for v, e in o.bindings.items())),
    )


def check_sorted(history: Sequence[EventInstance]) -> None:
    for prev, cur in zip(history, history[1:]):
        if (cur.time, cur.id) < (prev.time, prev.id):
            raise UnsortedHistory(
                f"history regresses from {prev!r} to {cur!r}; sort by (time, id)"
            )


# -------------------------------------------------------- interval semantics


def occurrences(expr: EventExpr, history: Sequence[EventInstance]) -> frozenset[Occurrence]:
    """All occurrences of expr over the (sorted) history, interval semantics.

    Exponential in the worst case by design; this is the reference
    evaluator, not the streaming one.
    """
    validate_expr(expr)  # InvalidExpression, also for nesting past the limit
    check_sorted(history)
    return frozenset(_eval(expr, list(history)))


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


def _pairwise_disjoint(occs: Iterable[Occurrence]) -> bool:
    seen: set[int] = set()
    for o in occs:
        if seen & o.components:
            return False
        seen |= o.components
    return True


# ------------------------------------------------------- detection-time view


def occurrences_point(
    expr: EventExpr, history: Sequence[EventInstance]
) -> frozenset[tuple[TimePoint, frozenset[int]]]:
    """Occurrences under terminator-point semantics.

    Each result is (detection time, component ids) where the detection time
    is the latest component's timestamp and ordering constraints compare
    detection times only. Exists to demonstrate the composition anomaly that
    interval semantics avoids.
    """
    validate_expr(expr)
    check_sorted(history)
    return frozenset(_eval_point(expr, list(history)))


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
