"""Event expressions and their declarative occurrence semantics.

One evaluator lives here, deliberately brute force: it enumerates candidate
component combinations straight from the definitions and serves as the
reference the incremental detector is checked against. It takes the
ordering test of ``seq`` and ``not`` as an argument, which gives the two
semantics:

* ``occurrences``: interval semantics. A composite occurrence is valid over
  the whole span of its components (the cover of their intervals), and
  sequence requires the left operand's interval to end strictly before the
  right operand's interval starts.

* ``occurrences_point``: the classic detection-time semantics, where each
  result is stamped with the time of its latest component and sequence only
  compares those stamps. Kept side by side because composing sequences under
  it is not associative; the interval evaluator repairs exactly that.

An Occurrence is a frozen tuple of its fields (see model.Frozen), equal to
the plain tuple of them; the merges build one with ``tuple.__new__``, picking
the earliest initiator and latest terminator field by field.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Optional, Sequence

from .errors import InvalidExpression, UnsortedHistory
from .model import EventInstance, EventTypeId, Frozen, Interval, TimePoint, shown

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
        raise InvalidExpression(f"{op} needs an integer count >= 1, got {shown(count)}")


def validate_expr(expr: EventExpr) -> frozenset[str]:
    """Check structural invariants and field types, nesting depth included
    (so the walk recurses at most _MAX_NESTING deep), and return every event
    type name the expression mentions; raises InvalidExpression."""
    return _walk_expr(expr)[0]


def _walk_expr(expr: EventExpr) -> tuple[frozenset[str], set[str]]:
    """validate_expr's walk: the type names, and the variables a match can bind
    (both branches of an or; not a not's absent slot nor inside a times)."""
    seen_vars: set[str] = set()
    names: set[str] = set()
    binders: set[str] = set()

    def walk(node: EventExpr, depth: int, binds: bool) -> None:
        if isinstance(node, Atomic):
            if not isinstance(node.type, EventTypeId):
                raise InvalidExpression("atomic type must be an EventTypeId: "
                                        + shown(node))
            if node.var is not None and (not isinstance(node.var, str) or not node.var):
                raise InvalidExpression("binding name must be a non-empty str: "
                                        + shown(node))
            names.add(node.type.name)
            if node.var is not None:
                if node.var in seen_vars:
                    raise InvalidExpression(f"binding ?{node.var} appears twice")
                seen_vars.add(node.var)
                if binds:
                    binders.add(node.var)
        elif depth > _MAX_NESTING:
            raise InvalidExpression(f"expression nested deeper than {_MAX_NESTING}")
        elif isinstance(node, (Seq, And, Or)):
            walk(node.left, depth + 1, binds)
            walk(node.right, depth + 1, binds)
        elif isinstance(node, Not):
            walk(node.absent, depth + 1, False)
            walk(node.opener, depth + 1, binds)
            walk(node.closer, depth + 1, binds)
        elif isinstance(node, Any):
            _check_count("any", node.count)
            if not isinstance(node.types, tuple) or not all(
                isinstance(t, EventTypeId) for t in node.types
            ):
                raise InvalidExpression(f"any types must be EventTypeIds: {shown(node)}")
            listed = [t.name for t in node.types]
            if len(set(listed)) != len(listed):
                raise InvalidExpression("any type list contains duplicates")
            if node.count > len(listed):
                raise InvalidExpression(
                    f"any count {shown(node.count)} exceeds {len(listed)} listed types"
                )
            names.update(listed)
        elif isinstance(node, Times):
            _check_count("times", node.count)
            walk(node.of, depth + 1, False)
        else:
            raise InvalidExpression(f"unknown expression node {shown(node)}")

    walk(expr, 1, True)
    return frozenset(names), binders


# =========================================================================
# Occurrences
# =========================================================================


class Occurrence(Frozen, namedtuple("Occurrence", "bindings components initiator_time "
                                     "terminator_time initiator_id terminator_id")):
    """One detected occurrence of an expression.

    bindings map variable names to instances; components are instance ids;
    initiator/terminator are the earliest and latest components by (time,
    id), so the interval they span is the cover of the component intervals.
    """

    __slots__ = ()

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


_new = tuple.__new__  # an Occurrence from its fields, with no Python frame


def occurrence_of(inst: EventInstance, var: Optional[str] = None) -> Occurrence:
    """Atomic occurrence of one instance."""
    t, i = inst.time, inst.id
    return _new(Occurrence, ({var: inst} if var else {}, frozenset((i,)), t, t, i, i))


def _first(a: Occurrence, b: Occurrence) -> Occurrence:
    """The earlier initiator by (time, id), a on a tie as ``min`` picks."""
    t, u = a.initiator_time, b.initiator_time
    return b if u < t or u == t and b.initiator_id < a.initiator_id else a


def _last(a: Occurrence, b: Occurrence) -> Occurrence:
    """The later terminator by (time, id), a on a tie as ``max`` picks."""
    t, u = a.terminator_time, b.terminator_time
    return b if u > t or u == t and b.terminator_id > a.terminator_id else a


def merge_occurrences(a: Occurrence, b: Occurrence) -> Occurrence:
    """Combine two occurrences. validate_expr refuses a repeated binding
    name, so the two never bind the same variable."""
    first, last = _first(a, b), _last(a, b)
    return _new(Occurrence, (
        {**a.bindings, **b.bindings}, a.components | b.components,
        first.initiator_time, last.terminator_time,
        first.initiator_id, last.terminator_id,
    ))


def merge_group(occs: Sequence[Occurrence]) -> Occurrence:
    """One occurrence of pairwise component-disjoint occurrences: their
    components united, the earliest initiator and the latest terminator by
    (time, id), and no bindings (the grouping operators do not expose inner
    bindings)."""
    first, last = reduce(_first, occs), reduce(_last, occs)
    return _new(Occurrence, (
        {}, frozenset().union(*[o.components for o in occs]),
        first.initiator_time, last.terminator_time,
        first.initiator_id, last.terminator_id,
    ))


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


# -------------------------------------------------------------- evaluation


def _interval_before(l: Occurrence, r: Occurrence) -> bool:
    return l.terminator_time < r.initiator_time


def _point_before(l: Occurrence, r: Occurrence) -> bool:
    return l.terminator_time < r.terminator_time


def occurrences(expr: EventExpr, history: Sequence[EventInstance]) -> frozenset[Occurrence]:
    """All occurrences of expr over the (sorted) history, interval semantics.

    Exponential in the worst case by design; this is the reference
    evaluator, not the streaming one.
    """
    validate_expr(expr)  # InvalidExpression, also for nesting past the limit
    check_sorted(history)
    return frozenset(_eval(expr, list(history), _interval_before))


def occurrences_point(
    expr: EventExpr, history: Sequence[EventInstance]
) -> frozenset[tuple[TimePoint, frozenset[int]]]:
    """Occurrences under terminator-point semantics.

    Each result is (detection time, component ids) where the detection time
    is the latest component's timestamp and ordering constraints compare
    detection times only. Exists to demonstrate the composition anomaly that
    interval semantics avoids. Every operator stamps a result with its
    latest component, which is the terminator, so this is the evaluator
    with the point test, projected.
    """
    validate_expr(expr)
    check_sorted(history)
    return frozenset(
        (o.terminator_time, o.components)
        for o in _eval(expr, list(history), _point_before)
    )


def _eval(
    expr: EventExpr,
    history: list[EventInstance],
    before: Callable[[Occurrence, Occurrence], bool],
) -> set[Occurrence]:
    if isinstance(expr, Atomic):
        return {
            occurrence_of(e, expr.var) for e in history if e.type.name == expr.type.name
        }

    if isinstance(expr, (Seq, And)):
        lefts = _eval(expr.left, history, before)
        rights = _eval(expr.right, history, before)
        if isinstance(expr, Seq):
            return {merge_occurrences(l, r) for l in lefts for r in rights if before(l, r)}
        return {
            merge_occurrences(l, r)
            for l in lefts
            for r in rights
            if not (l.components & r.components)
        }

    if isinstance(expr, Or):
        return _eval(expr.left, history, before) | _eval(expr.right, history, before)

    if isinstance(expr, Not):
        absents = _eval(expr.absent, history, before)
        openers = _eval(expr.opener, history, before)
        closers = _eval(expr.closer, history, before)
        return {
            merge_occurrences(o, c)
            for o in openers
            for c in closers
            if before(o, c)
            and not any(before(o, a) and before(a, c) for a in absents)
        }

    if isinstance(expr, Any):
        names = {t.name for t in expr.types}
        pool = [e for e in history if e.type.name in names]
        return {
            merge_group([occurrence_of(e) for e in combo])
            for combo in itertools.combinations(pool, expr.count)
            if len({e.type.name for e in combo}) == len(combo)
        }

    if isinstance(expr, Times):
        inner = _eval(expr.of, history, before)
        return {
            merge_group(combo)
            for combo in itertools.combinations(inner, expr.count)
            if _pairwise_disjoint(combo)
        }

    raise InvalidExpression(f"unknown expression node {expr!r}")


def _pairwise_disjoint(occs: Iterable[Occurrence]) -> bool:
    seen: set[int] = set()
    for o in occs:
        if seen & o.components:
            return False
        seen |= o.components
    return True
