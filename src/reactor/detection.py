"""Incremental event detection with selection, consumption, and windowing.

The detector mirrors the expression tree with one state node per operator.
New events enter at the atomic leaves and new partial occurrences propagate
upward, so each feed touches only combinations the new event completes. The
occurrences fired over a history under {all, multiple, no window}, each
once, are exactly what the declarative evaluator produces over it; that
equivalence is the engine's correctness contract and is enforced in tests.

Policies:
* selection picks which same-terminator candidates fire (first / last / all
  by initiator position),
* consumption decides whether fired components stay available (multiple) or
  are removed from the retained set and all partial state (single),
* an optional window expires, at the next feed, events too old to take
  part in any future detection.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Callable, Optional, Sequence

from .algebra import (
    And,
    Any,
    Atomic,
    EventExpr,
    Not,
    Occurrence,
    Or,
    Seq,
    _pairwise_disjoint,
    merge_group,
    merge_occurrences,
    occurrence_of,
    occurrence_sort_key,
    validate_expr,
)
from .errors import InvalidConfig, OutOfOrderEvent
from .model import EventInstance, TimePoint, shown


class SelectionPolicy(Enum):
    FIRST = "first"
    LAST = "last"
    ALL = "all"


class ConsumptionPolicy(Enum):
    SINGLE = "single"
    MULTIPLE = "multiple"


@dataclass(frozen=True)
class DetectorConfig:
    selection: SelectionPolicy = SelectionPolicy.FIRST
    consumption: ConsumptionPolicy = ConsumptionPolicy.SINGLE
    window: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.selection, SelectionPolicy):
            raise InvalidConfig(
                f"selection must be a SelectionPolicy, got {shown(self.selection)}"
            )
        if not isinstance(self.consumption, ConsumptionPolicy):
            raise InvalidConfig(
                f"consumption must be a ConsumptionPolicy, got {shown(self.consumption)}"
            )
        w = self.window
        if w is not None and (type(w) is not int or w <= 0):  # bool is refused too
            raise InvalidConfig(f"window must be a positive integer, got {shown(w)}")


def select_candidates(
    cands: Sequence[Occurrence], policy: SelectionPolicy
) -> list[Occurrence]:
    """Order/filter same-terminator candidates per the selection policy.

    first -> the earliest initiator (ties to the smallest initiator id),
    last -> the latest initiator (ties to the largest id), all -> every
    candidate ordered by initiator position. A key holds the components and
    binding ids, so no two candidates tie and min/max pick as a sort would.
    """
    if len(cands) < 2:  # no key needed to pick from one
        return list(cands)
    if policy is SelectionPolicy.FIRST:
        return [min(cands, key=occurrence_sort_key)]
    if policy is SelectionPolicy.LAST:
        return [max(cands, key=occurrence_sort_key)]
    return sorted(cands, key=occurrence_sort_key)


# =========================================================================
# Per-operator incremental state
# =========================================================================


class _Node:
    """State node for one subexpression, over the child nodes ``kids``.

    ``occs`` lists the node's occurrences so far in creation order, but only
    when ``keep`` is set: a parent that reads them back (the left of seq and
    not, both sides of and, the absent slot, the inner of times, the leaves
    of any) keeps its children's, while the root, the branches of an or and
    the right of seq and not keep none.
    """

    __slots__ = ("occs", "keep", "kids")

    def __init__(self, keep: bool, *kids: _Node):
        self.occs: list[Occurrence] = []
        self.keep = keep
        self.kids = kids

    def _admit(self, fresh: list[Occurrence]) -> list[Occurrence]:
        # every occurrence a feed makes contains the fed event, whose id is
        # fresh, so it can only repeat one made by the same feed
        if len(fresh) > 1:
            fresh = list(dict.fromkeys(fresh))
        if self.keep:
            self.occs.extend(fresh)
        return fresh


class _AtomicNode(_Node):
    __slots__ = ("type_name", "var")

    def __init__(self, expr: Atomic, keep: bool):
        super().__init__(keep)
        self.type_name = expr.type.name
        self.var = expr.var

    def feed(self, e: EventInstance) -> list[Occurrence]:
        if e.type.name != self.type_name:
            return []
        return self._admit([occurrence_of(e, self.var)])


def _before(l: Occurrence, r: Occurrence) -> bool:
    return l.terminator_time < r.initiator_time


def _disjoint(l: Occurrence, r: Occurrence) -> bool:
    return not (l.components & r.components)


def _unblocked(absent: _Node) -> Callable[[Occurrence, Occurrence], bool]:
    # the seq test, plus no absent occurrence strictly between the two
    return lambda l, r: _before(l, r) and not any(
        l.terminator_time < a.initiator_time and a.terminator_time < r.initiator_time
        for a in absent.occs
    )


class _JoinNode(_Node):
    """seq, and and not: each new occurrence on one side is tried against
    every kept occurrence on the other, and the pair test ``ok`` says which
    pairs join. The new right occurrences are the last ones in
    ``right.occs``, so a pair of two new ones is tried once. Under seq and
    not the right side keeps nothing: a new left ends at the fed event, so
    no old right can follow it."""

    __slots__ = ("left", "right", "ok", "absent")

    def __init__(
        self,
        left: _Node,
        right: _Node,
        ok: Callable[[Occurrence, Occurrence], bool],
        keep: bool,
        absent: Optional[_Node] = None,
    ):
        kids = (left, right) if absent is None else (absent, left, right)
        super().__init__(keep, *kids)
        self.left = left
        self.right = right
        self.ok = ok
        self.absent = absent

    def feed(self, e: EventInstance) -> list[Occurrence]:
        # absent first, so that a blocker in the same feed is visible to ok
        if self.absent is not None:
            self.absent.feed(e)
        new_l = self.left.feed(e)
        new_r = self.right.feed(e)
        ok, lefts, rights = self.ok, self.left.occs, self.right.occs
        fresh = []
        if new_r:
            fresh = [merge_occurrences(l, r) for l in lefts for r in new_r if ok(l, r)]
        if self.right.keep:
            n_old = len(rights) - len(new_r)
            fresh += [
                merge_occurrences(l, r)
                for l in new_l
                for r in itertools.islice(rights, n_old)
                if ok(l, r)
            ]
        return self._admit(fresh)


class _OrNode(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: _Node, right: _Node, keep: bool):
        super().__init__(keep, left, right)
        self.left = left
        self.right = right

    def feed(self, e: EventInstance) -> list[Occurrence]:
        return self._admit(self.left.feed(e) + self.right.feed(e))


class _AnyNode(_Node):
    """any: one kept leaf per listed type. A new member joins one kept occurrence
    of each of count - 1 other leaves, so their types differ by construction."""

    __slots__ = ("count",)

    def __init__(self, count: int, leaves: list[_Node], keep: bool):
        super().__init__(keep, *leaves)
        self.count = count

    def feed(self, e: EventInstance) -> list[Occurrence]:
        taken = [leaf for leaf in self.kids if leaf.feed(e)]  # at most one
        if not taken:
            return []
        others = [leaf for leaf in self.kids if leaf is not taken[0]]
        return self._admit([
            merge_group((*rest, taken[0].occs[-1]))
            for group in itertools.combinations(others, self.count - 1)
            for rest in itertools.product(*(leaf.occs for leaf in group))
        ])


class _TimesNode(_Node):
    __slots__ = ("count", "inner")

    def __init__(self, count: int, inner: _Node, keep: bool):
        super().__init__(keep, inner)
        self.count = count
        self.inner = inner

    def feed(self, e: EventInstance) -> list[Occurrence]:
        new_i = self.inner.feed(e)
        occs = self.inner.occs
        fresh: list[Occurrence] = []
        # a combination is new when its last member is, and new ones end occs
        for j in range(len(occs) - len(new_i), len(occs)):
            for rest in itertools.combinations(occs[:j], self.count - 1):
                combo = (*rest, occs[j])
                if _pairwise_disjoint(combo):
                    fresh.append(merge_group(combo))
        return self._admit(fresh)


def _build(expr: EventExpr, keep: bool) -> _Node:
    """State tree for ``expr``, which validate_expr has checked, so what is
    left at the end is a times; ``keep`` says whether its parent joins
    against its occurrences."""
    if isinstance(expr, Atomic):
        return _AtomicNode(expr, keep)
    if isinstance(expr, (Seq, And)):
        ok = _before if isinstance(expr, Seq) else _disjoint
        left, right = _build(expr.left, True), _build(expr.right, isinstance(expr, And))
        return _JoinNode(left, right, ok, keep)
    if isinstance(expr, Or):
        return _OrNode(_build(expr.left, False), _build(expr.right, False), keep)
    if isinstance(expr, Not):
        absent = _build(expr.absent, True)
        opener, closer = _build(expr.opener, True), _build(expr.closer, False)
        return _JoinNode(opener, closer, _unblocked(absent), keep, absent)
    if isinstance(expr, Any):
        return _AnyNode(expr.count, [_build(Atomic(t), True) for t in expr.types], keep)
    return _TimesNode(expr.count, _build(expr.of, True), keep)


# =========================================================================
# Detector
# =========================================================================


class Detector:
    """Single-writer incremental detector for one event expression;
    ``type_names`` holds every type name the expression mentions. Kept
    occurrences hold only ``retained`` events; an atomic expression under
    single retains none, as its one candidate consumes its own event."""

    def __init__(self, expr: EventExpr, config: DetectorConfig | None = None):
        self.type_names = validate_expr(expr)  # InvalidExpression if malformed
        self.config = DetectorConfig() if config is None else config
        if not isinstance(self.config, DetectorConfig):
            raise InvalidConfig(f"config must be a DetectorConfig, got {shown(config)}")
        # feed refuses ids and times that regress, so this is in (time, id)
        # order and expiry walks it from the front; an OrderedDict, because
        # a dict's front fills with deleted slots that every walk would skip
        self.retained: OrderedDict[int, EventInstance] = OrderedDict()
        self._root = _build(expr, keep=False)
        single = self.config.consumption is ConsumptionPolicy.SINGLE
        self._consumes_own = single and isinstance(expr, Atomic)  # keeps nothing
        nodes = [self._root]  # the loop reaches every node: it extends the list
        for node in nodes:
            nodes.extend(node.kids)
        self._kept = [node for node in nodes if node.keep]  # only these hold occs
        self._watermark: TimePoint = 0
        self._last_id = 0

    # ------------------------------------------------------------- feeding

    def feed(self, e: EventInstance) -> list[Occurrence]:
        """Ingest one event; returns the occurrences that fired on it, those
        that survived selection and, under single, consumption."""
        if e.time < self._watermark:
            raise OutOfOrderEvent(
                f"event {e!r} precedes watermark {self._watermark}"
            )
        if e.id <= self._last_id:
            raise OutOfOrderEvent(
                f"event id {e.id} is not fresh (last was {self._last_id})"
            )
        self._watermark = e.time
        self._last_id = e.id

        window = self.config.window
        if window is not None and self.retained:
            self._expire_older_than(e.time - window)

        # a type no leaf mentions can never be a component; skip the tree
        if e.type.name not in self.type_names:
            return []
        if self._consumes_own:
            return self._root.feed(e)

        self.retained[e.id] = e

        selected = self._root.feed(e)
        if len(selected) > 1:
            selected = select_candidates(selected, self.config.selection)

        if self.config.consumption is ConsumptionPolicy.MULTIPLE:
            return selected
        fired: list[Occurrence] = []
        for occ in selected:  # the first is whole: it joins only retained events
            if fired and not occ.components <= self.retained.keys():
                continue  # components taken by an earlier firing this batch
            self._remove(occ.components)
            fired.append(occ)
        return fired

    def _remove(self, ids: AbstractSet[int]) -> None:
        for cid in ids:
            self.retained.pop(cid, None)
        for node in self._kept:
            if node.occs:
                node.occs = [o for o in node.occs if not (o.components & ids)]

    def _expire_older_than(self, threshold: TimePoint) -> None:
        if next(iter(self.retained.values())).time >= threshold:
            return  # the oldest is in the window, so all are
        removed: set[int] = set()
        for eid, e in self.retained.items():
            if e.time >= threshold:
                break
            removed.add(eid)
        self._remove(removed)
