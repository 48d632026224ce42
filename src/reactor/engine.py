"""Rule dispatch: transactional actions, reaction chaining, cycle analysis.

A firing runs the plan its rule compiled when built (see rules.py): steps
for where and post, a step per action. Its records share their occurrence's
event bindings, which the report (harness) writes once, by a one-entry cache.
Each firing runs its actions as a transaction: an overlay of pending asserts
and retracts over the live fact base, which stays untouched until commit.
Updates are set-semantic: asserting a present fact or retracting an absent
one is a no-op and raises no event, which is what lets well-formed rule
chains bottom out. If the rule's postcondition is satisfiable on the store
as the overlay shows it, the transaction commits: the store applies and
journals the effective ops, and one internal event per op (assert:NAME /
retract:NAME with the fact args as payload) plus any emitted events join
the dispatch queue. Otherwise the overlay is dropped and the firing reports
rolled_back with zero events. So does a firing whose where, actions or post
read a missing payload field or a variable bound only on another branch of
an or, or cannot ground a template; its record carries the error text.

Chaining is breadth-first at the triggering event's timestamp; the chain
depth counts queue generations and a configurable limit guards against
non-terminating rule interactions; an abort leaves the cascade's commits in
place, so the engine then refuses all input. The triggering graph gives the
static counterpart: no cycles there means no chain can run away.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence, Union

from .algebra import Occurrence
from .detection import Detector
from .errors import (
    ChainLimitExceeded,
    InvalidConfig,
    MissingField,
    NonFinitePayload,
    OutOfOrderEvent,
    TemplateError,
)
from .fluents import FluentHistory
from .model import (
    EventInstance,
    EventTypeId,
    Scalar,
    TimePoint,
    intern_type,
    is_finite_scalar,
    payload_dict,
    require_finite,
    scalar_json,
)
from .rules import (
    Action,
    Binding,
    Condition,
    Fact,
    KnowledgeBase,
    Overlay,
    Plan,
    Rule,
    RuleSet,
    UnboundVariable,
    _plan_actions,
    evaluate_condition,
)


class TxnOutcome(Enum):
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"


@dataclass(frozen=True)
class ReactionRecord:
    """One rule firing: what triggered it, what it raised, how it ended."""

    rule_id: str
    occurrence: Occurrence
    bindings: dict[str, Binding]
    outcome: TxnOutcome
    events: tuple[EventInstance, ...]
    depth: int
    error: Optional[str] = None


# =========================================================================
# Transactional action application
# =========================================================================


def apply_actions_txn(
    actions: Union[Sequence[Action], Plan],
    bindings: dict[str, Binding],
    kb: KnowledgeBase,
    post: Union[Condition, Plan, None] = None,
    fluents: Optional[FluentHistory] = None,
    at: TimePoint = 0,
    id_source: Optional[Callable[[], int]] = None,
) -> tuple[TxnOutcome, list[EventInstance]]:
    """Run one rule firing's actions transactionally.

    Returns (outcome, produced events); rolled-back firings produce none,
    and ids come from ``id_source`` or count from 1. Commits to kb on
    success; touches nothing on rollback. A rule passes its compiled actions
    and post; any others are compiled here.
    """
    txn = Overlay(kb)
    pending: list[tuple[EventTypeId, dict[str, Scalar]]] = []  # (type, payload)
    steps = actions if type(actions) is Plan else _plan_actions(actions)
    for update, raised, name, keys, getters, label in steps:
        try:
            values = [get(bindings) for get in getters]
        except (MissingField, UnboundVariable) as err:
            raise TemplateError(f"cannot instantiate {label}: {err}") from err
        if update is None or update(txn, Fact(name, tuple(values))):
            pending.append((raised, dict(zip(keys, values))))

    if post is not None and not evaluate_condition(post, bindings, txn, at, fluents):
        return TxnOutcome.ROLLED_BACK, []

    kb.commit(txn.ops)
    mint = id_source or itertools.count(1).__next__
    # each type is interned and each payload a fresh dict
    return TxnOutcome.COMMITTED, [
        EventInstance(mint(), raised, at, payload) for raised, payload in pending
    ]


# the engine calls the transaction through this module-level name, so a
# tracer can wrap it
_run_actions = apply_actions_txn


# =========================================================================
# Engine
# =========================================================================


# the faults of a firing's own data (see the module docstring)
_FIRING_FAULTS = (MissingField, UnboundVariable, TemplateError)


def _audit_record(
    rule: Rule, occ: Occurrence, bindings: dict[str, Binding],
    depth: int, err: Exception,
) -> ReactionRecord:
    """A firing that failed closed: rolled back, no events, the error text."""
    return ReactionRecord(
        rule.id, occ, bindings, TxnOutcome.ROLLED_BACK, (), depth, error=str(err)
    )


def _solution_order_key(sol: dict[str, Binding]) -> str:
    """The text ``json.dumps(scalars, sort_keys=True)`` writes for the
    solution's scalar bindings; its string order is the order in which a
    firing's solutions run. (A tuple of per-value texts would order them
    otherwise: the string puts {"n": 12} before {"n": 1}.)"""
    return "{" + ", ".join([
        f"{scalar_json(k)}: {scalar_json(v)}"
        for k, v in sorted(sol.items())
        if not isinstance(v, EventInstance)
    ]) + "}"


def _check_facts(facts: tuple[Fact, ...]) -> None:
    """Refuse an initial fact that no rule could have asserted: a number no
    report can write (is_finite_scalar) with NonFinitePayload, anything else
    with InvalidConfig. One flat pass, as set-up time grows with the facts."""
    for f in facts:
        if not (
            isinstance(f, Fact) and isinstance(f.name, str) and f.name
            and isinstance(f.args, tuple)
        ):
            got = (f.name, f.args) if isinstance(f, Fact) else f
            raise InvalidConfig(
                "an initial fact must be a Fact with a non-empty str name and "
                f"a tuple of args, got {got!r}"
            )
        for v in f.args:
            if type(v) is str or is_finite_scalar(v):  # a str without a call
                continue
            if isinstance(v, (int, float)):  # NaN, inf or too many digits: no repr
                raise NonFinitePayload("initial fact arguments must be writable numbers")
            raise InvalidConfig(
                f"an initial fact argument must be a str, int, float or bool, got {v!r}"
            )


class Engine:
    """Rule set + knowledge base + fluent history, fed one event at a time."""

    def __init__(
        self,
        ruleset: RuleSet,
        initial_facts: Sequence[Fact] = (),
        chain_limit: int = 1000,
    ):
        if type(chain_limit) is not int or chain_limit < 1:  # bool is refused too
            raise InvalidConfig(
                f"chain limit must be an integer >= 1, got {chain_limit!r}"
            )
        initial_facts = tuple(initial_facts)
        _check_facts(initial_facts)
        self.kb = KnowledgeBase(initial_facts)
        self.fluents = FluentHistory(ruleset.effects)
        self.chain_limit = chain_limit
        self.detectors: list[tuple[Rule, Detector]] = []
        # type name -> the detectors whose expression names it, in rule
        # order; an event reaches only these, and a windowed detector
        # expires at its next routed feed (its threshold only moves forward)
        self._routes: dict[str, list[tuple[Rule, Detector]]] = {}
        for rule in ruleset.rules:
            det = Detector(rule.on, rule.config)
            self.detectors.append((rule, det))
            for type_name in rule.type_names:
                self._routes.setdefault(type_name, []).append((rule, det))
        self._seq = 0  # last issued event id
        self._watermark: TimePoint = 0
        self._aborted: Optional[str] = None  # why a cascade was cut short

    def next_id(self) -> int:
        self._seq += 1
        return self._seq

    def ingest(
        self, type_name: str, time: TimePoint, payload: dict | None = None
    ) -> list[ReactionRecord]:
        """Mint an id for a new event and dispatch it. A malformed event
        (InvalidEvent), a NaN or infinite payload number, which the report
        could not serialise (NonFinitePayload), and a time before the last
        one (OutOfOrderEvent) are refused before that. An event no rule
        lists only updates the fluents: nothing can fire, so nothing chains."""
        # an aborted cascade left its commits behind: take no further input
        if self._aborted is not None:
            raise ChainLimitExceeded(f"engine stopped after: {self._aborted}")
        payload = dict(payload) if type(payload) is dict else payload_dict(payload)
        if payload:
            require_finite(payload)
        e = EventInstance(self._seq + 1, intern_type(type_name), time, payload)
        if time < self._watermark:
            raise OutOfOrderEvent(f"event {e!r} precedes watermark {self._watermark}")
        self._seq = e.id
        self._watermark = time
        if not self._routes.get(type_name, ()):
            self.fluents.record(e)
            return []

        records: list[ReactionRecord] = []
        queue: deque[tuple[EventInstance, int]] = deque([(e, 0)])
        while queue:
            ev, depth = queue.popleft()
            self.fluents.record(ev)
            for rule, det in self._routes.get(ev.type.name, ()):
                where, actions, post = rule.plan
                for occ in det.feed(ev):
                    at = occ.terminator_time
                    base = dict(occ.bindings)
                    try:
                        sols = evaluate_condition(
                            where, base, self.kb, at, self.fluents
                        )
                    except _FIRING_FAULTS as err:
                        records.append(_audit_record(rule, occ, base, depth, err))
                        continue
                    if len(sols) > 1:
                        sols.sort(key=_solution_order_key)
                    for sol in sols:
                        try:
                            outcome, events = _run_actions(
                                actions, sol, self.kb, post,
                                self.fluents, at, self.next_id,
                            )
                        except _FIRING_FAULTS as err:
                            records.append(_audit_record(rule, occ, sol, depth, err))
                            continue
                        records.append(
                            ReactionRecord(
                                rule.id, occ, sol, outcome,
                                tuple(events), depth,
                            )
                        )
                        if events:
                            if depth + 1 > self.chain_limit:
                                self._aborted = (
                                    f"chain depth {depth + 1} exceeds limit "
                                    f"{self.chain_limit} at time {ev.time}"
                                )
                                raise ChainLimitExceeded(self._aborted, records=records)
                            for ie in events:
                                queue.append((ie, depth + 1))
        return records


# =========================================================================
# Static triggering analysis
# =========================================================================


@dataclass(frozen=True)
class TriggeringGraph:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    cycles: tuple[tuple[str, ...], ...]

    @property
    def acyclic(self) -> bool:
        return not self.cycles


def triggering_graph(ruleset: RuleSet) -> TriggeringGraph:
    """Edges r -> s when an action of r can raise an event s listens for.

    Listening is judged conservatively over every type name in s's event
    expression, so an empty cycle list certifies that no reaction chain can
    loop. Both sides come from each rule's check: the types it listens for
    are its ``type_names``, and the types its actions raise are in its plan.
    """
    order = {rule.id: i for i, rule in enumerate(ruleset.rules)}
    listeners: dict[str, list[int]] = {}
    for i, rule in enumerate(ruleset.rules):
        for type_name in rule.type_names:
            listeners.setdefault(type_name, []).append(i)
    edges: list[tuple[str, str]] = []
    adj: dict[str, list[str]] = {rule.id: [] for rule in ruleset.rules}
    for r in ruleset.rules:
        _, actions, _ = r.plan
        targets = {i for _, raised, *_ in actions for i in listeners.get(raised.name, ())}
        for i in sorted(targets):
            s = ruleset.rules[i].id
            edges.append((r.id, s))
            adj[r.id].append(s)

    cycles = _cyclic_components(list(order), adj, order)
    return TriggeringGraph(tuple(order), tuple(edges), tuple(cycles))


def _cyclic_components(
    nodes: list[str], adj: dict[str, list[str]], order: dict[str, int]
) -> list[tuple[str, ...]]:
    """Tarjan SCC, iterative so that long chains need no deep recursion;
    returns the components that actually contain a cycle."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    found: list[tuple[str, ...]] = []
    work: list[tuple[str, Iterator[str]]] = []  # the DFS path, with next edges

    def visit(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(adj[v])))

    for root in nodes:
        if root in index:
            continue
        visit(root)
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    if len(comp) > 1 or v in adj[v]:
                        found.append(tuple(sorted(comp, key=lambda n: order[n])))
    found.sort(key=lambda comp: order[comp[0]])
    return found
