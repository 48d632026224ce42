"""Rule dispatch: transactional actions, reaction chaining, cycle analysis.

One table maps each type a rule or an effect names to its interned type and
its routes (the detectors that listen for it). A stimulus of a type missing
from it is checked, takes its id and moves the watermark, and is dropped.
A firing runs the plan its rule compiled when built (see rules.py): steps
for where and post, a step per action.
Each firing runs its actions as a transaction: each action is grounded and
its update written in turn, straight to the store, which returns each
effective one's stamp. Updates are set-semantic: asserting a present fact or
retracting an absent one is a no-op and raises no event, which is what lets
well-formed rule chains bottom out. A postcondition reads the store itself;
if it fails or raises, the store undoes those updates, newest first, and
the firing reports rolled_back with zero events. So does a firing whose
where, actions or post read a missing payload field or a variable bound
only on another branch of an or, or cannot ground a template (the updates
of the actions before it are undone the same way); its record carries the
error text. A commit journals the effective ops and raises one internal
event per op (assert:NAME / retract:NAME with the fact args as payload)
plus any emitted events; those of a type that a rule or an effect names
join the dispatch queue.

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
    TimePoint,
    check_event,
    intern_type,
    is_finite_scalar,
    name_json,
    payload_dict,
    require_finite,
    scalar_json,
    shown,
    slot_setters,
)
from .rules import (
    Action,
    Binding,
    Condition,
    Fact,
    KnowledgeBase,
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


@dataclass(frozen=True, slots=True, init=False)
class ReactionRecord:
    """One rule firing: what triggered it, what it raised, how it ended."""

    rule_id: str
    occurrence: Occurrence
    bindings: dict[str, Binding]
    outcome: TxnOutcome
    events: tuple[EventInstance, ...]
    depth: int
    error: Optional[str]

    def __init__(self, rule_id, occurrence, bindings, outcome, events, depth,
                 error=None):
        _set_rule_id(self, rule_id)
        _set_occurrence(self, occurrence)
        _set_bindings(self, bindings)
        _set_outcome(self, outcome)
        _set_events(self, events)
        _set_depth(self, depth)
        _set_error(self, error)


(_set_rule_id, _set_occurrence, _set_bindings, _set_outcome, _set_events,
 _set_depth, _set_error) = slot_setters(ReactionRecord)


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
    success; on rollback or a TemplateError kb is left as it was. A rule
    passes its compiled actions and post; any others are compiled here.
    """
    steps = actions if type(actions) is Plan else _plan_actions(actions)
    ops, pending = [], []  # the effective (op, fact, stamp), in order; (type, payload)
    for op, raised, name, keys, getters, label in steps:
        try:
            values = tuple([get(bindings) for get in getters])
        except (MissingField, UnboundVariable) as err:
            kb.undo(ops)
            raise TemplateError(f"cannot instantiate {label}: {err}") from err
        if op is not None:
            fact = Fact(name, values)
            stamp = kb.add(fact) if op == "assert" else kb.discard(fact)
            if stamp is None:
                continue
            ops.append((op, fact, stamp))
        pending.append((raised, dict(zip(keys, values))))

    if post is not None:
        try:
            held = evaluate_condition(post, bindings, kb, at, fluents)
        except (MissingField, UnboundVariable):  # a post that raises undoes too
            kb.undo(ops)
            raise
        if not held:
            kb.undo(ops)
            return TxnOutcome.ROLLED_BACK, []
    kb._log.append(tuple(ops))  # the journal, which shows no stamps
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
        rule.id, occ, dict(bindings), TxnOutcome.ROLLED_BACK, (), depth, error=str(err)
    )


def _order_key(sol: dict[str, Binding]) -> Callable[[dict[str, Binding]], str]:
    """The sort key of one firing's solutions, which share ``sol``'s scalar
    names: ``json.dumps(scalars, sort_keys=True)`` of a solution's scalar
    bindings, its texts built once. Its string order is the run order:
    {"n": 12} before {"n": 1}, as "2" sorts before "}"."""
    names = sorted([k for k, v in sol.items() if not isinstance(v, EventInstance)])
    texts = [(k, f"{name_json(k)}: ") for k in names]
    if len(texts) == 1:  # a single join variable, as in kb_join: no list, no join
        name, head = names[0], "{" + texts[0][1]
        return lambda s: head + scalar_json(s[name]) + "}"
    return lambda s: "{" + ", ".join([t + scalar_json(s[k]) for k, t in texts]) + "}"


def _check_facts(facts: tuple[Fact, ...]) -> None:
    """Refuse an initial fact that no rule could have asserted: a number no
    report can write (is_finite_scalar) with NonFinitePayload, anything else
    with InvalidConfig. One flat pass, as set-up time grows with the facts,
    which it unpacks rather than reads through their properties."""
    for f in facts:
        name, args = f if isinstance(f, Fact) else (None, None)
        if not (isinstance(name, str) and name and isinstance(args, tuple)):
            got = f"({shown(name)}, {shown(args)})" if isinstance(f, Fact) else shown(f)
            raise InvalidConfig(
                "an initial fact must be a Fact with a non-empty str name and "
                f"a tuple of args, got {got}"
            )
        for v in args:
            if type(v) is str or is_finite_scalar(v):  # a str without a call
                continue
            if isinstance(v, (int, float)):  # NaN, inf or too many digits: no repr
                raise NonFinitePayload("initial fact arguments must be writable numbers")
            raise InvalidConfig(
                "an initial fact argument must be a str, int, float or bool, "
                f"got {shown(v)}"
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
                f"chain limit must be an integer >= 1, got {shown(chain_limit)}"
            )
        initial_facts = tuple(initial_facts)
        _check_facts(initial_facts)
        self.kb = KnowledgeBase(initial_facts)
        self.fluents = FluentHistory(ruleset.effects)
        self.chain_limit = chain_limit
        self.detectors: list[tuple[Rule, Detector]] = []
        # type name -> (interned type, the detectors whose expression names
        # it, in rule order), for each type a rule or an effect names; a
        # windowed detector expires at its next routed feed (as time only rises)
        self._types: dict[str, tuple[EventTypeId, list]] = {}
        for rule in ruleset.rules:
            det = Detector(rule.on, rule.config)
            self.detectors.append((rule, det))
            for name in rule.type_names:
                routes = self._types.setdefault(name, (intern_type(name), []))[1]
                routes.append((rule, det))
        for e in ruleset.effects:
            self._types.setdefault(e.type_name, (intern_type(e.type_name), []))
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
        lists only updates the fluents: nothing can fire, so nothing chains.
        One that no effect names either, and so is not in the type table,
        is only checked (check_event): it takes its id and moves the
        watermark, but no event is built. A raised event that nothing names
        is not queued either, but it counts toward the chain limit."""
        # an aborted cascade left its commits behind: take no further input
        if self._aborted is not None:
            raise ChainLimitExceeded(f"engine stopped after: {self._aborted}")
        if type(payload) is not dict:
            payload = payload_dict(payload)
        if payload:
            require_finite(payload)
        if (type(type_name) is not str and not isinstance(type_name, str)) or not type_name:
            intern_type(type_name)  # refuses it with InvalidEvent
        seq, entry = self._seq + 1, self._types.get(type_name)  # a str subclass as its value
        if entry is None:  # checked alone: no event, no payload copy, no fluent record
            e = check_event(None, seq, None, time, payload)  # returns None
        else:
            e = EventInstance(seq, entry[0], time, dict(payload))
        if time < self._watermark:
            raise OutOfOrderEvent(
                f"event {type_name}@{time}#{seq} precedes watermark {self._watermark}"
            )
        self._seq = seq
        self._watermark = time
        if e is None or not entry[1]:  # nothing can fire, so nothing chains
            if e is not None:
                self.fluents.record(e)
            return []

        records: list[ReactionRecord] = []
        queue: deque[tuple[EventInstance, list, int]] = deque([(e, entry[1], 0)])
        while queue:
            ev, routes, depth = queue.popleft()
            self.fluents.record(ev)
            for rule, det in routes:
                where, actions, post = rule.plan
                for occ in det.feed(ev):
                    at = occ.terminator_time
                    base = occ.bindings  # each solution, and an audit record, copies it
                    try:
                        sols = evaluate_condition(
                            where, base, self.kb, at, self.fluents
                        )
                    except _FIRING_FAULTS as err:
                        records.append(_audit_record(rule, occ, base, depth, err))
                        continue
                    if len(sols) > 1:  # one occurrence, one plan: the same names
                        sols.sort(key=_order_key(sols[0]))
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
                                entry = self._types.get(ie.type.name)
                                if entry is not None:
                                    queue.append((ie, entry[1], depth + 1))
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
