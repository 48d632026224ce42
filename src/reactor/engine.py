"""Rule dispatch: transactional actions, reaction chaining, cycle analysis.

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
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .algebra import Occurrence, validate_expr
from .detection import Detector, DetectorConfig
from .errors import (
    ChainLimitExceeded,
    InvalidConfig,
    InvalidRule,
    MissingField,
    NonFinitePayload,
    OutOfOrderEvent,
    TemplateError,
)
from .fluents import FluentHistory
from .model import (
    ASSERT_PREFIX,
    RETRACT_PREFIX,
    EventInstance,
    Scalar,
    TimePoint,
    intern_type,
    is_finite_scalar,
    make_event,
    payload_dict,
    require_finite,
    scalar_json,
)
from .rules import (
    Action,
    AssertAction,
    Binding,
    Condition,
    EmitAction,
    Fact,
    FactTemplate,
    KnowledgeBase,
    NoopAction,
    Overlay,
    RetractAction,
    Rule,
    RuleSet,
    Term,
    UnboundVariable,
    eval_term,
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


def _ground(
    terms: Iterable[Term], bindings: dict[str, Binding], label: str, name: str
) -> list[Scalar]:
    """The values of ``terms``; raises TemplateError when one cannot be
    evaluated, naming the template as ``label.format(name)``."""
    try:
        return [eval_term(t, bindings) for t in terms]
    except (MissingField, UnboundVariable) as err:
        raise TemplateError(f"cannot instantiate {label.format(name)}: {err}") from err


def instantiate_fact(tpl: FactTemplate, bindings: dict[str, Binding]) -> Fact:
    """Ground a fact template; raises TemplateError when it cannot be."""
    return Fact(tpl.name, tuple(_ground(tpl.terms, bindings, "{} template", tpl.name)))


def _raised_type(act: Action) -> Optional[str]:
    """The type of the event ``act`` raises when it takes effect; None for noop."""
    if isinstance(act, AssertAction):
        return ASSERT_PREFIX + act.fact.name
    if isinstance(act, RetractAction):
        return RETRACT_PREFIX + act.fact.name
    if isinstance(act, EmitAction):
        return act.type_name
    if isinstance(act, NoopAction):
        return None
    raise InvalidRule(f"not an action: {act!r}")


def apply_actions_txn(
    actions: Sequence[Action],
    bindings: dict[str, Binding],
    kb: KnowledgeBase,
    post: Optional[Condition] = None,
    fluents: Optional[FluentHistory] = None,
    at: TimePoint = 0,
    id_source: Optional[Callable[[], int]] = None,
) -> tuple[TxnOutcome, list[EventInstance]]:
    """Run one rule firing's actions transactionally.

    Returns (outcome, produced events); rolled-back firings produce none,
    and ids come from ``id_source`` or count from 1. Commits to kb on
    success; touches nothing on rollback.
    """
    txn = Overlay(kb)
    pending: list[tuple[str, dict[str, Scalar]]] = []  # (type name, payload)

    for act in actions:
        raised = _raised_type(act)
        if isinstance(act, EmitAction):
            keys, terms = [k for k, _ in act.payload], [t for _, t in act.payload]
            values = _ground(terms, bindings, "emit({}) payload", raised)
            pending.append((raised, dict(zip(keys, values))))
        elif raised is not None:
            fact = instantiate_fact(act.fact, bindings)
            if txn.add(fact) if isinstance(act, AssertAction) else txn.discard(fact):
                # positional fact args ride along as arg0, arg1, ...
                args = {f"arg{i}": v for i, v in enumerate(fact.args)}
                pending.append((raised, args))

    if post is not None and not evaluate_condition(post, bindings, txn, at, fluents):
        return TxnOutcome.ROLLED_BACK, []

    kb.commit(txn.ops)
    mint = id_source or itertools.count(1).__next__
    return TxnOutcome.COMMITTED, [
        make_event(name, at, payload, mint()) for name, payload in pending
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
            config = DetectorConfig(rule.selection, rule.consumption, rule.window)
            det = Detector(rule.on, config)
            self.detectors.append((rule, det))
            for type_name in det.type_names:
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
                for occ in det.feed(ev):
                    at = occ.terminator_time
                    base = dict(occ.bindings)
                    try:
                        sols = evaluate_condition(
                            rule.where, base, self.kb, at, self.fluents
                        )
                    except _FIRING_FAULTS as err:
                        records.append(_audit_record(rule, occ, base, depth, err))
                        continue
                    if len(sols) > 1:
                        sols.sort(key=_solution_order_key)
                    for sol in sols:
                        try:
                            outcome, events = _run_actions(
                                rule.actions, sol, self.kb, rule.post,
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
    loop. validate_expr both checks each rule's expression
    (InvalidExpression) and names the types it listens for.
    """
    order = {rule.id: i for i, rule in enumerate(ruleset.rules)}
    listeners: dict[str, list[int]] = {}
    for i, rule in enumerate(ruleset.rules):
        for type_name in validate_expr(rule.on):
            listeners.setdefault(type_name, []).append(i)
    edges: list[tuple[str, str]] = []
    adj: dict[str, list[str]] = {rule.id: [] for rule in ruleset.rules}
    for r in ruleset.rules:
        targets = {i for act in r.actions for i in listeners.get(_raised_type(act), ())}
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
