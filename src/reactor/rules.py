"""Rule definitions, the extensional knowledge base, and condition evaluation.

A rule reacts to an event expression, optionally guarded by a condition over
the triggering bindings, the fact base, and currently holding fluents.
Conditions are conjunctions evaluated left to right; positive fact lookups
unify and may introduce new variable bindings (one solution per matching
fact), negated lookups require all their variables to be bound already and
succeed only when nothing in the fact base matches.

Building a Rule checks it and compiles it in one walk (``_check``). Its plan
holds a getter per term, a step per condition atom, with each lookup's bare
variables marked, and per action its op, interned raised type, payload
keys, getters and error label; firings run the plan and test no term or
atom type. Conditions and actions that no Rule checked are compiled where
they are run.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .algebra import EventExpr, _walk_expr
from .detection import ConsumptionPolicy, DetectorConfig, SelectionPolicy
from .errors import (
    DuplicateEffect, DuplicateRuleId, InvalidRule, MissingField, UnboundVariable,
)
from .fluents import EffectDecl, FluentHistory
from .model import (
    ASSERT_PREFIX, RETRACT_PREFIX, EventInstance, Frozen, Scalar, intern_type,
    is_finite_scalar, is_reserved_type, shown,
)

# =========================================================================
# Terms
# =========================================================================


@dataclass(frozen=True)
class Lit:
    value: Scalar


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class FieldRef:
    """?var.field, a payload field of a bound event instance."""

    var: str
    fieldname: str


Term = Union[Lit, VarRef, FieldRef]

# Binding values are event instances (from the event expression) or scalars
# (from fact unification).
Binding = Union[EventInstance, Scalar]


Getter = Callable[[dict[str, Binding]], Scalar]


def _getter(term: Term) -> Getter:
    """``term`` as a function of the bindings that returns its value or
    raises MissingField / UnboundVariable; InvalidRule if it is no term."""
    if isinstance(term, Lit):
        return lambda bindings, value=term.value: value
    if isinstance(term, VarRef):
        name = term.name

        def var(bindings: dict[str, Binding]) -> Scalar:
            if name not in bindings:
                raise UnboundVariable(f"?{name} is not bound")
            value = bindings[name]
            if isinstance(value, EventInstance):
                raise MissingField(f"?{name} is an event binding; use ?{name}.<field>")
            return value

        return var
    if not isinstance(term, FieldRef):
        raise InvalidRule(f"not a term: {shown(term)}")
    name, key = term.var, term.fieldname

    def payload_field(bindings: dict[str, Binding]) -> Scalar:
        if name not in bindings:
            raise UnboundVariable(f"?{name} is not bound")
        inst = bindings[name]
        if not isinstance(inst, EventInstance):
            raise MissingField(f"?{name} is not an event binding")
        if key not in inst.payload:
            raise MissingField(f"event {inst!r} has no payload field {shown(key)}")
        return inst.payload[key]

    return payload_field


# =========================================================================
# Condition atoms
# =========================================================================


_COMPARISON_OPS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


@dataclass(frozen=True)
class Comparison:
    lhs: Term
    op: str
    rhs: Term

    def __post_init__(self):
        if not isinstance(self.op, str) or self.op not in _COMPARISON_OPS:
            raise InvalidRule(f"unknown comparison op {shown(self.op)}")


@dataclass(frozen=True)
class FactLookup:
    name: str
    terms: tuple[Term, ...]
    negated: bool = False


@dataclass(frozen=True)
class HoldsAtom:
    fluent: str


Atom = Union[Comparison, FactLookup, HoldsAtom]


@dataclass(frozen=True)
class Condition:
    atoms: tuple[Atom, ...]


# =========================================================================
# Actions
# =========================================================================


@dataclass(frozen=True)
class FactTemplate:
    name: str
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class AssertAction:
    fact: FactTemplate


@dataclass(frozen=True)
class RetractAction:
    fact: FactTemplate


@dataclass(frozen=True)
class EmitAction:
    type_name: str
    payload: tuple[tuple[str, Term], ...]

    def __post_init__(self):
        if not isinstance(self.type_name, str) or not self.type_name:
            raise InvalidRule(
                f"emit type name must be a non-empty str, got {shown(self.type_name)}"
            )
        if is_reserved_type(self.type_name):
            raise InvalidRule(f"emit cannot raise reserved type {self.type_name!r}")


@dataclass(frozen=True)
class NoopAction:
    pass


Action = Union[AssertAction, RetractAction, EmitAction, NoopAction]
_ACTIONS = (AssertAction, RetractAction, EmitAction, NoopAction)
_UNBOUND = "?{} is not bound by the rule"


# =========================================================================
# Rules
# =========================================================================


@dataclass(frozen=True)
class Rule:
    """A reaction rule, checked when built (see _check), which leaves the
    type names its event expression lists in ``type_names``, its detector
    policy in ``config`` and the firing it compiles to in ``plan``:
    ``(where, actions, post)``, each condition a Plan of steps or None, the
    actions a Plan of action steps."""

    id: str
    on: EventExpr
    where: Optional[Condition] = None
    actions: tuple[Action, ...] = ()
    post: Optional[Condition] = None
    selection: SelectionPolicy = SelectionPolicy.FIRST
    consumption: ConsumptionPolicy = ConsumptionPolicy.SINGLE
    window: Optional[int] = None
    type_names: frozenset[str] = field(init=False, repr=False, compare=False)
    config: DetectorConfig = field(init=False, repr=False, compare=False)
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names, config, plan = _check(self)
        object.__setattr__(self, "type_names", names)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "plan", plan)

    def __reduce__(self):  # the plan's closures do not pickle: build it again
        fields = (self.where, self.actions, self.post, self.selection, self.consumption)
        return Rule, (self.id, self.on, *fields, self.window)


def _check(rule: Rule) -> tuple[frozenset[str], DetectorConfig, tuple]:
    """Walk ``rule`` once, in run order (where, actions, post), refusing what
    the engine could not run and compiling each part as it is checked: a
    malformed part raises InvalidRule, and a variable read before anything
    binds it UnboundVariable. Conditions bind left to right: a positive
    lookup binds each bare variable from that term on, and nothing else
    binds. Every sequence must be a tuple: a generator would be spent by
    this walk. The event expression goes first, through validate_expr's
    walk, which names its types and the variables it binds, then the
    detection policy, through the detector's own check (InvalidConfig)."""
    names, bound = _walk_expr(rule.on)
    config = DetectorConfig(rule.selection, rule.consumption, rule.window)

    def fault(why: str, value: object) -> InvalidRule:
        return InvalidRule(f"rule {shown(rule.id)}: {why}, got {shown(value)}")

    def read(term: Term, binds: bool = False, unbound: str = _UNBOUND) -> Getter:
        if isinstance(term, Lit):  # it may become a fact arg or a report value
            value = term.value
            if not is_finite_scalar(value):  # an int refused here has no repr
                why = "a literal must be a finite str, int, float or bool"
                raise fault(why, "too many digits" if isinstance(value, int) else value)
        elif not isinstance(term, (VarRef, FieldRef)):
            raise fault("not a term", term)
        else:
            bare = isinstance(term, VarRef)
            name = term.name if bare else term.var
            if not isinstance(name, str):
                # it names a binding, which the report writes as a key
                raise fault("a variable name must be a str", name)
            if binds and bare:
                bound.add(name)
            elif name not in bound:
                raise UnboundVariable(unbound.format(name))
        return _getter(term)

    if not isinstance(rule.id, str) or not rule.id:
        raise fault("a rule id must be a non-empty str", rule.id)
    where = _plan_condition(rule.where, read, fault)
    acts = rule.actions
    if not isinstance(acts, tuple) or not all(isinstance(a, _ACTIONS) for a in acts):
        raise fault("actions must be a tuple of actions", acts)
    actions = _plan_actions(acts, read, fault)
    return names, config, (where, actions, _plan_condition(rule.post, read, fault))


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]
    effects: tuple[EffectDecl, ...] = ()

    def __post_init__(self):
        for part, kind in ((self.rules, Rule), (self.effects, EffectDecl)):
            if not isinstance(part, tuple) or not all(isinstance(x, kind) for x in part):
                raise InvalidRule(
                    f"a rule set takes a tuple of {kind.__name__}s, got {shown(part)}"
                )
        declared = set()
        for eff in self.effects:
            if eff in declared:
                raise DuplicateEffect(
                    f"effect {eff.type_name} {eff.mode.value} {eff.fluent} "
                    "declared twice"
                )
            declared.add(eff)
        seen = set()
        for r in self.rules:
            if r.id in seen:
                raise DuplicateRuleId(f"rule id {r.id!r} defined twice")
            seen.add(r.id)


# =========================================================================
# Knowledge base
# =========================================================================


class Fact(Frozen, namedtuple("Fact", ("name", "args"), defaults=((),))):
    """A ground fact: the pair ``(name, args)`` as a tuple, so a store hashes
    and compares it in C, and it equals that plain pair. It is as frozen as
    a frozen dataclass (see model.Frozen), and a pickle holds the pair."""

    __slots__ = ()

    def __repr__(self):
        name, args = self
        return f"{name}({', '.join(map(repr, args))})" if args else f"{name}"


def fact_sort_key(f: Fact):
    return (f.name, len(f.args), tuple((type(a).__name__, str(a)) for a in f.args))


class KnowledgeBase:
    """Extensional fact store with a committed-transaction journal.

    Facts are a set: ``add`` of a present fact or ``discard`` of an absent
    one changes nothing and returns None; otherwise each returns the fact's
    stamp, the number it arrived with, which orders the store. A firing
    writes through them, and ``undo`` takes its effective ops back. The
    journal records, per committed firing, the ops that actually changed
    state, so replaying it over the initial facts reproduces the current
    state exactly.

    Lookups go through ``candidates``, which reads an index keyed by
    ``(name, arity)`` and by ``(name, arity, position, value)``: the alpha
    memory of a Rete network. The index is built at the first lookup and
    kept up to date by every write from then on, so a store nobody queries
    never pays for it. Its buckets keep stamp order, so candidates come
    out in ``facts()`` order. A fact is a tuple, so the store and its
    buckets hash and compare it in C, with no Python call per operation.
    """

    def __init__(self, initial_facts: Sequence[Fact] = ()):
        self.initial: tuple[Fact, ...] = tuple(initial_facts)
        self._clock = itertools.count(1)  # the stamps, in the order facts arrive
        self._facts: dict[Fact, int] = dict(zip(self.initial, self._clock))
        if len(self._facts) < len(self.initial):  # a repeated fact keeps its first place
            self._facts = dict(zip(dict.fromkeys(self.initial), self._clock))
        self._index: Optional[dict[tuple, dict[Fact, None]]] = None
        self._log: list[tuple[tuple, ...]] = []  # the journal, with the stamps

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def facts(self) -> list[Fact]:
        return list(self._facts)

    def snapshot(self) -> frozenset[Fact]:
        return frozenset(self._facts)

    @property
    def journal(self) -> list[tuple[tuple[str, Fact], ...]]:
        return [tuple([op[:2] for op in ops]) for ops in self._log]

    def candidates(
        self, name: str, arity: int, bound: Sequence[tuple[int, Scalar]]
    ) -> Iterable[Fact]:
        """The facts named ``name`` with ``arity`` args that may unify.

        ``bound`` lists ``(position, value)`` pairs the lookup fixes; the
        result is the smallest index bucket among them (the whole
        ``(name, arity)`` bucket when there are none). It can still hold
        facts that do not unify, so callers check each one. The result is
        live: do not write while iterating over it.
        """
        index = self._index
        if index is None:
            index = self._index = {}
            for fact in self._facts:
                _index_add(index, fact)
        best = index.get((name, arity))
        if best is None:
            return ()
        for pos, value in bound:
            bucket = index.get((name, arity, pos, value))
            if bucket is None:
                return ()
            if len(bucket) < len(best):
                best = bucket
        return best

    def add(self, fact: Fact) -> Optional[int]:
        """Assert ``fact`` and return its stamp; None when it is present."""
        if fact in self._facts:
            return None
        stamp = self._facts[fact] = next(self._clock)
        if self._index is not None:
            _index_add(self._index, fact)
        return stamp

    def discard(self, fact: Fact) -> Optional[int]:
        """Retract ``fact`` and return the stamp it had; None when it is absent."""
        stamp = self._facts.pop(fact, None)
        for key in () if stamp is None or self._index is None else _index_keys(fact):
            bucket = self._index[key]
            del bucket[fact]
            if not bucket:
                del self._index[key]
        return stamp

    def undo(self, ops: Sequence[tuple[str, Fact, int]]) -> None:
        """Take back a firing's effective ops, newest first, each ``(op,
        fact, stamp)`` with the stamp ``add`` or ``discard`` returned.
        Taking back an assert leaves every order as it was. A retracted
        fact goes back with its old stamp, and then the store and the
        buckets that hold a put-back fact are sorted by stamp again, which
        costs O(store)."""
        back = []
        for op, fact, stamp in reversed(ops):
            if op == "assert":
                self.discard(fact)
            else:
                self._facts[fact] = stamp
                back.append(fact)
                if self._index is not None:
                    _index_add(self._index, fact)
        if not back:
            return
        facts = self._facts = dict(sorted(self._facts.items(), key=operator.itemgetter(1)))
        if self._index is not None:
            for key in {key for fact in back if fact in facts for key in _index_keys(fact)}:
                self._index[key] = dict.fromkeys(sorted(self._index[key], key=facts.get))

    def commit(self, ops: Sequence[tuple[str, Fact]]) -> None:
        """Apply a transaction's effective ops and journal them."""
        for op, fact in ops:
            if op not in ("assert", "retract"):
                raise ValueError(f"unknown journal op {op!r}")
            (self.add if op == "assert" else self.discard)(fact)
        self._log.append(tuple(ops))

    def replay_journal(self) -> frozenset[Fact]:
        """Reconstruct the current state from initial facts + journal."""
        facts: dict[Fact, None] = {f: None for f in self.initial}
        for txn in self._log:
            for op, fact, *_ in txn:
                if op == "assert":
                    facts[fact] = None
                else:
                    facts.pop(fact, None)
        return frozenset(facts)


def _index_keys(fact: Fact) -> Iterator[tuple]:
    """The keys of the fact's buckets, one at a time, so a write builds no list."""
    name, args = fact
    arity = len(args)
    yield name, arity
    for pos, arg in enumerate(args):
        yield name, arity, pos, arg


def _index_add(index: dict[tuple, dict[Fact, None]], fact: Fact) -> None:
    """File ``fact`` last in each of its buckets. A bucket is made only when
    its key has none, so a write builds no dict for a bucket that exists."""
    for key in _index_keys(fact):
        bucket = index.get(key)
        if bucket is None:
            index[key] = {fact: None}
        else:
            bucket[fact] = None


# =========================================================================
# Condition evaluation
# =========================================================================


def _compare(a: Scalar, op: str, b: Scalar) -> bool:
    # ordering comparisons fail closed across incompatible types
    if op not in ("=", "!=") and not (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
        or isinstance(a, str) and isinstance(b, str)
    ):
        return False
    return _COMPARISON_OPS[op](a, b)


class Plan(tuple):
    """A compiled condition or compiled actions. A condition's steps, one per
    atom, each map the solutions so far, the store, the time and the
    fluents to the solutions the atom passes. An action step (see
    _action_step) is a tuple; a noop compiles to none."""


def _compare_step(lhs: Getter, op: str, rhs: Getter):
    return lambda sols, kb, at, fluents: [
        s for s in sols if _compare(lhs(s), op, rhs(s))
    ]


def _holds_step(fluent: str):
    return lambda sols, kb, at, fluents: (
        sols if fluents is not None and fluents.holds_at(fluent, at) else []
    )


def _lookup_step(lookup: FactLookup, getters: Sequence[Getter]):
    """A fact lookup in one pass per solution. Its bare variables are marked
    once, here; whether one is bound is tested per solution, since a rule
    binds some only on one branch of an or. The terms the solution fixes are
    evaluated once and pick the index bucket, up to the first that cannot be:
    a fact matching the positions before it must reach it below, so it
    raises exactly where a full scan would. Each candidate then extends the
    solution in store order; a negated lookup wants none."""
    name, arity = lookup.name, len(getters)
    terms = [
        (pos, term.name if isinstance(term, VarRef) else None, get)
        for pos, (term, get) in enumerate(zip(lookup.terms, getters))
    ]

    def matches(sols: Iterable[dict[str, Binding]], kb) -> Iterator[dict[str, Binding]]:
        for bindings in sols:
            fixed: dict[int, Scalar] = {}
            for pos, var, get in terms:
                if var is not None and var not in bindings:
                    continue
                try:
                    fixed[pos] = get(bindings)
                except (MissingField, UnboundVariable):
                    break
            for _, args in kb.candidates(name, arity, list(fixed.items())):
                extended = dict(bindings)
                for (pos, var, get), arg in zip(terms, args):
                    if pos in fixed:
                        if fixed[pos] != arg:
                            break
                    elif var is not None and var not in extended:
                        extended[var] = arg
                    elif get(extended) != arg:
                        break
                else:
                    yield extended

    if lookup.negated:
        return lambda sols, kb, at, fluents: [
            s for s in sols if next(matches((s,), kb), None) is None
        ]
    # one generator over every solution: no comprehension's frame per firing
    return lambda sols, kb, at, fluents: list(matches(sols, kb))


def _read_any(term: Term, binds: bool = False, unbound: str = _UNBOUND) -> Getter:
    return _getter(term)


def _refuse(why: str, value: object) -> InvalidRule:
    return InvalidRule(f"{why}: {shown(value)}")


def _fact_getters(f, read, fault, binds: bool = False, unbound: str = _UNBOUND) -> list:
    if not isinstance(f.name, str) or not f.name:
        raise fault("a fact name must be a non-empty str", f.name)
    if not isinstance(f.terms, tuple):
        raise fault("fact terms must be a tuple", f.terms)
    return [read(term, binds, unbound) for term in f.terms]


def _plan_condition(cond, read=_read_any, fault=_refuse) -> Optional[Plan]:
    """``cond`` compiled, one step per atom. ``read`` compiles a term and
    ``fault`` words a refusal: Rule passes its checking ones (see _check);
    the defaults, for a condition that no Rule checked, check no literal and
    no boundness, so such a term fails as its firing reaches it."""
    if cond is not None and not isinstance(cond, Condition):
        raise fault("where and post must be conditions", cond)
    if cond is None:
        return None
    if not isinstance(cond.atoms, tuple):
        raise fault("condition atoms must be a tuple", cond.atoms)
    steps = []
    for atom in cond.atoms:
        if isinstance(atom, Comparison):
            steps.append(_compare_step(read(atom.lhs), atom.op, read(atom.rhs)))
        elif isinstance(atom, FactLookup):
            negated = "?{} in a negated lookup is not bound elsewhere"
            unbound = negated if atom.negated else _UNBOUND
            getters = _fact_getters(atom, read, fault, not atom.negated, unbound)
            steps.append(_lookup_step(atom, getters))
        elif not isinstance(atom, HoldsAtom):
            raise fault("not a condition atom", atom)
        elif not isinstance(atom.fluent, str) or not atom.fluent:
            raise fault("a fluent name must be a non-empty str", atom.fluent)
        else:
            steps.append(_holds_step(atom.fluent))
    return Plan(steps)


def evaluate_condition(
    cond: Union[Condition, Plan, None],
    bindings: dict[str, Binding],
    kb: KnowledgeBase,
    at: int,
    fluents: Optional[FluentHistory] = None,
) -> list[dict[str, Binding]]:
    """All ways the conjunction holds; each solution extends `bindings`.

    An absent/None condition is vacuously true (one solution: the input
    bindings). holds() atoms are judged at time `at`. Fact lookups read
    ``kb.candidates``, so a postcondition sees its firing's writes.
    A rule passes its compiled condition; any other is compiled here.
    """
    solutions = [dict(bindings)]
    if cond is None:
        return solutions
    for step in cond if type(cond) is Plan else _plan_condition(cond):
        solutions = step(solutions, kb, at, fluents)
        if not solutions:
            break
    return solutions


def _action_step(act: Union[AssertAction, RetractAction, EmitAction], getters) -> tuple:
    """``(op, raised type, fact name, payload keys, getters, label)``: op
    is "assert" or "retract" (None for an emit), the type is interned, a
    fact's args ride along as arg0, arg1, ..., and the label names the
    action in a TemplateError."""
    if isinstance(act, EmitAction):
        name = act.type_name
        keys, label = tuple([k for k, _ in act.payload]), f"emit({name}) payload"
        return None, intern_type(name), name, keys, tuple(getters), label
    name = act.fact.name
    if isinstance(act, AssertAction):
        op, raised = "assert", ASSERT_PREFIX + name
    else:
        op, raised = "retract", RETRACT_PREFIX + name
    keys = tuple(map("arg{}".format, range(len(getters))))
    return op, intern_type(raised), name, keys, tuple(getters), f"{name} template"


def _plan_actions(actions: Iterable[Action], read=_read_any, fault=_refuse) -> Plan:
    """``actions`` compiled, one step per action but noop; ``read`` and
    ``fault`` as for _plan_condition."""
    steps = []
    for act in actions:
        if isinstance(act, EmitAction):
            pairs = act.payload
            if not isinstance(pairs, tuple) or not all(
                type(p) is tuple and len(p) == 2 and isinstance(p[0], str)  # no Fact
                for p in pairs
            ):
                raise fault("an emit payload must be a tuple of (str, term) pairs", pairs)
            steps.append(_action_step(act, [read(term) for _, term in pairs]))
        elif isinstance(act, (AssertAction, RetractAction)):
            if not isinstance(act.fact, FactTemplate):
                raise fault("not a fact template", act.fact)
            steps.append(_action_step(act, _fact_getters(act.fact, read, fault)))
        elif not isinstance(act, NoopAction):
            raise fault("not an action", act)
    return Plan(steps)
