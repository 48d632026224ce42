"""Rule definitions, the extensional knowledge base, and condition evaluation.

A rule reacts to an event expression, optionally guarded by a condition over
the triggering bindings, the fact base, and currently holding fluents.
Conditions are conjunctions evaluated left to right; positive fact lookups
unify and may introduce new variable bindings (one solution per matching
fact), negated lookups require all their variables to be bound already and
succeed only when nothing in the fact base matches.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .algebra import EventExpr, _walk_expr
from .detection import ConsumptionPolicy, DetectorConfig, SelectionPolicy
from .errors import (
    DuplicateEffect, DuplicateRuleId, InvalidRule, MissingField, UnboundVariable,
)
from .fluents import EffectDecl, FluentHistory
from .model import EventInstance, Scalar, is_finite_scalar, is_reserved_type

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


def eval_term(term: Term, bindings: dict[str, Binding]) -> Scalar:
    """Resolve a term to a scalar; raises MissingField / UnboundVariable."""
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, VarRef):
        if term.name not in bindings:
            raise UnboundVariable(f"?{term.name} is not bound")
        value = bindings[term.name]
        if isinstance(value, EventInstance):
            raise MissingField(
                f"?{term.name} is an event binding; use ?{term.name}.<field>"
            )
        return value
    if isinstance(term, FieldRef):
        if term.var not in bindings:
            raise UnboundVariable(f"?{term.var} is not bound")
        inst = bindings[term.var]
        if not isinstance(inst, EventInstance):
            raise MissingField(f"?{term.var} is not an event binding")
        if term.fieldname not in inst.payload:
            raise MissingField(
                f"event {inst!r} has no payload field {term.fieldname!r}"
            )
        return inst.payload[term.fieldname]
    raise InvalidRule(f"not a term: {term!r}")


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
            raise InvalidRule(f"unknown comparison op {self.op!r}")


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
                f"emit type name must be a non-empty str, got {self.type_name!r}"
            )
        if is_reserved_type(self.type_name):
            raise InvalidRule(f"emit cannot raise reserved type {self.type_name!r}")


@dataclass(frozen=True)
class NoopAction:
    pass


Action = Union[AssertAction, RetractAction, EmitAction, NoopAction]
_ACTIONS = (AssertAction, RetractAction, EmitAction, NoopAction)


# =========================================================================
# Rules
# =========================================================================


@dataclass(frozen=True)
class Rule:
    id: str
    on: EventExpr
    where: Optional[Condition] = None
    actions: tuple[Action, ...] = ()
    post: Optional[Condition] = None
    selection: SelectionPolicy = SelectionPolicy.FIRST
    consumption: ConsumptionPolicy = ConsumptionPolicy.SINGLE
    window: Optional[int] = None

    def __post_init__(self):
        _check(self)


def _check(rule: Rule) -> None:
    """Walk ``rule`` once, in run order (where, actions, post), and refuse
    what the engine could not run: a malformed part with InvalidRule, and a
    variable read before anything binds it with UnboundVariable. Conditions
    bind left to right: a positive lookup binds each bare variable from that
    term on, and nothing else binds. Every sequence must be a tuple: a
    generator would be spent by this walk. The event expression goes first,
    through validate_expr's walk, which names the variables it binds, then
    the detection policy, through the detector's own check (InvalidConfig)."""
    bound = _walk_expr(rule.on)[1]
    DetectorConfig(rule.selection, rule.consumption, rule.window)

    def fault(why: str, value: object) -> InvalidRule:
        return InvalidRule(f"rule {rule.id!r}: {why}, got {value!r}")

    def read(
        term: Term, binds: bool = False, unbound: str = "?{} is not bound by the rule"
    ) -> None:
        if isinstance(term, Lit):  # it may become a fact arg or a report value
            value = term.value
            if not is_finite_scalar(value):  # an int refused here has no repr
                why = "a literal must be a finite str, int, float or bool"
                raise fault(why, "too many digits" if isinstance(value, int) else value)
            return
        if not isinstance(term, (VarRef, FieldRef)):
            raise fault("not a term", term)
        name = term.name if isinstance(term, VarRef) else term.var
        if not isinstance(name, str):
            # it names a binding, which the report writes as a key
            raise fault("a variable name must be a str", name)
        if binds and isinstance(term, VarRef):
            bound.add(name)
        elif name not in bound:
            raise UnboundVariable(unbound.format(name))

    def fact(f: Union[FactLookup, FactTemplate], **how) -> None:
        if not isinstance(f.name, str) or not f.name:
            raise fault("a fact name must be a non-empty str", f.name)
        if not isinstance(f.terms, tuple):
            raise fault("fact terms must be a tuple", f.terms)
        for term in f.terms:
            read(term, **how)

    def condition(cond: Optional[Condition]) -> None:
        if cond is not None and not isinstance(cond, Condition):
            raise fault("where and post must be conditions", cond)
        atoms = () if cond is None else cond.atoms
        if not isinstance(atoms, tuple):
            raise fault("condition atoms must be a tuple", atoms)
        for atom in atoms:
            if isinstance(atom, Comparison):
                read(atom.lhs)
                read(atom.rhs)
            elif isinstance(atom, FactLookup) and atom.negated:
                fact(atom, unbound="?{} in a negated lookup is not bound elsewhere")
            elif isinstance(atom, FactLookup):
                fact(atom, binds=True)
            elif not isinstance(atom, HoldsAtom):
                raise fault("not a condition atom", atom)
            elif not isinstance(atom.fluent, str) or not atom.fluent:
                raise fault("a fluent name must be a non-empty str", atom.fluent)

    if not isinstance(rule.id, str) or not rule.id:
        raise fault("a rule id must be a non-empty str", rule.id)
    condition(rule.where)
    acts = rule.actions
    if not isinstance(acts, tuple) or not all(isinstance(a, _ACTIONS) for a in acts):
        raise fault("actions must be a tuple of actions", acts)
    for act in acts:
        if isinstance(act, EmitAction):
            pairs = act.payload
            if not isinstance(pairs, tuple) or not all(
                isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], str)
                for p in pairs
            ):
                raise fault("an emit payload must be a tuple of (str, term) pairs", pairs)
            for _, term in pairs:
                read(term)
        elif not isinstance(act, NoopAction):
            if not isinstance(act.fact, FactTemplate):
                raise fault("not a fact template", act.fact)
            fact(act.fact)
    condition(rule.post)


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]
    effects: tuple[EffectDecl, ...] = ()

    def __post_init__(self):
        for part, kind in ((self.rules, Rule), (self.effects, EffectDecl)):
            if not isinstance(part, tuple) or not all(isinstance(x, kind) for x in part):
                raise InvalidRule(
                    f"a rule set takes a tuple of {kind.__name__}s, got {part!r}"
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


@dataclass(frozen=True)
class Fact:
    name: str
    args: tuple[Scalar, ...] = ()

    def __repr__(self):
        if not self.args:
            return f"{self.name}"
        return f"{self.name}({', '.join(map(repr, self.args))})"


def fact_sort_key(f: Fact):
    return (f.name, len(f.args), tuple((type(a).__name__, str(a)) for a in f.args))


class KnowledgeBase:
    """Extensional fact store with a committed-transaction journal.

    Facts are a set: re-asserting an existing fact or retracting an absent
    one changes nothing and journals nothing. The journal records, per
    committed transaction, the ops that actually changed state, so replaying
    it over the initial facts reproduces the current state exactly.

    Lookups go through ``candidates``, which reads an index keyed by
    ``(name, arity)`` and by ``(name, arity, position, value)``: the alpha
    memory of a Rete network. The index is built at the first lookup and
    kept up to date by ``commit`` from then on, so a store nobody queries
    never pays for it. Its buckets keep insertion order, so candidates come
    out in ``facts()`` order.
    """

    def __init__(self, initial_facts: Sequence[Fact] = ()):
        self.initial: tuple[Fact, ...] = tuple(initial_facts)
        self._facts: dict[Fact, None] = {f: None for f in self.initial}
        self._index: Optional[dict[tuple, dict[Fact, None]]] = None
        self.journal: list[tuple[tuple[str, Fact], ...]] = []

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def facts(self) -> list[Fact]:
        return list(self._facts)

    def snapshot(self) -> frozenset[Fact]:
        return frozenset(self._facts)

    def candidates(
        self, name: str, arity: int, bound: Sequence[tuple[int, Scalar]]
    ) -> Iterable[Fact]:
        """The facts named ``name`` with ``arity`` args that may unify.

        ``bound`` lists ``(position, value)`` pairs the lookup fixes; the
        result is the smallest index bucket among them (the whole
        ``(name, arity)`` bucket when there are none). It can still hold
        facts that do not unify, so callers check each one. The result is
        live: do not commit while iterating over it.
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

    def commit(self, ops: Sequence[tuple[str, Fact]]) -> None:
        """Apply a transaction's effective ops and journal them."""
        index = self._index
        for op, fact in ops:
            if op == "assert":
                self._facts[fact] = None
                if index is not None:
                    _index_add(index, fact)
            elif op == "retract":
                del self._facts[fact]
                if index is not None:
                    _index_discard(index, fact)
            else:
                raise ValueError(f"unknown journal op {op!r}")
        self.journal.append(tuple(ops))

    def replay_journal(self) -> frozenset[Fact]:
        """Reconstruct the current state from initial facts + journal."""
        facts: dict[Fact, None] = {f: None for f in self.initial}
        for txn in self.journal:
            for op, fact in txn:
                if op == "assert":
                    facts[fact] = None
                else:
                    facts.pop(fact, None)
        return frozenset(facts)


def _index_keys(fact: Fact) -> list[tuple]:
    arity = len(fact.args)
    keys: list[tuple] = [(fact.name, arity)]
    keys += [(fact.name, arity, pos, arg) for pos, arg in enumerate(fact.args)]
    return keys


def _index_add(index: dict[tuple, dict[Fact, None]], fact: Fact) -> None:
    for key in _index_keys(fact):
        index.setdefault(key, {})[fact] = None


def _index_discard(index: dict[tuple, dict[Fact, None]], fact: Fact) -> None:
    for key in _index_keys(fact):
        bucket = index[key]
        del bucket[fact]
        if not bucket:
            del index[key]


class Overlay:
    """One transaction's pending updates over a live store.

    Reads see the store plus the overlay, through the same ``in`` and
    ``candidates`` interface as the store itself, in the order a copy of
    the store with the updates applied would list them: surviving store
    facts first, then added facts in the order they were added. The store
    is not touched until ``kb.commit(overlay.ops)``; dropping the overlay
    rolls the transaction back.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.added: dict[Fact, None] = {}
        self.removed: set[Fact] = set()
        self.ops: list[tuple[str, Fact]] = []  # the effective ops, in order

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.added or (fact not in self.removed and fact in self.kb)

    def add(self, fact: Fact) -> bool:
        """Assert ``fact``; False when it is already present."""
        if fact in self:
            return False
        self.added[fact] = None
        self.ops.append(("assert", fact))
        return True

    def discard(self, fact: Fact) -> bool:
        """Retract ``fact``; False when it is absent."""
        if fact not in self:
            return False
        if fact in self.added:
            del self.added[fact]
        else:
            self.removed.add(fact)
        self.ops.append(("retract", fact))
        return True

    def candidates(
        self, name: str, arity: int, bound: Sequence[tuple[int, Scalar]]
    ) -> Iterable[Fact]:
        found = self.kb.candidates(name, arity, bound)
        if self.removed:
            found = [f for f in found if f not in self.removed]
        if not self.added:
            return found
        return [
            *found,
            *(f for f in self.added if f.name == name and len(f.args) == arity),
        ]


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


def _matches(
    lookup: FactLookup, bindings: dict[str, Binding], kb: Union[KnowledgeBase, Overlay]
) -> Iterator[dict[str, Binding]]:
    """``bindings`` extended by each fact in ``kb`` that matches ``lookup``, in
    store order. The terms the bindings fix are evaluated once and pick the
    index bucket, up to the first that cannot be: a fact matching the positions
    before it must reach it below, so it raises exactly where a full scan would."""
    terms = lookup.terms
    fixed: dict[int, Scalar] = {}
    for pos, term in enumerate(terms):
        if isinstance(term, VarRef) and term.name not in bindings:
            continue
        try:
            fixed[pos] = eval_term(term, bindings)
        except (MissingField, UnboundVariable):
            break
    for fact in kb.candidates(lookup.name, len(terms), list(fixed.items())):
        extended = dict(bindings)
        for pos, (term, arg) in enumerate(zip(terms, fact.args)):
            if pos in fixed:
                if fixed[pos] != arg:
                    break
            elif isinstance(term, VarRef) and term.name not in extended:
                extended[term.name] = arg
            elif eval_term(term, extended) != arg:
                break
        else:
            yield extended


def evaluate_condition(
    cond: Optional[Condition],
    bindings: dict[str, Binding],
    kb: Union[KnowledgeBase, Overlay],
    at: int,
    fluents: Optional[FluentHistory] = None,
) -> list[dict[str, Binding]]:
    """All ways the conjunction holds; each solution extends `bindings`.

    An absent/None condition is vacuously true (one solution: the input
    bindings). holds() atoms are judged at time `at`. Fact lookups read
    ``kb.candidates``, so a transaction's overlay can stand in for the store.
    """
    solutions = [dict(bindings)]
    if cond is None:
        return solutions
    for atom in cond.atoms:
        nxt: list[dict[str, Binding]] = []
        for sol in solutions:
            if isinstance(atom, Comparison):
                lhs, rhs = eval_term(atom.lhs, sol), eval_term(atom.rhs, sol)
                if _compare(lhs, atom.op, rhs):
                    nxt.append(sol)
            elif isinstance(atom, HoldsAtom):
                if fluents is not None and fluents.holds_at(atom.fluent, at):
                    nxt.append(sol)
            elif not isinstance(atom, FactLookup):
                raise InvalidRule(f"not a condition atom: {atom!r}")
            elif atom.negated:
                if next(_matches(atom, sol, kb), None) is None:
                    nxt.append(sol)
            else:
                nxt += _matches(atom, sol, kb)
        solutions = nxt
        if not solutions:
            break
    return solutions
