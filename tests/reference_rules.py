"""Term evaluation, comparison and template grounding as they were before
fact lookups became one pass and comparisons one op table.

Frozen as the reference that tests/test_kb_differential.py checks
``evaluate_condition`` and ``apply_actions_txn`` against. ``eval_term``,
``_compare``, ``instantiate_fact`` and ``_fact_payload`` are verbatim;
``emit_payload`` is the emit branch of the old ``apply_actions_txn``, its
body verbatim. Do not edit it to match the new code: the test allows no
difference.

``_bindable`` is the walk ``Rule`` used to name the variables its event
expression binds before validate_expr's own walk took that job, verbatim;
tests/test_rules.py checks ``algebra._walk_expr``'s binders against it.
"""

from __future__ import annotations

from reactor.algebra import And, Atomic, EventExpr, Not, Or, Seq
from reactor.errors import MissingField, TemplateError, UnboundVariable
from reactor.model import EventInstance, Scalar
from reactor.rules import (
    Binding,
    EmitAction,
    Fact,
    FactTemplate,
    FieldRef,
    Lit,
    Term,
    VarRef,
)


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
    raise TypeError(f"not a term: {term!r}")


def _compare(a: Scalar, op: str, b: Scalar) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    # ordering comparisons fail closed across incompatible types
    numeric = (int, float)
    if isinstance(a, numeric) and isinstance(b, numeric):
        pass
    elif isinstance(a, str) and isinstance(b, str):
        pass
    else:
        return False
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b  # Comparison admits only the six ops


def instantiate_fact(tpl: FactTemplate, bindings: dict[str, Binding]) -> Fact:
    """Ground a fact template; raises TemplateError when it cannot be."""
    try:
        args = tuple(eval_term(t, bindings) for t in tpl.terms)
    except (MissingField, UnboundVariable) as err:
        raise TemplateError(f"cannot instantiate {tpl.name} template: {err}") from err
    return Fact(tpl.name, args)


def _fact_payload(fact: Fact) -> dict[str, Scalar]:
    # positional fact args ride along as arg0, arg1, ...
    return {f"arg{i}": v for i, v in enumerate(fact.args)}


def emit_payload(act: EmitAction, bindings: dict[str, Binding]) -> dict[str, Scalar]:
    try:
        payload = {k: eval_term(t, bindings) for k, t in act.payload}
    except (MissingField, UnboundVariable) as err:
        raise TemplateError(
            f"cannot instantiate emit({act.type_name}) payload: {err}"
        ) from err
    return payload


def _bindable(expr: EventExpr) -> set[str]:
    """The variables a match of ``expr`` can bind: those of both branches of
    an or, none of a not's absent slot or of anything inside a times.
    Iterative, and silent on a malformed tree: validate_expr refuses that
    where the expression is run."""
    names: set[str] = set()
    todo = [expr]
    while todo:
        node = todo.pop()
        if isinstance(node, Atomic):
            if isinstance(node.var, str):
                names.add(node.var)
        elif isinstance(node, (Seq, And, Or)):
            todo += (node.left, node.right)
        elif isinstance(node, Not):
            todo += (node.opener, node.closer)
    return names
