"""Errors raised across the engine.

Every failure mode callers are expected to handle has its own class so tests
and the CLI can match on type rather than message text.
"""

from __future__ import annotations


class ReactorError(Exception):
    """Base class for all engine errors."""


# -------------------------------------------------------------------- model


class InvalidEvent(ReactorError, ValueError):
    """An event's type name, time, id or payload is malformed."""


# ------------------------------------------------------------------ algebra


class UnsortedHistory(ReactorError):
    """Event history handed to an evaluator was not sorted by (time, id)."""


class InvalidExpression(ReactorError):
    """Event expression violates a structural invariant (arity, duplicates)."""


# ---------------------------------------------------------------- detection


class OutOfOrderEvent(ReactorError):
    """Fed event regressed in time or reused an id already seen."""


class InvalidConfig(ReactorError, ValueError):
    """A detector's selection, consumption or window, the engine's chain
    limit, or an initial fact, is not one the engine can run."""


# -------------------------------------------------------------------- rules


class RuleSyntaxError(ReactorError):
    """Rule-source syntax error, with position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class InvalidRule(ReactorError, ValueError):
    """An API-built rule, effect or rule set, or a part of one, that the
    engine could not run."""


class DuplicateRuleId(ReactorError):
    """Two rules share an id."""


class UnboundVariable(ReactorError):
    """A rule references a variable no prior binder supplies."""


class MissingField(ReactorError):
    """A ?var.field access named a payload field the event does not carry."""


class TemplateError(ReactorError):
    """An action template could not be instantiated from the bindings."""


class NonFinitePayload(ReactorError):
    """An event or initial fact given to the engine has a number a report
    cannot write: a NaN, an infinity, or an int with more digits than
    sys.get_int_max_str_digits()."""


class ChainLimitExceeded(ReactorError):
    """Reaction chaining exceeded the configured depth limit.

    Carries the reaction records accumulated before the abort.
    """

    def __init__(self, message: str, records: list | None = None):
        super().__init__(message)
        self.records = records if records is not None else []


class DuplicateEffect(ReactorError):
    """The same (event type, mode, fluent) effect was declared twice."""


# ------------------------------------------------------------------ harness


class TraceError(ReactorError):
    """Base for trace-loading failures; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (trace line {line})")
        self.line = line


class OutOfOrderTrace(TraceError):
    """Trace times decreased between consecutive records."""


class ReservedType(TraceError):
    """Trace used an event type reserved for engine-synthesized events."""


class InvalidPeriod(ReactorError):
    """Tick synthesis asked for a period that is not an integer >= 1."""
