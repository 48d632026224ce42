"""Interval-based composite event detection with reaction rules.

Events carry validity intervals rather than single points; composite
expressions (sequence, conjunction, disjunction, absence, counting) match
over maximal validity intervals. Matches trigger rules whose actions update
a fact base transactionally, raise further events, and chain.
"""

from .algebra import (
    And,
    Any,
    Atomic,
    EventExpr,
    Not,
    Occurrence,
    Or,
    Seq,
    Times,
    occurrence_sort_key,
    occurrences,
    occurrences_point,
    validate_expr,
)
from .detection import (
    ConsumptionPolicy,
    Detector,
    DetectorConfig,
    SelectionPolicy,
)
from .engine import (
    Engine,
    ReactionRecord,
    TriggeringGraph,
    TxnOutcome,
    apply_actions_txn,
    triggering_graph,
)
from .errors import (
    ChainLimitExceeded,
    DuplicateEffect,
    DuplicateRuleId,
    InvalidConfig,
    InvalidEvent,
    InvalidExpression,
    InvalidPeriod,
    InvalidRule,
    MissingField,
    NonFinitePayload,
    OutOfOrderEvent,
    OutOfOrderTrace,
    ReactorError,
    ReservedType,
    RuleSyntaxError,
    TemplateError,
    TraceError,
    UnboundVariable,
    UnsortedHistory,
)
from .fluents import EffectMode, FluentHistory
from .harness import RunReport, load_trace, run_replay
from .model import (
    EventInstance,
    EventTypeId,
    Interval,
    is_reserved_type,
)
from .parser import parse_expr, parse_rules
from .rules import (
    AssertAction,
    Comparison,
    Condition,
    EffectDecl,
    EmitAction,
    Fact,
    FactLookup,
    FactTemplate,
    FieldRef,
    HoldsAtom,
    KnowledgeBase,
    Lit,
    NoopAction,
    RetractAction,
    Rule,
    RuleSet,
    VarRef,
    evaluate_condition,
    fact_sort_key,
)

__version__ = "0.1.0"

__all__ = [
    "And", "Any", "Atomic", "EventExpr", "Not", "Occurrence", "Or", "Seq",
    "Times", "occurrence_sort_key", "occurrences", "occurrences_point",
    "validate_expr",
    "ConsumptionPolicy", "Detector", "DetectorConfig",
    "SelectionPolicy",
    "Engine", "ReactionRecord", "TriggeringGraph", "TxnOutcome",
    "apply_actions_txn", "triggering_graph",
    "ChainLimitExceeded", "DuplicateEffect", "DuplicateRuleId",
    "InvalidConfig", "InvalidEvent", "InvalidExpression", "InvalidPeriod", "InvalidRule",
    "MissingField",
    "NonFinitePayload",
    "OutOfOrderEvent", "OutOfOrderTrace", "ReactorError",
    "ReservedType", "RuleSyntaxError", "TemplateError", "TraceError",
    "UnboundVariable", "UnsortedHistory",
    "EffectMode", "FluentHistory",
    "RunReport", "load_trace", "run_replay",
    "EventInstance", "EventTypeId", "Interval", "is_reserved_type",
    "parse_expr", "parse_rules",
    "AssertAction", "Comparison", "Condition", "EffectDecl", "EmitAction",
    "Fact", "FactLookup", "FactTemplate", "FieldRef", "HoldsAtom",
    "KnowledgeBase", "Lit", "NoopAction", "RetractAction", "Rule", "RuleSet",
    "VarRef", "evaluate_condition", "fact_sort_key",
    "__version__",
]
