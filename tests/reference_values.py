"""The four hot-path value types as they were before each got one direct
constructor: frozen dataclasses built through their generated ``__init__``
(``EventInstance`` then also running ``__post_init__``).

Frozen as the reference that tests/test_value_parity.py checks
``model.EventInstance``, ``algebra.Occurrence``, ``engine.ReactionRecord``
and ``rules.Fact`` against. The four class bodies are verbatim; only the
imports are gathered here. Do not edit it to match the new code: the test
allows no difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from reactor.engine import TxnOutcome
from reactor.errors import InvalidEvent
from reactor.model import (
    _WRITABLE,
    EventTypeId,
    Interval,
    Scalar,
    TimePoint,
    is_finite_scalar,
    shown,
)
from reactor.rules import Binding


@dataclass(frozen=True, slots=True)
class EventInstance:
    """One concrete event on the timeline; a malformed id, time, payload key
    or value raises InvalidEvent (NaN and inf pass: see require_finite), and
    so does a time too long to write.

    ids are unique within an engine run and increase in arrival order; they
    break reporting ties between simultaneous events but never affect the
    algebra itself.
    """

    id: int
    type: EventTypeId
    time: TimePoint
    payload: Mapping[str, Scalar] = field(default_factory=dict)

    def __post_init__(self):
        # type() rather than isinstance: a bool is no id or time point
        if type(self.id) is not int or self.id < 1:
            raise InvalidEvent(f"event id must be an integer >= 1, got {shown(self.id)}")
        time = self.time
        if type(time) is not int or time < 0:
            raise InvalidEvent(f"event time must be an integer >= 0, got {shown(time)}")
        if time >= _WRITABLE and not is_finite_scalar(time):
            raise InvalidEvent(f"event time is too long to write: {shown(time)}")
        for key, value in self.payload.items():
            if not isinstance(key, str):
                raise InvalidEvent(f"payload key {shown(key)} is not a string")
            if not isinstance(value, (str, int, float, bool)):
                raise InvalidEvent(f"payload value {key}={value!r} is not a scalar")

    # payload is a plain dict, so hashing must not touch it
    def __hash__(self):
        return hash((self.id, self.type, self.time))

    def __repr__(self):
        return f"{self.type.name}@{self.time}#{self.id}"


@dataclass(frozen=True)
class Occurrence:
    """One detected occurrence of an expression.

    components are instance ids; initiator/terminator are the earliest and
    latest components by (time, id), so the interval they span is the cover
    of the component intervals.
    """

    bindings: Mapping[str, EventInstance]
    components: frozenset[int]
    initiator_time: TimePoint
    terminator_time: TimePoint
    initiator_id: int
    terminator_id: int

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


@dataclass(frozen=True)
class Fact:
    name: str
    args: tuple[Scalar, ...] = ()

    def __repr__(self):
        if not self.args:
            return f"{self.name}"
        return f"{self.name}({', '.join(map(repr, self.args))})"
