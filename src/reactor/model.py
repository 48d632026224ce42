"""Core value types: time points, validity intervals, event types, instances.

Everything here is immutable. Times are non-negative integers (milliseconds
on an abstract timeline); an atomic event's validity interval is the
degenerate [time, time]. Complex detections get the cover of their
components' intervals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Mapping, Optional, Union

from .errors import InvalidEvent, NonFinitePayload, UnboundedInterval

# Timeline positions. Plain ints; the alias marks intent in signatures.
TimePoint = int

# Payload values are flat scalars only (JSON-compatible).
Scalar = Union[str, int, float, bool]


def is_finite_scalar(value: object) -> bool:
    """A str, bool, finite float or int of at most sys.get_int_max_str_digits()
    digits (0: no limit): what a fact can hold and a report can write."""
    if isinstance(value, float):
        return math.isfinite(value)
    if not isinstance(value, int):
        return isinstance(value, str)
    # over 3 bits a digit: an int below 8**limit has fewer digits than that
    bits, limit = value.bit_length(), sys.get_int_max_str_digits()
    return bits <= 3 * limit or not limit or abs(value) < 10**limit


# no limit is below the threshold, so an int below this is always writable
_WRITABLE = 8**sys.int_info.str_digits_check_threshold


def shown(value: object) -> str:
    """``repr(value)`` for an error text; an int too long to write has none
    (see is_finite_scalar), so it shows as its type and digit count."""
    if not isinstance(value, int) or is_finite_scalar(value):
        return repr(value)
    n = abs(value)
    digits = int((n.bit_length() - 1) * math.log10(2)) + 1  # or one more
    digits += n >= 10**digits
    return f"<{type(value).__name__} of {digits} digits>"


def scalar_json(value: Optional[Scalar]) -> str:
    """The canonical JSON text of a scalar or None: byte for byte what
    ``json.dumps`` writes for it (ASCII-escaped strings, ``repr`` numbers).
    Anything else, a NaN or infinite float included, raises ValueError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    raise ValueError(f"not a finite JSON scalar: {value!r}")


ASSERT_PREFIX = "assert:"
RETRACT_PREFIX = "retract:"
TIMER_TYPE = "timer"


# =========================================================================
# Intervals
# =========================================================================


@dataclass(frozen=True, order=True)
class Interval:
    """Closed interval [start, end] of time points.

    end=None means the interval is open on the right (used only for fluent
    validity that no terminating event has closed yet).
    """

    start: TimePoint
    end: Optional[TimePoint]

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"interval start must be non-negative, got {self.start}")
        if self.end is not None and self.end < self.start:
            raise ValueError(f"interval end {self.end} precedes start {self.start}")

    @property
    def bounded(self) -> bool:
        return self.end is not None

    def __repr__(self):
        hi = "OPEN" if self.end is None else self.end
        return f"[{self.start},{hi}]"


def strictly_before(a: Interval, b: Interval) -> bool:
    """True iff a ends before b starts. Requires bounded inputs."""
    if not a.bounded or not b.bounded:
        raise UnboundedInterval(f"ordering needs bounded intervals, got {a} and {b}")
    return a.end < b.start


# =========================================================================
# Event types
# =========================================================================


@dataclass(frozen=True)
class EventTypeId:
    """An event type, named. assert:NAME / retract:NAME are knowledge-base
    update events and "timer" is the synthesized tick (see is_reserved_type);
    anything else is external.
    """

    name: str

    def __post_init__(self):
        name = self.name
        if not isinstance(name, str) or not name:
            raise InvalidEvent(f"event type name must be a non-empty str: {shown(name)}")

    def __repr__(self):
        return self.name


event_type = EventTypeId


@lru_cache(maxsize=4096)
def _type_named(name: str) -> EventTypeId:
    return EventTypeId(name)


def intern_type(name: str) -> EventTypeId:
    """The shared EventTypeId for ``name``, from a bounded cache, so that
    events of one type share one object. A name that is not a non-empty
    str raises InvalidEvent; one that is no str never reaches the cache,
    which could not hash it."""
    return _type_named(name) if isinstance(name, str) else EventTypeId(name)


def is_reserved_type(name: str) -> bool:
    """Types only the engine itself may mint."""
    return name.startswith((ASSERT_PREFIX, RETRACT_PREFIX)) or name == TIMER_TYPE


# =========================================================================
# Event instances
# =========================================================================


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


def require_finite(payload: Mapping[str, Scalar]) -> None:
    """Refuse a payload number a report could not write (see is_finite_scalar)
    with NonFinitePayload."""
    for key, value in payload.items():
        if isinstance(value, (int, float)) and not is_finite_scalar(value):
            got = value if isinstance(value, float) else "an int too long to write"
            raise NonFinitePayload(f"payload field {key!r} must be finite, got {got}")


def payload_dict(payload: object) -> dict[str, Scalar]:
    """A fresh dict of ``payload``, where None means no fields; anything
    else that is not a Mapping raises InvalidEvent."""
    if payload is None:
        return {}
    # a dict first: the ABC check costs a few hundred ns per event
    if type(payload) is not dict and not isinstance(payload, Mapping):
        raise InvalidEvent(f"event payload must be a mapping, got {payload!r}")
    return dict(payload)


def make_event(
    type: EventTypeId | str,
    time: TimePoint,
    payload: Mapping[str, Scalar] | None = None,
    id: int = 1,
) -> EventInstance:
    """Construct an event instance. The caller owns id freshness.

    A type name is looked up with intern_type.
    """
    if not isinstance(type, EventTypeId):
        type = intern_type(type)
    return EventInstance(id=id, type=type, time=time, payload=payload_dict(payload))
