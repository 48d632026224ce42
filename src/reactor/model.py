"""Core value types: time points, validity intervals, event types, instances.

Everything here is immutable. Times are non-negative integers (milliseconds
on an abstract timeline); an atomic event's validity interval is the
degenerate [time, time]. Complex detections get the cover of their
components' intervals.

EventInstance is a slotted frozen dataclass with one hand-written
constructor: it checks its arguments, then writes each slot once through the
slot's setter. Called on None (``check_event``) it only checks: the engine's
path for an event of a type that no rule or effect names. It is the one way
to build an event; callers take the type from ``intern_type``. It stays
slotted, as a slot reads faster than a tuple field. Occurrence,
ReactionRecord and Fact are frozen tuples (``Frozen``), which the hot path
builds with ``tuple.__new__``, running no Python frame.
"""

from __future__ import annotations

import math
import sys
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Mapping, Optional, Union

from .errors import InvalidEvent, NonFinitePayload

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
_type_of = type  # the builtin, which EventInstance's field name shadows


def shown(value: object) -> str:
    """``repr(value)`` for an error text; an int too long to write has none
    (see is_finite_scalar), so it shows as its type and digit count, a
    value whose repr would hold one as its type, and one whose repr raises
    a TypeError as its type too."""
    if not isinstance(value, int) or is_finite_scalar(value):
        try:
            return repr(value)
        except ValueError:  # "Exceeds the limit": an int inside is too long
            return f"<{type(value).__name__} holding an int too long to write>"
        except TypeError:  # a part cannot be shown, as the args of Fact("k", 5)
            return f"<{type(value).__name__} with no repr>"
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


def name_json(name: Optional[Scalar]) -> str:
    """A dict key's text, as ``json.dumps`` writes it: scalar_json's, quoted
    if the name is no str (1 as "1", True as "true", 1.0 as "1.0")."""
    text = scalar_json(name)
    return text if isinstance(name, str) else f'"{text}"'


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

    def __repr__(self):
        hi = "OPEN" if self.end is None else self.end
        return f"[{self.start},{hi}]"


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


@dataclass(frozen=True, slots=True, init=False)
class EventInstance:
    """One concrete event on the timeline; a malformed id, time, payload key
    or value raises InvalidEvent (NaN and inf pass: see require_finite), and
    so does a time too long to write. A payload of None is no fields.

    ids are unique within an engine run and increase in arrival order; they
    break reporting ties between simultaneous events but never affect the
    algebra itself.
    """

    id: int
    type: EventTypeId
    time: TimePoint
    payload: Mapping[str, Scalar]

    def __init__(self, id, type, time, payload=None):
        # type() rather than isinstance: a bool is no id or time point
        if _type_of(id) is not int or id < 1:
            raise InvalidEvent(f"event id must be an integer >= 1, got {shown(id)}")
        if _type_of(time) is not int or time < 0:
            raise InvalidEvent(f"event time must be an integer >= 0, got {shown(time)}")
        if time >= _WRITABLE and not is_finite_scalar(time):
            raise InvalidEvent(f"event time is too long to write: {shown(time)}")
        if payload:
            for key, value in payload.items():
                if not isinstance(key, str):
                    raise InvalidEvent(f"payload key {shown(key)} is not a string")
                if not isinstance(value, (str, int, float, bool)):
                    raise InvalidEvent(f"payload value {key}={shown(value)} is not a scalar")
        elif payload is None:
            payload = {}
        elif _type_of(payload) is not dict:  # a falsy non-mapping has no items()
            payload.items()
        if self is None:
            return
        _set_id(self, id)
        _set_type(self, type)
        _set_time(self, time)
        _set_payload(self, payload)

    # payload is a plain dict, so hashing must not touch it
    def __hash__(self):
        return hash((self.id, self.type, self.time))

    def __repr__(self):
        return f"{self.type.name}@{self.time}#{self.id}"


# each slot's __set__: what a slotted frozen dataclass's constructor writes with
_set_id, _set_type, _set_time, _set_payload = (
    getattr(EventInstance, f.name).__set__ for f in fields(EventInstance))
check_event = EventInstance.__init__  # on None: its checks alone, nothing built


class Frozen:
    """Mixed in before a ``collections.namedtuple`` base, it makes the tuple
    as frozen as a frozen dataclass: assigning or deleting any attribute
    raises FrozenInstanceError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def require_finite(payload: Mapping[str, Scalar]) -> None:
    """Refuse a payload number a report could not write (see is_finite_scalar)
    with NonFinitePayload."""
    for key, value in payload.items():
        if isinstance(value, (int, float)) and not is_finite_scalar(value):
            got = value if isinstance(value, float) else "an int too long to write"
            raise NonFinitePayload(f"payload field {shown(key)} must be finite, got {got}")


def payload_dict(payload: object) -> dict[str, Scalar]:
    """A fresh dict of ``payload``, where None means no fields; anything
    else that is not a Mapping raises InvalidEvent."""
    if payload is None:
        return {}
    # a dict first: the ABC check costs a few hundred ns per event
    if type(payload) is not dict and not isinstance(payload, Mapping):
        raise InvalidEvent(f"event payload must be a mapping, got {shown(payload)}")
    return dict(payload)
