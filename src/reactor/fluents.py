"""Fluent tracking: which named state predicates hold, and when.

Events initiate or terminate fluents according to declared effects. A fluent
holds on half-open intervals [t_init, t_term): initiation is inclusive,
termination takes effect at its own timestamp, and an initiation and a
termination landing on the same instant cancel to not-holding from that
instant onward regardless of arrival order within it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .errors import InvalidRule, OutOfOrderEvent
from .model import EventInstance, Interval, TimePoint, shown


class EffectMode(Enum):
    INITIATES = "initiates"
    TERMINATES = "terminates"


@dataclass(frozen=True)
class EffectDecl:
    """Event type `type_name` initiates or terminates fluent `fluent`."""

    type_name: str
    mode: EffectMode
    fluent: str

    def __post_init__(self):
        for what, name in (("type name", self.type_name), ("fluent", self.fluent)):
            if not isinstance(name, str) or not name:
                raise InvalidRule(f"effect {what} must be a non-empty str, got {shown(name)}")
        if not isinstance(self.mode, EffectMode):
            raise InvalidRule(f"effect mode must be an EffectMode, got {shown(self.mode)}")


class _FluentTrack:
    """Maximal validity intervals of one fluent, built incrementally.

    Appends arrive in (time, id) order. `closed` holds finished [start, end)
    pairs; `open_since` is the start of the unfinished interval, if any.
    Same-instant handling: a termination at time t wins over any initiation
    at t, so an interval opened at t and terminated at t is dropped as empty
    and an initiation arriving after a termination at the same t is void.
    """

    __slots__ = ("closed", "open_since", "last_term_time")

    def __init__(self):
        self.closed: list[tuple[TimePoint, TimePoint]] = []
        self.open_since: Optional[TimePoint] = None
        self.last_term_time: Optional[TimePoint] = None

    def apply(self, mode: EffectMode, t: TimePoint) -> None:
        if mode is EffectMode.TERMINATES:
            if self.open_since is not None:
                if self.open_since < t:
                    self.closed.append((self.open_since, t))
                # opened at t itself: empty interval, drop it
                self.open_since = None
            self.last_term_time = t
        else:
            if self.open_since is not None:
                return  # already holding, re-initiation is absorbed
            if self.last_term_time == t:
                return  # terminate wins the tie at this instant
            self.open_since = t

    def holds_at(self, t: TimePoint) -> bool:
        if self.open_since is not None and t >= self.open_since:
            return True
        i = bisect.bisect_right(self.closed, (t, float("inf"))) - 1
        if i >= 0:
            start, end = self.closed[i]
            return start <= t < end
        return False

    def intervals(self) -> list[Interval]:
        out = [Interval(s, e) for (s, e) in self.closed]
        if self.open_since is not None:
            out.append(Interval(self.open_since, None))
        return out


class FluentHistory:
    """Declared effects and the validity intervals they give each fluent.

    Effects are taken as built; a RuleSet has already rejected duplicates.
    """

    def __init__(self, effects: Iterable[EffectDecl] = ()):
        self._effects: dict[str, list[EffectDecl]] = {}  # by event type name
        self._tracks: dict[str, _FluentTrack] = {}
        self._last_key: tuple[TimePoint, int] = (0, 0)
        for eff in effects:
            if not isinstance(eff, EffectDecl):
                raise InvalidRule(f"a fluent effect must be an EffectDecl, got {shown(eff)}")
            self._effects.setdefault(eff.type_name, []).append(eff)
            self._tracks.setdefault(eff.fluent, _FluentTrack())

    def record(self, e: EventInstance) -> None:
        """Apply the event's declared effects."""
        key = (e.time, e.id)
        if key < self._last_key:
            raise OutOfOrderEvent(
                f"fluent history regresses: {e!r} after {self._last_key}"
            )
        self._last_key = key
        for eff in self._effects.get(e.type.name, ()):
            self._tracks[eff.fluent].apply(eff.mode, e.time)

    def holds_at(self, fluent: str, t: TimePoint) -> bool:
        track = self._tracks.get(fluent)
        return track.holds_at(t) if track is not None else False

    def fluent_intervals(self, fluent: str) -> list[Interval]:
        """Maximal disjoint validity intervals, in order; open tail last."""
        track = self._tracks.get(fluent)
        return track.intervals() if track is not None else []

    @property
    def fluents(self) -> list[str]:
        return sorted(self._tracks)
