"""Trace loading and deterministic replay.

A trace file is line-delimited JSON, one stimulus per line:

    {"type": "outage", "time": 3, "payload": {"host": "w1"}}

Times must be non-decreasing and types must not be reserved (``assert:*``,
``retract:*``, ``timer``). Each line takes one bounded scan: the decoder's
scanner must read one value spanning the line but for JSON whitespace at
either end; a line it refuses is decoded again only to raise its exact
error. Each type name is checked once per load. load_trace numbers
instances 1..n in line order; replay hands the engine each stimulus's type
name, time and payload, and the engine mints ids on ingestion, so that
events raised mid-dispatch get interleaved, globally fresh ids. Timer
ticks go through the same call as the trace reaches their time; none is
built ahead of the engine.
"""

from __future__ import annotations

import io
import json
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .engine import _COMMITTED, _ROLLED_BACK, Engine, ReactionRecord, TxnOutcome
from .errors import (
    ChainLimitExceeded,
    InvalidEvent,
    InvalidPeriod,
    NonFinitePayload,
    OutOfOrderTrace,
    ReservedType,
    TraceError,
)
from .model import (
    TIMER_TYPE,
    EventInstance,
    EventTypeId,
    intern_type,
    is_reserved_type,
    name_json,
    require_finite,
    scalar_json,
    shown,
)
from .rules import Fact, RuleSet, fact_sort_key


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def load_trace(source: Union[str, os.PathLike, Iterable[str]]) -> list[EventInstance]:
    """Read a line-delimited JSON trace.

    ``source`` is a path (a str or os.PathLike) or an iterable of str lines.
    Blank lines are skipped. Returns instances with ids 1..n in line order.
    Raises TraceError (or a subclass) carrying the offending 1-based line
    number; a line that is no str, and a file not UTF-8, count as bad too.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            line = data.count(b"\n", 0, e.start) + 1
            raise TraceError(f"not valid UTF-8: {e.reason}", line) from None
        return _parse_lines(io.StringIO(text, newline=None))
    return _parse_lines(source)


def _parse_float(text: str) -> float:
    # a nonzero numeral below the smallest float would read as 0.0
    value = float(text)
    if value == 0.0 and text.lower().partition("e")[0].strip("-0."):
        raise ValueError(f"number {text} is out of range")
    return value


_DECODER = json.JSONDecoder(parse_float=_parse_float)
_JSON_SPACE = " \t\n\r"  # what json skips around a value; str.strip skips more


def _parse_lines(lines: Iterable[str]) -> list[EventInstance]:
    # only the trace format is checked here; intern_type, EventInstance and
    # require_finite check the event's own fields; ``types`` maps each name
    # that passed the reserved check and intern_type to its type
    out: list[EventInstance] = []
    types: dict[str, EventTypeId] = {}
    last_time: Optional[int] = None
    for lineno, raw in enumerate(lines, start=1):
        try:
            if not str.strip(raw):  # TypeError for a line that is no str
                continue
            line = raw.strip(_JSON_SPACE)
            try:
                obj, end = _DECODER.scan_once(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(line):  # no lone value: decode raises the line's error
                obj = _DECODER.decode(raw)
        except json.JSONDecodeError as e:
            raise TraceError(f"invalid JSON: {e.msg}", lineno) from None
        except (ValueError, RecursionError) as e:  # out of range, or nested too deep
            raise TraceError(f"invalid JSON: {e}", lineno) from None
        except TypeError:  # bytes from a file opened "rb", say
            raise TraceError(f"line is {type(raw).__name__}, not str", lineno) from None
        if not isinstance(obj, dict):
            raise TraceError("each line must be a JSON object", lineno)
        if "type" not in obj or "time" not in obj:
            raise TraceError("record needs 'type' and 'time' fields", lineno)
        tname = obj["type"]
        etype = types.get(tname) if isinstance(tname, str) else None
        # a type name that is no str is left for intern_type to refuse
        if etype is None and isinstance(tname, str) and is_reserved_type(tname):
            raise ReservedType(f"type {tname!r} is reserved", lineno)
        payload = {} if obj.get("payload") is None else obj["payload"]
        if not isinstance(payload, dict):
            raise TraceError("'payload' must be a JSON object", lineno)
        if len(obj) > 2 + ("payload" in obj):
            extra = obj.keys() - {"type", "time", "payload"}
            raise TraceError(f"unknown field {sorted(extra)[0]!r}", lineno)
        try:
            if etype is None:
                etype = types[tname] = intern_type(tname)
            ev = EventInstance(len(out) + 1, etype, obj["time"], payload)
            if payload:
                require_finite(payload)
        except (InvalidEvent, NonFinitePayload) as e:
            raise TraceError(str(e), lineno) from None
        if last_time is not None and ev.time < last_time:
            raise OutOfOrderTrace(
                f"time {ev.time} is earlier than preceding time {last_time}", lineno
            )
        last_time = ev.time
        out.append(ev)
    return out


@dataclass(frozen=True)
class RunReport:
    """Everything a replay produced, serializable to canonical JSONL."""

    records: tuple[ReactionRecord, ...]
    dispatched: int
    facts: tuple[Fact, ...]
    fluents: dict
    error: Optional[str] = None

    def to_jsonl(self) -> str:
        lines = list(map(_Writer().line, self.records))
        summary = {
            "dispatched": self.dispatched,
            "records": len(self.records),
            "facts": [{"name": name, "args": list(args)} for name, args in self.facts],
            "fluents": {
                name: [[iv.start, iv.end] for iv in ivs]
                for name, ivs in self.fluents.items()
            },
            "error": self.error,
        }
        lines += [_canon({"summary": summary}), ""]  # one join, no copy after
        return "\n".join(lines)


class _Writer(dict):
    """One report's record lines, each what ``_canon`` writes, in one pass.
    It is a dict of the texts of str names (rule ids, binding names, payload
    keys, type names); a value, or a name that is no str (1, True and 1.0
    are one key), is encoded each time, a key quoted (name_json). A firing's
    records are adjacent."""

    last = occ = (object(), "")  # (the last event bound or occurrence, its text)
    outcomes = {o: scalar_json(o.value) for o in TxnOutcome}
    committed, rolled_back = outcomes[_COMMITTED], outcomes[_ROLLED_BACK]

    def __missing__(self, k: str) -> str:
        text = self[k] = scalar_json(k)
        return text

    def event(self, e: EventInstance) -> str:
        t = e.type.name
        payload = ",".join([
            f"{self[k] if type(k) is str else name_json(k)}:{scalar_json(v)}"
            for k, v in sorted(e.payload.items())
        ])
        return (
            f'{{"id":{e.id},"payload":{{{payload}}},"time":{e.time},'
            f'"type":{self[t] if type(t) is str else scalar_json(t)}}}'
        )

    def line(self, r: ReactionRecord) -> str:
        rule, occ, bound, o, events, depth, error = r  # one unpacking, no field reads
        bindings = []
        for k, v in sorted(bound.items()):
            is_event = isinstance(v, EventInstance)
            if is_event and v is not self.last[0]:
                self.last = v, self.event(v)
            v = self.last[1] if is_event else scalar_json(v)
            bindings.append(f"{self[k] if type(k) is str else name_json(k)}:{v}")
        if occ is not self.occ[0]:
            self.occ = occ, (
                f'"events":[{",".join(map(str, sorted(occ.components)))}],'
                f'"interval":[{occ.initiator_time},{occ.terminator_time}]'
            )
        raised = ",".join(map(self.event, events))
        error = "null" if error is None else scalar_json(error)
        # the outcome by identity: an Enum's hash is a Python-level call
        outcome = (self.committed if o is _COMMITTED else self.rolled_back
                   if o is _ROLLED_BACK else self.outcomes[o])  # else refused
        return (
            f'{{"bindings":{{{",".join(bindings)}}},"depth":{depth},'
            f'"error":{error},{self.occ[1]},'
            f'"outcome":{outcome},"raised":[{raised}],'
            f'"rule":{self[rule] if type(rule) is str else scalar_json(rule)}}}'
        )


_ingest_args = operator.attrgetter("type.name", "time", "payload")


def _ticked(trace: Iterable[EventInstance], period: int):
    """The trace as ``_ingest_args`` gives it, each stimulus after the ticks
    (``timer`` at period, 2*period, ...) due before its time, then the
    ticks up to the largest time: ticks follow stimuli at equal times."""
    due = period
    horizon = 0
    for ev in trace:
        name, time, payload = _ingest_args(ev)
        while due < time:
            yield TIMER_TYPE, due, None
            due += period
        horizon = max(horizon, time)
        yield name, time, payload
    while due <= horizon:
        yield TIMER_TYPE, due, None
        due += period


def run_replay(
    ruleset: RuleSet,
    trace: Iterable[EventInstance],
    *,
    tick: Optional[int] = None,
    chain_limit: int = 1000,
    initial_facts: Sequence[Fact] = (),
) -> RunReport:
    """Feed a trace through an engine built from ``ruleset``.

    The trace is read once, as given. With ``tick`` set, a ``timer`` event
    with an empty payload is ingested at each multiple of ``tick`` up to
    the largest stimulus time, as the trace reaches it (after stimuli at
    equal times). Incoming ids are ignored; the engine mints them in
    dispatch order. A chain-limit abort is reported, not raised: the
    report carries the partial records and an error message.
    """
    engine = Engine(ruleset, initial_facts=initial_facts, chain_limit=chain_limit)
    if tick is None:
        stream = map(_ingest_args, trace)
    elif type(tick) is not int or tick < 1:  # bool is refused too
        raise InvalidPeriod(f"tick period must be an integer >= 1, got {shown(tick)}")
    else:
        stream = _ticked(trace, tick)

    records: list[ReactionRecord] = []
    dispatched = 0
    error: Optional[str] = None
    for name, time, payload in stream:
        dispatched += 1
        try:
            records.extend(engine.ingest(name, time, payload))
        except ChainLimitExceeded as exc:
            records.extend(exc.records)
            error = str(exc)
            break
    return RunReport(
        records=tuple(records),
        dispatched=dispatched,
        facts=tuple(sorted(engine.kb.facts(), key=fact_sort_key)),
        fluents={
            name: tuple(engine.fluents.fluent_intervals(name))
            for name in sorted(engine.fluents.fluents)
        },
        error=error,
    )
