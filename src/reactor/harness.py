"""Trace loading and deterministic replay.

A trace file is line-delimited JSON, one stimulus per line:

    {"type": "outage", "time": 3, "payload": {"host": "w1"}}

Times must be non-decreasing and types must not be reserved (``assert:*``,
``retract:*``, ``timer``). Each line takes one bounded scan: the decoder's
scanner must read one value spanning the line but for JSON whitespace at
either end; a line it refuses is decoded again only to raise its exact
error. Each type name is checked once per load. load_trace numbers
instances 1..n in line order; replay re-mints ids on ingestion so that
events raised mid-dispatch get interleaved, globally fresh ids (a
pre-numbered merged stream could not stay monotone around them).
"""

from __future__ import annotations

import heapq
import io
import json
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Optional, Sequence, Union

from .engine import Engine, ReactionRecord
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
    make_event,
    require_finite,
    scalar_json,
)
from .rules import Fact, RuleSet, fact_sort_key


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def load_trace(source: Union[str, IO[str], Iterable[str]]) -> list[EventInstance]:
    """Read a line-delimited JSON trace.

    ``source`` is a path or an iterable of lines. Blank lines are skipped.
    Returns instances with ids 1..n in line order. Raises TraceError (or a
    subclass) carrying the offending 1-based line number; a file that is not
    UTF-8 counts as a bad trace too.
    """
    if isinstance(source, str):
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
        if not raw.strip():
            continue
        try:
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


def synth_ticks(span: tuple[int, int], period: int) -> list[EventInstance]:
    """Timer events at t0+period, t0+2*period, ... up to and including t1.

    Ids number the ticks 1..k; replay re-mints ids when merging anyway.
    """
    if type(period) is not int or period < 1:  # bool is refused too
        raise InvalidPeriod(f"tick period must be an integer >= 1, got {period!r}")
    t0, t1 = span
    return [
        make_event(TIMER_TYPE, t, {}, id=i)
        for i, t in enumerate(range(t0 + period, t1 + 1, period), start=1)
    ]


def merge_stream(
    trace: Sequence[EventInstance], ticks: Sequence[EventInstance]
) -> list[EventInstance]:
    """Interleave ticks into a trace; at equal times stimuli precede ticks.
    Neither input is reordered, so a trace out of time order stays so."""
    return list(heapq.merge(trace, ticks, key=lambda ev: ev.time))


@dataclass(frozen=True)
class RunReport:
    """Everything a replay produced, serializable to canonical JSONL."""

    records: tuple[ReactionRecord, ...]
    dispatched: int
    facts: tuple[Fact, ...]
    fluents: dict
    error: Optional[str] = None

    def to_jsonl(self) -> str:
        # the firings of one occurrence are adjacent records that share its
        # event bindings: one entry, the last one written, writes each once
        last: list = [None, ""]  # [event, its text]

        def binding_text(e: EventInstance) -> str:
            if e is not last[0]:
                last[:] = e, _event_text(e)
            return last[1]

        lines = [_record_line(r, binding_text) for r in self.records]
        summary = {
            "dispatched": self.dispatched,
            "records": len(self.records),
            "facts": [{"name": f.name, "args": list(f.args)} for f in self.facts],
            "fluents": {
                name: [[iv.start, iv.end] for iv in ivs]
                for name, ivs in self.fluents.items()
            },
            "error": self.error,
        }
        lines.append(_canon({"summary": summary}))
        return "\n".join(lines) + "\n"


def _record_line(r: ReactionRecord, binding_text: Callable[[EventInstance], str]) -> str:
    """What ``_canon`` writes for the record as a dict, in one pass: keys in
    sorted order, each scalar through scalar_json, each event binding
    through ``binding_text``; ids, times and the depth are plain ints, whose
    str() is their JSON."""
    occ = r.occurrence
    bindings = ",".join([
        f"{scalar_json(k)}:"
        + (binding_text(v) if isinstance(v, EventInstance) else scalar_json(v))
        for k, v in sorted(r.bindings.items())
    ])
    events = ",".join(map(str, sorted(occ.components)))
    raised = ",".join(map(_event_text, r.events))
    return (
        f'{{"bindings":{{{bindings}}},"depth":{r.depth},'
        f'"error":{scalar_json(r.error)},"events":[{events}],'
        f'"interval":[{occ.initiator_time},{occ.terminator_time}],'
        f'"outcome":{scalar_json(r.outcome.value)},"raised":[{raised}],'
        f'"rule":{scalar_json(r.rule_id)}}}'
    )


def _event_text(e: EventInstance) -> str:
    payload = ",".join(
        [f"{scalar_json(k)}:{scalar_json(v)}" for k, v in sorted(e.payload.items())]
    )
    return (
        f'{{"id":{e.id},"payload":{{{payload}}},"time":{e.time},'
        f'"type":{scalar_json(e.type.name)}}}'
    )


def run_replay(
    ruleset: RuleSet,
    trace: Sequence[EventInstance],
    *,
    tick: Optional[int] = None,
    chain_limit: int = 1000,
    initial_facts: Sequence[Fact] = (),
) -> RunReport:
    """Feed a trace through an engine built from ``ruleset``.

    With ``tick`` set, timer events are synthesized over [0, last stimulus
    time] and merged in (after stimuli at equal times). Incoming ids are
    ignored; the engine re-mints them in dispatch order. A chain-limit abort
    is reported, not raised: the report carries the partial records and an
    error message.
    """
    engine = Engine(ruleset, initial_facts=initial_facts, chain_limit=chain_limit)
    stream = list(trace)
    if tick is not None:
        horizon = max((ev.time for ev in stream), default=0)
        stream = merge_stream(stream, synth_ticks((0, horizon), tick))

    records: list[ReactionRecord] = []
    dispatched = 0
    error: Optional[str] = None
    for ev in stream:
        dispatched += 1
        try:
            records.extend(engine.ingest(ev.type.name, ev.time, ev.payload))
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
