"""The trace-line parser as it was before the event's own types took over
checking its fields.

Frozen as the reference that tests/test_loader.py compares the loader in
``reactor.harness`` against. Do not edit it to match the new loader: the one
difference the test allows is described there and has its own test.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Optional

from reactor.errors import OutOfOrderTrace, ReservedType, TraceError
from reactor.model import EventInstance, intern_type, is_reserved_type

_SCALARS = (str, int, float, bool)


def _parse_lines(lines: Iterable[str]) -> list[EventInstance]:
    out: list[EventInstance] = []
    last_time: Optional[int] = None
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise TraceError(f"invalid JSON: {e.msg}", lineno) from None
        except ValueError as e:  # an integer longer than int() accepts
            raise TraceError(f"invalid JSON: {e}", lineno) from None
        if not isinstance(obj, dict):
            raise TraceError("each line must be a JSON object", lineno)
        if "type" not in obj or "time" not in obj:
            raise TraceError("record needs 'type' and 'time' fields", lineno)
        tname = obj["type"]
        if not isinstance(tname, str) or not tname:
            raise TraceError("'type' must be a non-empty string", lineno)
        if is_reserved_type(tname):
            raise ReservedType(f"type {tname!r} is reserved", lineno)
        t = obj["time"]
        if isinstance(t, bool) or not isinstance(t, int) or t < 0:
            raise TraceError("'time' must be a non-negative integer", lineno)
        payload = obj.get("payload", {})
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            raise TraceError("'payload' must be a JSON object", lineno)
        for k, v in payload.items():
            if not isinstance(v, _SCALARS):
                raise TraceError(f"payload field {k!r} must be a scalar", lineno)
            if isinstance(v, float) and not math.isfinite(v):
                raise TraceError(f"payload field {k!r} must be finite", lineno)
        extra = set(obj) - {"type", "time", "payload"}
        if extra:
            raise TraceError(f"unknown field {sorted(extra)[0]!r}", lineno)
        if last_time is not None and t < last_time:
            raise OutOfOrderTrace(
                f"time {t} is earlier than preceding time {last_time}", lineno
            )
        last_time = t
        out.append(EventInstance(len(out) + 1, intern_type(tname), t, payload))
    return out
