"""Report serialisation and the order of a firing's solutions as they were
before record lines and solution keys were written without ``json.dumps``.

Frozen as the reference that tests/test_report_differential.py checks
``RunReport.to_jsonl`` and ``engine._solution_order_key`` against.
``_canon``, ``_event_json``, ``_binding_json``, ``_record_json`` and
``_solution_order_key`` are verbatim. Do not edit it to match the new code:
the test allows no difference.
"""

from __future__ import annotations

import json

from reactor.engine import ReactionRecord
from reactor.model import EventInstance
from reactor.rules import Binding


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _event_json(e: EventInstance) -> dict:
    return {
        "id": e.id,
        "type": e.type.name,
        "time": e.time,
        "payload": dict(e.payload),
    }


def _binding_json(value):
    if isinstance(value, EventInstance):
        return _event_json(value)
    return value


def _record_json(r: ReactionRecord) -> dict:
    occ = r.occurrence
    return {
        "rule": r.rule_id,
        "interval": [occ.initiator_time, occ.terminator_time],
        "events": sorted(occ.components),
        "bindings": {k: _binding_json(v) for k, v in r.bindings.items()},
        "outcome": r.outcome.value,
        "raised": [_event_json(e) for e in r.events],
        "depth": r.depth,
        "error": r.error,
    }


def _solution_order_key(sol: dict[str, Binding]) -> str:
    scalars = {
        k: v for k, v in sol.items() if not isinstance(v, EventInstance)
    }
    return json.dumps(scalars, sort_keys=True, default=str)
