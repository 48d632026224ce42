"""Shared test fixtures: event factories, projections, random generators."""

from __future__ import annotations

import random
import sys

from reactor import (
    And,
    Any,
    Atomic,
    EventExpr,
    EventInstance,
    EventTypeId,
    Not,
    Or,
    Seq,
    Times,
)
from reactor.model import intern_type

TYPES = ("a", "b", "c", "d")

# Engine.ingest arguments that make no valid event; tests/test_loader.py
# also writes each as a trace line
MALFORMED_EVENTS = [
    ("a", 1, {"v": [1]}),  # payload value not a scalar
    ("a", 1, {3: "x"}),  # payload key not a string
    ("a", -1),
    ("a", "3"),
    ("a", 1.5),
    ("a", True),
    ("a", 10 ** sys.get_int_max_str_digits()),  # a time too long to write
    ("", 1),
    ([], 1),  # type name unhashable
    (3, 1),  # type name not a string
    (None, 1),
]


def make_event(type_name, time, payload=None, id=1):
    """An event of the interned type named ``type_name``; the caller owns id
    freshness."""
    return EventInstance(id, intern_type(type_name), time, payload)


def history(*specs):
    """Build a sorted history from (type, time) or (type, time, payload)
    tuples; ids are assigned 1..n in order."""
    out = []
    for i, spec in enumerate(specs, start=1):
        payload = spec[2] if len(spec) > 2 else None
        out.append(make_event(spec[0], spec[1], payload, id=i))
    return out


def proj(occs):
    """Forget bindings: {(start, end, sorted component ids)}."""
    return {
        (o.interval.start, o.interval.end, tuple(sorted(o.components)))
        for o in occs
    }


def random_history(rng: random.Random, max_events=12, types=TYPES):
    n = rng.randint(0, max_events)
    t = 0
    out = []
    for i in range(1, n + 1):
        t += rng.randint(0, 2)  # non-decreasing; simultaneity allowed
        out.append(make_event(rng.choice(types), t, None, id=i))
    return out


def random_expr(
    rng: random.Random, depth=3, types=TYPES, allow_not=True
) -> EventExpr:
    """Random well-formed expression of depth <= `depth`.

    Times inner expressions are kept shallow so brute-force enumeration
    stays cheap; counts stay small for the same reason.
    """
    if depth <= 0 or rng.random() < 0.3:
        return Atomic(EventTypeId(rng.choice(types)))
    ops = ["seq", "and", "or", "any", "times"]
    if allow_not:
        ops.append("not")
    op = rng.choice(ops)
    if op == "seq":
        return Seq(
            random_expr(rng, depth - 1, types, allow_not),
            random_expr(rng, depth - 1, types, allow_not),
        )
    if op == "and":
        return And(
            random_expr(rng, depth - 1, types, allow_not),
            random_expr(rng, depth - 1, types, allow_not),
        )
    if op == "or":
        return Or(
            random_expr(rng, depth - 1, types, allow_not),
            random_expr(rng, depth - 1, types, allow_not),
        )
    if op == "not":
        return Not(
            random_expr(rng, depth - 1, types, allow_not),
            random_expr(rng, depth - 1, types, allow_not),
            random_expr(rng, depth - 1, types, allow_not),
        )
    if op == "any":
        k = rng.randint(1, len(types))
        chosen = rng.sample(list(types), k)
        return Any(rng.randint(1, k), tuple(EventTypeId(t) for t in chosen))
    inner = random_expr(rng, min(depth - 1, 1), types, allow_not)
    return Times(rng.randint(1, 3), inner)
