"""The trace loader against the line parser it replaced.

``reference_loader._parse_lines`` is a frozen copy of the parser that
checked every field itself. The loader now checks only the trace format and
leaves an event's own fields to ``intern_type``, ``EventInstance`` and
``require_finite``. On every trace both must give the same events (id,
type, time, payload) or raise the same exception class at the same line;
messages may differ. One class of line may differ: a nonzero number below
the smallest float, which the old parser read as 0.0 and the loader refuses
(TestAllowedDifferences).
"""

import json
import random
import re
import sys
from collections import Counter

import pytest

from reactor import Engine, InvalidEvent, TraceError, load_trace, parse_rules
from reference_loader import _parse_lines as reference_parse_lines

from helpers import MALFORMED_EVENTS

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def underflows(number):
    """True when a JSON number's digits before any exponent are not all
    zero and its float is 0.0."""
    return float(number) == 0.0 and bool(number.lower().partition("e")[0].strip("-0."))


def outcome(parse, lines):
    """The events as (id, type, time, payload repr), or (exception class
    name, line) for a TraceError."""
    try:
        return [(e.id, e.type.name, e.time, repr(e.payload)) for e in parse(lines)]
    except TraceError as e:
        return (type(e).__name__, e.line)


def difference(lines):
    """None when both parsers agree, else "underflow", checked: the loader
    refuses a line holding an underflowing number, and both agree on the
    lines before it."""
    ref, new = outcome(reference_parse_lines, lines), outcome(load_trace, lines)
    if ref == new:
        return None
    assert isinstance(new, tuple) and new[0] == "TraceError", (lines, ref, new)
    line = lines[new[1] - 1]
    assert any(underflows(m.group()) for m in _NUMBER.finditer(line)), (lines, ref, new)
    with pytest.raises(TraceError, match="out of range"):
        load_trace([line])
    assert difference(lines[: new[1] - 1]) is None
    return "underflow"


# ---------------------------------------------------------------- generator

LONG_INT = "9" * 5000  # more digits than int() accepts by default


def _record(rng, time):
    payload = {}
    for key in rng.sample("kvwxyz", rng.randint(0, 3)):
        payload[key] = rng.choice(
            [rng.randint(-5, 5), rng.random(), "s", "", True, False, 10**40]
        )
    obj = {"type": rng.choice("abc"), "time": time}
    if payload or rng.random() < 0.5:
        obj["payload"] = payload
    return obj


def _mutate(rng, obj, time):
    """One way to spoil a record; returns a line or a JSON-ready object."""
    kind = rng.randrange(20)
    line = json.dumps(obj)
    if kind == 0:  # bad JSON
        return rng.choice([line[:-1], line + "}", "not json", line.replace(":", "", 1)])
    if kind == 1:  # two objects on one line
        return rng.choice([line + "," + line, line + line, f"[{line}]"])
    if kind == 2:  # NaN and infinities, in the payload or the time
        bad = rng.choice(["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
        return rng.choice([
            '{"type": "a", "time": 1, "payload": {"v": %s}}', '{"type": "a", "time": %s}'
        ]) % bad
    if kind == 3:  # long integers, past int()'s limit or just long
        digits = rng.choice([LONG_INT, "-" + LONG_INT, "1" * 60])
        if rng.random() < 0.5:
            return '{"type": "a", "time": %s}' % digits.lstrip("-")
        return '{"type": "a", "time": %d, "payload": {"v": %s}}' % (time, digits)
    if kind == 4:
        obj["time"] = rng.choice([True, False, -1, -7, "3", "", 1.5, 2.0, None, [1]])
    elif kind == 5:
        obj["type"] = rng.choice(["", 3, None, True, [], {}, ["a"], 1.5])
    elif kind == 6:
        obj["type"] = rng.choice(["assert:p", "retract:q", "timer", "assert:", "timerx"])
    elif kind == 7:
        obj["payload"] = rng.choice([None, 3, "x", [1], True, 0, [], ""])
    elif kind == 8:
        obj["payload"] = {"v": rng.choice([[1], {"a": 1}, None, [], {}])}
    elif kind == 9:
        obj[rng.choice(["extra", "id", "Type", ""])] = 1
    elif kind == 10:  # blank
        return rng.choice(["", "   ", "\t", "\n"])
    elif kind == 11:  # out of order when the line before is later
        obj["time"] = max(time - rng.randint(1, 3), 0)
    elif kind == 12:
        obj.pop(rng.choice(["type", "time"]), None)
    elif kind == 13:  # below the smallest float
        tiny = rng.choice(["1e-400", "-2.5E-999", "0.%s1" % ("0" * 400)])
        return '{"type": "a", "time": %d, "payload": {"v": %s}}' % (time, tiny)
    elif kind == 14:  # numbers that stay in range
        small = rng.choice(["0.0", "-0.0", "0e-400", "5e-324", "1E5", "-0.5e-3"])
        return '{"type": "a", "time": %d, "payload": {"v": %s}}' % (time, small)
    elif kind == 15:  # JSON, but no object
        return json.dumps(rng.choice([1, "a", None, True, []]))
    # the rest leave the record as it is
    return obj


def random_traces(n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        lines, time = [], 0
        for _ in range(rng.randint(1, 6)):
            time += rng.choice([0, 0, 1, 5])
            item = _record(rng, time)
            # up to three faults on one line, so that check order counts
            for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
                if isinstance(item, dict):
                    item = _mutate(rng, item, time)
            line = item if isinstance(item, str) else json.dumps(item)
            lines.append(line + rng.choice(["", "\n"]))
        yield lines


# -------------------------------------------------------------------- tests


class TestDifferential:
    def test_seeded_mutated_traces(self):
        seen = Counter()
        for lines in random_traces(4000, seed=7):
            diff = difference(lines)
            ref = outcome(reference_parse_lines, lines)
            seen[diff or (ref[0] if isinstance(ref, tuple) else "loaded")] += 1
        # every outcome class is reached, and a fifth of the traces load
        assert {"loaded", "TraceError", "ReservedType", "OutOfOrderTrace",
                "underflow"} <= set(seen), seen
        assert seen["loaded"] > 800, seen


class TestAllowedDifferences:
    def test_underflow_line_refused(self):
        lines = ['{"type": "a", "time": 1}', '{"type": "a", "time": 2, "payload": {"v": 1e-400}}']
        assert outcome(reference_parse_lines, lines)[1][3] == "{'v': 0.0}"
        assert outcome(load_trace, lines) == ("TraceError", 2)
        assert difference(lines) == "underflow"


A = '{"type": "a", "time": 0}'

# each line is decoded by one scan that must end at the line's end, and each
# type name is checked once per load: these rows sit on those boundaries
SCAN_BOUNDARIES = [
    # a string split over two lines, rejoined by the array around a block
    (['{"type":"a', 'b","time":0},{"type":"c","time":1}'], ("TraceError", 1)),
    ([A + "," + A], ("TraceError", 1)),
    ([A + A], ("TraceError", 1)),
    # str.strip drops \x0c and \x0b, JSON does not
    (["\x0c" + A], ("TraceError", 1)),
    ([A + "\x0b"], ("TraceError", 1)),
    ([" " + A, "\t" + A + " \r\n"], [(1, "a", 0, "{}"), (2, "a", 0, "{}")]),
    (["null"], ("TraceError", 1)),
    (["[]"], ("TraceError", 1)),
    (["7"], ("TraceError", 1)),
    (['{"type": "a", "time": 0, "payload": {"v": NaN}}'], ("TraceError", 1)),
    (['{"type": "a", "time": 0, "type": "b"}'], [(1, "b", 0, "{}")]),
    # the type cache must not let a reserved name through
    ([A, '{"type": "timer", "time": 1}'], ("ReservedType", 2)),
    ([A, '{"type": "a", "time": 1}', '{"type": "assert:p", "time": 1}'],
     ("ReservedType", 3)),
    # a name first cached on an out-of-order line, and one cached before it
    (['{"type": "a", "time": 5}', '{"type": "b", "time": 3}', '{"type": "b", "time": 6}'],
     ("OutOfOrderTrace", 2)),
    (['{"type": "a", "time": 5}', '{"type": "a", "time": 3}', '{"type": "a", "time": 6}'],
     ("OutOfOrderTrace", 2)),
]


@pytest.mark.parametrize("lines, expected", SCAN_BOUNDARIES, ids=repr)
def test_scan_boundaries_agree_with_reference(lines, expected):
    assert difference(lines) is None
    assert outcome(load_trace, lines) == expected


def test_underflow_is_the_allowed_difference_on_one_line():
    assert difference(['{"type": "a", "time": 0, "payload": {"v": 1e-400}}']) == "underflow"


DEEP_PAYLOAD = '{"k": ' * 50000 + "1" + "}" * 50000


@pytest.mark.parametrize(
    "line",
    ["[" * 100000, '{"type": "a", "time": 1, "payload": %s}' % DEEP_PAYLOAD],
    ids=["array", "payload"],
)
def test_deep_nesting_is_a_trace_error(line):
    # the reference hits the recursion limit; the loader fails closed
    with pytest.raises(TraceError, match=r"^invalid JSON: maximum recursion") as ei:
        load_trace([A, line])
    assert ei.value.line == 2


@pytest.mark.parametrize("args", MALFORMED_EVENTS)
def test_one_check_at_both_boundaries(args):
    # the same malformed event gives the same message at Engine.ingest and,
    # with the line number, at load_trace
    with pytest.raises(InvalidEvent) as refused:
        Engine(parse_rules("rule r: on a do noop")).ingest(*args)
    type_name, time, payload = (*args, {})[:3]
    if isinstance(time, int) and time >= 10 ** sys.get_int_max_str_digits():
        # no JSON text can carry this time: the decoder refuses its digits
        digits = f"{time // 10}{time % 10}"  # each part within the limit
        line = '{"type": "a", "time": %s}' % digits
        with pytest.raises(TraceError, match="^invalid JSON: Exceeds the limit") as ei:
            load_trace(['{"type": "a", "time": 0}', line])
        assert ei.value.line == 2
        return
    line = json.dumps({"type": type_name, "time": time, "payload": payload})
    if any(not isinstance(key, str) for key in payload):
        # a JSON object's keys are strings, so the trace cannot carry this
        (e,) = load_trace([line])
        assert e.payload == {str(k): v for k, v in payload.items()}
        return
    with pytest.raises(TraceError) as ei:
        load_trace(['{"type": "a", "time": 0}', line])
    assert str(ei.value) == f"{refused.value} (trace line 2)"
