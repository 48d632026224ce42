"""Report lines and solution order against the ``json.dumps`` code they
replaced.

``reference_report`` holds frozen copies of the writer that built a dict
per record and ran ``json.dumps`` over it, and of the solution key that
ran ``json.dumps`` per solution. Over seeded random records and solution
lists, every ``to_jsonl`` line must be byte-identical to the reference's,
and every solution key the same text, so solutions run in the same order.
"""

import json
import math
import random

import pytest

import reference_report as ref
from helpers import make_event

from reactor import (
    EventInstance, Occurrence, ReactionRecord, RunReport, TxnOutcome,
)
from reactor.engine import _order_key
from reactor.model import scalar_json

# every kind of value the report or a solution key can hold, edge cases first
STRINGS = [
    "", "a", "ascii text", "quote\"d", "back\\slash", "\\\"", "tab\there",
    "new\nline", "\r\x00\x01\x1f\x7f", "  ", "é", "naïve", "日本語",
    "\U0001f600", "\ud800", "\u2028", "\u2029", "</script>", "\x85\xa0",
]
INTS = [0, 1, -1, 12, 2**31, -(2**63), 2**64 + 1, -(10**30), 10**40]
FLOATS = [
    0.0, -0.0, 0.1, -1.5, 1e16, 1e15, 1e-7, 5e-324, -5e-324, 1.7976931348623157e308,
    2.5, 1e22, 123456789.125,
]
BOOLS = [True, False]
# binding names that are no str, which a record built directly can hold;
# json.dumps writes each as a quoted key: "1", "true", "1.0", "null"
NON_STR_NAMES = [0, 1, -1, 12, 2**70, True, False, 1.5, -0.0, 1e16, 5e-324]


def scalar(rng: random.Random):
    kind = rng.random()
    if kind < 0.3:
        return rng.choice(STRINGS) if rng.random() < 0.7 else random_string(rng)
    if kind < 0.55:
        return rng.choice(INTS) if rng.random() < 0.5 else rng.randint(-10**6, 10**6)
    if kind < 0.8:
        if rng.random() < 0.5:
            return rng.choice(FLOATS)
        value = rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-20, 20)
        return value if math.isfinite(value) else 0.5
    return rng.choice(BOOLS + [0, 1])


def random_string(rng: random.Random) -> str:
    alphabet = "ab\"\\/\n\t\x00\x1f\x7fé \U0001f600 z"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))


def name(rng: random.Random) -> str:
    return rng.choice(["x", "n", "k", "é", "a\"b", "", "z\\", "v1", " "]) + str(
        rng.randint(0, 3)
    )


def binding_names(rng: random.Random) -> list:
    """Mostly str names; else numbers and bools, which sort among
    themselves, or None alone."""
    count, kind = rng.randint(0, 4), rng.random()
    if kind < 0.1:
        return [rng.choice(NON_STR_NAMES) for _ in range(count)]
    if kind < 0.13:
        return [None]
    return [name(rng) for _ in range(count)]


def event(rng: random.Random, eid: int):
    payload = {name(rng): scalar(rng) for _ in range(rng.randint(0, 4))}
    type_name = rng.choice(["a", "assert:p", "retract:é", "out\"x", "timer"])
    return make_event(type_name, rng.randint(0, 10**12), payload, id=eid)


def record(rng: random.Random) -> ReactionRecord:
    ids = rng.sample(range(1, 10**6), rng.randint(1, 4))
    times = sorted(rng.randint(0, 10**9) for _ in range(2))
    bindings = {
        k: event(rng, rng.choice(ids)) if rng.random() < 0.4 else
        (None if rng.random() < 0.05 else scalar(rng))
        for k in binding_names(rng)
    }
    occ = Occurrence(
        bindings={k: v for k, v in bindings.items() if isinstance(v, EventInstance)},
        components=frozenset(ids),
        initiator_time=times[0],
        terminator_time=times[1],
        initiator_id=min(ids),
        terminator_id=max(ids),
    )
    raised = tuple(event(rng, rng.randint(1, 10**9)) for _ in range(rng.randint(0, 3)))
    error = None if rng.random() < 0.7 else rng.choice(STRINGS + ["?x is not bound"])
    return ReactionRecord(
        rng.choice(["r", "join", "rüle", "a\"b\\c", ""]),
        occ,
        bindings,
        rng.choice(list(TxnOutcome)),
        raised,
        rng.randint(0, 1000),
        error=error,
    )


@pytest.mark.parametrize("seed", range(20))
def test_record_lines_match_reference(seed):
    rng = random.Random(seed)
    records = tuple(record(rng) for _ in range(60))
    report = RunReport(records=records, dispatched=len(records), facts=(), fluents={})
    lines = report.to_jsonl().split("\n")
    assert lines[-1] == ""
    assert lines[:-2] == [ref._canon(ref._record_json(r)) for r in records]
    summary = json.loads(lines[-2])["summary"]
    assert summary["records"] == len(records)


def test_every_sample_scalar_matches_reference():
    for value in STRINGS + INTS + FLOATS + BOOLS + [None]:
        assert scalar_json(value) == ref._canon(value), value


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, [1], (1,), {}, b"x", object()], ids=repr
)
def test_scalar_json_refuses_what_canon_refuses(value):
    with pytest.raises(ValueError):
        scalar_json(value)


def test_non_finite_payload_refused_as_before():
    bad = make_event("a", 0, {"v": math.nan})
    rec = record(random.Random(0))
    rec = ReactionRecord(rec.rule_id, rec.occurrence, {"e": bad}, rec.outcome, (), 0)
    with pytest.raises(ValueError):
        ref._canon(ref._record_json(rec))
    with pytest.raises(ValueError):
        RunReport(records=(rec,), dispatched=1, facts=(), fluents={}).to_jsonl()


def solution(rng: random.Random, keys: list, value=scalar) -> dict:
    """One solution of a firing: every one of ``keys`` bound to a scalar,
    as all solutions of one firing bind the same scalar names, and maybe an
    event binding, which the key skips."""
    sol = {k: value(rng) for k in keys}
    if rng.random() < 0.5:
        sol["h"] = make_event("hit", 0, {"d": scalar(rng)}, id=rng.randint(1, 99))
    return sol


@pytest.mark.parametrize("seed", range(20))
def test_solution_order_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(30):
        keys = sorted({name(rng) for _ in range(rng.randint(1, 3))})
        sols = [solution(rng, keys) for _ in range(rng.randint(2, 12))]
        key = _order_key(sols[0])
        for sol in sols:
            assert key(sol) == ref._solution_order_key(sol)
        order = sorted(range(len(sols)), key=lambda i: key(sols[i]))
        expected = sorted(range(len(sols)), key=lambda i: ref._solution_order_key(sols[i]))
        assert order == expected


def test_string_order_puts_twelve_before_one_on_the_last_key():
    # '2' < '}', so the text of {"n": 12} sorts first; a tuple of per-value
    # texts would put ("1",) first
    for sols in ([{"n": 1}, {"n": 12}, {"n": True}],
                 [{"m": "x", "n": 1}, {"m": "x", "n": 12}, {"m": "x", "n": True}]):
        expected = sorted(sols, key=ref._solution_order_key)
        assert [s["n"] for s in expected] == [12, 1, True]
        assert sorted(sols, key=_order_key(sols[0])) == expected


def test_solution_key_quotes_names_that_are_no_str():
    # as json.dumps writes a key; a solution built directly can hold such names
    for sol in [{1: "x", 2.5: 3, 0: False}, {None: 1}, {True: 1, -1: 2, 2**70: 3}]:
        assert _order_key(sol)(sol) == ref._solution_order_key(sol)


# numbers whose texts prefix each other ("1", "12", "1.5", "1e+20", "-1",
# "-12"), bools, and strings with characters that sort below '"' or '}',
# escapes and non-ASCII: where a key that dropped the closing '}' or a
# separator would part from the text
PREFIXING = [1, 12, -1, -12, 1.5, 1e20, 10, 0, 0.5, True, False, 121, -1.5,
             " ", "!", "", "1", "12", "a b", "a!", "a", "\"", "\\", "\n", "é", "\u2028",
             "\U0001f600", "a\x00", "~"]
ORDER_NAMES = ["n", "m", "", " ", "a\"b", "é"]


@pytest.mark.parametrize("seed", range(10))
def test_firing_order_matches_reference_pair_by_pair(seed):
    rng = random.Random(seed)
    for _ in range(60):
        if rng.random() < 0.2:  # names that are no str, which sort among themselves
            keys = sorted(set(rng.sample(NON_STR_NAMES, rng.randint(1, 3))))
        else:
            keys = sorted(set(rng.sample(ORDER_NAMES, rng.randint(1, 3))))
        sols = [solution(rng, keys, lambda r: r.choice(PREFIXING)) for _ in range(8)]
        key = _order_key(sols[0])
        for a in sols:
            for b in sols:
                old_a, old_b = ref._solution_order_key(a), ref._solution_order_key(b)
                new_a, new_b = key(a), key(b)
                assert (old_a < old_b, old_a == old_b) == (new_a < new_b, new_a == new_b)
