"""The hot-path value types against their frozen-dataclass originals.

``EventInstance``, ``Occurrence``, ``ReactionRecord`` and ``Fact`` are each
built by one hand-written constructor over slots. tests/reference_values.py
keeps the dataclasses they replace; a seeded differential feeds both the
same good and bad arguments, positional or by keyword, and requires the
same outcome: the same exception class and text, or values that agree on
``==``, ``hash``, ``repr``, a pickle round-trip and refusing assignment.
A second test checks that a fact's pickle carries no hash into a process
whose str hashes differ.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

import reference_values as ref
from reactor.algebra import Occurrence
from reactor.engine import ReactionRecord, TxnOutcome
from reactor.model import EventInstance, check_event, intern_type
from reactor.rules import Fact, KnowledgeBase

SEED = 17
CASES = 400

TOO_LONG = 10 ** sys.get_int_max_str_digits()
A, B = intern_type("a"), intern_type("b")

# good and bad values mixed: the reference decides which is which
IDS = [1, 2, 3, 4, 7, 10**20, 0, -1, True, False, 1.0, "1", None, TOO_LONG, -TOO_LONG]
TIMES = [0, 3, 5, 10**20, 8**640, TOO_LONG - 1, -1, True, 1.5, "3", None,
         TOO_LONG, -TOO_LONG, 8**640 - 1]
PAYLOADS = [
    {}, {"v": 1}, {"v": "x", "w": 2.5, "z": False}, {"v": float("nan")},
    {"v": TOO_LONG}, {3: "x"}, {TOO_LONG: 1}, {None: 1}, {"v": [1]},
    {"v": None}, {"v": (1,)}, {"k": 1, 2: "x"}, {"k": {}, 2: "x"},
    MappingProxyType({}), MappingProxyType({"v": [1]}),
]
NAMES = ["p", "q", "", 5, None, TOO_LONG]
ARGS = [(), (1,), ("x", 2.5, True), (1, "1"), ([1],), (None,), [1], (TOO_LONG,),
        (float("nan"),), "ab", ({},)]


def attempt(fn):
    """What calling ``fn`` gives, comparable across the two sides: the
    exception's class and text, or ("ok", value)."""
    try:
        return "ok", fn()
    except Exception as err:  # the outcome under test, whatever it is
        return type(err), str(err)


def build(cls, args: tuple, kwargs: dict):
    return attempt(lambda: cls(*args, **kwargs))


def split(rng: random.Random, names: list[str], values: list):
    """``values`` as positional arguments up to a random point, keywords
    after it; a trailing default may be left out altogether."""
    cut = rng.randrange(len(values) + 1)
    return tuple(values[:cut]), dict(zip(names[cut:], values[cut:]))


def event_args(rng):
    values = [rng.choice(IDS), rng.choice((A, B)), rng.choice(TIMES)]
    if rng.random() < 0.8:
        values.append(dict(rng.choice(PAYLOADS)))
    return split(rng, ["id", "type", "time", "payload"], values)


def good_events(side, rng, n=3):
    return [side(i, rng.choice((A, B)), rng.randrange(6), {"v": i})
            for i in range(1, n + 1)]


def occurrence_args(rng, events):
    picks = rng.sample(events, rng.randrange(len(events) + 1))
    bindings = {f"x{k}": e for k, e in enumerate(picks)}
    t0, t1 = sorted(rng.randrange(6) for _ in range(2))
    if rng.random() < 0.1:
        t0, t1 = t1 + 1, t0  # an end before the start: the interval refuses it
    components = frozenset(rng.sample(range(1, 6), rng.randrange(1, 4)))
    values = [bindings, components, t0, t1, rng.randrange(1, 4), rng.randrange(1, 4)]
    names = ["bindings", "components", "initiator_time", "terminator_time",
             "initiator_id", "terminator_id"]
    return split(rng, names, values)


def record_args(rng, occ, events):
    bindings = rng.choice(({}, {"x": events[0]}, {"n": 1, "s": "t"}))
    values = [rng.choice(("r", "s")), occ, bindings,
              rng.choice(list(TxnOutcome)), tuple(events[: rng.randrange(3)]),
              rng.randrange(3)]
    if rng.random() < 0.5:
        values.append(rng.choice((None, "boom")))
    names = ["rule_id", "occurrence", "bindings", "outcome", "events", "depth", "error"]
    return split(rng, names, values)


def fact_args(rng):
    values = [rng.choice(NAMES)]
    if rng.random() < 0.8:
        values.append(rng.choice(ARGS))
    return split(rng, ["name", "args"], values)


def views(value) -> dict:
    """Everything the test compares of one built value, each an outcome."""
    clone = attempt(lambda: pickle.loads(pickle.dumps(value)))
    return {
        "hash": attempt(lambda: hash(value)),
        "repr": attempt(lambda: repr(value)),
        "pickled": clone[0] if clone[0] != "ok" else attempt(lambda: clone[1] == value),
        "pickled repr": attempt(lambda: repr(clone[1])) if clone[0] == "ok" else None,
    }


def frozen(value) -> list[str]:
    """The fields of ``value`` whose assignment or deletion is not refused
    with FrozenInstanceError. A Fact is a tuple, no dataclass, so its two
    fields are named here."""
    names = (["name", "args"] if isinstance(value, Fact)
             else [f.name for f in dataclasses.fields(value)])
    loose = []
    for name in names:
        for change in (lambda: setattr(value, name, 1), lambda: delattr(value, name)):
            if attempt(change)[0] is not dataclasses.FrozenInstanceError:
                loose.append(name)
    return loose


def test_constructors_match_the_frozen_dataclasses():
    rng = random.Random(SEED)
    ref_events, new_events = (
        good_events(side, random.Random(SEED)) for side in (ref.EventInstance, EventInstance)
    )
    # a difference is named by kind, case number and what differs: the
    # values' own reprs may raise (an int too long to write)
    diffs: list[str] = []
    built: dict[str, list[tuple]] = {"event": [], "occurrence": [], "record": [], "fact": []}

    def compare(kind, case, old, new):
        if old[0] != "ok" or new[0] != "ok":
            if old != new:
                diffs.append(f"{kind} #{case}: outcome {old[0]} vs {new[0]}")
            return
        old_views, new_views = views(old[1]), views(new[1])
        for view in old_views:
            if old_views[view] != new_views[view]:
                diffs.append(f"{kind} #{case}: {view}")
        if frozen(old[1]) or frozen(new[1]):
            diffs.append(f"{kind} #{case}: assignable {frozen(new[1])}")
        built[kind].append((old[1], new[1]))

    def both(make_args, old_cls, new_cls, old_parts=(), new_parts=()):
        # the same draws on each side, the side's own parts passed in
        state = rng.getstate()
        args, kwargs = make_args(rng, *old_parts)
        old = build(old_cls, args, kwargs)
        rng.setstate(state)
        args, kwargs = make_args(rng, *new_parts)
        return old, build(new_cls, args, kwargs)

    for case in range(CASES):
        compare("event", case, *both(event_args, ref.EventInstance, EventInstance))
        old_occ, new_occ = both(
            occurrence_args, ref.Occurrence, Occurrence, (ref_events,), (new_events,)
        )
        compare("occurrence", case, old_occ, new_occ)
        compare("record", case, *both(
            record_args, ref.ReactionRecord, ReactionRecord,
            (old_occ[1], ref_events), (new_occ[1], new_events),
        ))
        compare("fact", case, *both(fact_args, ref.Fact, Fact))

    for kind, pairs in built.items():
        sample = pairs[:60]
        for i, (old_a, new_a) in enumerate(sample):
            for j, (old_b, new_b) in enumerate(sample):
                if attempt(lambda: old_a == old_b) != attempt(lambda: new_a == new_b):
                    diffs.append(f"{kind}: == of built #{i} and #{j}")
    assert diffs == []
    # every kind builds often enough for the pairwise == to mean something
    assert all(len(pairs) >= 10 for pairs in built.values())
    assert len(built["event"]) < CASES and len(built["fact"]) == CASES


def test_event_payload_none_is_no_fields():
    # the one input the two sides part on: the dataclass took None as the
    # payload and failed when it checked it; ingest reads None as no
    # fields, and so does the constructor now
    e = EventInstance(1, A, 0, None)
    assert e.payload == {} and e == EventInstance(1, A, 0)
    with pytest.raises(AttributeError):
        ref.EventInstance(1, A, 0, None)


@pytest.mark.parametrize(
    "payload", [0, "", [], (), MappingProxyType({}), MappingProxyType({"v": [1]})], ids=repr
)
def test_payload_that_is_no_dict_is_taken_as_the_reference_takes_it(payload):
    # event_args hands every drawn payload over as a dict; these go as given,
    # falsy ones too: a payload is walked only when it has fields
    def stored(cls):
        return attempt(lambda: (lambda e: (type(e.payload), e.payload))(cls(1, A, 0, payload)))

    old = stored(ref.EventInstance)
    assert stored(EventInstance) == old
    checked = attempt(lambda: check_event(None, 1, A, 0, payload))
    assert checked == (("ok", None) if old[0] == "ok" else old)


_LOAD = """
import pickle, sys
from reactor.rules import Fact
facts = pickle.loads(sys.stdin.buffer.read())
here = {Fact(f.name, f.args) for f in facts}
print(sum(f in here for f in facts), len(facts))
"""

_DUMP = """
import pickle, sys
from reactor.rules import Fact, KnowledgeBase
kb = KnowledgeBase([Fact("emp", ("ann", "d0")), Fact("dept", ("d0",)), Fact("p")])
kb.commit([("assert", Fact("seen", ("x", 1, 2.5, True)))])
sys.stdout.buffer.write(pickle.dumps(kb.facts()))
"""


def test_a_cached_fact_hash_stays_in_its_process():
    # str hashes differ between processes with different hash seeds, so a
    # fact pickled with its hash would be lost in a set built in another
    src = str(Path(__file__).resolve().parent.parent / "src")

    def run(code: str, seed: int, data: bytes = b"") -> bytes:
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], input=data, env=env,
            capture_output=True, timeout=60, check=True,
        )
        return done.stdout

    blob = run(_DUMP, 1)
    assert run(_LOAD, 2, blob).split() == [b"4", b"4"]
    # the same facts built in this process round-trip too
    facts = KnowledgeBase([Fact("emp", ("ann", "d0")), Fact("p")]).facts()
    assert pickle.loads(pickle.dumps(facts)) == facts
