"""Seeded workload generators for the replay benchmark.

Each generator turns a seed into the three inputs the program receives --
rule text, JSONL stimulus lines and initial facts -- plus the outcome it
expects, worked out from the workload's own construction without running
the engine. The same seed always gives byte-identical inputs. Sizes are
fixed per workload and only the arrangement is random, so every seed costs
about the same.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

from reactor import Fact


@dataclass
class Expected:
    """What a correct replay of an instance produces, per rule id."""

    detections: Counter = field(default_factory=Counter)
    committed: Counter = field(default_factory=Counter)  # none roll back
    facts: int = 0


@dataclass
class Instance:
    rules: str
    lines: list[str]
    facts: list[Fact]
    expected: Expected

    @property
    def stimuli(self) -> int:
        return len(self.lines)


def _line(type_name: str, time: int, payload: dict | None = None) -> str:
    obj = {"type": type_name, "time": time}
    if payload:
        obj["payload"] = payload
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -------------------------------------------------------------- replay_mix

REPLAY_MIX_RULES = """\
effect ping initiates pinging
effect pong terminates pinging
rule burst: on times(3, ping) do emit(burst_alert, {}) consume single window 10
rule pair: on seq(ask as ?a, reply as ?r) where ?a.key = ?r.key
  do assert(seen(?r.key)) consume single window 2
rule audit: on ping where holds(pinging) do noop
"""


def replay_mix(seed: int, n: int = 50_000) -> Instance:
    """The acceptance mix: ten stimuli per time unit, mostly filler.

    Every block of 20 holds an ask (t even) and a reply (t odd) that share
    a key nine times in ten, pings at positions 6 and 16, and a pong at 13
    three times in four. A pong terminates ``pinging`` at the same instant
    as the second ping, which voids that ping's initiation, so ``audit``
    fires on that ping only in blocks without a pong.
    """
    rng = random.Random(seed)
    lines: list[str] = []
    exp = Expected()
    pings = 0
    seen: set[int] = set()
    holding = False
    last_term = None
    ask_key = 0
    for i in range(n):
        t, r = i // 10, i % 20
        if r == 0:
            ask_key = rng.randrange(10)
            lines.append(_line("ask", t, {"key": ask_key}))
        elif r == 10:
            key = ask_key if rng.random() < 0.9 else (ask_key + 1 + rng.randrange(9)) % 10
            lines.append(_line("reply", t, {"key": key}))
            exp.detections["pair"] += 1
            if key == ask_key:
                exp.committed["pair"] += 1
                seen.add(key)
        elif r in (6, 16):
            lines.append(_line("ping", t))
            pings += 1
            if not holding and last_term != t:
                holding = True
            exp.detections["audit"] += 1
            if holding:
                exp.committed["audit"] += 1
            if pings % 3 == 0:
                exp.detections["burst"] += 1
                exp.committed["burst"] += 1
        elif r == 13 and rng.random() < 0.75:
            lines.append(_line("pong", t))
            holding = False
            last_term = t
        else:
            lines.append(_line(f"w{rng.randrange(4)}", t))
    exp.facts = len(seen)
    return Instance(REPLAY_MIX_RULES, lines, [], exp)


# ----------------------------------------------------------------- kb_join

# Employees per department, so each hit commits this many ``join`` firings.
PER_DEPT = 5

KB_JOIN_RULES = """\
rule join: on hit as ?h where fact(emp, ?n, ?h.d) do assert(seen(?n, ?h.d))
rule clear: on clear as ?c where fact(seen, ?n, ?c.d) do retract(seen(?n, ?c.d))
"""


def kb_join(seed: int, depts: int = 40, n: int = 1000) -> Instance:
    """Hits join a department against ``emp`` facts; clears undo them.

    Three stimuli in four are hits. Each hit fires ``join`` once per
    employee of its department; a clear fires ``clear`` once per ``seen``
    fact its department holds at that moment.
    """
    rng = random.Random(seed)
    names = rng.sample(range(10 * depts * PER_DEPT), depts * PER_DEPT)
    dept_ids = [f"d{k}" for k in range(depts)]
    facts = [
        Fact("emp", (f"n{names[k * PER_DEPT + j]}", dept_ids[k]))
        for k in range(depts)
        for j in range(PER_DEPT)
    ]
    rng.shuffle(facts)
    kinds = ["hit"] * (n - n // 4) + ["clear"] * (n // 4)
    rng.shuffle(kinds)
    exp = Expected()
    seen: set[str] = set()
    lines = []
    for t, kind in enumerate(kinds):
        d = rng.choice(dept_ids)
        lines.append(_line(kind, t, {"d": d}))
        exp.detections["join" if kind == "hit" else "clear"] += 1
        if kind == "hit":
            exp.committed["join"] += PER_DEPT
            seen.add(d)
        elif d in seen:
            exp.committed["clear"] += PER_DEPT
            seen.discard(d)
    exp.facts = len(facts) + PER_DEPT * len(seen)
    return Instance(KB_JOIN_RULES, lines, facts, exp)


# ------------------------------------------------------------- rule_fanout

# Zipf exponent of rule popularity: at 1.0 the hot rules' unbounded state
# makes a run several times slower and larger.
ZIPF_S = 0.6


def _zipf_quotas(total: int, ranks: int) -> list[int]:
    """Largest-remainder split of ``total`` over Zipf weights."""
    weights = [1.0 / (k ** ZIPF_S) for k in range(1, ranks + 1)]
    norm = sum(weights)
    raw = [total * w / norm for w in weights]
    quotas = [int(x) for x in raw]
    by_remainder = sorted(range(ranks), key=lambda k: (quotas[k] - raw[k], k))
    for k in by_remainder[: total - sum(quotas)]:
        quotas[k] += 1
    return quotas


def rule_fanout(
    seed: int, rules: int = 200, n: int = 6000, idle: int = 0
) -> Instance:
    """Many independent two-step rules with Zipf-skewed traffic.

    Rule ``r<i>`` waits for ``x<i>`` then ``y<i>``, keeps every occurrence
    (select last, consume multiple, no window) and emits ``z<i>``. Each
    rule's quota comes from a Zipf split over a seeded ranking; its
    stimuli come in x/y pairs whose order within the pair is random, then
    all rules' stimuli are interleaved at random. A ``y`` fires its rule
    when some ``x`` of that rule came before it. ``idle`` more rules of the
    same shape get no traffic, which adds rules without adding matches.
    """
    rng = random.Random(seed)
    text = "".join(
        f"rule r{i}: on seq(x{i} as ?x, y{i} as ?y) "
        f"do emit(z{i}, {{a: ?x.v, b: ?y.v}}) select last consume multiple\n"
        for i in range(rules + idle)
    )
    ranking = list(range(rules))
    rng.shuffle(ranking)
    quotas = _zipf_quotas(n, rules)
    per_rule: list[list[str]] = [[] for _ in range(rules)]
    for rank, i in enumerate(ranking):
        kinds: list[str] = []
        for _ in range(quotas[rank] // 2):
            kinds += ["x", "y"] if rng.random() < 0.5 else ["y", "x"]
        if quotas[rank] % 2:
            kinds.append(rng.choice("xy"))
        per_rule[i] = kinds
    order = [i for i in range(rules) for _ in per_rule[i]]
    rng.shuffle(order)
    cursor = [0] * rules
    exp = Expected()
    has_x = [False] * rules
    lines = []
    for t, i in enumerate(order):
        kind = per_rule[i][cursor[i]]
        cursor[i] += 1
        lines.append(_line(f"{kind}{i}", t, {"v": rng.randrange(1000)}))
        if kind == "x":
            has_x[i] = True
        elif has_x[i]:
            exp.detections[f"r{i}"] += 1
            exp.committed[f"r{i}"] += 1
    return Instance(text, lines, [], exp)


WORKLOADS = {
    "replay_mix": replay_mix,
    "kb_join": kb_join,
}
