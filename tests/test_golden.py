"""Golden report digests: replays whose bytes must never change.

Each test pins the sha256 of ``run_replay(...).to_jsonl()``. A refactor
that keeps behaviour keeps these digests; a deliberate change to the report
format or to the engine's semantics must re-record them and say why.
"""

import hashlib
import json

from reactor import parse_rules, run_replay

from helpers import make_event
from test_acceptance import REPLAY_RULES, big_trace

# Loads the report paths no benchmark workload reaches: a postcondition
# rollback, a retract, a chained assert, a fluent, a MissingField audit
# record and a chain-limit abort with its partial report. `span` and `quiet`
# add composite occurrences wider than a point; `tie` must not fire on
# events at the same instant.
SCENARIO_RULES = """
effect start initiates active
effect stop terminates active
rule guard: on go as ?g do assert(p(?g.n)) post fact(q)
rule open: on start as ?s where holds(active) do assert(item(?s.k, 1.5))
rule chain: on assert:item as ?i do assert(done(?i.arg0))
rule drop: on stop as ?s do retract(item(?s.k, 1.5))
rule miss: on probe as ?p where ?p.missing = 1 do noop
rule span: on seq(probe, and(go, start as ?s)) do noop
rule quiet: on not(probe, start, stop) do noop
rule tie: on seq(stop, probe) do noop
rule loop1: on ping as ?x do emit(pong, {v: ?x.v})
rule loop2: on pong as ?y do emit(ping, {v: ?y.v})
"""

SCENARIO_TRACE = [
    ("start", 1, {"k": "a"}),
    ("probe", 2, {}),
    ("go", 3, {"n": 1}),
    ("start", 4, {"k": "b"}),
    ("stop", 5, {"k": "a"}),
    ("probe", 5, {}),
    ("ping", 6, {"v": True}),
    ("start", 7, {"k": "never"}),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scenario_report() -> str:
    trace = [
        make_event(t, time, payload, id=i)
        for i, (t, time, payload) in enumerate(SCENARIO_TRACE, start=1)
    ]
    return run_replay(parse_rules(SCENARIO_RULES), trace, chain_limit=5).to_jsonl()


def test_acceptance_replay_digest():
    report = run_replay(parse_rules(REPLAY_RULES), big_trace()).to_jsonl()
    assert sha256(report) == (
        "c30aed87d382786eee017b479078de72de8d09a242fcb2308c5aca1c55b49b5f"
    )


def test_scenario_loads_every_path():
    lines = [json.loads(line) for line in scenario_report().splitlines()]
    records, summary = lines[:-1], lines[-1]["summary"]
    by_rule = {}
    for r in records:
        by_rule.setdefault(r["rule"], []).append(r)
    assert [r["outcome"] for r in by_rule["guard"]] == ["rolled_back"]
    assert by_rule["miss"][0]["error"] is not None
    assert {r["depth"] for r in by_rule["chain"]} == {1}
    assert [r["raised"][0]["type"] for r in by_rule["drop"]] == ["retract:item"]
    assert [r["interval"] for r in by_rule["span"]] == [[2, 4]]
    assert [r["interval"] for r in by_rule["quiet"]] == [[4, 5]]
    assert "tie" not in by_rule
    assert summary["fluents"] == {"active": [[1, 5]]}
    assert summary["error"] is not None and "chain depth" in summary["error"]
    assert summary["dispatched"] == 7  # the abort stops the replay


def test_scenario_digest():
    assert sha256(scenario_report()) == (
        "8716d7a0372758e57c6f44e279d72dcf13b30a3270a3a4e6ca536c51ded4ca91"
    )
