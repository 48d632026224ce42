"""The benchmark's seed-0 reports, checked byte for byte in the test suite.

``bench/run.py`` pins the sha256 of each workload's report at its default
seed. This replays ``kb_join(0)``, whose firings each order several
solutions, and ``replay_mix(0)`` the way the benchmark's job does, and
compares each ``to_jsonl()`` digest with that pin, and runs the
benchmark's own self-tests. It also pins the call counts that
``bench/tracing.py`` turns into per-layer metrics, and the events the engine
builds. The benchmark's files are only read: ``bench/`` goes on ``sys.path``.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import reactor.engine
from reactor import (
    Engine, EventInstance, InvalidEvent, TxnOutcome, load_trace, parse_rules, run_replay,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["kb_join", "replay_mix"])
def test_seed_zero_report_matches_benchmark_pin(workload):
    inst = workloads.WORKLOADS[workload](bench_run.DEFAULT_SEED)
    report = run_replay(
        parse_rules(inst.rules), load_trace(inst.lines), initial_facts=inst.facts
    )
    assert bench_run.check_report(inst, report) == []
    digest = hashlib.sha256(report.to_jsonl().encode()).hexdigest()
    assert digest == bench_run.PINNED_SHA256[workload]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


TRACED_RULES = """
rule fire: on a as ?x do assert(seen(?x.v))
rule chain: on assert:seen do noop
rule undo: on b do assert(q) post not fact(q)
rule both: on or(a, b) do noop
effect start initiates up
"""


def test_tracer_counts_follow_the_routes():
    # w0, w1, pong: nothing names them; start: only an effect names it
    stimuli = [
        ("a", 1, {"v": 1}), ("w0", 1, {}), ("start", 2, {}), ("b", 3, {}),
        ("pong", 3, {}), ("a", 4, {"v": 1}), ("a", 5, {"v": 2}), ("w1", 6, {}),
    ]
    lines = [json.dumps({"type": t, "time": at, "payload": p}) for t, at, p in stimuli]
    with tracing.Tracer() as tracer:
        report = run_replay(parse_rules(TRACED_RULES), load_trace(lines))
    counts = tracer.layers()
    # fire raises assert:seen for v=1 and v=2; its second v=1 changes nothing
    raised = 2
    assert counts["engine.ingest_calls"] == len(stimuli)
    # a stimulus that nothing names is checked, but never recorded
    assert counts["fluents.record_calls"] == len(stimuli) - 3 + raised
    # (event, detector) pairs: three a's to fire and both, one b to undo and
    # both, two assert:seen to chain
    assert counts["detection.feed_calls"] == 3 * 2 + 1 * 2 + raised * 1
    # every feed fires once; only undo's post fails
    assert counts["engine.txn_calls"] == 10 == len(report.records)
    committed = [r for r in report.records if r.outcome is TxnOutcome.COMMITTED]
    assert counts["engine.txn_committed"] == 9 == len(committed)
    assert sum(len(r.events) for r in report.records) == raised
    # the effect-only stimulus still opened its fluent
    assert [(iv.start, iv.end) for iv in report.fluents["up"]] == [(2, None)]


@pytest.mark.parametrize("seed", [0, 1])
def test_events_built_are_the_named_stimuli_and_the_raised(monkeypatch, seed):
    # a stimulus of a type no rule or effect names is checked, not built
    built = []

    class Counted(EventInstance):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    inst = workloads.WORKLOADS["replay_mix"](seed)
    rules, trace = parse_rules(inst.rules), load_trace(inst.lines)
    monkeypatch.setattr(reactor.engine, "EventInstance", Counted)
    report = run_replay(rules, trace, initial_facts=inst.facts)
    assert bench_run.check_report(inst, report) == []
    named = {t for r in rules.rules for t in r.type_names}
    named |= {e.type_name for e in rules.effects}
    stimuli = sum(e.type.name in named for e in trace)
    raised = sum(len(r.events) for r in report.records)
    assert len(built) == stimuli + raised
    assert stimuli < len(trace) / 4  # w0-w3, three stimuli in four, build nothing


def test_ingest_interns_no_type(monkeypatch):
    # each type a rule or an effect names is interned once, when the engine
    # is built; a stimulus then costs one type-table look-up and no interning
    inst = workloads.WORKLOADS["replay_mix"](0)
    engine = Engine(parse_rules(inst.rules), inst.facts)
    trace = load_trace(inst.lines)
    calls = []
    intern = reactor.engine.intern_type
    monkeypatch.setattr(
        reactor.engine, "intern_type", lambda name: calls.append(name) or intern(name)
    )
    for ev in trace:
        engine.ingest(ev.type.name, ev.time, ev.payload)
    assert calls == []
    # the counter is live: a name that is no str goes through it to be refused
    with pytest.raises(InvalidEvent):
        engine.ingest(3, trace[-1].time)
    assert calls == [3]
