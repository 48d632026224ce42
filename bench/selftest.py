"""Self-tests of the replay benchmark: ``python3 bench/selftest.py``.

They check that the generators are byte-deterministic per seed, that each
generator's expected counts agree with the brute-force oracle
``algebra.occurrences`` on a tiny instance of its pattern, that the output
checks catch a corrupted report, that loading a trace in timed blocks
reads the same events as loading it whole, and that tracing leaves no wrapper behind
and does not change the report.
"""

from __future__ import annotations

import unittest
from collections import Counter

import run  # puts src/ on sys.path first
import workloads
from reactor import (
    ConsumptionPolicy, Engine, SelectionPolicy, load_trace, occurrence_sort_key,
    occurrences, parse_rules, run_replay,
)
from tracing import Tracer

# Every generator: the workloads, and rule_fanout, which the traced run's
# scaling sweeps use.
GENERATORS = {**workloads.WORKLOADS, "rule_fanout": workloads.rule_fanout}
# Tiny instances: at most 20 stimuli, except that replay_mix needs 30 for a
# third ping (and so one burst).
TINY = {
    "replay_mix": dict(n=30),
    "kb_join": dict(depts=3, n=20),
    "rule_fanout": dict(rules=3, n=20),
}


def oracle_detections(rule, history) -> int:
    """Count a rule's detections by applying its policies to the oracle.

    At each event, the candidates are the oracle's occurrences over the
    events still retained (not consumed, not expired) that end at it.
    """
    consumed: set[int] = set()
    fired = 0
    for k, e in enumerate(history):
        visible = [
            x for x in history[: k + 1]
            if x.id not in consumed
            and (rule.window is None or x.time >= e.time - rule.window)
        ]
        cands = sorted(
            (o for o in occurrences(rule.on, visible) if o.terminator_id == e.id),
            key=occurrence_sort_key,
        )
        if rule.selection is SelectionPolicy.FIRST:
            cands = cands[:1]
        elif rule.selection is SelectionPolicy.LAST:
            cands = cands[-1:]
        for o in cands:
            if rule.consumption is ConsumptionPolicy.SINGLE:
                if o.components & consumed:
                    continue
                consumed |= o.components
            fired += 1
    return fired


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name, gen in GENERATORS.items():
            a, b, c = gen(7), gen(7), gen(8)
            self.assertEqual(a.rules, b.rules, name)
            self.assertEqual(a.lines, b.lines, name)
            self.assertEqual(a.facts, b.facts, name)
            self.assertEqual(a.expected, b.expected, name)
            self.assertNotEqual(a.lines, c.lines, name)

    def test_every_workload_has_enough_stimuli_for_p99(self):
        for name, gen in workloads.WORKLOADS.items():
            self.assertGreaterEqual(gen(0).stimuli, 1000, name)

    def test_expected_counts_match_oracle_on_tiny_instances(self):
        for name, gen in GENERATORS.items():
            for seed in range(5):
                inst = gen(seed, **TINY[name])
                ruleset = parse_rules(inst.rules)
                engine = Engine(ruleset, initial_facts=inst.facts)
                history = []
                record = engine.fluents.record
                engine.fluents.record = lambda e: (history.append(e), record(e))[1]
                for ev in load_trace(inst.lines):
                    engine.ingest(ev.type.name, ev.time, ev.payload)
                found = Counter({
                    rule.id: oracle_detections(rule, history) for rule in ruleset.rules
                })
                self.assertEqual(+found, +inst.expected.detections, (name, seed))
                report = run_replay(
                    ruleset, load_trace(inst.lines), initial_facts=inst.facts
                )
                self.assertEqual(run.check_report(inst, report), [], (name, seed))


class CheckTests(unittest.TestCase):
    def setUp(self):
        self.inst = workloads.kb_join(0, depts=10, n=60)
        self.ruleset = parse_rules(self.inst.rules)

    def test_dropped_record_is_caught(self):
        report = run_replay(self.ruleset, load_trace(self.inst.lines),
                            initial_facts=self.inst.facts)
        self.assertEqual(run.check_report(self.inst, report), [])
        bad = type(report)(report.records[:-1], report.dispatched, report.facts,
                           report.fluents, report.error)
        self.assertNotEqual(run.check_report(self.inst, bad), [])

    def test_corrupted_bytes_fail_the_run(self):
        report = run_replay(self.ruleset, load_trace(self.inst.lines),
                            initial_facts=self.inst.facts)
        text = report.to_jsonl()
        r = run.Run("kb_join", 1, self.inst)
        r.account(report, text)
        r.account(report, text.replace('"committed"', '"rolled_back"', 1))
        self.assertEqual(r.failed, self.inst.stimuli)
        self.assertTrue(r.problems)

    def test_pinned_digest_is_checked(self):
        for name in workloads.WORKLOADS:
            self.assertTrue(run.check_pin(name, run.DEFAULT_SEED, "corrupt\n"))
        self.assertEqual(run.check_pin("kb_join", run.DEFAULT_SEED + 1, "x"), [])

    def test_block_load_reads_the_whole_trace(self):
        lines = workloads.replay_mix(0, n=2 * run.LOAD_BLOCK + 1).lines
        trace, times = run.timed_load(lines)
        self.assertEqual(len(times), 3)
        self.assertEqual(
            [(e.type, e.time, e.payload) for e in trace],
            [(e.type, e.time, e.payload) for e in load_trace(lines)],
        )

    def test_corrupted_replay_counts_every_stimulus_failed(self):
        real = run.run_replay

        def lossy(*args, **kwargs):
            rep = real(*args, **kwargs)
            return type(rep)(rep.records[1:], rep.dispatched, rep.facts,
                             rep.fluents, rep.error)

        run.run_replay = lossy
        try:
            r = run.Run("kb_join", 1, self.inst)
            run.measure(r, 0.0)
        finally:
            run.run_replay = real
        self.assertTrue(r.problems)
        self.assertGreaterEqual(r.failed, self.inst.stimuli)


class TracerTests(unittest.TestCase):
    def test_tracing_is_removed_and_changes_no_output(self):
        inst = workloads.kb_join(3, depts=10, n=60)
        ingest = Engine.ingest
        plain = run.untraced_job(inst)[1]
        tracer = Tracer()
        _report, traced, wall = run.traced_job(inst, tracer)
        self.assertIs(Engine.ingest, ingest)
        self.assertEqual(plain, traced)
        layers = tracer.layers()
        self.assertEqual(layers["engine.ingest_calls"], inst.stimuli)
        selfs = sum(v for k, v in layers.items() if k.endswith("_s"))
        self.assertGreater(selfs / wall, 0.9)
        self.assertLessEqual(selfs, wall)


if __name__ == "__main__":
    unittest.main()
