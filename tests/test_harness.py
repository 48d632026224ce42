"""Trace loading, timer ticks, replay determinism, and the CLI."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import reactor
import reactor.harness
from reactor import (
    Engine,
    Fact,
    InvalidPeriod,
    NonFinitePayload,
    Occurrence,
    OutOfOrderEvent,
    OutOfOrderTrace,
    ReactionRecord,
    ReservedType,
    RunReport,
    TraceError,
    TxnOutcome,
    load_trace,
    parse_rules,
    run_replay,
)
from reactor.cli import main as cli_main
from reactor.model import scalar_json

import reference_report as ref
from helpers import make_event


def trace_io(*lines):
    return io.StringIO("\n".join(lines) + "\n")


class TestLoadTrace:
    def test_ids_follow_line_order(self):
        got = load_trace(trace_io(
            '{"type": "outage", "time": 1}',
            '{"type": "outage", "time": 2, "payload": {"host": "w1"}}',
        ))
        assert [(e.id, e.type.name, e.time) for e in got] == [
            (1, "outage", 1), (2, "outage", 2),
        ]
        assert got[1].payload == {"host": "w1"}
        assert got[0].type is got[1].type  # one interned type per name

    def test_blank_lines_skipped_but_numbering_kept(self):
        got = load_trace(trace_io('{"type": "a", "time": 1}', "", '{"type": "b", "time": 2}'))
        assert len(got) == 2

    def test_time_regression(self):
        with pytest.raises(OutOfOrderTrace) as ei:
            load_trace(trace_io('{"type": "a", "time": 5}', '{"type": "a", "time": 3}'))
        assert ei.value.line == 2

    def test_reserved_types(self):
        for bad in ("assert:p", "retract:p", "timer"):
            with pytest.raises(ReservedType) as ei:
                load_trace(trace_io(json.dumps({"type": bad, "time": 0})))
            assert ei.value.line == 1

    def test_malformed_json(self):
        with pytest.raises(TraceError) as ei:
            load_trace(trace_io('{"type": "a", "time": 1}', "not json"))
        assert ei.value.line == 2

    def test_shape_errors(self):
        bad_lines = [
            "[1, 2]",                                 # not an object
            '{"time": 1}',                            # missing type
            '{"type": "a"}',                          # missing time
            '{"type": "", "time": 1}',                # empty type
            '{"type": "a", "time": -1}',              # negative time
            '{"type": "a", "time": true}',            # boolean time
            '{"type": "a", "time": 1, "payload": 3}', # payload not object
            '{"type": "a", "time": 1, "payload": {"x": [1]}}',  # non-scalar
            '{"type": "a", "time": 1, "extra": 1}',   # unknown field
        ]
        for line in bad_lines:
            with pytest.raises(TraceError):
                load_trace(trace_io(line))

    def test_non_finite_payload_rejected(self):
        for value in ("NaN", "Infinity", "-Infinity", "1e999"):
            with pytest.raises(TraceError) as ei:
                load_trace(trace_io(
                    '{"type": "a", "time": 1, "payload": {"v": 1.5}}',
                    '{"type": "a", "time": 2, "payload": {"v": %s}}' % value,
                ))
            assert ei.value.line == 2
            assert "finite" in str(ei.value)

    def test_underflowing_number_rejected(self):
        # a nonzero number below the smallest float used to load as 0.0
        for value in ("1e-400", "-2.5E-999", "0.%s1" % ("0" * 400)):
            with pytest.raises(TraceError) as ei:
                load_trace(trace_io(
                    '{"type": "a", "time": 1}',
                    '{"type": "a", "time": 2, "payload": {"v": %s}}' % value,
                ))
            assert ei.value.line == 2
            assert "out of range" in str(ei.value)
        # zeros and the smallest floats still load
        values = ["0.0", "-0.0", "0e-400", "0.000E5", "5e-324", "1e-310"]
        got = load_trace(trace_io(*[
            '{"type": "a", "time": 1, "payload": {"v": %s}}' % v for v in values
        ]))
        assert [e.payload["v"] for e in got] == [float(v) for v in values]
        assert got[2].payload["v"] == 0.0 and got[4].payload["v"] > 0.0

    def test_overlong_integer_rejected(self):
        # json.loads refuses an integer longer than int() accepts with a
        # plain ValueError, in the time and in a payload alike
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        for line in (
            '{"type": "a", "time": %s}' % digits,
            '{"type": "a", "time": 2, "payload": {"v": -%s}}' % digits,
        ):
            with pytest.raises(TraceError) as ei:
                load_trace(trace_io('{"type": "a", "time": 1}', line))
            assert ei.value.line == 2
            assert "invalid JSON" in str(ei.value)

    def test_non_utf8_file_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"type": "a", "time": 1}\n\xff\xfe\n')
        with pytest.raises(TraceError) as ei:
            load_trace(str(path))
        assert ei.value.line == 2

    def test_file_newlines_read_as_text_mode_would(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(
            b'{"type": "a", "time": 1}\r\n{"type": "b", "time": 2}\r'
            b'{"type": "c", "time": 3, "payload": {"s": "\xe2\x80\xa8"}}\n'
        )
        got = load_trace(str(path))
        assert [e.type.name for e in got] == ["a", "b", "c"]
        assert got[2].payload == {"s": "\u2028"}

    def test_null_payload_treated_as_empty(self):
        (e,) = load_trace(trace_io('{"type": "a", "time": 1, "payload": null}'))
        assert e.payload == {}

    def test_path_like_source_is_a_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "a", "time": 1}\n{"type": "b", "time": 2}\n')
        got = load_trace(path)
        assert got == load_trace(str(path))
        assert [(e.id, e.type.name, e.time) for e in got] == [(1, "a", 1), (2, "b", 2)]
        path.write_bytes(b"\n\xff\n")
        with pytest.raises(TraceError) as ei:
            load_trace(path)  # read as bytes and decoded, as a str path is
        assert ei.value.line == 2

    @pytest.mark.parametrize("line", [b'{"type": "a", "time": 2}\n', b"\n", b"", 5, None], ids=repr)
    def test_line_that_is_no_str_refused(self, line):
        with pytest.raises(TraceError) as ei:
            load_trace(['{"type": "a", "time": 1}\n', line])
        assert type(ei.value) is TraceError and ei.value.line == 2
        assert str(ei.value) == f"line is {type(line).__name__}, not str (trace line 2)"

    def test_file_opened_as_bytes_refused(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "a", "time": 1}\n')
        with open(path, "rb") as fh, pytest.raises(TraceError) as ei:
            load_trace(fh)
        assert str(ei.value) == "line is bytes, not str (trace line 1)"


# each rule binds the event it fires on, so the records list the dispatch order
SEEN = parse_rules(
    "rule t: on timer as ?e do noop\n"
    "rule s: on a as ?e do noop\n"
    "rule u: on b as ?e do noop\n"
)


def dispatch_order(trace, tick):
    report = run_replay(SEEN, trace, tick=tick)
    return [(r.bindings["e"].type.name, r.bindings["e"].time) for r in report.records]


class TestTicks:
    def test_period_divides_span(self):
        trace = [make_event("a", 10, id=1)]
        assert dispatch_order(trace, 5) == [("timer", 5), ("a", 10), ("timer", 10)]

    def test_span_shorter_than_period(self):
        trace = [make_event("a", 4, id=1)]
        assert dispatch_order(trace, 5) == [("a", 4)]

    def test_ticks_follow_stimuli_at_equal_times(self):
        trace = [make_event("a", 5, id=1), make_event("b", 5, id=2)]
        assert dispatch_order(trace, 5) == [("a", 5), ("b", 5), ("timer", 5)]

    def test_interleaving(self):
        trace = [make_event("a", 1, id=1), make_event("b", 7, id=2)]
        assert dispatch_order(trace, 3) == [
            ("a", 1), ("timer", 3), ("timer", 6), ("b", 7),
        ]

    def test_trace_order_is_kept(self):
        # a trace out of time order is not sorted: the tick at 3 and b at 5
        # go in, then the engine refuses a at 1
        trace = [make_event("b", 5, id=1), make_event("a", 1, id=2)]
        with pytest.raises(OutOfOrderEvent, match=r"^event a@1#3 precedes watermark 5$"):
            run_replay(SEEN, trace, tick=3)

    def test_tick_type(self):
        report = run_replay(
            parse_rules("rule r: on timer as ?t do noop"), [make_event("a", 5, id=1)], tick=5
        )
        (record,) = report.records
        e = record.bindings["t"]
        assert e.type.name == "timer" and e.payload == {} and (e.id, e.time) == (2, 5)
        assert '"t":{"id":2,"payload":{},"time":5,"type":"timer"}' in report.to_jsonl()

    @pytest.mark.parametrize(
        "period, text", [(0, "0"), (-2, "-2"), (1.5, "1.5"), ("2", "'2'"), (True, "True")]
    )
    def test_bad_period(self, period, text):
        rules = parse_rules("rule r: on a do noop")
        trace = [make_event("a", 3, None, id=1)]
        with pytest.raises(InvalidPeriod) as ei:
            run_replay(rules, trace, tick=period)
        assert str(ei.value) == f"tick period must be an integer >= 1, got {text}"

    def test_tick_memory_is_flat_in_the_horizon(self):
        """Two stimuli, at 1 and at n, with a tick every time unit: the
        peak traced memory is the same at n and at 4n, as each tick is
        ingested when the trace reaches it and none is built ahead."""
        rules = parse_rules("rule r: on a do noop")

        def peak(n):
            trace = [make_event("a", 1, id=1), make_event("a", n, id=2)]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                report = run_replay(rules, trace, tick=1)
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.dispatched == n + 2 and report.error is None
            return top - base

        # a listed tick costs about 200 bytes: some 6 MB more at 40k
        small, large = peak(10_000), peak(40_000)
        assert abs(large - small) < 262_144, (small, large)


CASCADE_RULES = (
    "rule close_dept: on dept_closed as ?c do retract(dept(?c.name))\n"
    "rule cascade: on retract:dept as ?d where fact(emp, ?n, ?d.arg0)\n"
    "  do retract(emp(?n, ?d.arg0))\n"
)

CASCADE_FACTS = [
    Fact("dept", ("sales",)),
    Fact("emp", ("ann", "sales")),
    Fact("emp", ("bob", "sales")),
]


class TestRunReplay:
    def test_empty_trace(self):
        report = run_replay(parse_rules("rule r: on a do noop"), [])
        assert report.records == () and report.dispatched == 0
        assert report.facts == () and report.error is None

    def test_outage_scenario_single_alert(self):
        rules = parse_rules(
            "rule watch: on times(4, outage) do emit(alert, {})\n"
        )
        trace = load_trace(trace_io(*[
            json.dumps({"type": "outage", "time": t}) for t in range(1, 5)
        ]))
        report = run_replay(rules, trace)
        alerts = [
            e for r in report.records for e in r.events if e.type.name == "alert"
        ]
        assert len(alerts) == 1

    def test_cascade_removes_facts(self):
        rules = parse_rules(CASCADE_RULES)
        trace = load_trace(trace_io('{"type": "dept_closed", "time": 4, "payload": {"name": "sales"}}'))
        report = run_replay(rules, trace, initial_facts=CASCADE_FACTS)
        assert report.facts == ()
        assert [r.rule_id for r in report.records] == ["close_dept", "cascade", "cascade"]

    def test_determinism_bytes(self):
        rules = parse_rules(CASCADE_RULES)
        trace = load_trace(trace_io('{"type": "dept_closed", "time": 4, "payload": {"name": "sales"}}'))
        a = run_replay(rules, trace, initial_facts=CASCADE_FACTS).to_jsonl()
        b = run_replay(rules, trace, initial_facts=CASCADE_FACTS).to_jsonl()
        assert a.encode() == b.encode()

    def test_chain_abort_reported_not_raised(self):
        rules = parse_rules(
            "rule r1: on a do assert(p)\n"
            "rule r2: on assert:p do retract(p), emit(a, {})\n"
        )
        trace = load_trace(trace_io('{"type": "a", "time": 1}'))
        report = run_replay(rules, trace, chain_limit=7)
        assert report.error is not None
        assert len(report.records) == 8  # depths 0..7 committed before abort
        summary = json.loads(report.to_jsonl().splitlines()[-1])["summary"]
        assert summary["error"] == report.error

    def test_report_refuses_non_finite_numbers(self):
        # the engine refuses such facts, so build the report by hand
        report = RunReport((), 0, (Fact("p", (float("inf"),)),), {})
        with pytest.raises(ValueError):
            report.to_jsonl()

    def test_report_kb_matches_journal_replay(self):
        rules = parse_rules(CASCADE_RULES)
        eng = Engine(rules, initial_facts=CASCADE_FACTS)
        eng.ingest("dept_closed", 4, {"name": "sales"})
        assert eng.kb.replay_journal() == eng.kb.snapshot()

    @pytest.mark.parametrize("tick", [None, 10, 2])
    def test_unsorted_trace_refused_with_or_without_ticks(self, tick):
        # with ticks, the trace used to be sorted: seq(a, b) fired over [1, 5]
        rules = parse_rules("rule r: on seq(a, b) do assert(p)")
        trace = [make_event("b", 5, id=1), make_event("a", 1, id=2)]
        with pytest.raises(OutOfOrderEvent):
            run_replay(rules, trace, tick=tick)

    def test_ticks_drive_timer_rules(self):
        rules = parse_rules(
            "effect start_shift initiates on_duty\n"
            "effect end_shift terminates on_duty\n"
            "rule audit: on timer where holds(on_duty) do assert(audited)\n"
        )
        trace = load_trace(trace_io(
            '{"type": "start_shift", "time": 1}',
            '{"type": "end_shift", "time": 5}',
        ))
        report = run_replay(rules, trace, tick=2)
        assert report.dispatched == 4  # 2 stimuli + ticks at 2 and 4
        assert Fact("audited") in report.facts
        assert report.fluents["on_duty"][0].start == 1
        assert report.fluents["on_duty"][0].end == 5

    @pytest.mark.parametrize("tick", [None, 2])
    def test_trace_may_be_any_iterable(self, tick):
        # the trace is read once, as given, with or without ticks
        rules = parse_rules(
            "effect start_shift initiates on_duty\n"
            "rule audit: on timer where holds(on_duty) do assert(audited)\n"
            "rule seen: on a as ?a do assert(seen(?a.v))\n"
        )
        trace = [make_event("start_shift", 1, id=1)]
        trace += [make_event("a", t, {"v": t}, id=t) for t in (3, 5)]
        want = run_replay(rules, trace, tick=tick).to_jsonl()
        assert run_replay(rules, iter(trace), tick=tick).to_jsonl() == want
        assert run_replay(rules, (e for e in trace), tick=tick).to_jsonl() == want

    def test_jsonl_shape(self):
        rules = parse_rules(CASCADE_RULES)
        trace = load_trace(trace_io('{"type": "dept_closed", "time": 4, "payload": {"name": "sales"}}'))
        text = run_replay(rules, trace, initial_facts=CASCADE_FACTS).to_jsonl()
        lines = text.splitlines()
        assert len(lines) == 4  # 3 records + summary
        first = json.loads(lines[0])
        assert first["rule"] == "close_dept"
        assert first["outcome"] == "committed"
        assert first["interval"] == [4, 4]
        assert first["raised"][0]["type"] == "retract:dept"
        assert json.loads(lines[-1])["summary"]["records"] == 3

    def test_non_finite_payload_is_a_reactor_error(self):
        # make_event takes any float; the engine refuses it before the
        # report could fail to serialise it
        rules = parse_rules("rule r: on a as ?x do assert(seen(?x.v))")
        with pytest.raises(NonFinitePayload):
            run_replay(rules, [make_event("a", 1, {"v": float("inf")}, id=1)])


    def test_non_finite_initial_fact_is_a_reactor_error(self):
        rules = parse_rules("rule r: on a do noop")
        with pytest.raises(NonFinitePayload):
            run_replay(rules, [], initial_facts=[Fact("x", (float("nan"),))])


def binding_record(rule_id, bindings, occ_event):
    occ = Occurrence({}, frozenset({occ_event.id}), occ_event.time, occ_event.time,
                     occ_event.id, occ_event.id)
    return ReactionRecord(rule_id, occ, bindings, TxnOutcome.COMMITTED, (), 0)


class TestReportWriter:
    """``to_jsonl`` encodes each str name once per report and writes every
    value as scalar_json does, and every name that is no str as name_json
    does."""

    def test_equal_values_of_other_types_keep_their_own_text(self):
        # 1, True and 1.0 are one dict key: a text cached by value would
        # write the first one's for all; so would a cache of names that are
        # no str, as a rule id or a binding name can be in a record built
        # directly
        e = make_event("a", 1, id=1)
        values = [1, True, 1.0, "1", 1, True]
        rules = [1, True, 1.0, "1", "r", "r"]
        records = tuple(
            binding_record(rule, {"n": v, "e": make_event("a", 1, {"v": v}, id=i)}, e)
            for i, (rule, v) in enumerate(zip(rules, values), 1)
        ) + tuple(binding_record("r", {k: "x"}, e) for k in [1, True, 1.0, "1"])
        lines = RunReport(records, len(records), (), {}).to_jsonl().splitlines()[:-1]
        texts = ["1", "true", "1.0", '"1"', "1", "true"]
        for line, text, rule in zip(lines, texts, map(scalar_json, rules)):
            assert f'"n":{text}' in line and f'"payload":{{"v":{text}}}' in line
            assert line.endswith(f'"rule":{rule}}}')
        # a binding name that is no str is quoted, as json.dumps writes a key
        for line, name in zip(lines[6:], ['"1"', '"true"', '"1.0"', '"1"']):
            assert line.startswith(f'{{"bindings":{{{name}:"x"}},')

    def test_records_of_one_occurrence_match_the_reference(self):
        # adjacent records share an occurrence and its event; the texts kept
        # for the last ones must not leak into a record of another
        hits = make_event("hit", 1, {"d": "x"}, id=1), make_event("hit", 2, {"d": "y"}, id=7)
        one, two = (Occurrence({"h": h}, frozenset({h.id, 9}), h.time, 5, h.id, 9)
                    for h in hits)
        records = tuple(
            ReactionRecord("join", occ, {"h": occ.bindings["h"], "n": n},
                           TxnOutcome.COMMITTED, (make_event("out", 5, {"n": n}, id=i),), 0)
            for i, (occ, n) in enumerate([(one, "a"), (one, "b"), (two, "a"), (one, 1)], 10)
        )
        lines = RunReport(records, 4, (), {}).to_jsonl().splitlines()[:-1]
        assert lines == [ref._canon(ref._record_json(r)) for r in records]

    @pytest.mark.parametrize(
        "rule_id",
        [1, True, False, None, 1.0, -0.0, 2**70, float("nan"), float("inf"),
         [1], (1,), b"x", {"r": 1}, object()],
        ids=repr,
    )
    def test_rule_id_that_is_no_str_writes_as_scalar_json(self, rule_id):
        e = make_event("a", 1, id=1)
        report = RunReport((binding_record(rule_id, {}, e),), 1, (), {})
        try:
            text = scalar_json(rule_id)
        except ValueError:
            with pytest.raises(ValueError):
                report.to_jsonl()
        else:
            assert report.to_jsonl().splitlines()[0].endswith(f'"rule":{text}}}')

    @pytest.mark.parametrize("outcome", ["committed", "rolled_back", None, 1])
    def test_outcome_that_is_no_txn_outcome_is_refused(self, outcome):
        e = make_event("a", 1, id=1)
        rec = binding_record("r", {}, e)
        bad = ReactionRecord("r", rec.occurrence, {}, outcome, (), 0)
        with pytest.raises(KeyError):
            RunReport((rec, bad), 2, (), {}).to_jsonl()

    def test_each_report_encodes_each_name_once(self, monkeypatch):
        # a second report, written after the first, finds none of its texts
        encoded = []

        def counting(value):
            encoded.append(value)
            return scalar_json(value)

        monkeypatch.setattr(reactor.harness, "scalar_json", counting)
        e = make_event("hit", 1, {"d": "x"}, id=1)
        records = tuple(
            binding_record("join", {"h": make_event("hit", 1, {"d": v}, id=i), "n": v}, e)
            for i, v in enumerate(["p", "q", "p"], 1)
        )
        report = RunReport(records, 3, (), {})
        texts, names = [], []
        for _ in range(2):
            encoded.clear()
            texts.append(report.to_jsonl())
            names.append(sorted(v for v in encoded if v in ("join", "h", "n", "d", "hit")))
        assert texts[0] == texts[1]
        assert names[0] == names[1] == ["d", "h", "hit", "join", "n"]


class TestCli:
    def write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_run_roundtrip(self, tmp_path, capsys):
        rules = self.write(tmp_path, "r.rr", "rule w: on times(2, outage) do emit(alert, {})\n")
        trace = self.write(
            tmp_path, "t.jsonl",
            '{"type": "outage", "time": 1}\n{"type": "outage", "time": 2}\n',
        )
        code = cli_main(["run", "--rules", rules, "--trace", trace])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out.splitlines()[-1])["summary"]["records"] == 1

    def test_run_report_file(self, tmp_path, capsys):
        rules = self.write(tmp_path, "r.rr", "rule w: on a do assert(p)\n")
        trace = self.write(tmp_path, "t.jsonl", '{"type": "a", "time": 1}\n')
        report = tmp_path / "out.jsonl"
        code = cli_main(["run", "--rules", rules, "--trace", trace, "--report", str(report)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(report.read_text().splitlines()[-1])["summary"]["records"] == 1

    def test_run_tick_writes_the_replay_report(self, tmp_path, capsys):
        text = (
            "effect start_shift initiates on_duty\n"
            "rule audit: on timer as ?t where holds(on_duty) do assert(audited)\n"
        )
        rules = self.write(tmp_path, "r.rr", text)
        lines = '{"type": "start_shift", "time": 1}\n{"type": "a", "time": 5}\n'
        trace = self.write(tmp_path, "t.jsonl", lines)
        code = cli_main(["run", "--rules", rules, "--trace", trace, "--tick", "2"])
        want = run_replay(parse_rules(text), load_trace(trace_io(lines)), tick=2).to_jsonl()
        assert code == 0
        assert capsys.readouterr().out == want
        assert want.count('"type":"timer"') == 2  # the ticks at 2 and 4

    def test_run_tick_zero_refused(self, tmp_path, capsys):
        rules = self.write(tmp_path, "r.rr", "rule r: on timer do noop\n")
        trace = self.write(tmp_path, "t.jsonl", '{"type": "a", "time": 1}\n')
        report = tmp_path / "out.jsonl"
        code = cli_main([
            "run", "--rules", rules, "--trace", trace, "--tick", "0", "--report", str(report),
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: tick period must be an integer >= 1, got 0\n"
        assert not report.exists()

    def test_run_chain_abort_exit_code(self, tmp_path, capsys):
        rules = self.write(
            tmp_path, "r.rr",
            "rule r1: on a do assert(p)\nrule r2: on assert:p do retract(p), emit(a, {})\n",
        )
        trace = self.write(tmp_path, "t.jsonl", '{"type": "a", "time": 1}\n')
        code = cli_main(["run", "--rules", rules, "--trace", trace, "--chain-limit", "5"])
        assert code == 3
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]["error"]

    def test_check_acyclic(self, tmp_path, capsys):
        rules = self.write(tmp_path, "r.rr", CASCADE_RULES)
        code = cli_main(["check", "--rules", rules])
        got = json.loads(capsys.readouterr().out)
        assert code == 0
        assert got == {
            "rules": ["close_dept", "cascade"],
            "edges": [["close_dept", "cascade"]],
            "cycles": [],
            "acyclic": True,
        }

    def test_check_cycle_exit_code(self, tmp_path, capsys):
        rules = self.write(
            tmp_path, "r.rr",
            "rule r1: on a do assert(p)\nrule r2: on assert:p do emit(a, {})\n",
        )
        code = cli_main(["check", "--rules", rules])
        got = json.loads(capsys.readouterr().out)
        assert code == 1
        assert got["cycles"] == [["r1", "r2"]]

    def test_oracle_lists_occurrences(self, tmp_path, capsys):
        trace = self.write(
            tmp_path, "t.jsonl",
            '{"type": "a", "time": 1}\n{"type": "b", "time": 3}\n',
        )
        code = cli_main(["oracle", "--expr", "seq(a as ?x, b as ?y)", "--trace", trace])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out.splitlines()[0]) == {
            "interval": [1, 3], "events": [1, 2], "bindings": {"x": 1, "y": 2},
        }

    def test_bad_inputs_exit_2(self, tmp_path, capsys):
        rules = self.write(tmp_path, "r.rr", "rule broken on")
        trace = self.write(tmp_path, "t.jsonl", '{"type": "a", "time": 1}\n')
        assert cli_main(["run", "--rules", rules, "--trace", trace]) == 2
        assert cli_main(["run", "--rules", str(tmp_path / "missing.rr"), "--trace", trace]) == 2
        ok_rules = self.write(tmp_path, "ok.rr", "rule r: on a do noop\n")
        bad_trace = self.write(tmp_path, "bad.jsonl", '{"type": "assert:p", "time": 1}\n')
        assert cli_main(["run", "--rules", ok_rules, "--trace", bad_trace]) == 2
        assert cli_main(["oracle", "--expr", "seq(a,", "--trace", trace]) == 2
        capsys.readouterr()

    def test_unreadable_trace_or_report_exit_2(self, tmp_path, capsys):
        rules = self.write(tmp_path, "r.rr", "rule r: on a do noop\n")
        trace = self.write(tmp_path, "t.jsonl", '{"type": "a", "time": 1}\n')
        missing = str(tmp_path / "missing.jsonl")
        unwritable = str(tmp_path / "no-such-dir" / "out.jsonl")
        for args in (
            ["run", "--rules", rules, "--trace", missing],
            ["run", "--rules", rules, "--trace", trace, "--report", unwritable],
        ):
            assert cli_main(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    def test_usage_error_exit_2(self, capsys):
        assert cli_main(["run"]) == 2
        capsys.readouterr()

    def test_chain_limit_below_one_is_usage_error(self, tmp_path, capsys):
        rules = self.write(tmp_path, "r.rr", "rule r: on a do noop\n")
        trace = self.write(tmp_path, "t.jsonl", '{"type": "a", "time": 1}\n')
        for bad in ("0", "-3", "x"):
            args = ["run", "--rules", rules, "--trace", trace, "--chain-limit", bad]
            assert cli_main(args) == 2
            assert "--chain-limit" in capsys.readouterr().err

    def test_non_utf8_inputs_exit_2(self, tmp_path, capsys):
        rules = self.write(tmp_path, "r.rr", "rule r: on a do noop\n")
        trace = self.write(tmp_path, "t.jsonl", '{"type": "a", "time": 1}\n')
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe")
        assert cli_main(["run", "--rules", rules, "--trace", str(bad)]) == 2
        assert "trace line 1" in capsys.readouterr().err
        assert cli_main(["oracle", "--expr", "a", "--trace", str(bad)]) == 2
        assert cli_main(["run", "--rules", str(bad), "--trace", trace]) == 2
        assert cli_main(["check", "--rules", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("kind", ["non-utf8", "truncated", "missing", "directory"])
    @pytest.mark.parametrize(
        "argv, slot",
        [
            (["run", "--rules", "{rules}", "--trace", "{trace}", "--report", "{report}"], "rules"),
            (["run", "--rules", "{rules}", "--trace", "{trace}", "--report", "{report}"], "trace"),
            (["check", "--rules", "{rules}"], "rules"),
            (["oracle", "--expr", "seq(a, b)", "--trace", "{trace}"], "trace"),
        ],
        ids=["run-rules", "run-trace", "check-rules", "oracle-trace"],
    )
    def test_bad_input_file_exit_2(self, tmp_path, capsys, argv, slot, kind):
        paths = {
            "rules": self.write(tmp_path, "r.rr", "rule r: on a do assert(p)\n"),
            "trace": self.write(tmp_path, "t.jsonl", '{"type": "a", "time": 1}\n'),
            "report": str(tmp_path / "out.jsonl"),
        }
        good = Path(paths[slot]).read_bytes()
        bad = tmp_path / "bad"
        if kind == "non-utf8":
            bad.write_bytes(good + b"\xff\xfe\n")
        elif kind == "truncated":  # cut inside its last line
            bad.write_bytes(good + good[: len(good) // 2])
        elif kind == "directory":
            bad.mkdir()
        paths[slot] = str(bad)
        code = cli_main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out.jsonl").exists()

    def test_non_finite_payload_exit_2(self, tmp_path, capsys):
        rules = self.write(tmp_path, "r.rr", "rule r: on a as ?x do assert(seen(?x.v))\n")
        trace = self.write(tmp_path, "t.jsonl", '{"type": "a", "time": 1, "payload": {"v": NaN}}\n')
        assert cli_main(["run", "--rules", rules, "--trace", trace]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    def test_deeply_nested_trace_line_exit_2(self, tmp_path, capsys):
        rules = self.write(tmp_path, "r.rr", "rule r: on a do noop\n")
        deep_payload = '{"type": "a", "time": 1, "payload": {"v": %s1%s}}\n' % (
            '{"k": ' * 50000, "}" * 50000,
        )
        for i, line in enumerate(["[" * 100000 + "\n", deep_payload]):
            trace = self.write(tmp_path, f"deep{i}.jsonl", line)
            assert cli_main(["run", "--rules", rules, "--trace", trace]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: invalid JSON: maximum recursion")
            assert captured.err.endswith("(trace line 1)\n")

    def test_overlong_trace_integer_exit_2(self, tmp_path, capsys):
        rules = self.write(tmp_path, "r.rr", "rule r: on a do noop\n")
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        trace = self.write(tmp_path, "t.jsonl", '{"type": "a", "time": %s}\n' % digits)
        for args in (["run", "--rules", rules], ["oracle", "--expr", "a"]):
            assert cli_main([*args, "--trace", trace]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and "trace line 1" in captured.err
            assert "Traceback" not in captured.err and captured.out == ""

    def test_console_script_subprocess(self, tmp_path):
        rules = self.write(tmp_path, "r.rr", "rule r: on a do assert(p)\n")
        trace = self.write(tmp_path, "t.jsonl", '{"type": "a", "time": 1}\n')
        # the child finds the package this test imported, also when pytest
        # put src/ on the path itself and PYTHONPATH is unset
        src = str(Path(reactor.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "reactor.cli", "run", "--rules", rules, "--trace", trace],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert '"summary"' in proc.stdout.splitlines()[-1]
