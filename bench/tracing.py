"""In-memory spans around the calls into each layer of ``reactor``.

``Tracer.install`` replaces the engine's entry points with timing wrappers
and ``Tracer.remove`` puts the originals back, so untraced runs pay
nothing. Calls that are few per stimulus (load, replay, ``Engine.ingest``,
the engine's transaction ``_run_actions``, report) get a span each; calls
that can number millions per run (``Detector.feed``, ``FluentHistory.record``,
condition evaluation, ``KnowledgeBase.commit``) are folded into count and
time totals on whichever span is open when they run.
"""

from __future__ import annotations

import json
from time import perf_counter

import reactor.detection
import reactor.engine
import reactor.fluents
import reactor.rules


class Span:
    """One call into a layer, with the folded totals of its hot children."""

    __slots__ = (
        "name", "index", "start", "end", "parent", "stim", "child_s",
        "feed_n", "feed_s", "feed_hits", "rec_n", "rec_s",
        "cond_n", "cond_s", "cond_sols", "commit_n", "commit_s", "committed",
    )

    def __init__(self, name: str, index: int, parent: int, stim: int):
        self.name = name
        self.index = index
        self.parent = parent
        self.stim = stim
        self.start = self.end = self.child_s = 0.0
        self.feed_n = self.feed_hits = self.rec_n = 0
        self.cond_n = self.cond_sols = self.commit_n = 0
        self.feed_s = self.rec_s = self.cond_s = self.commit_s = 0.0
        self.committed = False

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.stim = 0
        self.engine = None  # the last engine that ingested, for gauges
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].index if self._stack else -1
        sp = Span(name, len(self.spans), parent, self.stim)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = perf_counter()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += sp.end - sp.start

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        sp = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sp)

    # ---------------------------------------------------------- wrappers

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        tracer = self
        stack = self._stack
        ingest = reactor.engine.Engine.ingest
        run_actions = reactor.engine._run_actions
        evaluate = reactor.engine.evaluate_condition
        feed = reactor.detection.Detector.feed
        record = reactor.fluents.FluentHistory.record
        commit = reactor.rules.KnowledgeBase.commit
        clock = perf_counter

        def traced_ingest(engine, type_name, time, payload=None):
            tracer.stim += 1
            tracer.engine = engine
            return tracer.call("engine.ingest", ingest, engine, type_name, time, payload)

        def traced_run_actions(*args):
            sp = tracer._open("engine.txn")
            try:
                result = run_actions(*args)
                sp.committed = result[0] is reactor.engine.TxnOutcome.COMMITTED
                return result
            finally:
                tracer._close(sp)

        def traced_evaluate(*args):
            t0 = clock()
            sols = evaluate(*args)
            dt = clock() - t0
            sp = stack[-1]
            sp.cond_n += 1
            sp.cond_s += dt
            sp.cond_sols += len(sols)
            sp.child_s += dt
            return sols

        def traced_feed(det, e):
            t0 = clock()
            out = feed(det, e)
            dt = clock() - t0
            sp = stack[-1]
            sp.feed_n += 1
            sp.feed_s += dt
            sp.child_s += dt
            if out:
                sp.feed_hits += 1
            return out

        def traced_record(hist, e):
            t0 = clock()
            out = record(hist, e)
            dt = clock() - t0
            sp = stack[-1]
            sp.rec_n += 1
            sp.rec_s += dt
            sp.child_s += dt
            return out

        def traced_commit(kb, ops):
            t0 = clock()
            commit(kb, ops)
            dt = clock() - t0
            sp = stack[-1]
            sp.commit_n += 1
            sp.commit_s += dt
            sp.child_s += dt

        self._patch(reactor.engine.Engine, "ingest", traced_ingest)
        self._patch(reactor.engine, "_run_actions", traced_run_actions)
        self._patch(reactor.engine, "evaluate_condition", traced_evaluate)
        self._patch(reactor.detection.Detector, "feed", traced_feed)
        self._patch(reactor.fluents.FluentHistory, "record", traced_record)
        self._patch(reactor.rules.KnowledgeBase, "commit", traced_commit)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # ----------------------------------------------------------- results

    def layers(self) -> dict[str, float]:
        """Self seconds and counts per layer, summed over every span."""
        out = {
            "parser.parse_s": 0.0, "harness.load_s": 0.0,
            "harness.replay_self_s": 0.0, "harness.report_s": 0.0,
            "engine.route_self_s": 0.0, "engine.txn_self_s": 0.0,
            "detection.feed_s": 0.0, "rules.cond_s": 0.0,
            "rules.commit_s": 0.0, "fluents.record_s": 0.0,
            "engine.ingest_calls": 0, "engine.txn_calls": 0,
            "engine.txn_committed": 0, "detection.feed_calls": 0,
            "detection.feed_hits": 0, "rules.cond_calls": 0,
            "rules.cond_solutions": 0, "fluents.record_calls": 0,
        }
        self_key = {
            "parser.parse": "parser.parse_s", "harness.load": "harness.load_s",
            "harness.replay": "harness.replay_self_s",
            "harness.report": "harness.report_s",
            "engine.ingest": "engine.route_self_s",
            "engine.txn": "engine.txn_self_s",
        }
        for sp in self.spans:
            out[self_key[sp.name]] += sp.self_s
            out["detection.feed_s"] += sp.feed_s
            out["detection.feed_calls"] += sp.feed_n
            out["detection.feed_hits"] += sp.feed_hits
            out["rules.cond_s"] += sp.cond_s
            out["rules.cond_calls"] += sp.cond_n
            out["rules.cond_solutions"] += sp.cond_sols
            out["rules.commit_s"] += sp.commit_s
            out["fluents.record_s"] += sp.rec_s
            out["fluents.record_calls"] += sp.rec_n
            if sp.name == "engine.ingest":
                out["engine.ingest_calls"] += 1
            elif sp.name == "engine.txn":
                out["engine.txn_calls"] += 1
                out["engine.txn_committed"] += sp.committed
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, stimulus, totals."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                row = {
                    "id": sp.index, "name": sp.name, "parent": sp.parent,
                    "stim": sp.stim, "start": sp.start - t0, "end": sp.end - t0,
                }
                for kind in ("feed", "rec", "cond", "commit"):
                    n = getattr(sp, kind + "_n")
                    if n:
                        row[kind] = [n, getattr(sp, kind + "_s")]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
