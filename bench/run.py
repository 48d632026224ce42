"""Replay benchmark for reactor: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, one process each

The program under test is imported from ``src/`` next to this directory and
driven only through its public API; it receives the generated rule text,
JSONL lines and initial facts. Load is closed-loop: one caller, each
stimulus fed after the previous ``Engine.ingest`` returns, no threads.

With ``--trace 0`` a run first does one CLI-equivalent job --
``load_trace``, ``run_replay``, ``to_jsonl`` -- and reads ``peak_rss_mb``
right after it, so the peak covers the inputs and one job and does not
depend on how many steps fit. For the rest of about ``--seconds`` seconds
it repeats a step that does the job's work again in small timed pieces
and keeps each piece's least time (see ``measure``):

* set-up -- ``parse_rules`` plus an ``Engine`` with the initial facts --
  timed over and over in three bursts, giving ``setup_s``;
* ``load_trace`` on blocks of lines, a replay that calls ``Engine.ingest``
  itself and times each call, and ``to_jsonl`` on its report, giving
  ``events_per_s`` from the sum of the least times and ``ingest_p50_us``
  and ``ingest_p99_us`` from each stimulus's least latency.

With ``--trace 1`` a run alternates untraced and traced jobs instead and
reports per-layer self times, counts and scaling exponents (see
``tracing.py``); spans go to ``bench/out/``.

Every repetition's output is checked: record counts against what the
generator expects, the self-driven replay's report bytes against the job's,
the fact store's journal against its state, and at the default seed the
report's sha256 against a pinned value. An operation is one stimulus; it
fails if its ingest raises or yields a record with an error, or if its
repetition fails a check. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

try:
    import reactor
    from reactor import (
        ChainLimitExceeded, Engine, ReactorError, RunReport, fact_sort_key,
        load_trace, parse_rules, run_replay,
    )
except ImportError as err:
    raise SystemExit(f"bench: cannot import reactor from {SRC}: {err}")
if not os.path.abspath(reactor.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"bench: imported reactor from {reactor.__file__}, not {SRC}")

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 0
# sha256 of each workload's report at DEFAULT_SEED, from the seed commit.
PINNED_SHA256 = {
    "replay_mix": "1d324d5a3bac6f243320fa2ac52b559b1e5646e97010d562232618c3843c4d78",
    "kb_join": "5f62ca10befc9968483f000af26cab7d03e2cec8341581ab734d7f3c644761a7",
}
UNITS = {
    "events_per_s": "1/s", "ingest_p50_us": "us", "ingest_p99_us": "us",
    "peak_rss_mb": "MB", "setup_s": "s",
}
# Set-ups timed per burst: at least this many, for at least this long.
# Each step times three bursts, spread over the step.
SETUP_MIN_REPS = 5
SETUP_SECONDS = 0.02
# ``setup_s`` is the median of this many least times, each over every
# SETUP_GROUPS-th burst of the run. The least time of one burst flips
# between two levels about 1.6x apart, in spells a fraction of a second
# long that the calibration loop does not see, and the share of bursts at
# the fast level ranges from under a tenth to two thirds of a run; a least
# time over bursts spread across the run finds the fast level either way.
SETUP_GROUPS = 5
# JSONL lines per timed ``load_trace`` call.
LOAD_BLOCK = 500
# Calibration: a fixed loop, timed CAL_REPS times before and after each
# step's pieces. Its least time over a run shows how fast the host ran at
# its best during that run, and every reported time is scaled to the speed
# at which the loop takes CAL_NOMINAL_NS: its least time on the 2-vCPU
# Intel Xeon VM the benchmark was tuned on.
CAL_LOOP = 15_000
CAL_REPS = 10
CAL_NOMINAL_NS = 750_000
OUT_DIR = os.path.join(ROOT, "bench", "out")


# ------------------------------------------------------------------ checks


def check_report(inst, report: RunReport) -> list[str]:
    """Compare a report with what the generator expects."""
    committed: Counter = Counter()
    rolled_back = 0
    problems = []
    for r in report.records:
        if r.error is not None:
            problems.append(f"record of {r.rule_id} carries error {r.error!r}")
            break
        if r.outcome.value == "committed":
            committed[r.rule_id] += 1
        else:
            rolled_back += 1
    exp = inst.expected
    if committed != exp.committed:
        problems.append(f"committed {dict(committed)} != expected {dict(exp.committed)}")
    if rolled_back:
        problems.append(f"{rolled_back} firings rolled back, expected none")
    if report.error is not None:
        problems.append(f"replay aborted: {report.error}")
    if report.dispatched != inst.stimuli:
        problems.append(f"dispatched {report.dispatched} of {inst.stimuli} stimuli")
    if len(report.facts) != exp.facts:
        problems.append(f"{len(report.facts)} facts at the end, expected {exp.facts}")
    return problems


def check_pin(workload: str, seed: int, text: str) -> list[str]:
    if seed != DEFAULT_SEED:
        return []
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != PINNED_SHA256[workload]:
        return [f"report sha256 {digest} != pinned {PINNED_SHA256[workload]}"]
    return []


# ------------------------------------------------------------ measurements


def setup(inst):
    ruleset = parse_rules(inst.rules)
    return ruleset, Engine(ruleset, initial_facts=inst.facts)


def fastest_setup(inst) -> float:
    """The least time of a burst of set-ups."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_SECONDS:
        t0 = perf_counter()
        setup(inst)
        times.append(perf_counter() - t0)
    return min(times)


def job(ruleset, inst) -> tuple[RunReport, str]:
    """The CLI-equivalent job: load the JSONL, replay, serialise."""
    report = run_replay(ruleset, load_trace(inst.lines), initial_facts=inst.facts)
    return report, report.to_jsonl()


def ingest_replay(ruleset, inst, trace):
    """Replay by calling ``Engine.ingest`` per stimulus, timing each call.

    Returns the engine, the report ``run_replay`` would have built, the
    number of stimuli whose ingest raised or produced an error record, and
    each stimulus's latency in nanoseconds.
    """
    latencies: list[int] = []
    engine = Engine(ruleset, initial_facts=inst.facts)
    records: list = []
    failed = dispatched = 0
    error = None
    clock = perf_counter_ns
    for ev in trace:
        dispatched += 1
        t0 = clock()
        try:
            recs = engine.ingest(ev.type.name, ev.time, ev.payload)
        except ChainLimitExceeded as exc:
            latencies.append(clock() - t0)
            records.extend(exc.records)
            error = str(exc)
            failed += 1
            break
        except ReactorError:
            latencies.append(clock() - t0)
            failed += 1
            continue
        latencies.append(clock() - t0)
        records.extend(recs)
        if any(r.error is not None for r in recs):
            failed += 1
    report = RunReport(
        records=tuple(records),
        dispatched=dispatched,
        facts=tuple(sorted(engine.kb.facts(), key=fact_sort_key)),
        fluents={
            name: tuple(engine.fluents.fluent_intervals(name))
            for name in sorted(engine.fluents.fluents)
        },
        error=error,
    )
    return engine, report, failed, latencies


class Run:
    """Counts operations and collects check failures over one invocation."""

    def __init__(self, workload: str, seed: int, inst):
        self.workload = workload
        self.seed = seed
        self.inst = inst
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None

    def account(self, report: RunReport, text: str, failed: int = 0) -> None:
        """Check one repetition's output and its serialised ``text``, and
        count its stimuli."""
        problems = check_report(self.inst, report)
        if self.reference is None:
            self.reference = text
            problems += check_pin(self.workload, self.seed, text)
        elif text != self.reference:
            problems.append("report bytes differ between repetitions")
        self.attempted += self.inst.stimuli
        self.failed += self.inst.stimuli if problems else failed
        self.problems += problems

    def crashed(self, err: Exception) -> None:
        self.attempted += self.inst.stimuli
        self.failed += self.inst.stimuli
        self.problems.append(f"{type(err).__name__}: {err}")


def timed_loop(seconds: float, step, start: float | None = None) -> None:
    """Call ``step`` until another call like the last would end more than
    ``seconds`` after ``start`` (default: now)."""
    start = perf_counter() if start is None else start
    while True:
        t0 = perf_counter()
        step()
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return


def timed_load(lines: list[str]) -> tuple[list, list[int]]:
    """``load_trace`` over blocks of lines, timing each call in nanoseconds.

    Lines are parsed one by one, so the blocks do the whole load's work;
    only the ids restart per block, and replays ignore incoming ids.
    """
    trace: list = []
    times: list[int] = []
    clock = perf_counter_ns
    for i in range(0, len(lines), LOAD_BLOCK):
        block = lines[i:i + LOAD_BLOCK]
        t0 = clock()
        part = load_trace(block)
        times.append(clock() - t0)
        trace += part
    return trace, times


def calibrate(best: float) -> float:
    """Time the calibration loop CAL_REPS times; the least time so far, in ns."""
    clock = perf_counter_ns
    for _ in range(CAL_REPS):
        t0 = clock()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        best = min(best, clock() - t0)
    return best


def least(best: list[int] | None, times: list[int]) -> list[int]:
    return list(map(min, best, times)) if best else times


def measure(run: Run, seconds: float) -> dict[str, float]:
    """Least times, piece by piece: interference from other work only adds time.

    The run starts with one CLI-equivalent job; its report is the reference
    every later repetition must match, and the peak RSS is read right after
    it. Each step then does the job's work again in small timed pieces --
    ``load_trace`` on blocks of lines, ``Engine.ingest`` per stimulus,
    ``to_jsonl`` on the report -- and every piece keeps its least time over
    the steps. The host's speed changes from one second to the next, and
    the least time of a piece a millisecond long is far steadier than that
    of a whole job. Whole runs still differ: in some minutes the host never
    reaches full speed. So each time is then scaled by ``CAL_NOMINAL_NS``
    over the calibration loop's least time in the same run.

    ``events_per_s`` is stimuli over the sum of all pieces' least times;
    ``ingest_p50_us`` and ``ingest_p99_us`` are percentiles over stimuli of
    each stimulus's least latency; ``setup_s`` is the median of
    ``SETUP_GROUPS`` least set-up times, each over an interleaved share of
    the run's bursts.
    """
    start = perf_counter()
    inst = run.inst
    ruleset = parse_rules(inst.rules)
    # The inputs live all run long; keep them out of the collector's scans
    # so they do not slow the measured work.
    gc.collect()
    gc.freeze()
    try:
        report, text = job(ruleset, inst)
    except ReactorError as err:
        run.crashed(err)
        return {}
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.account(report, text)
    del report, text

    bursts: list[float] = []
    load: list[int] | None = None
    latencies: list[int] | None = None
    serialise = cal_ns = math.inf

    def step():
        nonlocal load, latencies, serialise, cal_ns
        bursts.append(fastest_setup(inst))
        cal_ns = calibrate(cal_ns)
        gc.collect()
        trace, load_ns = timed_load(inst.lines)
        try:
            engine, report, failed, lat = ingest_replay(ruleset, inst, trace)
        except ReactorError as err:
            run.crashed(err)
            return
        bursts.append(fastest_setup(inst))
        t0 = perf_counter()
        text = report.to_jsonl()
        serialise = min(serialise, perf_counter() - t0)
        if engine.kb.replay_journal() != engine.kb.snapshot():
            run.problems.append("journal replay differs from the fact store")
            failed = inst.stimuli
        run.account(report, text, failed)
        load = least(load, load_ns)
        latencies = least(latencies, lat)
        bursts.append(fastest_setup(inst))
        cal_ns = calibrate(cal_ns)

    timed_loop(seconds, step, start)
    if latencies is None:
        return {}
    groups = [min(bursts[g::SETUP_GROUPS]) for g in range(min(SETUP_GROUPS, len(bursts)))]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    job_s = (sum(load) + sum(latencies)) / 1e9 + serialise
    scale = CAL_NOMINAL_NS / cal_ns
    print(
        f"# {run.workload} seed {run.seed}: {inst.stimuli} stimuli, "
        f"{len(bursts) // 3} timed repetitions; least times: load {sum(load) / 1e9:.4f} s, "
        f"ingest {sum(latencies) / 1e9:.4f} s, serialise {serialise:.4f} s; "
        f"calibration loop {cal_ns:.0f} ns, so times are scaled by {scale:.4f}"
    )
    return {
        "events_per_s": inst.stimuli / (job_s * scale),
        "ingest_p50_us": cuts[49] / 1000 * scale,
        "ingest_p99_us": cuts[98] / 1000 * scale,
        "peak_rss_mb": rss_kib / 1024,
        "setup_s": statistics.median(groups) * scale,
    }


# ------------------------------------------------------------------ tracing


def _nodes(node):
    yield node
    for attr in ("left", "right", "absent", "opener", "closer", "inner"):
        child = getattr(node, attr, None)
        if child is not None:
            yield from _nodes(child)


def detector_gauges(engine) -> tuple[int, int]:
    """Retained events and partial occurrences over every detector."""
    retained = occs = 0
    for _rule, det in engine.detectors:
        retained += len(det.retained)
        occs += sum(len(n.occs) for n in _nodes(det._root))
    return retained, occs


def traced_job(inst, tracer: Tracer):
    """The job plus parsing, every call into a layer inside a span."""
    t0 = perf_counter()
    with tracer:
        ruleset = tracer.call("parser.parse", parse_rules, inst.rules)
        trace = tracer.call("harness.load", load_trace, inst.lines)
        report = tracer.call(
            "harness.replay", run_replay, ruleset, trace, initial_facts=inst.facts
        )
        text = tracer.call("harness.report", report.to_jsonl)
    return report, text, perf_counter() - t0


def untraced_job(inst):
    t0 = perf_counter()
    report, text = job(parse_rules(inst.rules), inst)
    return report, text, perf_counter() - t0


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-12)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def scaling(seed: int) -> dict[str, float]:
    """Log-log slopes at half, one and two times a base size.

    The bases keep the sweeps to a few seconds: KB size and rule count
    start from 600 ``emp`` facts and 200 rules over few stimuli, the
    extra rules getting no traffic so the matching work stays
    the same; history starts from 2000 ``rule_fanout`` stimuli. Each timed
    point is the faster of two rounds.
    """
    def fastest(make, cost) -> float:
        best = math.inf
        for _ in range(2):
            tracer = Tracer()
            traced_job(make(), tracer)
            best = min(best, cost(tracer.layers()))
        return best

    kb = [60, 120, 240]
    kb_cost = [
        fastest(lambda d=d: workloads.kb_join(seed, depts=d, n=300),
                lambda m: m["rules.cond_s"] + m["engine.txn_self_s"])
        for d in kb
    ]
    idle = [0, 100, 300]
    rule_cost = [
        fastest(lambda i=i: workloads.rule_fanout(seed, rules=100, n=1000, idle=i),
                lambda m: m["engine.route_self_s"] + m["detection.feed_s"])
        for i in idle
    ]
    history = [1000, 2000, 4000]
    occs = []
    for n in history:
        inst = workloads.rule_fanout(seed, n=n)
        engine = ingest_replay(parse_rules(inst.rules), inst, load_trace(inst.lines))[0]
        occs.append(detector_gauges(engine)[1])
    return {
        "scale.kb_size_exp": slope([workloads.PER_DEPT * d for d in kb], kb_cost),
        "scale.rule_count_exp": slope([100 + i for i in idle], rule_cost),
        "scale.history_exp": slope(history, occs),
    }


def measure_traced(run: Run, seconds: float) -> dict[str, float]:
    inst = run.inst
    plain: list[float] = []
    traced: list[float] = []
    samples: list[dict[str, float]] = []
    last: list[Tracer] = []

    def step():
        gc.collect()
        report, text, wall = untraced_job(inst)
        plain.append(wall)
        run.account(report, text)
        del report, text
        gc.collect()
        tracer = Tracer()
        report, text, wall = traced_job(inst, tracer)
        traced.append(wall)
        run.account(report, text)
        layers = tracer.layers()
        retained, occs = detector_gauges(tracer.engine)
        dispatched = layers["fluents.record_calls"]
        selfs = sum(v for k, v in layers.items() if k.endswith("_s"))
        samples.append({
            "harness.load_s": layers["harness.load_s"],
            "harness.replay_self_s": layers["harness.replay_self_s"],
            "harness.report_s": layers["harness.report_s"],
            "harness.report_bytes": len(text.encode()),
            "parser.parse_s": layers["parser.parse_s"],
            "engine.route_self_s": layers["engine.route_self_s"],
            "engine.dispatched": dispatched,
            "engine.feeds_per_event": layers["detection.feed_calls"] / dispatched,
            "engine.txn_self_s": layers["engine.txn_self_s"],
            "engine.txn_calls": layers["engine.txn_calls"],
            "engine.txn_commit_ratio": (
                layers["engine.txn_committed"] / max(layers["engine.txn_calls"], 1)
            ),
            "engine.max_depth": max((r.depth for r in report.records), default=0),
            "detection.feed_s": layers["detection.feed_s"],
            "detection.feed_calls": layers["detection.feed_calls"],
            "detection.feed_hit_ratio": (
                layers["detection.feed_hits"] / max(layers["detection.feed_calls"], 1)
            ),
            "detection.retained_events": retained,
            "detection.node_occs": occs,
            "rules.cond_s": layers["rules.cond_s"],
            "rules.cond_calls": layers["rules.cond_calls"],
            "rules.cond_solutions_per_call": (
                layers["rules.cond_solutions"] / max(layers["rules.cond_calls"], 1)
            ),
            "rules.commit_s": layers["rules.commit_s"],
            "rules.kb_facts": len(report.facts),
            "fluents.record_s": layers["fluents.record_s"],
            "fluents.record_calls": layers["fluents.record_calls"],
            "trace.accounted_frac": selfs / wall,
        })
        last[:] = [tracer]

    timed_loop(seconds, step)
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics.update(scaling(run.seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{run.workload}-{run.seed}.jsonl")
    last[0].write(path)
    print(f"# {run.workload} seed {run.seed}: {len(traced)} traced jobs, spans in {path}")
    return metrics


# --------------------------------------------------------------------- main


def run_all(args) -> int:
    """Run every workload in its own process and pass its output through."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    inst = workloads.WORKLOADS[args.workload](args.seed)
    run = Run(args.workload, args.seed, inst)
    try:
        metrics = (measure_traced if args.trace else measure)(run, args.seconds)
    except ReactorError as err:
        run.crashed(err)
        metrics = {}
    if not metrics:
        run.problems.append("no repetition completed")
    for problem in dict.fromkeys(run.problems):
        print(f"# check failed: {problem}")
    failed_frac = run.failed / max(run.attempted, 1)
    for name, value in metrics.items():
        print(f"{args.workload:14s} {name:32s} {value:16.6f} {unit(name)}")
    print(f"{args.workload:14s} {'failed_frac':32s} {failed_frac:16.6f} "
          f"({run.failed} of {run.attempted} stimuli)")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_exp", "_per_call", "_per_event")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
