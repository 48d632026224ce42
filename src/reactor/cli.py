"""Command-line entry points.

    reactor run    --rules FILE --trace FILE [--tick N] [--chain-limit N]
                   [--report FILE]
    reactor check  --rules FILE
    reactor oracle --expr EXPR --trace FILE

Exit codes: 0 success, 1 `check` found triggering cycles, 2 bad usage,
unreadable input or a report path that cannot be written, 3 run aborted
(chain limit; the report up to the abort is still written). `run --report
FILE` opens its output before the trace is read: a new file beside FILE that
replaces it when the run is done, so a failed run leaves FILE as it was, or
FILE itself where it is a device or a FIFO.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
import tempfile
from typing import Optional, Sequence

from .algebra import occurrences, occurrence_sort_key
from .engine import triggering_graph
from .errors import ReactorError
from .harness import _canon, load_trace, run_replay
from .parser import parse_expr, parse_rules


def _read_rules(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ReactorError(f"cannot read rules file: {e}") from None
    return parse_rules(text)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _report_file(path: str):
    """``(file, tmp, target)``, opened before the replay so that a path no
    report can go to fails at once: ``tmp`` is a new file beside ``target``
    (``path``, symlinks resolved) to replace it, or None to write ``path``."""
    try:
        st = os.stat(path) if os.path.exists(path) else None
        if st and not stat.S_ISREG(st.st_mode):  # a device or a FIFO is written as it is
            return open(path, "w", encoding="utf-8"), None, path
        if st:
            os.close(os.open(path, os.O_WRONLY))  # refused where open(path, "w") is
        target = os.path.realpath(path)
        mask = os.umask(0o022)
        os.umask(mask)
        fd, tmp = tempfile.mkstemp(".tmp", ".report-", os.path.dirname(target))
        with contextlib.suppress(OSError):
            os.fchmod(fd, stat.S_IMODE(st.st_mode) if st else 0o666 & ~mask)
        return os.fdopen(fd, "w", encoding="utf-8"), tmp, target
    except OSError as e:
        raise ReactorError(f"cannot write report file {path}: {e.strerror}") from None


def _cmd_run(args) -> int:
    ruleset = _read_rules(args.rules)
    out, tmp, target = _report_file(args.report) if args.report else (sys.stdout, None, None)
    try:
        trace = load_trace(args.trace)
        report = run_replay(ruleset, trace, tick=args.tick, chain_limit=args.chain_limit)
        out.write(report.to_jsonl())
        if out is not sys.stdout:
            out.close()
        if tmp is not None:  # the whole report replaces the target at once
            os.replace(tmp, target)
    except BaseException:
        if tmp is not None:  # a failed run leaves no part of a report
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise
    finally:
        if out is not sys.stdout:
            with contextlib.suppress(OSError):
                out.close()
    return 3 if report.error else 0


def _cmd_check(args) -> int:
    ruleset = _read_rules(args.rules)
    graph = triggering_graph(ruleset)
    out = {
        "rules": list(graph.nodes),
        "edges": [list(e) for e in graph.edges],
        "cycles": [list(c) for c in graph.cycles],
        "acyclic": graph.acyclic,
    }
    sys.stdout.write(_canon(out) + "\n")
    return 0 if graph.acyclic else 1


def _cmd_oracle(args) -> int:
    expr = parse_expr(args.expr)
    occs = sorted(occurrences(expr, load_trace(args.trace)), key=occurrence_sort_key)
    for occ in occs:
        line = {
            "interval": [occ.interval.start, occ.interval.end],
            "events": sorted(occ.components),
            "bindings": {k: e.id for k, e in occ.bindings.items()},
        }
        sys.stdout.write(_canon(line) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="reactor", description="Reaction-rule replay engine."
    )
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a trace against a rule file")
    run.add_argument("--rules", required=True, help="rule source file")
    run.add_argument("--trace", required=True, help="line-delimited JSON trace")
    run.add_argument("--tick", type=int, help="synthesize timer events with this period")
    run.add_argument(
        "--chain-limit", type=positive_int, default=1000,
        help="maximum reaction chaining depth (default 1000)",
    )
    run.add_argument("--report", help="write the JSONL report here instead of stdout")
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser("check", help="report the rule triggering graph")
    check.add_argument("--rules", required=True, help="rule source file")
    check.set_defaults(func=_cmd_check)

    oracle = sub.add_parser(
        "oracle", help="enumerate matches of one event expression over a trace"
    )
    oracle.add_argument("--expr", required=True, help="event expression text")
    oracle.add_argument("--trace", required=True, help="line-delimited JSON trace")
    oracle.set_defaults(func=_cmd_oracle)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if e.code not in (0,) else 0
    try:
        return args.func(args)
    except (ReactorError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
