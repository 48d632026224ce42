"""The benchmark's seed-0 reports, checked byte for byte in the test suite.

``bench/run.py`` pins the sha256 of each workload's report at its default
seed. This replays ``kb_join(0)``, whose firings each order several
solutions, and ``replay_mix(0)`` the way the benchmark's job does, and
compares each ``to_jsonl()`` digest with that pin, and runs the
benchmark's own self-tests. The benchmark's files are only read: ``bench/``
goes on ``sys.path``.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from reactor import load_trace, parse_rules, run_replay

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
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
