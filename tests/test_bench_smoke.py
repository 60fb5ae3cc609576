"""The benchmark harness end to end: bench/run.py must exit 0 with every
check passing on the chain_closedness and pairing workloads, untraced and
traced, and on the word_checks workload untraced."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_clean(workload, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seconds", "0.01", "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stderr[-2000:]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_chain_closedness_runs_clean(trace):
    _run_clean("chain_closedness", trace)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_pairing_runs_clean(trace):
    # the pairing workload gates exact invariants (ten nonzero terms, a
    # certified tail), which a change of the last bits could break
    _run_clean("pairing", trace)


def test_bench_word_checks_runs_clean():
    # the one workload that runs basis-word quantize at scale (5,848
    # coclosedness words)
    _run_clean("word_checks", "0")
