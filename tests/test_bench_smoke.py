"""The benchmark harness end to end: bench/run.py must exit 0 with every
check passing on the chain_closedness and pairing workloads, untraced (for
at least two measured repeats) and traced, and on the word_checks workload
untraced."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_clean(workload, trace, seconds="0.01"):
    """Run one workload; returns how many measured repeats it made."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seconds", seconds, "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"] is True, proc.stderr[-2000:]
    return int(next(line for line in lines if line.startswith("repeats = ")).split()[2])


# (trace, --seconds, least measured repeats): untraced, chain_closedness and
# pairing run for one second, so that each makes at least two measured
# repeats; state that one repeat leaves behind for the next would fail
# here, as it would in a full-length benchmark run
RUNS = [("0", "1", 2), ("1", "0.01", 1)]


@pytest.mark.parametrize("trace, seconds, repeats", RUNS, ids=["0", "1"])
def test_bench_chain_closedness_runs_clean(trace, seconds, repeats):
    assert _run_clean("chain_closedness", trace, seconds) >= repeats


@pytest.mark.parametrize("trace, seconds, repeats", RUNS, ids=["0", "1"])
def test_bench_pairing_runs_clean(trace, seconds, repeats):
    # the pairing workload gates exact invariants (ten nonzero terms, a
    # certified tail), which a change of the last bits could break
    assert _run_clean("pairing", trace, seconds) >= repeats


def test_bench_word_checks_runs_clean():
    # the one workload that runs basis-word quantize at scale (5,848
    # coclosedness words)
    _run_clean("word_checks", "0")


def test_every_traced_method_is_defined_on_its_class(monkeypatch):
    # the traced runs rebind these methods in the class's own __dict__ (a
    # dataclass's generated __init__ included); a method moved to a base
    # class or renamed would break every --trace 1 run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for path, attr, _ in tracer.METHODS:
        mod_name, cls_name = path.split(".")
        cls = getattr(importlib.import_module(f"chernlab.{mod_name}"), cls_name)
        assert attr in cls.__dict__, f"{path}.{attr}"
