"""Closed-loop benchmark of chernlab's time to verdict.

One caller builds a workload's inputs, waits for the verdict, checks it
against the pinned acceptance tolerances and only then starts the next
repeat.  Run from the repository root:

    python3 bench/run.py --workload chain_closedness --seed 20260809 --seconds 20 --trace 0

Workloads: chain_closedness, pairing, word_checks (see bench/README.md).
With --trace 0 the end-to-end metrics of BENCHMARK.json are reported,
with --trace 1 the per-layer metrics of a separate traced run.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when a check failed.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported: the loop is
# closed and single-threaded, and the target machine has 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20260809   # SEED of tests/test_acceptance.py
HELD_OUT_SEED = 1618033   # a claim must also hold on this seed
SETUP_SAMPLES = 25        # set-ups timed per run; setup_s is their median
TRACED_REPEATS = 2        # at least; their exact counts must agree
END_TO_END = {"setup_s": "s", "verdict_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("chain_closedness", "pairing", "word_checks"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="repeat the measured loop until this much wall time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, help="with --trace 1, write the last traced repeat's spans here")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_library():
    """Import chernlab from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import chernlab
    except ImportError as exc:
        raise SystemExit(f"error: cannot import chernlab from {src}: {exc}")
    if Path(chernlab.__file__).resolve().parent != (src / "chernlab").resolve():
        raise SystemExit(f"error: chernlab was imported from {chernlab.__file__}, not from {src}")


def declared_metrics():
    """The metric names and units BENCHMARK.json declares, per trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def fingerprint(args, load_1m):
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg_1m_at_start": load_1m,
            "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def measure(wl, seed, seconds, checks, trace_with=None):
    """Warm up once, time extra set-ups, then repeat set-up + verdict until
    `seconds` of wall time have passed.  Every repeat builds fresh fixtures,
    so module caches start empty as they do for a command-line user.
    Garbage is collected before each timed set-up, so that every one starts
    from the same collector state.

    With trace_with, each untraced repeat is followed by one traced
    repeat (at least TRACED_REPEATS pairs), so that the tracing overhead
    compares neighbours and slow drift of the machine cancels out."""
    seed, warm_checks = wl.warm_up(seed)
    checks += warm_checks
    setup_s, verdict_s, cpu_s, traces = [], [], [], []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        t0 = time.perf_counter()
        wl.setup(seed)
        setup_s.append(time.perf_counter() - t0)
    end = time.perf_counter() + seconds
    while (not verdict_s or time.perf_counter() < end
           or (trace_with and len(traces) < TRACED_REPEATS)):
        gc.collect()
        t0 = time.perf_counter()
        inputs = wl.setup(seed)
        t1 = time.perf_counter()
        c1 = time.process_time()
        checks += wl.verdict(inputs)
        c2 = time.process_time()
        t2 = time.perf_counter()
        del inputs
        setup_s.append(t1 - t0)
        verdict_s.append(t2 - t1)
        cpu_s.append(c2 - c1)
        if trace_with:
            traces.append(trace_with(wl, seed, checks))
    return seed, setup_s, verdict_s, cpu_s, traces


def traced_repeat(wl, seed, checks):
    """One traced set-up + verdict; returns (verdict seconds, layer metrics, spans)."""
    from tracer import Tracer, layer_metrics, self_time_residual
    from workloads import Check

    with Tracer() as tr:
        with tr.span("bench.setup"):
            inputs = wl.setup(seed)
        with tr.span("bench.verdict"):
            checks.extend(wl.verdict(inputs))
    del inputs
    checks.append(Check("trace.self-times-add-up", self_time_residual(tr.spans), 1e-9))
    root = next(s for s in tr.spans if s[2] == "bench.verdict")
    return root[4] - root[3], layer_metrics(tr.spans), tr.spans


def main(argv=None):
    args = parse_args(argv)
    load_1m = os.getloadavg()[0]
    import_library()
    from tracer import EXACT_UNITS, PER_LAYER
    from workloads import WORKLOADS, Check

    e2e_units, layer_units = declared_metrics()
    if e2e_units != END_TO_END or layer_units != PER_LAYER:
        raise SystemExit("error: BENCHMARK.json declares other metrics than bench/run.py reports")
    print(json.dumps({"fingerprint": fingerprint(args, load_1m)}), flush=True)

    wl = WORKLOADS[args.workload]
    checks = []
    seed, setup_s, verdict_s, cpu_s, traces = measure(wl, args.seed, args.seconds, checks,
                                                      traced_repeat if args.trace else None)
    if args.trace:
        exact = [k for k, unit in PER_LAYER.items() if unit in EXACT_UNITS]
        counts = [{k: m[k] for k in exact} for _, m, _ in traces]
        checks.append(Check("trace.counts-repeat", float(all(c == counts[0] for c in counts)),
                            1.0, exact=True))
        metrics = dict(traces[-1][1])
        metrics["trace.overhead_s"] = statistics.median(
            t[0] - u for t, u in zip(traces, verdict_s))
        if args.spans:
            args.spans.write_text(json.dumps({"fields": ["id", "parent", "name", "start", "end",
                                                         "self_s", "arg", "result", "expm_inside"],
                                               "spans": traces[-1][2]}))
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(setup_s), "verdict_s": statistics.median(verdict_s),
                   "cpu_s": statistics.median(cpu_s),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    failed = [c for c in checks if c.failed]
    print(f"fixture seed = {seed}")
    print(f"repeats = {len(verdict_s)} (verdict_s, cpu_s are medians over them); "
          f"set-ups timed = {len(setup_s)}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"checks_run = {len(checks)} count")
    print(f"checks_failed = {len(failed)} count")
    for c in failed[:20]:
        print(f"FAILED {c.name}: {c.value!r} against {c.limit!r}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
