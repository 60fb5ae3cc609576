"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer wraps the public functions of chernlab's layers (algebra,
fixtures, chains, hilbert, fredholm, spectral, verification), a few
Chain and Curvature methods, and every ``scipy.linalg.expm`` bound in a
chernlab module.  A function is wrapped wherever it is bound: modules
bind each other's functions through ``from ... import``, so rebinding
only the defining module would miss most calls.  Nothing under src/ is
edited; the original bindings come back when the tracer closes.

Per-term methods such as ``Chain.add_term`` (about 10^6 calls per
chain_closedness instance) and ``Chain.copy`` (whose cost belongs to the
``__add__`` that calls it) are deliberately not wrapped; term counts are
read from the chains that are returned.  cochains, suite, cli, serialize
and report are not measured: no workload depends on their cost.

Spans stay in memory as tuples
``(id, parent, name, start, end, self_s, arg, result, expm_inside)``;
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time
from contextlib import contextmanager

import scipy.linalg

LAYERS = ("algebra", "fixtures", "chains", "hilbert", "fredholm", "spectral", "verification")
EXPM = "hilbert.expm"
ROW_BUCKETS = (("le_16", 16), ("17_64", 64), ("65_256", 256), ("gt_256", None))
COMPLEX_BYTES = 16


def _per_layer():
    """Every metric of the traced run, with its unit, in report order."""
    s, n = "s", "count"
    out = {"chains.self_s": s, "chains.add.calls": n, "chains.add.self_s": s,
           "chains.from_elements.self_s": s, "chains.from_elements.terms_out": n,
           "chains.d_cyclic.self_s": s, "chains.b_cyclic.self_s": s, "chains.B_connes.self_s": s,
           "chains.differential.terms_in": n, "chains.differential.us_per_term": "us",
           "chains.chen.self_s": s, "chains.entire_bound.self_s": s}
    out.update({f"chains.terms.degree_{N}": n for N in range(1, 8)})
    out.update({f"chains.build_s.degree_{N}": s for N in range(1, 8)})
    out.update({"spectral.self_s": s, "spectral.ch_g.s": s, "spectral.pairing_term.calls": n,
                "spectral.pairing_term.self_s": s})
    out.update({f"spectral.pairing_term.self_s.degree_{N}": s for N in range(1, 11)})
    out.update({"spectral.sf_series_term.self_s": s, "spectral.sf_integral.s": s,
                "spectral.twisted_family.s": s})
    out.update({"hilbert.self_s": s, "hilbert.chain_exp_topright.calls": n,
                "hilbert.chain_exp_topright.self_s": s, "hilbert.marked_chain_exp_topright.calls": n,
                "hilbert.marked_chain_exp_topright.self_s": s, "hilbert.heat_bracket.calls": n,
                "hilbert.cstr.calls": n, "hilbert.cstr.self_s": s,
                "hilbert.expm.calls": n, "hilbert.expm.self_s": s, "hilbert.expm.rows_max": "rows",
                "hilbert.expm.n3_sum": n, "hilbert.expm.bytes_computed": "bytes"})
    out.update({f"hilbert.expm.calls.rows_{b}": n for b, _ in ROW_BUCKETS})
    out.update({f"hilbert.expm.self_s.rows_{b}": s for b, _ in ROW_BUCKETS})
    out.update({"fredholm.self_s": s, "fredholm.quantize.calls": n, "fredholm.quantize.self_s": s,
                "fredholm.quantize.hit_ratio": "ratio"})
    out.update({f"fredholm.quantize.self_s.degree_{k}": s for k in range(10)})
    out.update({"fredholm.curvature.self_s": s, "fredholm.chern_eval.calls": n,
                "fredholm.chern_eval.self_s": s,
                "verification.complex_axiom_residuals.s": s, "verification.words": n,
                "verification.us_per_word": "us",
                "algebra.self_s": s, "fixtures.self_s": s, "trace.overhead_s": s})
    return out


PER_LAYER = _per_layer()
# metrics that count work rather than time it; they must repeat exactly
EXACT_UNITS = ("count", "rows", "bytes", "ratio")


def _slot_degree(kind, n_slots):
    """Degree of a word with n_slots entries: slot 0 does not count in a cyclic word."""
    return n_slots - 1 if kind == "cyclic" else n_slots


def _from_elements_degree(args, kwargs):
    kind = args[2] if len(args) > 2 else kwargs["kind"]
    slots = args[3] if len(args) > 3 else kwargs["slots"]
    return _slot_degree(kind, len(slots))


def _added_degree(args, kwargs):
    """Degree of the added chain, read from its first word (ch_g adds only
    homogeneous chains, so one word decides)."""
    other = args[1]
    word = next(iter(other.terms), None)
    return None if word is None else _slot_degree(other.kind, len(word))


ARG_OF = {
    "chains.from_elements": _from_elements_degree,
    "chains.add": _added_degree,
    "chains.sub": _added_degree,
    "chains.d_cyclic": lambda a, k: len(a[0].terms),
    "chains.b_cyclic": lambda a, k: len(a[0].terms),
    "chains.B_connes": lambda a, k: len(a[0].terms),
    "spectral.pairing_term": lambda a, k: int(a[1]),
    "fredholm.quantize": lambda a, k: len(a[2]),
    EXPM: lambda a, k: int(a[0].shape[0]),
}
RESULT_OF = {
    "chains.from_elements": lambda r: len(r.terms),
    "spectral.ch_g": lambda r: [len(r.component(N).terms) for N in range(1, r.N_max + 1)],
    "verification.complex_axiom_residuals": lambda r: r.notes["n_words"],
}
# (class path, attribute, span name); classmethods keep their descriptor type
METHODS = (
    ("chains.Chain", "__add__", "chains.add"),
    ("chains.Chain", "__sub__", "chains.sub"),
    ("chains.Chain", "from_elements", "chains.from_elements"),
    ("chains.Chain", "basis_word", "chains.basis_word"),
    ("chains.Chain", "scale", "chains.scale"),
    ("chains.Chain", "norm", "chains.norm"),
    ("chains.Chain", "prune", "chains.prune"),
    ("chains.Chain", "component", "chains.component"),
    ("chains.Chain", "parity", "chains.parity"),
    ("fredholm.Curvature", "F1", "fredholm.curvature.F1"),
    ("fredholm.Curvature", "F2", "fredholm.curvature.F2"),
    ("algebra.DgAlgebra", "__init__", "algebra.DgAlgebra"),
)


class Tracer:
    """Records spans while open; restores every rebinding on close."""

    def __init__(self):
        self.spans = []
        self._stack = []        # open frames: [id, start, child_s, expm_at_open]
        self._ids = itertools.count()
        self._expm_calls = 0
        self._undo = []

    # -- recording ---------------------------------------------------------------

    def _open(self):
        frame = [next(self._ids), time.perf_counter(), 0.0, self._expm_calls]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, arg, result_of=None, result=None):
        end = time.perf_counter()
        result = None if result_of is None or result is None else result_of(result)
        self._stack.pop()
        dur = end - frame[1]
        parent = -1
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        self.spans.append((frame[0], parent, name, frame[1], end, dur - frame[2], arg, result,
                           self._expm_calls - frame[3]))

    @contextmanager
    def span(self, name):
        frame = self._open()
        try:
            yield
        finally:
            self._close(frame, name, None)

    def wrap(self, name, fn):
        arg_of = ARG_OF.get(name)
        result_of = RESULT_OF.get(name)
        is_expm = name == EXPM
        tracer = self

        def traced(*args, **kwargs):
            arg = arg_of(args, kwargs) if arg_of else None
            if is_expm:
                tracer._expm_calls += 1
            frame = tracer._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(frame, name, arg, result_of, result)

        return traced

    # -- installing ---------------------------------------------------------------

    def __enter__(self):
        mods = [m for n, m in sorted(sys.modules.items()) if n == "chernlab" or n.startswith("chernlab.")]
        targets = [(scipy.linalg.expm, EXPM)]
        for layer in LAYERS:
            mod = importlib.import_module(f"chernlab.{layer}")
            targets += [(fn, f"{layer}.{attr}") for attr, fn in vars(mod).items()
                        if inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")]
        for fn, name in targets:
            wrapper = self.wrap(name, fn)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, attr, wrapper)
        for path, attr, name in METHODS:
            mod_name, cls_name = path.split(".")
            cls = getattr(importlib.import_module(f"chernlab.{mod_name}"), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._rebind(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                self._rebind(cls, attr, self.wrap(name, raw))
        return self

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


# -- metrics ------------------------------------------------------------------------


def self_time_residual(spans, roots=("bench.setup", "bench.verdict")):
    """Worst relative gap between the self times summed under a root span
    and that root's duration; a negative self time or a span outside the
    roots makes it infinite.  It is zero up to rounding when spans nest
    properly and no time is counted twice."""
    parent = {s[0]: s[1] for s in spans}
    by_id = {s[0]: s for s in spans}

    def root_of(sid):
        while parent[sid] != -1:
            sid = parent[sid]
        return sid

    totals = {}
    for s in spans:
        if s[5] < -1e-9:
            return float("inf")
        r = root_of(s[0])
        totals[r] = totals.get(r, 0.0) + s[5]
    worst = 0.0
    for rid, total in totals.items():
        root = by_id[rid]
        if root[2] not in roots:
            return float("inf")
        dur = root[4] - root[3]
        worst = max(worst, abs(total - dur) / max(dur, 1e-12))
    return worst


def layer_metrics(spans):
    """Per-layer metrics of one traced repeat (its set-up and its verdict),
    every metric of PER_LAYER except trace.overhead_s; a layer or function
    the repeat never reached reads 0."""
    m = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    parent = {s[0]: s[1] for s in spans}
    ch_g_ids = {s[0] for s in spans if s[2] == "spectral.ch_g"}

    def in_ch_g(sid):
        while sid != -1:
            if sid in ch_g_ids:
                return True
            sid = parent[sid]
        return False

    expm_rows_max = 0
    for sid, _, name, start, end, self_s, arg, result, expm_inside in spans:
        layer, _, rest = name.partition(".")
        add(f"{layer}.self_s", self_s)
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        add(f"{name}.s", end - start)
        if name in ("chains.from_elements", "chains.add") and arg is not None and in_ch_g(sid):
            add(f"chains.build_s.degree_{arg}", self_s)
        if name in ("chains.d_cyclic", "chains.b_cyclic", "chains.B_connes"):
            add("chains.differential.terms_in", arg)
            add("chains.differential.self_s", self_s)
        if name in ("chains.chen_S", "chains.chen_R", "chains.chen_Si", "chains.chen_Ti"):
            add("chains.chen.self_s", self_s)
        if name == "chains.from_elements":
            add("chains.from_elements.terms_out", result or 0)
        if name == "spectral.ch_g" and result:
            for N, count in enumerate(result, start=1):
                add(f"chains.terms.degree_{N}", count)
        if name == "spectral.pairing_term":
            add(f"spectral.pairing_term.self_s.degree_{arg}", self_s)
        if name == "fredholm.quantize":
            add(f"fredholm.quantize.self_s.degree_{arg}", self_s)
            add("fredholm.quantize.hits", int(expm_inside == 0))
        if name.startswith("fredholm.curvature."):
            add("fredholm.curvature.self_s", self_s)
        if name == "verification.complex_axiom_residuals":
            add("verification.words", result)
        if name == EXPM:
            expm_rows_max = max(expm_rows_max, arg)
            add("hilbert.expm.n3_sum", arg ** 3)
            # reads the n x n complex input once and writes the result once
            add("hilbert.expm.bytes_computed", 2 * COMPLEX_BYTES * arg * arg)
            bucket = next(b for b, hi in ROW_BUCKETS if hi is None or arg <= hi)
            add(f"hilbert.expm.calls.rows_{bucket}", 1)
            add(f"hilbert.expm.self_s.rows_{bucket}", self_s)
    m["hilbert.expm.rows_max"] = expm_rows_max
    m["fredholm.quantize.hit_ratio"] = (m.get("fredholm.quantize.hits", 0)
                                        / max(m.get("fredholm.quantize.calls", 0), 1))
    m["chains.differential.us_per_term"] = (1e6 * m.get("chains.differential.self_s", 0.0)
                                            / max(m.get("chains.differential.terms_in", 0), 1))
    m["verification.us_per_word"] = (1e6 * m.get("verification.complex_axiom_residuals.s", 0.0)
                                     / max(m.get("verification.words", 0), 1))
    return {k: m.get(k, 0.0 if unit in ("s", "us") else 0) for k, unit in PER_LAYER.items()
            if k != "trace.overhead_s"}
