"""Verification suite orchestration: fixture configs, groups, reports.

Groups: algebra, complexes, brackets, chern, transgression, pairing.
Each group returns ValidationReports; the run report serializes them
with tolerances, verdicts and timings.  The groups run on a thread pool
with one worker per usable CPU (at most one per group); every group
builds its own fixtures, algebras and RNGs, so results are deterministic
for a fixed (config, seed) whatever the worker count.  Timings, the
worker count and the environment fingerprint live under the "volatile"
key.
"""

from __future__ import annotations

import json
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algebra import MatrixElement, acyclic_extension, dga_validate, mat_lift, maurer_cartan, maurer_cartan_residual
from .chains import CYCLIC, Chain, _all_basis_words, random_basis_word
from .fixtures import (
    circle_function,
    circle_loop_element,
    complex_line,
    discrete_circle,
    discrete_circle_algebra,
    exterior_algebra,
    getzler_trivial,
    matrix2_algebra,
    random_weak_cq,
)
from .fredholm import (
    Homotopy,
    acyclic_extend_module,
    bianchi_residual,
    calibrate_nu,
    chen_vanish,
    chern_eval,
    chern_pullback_residual,
    chern_scale,
    chern_simons_eval,
    coclosed_residual,
    double_odd,
    getzler_closed_form,
    phi_estimate_ratio,
    transgression_check,
)
from .report import ValidationReport, running_max
from .serialize import round17
from .spectral import ch_g_closed, pairing, partition_resum_check
from .verification import (
    bracket_kernel_report,
    bracket_trace_norm_report,
    codifferential_squares_report,
    complex_axiom_residuals,
    delta_leibniz_report,
    supertrace_report,
)

GROUPS = ("algebra", "complexes", "brackets", "chern", "transgression", "pairing")
CIRCLE_N = 6  # discrete circle size for the module-level groups


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    groups: tuple = GROUPS
    fast: bool = False            # trims sample counts (used by unit tests)

    @classmethod
    def from_json(cls, data: dict) -> "SuiteConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        seed = data.get("seed", cls.seed)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed must be an integer, not {seed!r}")
        fast = data.get("fast", cls.fast)
        if not isinstance(fast, bool):
            raise ValueError(f"fast must be true or false, not {fast!r}")
        groups = data.get("groups", list(GROUPS))
        if not isinstance(groups, list):
            raise ValueError(f"groups must be a list of group names, not {groups!r}")
        unknown = [g for g in groups if g not in GROUPS]
        if unknown:
            raise ValueError(f"unknown groups: {unknown}")
        if len(set(groups)) < len(groups):
            raise ValueError(f"repeated groups: {sorted({g for g in groups if groups.count(g) > 1})}")
        return cls(seed=seed, groups=tuple(groups), fast=fast)


# -- groups ------------------------------------------------------------------------


def group_algebra(cfg: SuiteConfig):
    reports = []
    algs = [complex_line(), exterior_algebra(1), exterior_algebra(2),
            discrete_circle_algebra(3), discrete_circle_algebra(CIRCLE_N), matrix2_algebra()]
    for alg in algs:
        reports.append(dga_validate(alg))
        reports.append(dga_validate(acyclic_extension(alg)))
    reports.append(dga_validate(mat_lift(exterior_algebra(1), 2)))
    # Maurer-Cartan forms over the circle
    alg = discrete_circle_algebra(CIRCLE_N)
    rep = ValidationReport("maurer-cartan")
    g1 = circle_loop_element(alg, eps=0.4, seed=cfg.seed + 1)
    rep.add("scalar-loop", maurer_cartan_residual(maurer_cartan(g1)), 1e-12,
            "d omega + omega^2 = 0 for omega = f^{-1} df")
    rng = np.random.default_rng(cfg.seed + 2)
    entries = np.zeros((2, 2, alg.dim), dtype=complex)
    for p in range(2):
        for q in range(2):
            vals = rng.standard_normal(CIRCLE_N) + 1j * rng.standard_normal(CIRCLE_N)
            if p == q:
                vals += 4.0
            entries[p, q] = circle_function(alg, vals)
    g2 = MatrixElement(entries, alg)
    rep.add("gl2-loop", maurer_cartan_residual(maurer_cartan(g2)), 1e-10,
            "d omega + omega^2 = 0 for a random GL_2 loop")
    reports.append(rep)
    return reports


def complex_axiom_plan():
    """(algebra, slot budget, layer sample size) for the complex-axiom checks:
    exhaustive layers within the runtime budget, sampled on top; 87,293
    basis words in all."""
    return [
        (complex_line(), 6, None),
        (acyclic_extension(complex_line()), 6, None),
        (exterior_algebra(2), 6, None),
        (acyclic_extension(exterior_algebra(2)), 5, None),
        (acyclic_extension(exterior_algebra(2)), 6, 1500),
        (discrete_circle_algebra(2), 6, None),
        (acyclic_extension(discrete_circle_algebra(2)), 4, None),
        (acyclic_extension(discrete_circle_algebra(2)), 6, 1500),
        (discrete_circle_algebra(CIRCLE_N), 6, 1500),
        (acyclic_extension(discrete_circle_algebra(CIRCLE_N)), 6, 1000),
    ]


def group_complexes(cfg: SuiteConfig):
    reports = []
    plan = complex_axiom_plan()
    if cfg.fast:
        plan = plan[:4] + plan[5:7]
    for alg, L, sample in plan:
        reports.append(complex_axiom_residuals(alg, max_slots=L, sample=sample, seed=cfg.seed))
    alg_T = acyclic_extension(discrete_circle_algebra(3))
    reports.append(delta_leibniz_report(alg_T, n_cochains=40 if cfg.fast else 200, seed=cfg.seed))
    reports.append(codifferential_squares_report(alg_T, seed=cfg.seed))
    return reports


def group_brackets(cfg: SuiteConfig):
    n_inst = 30 if cfg.fast else 100
    return [
        bracket_kernel_report(n_instances=n_inst, seed=cfg.seed),
        supertrace_report(n_tuples=50 if cfg.fast else 200, seed=cfg.seed),
        bracket_trace_norm_report(n_instances=n_inst, seed=cfg.seed),
    ]


def _chern_fixtures(cfg: SuiteConfig):
    fixtures = [
        random_weak_cq(hdim=4, q=0, seed=cfg.seed + 3, k=1),
        random_weak_cq(hdim=6, q=1, seed=cfg.seed + 4, k=2),
        double_odd(discrete_circle(CIRCLE_N, seed=cfg.seed)),
    ]
    return fixtures


def group_chern(cfg: SuiteConfig):
    reports = []
    for M in _chern_fixtures(cfg):
        rep = ValidationReport(f"chern:{M.name}")
        rng = np.random.default_rng(cfg.seed + 5)
        scale = chern_scale(M)
        ext = acyclic_extension(M.alg)
        M_T = acyclic_extend_module(M, ext)
        scale_T = chern_scale(M_T)
        small = M.alg.dim > 20 or cfg.fast
        max_len = 3 if small else 4

        # exhaustive over the base algebra when small, sampled otherwise
        if M.alg.dim <= 8:
            base_words = _all_basis_words(M.alg, max_len - 1)
        else:
            base_words = [random_basis_word(M.alg, CYCLIC, int(rng.integers(0, max_len)), rng)
                          for _ in range(150 if not cfg.fast else 40)]
        worst = 0.0
        for w in base_words:
            worst = running_max(worst, abs(coclosed_residual(M, w)))
        rep.add("coclosed-base", worst / scale, 1e-9,
                "(d + b - B)^dual Ch = 0 over the base algebra",
                note=f"{len(base_words)} words, max length {max_len}")
        if ext.dim <= 16:
            ext_words = _all_basis_words(ext, min(max_len, 3) - 1)
        else:
            ext_words = [random_basis_word(ext, CYCLIC, int(rng.integers(0, 3)), rng)
                         for _ in range(100 if not cfg.fast else 30)]
        worst = 0.0
        for w in ext_words:
            worst = running_max(worst, abs(coclosed_residual(M_T, w)))
        rep.add("coclosed-extension", worst / scale_T, 1e-8,
                "(d + b - B)^dual Ch = 0 over the acyclic extension",
                note=f"{len(ext_words)} words")
        worst = 0.0
        for _ in range(30 if cfg.fast else 60):
            N = int(rng.integers(0, 3))
            w = random_basis_word(ext, CYCLIC, N, rng)
            worst = running_max(worst, chern_pullback_residual(M_T, w))
        rep.add("pullback-identity", worst / scale_T, 1e-9,
                "Ch of the extension = - rotation-pullback of CStr(Phi)")
        # wrong-parity vanishing
        worst = 0.0
        for _ in range(40):
            N = int(rng.integers(0, 4))
            w = random_basis_word(M.alg, CYCLIC, N, rng)
            c = Chain.basis_word(M.alg, CYCLIC, w)
            if c.parity() != M.q % 2:
                worst = running_max(worst, abs(chern_eval(M, c)))
        rep.add("wrong-parity-vanishing", worst / scale, 1e-12,
                "the character kills words of the wrong parity")
        reports.append(rep)
        if not M.weak:
            reports.append(chen_vanish(M, seed=cfg.seed + 6,
                                       n_words=25 if cfg.fast else 100, ext_alg=ext))
    # getzler comparison
    Modd = getzler_trivial(4, seed=cfg.seed + 7)
    Mq1 = double_odd(Modd)
    rng = np.random.default_rng(cfg.seed + 8)
    rep = ValidationReport("odd-character-closed-form")
    worst, worst_even = 0.0, 0.0
    for _ in range(20 if cfg.fast else 50):
        N = int(rng.integers(0, 6))
        w = random_basis_word(Modd.alg, CYCLIC, N, rng)
        closed = getzler_closed_form(Modd, w)
        doubled = chern_eval(Mq1, w)
        worst = running_max(worst, abs(closed - doubled))
        if N % 2 == 0:
            worst_even = running_max(worst_even, abs(doubled))
    scale = chern_scale(Mq1)
    rep.add("doubled-equals-closed-form", worst / scale, 1e-9,
            "doubled-module character = alternating heat commutator integral")
    rep.add("even-degree-vanishing", worst_even / scale, 1e-12,
            "the odd character vanishes in even degrees")
    reports.append(rep)
    # fundamental estimate
    reports.append(fundamental_estimate_report(cfg))
    return reports


def fundamental_estimate_report(cfg: SuiteConfig):
    M = double_odd(discrete_circle(CIRCLE_N, seed=cfg.seed))
    rng_cal = np.random.default_rng(cfg.seed + 100)
    rng_test = np.random.default_rng(cfg.seed + 200)
    cal_words = [random_basis_word(M.alg, CYCLIC, 1 + int(rng_cal.integers(0, 4)), rng_cal)[1:]
                 for _ in range(30)]
    kappa = calibrate_nu(M, cal_words, (0.25, 1.0, 4.0), safety=1.25)
    worst = 0.0
    n_words = 25 if cfg.fast else 100
    for _ in range(n_words):
        w = random_basis_word(M.alg, CYCLIC, 1 + int(rng_test.integers(0, 4)), rng_test)[1:]
        for T in (0.25, 1.0, 4.0):
            worst = running_max(worst, phi_estimate_ratio(M, w, T, kappa=kappa))
    rep = ValidationReport("fundamental-estimate")
    rep.add("trace-norm-bound", max(worst - 1.0, 0.0), 1e-10,
            "||Phi_T||_1 under the calibrated factorial heat bound",
            note=f"kappa={kappa:.6g}, {n_words} words x 3 T-values")
    rep.notes["kappa"] = round17(kappa)
    return rep


def group_transgression(cfg: SuiteConfig):
    reports = []
    rng = np.random.default_rng(cfg.seed + 9)
    n_words = 8 if cfg.fast else 15
    fixtures = []
    M0 = random_weak_cq(hdim=4, q=0, seed=cfg.seed + 10, k=2, strong=True)
    V0 = M0.cm.project_equivariant(
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), 1)
    V0 = 0.5 * (V0 + V0.conj().T)
    fixtures.append(Homotopy(M0, V0))
    Mq = double_odd(discrete_circle(3, seed=cfg.seed))
    h = Mq.hdim // 2
    Vq = np.kron(np.array([[0, 1], [1, 0]]), np.diag(rng.standard_normal(h)))
    fixtures.append(Homotopy(Mq, Vq))
    for hom in fixtures:
        alg = hom.M.alg
        ext = acyclic_extension(alg)
        words = [random_basis_word(ext, CYCLIC, int(rng.integers(1, 3)), rng) for _ in range(n_words)]
        rep = transgression_check(hom, words, s_nodes=24, ext_alg=ext)
        rep.add("nonvacuous", 0.0 if rep.notes["nonzero_lhs_words"] > 0 else 1.0, 0.5,
                "at least one word with a nonzero character difference")
        worst = 0.0
        for _ in range(4 if cfg.fast else 8):
            N = int(rng.integers(0, 3))
            w = random_basis_word(alg, "bar_red", N, rng)
            worst = running_max(worst, bianchi_residual(hom, float(rng.uniform(0.1, 0.9)), 1.0, w))
        rep.add("bianchi-identity", worst, 1e-6,
                "d/ds Phi = delta Psi + [omega, Psi] against finite differences")
        # Chern-Simons parity: odd for q even
        hom_T = hom.extended(ext)
        worst = 0.0
        for _ in range(10):
            N = int(rng.integers(0, 3))
            w = random_basis_word(ext, CYCLIC, N, rng)
            c = Chain.basis_word(ext, CYCLIC, w)
            if (c.parity() + hom.M.q + 1) % 2 == 1:  # wrong parity for CS
                worst = running_max(worst, abs(chern_simons_eval(hom_T, c, s_nodes=8)))
        rep.add("chern-simons-parity", worst, 1e-10,
                "the transgression form has parity opposite to the character")
        reports.append(rep)
    return reports


def group_pairing(cfg: SuiteConfig):
    reports = []
    alg = discrete_circle_algebra(2)
    g_small = circle_loop_element(alg, eps=0.5, seed=cfg.seed + 11)
    reports.append(ch_g_closed(g_small, 4 if cfg.fast else 8))
    M = discrete_circle(CIRCLE_N, seed=cfg.seed)
    g = circle_loop_element(M.alg, eps=0.10, seed=cfg.seed + 12)
    reports.append(pairing(M, g, N_max=8 if cfg.fast else 10).checks)
    rep = ValidationReport("partition-resummation")
    from .spectral import twisted_family

    tf = twisted_family(M, g)
    worst = 0.0
    for s, T, m_max in ((0.0, 1.0, 2), (0.6, 1.0, 2), (0.9, 0.7, 3)):
        worst = running_max(worst, partition_resum_check(tf, s, T, m_max))
    rep.add("resummation-identity", worst, 1e-8,
            "X-power heat series = partition-capped quantization of A-words")
    reports.append(rep)
    return reports


GROUP_RUNNERS = {
    "algebra": group_algebra,
    "complexes": group_complexes,
    "brackets": group_brackets,
    "chern": group_chern,
    "transgression": group_transgression,
    "pairing": group_pairing,
}


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_suite(cfg: SuiteConfig) -> dict:
    """Execute the selected groups, one worker per usable CPU; returns the run report dict."""
    workers = min(len(cfg.groups), _usable_cpus())
    t0 = time.perf_counter()
    results = {}
    timings = {}
    errors = {}

    def run_group(name):
        t = time.perf_counter()
        try:
            reports = GROUP_RUNNERS[name](cfg)
            return name, reports, time.perf_counter() - t, None
        except Exception as exc:  # keep other groups running
            return name, [], time.perf_counter() - t, f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=workers) as pool:
        outs = list(pool.map(run_group, cfg.groups))
    for name, reports, dt, err in outs:
        results[name] = [r.as_dict() for r in reports]
        timings[name] = round17(dt)
        if err:
            errors[name] = err
    passed = not errors and all(
        item["passed"] for group in results.values() for item in group
    )
    report = {
        "config": {"seed": cfg.seed, "groups": list(cfg.groups), "fast": cfg.fast},
        "results": results,
        "errors": errors,
        "passed": bool(passed),
        "volatile": {
            "workers": workers,
            "timings": timings,
            "total_seconds": round17(time.perf_counter() - t0),
            "fingerprint": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
            },
        },
    }
    return report


def summarize(report: dict) -> str:
    lines = []
    mark = "PASS" if report["passed"] else "FAIL"
    workers = report["volatile"]["workers"]
    # groups sharing a CPU overlap, so their times add up to more than the wall time
    lines.append(f"[{mark}] chernlab suite (seed={report['config']['seed']}, {workers} workers, "
                 f"{report['volatile']['total_seconds']:.1f}s wall)")
    for group, items in report["results"].items():
        n_checks = sum(len(i["checks"]) for i in items)
        ok = all(i["passed"] for i in items)
        t = report["volatile"]["timings"].get(group, 0.0)
        lines.append(f"  [{'ok ' if ok else 'BAD'}] {group}: {len(items)} reports, {n_checks} checks, {t:.1f}s")
        for item in items:
            for c in item["checks"]:
                if not c["passed"]:
                    lines.append(f"      FAIL {item['subject']} :: {c['id']} residual={c['residual']:.3e} tol={c['tol']:.1e}")
    for group, err in report.get("errors", {}).items():
        lines.append(f"  [ERR] {group}: {err}")
    return "\n".join(lines)


def explain(report: dict, item_id: str) -> str:
    """Look up one check in a stored report: formula, inputs, residual."""
    cfg_hash = json.dumps(report.get("config", {}), sort_keys=True)
    for group, items in report.get("results", {}).items():
        for item in items:
            for c in item["checks"]:
                if c["id"] == item_id or f"{item['subject']}::{c['id']}" == item_id:
                    return "\n".join([
                        f"check:    {item['subject']} :: {c['id']}",
                        f"group:    {group}",
                        f"formula:  {c['formula']}",
                        f"residual: {c['residual']:.6e}  (tol {c['tol']:.1e})",
                        f"verdict:  {'pass' if c['passed'] else 'FAIL'}",
                        f"note:     {c.get('note', '')}",
                        f"config:   {cfg_hash}",
                    ])
    raise KeyError(f"no check with id {item_id!r} in the report")
