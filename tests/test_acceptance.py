"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np

from chernlab.algebra import acyclic_extension
from chernlab.chains import CYCLIC, Chain, random_basis_word
from chernlab.fixtures import (
    circle_loop_element,
    discrete_circle,
    discrete_circle_algebra,
    exterior_strong,
    getzler_trivial,
    random_weak_cq,
)
from chernlab.fredholm import (
    Homotopy,
    acyclic_extend_module,
    bianchi_residual,
    chen_vanish,
    chern_eval,
    chern_scale,
    coclosed_residual,
    double_odd,
    getzler_closed_form,
    transgression_check,
)
from chernlab.report import running_max
from chernlab.spectral import ch_g_closed, pairing, perturbation_series, twisted_family
from chernlab.suite import SuiteConfig, complex_axiom_plan, fundamental_estimate_report
from chernlab.verification import (
    bracket_kernel_report,
    complex_axiom_residuals,
    delta_leibniz_report,
    supertrace_report,
)
from scipy.linalg import expm

SEED = 20260809


def _verdict(num, name, ok, detail, t0, budget):
    elapsed = time.time() - t0
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail} [{elapsed:.1f}s / budget {budget:.0f}s]"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s"


def test_criterion_01_complex_axioms():
    t0 = time.time()
    worst = 0.0
    total_words = 0
    for alg, L, sample in complex_axiom_plan():
        rep = complex_axiom_residuals(alg, max_slots=L, sample=sample, seed=SEED)
        worst = running_max(worst, rep.max_residual())
        total_words += rep.notes["n_words"]
    assert total_words == 87_293  # the plan the benchmark's word_checks workload pins
    _verdict(1, "complex axioms", worst <= 1e-12,
             f"max residual {worst:.2e} <= 1e-12 over {total_words} basis words", t0, 10)


def test_criterion_02_delta_leibniz():
    t0 = time.time()
    alg = acyclic_extension(discrete_circle_algebra(3))
    rep = delta_leibniz_report(alg, n_cochains=200, seed=SEED)
    res = rep.residual("graded-leibniz-for-delta")
    _verdict(2, "codifferential Leibniz", res <= 1e-10,
             f"max relative residual {res:.2e} <= 1e-10 over 200 random cochains", t0, 10)


def test_criterion_03_bracket_kernel():
    t0 = time.time()
    rep = bracket_kernel_report(n_instances=100, seed=SEED)
    ok = rep.passed
    _verdict(3, "bracket kernel", ok,
             "oracle/insert-unit/split residuals "
             + ", ".join(f"{c.residual:.1e}" for c in rep.checks) + " <= 1e-8", t0, 60)


def test_criterion_04_clifford_supertrace():
    t0 = time.time()
    rep = supertrace_report(n_tuples=200, seed=SEED)
    ok = rep.passed
    _verdict(4, "Clifford supertrace", ok,
             "supercommutator/rotation residuals "
             + ", ".join(f"{c.residual:.1e}" for c in rep.checks) + " <= 1e-9", t0, 30)


def _coclosed_fixture_words(M, ext, rng):
    """Exhaustive words of <= 4 slots when the algebra is small, seeded
    samples otherwise (the large-algebra layers are sampled; this is the
    only feasible reading of the slot budget at this dimension)."""

    def exhaustive(alg, budget):
        u = alg.unit_index
        reduced = [i for i in range(alg.dim) if i != u]
        out = []
        layer = [(i,) for i in range(alg.dim)]
        out.extend(layer)
        for _ in range(budget - 1):
            layer = [w + (i,) for w in layer for i in reduced]
            out.extend(layer)
        return out

    if M.alg.dim <= 8:
        base = exhaustive(M.alg, 4)
    else:
        base = exhaustive(M.alg, 2)
        base += [random_basis_word(M.alg, CYCLIC, 2 + int(rng.integers(0, 2)), rng) for _ in range(400)]
    if ext.dim <= 16:
        extw = exhaustive(ext, 4)
    else:
        extw = exhaustive(ext, 2)
        extw += [random_basis_word(ext, CYCLIC, 2 + int(rng.integers(0, 2)), rng) for _ in range(300)]
    return base, extw


def test_criterion_05_coclosedness():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    fixtures = [
        random_weak_cq(hdim=4, q=0, seed=SEED + 1, k=1),
        random_weak_cq(hdim=6, q=1, seed=SEED + 2, k=2),
        double_odd(discrete_circle(6, seed=SEED)),
    ]
    worst = 0.0
    n_checked = 0
    for M in fixtures:
        ext = acyclic_extension(M.alg)
        M_T = acyclic_extend_module(M, ext)
        scale = chern_scale(M)
        scale_T = chern_scale(M_T)
        base, extw = _coclosed_fixture_words(M, ext, rng)
        for w in base:
            worst = running_max(worst, abs(coclosed_residual(M, w)) / scale)
        for w in extw:
            worst = running_max(worst, abs(coclosed_residual(M_T, w)) / scale_T)
        n_checked += len(base) + len(extw)
    _verdict(5, "coclosedness", worst <= 1e-9,
             f"max scaled residual {worst:.2e} <= 1e-9 over {n_checked} words (3 fixtures + extensions)",
             t0, 300)


def test_criterion_06_chen_vanishing():
    t0 = time.time()
    fixtures = [
        exterior_strong(hdim=4, q=0, seed=SEED + 3, k=1),
        exterior_strong(hdim=6, q=1, seed=SEED + 4, k=2),
        double_odd(discrete_circle(6, seed=SEED)),
    ]
    worst = 0.0
    for M in fixtures:
        rep = chen_vanish(M, seed=SEED + 5, n_words=100)
        worst = running_max(worst, rep.max_residual())
    _verdict(6, "Chen vanishing", worst <= 1e-9,
             f"max scaled value {worst:.2e} <= 1e-9 over 100 words x 4 operator families x 3 strong fixtures",
             t0, 120)


def test_criterion_07_transgression():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    homs = []
    M0 = random_weak_cq(hdim=4, q=0, seed=SEED + 6, k=2, strong=True)
    V0 = M0.cm.project_equivariant(
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), 1)
    homs.append(Homotopy(M0, 0.5 * (V0 + V0.conj().T)))
    Mq = double_odd(discrete_circle(3, seed=SEED))
    h = Mq.hdim // 2
    Vq = np.kron(np.array([[0, 1], [1, 0]]), np.diag(rng.standard_normal(h)))
    homs.append(Homotopy(Mq, Vq))
    worst_t, worst_b = 0.0, 0.0
    nonzero = 0
    for hom in homs:
        ext = acyclic_extension(hom.M.alg)
        M1 = acyclic_extend_module(hom.module(1.0), ext)
        M0_ = acyclic_extend_module(hom.module(0.0), ext)
        words = []
        for _ in range(15):
            w = random_basis_word(ext, CYCLIC, 1 + int(rng.integers(0, 2)), rng)
            words.append(w)
            lhs = chern_eval(M1, Chain.basis_word(ext, CYCLIC, w)) - \
                chern_eval(M0_, Chain.basis_word(ext, CYCLIC, w))
            if abs(lhs) > 1e-8:
                nonzero += 1
        rep = transgression_check(hom, words, s_nodes=24, ext_alg=ext)
        worst_t = running_max(worst_t, rep.residual("transgression-formula"))
        for _ in range(8):
            N = int(rng.integers(0, 3))
            w = random_basis_word(hom.M.alg, "bar_red", N, rng)
            worst_b = running_max(worst_b, bianchi_residual(hom, float(rng.uniform(0.1, 0.9)), 1.0, w))
    ok = worst_t <= 1e-6 and worst_b <= 1e-6 and nonzero > 0
    _verdict(7, "transgression", ok,
             f"formula residual {worst_t:.2e}, Bianchi residual {worst_b:.2e} <= 1e-6 "
             f"(30 words, 2 fixtures, {nonzero} nonvacuous)", t0, 300)


def test_criterion_08_odd_closed_form():
    t0 = time.time()
    Modd = getzler_trivial(4, seed=SEED + 7)
    M = double_odd(Modd)
    rng = np.random.default_rng(SEED + 8)
    scale = chern_scale(M)
    worst, worst_even = 0.0, 0.0
    for _ in range(50):
        N = int(rng.integers(0, 6))
        w = random_basis_word(Modd.alg, CYCLIC, N, rng)
        closed = getzler_closed_form(Modd, w)
        doubled = chern_eval(M, w)
        worst = running_max(worst, abs(closed - doubled) / scale)
        if N % 2 == 0:
            assert closed == 0.0
            worst_even = running_max(worst_even, abs(doubled) / scale)
    ok = worst <= 1e-9 and worst_even <= 1e-12
    _verdict(8, "odd closed form", ok,
             f"doubled-vs-closed-form {worst:.2e} <= 1e-9; even-degree values {worst_even:.2e}", t0, 60)


def test_criterion_09_character_chain_closedness():
    t0 = time.time()
    alg = discrete_circle_algebra(2)
    g = circle_loop_element(alg, eps=0.5, seed=SEED + 9)
    rep = ch_g_closed(g, 8, tol=1e-8)
    comp_res = max(rep.residual(f"telescoped-component-N={N}") for N in range(1, 7))
    ok = rep.passed and comp_res <= 1e-8
    _verdict(9, "character chain closedness", ok,
             f"Chen-telescoped component residuals <= {comp_res:.2e} (N <= 6 at truncation 8), "
             f"Connes part exactly zero, telescope under the half-factorial envelope", t0, 120)


def test_criterion_10_spectral_flow_pairing():
    t0 = time.time()
    M = discrete_circle(6, seed=SEED)
    g = circle_loop_element(M.alg, eps=0.10, seed=SEED + 10)
    rep = pairing(M, g, N_max=10, term_tol=1e-7, total_tol=1e-6, tail_tol=1e-6)
    tf = twisted_family(M, g)
    worst_ps = 0.0
    for s in (0.0, 0.5, 1.0):
        ps, _ = perturbation_series(tf, s, 1.0, 14)
        worst_ps = running_max(worst_ps, float(np.max(np.abs(ps - expm(-(tf.Q_s(s) @ tf.Q_s(s)))))))
    nonzero = rep.checks.notes["nonzero_terms"]
    ok = rep.verdict and worst_ps <= 1e-8 and nonzero == 10
    _verdict(10, "spectral-flow pairing", ok,
             f"|pairing - sf| = {abs(rep.pairing_total - rep.sf_direct):.2e} <= 1e-6 "
             f"(tail {rep.tail_bound:.1e} certified at N_max=10); per-degree identity residuals "
             f"<= {max(t['residual'] for t in rep.terms):.1e} with {nonzero}/10 nonzero terms; "
             f"perturbation series {worst_ps:.1e} <= 1e-8", t0, 600)


def test_criterion_11_fundamental_estimate():
    t0 = time.time()
    rep = fundamental_estimate_report(SuiteConfig(seed=SEED))
    excess = rep.residual("trace-norm-bound")
    _verdict(11, "fundamental estimate", excess <= 1e-10,
             f"bound excess {excess:.2e} over 100 words x T in (0.25, 1, 4), "
             f"kappa = {rep.notes['kappa']:.4g}", t0, 120)
