"""The three benchmark workloads: how each builds its inputs and checks its verdict.

Every workload calls chernlab's public API the way the acceptance gate in
tests/test_acceptance.py does, with the same fixtures, seed offsets and
pinned tolerances.  The tolerances are copied here rather than imported,
so that the benchmark keeps its contract if the test file is reorganised.

Library functions are called through their modules (``spectral.pairing``,
not a bare ``pairing``), so that the tracer in tracer.py sees these calls
when it rebinds the module attributes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm

from chernlab import algebra, chains, fixtures, fredholm, spectral, verification


@dataclass
class Check:
    """One gated quantity: a residual under a tolerance, or an exact invariant."""

    name: str
    value: float
    limit: float
    exact: bool = False

    @property
    def failed(self) -> bool:
        if self.exact:
            return self.value != self.limit
        return not (math.isfinite(self.value) and self.value <= self.limit)


def residual_checks(rep, pinned: dict) -> list[Check]:
    """Each pinned check of a report against its pinned tolerance; a check
    the report lacks reads as NaN and fails.  The library's own verdict
    is gated as well, but never alone."""
    got = {c.check_id: c.residual for c in rep.checks}
    out = [Check(f"{rep.subject}:{cid}", got.get(cid, math.nan), tol) for cid, tol in pinned.items()]
    out.append(Check(f"{rep.subject}:library-verdict", float(rep.passed), 1.0, exact=True))
    return out


@dataclass
class Workload:
    setup: Callable        # seed -> inputs (fresh fixtures, empty caches)
    verdict: Callable      # inputs -> list[Check]
    warm_up: Callable      # seed -> (seed for setup, list[Check]); not timed


# -- chain_closedness ----------------------------------------------------------

CHAIN_DEGREE = 7
# Warm-up degree: the same code paths as degree 7 at about 1/100 of its cost.
# A degree-7 warm-up would double every run, and nothing it leaves behind
# (the library keeps no global cache) could speed up the measured call.
CHAIN_WARM_UP_DEGREE = 3
# Terms of Ch(g) per degree on the n = 2 discrete circle; seed independent.
CHAIN_TERMS = {1: 4, 2: 32, 3: 192, 4: 1024, 5: 5120, 6: 24576, 7: 114688}


def chain_setup(seed):
    alg = fixtures.discrete_circle_algebra(2)
    return fixtures.circle_loop_element(alg, eps=0.5, seed=seed + 9)


@contextmanager
def _ch_g_term_counts():
    """Record the term count per degree of every chain ch_g returns.

    ch_g_closed builds Ch(g) internally and returns only a report, so the
    counts are read from the returned chain by rebinding spectral.ch_g for
    the duration of one call (one extra function call, no per-term work).
    """
    counts = {}
    inner = spectral.ch_g

    def ch_g(*args, **kwargs):
        ch = inner(*args, **kwargs)
        counts.update({N: len(ch.component(N).terms) for N in range(1, ch.N_max + 1)})
        return ch

    spectral.ch_g = ch_g
    try:
        yield counts
    finally:
        spectral.ch_g = inner


def chain_verdict(g, degree=CHAIN_DEGREE):
    with _ch_g_term_counts() as counts:
        rep = spectral.ch_g_closed(g, degree, tol=1e-8)
    pinned = {"connes-part-reduces-to-zero": 1e-12}
    pinned.update({f"telescoped-component-N={N}": 1e-8 for N in range(1, degree)})
    pinned["telescope-decay-rate"] = 1e-9
    checks = residual_checks(rep, pinned)
    checks += [Check(f"terms.degree_{N}", counts.get(N, -1), CHAIN_TERMS[N], exact=True)
               for N in range(1, degree + 1)]
    return checks


# -- pairing ----------------------------------------------------------------------

PAIRING_N_MAX = 10
PAIRING_TOLS = {
    "c-omega-from-commutator": 1e-10,
    "square-splitting": 1e-10,
    "curvature-kills-AB-blocks": 1e-12,
    "curvature-sums-to-X": 1e-12,
    "per-degree-term-identity": 1e-7,
    "sf-methods-agree": 1e-8,
    "sf-endpoints-similar": 1e-8,
    "theoremC-total": 1e-6,
}


def pairing_setup(seed):
    M = fixtures.discrete_circle(6, seed=seed)
    g = fixtures.circle_loop_element(M.alg, eps=0.10, seed=seed + 10)
    return M, g


def pairing_warm_up(seed, tries=8):
    """One full verdict, on the first seed from `seed` on whose circle the
    pairing certifies its tail at N_max = 10.

    The certificate depends on the random circle; about one seed in forty
    (seed 3 among 0..39) needs N_max = 12 and pairing() refuses it.  Such a
    circle lies outside the workload, whose amount of work is fixed at
    N_max = 10, so the next seed is taken.  Any other error propagates.
    """
    for candidate in range(seed, seed + tries):
        try:
            return candidate, pairing_verdict(pairing_setup(candidate))
        except spectral.SpectralError as exc:
            if not str(exc).startswith("certified tail"):
                raise
    raise RuntimeError(f"no seed in [{seed}, {seed + tries}) certifies the pairing tail")


def pairing_verdict(inputs):
    M, g = inputs
    rep = spectral.pairing(M, g, N_max=PAIRING_N_MAX, term_tol=1e-7, total_tol=1e-6, tail_tol=1e-6)
    checks = residual_checks(rep.checks, PAIRING_TOLS)
    # the per-degree identity and the total, recomputed from the reported values
    for t in rep.terms:
        ref = max(abs(t["pairing_term"]), abs(t["sf_term"]), 1.0)
        resid = abs(t["pairing_term"] - rep.term_sign * t["sf_term"]) / ref
        checks.append(Check(f"term-identity.N={t['N']}", resid, 1e-7))
    checks.append(Check("theoremC-total-recomputed", abs(rep.pairing_total - rep.sf_direct), 1e-6))
    checks.append(Check("tail-bound", rep.tail_bound, 1e-6))
    nonzero = sum(1 for t in rep.terms if abs(t["pairing_term"]) > 1e-12)
    checks.append(Check("nonzero-terms", nonzero, PAIRING_N_MAX, exact=True))
    # criterion 10's perturbation series at s in {0, 0.5, 1} against a direct expm
    tf = spectral.twisted_family(M, g)
    for s in (0.0, 0.5, 1.0):
        ps, _ = spectral.perturbation_series(tf, s, 1.0, 14)
        direct = expm(-(tf.Q_s(s) @ tf.Q_s(s)))
        checks.append(Check(f"perturbation-series.s={s}", float(np.max(np.abs(ps - direct))), 1e-8))
    return checks


# -- word_checks -------------------------------------------------------------------

AXIOM_WORDS = 87_293      # basis words in the criterion-01 plan; seed independent
COCLOSED_WORDS = 5_848    # criterion-05 words on three fixtures and extensions


def _axiom_plan():
    """The criterion-01 plan: (algebra, slot budget, layer sample size)."""
    ext = algebra.acyclic_extension
    return [
        (fixtures.complex_line(), 6, None),
        (ext(fixtures.complex_line()), 6, None),
        (fixtures.exterior_algebra(2), 6, None),
        (ext(fixtures.exterior_algebra(2)), 5, None),
        (ext(fixtures.exterior_algebra(2)), 6, 1500),
        (fixtures.discrete_circle_algebra(2), 6, None),
        (ext(fixtures.discrete_circle_algebra(2)), 4, None),
        (ext(fixtures.discrete_circle_algebra(2)), 6, 1500),
        (fixtures.discrete_circle_algebra(6), 6, 1500),
        (ext(fixtures.discrete_circle_algebra(6)), 6, 1000),
    ]


def _exhaustive_words(alg, budget):
    u = alg.unit_index
    reduced = [i for i in range(alg.dim) if i != u]
    layer = [(i,) for i in range(alg.dim)]
    out = list(layer)
    for _ in range(budget - 1):
        layer = [w + (i,) for w in layer for i in reduced]
        out.extend(layer)
    return out


def _coclosed_words(M, ext, rng):
    """Criterion 05's word sets: exhaustive up to 4 slots on small algebras,
    exhaustive up to 2 plus seeded samples on large ones."""
    if M.alg.dim <= 8:
        base = _exhaustive_words(M.alg, 4)
    else:
        base = _exhaustive_words(M.alg, 2)
        base += [chains.random_basis_word(M.alg, chains.CYCLIC, 2 + int(rng.integers(0, 2)), rng)
                 for _ in range(400)]
    if ext.dim <= 16:
        extw = _exhaustive_words(ext, 4)
    else:
        extw = _exhaustive_words(ext, 2)
        extw += [chains.random_basis_word(ext, chains.CYCLIC, 2 + int(rng.integers(0, 2)), rng)
                 for _ in range(300)]
    return base, extw


def words_setup(seed):
    rng = np.random.default_rng(seed)
    modules = [
        fixtures.random_weak_cq(hdim=4, q=0, seed=seed + 1, k=1),
        fixtures.random_weak_cq(hdim=6, q=1, seed=seed + 2, k=2),
        fredholm.double_odd(fixtures.discrete_circle(6, seed=seed)),
    ]
    coclosed = []
    for M in modules:
        ext = algebra.acyclic_extension(M.alg)
        M_T = fredholm.acyclic_extend_module(M, ext)
        base, extw = _coclosed_words(M, ext, rng)
        coclosed.append((M, base, M_T, extw))
    return seed, _axiom_plan(), coclosed


def words_verdict(inputs, counted=True):
    seed, plan, coclosed = inputs
    checks = []
    n_axiom = 0
    for alg, L, sample in plan:
        rep = verification.complex_axiom_residuals(alg, max_slots=L, sample=sample, seed=seed)
        n_axiom += rep.notes["n_words"]
        checks += residual_checks(rep, {cid: 1e-12 for cid in ("dd", "bb", "BB", "db", "dB", "bB")})
    n_coclosed = 0
    for M, base, M_T, extw in coclosed:
        for module, words in ((M, base), (M_T, extw)):
            scale = fredholm.chern_scale(module)
            for w in words:
                resid = abs(fredholm.coclosed_residual(module, w)) / scale
                checks.append(Check(f"coclosed:{module.name}:{w}", resid, 1e-9))
            n_coclosed += len(words)
    if counted:
        checks.append(Check("axiom-words", n_axiom, AXIOM_WORDS, exact=True))
        checks.append(Check("coclosed-words", n_coclosed, COCLOSED_WORDS, exact=True))
    return checks


def words_warm_up(seed):
    """The verdict on a slice of the inputs: one exhaustive and one sampled
    axiom plan entry and the first coclosedness fixture.  That runs the
    same code as the full verdict at about 1/20 of its cost; the caches it
    fills belong to fixtures that the measured repeats never see."""
    seed, plan, coclosed = words_setup(seed)
    return seed, words_verdict((seed, [plan[0], plan[4]], coclosed[:1]), counted=False)


WORKLOADS = {
    "chain_closedness": Workload(
        chain_setup, chain_verdict,
        lambda seed: (seed, chain_verdict(chain_setup(seed), degree=CHAIN_WARM_UP_DEGREE))),
    "pairing": Workload(pairing_setup, pairing_verdict, pairing_warm_up),
    "word_checks": Workload(words_setup, words_verdict, words_warm_up),
}
