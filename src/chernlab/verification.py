"""Suite-grade verification routines behind the acceptance criteria.

The differential-axiom checks compose the public d_cyclic, b_cyclic and
B_connes of chains.py (which holds every sign convention) on one-layer
chains of basis words, one chain per word layer up to a slot budget, and
read each residual as the largest coefficient of the merged image; the
remaining routines quantify the operator identities on seeded random data.
"""

from __future__ import annotations

import numpy as np

from . import chains
from .algebra import DgAlgebra
from .chains import BAR, CYCLIC, random_basis_word
from .cochains import OperatorBarCochain, delta
from .hilbert import (
    GradedHilbert,
    balanced_clifford_module,
    bracket_insert_unit,
    bracket_oracle,
    bracket_split_quadrature,
    cstr,
    cstr_cyclic_sum,
    heat_bracket,
    trace_norm,
)
from .report import ValidationReport, running_max


def complex_axiom_residuals(alg: DgAlgebra, max_slots=6, sample=None, seed=0) -> ValidationReport:
    """d^2, b^2, B^2 and the three anticommutators on basis word layers.

    Words carry at most max_slots slots in total.  With sample set, any
    layer larger than the sample size is drawn at random (seeded) and
    the report notes it; n_words counts the draws.
    """
    ops = {"d": chains.d_cyclic, "b": chains.b_cyclic, "B": chains.B_connes}
    pairs = [("d", "d"), ("b", "b"), ("B", "B"), ("d", "b"), ("d", "B"), ("b", "B")]
    worst = {p: 0.0 for p in pairs}
    rng = np.random.default_rng(seed)
    sampled = False
    n_words = 0
    for N in range(0, max_slots):
        layer, draws, was_sampled = chains.basis_layer(alg, N, sample=sample, rng=rng)
        sampled = sampled or was_sampled
        n_words += draws
        first = {name: op(layer) for name, op in ops.items()}
        for name_a, name_b in pairs:
            image = ops[name_a](first[name_b])
            if name_a != name_b:
                image = image + ops[name_b](first[name_a])
            worst[(name_a, name_b)] = running_max(worst[(name_a, name_b)], image.max_coeff())
    rep = ValidationReport(f"complex-axioms:{alg.name}")
    labels = {("d", "d"): "d d = 0", ("b", "b"): "b b = 0", ("B", "B"): "B B = 0",
              ("d", "b"): "d b + b d = 0", ("d", "B"): "d B + B d = 0", ("b", "B"): "b B + B b = 0"}
    for p, res in worst.items():
        rep.add(f"{p[0]}{p[1]}", res, 1e-12, labels[p])
    rep.notes["n_words"] = n_words
    rep.notes["mode"] = "sampled" if sampled else "exhaustive"
    return rep


# -- random operator-valued bar cochains (codifferential Leibniz rule) ------------------


def random_bar_cochain(alg: DgAlgebra, H: GradedHilbert, parity, rng):
    """Random cochain of arity at most 2 with pure parity values."""
    max_arity = 2
    d = H.dim
    tensors = {}
    for ar in range(max_arity + 1):
        shape = (alg.dim,) * ar + (d, d)
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tensors[ar] = t
    G = H.parity.astype(float)

    def project(mat, op_parity):
        if op_parity == 0:
            return 0.5 * (mat + G[:, None] * mat * G[None, :])
        return 0.5 * (mat - G[:, None] * mat * G[None, :])

    bar_parity = (np.asarray(alg.degree) - 1) % 2

    def component(slots):
        ar = len(slots)
        if ar > max_arity:
            return None
        t = tensors[ar]
        out = t
        for v in slots:
            out = np.tensordot(v, out, axes=(0, 0))
        # enforce parity: value parity = cochain parity + word parity
        word_par = 0
        for v in slots:
            nz = np.nonzero(v != 0)[0]
            word_par = (word_par + int(bar_parity[nz[0]])) % 2 if len(nz) else word_par
        return project(out, (parity + word_par) % 2)

    return OperatorBarCochain(alg, d, parity, component, max_arity=max_arity,
                              label=f"random(par={parity})")


def delta_leibniz_report(alg: DgAlgebra, n_cochains=200, seed=0) -> ValidationReport:
    """delta(l1 l2) = (delta l1) l2 + (-1)^{|l1|} l1 (delta l2) on random data."""
    rng = np.random.default_rng(seed)
    H = GradedHilbert(np.array([1, 1, -1, -1]))
    worst = 0.0
    scale = 1.0
    for _ in range(n_cochains):
        p1, p2 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        l1 = random_bar_cochain(alg, H, p1, rng)
        l2 = random_bar_cochain(alg, H, p2, rng)
        lhs = delta(l1 * l2)
        rhs = delta(l1) * l2 + (l1 * delta(l2)).scale((-1.0) ** p1)
        N = int(rng.integers(1, 5))
        w = random_basis_word(alg, BAR, N, rng)
        a = lhs.eval_word(w)
        b = rhs.eval_word(w)
        scale = max(scale, float(np.max(np.abs(a))))
        worst = running_max(worst, float(np.max(np.abs(a - b))))
    rep = ValidationReport(f"delta-leibniz:{alg.name}")
    rep.add("graded-leibniz-for-delta", worst / scale, 1e-10,
            "delta(l1 l2) = (delta l1) l2 + (-1)^{|l1|} l1 (delta l2)",
            note=f"{n_cochains} random cochains")
    rep.notes["scale"] = scale
    return rep


def codifferential_squares_report(alg: DgAlgebra, seed=0) -> ValidationReport:
    """((d + b - B)^dual)^2 l = 0, checked chain-side on 50 random words: d + b - B
    on the per-word faces of each word (d_total_terms), then of each image
    word, the second pass summed with chains._add."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(0, 4))
        w = random_basis_word(alg, CYCLIC, N, rng)
        square = {}
        for v, cv in chains.d_total_terms(alg, w).items():
            for u, cu in chains.d_total_terms(alg, v).items():
                chains._add(square, u, cv * cu)
        worst = running_max(worst, float(np.sqrt(sum(abs(c) ** 2 for c in square.values()))))
    rep = ValidationReport(f"codifferential-squared:{alg.name}")
    rep.add("dual-differential-squares-to-zero", worst, 1e-12, "(d+b-B)^2 = 0 chain-side")
    return rep


# -- bracket kernel quantification ----------------------------------------------------


def bracket_kernel_report(n_instances=100, seed=0) -> ValidationReport:
    """heat_bracket vs the quadrature oracle, the insert-unit aggregate
    identity and the split identity, on random instances."""
    rng = np.random.default_rng(seed)
    worst_oracle, worst_unit, worst_split = 0.0, 0.0, 0.0
    for _ in range(n_instances):
        d = int(rng.integers(2, 9))
        N = int(rng.integers(1, 5))
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = A @ A.conj().T
        H *= 2.0 / max(1.0, float(np.max(np.abs(H))))
        ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(N)]
        plain = heat_bracket(H, ops)
        ref = max(float(np.linalg.norm(plain)), 1e-30)
        oracle = bracket_oracle(H, ops, nodes=32)
        worst_oracle = running_max(worst_oracle, float(np.linalg.norm(plain - oracle)) / ref)
        total = sum(bracket_insert_unit(H, ops, j) for j in range(N + 1))
        worst_unit = running_max(worst_unit, float(np.linalg.norm(total - plain)) / ref)
        B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        k = int(rng.integers(1, N + 2))
        merged = heat_bracket(H, ops[: k - 1] + [B] + ops[k - 1 :])
        split = bracket_split_quadrature(H, ops, B, k, nodes=64)
        worst_split = running_max(worst_split,
                                  float(np.linalg.norm(merged - split)) / max(float(np.linalg.norm(merged)), 1e-30))
    rep = ValidationReport("bracket-kernel")
    tol = 1e-8
    rep.add("block-exponential-vs-oracle", worst_oracle, tol, "relative Frobenius error")
    rep.add("insert-unit-aggregate", worst_unit, tol, "sum over gaps of unit insertions = plain bracket")
    rep.add("split-identity", worst_split, tol, "u-weighted product form of one insertion")
    rep.notes["n_instances"] = n_instances
    return rep


def supertrace_report(n_tuples=200, seed=0) -> ValidationReport:
    """CStr kills supercommutators; the rotation identity holds, q in {0,1,2}.

    Each draw is on the standard C_q module of dimension 2p, p in {2, 3}
    (balanced_clifford_module); the note nonzero_odd_draws counts the draws
    with a nonzero odd operator among A, B and the bracket factors.
    """
    rng = np.random.default_rng(seed)
    worst_comm, worst_cyc = 0.0, 0.0
    nonzero_odd = 0
    for t in range(n_tuples):
        q = int(rng.integers(0, 3))
        p = int(rng.integers(2, 4))
        cm = balanced_clifford_module(q, 2 * p)
        d = cm.dim
        pa, pb = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        A = cm.project_equivariant(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), pa)
        B = cm.project_equivariant(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), pb)
        com = A @ B - (-1.0) ** (pa * pb) * B @ A
        ref = max(1.0, float(np.linalg.norm(A)) * float(np.linalg.norm(B)))
        worst_comm = running_max(worst_comm, abs(cstr(cm, com)) / ref)
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = cm.project_equivariant(raw @ raw.conj().T, 0)
        H = 0.5 * (H + H.conj().T)
        wmin = float(np.linalg.eigvalsh(H).min())
        if wmin < 0:
            H = H - wmin * np.eye(d)
        n_ops = int(rng.integers(1, 4))
        ops = [cm.project_equivariant(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
                                      int(rng.integers(0, 2))) for _ in range(n_ops)]
        res, _, rhs = cstr_cyclic_sum(cm, H, ops)
        worst_cyc = running_max(worst_cyc, res / max(1.0, abs(rhs)))
        # operator_parity reads a zero operator as even
        nonzero_odd += any(cm.H.operator_parity(X) == 1 for X in [A, B] + ops)
    rep = ValidationReport("clifford-supertrace")
    rep.add("kills-supercommutators", worst_comm, 1e-9, "CStr([A, B]) = 0 on equivariant pairs")
    rep.add("rotation-identity", worst_cyc, 1e-9,
            "signed rotations of the bracket sum to the out-front form")
    rep.notes["n_tuples"] = n_tuples
    rep.notes["nonzero_odd_draws"] = nonzero_odd
    return rep


# -- trace-norm bracket bound -----------------------------------------------------------


def bracket_trace_norm_report(n_instances=100, seed=0) -> ValidationReport:
    """||{A_1..A_N}_{T Q^2}||_1 <= (1/N!) prod ||A_i|| Tr(e^{-T Q^2/2}) e^{T/2}."""
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        d = int(rng.integers(2, 8))
        N = int(rng.integers(1, 5))
        T = float(rng.choice([0.25, 1.0, 4.0]))
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Q = 0.5 * (raw + raw.conj().T)
        ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(N)]
        lhs = trace_norm(heat_bracket(T * (Q @ Q), ops))
        fact = 1.0
        for j in range(2, N + 1):
            fact *= j
        bound = np.prod([np.linalg.norm(A, 2) for A in ops]) / fact
        bound *= float(np.trace(expm(-T * (Q @ Q) / 2)).real) * np.exp(T / 2)
        worst = running_max(worst, lhs / bound)
    rep = ValidationReport("bracket-trace-norm-bound")
    rep.add("schatten1-bound", max(worst - 1.0, 0.0), 1e-10,
            "bracket trace norm under the factorial heat bound")
    return rep
