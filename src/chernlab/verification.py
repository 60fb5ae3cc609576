"""Suite-grade verification routines behind the acceptance criteria.

The differential-axiom checks run over every admissible basis word up
to a slot budget (vectorized over whole word layers); the remaining
routines quantify the operator identities on seeded random data.
"""

from __future__ import annotations

import numpy as np

from .algebra import DgAlgebra
from .chains import BAR, CYCLIC, Chain, random_basis_word
from .cochains import OperatorBarCochain, delta
from .hilbert import (
    GradedHilbert,
    bracket_insert_unit,
    bracket_oracle,
    bracket_split_quadrature,
    cstr,
    cstr_cyclic_sum,
    heat_bracket,
    standard_clifford_module,
    trace_norm,
)
from .report import ValidationReport, running_max

# -- vectorized word-layer operators ------------------------------------------------


class _VecAlg:
    """Padded product/differential tables for vectorized word operations."""

    def __init__(self, alg: DgAlgebra):
        self.alg = alg
        dim = alg.dim
        kp = max((len(v) for v in alg.mul_table.values()), default=1)
        self.prod_tgt = np.zeros((dim, dim, kp), dtype=np.int64)
        self.prod_cf = np.zeros((dim, dim, kp), dtype=complex)
        for (i, j), entries in alg.mul_table.items():
            for e, (k, v) in enumerate(entries):
                self.prod_tgt[i, j, e] = k
                self.prod_cf[i, j, e] = v
        kd = max((len(v) for v in alg.diff_table.values()), default=1)
        self.diff_tgt = np.zeros((dim, kd), dtype=np.int64)
        self.diff_cf = np.zeros((dim, kd), dtype=complex)
        for j, entries in alg.diff_table.items():
            for e, (k, v) in enumerate(entries):
                self.diff_tgt[j, e] = k
                self.diff_cf[j, e] = v
        self.deg = np.asarray(alg.degree, dtype=np.int64)
        self.unit = alg.unit_index


def _reduce_mask(va, words):
    """Rows whose slots >= 1 avoid the unit (the reduced complex)."""
    if words.shape[1] <= 1:
        return np.ones(len(words), dtype=bool)
    return ~np.any(words[:, 1:] == va.unit, axis=1)


def _mvals(va, words):
    """m_k mod 2 per word, with the m_{-1} = 1 convention prepended."""
    deg = va.deg[words]
    csum = np.cumsum(deg, axis=1)
    k_idx = np.arange(words.shape[1])[None, :]
    m = (csum - k_idx) % 2
    lead = np.ones((len(words), 1), dtype=np.int64)
    return np.concatenate([lead, m], axis=1)  # column k+1 holds m_k


def _emit(chunks, words, coeffs):
    keep = coeffs != 0  # drops exact zeros only; a NaN stays and fails the check
    if np.any(keep):
        chunks.append((words[keep], coeffs[keep]))


def _apply_d(va, words, coeffs):
    out = []
    L = words.shape[1]
    m = _mvals(va, words)
    for k in range(L):
        sign = -((-1.0) ** m[:, k])
        col = words[:, k]
        for e in range(va.diff_tgt.shape[1]):
            cf = va.diff_cf[col, e]
            nz = cf != 0
            if not np.any(nz):
                continue
            new = words[nz].copy()
            new[:, k] = va.diff_tgt[col[nz], e]
            keep = _reduce_mask(va, new)
            _emit(out, new[keep], coeffs[nz][keep] * cf[nz][keep] * sign[nz][keep])
    return out


def _apply_b(va, words, coeffs):
    out = []
    L = words.shape[1]
    N = L - 1
    if N == 0:
        return out
    m = _mvals(va, words)
    for k in range(N):
        sign = -((-1.0) ** m[:, k + 1])
        a, b = words[:, k], words[:, k + 1]
        for e in range(va.prod_tgt.shape[2]):
            cf = va.prod_cf[a, b, e]
            nz = cf != 0
            if not np.any(nz):
                continue
            new = np.concatenate([words[nz, :k], va.prod_tgt[a[nz], b[nz], e][:, None], words[nz, k + 2 :]], axis=1)
            keep = _reduce_mask(va, new)
            _emit(out, new[keep], coeffs[nz][keep] * cf[nz][keep] * sign[nz][keep])
    a, b = words[:, N], words[:, 0]
    wrap_sign = (-1.0) ** (((va.deg[a] - 1) * m[:, N]) % 2)
    for e in range(va.prod_tgt.shape[2]):
        cf = va.prod_cf[a, b, e]
        nz = cf != 0
        if not np.any(nz):
            continue
        new = np.concatenate([va.prod_tgt[a[nz], b[nz], e][:, None], words[nz, 1:N]], axis=1)
        keep = _reduce_mask(va, new)
        _emit(out, new[keep], coeffs[nz][keep] * cf[nz][keep] * wrap_sign[nz][keep])
    return out


def _apply_B(va, words, coeffs):
    out = []
    L = words.shape[1]
    m = _mvals(va, words)
    mN = m[:, L]
    unit_col = np.full((len(words), 1), va.unit, dtype=np.int64)
    for k in range(L):
        sign = (-1.0) ** (((m[:, k] + 1) * (mN - m[:, k])) % 2)
        new = np.concatenate([unit_col, words[:, k:], words[:, :k]], axis=1)
        keep = _reduce_mask(va, new)
        _emit(out, new[keep], coeffs[keep] * sign[keep])
    return out


def _accumulate_max(va, chunks):
    """Max |coefficient| after merging identical words across chunks."""
    by_len = {}
    for words, coeffs in chunks:
        by_len.setdefault(words.shape[1], []).append((words, coeffs))
    worst = 0.0
    dim = va.alg.dim
    for L, parts in by_len.items():
        words = np.concatenate([w for w, _ in parts], axis=0)
        coeffs = np.concatenate([c for _, c in parts], axis=0)
        keys = np.zeros(len(words), dtype=np.int64)
        for j in range(L):
            keys = keys * dim + words[:, j]
        uniq, inv = np.unique(keys, return_inverse=True)
        acc = np.zeros(len(uniq), dtype=complex)
        np.add.at(acc, inv, coeffs)
        if len(acc):
            worst = running_max(worst, np.max(np.abs(acc)))
    return worst


def _layer_words(alg, N, sample=None, rng=None):
    """All reduced cyclic basis words with N slots beyond slot 0, or a
    seeded sample of that layer."""
    dim = alg.dim
    reduced = np.array([i for i in range(dim) if i != alg.unit_index], dtype=np.int64)
    count = dim * len(reduced) ** N if N else dim
    if sample is not None and count > sample:
        cols = [rng.integers(0, dim, size=sample)]
        for _ in range(N):
            cols.append(reduced[rng.integers(0, len(reduced), size=sample)])
        return np.stack(cols, axis=1).astype(np.int64), True
    grids = np.meshgrid(np.arange(dim), *([reduced] * N), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64), False


def complex_axiom_residuals(alg: DgAlgebra, max_slots=6, sample=None, seed=0) -> ValidationReport:
    """d^2, b^2, B^2 and the three anticommutators on basis word layers.

    Words carry at most max_slots slots in total.  With sample set, any
    layer larger than the sample size is drawn at random (seeded) and
    the report notes it.
    """
    va = _VecAlg(alg)
    ops = {"d": _apply_d, "b": _apply_b, "B": _apply_B}
    pairs = [("d", "d"), ("b", "b"), ("B", "B"), ("d", "b"), ("d", "B"), ("b", "B")]
    worst = {p: 0.0 for p in pairs}
    rng = np.random.default_rng(seed)
    sampled = False
    n_words = 0
    for N in range(0, max_slots):
        words, was_sampled = _layer_words(alg, N, sample=sample, rng=rng)
        sampled = sampled or was_sampled
        n_words += len(words)
        coeffs = np.ones(len(words), dtype=complex)
        first = {name: op(va, words, coeffs) for name, op in ops.items()}
        for name_a, name_b in pairs:
            chunks = []
            for w, c in first[name_b]:
                chunks.extend(ops[name_a](va, w, c))
            if name_a != name_b:
                for w, c in first[name_a]:
                    chunks.extend(ops[name_b](va, w, c))
            worst[(name_a, name_b)] = running_max(worst[(name_a, name_b)], _accumulate_max(va, chunks))
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
            nz = np.nonzero(np.abs(v) > 0)[0]
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
    """((d + b - B)^dual)^2 l = 0, checked chain-side on 50 random words."""
    from .chains import d_total

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(0, 4))
        w = random_basis_word(alg, CYCLIC, N, rng)
        c = Chain.basis_word(alg, CYCLIC, w)
        worst = running_max(worst, d_total(d_total(c)).norm())
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
    """CStr kills supercommutators; the rotation identity holds, q in {0,1,2}."""
    rng = np.random.default_rng(seed)
    worst_comm, worst_cyc = 0.0, 0.0
    for t in range(n_tuples):
        q = int(rng.integers(0, 3))
        p = int(rng.integers(2, 4))
        cm = standard_clifford_module(q, p, p if q == 0 else None)
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
    rep = ValidationReport("clifford-supertrace")
    rep.add("kills-supercommutators", worst_comm, 1e-9, "CStr([A, B]) = 0 on equivariant pairs")
    rep.add("rotation-identity", worst_cyc, 1e-9,
            "signed rotations of the bracket sum to the out-front form")
    rep.notes["n_tuples"] = n_tuples
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
