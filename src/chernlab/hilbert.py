"""Graded Hilbert spaces, Clifford actions, supertraces and simplex heat
brackets.

Every Clifford module here comes from spinor_step, which tensors a C_q
module with C^{1|1} to give a C_{q+1} or C_{q+2} module; the standard
module S_q (x) C^{p_plus|p_minus} exists for every q.  Spaces and modules
are frozen: their arrays are read-only copies taken on construction.

The bracket {A_1, ..., A_N}_H is the integral of
e^{-t1 H} A_1 e^{-(t2-t1) H} ... A_N e^{-(1-tN) H} over the ordered
simplex 0 <= t1 <= ... <= tN <= 1.  The primary evaluator embeds the
factors into an augmented block matrix whose exponential carries the
integral in its top-right block (exact up to the expm kernel); an
independent Gauss-Legendre recursion serves as a cross-check.  Chains whose
bands are constant (block Toeplitz) take toeplitz_exp_row on their first
block row instead, with the dense engine as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm, expm_frechet

from .report import ValidationReport, _frozen, _set_frozen, running_max

N_BRACKET_MAX = 12


class HilbertError(ValueError):
    pass


def gauss_legendre_01(nodes):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = leggauss(int(nodes))
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True, eq=False)
class GradedHilbert:
    """Finite-dimensional Z2-graded Hilbert space."""

    parity: np.ndarray  # +1 / -1 per basis vector, stored as a read-only copy

    def __post_init__(self):
        _set_frozen(self, parity=_frozen(self.parity, dtype=int))
        if not np.all(np.abs(self.parity) == 1):
            raise HilbertError("parity entries must be +1 or -1")

    @property
    def dim(self):
        return len(self.parity)

    @property
    def gamma_grading(self) -> np.ndarray:
        return np.diag(self.parity.astype(complex))

    def operator_parity(self, A, tol=1e-12):
        """0 (even), 1 (odd) or None if mixed."""
        G = self.parity.astype(float)
        even_res = np.max(np.abs(A - (G[:, None] * A * G[None, :])))
        odd_res = np.max(np.abs(A + (G[:, None] * A * G[None, :])))
        scale = max(1.0, float(np.max(np.abs(A))))
        if even_res <= tol * scale:
            return 0
        if odd_res <= tol * scale:
            return 1
        return None


_EPS = (np.array([[0, 1], [-1, 0]], dtype=complex), np.array([[0, 1j], [1j, 0]], dtype=complex))


def spinor_step(cm: CliffordModule, k) -> CliffordModule:
    """The C_{q+k} module on C^{1|1} (x) H of a C_q module on H, k = 1 or 2:
    grading sigma_3 (x) Gamma, old generators 1 (x) e_i, new ones eps_j (x) Gamma."""
    gamma = cm.H.gamma_grading
    gens = [np.kron(np.eye(2), m) for m in cm.e] + [np.kron(eps, gamma) for eps in _EPS[:k]]
    return CliffordModule(GradedHilbert(np.kron([1, -1], cm.H.parity)), cm.q + k, gens)


def _is_count(n):
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0


def standard_clifford_module(q, p_plus, p_minus=0):
    """S_q (x) C^{p_plus|p_minus} for every q: one C_1 spinor step for odd q,
    then C_2 steps, so the spinor module S_q has dimension 2^ceil(q/2).  At
    even q, odd equivariant operators need both p_plus and p_minus > 0."""
    for name, n in (("q", q), ("p_plus", p_plus), ("p_minus", p_minus)):
        if not _is_count(n):
            raise HilbertError(f"{name} must be a nonnegative integer, got {n!r}")
    if p_plus + p_minus == 0:
        raise HilbertError("the space is empty: p_plus + p_minus must be positive")
    cm = CliffordModule(GradedHilbert(np.array([1] * p_plus + [-1] * p_minus)), 0, [])
    for k in [1] * (q % 2) + [2] * (q // 2):
        cm = spinor_step(cm, k)
    return cm


def balanced_clifford_module(q, hdim):
    """The standard C_q module of dimension hdim: multiplicity m = hdim / 2^ceil(q/2),
    split (m // 2, m - m // 2) for even q and purely even for odd q, where S_q
    is its own parity shift."""
    spinor = standard_clifford_module(q, 1).dim
    if not _is_count(hdim) or hdim == 0 or hdim % spinor:
        raise HilbertError(f"hdim must be a positive multiple of 2^ceil(q/2) = {spinor}, got {hdim!r}")
    m = hdim // spinor
    p_minus = 0 if q % 2 else m - m // 2
    return standard_clifford_module(q, m - p_minus, p_minus)


@dataclass(frozen=True, eq=False)
class CliffordModule:
    """Graded Hilbert space with an action of the complex Clifford algebra."""

    H: GradedHilbert
    q: int
    e: tuple  # generators, stored as read-only copies

    def __post_init__(self):
        # read-only copies: the volume element below is built from them once
        _set_frozen(self, e=tuple(_frozen(m) for m in self.e))
        if len(self.e) != self.q:
            raise HilbertError("need exactly q generator matrices")
        for m in self.e:
            if m.shape != (self.H.dim, self.H.dim):
                raise HilbertError("generator has wrong shape")
        out = np.eye(self.dim, dtype=complex)
        for m in self.e:
            out = out @ m
        _set_frozen(self, _volume=_frozen(out))

    @property
    def dim(self):
        return self.H.dim

    def volume_element(self) -> np.ndarray:
        """e_1 ... e_q (read-only)."""
        return self._volume

    def supercommutes(self, A) -> float:
        """Max residual of the supercommutators [e_i, A] (graded)."""
        par = self.H.operator_parity(A, tol=1e-9)
        if par is None:
            raise HilbertError("operator has no pure parity")
        res = 0.0
        for m in self.e:
            sign = (-1.0) ** par  # e_i odd
            res = max(res, float(np.max(np.abs(m @ A - sign * A @ m), initial=0.0)))
        return res

    def project_equivariant(self, A, parity) -> np.ndarray:
        """Project onto operators of given parity supercommuting with C_q.

        The graded commutation [e_i, A] = 0 reads e_i A e_i^{-1} = A for
        even A and = -A for odd A; the per-generator conjugations commute,
        so one sequential pass projects exactly.
        """
        G = self.H.parity.astype(float)
        sign = (-1.0) ** parity
        A = 0.5 * (A + sign * (G[:, None] * A * G[None, :]))
        for m in self.e:
            A = 0.5 * (A - sign * (m @ A @ m))
        return A


def clifford_validate(cm: CliffordModule) -> ValidationReport:
    """Relations e_i e_j + e_j e_i = -2 delta_ij, skew-adjointness, oddness."""
    tol = 1e-12
    rep = ValidationReport(f"clifford:q={cm.q},dim={cm.dim}")
    d = cm.dim
    G = cm.H.parity.astype(float)
    rel = skew = odd = 0.0
    for i, ei in enumerate(cm.e):
        for j, ej in enumerate(cm.e):
            target = -2.0 * np.eye(d) if i == j else np.zeros((d, d))
            rel = running_max(rel, np.max(np.abs(ei @ ej + ej @ ei - target), initial=0.0))
        skew = running_max(skew, np.max(np.abs(ei.conj().T + ei)))
        odd = running_max(odd, np.max(np.abs(ei + G[:, None] * ei * G[None, :])))
    rep.add("clifford-relations", rel, tol, "e_i e_j + e_j e_i = -2 delta_ij")
    rep.add("skew-adjoint", skew, tol, "e_i* = -e_i")
    rep.add("generators-odd", odd, tol, "e_i anticommutes with the grading")
    gsq = float(np.max(np.abs(cm.H.gamma_grading @ cm.H.gamma_grading - np.eye(d))))
    rep.add("grading-involution", gsq, tol, "grading squares to one")
    return rep


def supertrace(H: GradedHilbert, A) -> complex:
    """Str(A) = Tr(grading * A)."""
    return complex(np.sum(H.parity * np.diagonal(A)))


def cstr(cm: CliffordModule, A) -> complex:
    """Clifford supertrace 2^{-q} Str(gamma A), gamma the volume element."""
    return complex(2.0 ** (-cm.q) * supertrace(cm.H, cm.volume_element() @ A))


def trace_norm(A) -> float:
    """Schatten-1 norm via singular values."""
    return float(np.sum(np.linalg.svd(A, compute_uv=False)))


# -- block-exponential kernels ---------------------------------------------------


def _assemble(diag, bands):
    """Dense matrix of a banded block chain.

    diag: list of K+1 diagonal blocks.  bands: dict mapping a step size
    s >= 0 to a dict {j: block} placing a block from node j to node j+s
    (nodes 0-based; a step-0 block replaces the diagonal block of node j).
    """
    K = len(diag) - 1
    d = diag[0].shape[0]
    G = np.zeros(((K + 1) * d, (K + 1) * d), dtype=complex)
    for j, Dj in enumerate(diag):
        G[j * d : (j + 1) * d, j * d : (j + 1) * d] = Dj
    for step, placed in bands.items():
        for j, block in placed.items():
            if block is None:
                continue
            G[j * d : (j + 1) * d, (j + step) * d : (j + step + 1) * d] = block
    return G


def _top_row(E, d):
    """The d x d blocks (0, 0), ..., (0, K) of a (K+1)d x (K+1)d matrix."""
    return [E[0:d, k * d : (k + 1) * d] for k in range(E.shape[1] // d)]


def chain_exp_row(diag, bands):
    """Top block row of expm of a block upper-banded matrix.

    Layout as in _assemble.  The chain is block upper-triangular, so
    block (0, k) is the top-right block of the chain cut to nodes 0..k:
    one exponential at the top degree gives every shorter prefix.
    """
    return _top_row(expm(_assemble(diag, bands)), diag[0].shape[0])


def chain_exp_topright(diag, bands):
    """Top-right block expm(G)[0:d, K*d:(K+1)*d] of a banded chain."""
    return chain_exp_row(diag, bands)[-1]


def marked_chain_exp_row(diag, bands, marked):
    """Top block rows of E = expm(G) and of the paths with one marked step.

    Layout as in chain_exp_row; marked maps step sizes (0 allowed) to
    {j: block}.  The sum over paths carrying exactly one marked step is
    the top-right block of expm([[G, M], [0, G]]), which is the Frechet
    derivative L(G, M) of the exponential at G in the direction M
    (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 2009).  Returns the
    two rows (E blocks, L blocks).
    """
    d = diag[0].shape[0]
    zeros = [np.zeros((d, d), dtype=complex)] * len(diag)
    E, L = expm_frechet(_assemble(diag, bands), _assemble(zeros, marked))
    return _top_row(E, d), _top_row(L, d)


def marked_chain_exp_topright(diag, bands, marked):
    """Sum over paths from node 0 to node K carrying exactly one marked step."""
    return marked_chain_exp_row(diag, bands, marked)[1][-1]


def toeplitz_exp_row(blocks, K):
    """Blocks (0, 0), ..., (0, K) of expm(G), G the block upper-triangular
    Toeplitz matrix with blocks[t] on every block of diagonal t.

    Such matrices form an algebra fixed by their first block row, so G is
    never formed (Higham, Functions of Matrices, 2008, ch. 10; Al-Mohy and
    Higham, SIAM J. Sci. Comput. 33, 2011).  s makes 2^-s sum_t |blocks[t]|_1,
    a bound on |G / 2^s|_1, at most 1; the degree-18 Taylor polynomial of
    G / 2^s, in Horner form with one product per band per step, leaves a
    remainder below sum_{k>18} 1/k! < 1e-17; each of the s squarings is one
    product of the row with the block-Toeplitz matrix built from it.  The
    cost is O(K^2) products of d x d blocks where expm of G takes O(K^3).
    """
    blocks = [np.asarray(B, dtype=complex) for B in blocks[: K + 1]]
    norm = sum(float(np.linalg.norm(B, 1)) for B in blocks)
    if not math.isfinite(norm):
        raise HilbertError(f"chain blocks must be finite, got a 1-norm sum of {norm}")
    s = max(0, math.ceil(math.log2(norm))) if norm > 0 else 0
    X, d = [B / 2.0**s for B in blocks], blocks[0].shape[0]
    eye, row, n = np.eye(d, dtype=complex), np.zeros((K + 1, d, d), dtype=complex), 1
    row[0] = eye
    for k in range(18, 0, -1):
        n = min(K + 1, n + len(X) - 1)  # blocks n.. of the row are still zero
        nxt = np.zeros_like(row)
        for t, Xt in enumerate(X[:n]):
            nxt[t:n] += Xt @ row[: n - t]
        row = nxt / k
        row[0] += eye
    R, T = np.concatenate(row, axis=1), np.zeros(((K + 1) * d,) * 2, dtype=complex)
    for _ in range(s):
        for i in range(K + 1):  # block (i, j) of the Toeplitz matrix is block j - i of the row
            T[i * d : (i + 1) * d, i * d :] = R[:, : R.shape[1] - i * d]
        R = R @ T
    return np.split(R, K + 1, axis=1)


def heat_bracket(H, A_list, check=True):
    """Simplex heat bracket via the augmented block exponential."""
    H = np.asarray(H, dtype=complex)
    A_list = [np.asarray(A, dtype=complex) for A in A_list]
    N = len(A_list)
    if N > N_BRACKET_MAX:
        raise HilbertError(f"bracket arity {N} exceeds the bound {N_BRACKET_MAX}")
    if check:
        if np.max(np.abs(H - H.conj().T)) > 1e-10 * max(1.0, float(np.max(np.abs(H)))):
            raise HilbertError("H must be Hermitian")
        w = np.linalg.eigvalsh(H)
        if w.min() < -1e-10 * max(1.0, abs(w.max())):
            raise HilbertError("H must be positive semidefinite")
    diag = [-H] * (N + 1)
    bands = {1: {j: A_list[j] for j in range(N)}}
    return chain_exp_topright(diag, bands)


def bracket_oracle(H, A_list, nodes=64):
    """Gauss-Legendre recursion for the bracket, independent of expm.

    Uses {A_1, ..., A_N}_{cH} = int_0^1 (1-u)^{N-1} e^{-u c H} A_1
    {A_2, ..., A_N}_{(1-u) c H} du and a single eigendecomposition of H.
    The outermost integral uses the requested node count; deeper levels
    use 16 nodes (the integrands are entire, so accuracy stays far
    below the cross-check tolerance while the batch stays bounded).
    """
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    w_eig, V = np.linalg.eigh(H)
    # work in the eigenbasis: heat factors are diagonal scalings there
    ops_e = [V.conj().T @ np.asarray(A, dtype=complex) @ V for A in A_list]
    rules = [gauss_legendre_01(nodes)] + [gauss_legendre_01(16)] * max(0, len(A_list) - 1)

    def rec(scales, ops, level):
        # returns {ops}_{c H} in the eigenbasis for every scale c,
        # shape (len(scales), d, d); arity zero is the diagonal heat
        if not ops:
            out = np.zeros((len(scales), d, d), dtype=complex)
            idx = np.arange(d)
            out[:, idx, idx] = np.exp(-np.outer(scales, w_eig))
            return out
        n_ops = len(ops)
        u, w = rules[level]
        child_scales = np.multiply.outer(scales, 1.0 - u).reshape(-1)
        inner = rec(child_scales, ops[1:], level + 1)
        inner = ops[0] @ inner  # (B*nodes, d, d)
        inner = inner.reshape(len(scales), len(u), d, d)
        front = np.exp(-np.multiply.outer(scales, u)[:, :, None] * w_eig[None, None, :])
        weight = w * (1.0 - u) ** (n_ops - 1)
        return np.einsum("n,bni,bnil->bil", weight, front, inner, optimize=True)

    out = rec(np.array([1.0]), ops_e, 0)[0]
    return V @ out @ V.conj().T


def simplex_bracket_quadrature(H, A_list, nodes=16, weight=None):
    """Iterated Gauss-Legendre quadrature straight over the simplex.

    Intended for small arities in tests.  weight(tau_ext) multiplies the
    integrand; tau_ext = (0, tau_1, ..., tau_N, 1).
    """
    H = np.asarray(H, dtype=complex)
    N = len(A_list)
    if N == 0:
        return expm(-H)
    w_eig, V = np.linalg.eigh(H)

    def heat(t):
        return (V * np.exp(-t * w_eig)) @ V.conj().T

    x, w = gauss_legendre_01(nodes)
    out = np.zeros_like(H)

    def rec(k, lo, taus, acc_weight):
        nonlocal out
        # tau_k runs over [lo, 1]; map GL nodes onto it
        span = 1.0 - lo
        for xi, wi in zip(x, w):
            tk = lo + span * xi
            new = taus + [tk]
            if k == N:
                taus_ext = [0.0] + new + [1.0]
                val = heat(new[0])
                for idx, A in enumerate(A_list):
                    val = val @ A @ heat(taus_ext[idx + 2] - taus_ext[idx + 1])
                wgt = acc_weight * wi * span
                if weight is not None:
                    wgt *= weight(taus_ext)
                out += wgt * val
            else:
                rec(k + 1, tk, new, acc_weight * wi * span)

    rec(1, 0.0, [], 1.0)
    return out


def bracket_insert_unit(H, A_list, j):
    """{A_1, ..., A_j, 1, A_(j+1), ..., A_N}_H."""
    ops = list(A_list)
    d = H.shape[0]
    ops.insert(j, np.eye(d, dtype=complex))
    return heat_bracket(H, ops)


def bracket_split_quadrature(H, A_list, B, k, nodes=64):
    """Right-hand side of the split identity, by u-quadrature:

    int_0^1 u^{k-1} (1-u)^{N-(k-1)} {A_1..A_{k-1}}_{uH} B {A_k..A_N}_{(1-u)H} du
    """
    H = np.asarray(H, dtype=complex)
    N = len(A_list)
    left, right = A_list[: k - 1], A_list[k - 1 :]
    u, w = gauss_legendre_01(nodes)
    out = np.zeros_like(H)
    for ui, wi in zip(u, w):
        lhs = heat_bracket(ui * H, left, check=False)
        rhs = heat_bracket((1.0 - ui) * H, right, check=False)
        out += wi * ui ** (k - 1) * (1.0 - ui) ** (N - (k - 1)) * (lhs @ B @ rhs)
    return out


def cstr_cyclic_sum(cm: CliffordModule, H, A_list):
    """Residual of the rotation identity for the Clifford supertrace.

    A_list = [A_0, ..., A_N]; all inputs must supercommute with the
    Clifford action.  Returns |sum_j (-1)^{k_j} CStr({A_{j+1}, ..., A_j}_H)
    - CStr(A_0 {A_1, ..., A_N}_H)| together with the two values.
    """
    H = np.asarray(H, dtype=complex)
    A_list = [np.asarray(A, dtype=complex) for A in A_list]
    parities = []
    for A in A_list:
        p = cm.H.operator_parity(A, tol=1e-9)
        if p is None:
            raise HilbertError("inputs must have pure parity")
        scale = max(1.0, float(np.max(np.abs(A))))
        if cm.supercommutes(A) > 1e-10 * scale:
            raise HilbertError("inputs must supercommute with the Clifford action")
        parities.append(p)
    if cm.H.operator_parity(H, tol=1e-9) != 0:
        raise HilbertError("H must be even")
    N = len(A_list) - 1
    rhs = cstr(cm, A_list[0] @ heat_bracket(H, A_list[1:], check=False))
    lhs = 0.0 + 0.0j
    for j in range(N + 1):
        kj = (sum(parities[: j + 1]) * sum(parities[j + 1 :])) % 2
        rotated = A_list[j + 1 :] + A_list[: j + 1]
        lhs += (-1.0) ** kj * cstr(cm, heat_bracket(H, rotated, check=False))
    return abs(lhs - rhs), lhs, rhs
