"""Theta-summable Clifford Fredholm modules and their Chern characters.

Modules are frozen: c_mats and Q are read-only copies taken on
construction, and the caches built from them (M.curvature and
M._phi_cache) live as long as the module.  dataclasses.replace makes a
changed module, with empty caches.

Provides module validation, the acyclic extension, doubling of odd
modules, the curvature cochain, the quantization map (heat-kernel
expansion of the curvature), the Chern character, coclosedness and
Chen-vanishing checks, homotopies with their Chern-Simons transgression,
and the closed-form odd character used for the trivially graded
comparison.

The quantization map on a word with N slots is evaluated through one
augmented block exponential: nodes 0..N carry -T Q^2 on the diagonal,
arity-1 curvature blocks on the first superdiagonal and arity-2 blocks
on the second; the top-right block of the exponential is the full sum
over ordered partitions.  _HalfFrame.bands builds that chain for every
word, in the Clifford half-frame, for quantize, psi_eval and the pairing
rows.  The full-size Curvature.F1 and F2 and the explicit partition
enumeration, quantize_partitions, are kept as independent cross-checks.

M._phi_cache holds, per (T, basis word), a read-only copy of that reduced
top-right block and its parity p, never the lifted matrix or a view into
the exponential.  quantize lifts the block on return.  Every CStr(c(theta_0)
lift(phi, p)) (chern_eval, the Chern-Simons form, the pairing rows) is one
row of the frame's CStr table (theta_0 . W_p) times the flattened block,
with no lift and no supertrace; hilbert.cstr remains the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .algebra import DgAlgebra
from .chains import BAR_RED, CYCLIC, Chain, _floor_half_factorial, alpha_map, bar_differential_terms, d_total
from .chains import _prefix_parities, chen_R, chen_S, chen_Si, chen_Ti, d_total_terms, random_basis_word
from .cochains import OperatorBarCochain, slot_degree, word_to_vecs
from .hilbert import (
    CliffordModule,
    GradedHilbert,
    HilbertError,
    N_BRACKET_MAX,
    chain_exp_topright,
    gauss_legendre_01,
    heat_bracket,
    marked_chain_exp_topright,
    spinor_step,
    trace_norm,
)
from .report import ValidationReport, _frozen, _set_frozen, running_max


MODULE_TOL = 1e-12  # module_validate and the half-frame guard of quantize


class ModuleError(ValueError):
    pass


# -- module types -----------------------------------------------------------------


class _Representation:
    """The representation c of a module, from its table c_mats."""

    def c(self, theta):
        """Representation applied to a coefficient vector or basis index."""
        if isinstance(theta, (int, np.integer)):
            return self.c_mats[int(theta)]
        return np.einsum("i,ijk->jk", np.asarray(theta, dtype=complex), self.c_mats)


@dataclass(frozen=True, eq=False)
class CqFredholmModule(_Representation):
    """(H, c, Q) with a Clifford action; weak modules drop multiplicativity.
    Frozen: a changed module is dataclasses.replace(M, Q=...), with empty caches."""

    alg: DgAlgebra
    cm: CliffordModule
    c_mats: np.ndarray  # (alg.dim, h, h)
    Q: np.ndarray
    weak: bool = True
    name: str = "module"
    _phi_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _set_frozen(self, c_mats=_frozen(self.c_mats), Q=_frozen(self.Q))
        h = self.cm.dim
        if self.c_mats.shape != (self.alg.dim, h, h):
            raise ModuleError("c_mats has wrong shape")
        if self.Q.shape != (h, h):
            raise ModuleError("Q has wrong shape")

    @cached_property
    def curvature(self) -> "Curvature":
        """The curvature tables, built on first use."""
        return Curvature(self)

    @property
    def hdim(self):
        return self.cm.dim

    @property
    def q(self):
        return self.cm.q

    @property
    def Q2(self):
        return self.Q @ self.Q

    def delta_operator(self):
        """Delta = Q^2 + 1, recorded with validation reports."""
        return self.Q2 + np.eye(self.hdim)


@dataclass(frozen=True, eq=False)
class OddFredholmModule(_Representation):
    """Ungraded (H, c, Q); the doubling produces a q = 1 module.  Frozen."""

    alg: DgAlgebra
    c_mats: np.ndarray
    Q: np.ndarray
    weak: bool = True
    name: str = "odd-module"

    def __post_init__(self):
        _set_frozen(self, c_mats=_frozen(self.c_mats), Q=_frozen(self.Q))
        if self.c_mats.ndim != 3 or self.c_mats.shape[0] != self.alg.dim:
            raise ModuleError("c_mats has wrong shape")
        if self.Q.shape != self.c_mats.shape[1:]:
            raise ModuleError("Q has wrong shape")

    @property
    def hdim(self):
        return self.c_mats.shape[1]


def _strong_residuals(alg, c_stack, Q, rep):
    """Multiplicativity and [Q, c(f)] = c(df) over the degree-0 basis."""
    mults, qcomm = 0.0, 0.0
    for fi in alg.degree0_indices():
        cf = c_stack[fi]
        cdf = np.einsum("i,ijk->jk", alg.diff[:, fi], c_stack)
        comm = Q @ cf - cf @ Q
        qcomm = running_max(qcomm, np.max(np.abs(comm - cdf)))
        for j in range(alg.dim):
            cprod = np.einsum("i,ijk->jk", alg.mul[fi, j], c_stack)
            mults = running_max(mults, np.max(np.abs(cprod - cf @ c_stack[j])))
            cprod = np.einsum("i,ijk->jk", alg.mul[j, fi], c_stack)
            mults = running_max(mults, np.max(np.abs(cprod - c_stack[j] @ cf)))
    rep.add("commutator-rule", qcomm, MODULE_TOL, "[Q, c(f)] = c(df) for degree-0 f")
    rep.add("multiplicativity", mults, MODULE_TOL, "c(f a) = c(f) c(a), c(a f) = c(a) c(f)")


_Q_CHECKS = (("Q-hermitian", "Q = Q*"),
             ("Q-odd", "Q anticommutes with the grading"),
             ("Q-clifford-equivariance", "Q supercommutes with the C_q action"))


def _odd_operator_residuals(cm: CliffordModule, X):
    """Residuals of X = X*, G X = -X G and e X = -X e for every C_q generator e,
    in the order of _Q_CHECKS."""
    G = cm.H.parity.astype(float)
    equiv = 0.0
    for e in cm.e:
        equiv = running_max(equiv, np.max(np.abs(e @ X + X @ e)))
    return (float(np.max(np.abs(X - X.conj().T))),
            float(np.max(np.abs(X + G[:, None] * X * G[None, :]))),
            equiv)


def module_validate(M) -> ValidationReport:
    """Residuals of all structural module axioms; weak skips multiplicativity."""
    tol = MODULE_TOL
    if isinstance(M, OddFredholmModule):
        rep = ValidationReport(f"odd-module:{M.name}")
        unit_res = float(np.max(np.abs(M.c(M.alg.unit_index) - np.eye(M.hdim))))
        rep.add("unit-representation", unit_res, tol, "c(1) = 1")
        rep.add("Q-hermitian", float(np.max(np.abs(M.Q - M.Q.conj().T))), tol, "Q = Q*")
        if not M.weak:
            _strong_residuals(M.alg, M.c_mats, M.Q, rep)
        return rep

    rep = ValidationReport(f"module:{M.name}")
    h = M.hdim
    unit_res = float(np.max(np.abs(M.c(M.alg.unit_index) - np.eye(h))))
    rep.add("unit-representation", unit_res, tol, "c(1) = 1")
    G = M.cm.H.parity.astype(float)
    grading = 0.0
    equivariance = 0.0
    for i in range(M.alg.dim):
        sign = (-1.0) ** (int(M.alg.degree[i]) % 2)
        ci = M.c_mats[i]
        grading = running_max(grading, np.max(np.abs(ci - sign * (G[:, None] * ci * G[None, :]))))
        for e in M.cm.e:
            equivariance = running_max(equivariance, np.max(np.abs(e @ ci - sign * ci @ e)))
    rep.add("grading-preserving", grading, tol, "c maps degree parity to operator parity")
    rep.add("clifford-equivariance", equivariance, tol, "c(a) supercommutes with the C_q action")
    for (check_id, formula), residual in zip(_Q_CHECKS, _odd_operator_residuals(M.cm, M.Q)):
        rep.add(check_id, residual, tol, formula)
    if not M.weak:
        _strong_residuals(M.alg, M.c_mats, M.Q, rep)
    delta = M.delta_operator()  # a non-finite Q fails Q-hermitian above; eigvalsh raises on it
    rep.notes["delta_max_eig"] = float(np.linalg.eigvalsh(delta).max()) if np.isfinite(delta).all() else float("nan")
    return rep


# -- constructions ------------------------------------------------------------------


def acyclic_extend_module(M, ext_alg=None):
    """Extend over the acyclic extension: c_T(a + sigma b) = c(a); weak."""
    from .algebra import acyclic_extension

    alg_T = ext_alg if ext_alg is not None else acyclic_extension(M.alg)
    if alg_T.base_dim != M.alg.dim:
        raise ModuleError("extension algebra does not match the module's algebra")
    c_ext = np.concatenate([M.c_mats, np.zeros_like(M.c_mats)], axis=0)
    if isinstance(M, OddFredholmModule):
        return OddFredholmModule(alg_T, c_ext, M.Q, weak=True, name=M.name + "_T")
    return CqFredholmModule(alg_T, M.cm, c_ext, M.Q, weak=True, name=M.name + "_T")


def double_odd(M: OddFredholmModule) -> CqFredholmModule:
    """The C_1 spinor step on H with the trivial grading: even c becomes
    1 (x) c, odd c and Q become sigma_1 (x) X."""
    cm = spinor_step(CliffordModule(GradedHilbert(np.ones(M.hdim)), 0, []), 1)
    sigma1 = np.array([[0, 1], [1, 0]])
    c_ext = np.stack([np.kron(sigma1 if p else np.eye(2), c)
                      for p, c in zip(M.alg.parity_tuple, M.c_mats)])
    return CqFredholmModule(M.alg, cm, c_ext, np.kron(sigma1, M.Q), weak=M.weak, name=M.name + "~")


def matrix_module(M: OddFredholmModule, m: int, lifted_alg=None) -> OddFredholmModule:
    """M^(m) on H^m over Mat_m of the algebra: c(B_a (x) e_i) = B_a (x) c(e_i)
    with B_a from the basis that the lift mat_lift(M.alg, m) owns; M^(1) is M itself."""
    from .algebra import mat_lift

    if m == 1:
        return M
    lifted = lifted_alg if lifted_alg is not None else mat_lift(M.alg, m)
    if lifted.matrix_size != m or lifted.dim != m * m * M.alg.dim:
        raise ModuleError(f"{lifted!r} is not Mat_{m} of the module's algebra")
    c_out = np.zeros((lifted.dim, m * M.hdim, m * M.hdim), dtype=complex)
    for a, B in enumerate(lifted.matrix_basis):
        for i in range(M.alg.dim):
            c_out[a * M.alg.dim + i] = np.kron(B, M.c_mats[i])
    Q_out = np.kron(np.eye(m), M.Q)
    return OddFredholmModule(lifted, c_out, Q_out, weak=M.weak, name=M.name + f"^({m})")


def conjugate_module(M: CqFredholmModule, U) -> CqFredholmModule:
    """Unitary image U M U*; U must intertwine grading and Clifford action."""
    Uh = U.conj().T
    c_new = np.einsum("ab,ibc,cd->iad", U, M.c_mats, Uh)
    return CqFredholmModule(M.alg, M.cm, c_new, U @ M.Q @ Uh, weak=M.weak, name=M.name + "_conj")


# -- curvature and quantization --------------------------------------------------------


class Curvature:
    """Components of delta(omega) + omega^2: full-size F_1 and F_2, and the half-frame."""

    def __init__(self, M):
        self.M = M
        alg = M.alg
        deg = alg.degree
        stack = M.c_mats
        f1 = np.zeros_like(stack)
        for i in range(alg.dim):
            sign = (-1.0) ** (int(deg[i]) % 2)
            f1[i] = M.Q @ stack[i] - sign * stack[i] @ M.Q - M.c(alg.diff[:, i])
        self.f1_table = f1
        self.sign_vec = (-1.0) ** (np.asarray(deg) % 2)

    @cached_property
    def frame(self) -> "_HalfFrame":
        """The tables in the Clifford half-frame, built on first use."""
        return _HalfFrame(self)

    def F1(self, vec):
        return np.einsum("i,ijk->jk", np.asarray(vec, dtype=complex), self.f1_table)

    def F2(self, vec1, vec2):
        rows = _f2_rows(self.M.alg.mul, self.M.c_mats, self.sign_vec, vec1)
        return np.tensordot(np.asarray(vec2, dtype=complex), rows, axes=1)


def _f2_rows(mul, c, sign_vec, u):
    """F_2(u, e_j) = (-1)^{|u|} (c(u e_j) - c(u) c_j) for every basis index j,
    stacked on axis 0; c is a table of c_j (full or in the half-frame)."""
    su = np.asarray(u, dtype=complex) * sign_vec
    return np.tensordot(np.tensordot(su, mul, axes=1), c, axes=1) - np.tensordot(su, c, axes=1) @ c


def _is_basis_word(word):
    return not len(word) or isinstance(word[0], (int, np.integer))


class _HalfFrame:
    """Curvature chains of words, reduced to half the space when q >= 1.

    P = Gamma e_1 is a Hermitian involution that commutes with every
    C_q-equivariant operator (an even one commutes with Gamma and e_1, an
    odd one anticommutes with both).  With U_+ an orthonormal basis of its
    +1 eigenspace and U_- = e_1 U_+, an equivariant X of parity p is
    U_+ X_+ U_+* + (-1)^p U_- X_+ U_-* with X_+ = U_+* X U_+.  Every block
    of the chain of a word of basis indices or of homogeneous coefficient
    vectors is equivariant, and the chain's top-right block has the parity
    p of the word, so one exponential of the reduced chain gives Phi.  For
    q = 0 the frame is the identity.

    The frame is trusted only after a guard: c_i (parity |i|) and Q (odd)
    must be block-diagonal in (U_+, U_-) with the signed lower block, to
    MODULE_TOL max(1, max|c|, max|Q|), the tolerance of module_validate.
    """

    def __init__(self, cur: Curvature):
        M = cur.M
        self.M, self.alg = M, M.alg
        self.sign_vec = cur.sign_vec
        self.U = None if M.q == 0 else _half_frame_basis(M, cur.sign_vec)
        self.Uh = None if M.q == 0 else self.U.conj().T
        self.c, self.f1_table, self.q2 = (self.reduce(X) for X in (M.c_mats, cur.f1_table, M.Q2))
        self._rows = {}

    def reduce(self, X):
        """X_+ = U_+* X U_+ of an equivariant X (or of a stack of them)."""
        if self.U is None:
            return X
        Up = self.U[:, : self.U.shape[0] // 2]
        return Up.conj().T @ X @ Up

    def f1(self, v):
        """F_1(v) of a coefficient vector, in the frame."""
        return np.tensordot(v, self.f1_table, axes=1)

    def f2(self, i, j):
        """F_2(e_i, e_j) in the frame, one row i at a time."""
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = _f2_rows(self.alg.mul, self.c, self.sign_vec, np.eye(self.alg.dim)[i])
        return row[j]

    def bands(self, T, word):
        """(diag, bands) of Phi_T on a word: -T Q^2 on nodes 0..N, -T F_1(theta_j)
        one step up, -T F_2(theta_j, theta_j+1) two steps up; and the prefix
        parities n_k = sum_{j<k} (|theta_j| + 1) mod 2, n_N the chain's.  Basis
        words read table rows; coefficient-vector words build each block once
        per slot object, with degrees from slot_degree (CochainError if mixed).
        """
        diag = [-T * self.q2] * (len(word) + 1)
        if _is_basis_word(word):
            one = [-T * self.f1_table[i] for i in word]
            two = [-T * self.f2(i, k) for i, k in zip(word, word[1:])]
            degrees = [self.alg.parity_tuple[i] for i in word]
        else:
            word = [np.asarray(v, dtype=complex) for v in word]
            singles = {id(v): v for v in word}
            pairs = {(id(u), id(v)): (u, v) for u, v in zip(word, word[1:])}
            f1 = {key: (-T * self.f1(v), slot_degree(self.alg, v)) for key, v in singles.items()}
            f2 = {key: -T * np.tensordot(v, _f2_rows(self.alg.mul, self.c, self.sign_vec, u), axes=1)
                  for key, (u, v) in pairs.items()}
            one, degrees = zip(*(f1[id(v)] for v in word))
            two = [f2[id(u), id(v)] for u, v in zip(word, word[1:])]
        return (diag, {1: dict(enumerate(one)), 2: dict(enumerate(two))}), _prefix_parities(degrees)

    @cached_property
    def cstr_table(self):
        """(W_0, W_1) with CStr(c_i lift(phi, p)) = W_p[i] . vec(phi), built once:
        W_p[i] = (U_+* X_i U_+ + (-1)^p U_-* X_i U_-)^T flattened, with
        X_i = 2^-q Gamma gamma c_i; for q = 0 both are the rows of X_i^T."""
        M = self.M
        G = M.cm.H.parity.astype(float)
        X = 2.0 ** (-M.q) * ((G[:, None] * M.cm.volume_element()) @ M.c_mats)
        if self.U is None:
            W = X.transpose(0, 2, 1).reshape(len(X), -1)
            return W, W
        h2 = self.U.shape[0] // 2
        upper, lower = (self.Uh[:h2] @ X @ self.U[:, :h2], self.Uh[h2:] @ X @ self.U[:, h2:])
        return tuple((upper + sign * lower).transpose(0, 2, 1).reshape(len(X), -1) for sign in (1.0, -1.0))

    @cached_property
    def live_rows(self):
        """Per p, whether W_p[i] has a nonzero entry: CStr(c_i lift(phi, p)) = 0 for every phi if not."""
        return tuple(np.any(W != 0, axis=1) for W in self.cstr_table)

    def lift(self, phi, p):
        """U_+ phi U_+* + (-1)^p U_- phi U_-*, p the parity of the reduced block."""
        if self.U is None:
            return phi
        h2 = phi.shape[0]
        sign = -1.0 if p % 2 else 1.0
        left = np.concatenate([self.U[:, :h2] @ phi, sign * (self.U[:, h2:] @ phi)], axis=1)
        return left @ self.Uh


def _half_frame_basis(M, sign_vec):
    """U = [U_+, e_1 U_+] for a q >= 1 module, after the guard of _HalfFrame;
    sign_vec holds (-1)^{|i|} per basis index."""
    h = M.hdim
    G = M.cm.H.parity.astype(float)
    e1 = M.cm.e[0]
    w, V = np.linalg.eigh(G[:, None] * e1)
    Up = V[:, w > 0]
    if 2 * Up.shape[1] != h:
        raise ModuleError(f"Gamma e_1 has {Up.shape[1]} positive eigenvalues on a {h}-dimensional space")
    U = np.concatenate([Up, e1 @ Up], axis=1)
    h2 = h // 2
    ops = np.concatenate([M.c_mats, M.Q[None]], axis=0)
    signs = np.append(sign_vec, -1.0)
    R = U.conj().T @ ops @ U
    upper, lower = R[:, :h2, :h2], R[:, h2:, h2:]
    residual = 0.0
    for block in (U.conj().T @ U - np.eye(h), R[:, :h2, h2:], R[:, h2:, :h2],
                  lower - signs[:, None, None] * upper):
        residual = running_max(residual, np.max(np.abs(block)))
    scale = running_max(1.0, np.max(np.abs(ops)))
    if not residual <= MODULE_TOL * scale:
        raise ModuleError(
            f"module is not C_q-equivariant in the half-frame of Gamma e_1: residual {residual:.2e}"
            f" > {MODULE_TOL:.0e} * {scale:.3g} (see module_validate)")
    return U


def curvature(M: CqFredholmModule) -> OperatorBarCochain:
    """F as an even operator bar cochain with arities 0, 1, 2 only."""
    cur = M.curvature
    comp = {0: M.Q2, 1: cur.F1, 2: cur.F2}
    return OperatorBarCochain.from_arity_maps(M.alg, M.hdim, 0, comp, label="curvature")


def omega_cochain(M) -> OperatorBarCochain:
    """Odd connection cochain: Q at arity 0, c at arity 1."""
    return OperatorBarCochain.from_arity_maps(M.alg, M.hdim, 1, {0: M.Q, 1: lambda v: M.c(v)},
                                              label="connection")


def _compositions(N, max_blocks=None):
    """Ordered compositions of N into parts of size 1 or 2."""
    out = []

    def rec(rem, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        if max_blocks is not None and len(acc) == max_blocks:
            return
        for p in range(1, min(2, rem) + 1):
            acc.append(p)
            rec(rem - p, acc)
            acc.pop()

    rec(N, [])
    return out


def _as_slot_vecs(alg, word):
    if _is_basis_word(word):
        return word_to_vecs(alg, word)
    return tuple(np.asarray(v, dtype=complex) for v in word)


def _check_word(T, N):
    if T <= 0:
        raise ModuleError("quantization needs T > 0")
    if N > N_BRACKET_MAX:
        raise HilbertError(f"word length {N} exceeds the bracket bound {N_BRACKET_MAX}")


def _reduced_phi(M: CqFredholmModule, T, word):
    """(phi, p): the top-right block of the word's chain in the half-frame and
    its parity.  Basis words are cached per (T, word) as a read-only copy, so
    an entry holds its own h/2 x h/2 block (h x h for q = 0) and not the
    whole exponential."""
    _check_word(T, len(word))
    key = (float(T), tuple(int(i) for i in word)) if _is_basis_word(word) else None
    out = M._phi_cache.get(key)
    if out is None:
        chain, n = M.curvature.frame.bands(T, word if key is None else key[1])
        out = (chain_exp_topright(*chain), n[-1])
        if key is not None:
            out = M._phi_cache[key] = (_frozen(out[0]), out[1])
    return out


def quantize(M: CqFredholmModule, T, word):
    """Heat-kernel quantization of the curvature on one bar word.

    word: tuple of basis indices or homogeneous coefficient vectors (N
    slots).  The chain runs in the half-frame, on half-size blocks when
    q >= 1; basis words cache that reduced block and its parity per
    (T, word), and every call lifts it back to the full space.
    """
    return M.curvature.frame.lift(*_reduced_phi(M, T, word))


def quantize_partitions(M: CqFredholmModule, T, word, max_blocks=None):
    """Phi_T on one bar word by explicit enumeration of the ordered
    partitions into blocks of one or two slots: an independent cross-check
    of quantize.  max_blocks caps the number of blocks, used by
    truncation-matched resummation checks."""
    _check_word(T, len(word))
    slots = _as_slot_vecs(M.alg, word)
    cur = M.curvature
    Q2 = M.Q2
    out = np.zeros((M.hdim, M.hdim), dtype=complex)
    for comp in _compositions(len(slots), max_blocks):
        blocks, pos = [], 0
        for p in comp:
            blocks.append(cur.F1(slots[pos]) if p == 1 else cur.F2(slots[pos], slots[pos + 1]))
            pos += p
        out = out + (-T) ** len(comp) * heat_bracket(T * Q2, blocks, check=False)
    return out


# -- Chern character ---------------------------------------------------------------------


def chern_eval(M: CqFredholmModule, item, T=1.0):
    """CStr(c(theta_0) Phi_T(theta_1, ..., theta_N)), linear in the chain."""
    if isinstance(item, Chain):
        if item.kind != CYCLIC:
            raise ModuleError("chern_eval expects a cyclic chain")
        return _chern_sum(M, item.terms, T)
    return _cstr_of_block(M, item[0], *_reduced_phi(M, T, tuple(item[1:])))


def _cstr_of_block(M, theta, phi, p):
    """CStr(c(theta) lift(phi, p)) as one row of the frame's CStr table times vec(phi);
    theta is a basis index or a coefficient vector."""
    W = M.curvature.frame.cstr_table[p]
    row = W[int(theta)] if isinstance(theta, (int, np.integer)) else np.asarray(theta, dtype=complex) @ W
    return complex(row @ phi.reshape(-1))


def _chern_sum(M, terms, T):
    """Ch of a {word: coeff} mapping, summed in its order."""
    return complex(sum(coeff * chern_eval(M, w, T) for w, coeff in terms.items()))


def coclosed_residual(M: CqFredholmModule, word):
    """((d + b - B)^dual Ch)(word) = (-1)^q Ch((d + b - B) word) of one cyclic
    basis word, at T = 1, with d + b - B on the per-word faces (d_total_terms).
    A term whose CStr row W_p[theta_0] is zero (p the parity of its tail) adds
    0 * vec(Phi), so its chain is not computed."""
    live, par = M.curvature.frame.live_rows, M.alg.parity_tuple
    terms = {w: cf for w, cf in d_total_terms(M.alg, word).items()
             if live[_prefix_parities([par[i] for i in w[1:]])[-1]][w[0]]}
    return (-1.0) ** M.q * _chern_sum(M, terms, 1.0)


def chern_scale(M: CqFredholmModule) -> float:
    """Normalization used for relative residuals: ||e^{-Q^2}||_1."""
    return trace_norm(expm(-M.Q2))


def chern_pullback_residual(M_T: CqFredholmModule, word) -> float:
    """|Ch_{M_T}(c) + alpha^* CStr(Phi_1)(c)| on the cyclic basis word c: the
    pullback identity states Ch_{M_T} = - alpha^* CStr(Phi_1 quotient)."""
    chain = Chain.basis_word(M_T.alg, CYCLIC, word)
    rhs = sum(coeff * _cstr_of_block(M_T, M_T.alg.unit_index, *_reduced_phi(M_T, 1.0, w))
              for w, coeff in alpha_map(chain).terms.items())
    return abs(chern_eval(M_T, chain) + rhs)


def chen_vanish(M: CqFredholmModule, seed=0, n_words=100, ext_alg=None) -> ValidationReport:
    """Ch of the extended module on Chen generator images of random words."""
    if M.weak:
        raise ModuleError("Chen vanishing requires a strong module (multiplicativity)")
    M_T = acyclic_extend_module(M, ext_alg)
    alg_T = M_T.alg
    rng = np.random.default_rng(seed)
    scale = chern_scale(M_T)
    deg0 = [i for i in M.alg.degree0_indices()]
    values = {"S+1": 0.0, "R": 0.0, "S_i^f": 0.0, "T_i^f": 0.0}
    for _ in range(n_words):
        N = int(rng.integers(0, 4))
        w = random_basis_word(alg_T, CYCLIC, N, rng)
        c = Chain.basis_word(alg_T, CYCLIC, w)
        fvec = np.zeros(alg_T.dim, dtype=complex)
        for i in deg0:
            fvec[i] = rng.standard_normal() + 1j * rng.standard_normal()
        f = alg_T.element(fvec)
        i_gap = int(rng.integers(0, N + 1))
        images = {
            "S+1": chen_S(c) + c,
            "R": chen_R(c),
            "S_i^f": chen_Si(f, i_gap, c),
            "T_i^f": chen_Ti(f, i_gap, c),
        }
        for key, img in images.items():
            values[key] = running_max(values[key], abs(chern_eval(M_T, img)))
    rep = ValidationReport(f"chen-vanish:{M.name}")
    for key, val in values.items():
        rep.add(f"vanishes-on-{key}", val / scale, 1e-9, f"Ch of the extension kills {key} images")
    rep.notes["scale"] = scale
    rep.notes["n_words"] = n_words
    return rep


# -- homotopies, the transgression and the Chern-Simons form ------------------------------


@dataclass(frozen=True, eq=False)
class Homotopy:
    """The family Q_s = Q + sV with c fixed: the module M at s = 0 and an odd,
    Hermitian, C_q-equivariant direction V, validated on construction and
    stored as a read-only copy."""

    M: CqFredholmModule
    V: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _set_frozen(self, V=_frozen(self.V))
        if self.V.shape != self.M.Q.shape:
            raise ModuleError("V has wrong shape")
        residuals = _odd_operator_residuals(self.M.cm, self.V)
        bad = [f"{check_id} ({r:.2e})" for (check_id, _), r in zip(_Q_CHECKS, residuals) if not r <= MODULE_TOL]
        if bad:
            raise ModuleError("homotopy direction V fails " + ", ".join(bad))

    @property
    def name(self):
        return self.M.name + "+sV"

    def module(self, s) -> CqFredholmModule:
        key = round(float(s), 14)
        if key not in self._cache:
            self._cache[key] = replace(self.M, Q=self.M.Q + s * self.V, name=f"{self.name}[s={key}]")
        return self._cache[key]

    def extended(self, ext_alg) -> "Homotopy":
        """The same homotopy over the acyclic extension (weak modules)."""
        return Homotopy(acyclic_extend_module(self.M, ext_alg), self.V)


def _reduced_psi(hom: Homotopy, s, T, word):
    """(psi, p): Psi_T of one bar word at M_s in the half-frame and its parity,
    exactly, from a marked block exponential.  V inserted at prefix length a
    carries the Koszul sign (-1)^{n_a} (V is odd; c is fixed, so V is the
    only velocity), and the marked block has parity n_N + 1 mod 2."""
    if len(word) + 1 > N_BRACKET_MAX:
        raise HilbertError("word too long for the bracket bound")
    frame = hom.module(s).curvature.frame
    (diag, bands), n = frame.bands(T, word)
    V = frame.reduce(hom.V)
    marked = {0: {a: (-1.0) ** n[a] * (-T) * V for a in range(len(word) + 1)}}
    return marked_chain_exp_topright(diag, bands, marked), (n[-1] + 1) % 2


def psi_eval(hom: Homotopy, s, T, word):
    """Psi_T = -T int_0^1 Phi_uT V Phi_(1-u)T du on one bar word at M_s."""
    return hom.module(s).curvature.frame.lift(*_reduced_psi(hom, s, T, word))


def psi_quadrature(hom: Homotopy, s, T, word, nodes=48):
    """Independent evaluation of Psi_T at M_s by u-quadrature of the definition."""
    M_s = hom.module(s)
    slots = _as_slot_vecs(M_s.alg, word)
    n = _prefix_parities([slot_degree(M_s.alg, v) for v in slots])  # n_k
    u_nodes, u_w = gauss_legendre_01(nodes)
    out = np.zeros((M_s.hdim, M_s.hdim), dtype=complex)
    for ui, wi in zip(u_nodes, u_w):
        acc = np.zeros_like(out)
        for a in range(len(slots) + 1):
            left = quantize(M_s, ui * T, slots[:a])
            right = quantize(M_s, (1.0 - ui) * T, slots[a:])
            acc += (-1.0) ** n[a] * (left @ hom.V @ right)
        out += wi * acc
    return -T * out


def psi_cochain(hom: Homotopy, s, T) -> OperatorBarCochain:
    M_s = hom.module(s)
    return OperatorBarCochain(M_s.alg, M_s.hdim, 1,
                              lambda slots: psi_eval(hom, s, T, slots),
                              label=f"psi[s={s}]")


def bianchi_residual(hom: Homotopy, s, T, word):
    """|d/ds Phi_T^s - delta Psi_T^s - [omega_s, Psi_T^s]| on one bar word."""
    fd_step = 1e-4
    alg = hom.M.alg
    slots = _as_slot_vecs(alg, word)
    lhs = (quantize(hom.module(s + fd_step), T, word) - quantize(hom.module(s - fd_step), T, word)) / (2 * fd_step)
    psi = psi_cochain(hom, s, T)
    # delta psi: -(d + b')^dual, psi odd
    delta_psi = psi.eval_terms(bar_differential_terms(alg, BAR_RED, slots))
    om = omega_cochain(hom.module(s))
    commutator = om.supercommutator(psi)
    rhs = delta_psi + commutator.eval_slots(slots)
    return float(np.max(np.abs(lhs - rhs)))


def chern_simons_eval(hom_T: Homotopy, chain: Chain, s_nodes=32):
    """CS(chain) = (-1)^q int_0^1 (alpha^* CStr Psi_1^s)(chain) ds on a cyclic
    chain; each CStr reads the unit's row of the CStr table of M_s."""
    bar = alpha_map(chain)
    if not bar.terms:
        return 0.0 + 0.0j
    s_x, s_w = gauss_legendre_01(s_nodes)
    total = 0.0 + 0.0j
    for si, wi in zip(s_x, s_w):
        M_s = hom_T.module(si)
        total += wi * sum(coeff * _cstr_of_block(M_s, M_s.alg.unit_index, *_reduced_psi(hom_T, si, 1.0, word))
                          for word, coeff in bar.terms.items())
    return (-1.0) ** hom_T.M.q * total


def transgression_check(hom: Homotopy, words, s_nodes=32, ext_alg=None) -> ValidationReport:
    """Ch(1) - Ch(0) = (d + b - B)^dual CS on the supplied cyclic basis words.

    Words live over the acyclic extension of the homotopy's algebra.  The
    note nonzero_lhs_words counts the words with |Ch(1) - Ch(0)| > 1e-8,
    on which the formula is not met by two zeros.
    """
    from .algebra import acyclic_extension

    alg_T = ext_alg if ext_alg is not None else acyclic_extension(hom.M.alg)
    hom_T = hom.extended(alg_T)
    M1, M0 = hom_T.module(1.0), hom_T.module(0.0)
    sign = (-1.0) ** ((hom.M.q + 1) % 2)  # (-1)^{|D_tot| |CS|}
    rep = ValidationReport(f"transgression:{hom.name}")
    scale = max(chern_scale(M0), chern_scale(M1))
    worst = 0.0
    n_words = nonzero = 0
    for w in words:
        chain = Chain.basis_word(alg_T, CYCLIC, w)
        lhs = chern_eval(M1, chain) - chern_eval(M0, chain)
        rhs = sign * chern_simons_eval(hom_T, d_total(chain), s_nodes=s_nodes)
        worst = running_max(worst, abs(lhs - rhs))
        n_words += 1
        if abs(lhs) > 1e-8:
            nonzero += 1
    rep.add("transgression-formula", worst / scale, 1e-6,
            "Ch(s=1) - Ch(s=0) = (d + b - B)^dual CS", note=f"{n_words} words")
    rep.notes["scale"] = scale
    rep.notes["nonzero_lhs_words"] = nonzero
    return rep


# -- closed-form odd character (trivially graded, d = 0) ------------------------------------


def getzler_closed_form(M: OddFredholmModule, word):
    """Odd heat-kernel character: zero for even N, the alternating simplex
    integral of commutator insertions for odd N.

    Requires a trivially graded algebra with zero differential and a
    multiplicative c (the closed form collapses exactly there).
    """
    alg = M.alg
    if np.any(alg.degree != 0) or np.max(np.abs(alg.diff)) > 0:
        raise ModuleError("closed form needs a trivially graded algebra with d = 0")
    N = len(word) - 1
    if N % 2 == 0:
        return 0.0 + 0.0j
    slots = _as_slot_vecs(alg, word)
    c0 = M.c(slots[0])
    comms = [M.Q @ M.c(v) - M.c(v) @ M.Q for v in slots[1:]]
    bracket = heat_bracket(M.Q @ M.Q, comms, check=False)
    return complex((-1.0) ** N * np.trace(c0 @ bracket))


# -- the fundamental trace-norm estimate -----------------------------------------------------


def phi_estimate_ratio(M: CqFredholmModule, word, T, kappa=1.0):
    """||Phi_T(word)||_1 divided by the calibrated bound.  For q >= 1 Phi is
    U diag(phi, +-phi) U* with U unitary: twice the trace norm of phi."""
    slots = _as_slot_vecs(M.alg, word)
    N = len(slots)
    lhs = (2.0 if M.q else 1.0) * trace_norm(_reduced_phi(M, T, word)[0])
    nu_prod = 1.0
    for v in slots:
        nu_prod *= kappa * float(np.max(np.abs(v)))
    bound = np.exp(T / 2) * np.trace(expm(-T * M.Q2 / 2)).real
    bound *= T ** (N / 2.0) / _floor_half_factorial(N) * nu_prod
    if bound > 0:
        return lhs / bound
    # a zero slot makes the bound 0, and then Phi is 0 too (multilinear)
    return 0.0 if lhs == 0 else np.inf


def calibrate_nu(M: CqFredholmModule, words, Ts, safety=1.25):
    """Smallest per-slot scaling kappa making the trace-norm bound hold on
    the calibration sample, inflated by a safety factor."""
    worst = 1.0
    for w in words:
        N = len(w)
        if N == 0:
            continue
        for T in Ts:
            r = phi_estimate_ratio(M, w, T, kappa=1.0)
            if not np.isfinite(r):
                raise ModuleError(f"trace-norm ratio {r} on a calibration word of length {N}")
            if r > 0:
                worst = max(worst, r ** (1.0 / N))
    return worst * safety
