"""The odd character chain of an invertible, its closedness modulo Chen
normalization, twisted operator families, the perturbation series and
the spectral-flow pairing.

Slot values: with omega = g^{-1} dg lifted into the acyclic extension,
A(s) = s omega - s(1-s) sigma omega^2 (odd) and B = sigma omega (even),
both from the one constructor `ab_slots`.  The degree-N component of the
chain is the generalized trace of
1 (x) sum_k A^(k-1) (x) B (x) A^(N-k), integrated exactly in s: one
Kronecker block per position k of B, each word weighted by the Beta
moment int_0^1 s^(N-1) (s-1)^beta ds of the number beta of sigma indices
its A-slots take.

The pairing with the Chern character of a doubled module is evaluated
at each s-node for every degree at once, from the top block rows of one
marked block exponential of the word (A, ..., A): the B-insertion sums
and the spectral-flow series terms.  Both are polynomials in s of degree
at most 2 N_max - 2, so N_max Gauss-Legendre nodes integrate them
exactly.  The per-degree identity between
the two carries a relative minus sign (recorded as TERM_SIGN), and the
degree-summed pairing is compared against the spectral-flow integral
itself, which degenerates to zero in finite dimension because the
endpoints are similar matrices.  The crossing diagnostic of an affine
Hermitian path is its endpoint index difference n_-(Q0) - n_-(Q1).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm
from scipy.special import erf

from .algebra import DgAlgebra, MatrixElement, acyclic_extension, mat_lift, maurer_cartan
from .chains import (
    CYCLIC,
    B_connes,
    Chain,
    _b_blocks,
    _cmul,
    _d_blocks,
    _floor_half_factorial,
    _kron_layer,
    _LayerSum,
    _reduced_positions,
    _slot_factors,
    _word_keys,
    chen_Ti,
    entire_bound,
)
from .cochains import slot_degree
from .fredholm import (
    CqFredholmModule,
    OddFredholmModule,
    _cstr_of_block,
    acyclic_extend_module,
    calibrate_nu,
    chern_eval,
    double_odd,
    matrix_module,
    quantize_partitions,
)
from .hilbert import cstr, gauss_legendre_01, marked_chain_exp_topright, toeplitz_exp_row
from .report import ValidationReport, running_max
from .serialize import round17

# Sign relating the B-insertion sum to c(omega) Phi(A, ..., A) under the
# gamma-twisted trace: sum_k Tr(gt Phi(A^(k-1) B A^(N-k))) =
# TERM_SIGN * Tr(gt c(omega) Phi(A^(N-1))).  The blocks-counting in the
# partition expansion forces -1 (the insertion block carries its own -T).
TERM_SIGN = -1.0
_CH_G_MAX_TERMS = 4_000_000  # terms of one materialized character chain


class SpectralError(ValueError):
    pass


# -- slot construction ---------------------------------------------------------


def lift_matrix_to_ext(me: MatrixElement, alg_T: DgAlgebra) -> MatrixElement:
    """Embed a matrix over the base algebra into the acyclic extension."""
    if alg_T.base_dim is None or me.alg.dim != alg_T.base_dim:
        raise SpectralError("algebra is not the acyclic extension of the matrix's algebra")
    m = me.m
    out = np.zeros((m, m, alg_T.dim), dtype=complex)
    out[:, :, : me.alg.dim] = me.entries
    return MatrixElement(out, alg_T)


def sigma_left_mult(me: MatrixElement) -> MatrixElement:
    """Entrywise left multiplication by sigma (requires an extension)."""
    alg = me.alg
    if alg.sigma_index is None:
        raise SpectralError("sigma multiplication needs an acyclic extension")
    sigma_vec = np.zeros(alg.dim, dtype=complex)
    sigma_vec[alg.sigma_index] = 1.0
    out = np.einsum("pqj,jk->pqk", me.entries, np.einsum("i,ijk->jk", sigma_vec, alg.mul))
    return MatrixElement(out, alg)


@dataclass(frozen=True, eq=False)
class ABSlots:
    """The slots over lifted: A(s) = s omega - s(1-s) sigma omega^2 (odd) and
    B = sigma omega (even).  omega, sigma_omega_sq and b are the lifted
    coefficients of the s-free parts, read-only; slots(s) is (A(s), B)."""

    omega_T: MatrixElement
    sigma_omega_sq_T: MatrixElement
    lifted: DgAlgebra
    omega: np.ndarray
    sigma_omega_sq: np.ndarray
    b: np.ndarray

    def __call__(self, s):
        a_s = self.omega_T.scale(s) - self.sigma_omega_sq_T.scale(s * (1.0 - s))
        return lifted_coeffs(a_s, self.lifted), self.b


def ab_slots(omega_T: MatrixElement, lifted: DgAlgebra) -> ABSlots:
    """The slots of omega_T over lifted; sigma omega^2 and B do not depend
    on s and are built once."""
    sigma_omega_sq = sigma_left_mult(omega_T @ omega_T)
    vecs = [lifted_coeffs(me, lifted) for me in (omega_T, sigma_omega_sq, sigma_left_mult(omega_T))]
    for vec in vecs:
        vec.flags.writeable = False
    return ABSlots(omega_T, sigma_omega_sq, lifted, *vecs)


def lifted_coeffs(me: MatrixElement, lifted: DgAlgebra) -> np.ndarray:
    """Coefficient vector of a MatrixElement over lifted = mat_lift(me.alg,
    me.m), in its basis B_a (x) e_i."""
    if lifted.matrix_size != me.m or lifted.dim != me.m * me.m * me.alg.dim:
        raise SpectralError(f"{lifted!r} is not Mat_{me.m} of the matrix's algebra")
    if me.m == 1:
        return me.entries[0, 0].copy()
    # entries[p, q, i]: coefficient of E_pq e_i; convert E_pq to the basis B_a
    return (lifted.matrix_flat_inv @ me.entries.reshape(me.m * me.m, me.alg.dim)).reshape(-1)


def generalized_trace(chain: Chain, lifted: DgAlgebra, target: DgAlgebra) -> Chain:
    """C(Mat_m(alg)) -> C(alg): trace the matrix factors around the loop, a
    whole word layer at once; for m = 1, with lifted the target itself, the
    chain is returned as is."""
    if lifted is target:
        return chain
    if chain.alg is not lifted or lifted.matrix_size == 1 or lifted.dim != lifted.matrix_size ** 2 * target.dim:
        raise SpectralError(f"the chain is not over a matrix lift of {target!r}")
    mats = lifted.matrix_basis
    out = _LayerSum(target)
    for L, layer in chain._layers.items():
        mat_idx, alg_idx = np.divmod(layer.words, target.dim)
        prod = mats[mat_idx[:, 0]]
        for j in range(1, L):
            prod = prod @ mats[mat_idx[:, j]]
        tr = np.trace(prod, axis1=1, axis2=2)
        coeffs = _cmul(layer.coeffs, tr)
        # a zero trace, an exact zero product and a unit in a reduced slot drop out
        reduced = alg_idx[:, list(_reduced_positions(chain.kind, L))]
        keep = (tr != 0) & (coeffs != 0) & ~np.any(reduced == target.unit_index, axis=1)
        out.add(L, _word_keys(alg_idx[keep], target.dim), coeffs[keep])
    return out.chain(target, chain.kind)


# -- the odd character chain -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class OddChernChain:
    """Degree-indexed components of the odd character of g, over the
    acyclic extension; component 0 is zero by definition.  a_vec and b_vec
    are the lifted slots A without its powers of s and s - 1, and B."""

    g: MatrixElement
    alg_T: DgAlgebra
    omega_T: MatrixElement
    N_max: int
    chains: dict  # N -> Chain over alg_T
    lifted: DgAlgebra  # mat_lift(alg_T, g.m), the algebra the words are built over
    a_vec: np.ndarray
    b_vec: np.ndarray

    def component(self, N) -> Chain:
        if N in self.chains:
            return self.chains[N]
        return Chain(self.alg_T, CYCLIC)

    def total(self, N_top=None) -> Chain:
        """Sum of the components up to degree N_top (all of them by default);
        their word lengths differ, so it is a union of layers."""
        return Chain._from_layers(self.alg_T, CYCLIC, {L: layer for N, c in self.chains.items()
                                                       if N_top is None or N <= N_top
                                                       for L, layer in c._layers.items()})

    def blocks(self, N):
        """Degree N before the s-integral and the trace, as one Kronecker
        block per position k of B: the slot factors of
        1 (x) A^(k-1) (x) B (x) A^(N-k) over lifted, and per slot a tag per
        entry, 1 on an A-slot's sigma index and 0 elsewhere (B and the unit
        carry none), so that a word's tag sum is its beta."""
        lifted = self.lifted
        # lifted index a * dim_T + i is a sigma index when i is
        sigma = (np.arange(lifted.dim) % self.alg_T.dim >= self.alg_T.base_dim).astype(np.intp)
        out = []
        for k in range(1, N + 1):
            factors = _slot_factors(lifted, CYCLIC, [lifted.unit.coeffs] + [self.a_vec] * (k - 1) + [self.b_vec]
                                    + [self.a_vec] * (N - k))
            out.append((factors, [sigma[nz] if p not in (0, k) else np.zeros(len(nz), dtype=np.intp)
                                  for p, (nz, _) in enumerate(factors)]))
        return out


def ch_g(g: MatrixElement, N_max: int) -> OddChernChain:
    """Materialize the odd character chain of g up to degree N_max.

    On a lifted basis index j, A(s)_j is s omega_j when j is a base index
    and s(s-1) (sigma omega^2)_j when it is a sigma index, since omega
    vanishes on the sigma indices and sigma omega^2 on the base ones.  A
    degree-N word whose A-slots take beta sigma indices therefore
    integrates in s exactly to the product of its s-free slot coefficients
    times the Beta moment int_0^1 s^(N-1) (s-1)^beta ds.  Each degree is
    built as one word layer from its Kronecker blocks (OddChernChain.blocks),
    each word weighted by the moment of its beta, counted alongside the
    block; the N blocks merge in one first-occurrence sum, so that a word
    keeps its first position and adds its contributions block by block.
    """
    alg_T = acyclic_extension(g.alg)
    omega = maurer_cartan(g)
    omega_T = lift_matrix_to_ext(omega, alg_T)
    lifted = mat_lift(alg_T, g.m)
    slots = ab_slots(omega_T, lifted)
    sigma = np.arange(lifted.dim) % alg_T.dim >= alg_T.base_dim
    a_vec = np.where(sigma, slots.sigma_omega_sq, slots.omega)  # A(s) without its powers of s and s - 1
    out = OddChernChain(g, alg_T, omega_T, N_max, {0: Chain(alg_T, CYCLIC)}, lifted, a_vec, slots.b)
    total_terms = 0
    for N in range(1, N_max + 1):
        moments = _beta_moments(N)
        blocks = out.blocks(N)
        if lifted is alg_T:
            # the words of one block are distinct, so the degree holds at
            # least as many terms as its largest block: refuse before
            # building.  For m > 1 many lifted words trace to one word, so
            # only the traced count below is a bound.
            _check_ch_g_terms(total_terms + max(math.prod(len(nz) for nz, _ in f) for f, _ in blocks), N)
        keys, coeffs = zip(*_moment_rows([(1.0, *block) for block in blocks], lifted.dim, moments))
        acc = _LayerSum(lifted)
        acc.add(N + 1, np.concatenate(keys), np.concatenate(coeffs))
        if lifted is alg_T:
            _check_ch_g_terms(total_terms + acc.size(), N)
        comp = generalized_trace(acc.chain(lifted, CYCLIC), lifted, alg_T)
        total_terms += len(comp.terms)
        _check_ch_g_terms(total_terms, N)
        out.chains[N] = comp
    # parity bookkeeping: every component must be odd.  A NaN entry of g puts
    # NaN coefficients on words of either parity; the checks then read NaN.
    for N, c in out.chains.items():
        if c.terms and math.isfinite(c.max_coeff()) and c.parity() != 1:
            raise SpectralError(f"character component {N} is not odd")
    return out


def _moment_rows(blocks, dim, moments):
    """Per signed block (sign, factors, tags), the keys of its words and
    their coefficients: the sign times the slot coefficients, times the
    moment of the word's tag sum."""
    for sign, factors, tags in blocks:
        keys, coeffs, beta = _kron_layer(factors, dim, sign, tags)
        weight = moments[beta]
        coeffs.real *= weight
        coeffs.imag *= weight
        yield keys, coeffs


def _beta_moments(N):
    """int_0^1 s^(N-1) (s-1)^beta ds = (-1)^beta (N-1)! beta! / (N+beta)! for
    beta = 0..N-1, each correctly rounded (Python's int / int is)."""
    return np.array([(-1) ** beta * math.factorial(N - 1) * math.factorial(beta) / math.factorial(N + beta)
                     for beta in range(N)])


def _check_ch_g_terms(count, N):
    if count > _CH_G_MAX_TERMS:
        raise SpectralError(f"character chain materialization exceeds {_CH_G_MAX_TERMS} terms at degree {N}; "
                            "reduce N_max or the algebra size")


def _omega_and_dg_vectors(ch: OddChernChain):
    """omega, dg, dg^{-1}, g and g^{-1} as entry matrices over the extension."""
    g = ch.g
    alg_T = ch.alg_T
    dg = lift_matrix_to_ext(g.d(), alg_T)
    g_inv = g.inverse_deg0()
    dginv = lift_matrix_to_ext(g_inv.d(), alg_T)
    g_T = lift_matrix_to_ext(g, alg_T)
    ginv_T = lift_matrix_to_ext(g_inv, alg_T)
    return ch.omega_T, dg, dginv, g_T, ginv_T


def _lambda_chain(ch: OddChernChain, N: int, vecs) -> Chain:
    """lambda_N = Tr(1 (x) omega^(N-2) (x) dg^{-1} (x) dg), N >= 2, from the
    lifted coefficient vectors of _omega_and_dg_vectors."""
    omega, dg, dginv, _, _ = vecs
    lifted = ch.lifted
    slots = [lifted.unit.coeffs] + [omega] * (N - 2) + [dginv, dg]
    return generalized_trace(Chain.from_elements(lifted, CYCLIC, slots), lifted, ch.alg_T)


def _chen_witness(ch: OddChernChain, N: int, vecs) -> Chain:
    """Explicit Chen-subcomplex element with
    witness_N = (D Ch(g))_N + lambda_N - lambda_{N+1} (exact identity)."""
    omega, dg, _, g, ginv = vecs
    lifted = ch.lifted
    unit_vec = lifted.unit.coeffs
    if N >= 2:
        base = Chain.from_elements(lifted, CYCLIC, [unit_vec] + [omega] * (N - 1) + [dg])
        witness = chen_Ti(lifted.element(ginv), N - 1, base)
    else:
        t1 = chen_Ti(lifted.element(ginv), 0, Chain.from_elements(lifted, CYCLIC, [unit_vec, dg]))
        t2 = chen_Ti(lifted.element(g), 0, Chain.from_elements(lifted, CYCLIC, [ginv]))
        witness = t1 - t2
    return generalized_trace(witness, lifted, ch.alg_T)


def _add_d_ch(ch: OddChernChain, N: int, out: _LayerSum):
    """Add (D Ch(g))_N = d Ch_N + b Ch_{N+1} over alg_T into out, built from
    the Kronecker blocks of the two degrees, not from their words.

    d and b act on each block (chains._d_blocks, _b_blocks), and every
    output word takes the Beta moment of the word it came from: its source
    degree and its tag sum, which d keeps and a product adds up.  For
    m > 1 the words are over the lifted algebra and traced once, which
    commutes with d and b since the matrix units are even."""
    lifted = ch.lifted
    acc = out if lifted is ch.alg_T else _LayerSum(lifted)
    for M, faces in ((N, _d_blocks), (N + 1, _b_blocks)):
        moments = _beta_moments(M)
        for factors, tags in ch.blocks(M):
            for keys, coeffs in _moment_rows(faces(lifted, factors, tags), lifted.dim, moments):
                acc.add(N + 1, keys, coeffs)
    if acc is not out:
        out.add_chain(generalized_trace(acc.chain(lifted, CYCLIC), lifted, ch.alg_T))


def ch_g_closed(g: MatrixElement, N_max: int, tol: float = 1e-9) -> ValidationReport:
    """Closedness of the odd character chain modulo Chen normalization.

    Verifies, per degree N <= N_max - 1:
      * the Connes part of D Ch(g) vanishes identically after reduction,
      * (D Ch(g))_N + lambda_N - lambda_{N+1} equals the explicit image
        of the gap-crossing operators T (with f = g or g^{-1}), i.e. the
        component lies in the Chen subcomplex up to the telescope,
    and that the telescope entire bounds decay at the half-factorial
    rate.  The report records which generators absorbed each component.

    (D Ch)_N is built by d and b on the Kronecker blocks of Ch(g) (see
    _add_d_ch), and each residual sums its four parts in one merge.  The
    materialized Ch(g) gives the scale and the Connes part.
    """
    ch = ch_g(g, N_max)
    alg_T = ch.alg_T
    mats = _omega_and_dg_vectors(ch)
    vecs = [lifted_coeffs(me, ch.lifted) for me in mats]
    rep = ValidationReport(f"ch_g-closed:m={g.m},N_max={N_max}")
    total = ch.total()
    b_part = B_connes(total)
    total_norm = total.norm()
    # B kills every word of Ch(g), unit-led, whatever its coefficient: a
    # non-finite Ch(g) must still fail this check
    rep.add("connes-part-reduces-to-zero", b_part.norm() if math.isfinite(total_norm) else math.nan, 1e-12,
            "B Ch(g) dies in the reduced complex (unit in a positive slot)")
    lambdas = {1: Chain(alg_T, CYCLIC)}
    for N in range(2, N_max + 1):
        lambdas[N] = _lambda_chain(ch, N, vecs)
    scale = max(1.0, total_norm)
    absorbed = {}
    for N in range(1, N_max - 1 + 1):
        resid = _LayerSum(alg_T)
        _add_d_ch(ch, N, resid)
        resid.add_chain(lambdas[N])
        resid.add_chain(lambdas[N + 1], negate=True)
        resid.add_chain(_chen_witness(ch, N, vecs), negate=True)
        rep.add(f"telescoped-component-N={N}", resid.chain(alg_T, CYCLIC).norm() / scale, tol,
                "(D Ch)_N + lambda_N - lambda_{N+1} is an explicit T-operator image")
        absorbed[N] = "T_{N-1}^(g^-1)" if N >= 2 else "T_0^(g^-1), T_0^(g)"
    bounds = {N: entire_bound(lambdas[N]) for N in range(2, N_max + 1)}
    rep.notes["lambda_entire_bounds"] = {N: round17(v) for N, v in bounds.items()}
    rep.notes["absorbed_by"] = absorbed
    # decay certificate: the entire bound of a pure tensor word is the
    # product of the slot l1-norms, so lambda_N sits under the envelope
    # C * rho^N / floor(N/2)! with rho the largest slot l1-norm (times m
    # for the generalized trace loops)
    def l1(me):
        return float(np.max(np.sum(np.abs(me.entries), axis=2)))

    rho = max(l1(ch.omega_T), l1(mats[1]), l1(mats[2]), 1e-30) * g.m
    const = max((v * _floor_half_factorial(N) / (rho ** N) for N, v in bounds.items() if N <= 3),
                default=1.0) * (1.0 + 1e-9)
    worst = 0.0
    for N, v in bounds.items():
        ref = const * rho ** N / _floor_half_factorial(N)
        worst = running_max(worst, v / ref - 1.0 if ref > 0 else np.inf)
    rep.add("telescope-decay-rate", worst, 1e-9,
            "entire bounds of lambda_N stay below the half-factorial envelope")
    rep.notes["rho"] = round17(rho)
    return rep


# -- twisted families -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TwistedFamily:
    """Q_{g,s} = Q_m + s c(omega) on H^m, with X_s = Q_{g,s}^2 - Q_m^2."""

    M: OddFredholmModule           # base strong module over the base algebra
    g: MatrixElement
    alg_T: DgAlgebra
    lifted: DgAlgebra              # Mat_m(alg_T) (== alg_T for m = 1)
    M_T_m: OddFredholmModule       # extended matrix module on H^m
    Mdt: CqFredholmModule          # doubled matrix module (q = 1)
    c_omega: np.ndarray
    omega_T: MatrixElement
    report: ValidationReport

    @property
    def m(self):
        return self.g.m

    @property
    def Q_m(self):
        return self.M_T_m.Q

    def Q_s(self, s):
        return self.Q_m + s * self.c_omega

    def Qdot(self):
        return self.c_omega

    def X_s(self, s):
        anti = self.Q_m @ self.c_omega + self.c_omega @ self.Q_m
        return s * anti + s * s * (self.c_omega @ self.c_omega)

    @property
    def omega_vec(self):
        """omega as a coefficient vector over the lifted algebra (read-only)."""
        return self._ab_slots.omega

    @cached_property
    def c_omega_doubled(self):
        """c(omega) on the doubled module."""
        return self.Mdt.c(self.omega_vec)

    def X_tilde(self, s):
        ct = self.c_omega_doubled
        anti = self.Mdt.Q @ ct + ct @ self.Mdt.Q
        return s * anti + s * s * (ct @ ct)

    @cached_property
    def _ab_slots(self):
        return ab_slots(self.omega_T, self.lifted)

    def ab_vectors(self, s):
        return self._ab_slots(s)


def twisted_family(M: OddFredholmModule, g: MatrixElement) -> TwistedFamily:
    """Build the twisted family and verify its defining matrix identities."""
    if M.weak:
        raise SpectralError("the twisted family requires a strong module")
    if g.alg is not M.alg:
        raise SpectralError("g and the module live over different algebras")
    alg_T = acyclic_extension(M.alg)
    m = g.m
    M_T = acyclic_extend_module(M, alg_T)
    lifted = mat_lift(alg_T, m)
    M_T_m = matrix_module(M_T, m, lifted_alg=lifted)
    Mdt = double_odd(M_T_m)
    omega = maurer_cartan(g)
    omega_T = lift_matrix_to_ext(omega, alg_T)
    c_omega = M_T_m.c(lifted_coeffs(omega_T, lifted))
    rep = ValidationReport(f"twisted-family:m={m}")
    g_T = lift_matrix_to_ext(g, alg_T)
    ginv_T = lift_matrix_to_ext(g.inverse_deg0(), alg_T)
    cg = M_T_m.c(lifted_coeffs(g_T, lifted))
    cginv = M_T_m.c(lifted_coeffs(ginv_T, lifted))
    Qm = M_T_m.Q
    lhs = cginv @ (Qm @ cg - cg @ Qm)
    rep.add("c-omega-from-commutator", float(np.max(np.abs(lhs - c_omega))), 1e-10,
            "c(omega) = c(g^-1) [Q, c(g)]")
    tf = TwistedFamily(M, g, alg_T, lifted, M_T_m, Mdt, c_omega, omega_T, rep)
    worst = 0.0
    for s in (0.3, 0.7, 1.0):
        direct = tf.Q_s(s) @ tf.Q_s(s)
        split = Qm @ Qm + tf.X_s(s)
        worst = running_max(worst, float(np.max(np.abs(direct - split))))
    rep.add("square-splitting", worst, 1e-10, "Q_{g,s}^2 = Q_m^2 + X_s")
    X1 = tf.X_s(1.0)
    rep.notes["X_skew_part"] = round17(float(np.max(np.abs(X1 - X1.conj().T))))
    return tf


# -- perturbation series and the spectral-flow integral ------------------------------


def perturbation_tail_bound(T, x_norm, trace_factor, M_from):
    """sum_{M > M_from} (T |X|)^M / M! * Tr(e^{-T Q^2}), summed numerically."""
    total, term = 0.0, 1.0
    for M in range(1, M_from + 1):
        term *= T * x_norm / M
    for M in range(M_from + 1, M_from + 200):
        term *= T * x_norm / M
        total += term
        if term < 1e-22 * max(total, 1.0):
            break
    return float(total * trace_factor)


def perturbation_series(tf: TwistedFamily, s, T, M_max, tail_tol=None):
    """sum_{M <= M_max} (-T)^M {X_s, ..., X_s}_{T Q_m^2} with a certified tail.

    Returns (matrix, tail_bound).  If tail_tol is given and the bound
    exceeds it, raises with a suggested M_max.
    """
    Q2 = tf.Q_m @ tf.Q_m
    X = tf.X_s(s)
    x_norm = float(np.linalg.norm(X, 2))
    heat = expm(-T * Q2)
    trace_factor = float(np.trace(heat).real)
    tail = perturbation_tail_bound(T, x_norm, trace_factor, M_max)
    if tail_tol is not None and tail > tail_tol:
        M_try = M_max
        while M_try < 200 and perturbation_tail_bound(T, x_norm, trace_factor, M_try) > tail_tol:
            M_try += 1
        raise SpectralError(
            f"perturbation tail {tail:.2e} above {tail_tol:.1e} at M_max={M_max}; need about {M_try}")
    return _heat_series(Q2, X, T, M_max, heat), tail


def _heat_series(Q2, X, T, M_max, heat=None):
    """sum_{M <= M_max} (-T)^M {X, ..., X}_{T Q2}.

    The order-M term is block (0, M) of toeplitz_exp_row of the constant-band
    chain with -T Q2 on its diagonal and -T X one step up.  The order-0 term
    is the heat operator expm(-T Q2) itself (heat, when the caller has it)
    and X = 0 leaves the other blocks exactly zero, so that X = 0 gives
    exactly the heat operator.  The order-M term is M-linear in X: for
    X = X_s, of degree 2 in s, it has degree 2M, and the sum degree 2 M_max.
    """
    out = expm(-T * Q2) if heat is None else heat
    for term in toeplitz_exp_row([-T * Q2, -T * X], M_max)[1:]:
        out = out + term
    return out


def sf_integral(tf: TwistedFamily, s_nodes=32, M_max=16):
    """int_0^1 Tr(Qdot e^{-Q_{g,s}^2}) ds by two methods.

    (a) direct matrix exponentials at s_nodes Gauss-Legendre nodes;
    (b) the perturbation series for e^{-Q_{g,s}^2} up to order M_max,
        integrated exactly in s.  X_s = s {Q_m, c(omega)} + s^2 c(omega)^2
        gives the series degree 2 M_max in s, and M_max + 1 nodes are
        exact up to degree 2 M_max + 1.  The series takes those nodes
        whatever s_nodes is, so it is exact even for s_nodes < M_max + 1;
        the direct integrand is no polynomial and keeps s_nodes.  The
        heat operator expm(-Q_m^2) does not depend on s: every series node
        shares one.
    """
    Qd = tf.Qdot()
    Q2 = tf.Q_m @ tf.Q_m
    direct = 0.0 + 0.0j
    for si, wi in zip(*gauss_legendre_01(s_nodes)):
        Qs = tf.Q_s(si)
        direct += wi * np.trace(Qd @ expm(-(Qs @ Qs)))
    heat = expm(-1.0 * Q2)  # _heat_series's expm(-T Q2) at T = 1
    series = 0.0 + 0.0j
    for si, wi in zip(*gauss_legendre_01(M_max + 1)):
        series += wi * np.trace(Qd @ _heat_series(Q2, tf.X_s(si), 1.0, M_max, heat))
    return {"direct": complex(direct), "series": complex(series)}


def sf_endpoint_oracle(tf: TwistedFamily):
    """Tr F(Q_1) - Tr F(Q_0) with F' = e^{-x^2}; the endpoints of the
    conjugation path are similar matrices, so the spectra agree and the
    difference vanishes; returns the max eigenvalue mismatch."""
    w0 = np.sort_complex(np.linalg.eigvals(tf.Q_s(0.0)))
    w1 = np.sort_complex(np.linalg.eigvals(tf.Q_s(1.0)))
    return float(np.max(np.abs(w0 - w1)))


def diagnostic_affine_sf(Q0, Q1, s_nodes=64):
    """Spectral-flow integral along an affine Hermitian path, plus the
    erf-telescoping oracle Tr F(Q1) - Tr F(Q0) and the crossing count
    n_-(Q0) - n_-(Q1), the path's spectral flow (Phillips, 1996)."""
    Q0 = np.asarray(Q0, dtype=complex)
    Q1 = np.asarray(Q1, dtype=complex)
    x, w = gauss_legendre_01(s_nodes)
    Qd = Q1 - Q0
    val = 0.0 + 0.0j
    for si, wi in zip(x, w):
        Qs = (1 - si) * Q0 + si * Q1
        val += wi * np.trace(Qd @ expm(-(Qs @ Qs)))
    lam0, lam1 = np.linalg.eigvalsh(Q0), np.linalg.eigvalsh(Q1)
    trF0, trF1 = (float(np.sum(0.5 * np.sqrt(np.pi) * erf(lam))) for lam in (lam0, lam1))
    # the sqrt(pi)-normalized value is the would-be crossing count; at
    # finite dimension the relation to the count is reported, not asserted
    return {"integral": complex(val), "oracle": trF1 - trF0,
            "integral_over_sqrt_pi": complex(val / np.sqrt(np.pi)),
            "crossings": int(np.sum(lam0 < 0)) - int(np.sum(lam1 < 0))}


def partition_resum_check(tf: TwistedFamily, s, T, M_max):
    """|sum_M (-T)^M {X~_s...}_{T Q~^2} - sum_{N <= 2 M_max} Phi_T(A^N)|
    with the partition count capped at M_max on the right."""
    Mdt = tf.Mdt
    lhs = _heat_series(Mdt.Q2, tf.X_tilde(s), T, M_max)
    a_vec, _ = tf.ab_vectors(s)
    rhs = np.zeros_like(lhs)
    for N in range(0, 2 * M_max + 1):
        rhs = rhs + quantize_partitions(Mdt, T, (a_vec,) * N, max_blocks=M_max)
    return float(np.max(np.abs(lhs - rhs)))


# -- the pairing -------------------------------------------------------------------


def pairing_term(tf: TwistedFamily, N, s):
    """1/2 Tr(gt sum_k Phi_1(A^(k-1) B A^(N-k))) at parameter s, through one
    marked exponential of the full-size Curvature.F1 and F2 blocks (the B
    block replaces one A step)."""
    Mdt = tf.Mdt
    cur = Mdt.curvature
    a_vec, b_vec = tf.ab_vectors(s)
    if N == 0:
        return 0.0 + 0.0j
    f1a, f2aa, f1b = cur.F1(a_vec), cur.F2(a_vec, a_vec), cur.F1(b_vec)
    diag = [-Mdt.Q2] * (N + 1)
    bands = {1: {j: -f1a for j in range(N)}, 2: {j: -f2aa for j in range(N - 1)}}
    marked = {1: {j: -f1b for j in range(N)}}
    phi_sum = marked_chain_exp_topright(diag, bands, marked)
    return complex(cstr(Mdt.cm, phi_sum))


def pairing_term_direct(tf: TwistedFamily, N, s):
    """Same term by explicit words (cross-check for small N)."""
    a_vec, b_vec = tf.ab_vectors(s)
    unit_vec = tf.lifted.unit.coeffs
    total = 0.0 + 0.0j
    for k in range(1, N + 1):
        word = (unit_vec,) + (a_vec,) * (k - 1) + (b_vec,) + (a_vec,) * (N - k)
        total += chern_eval(tf.Mdt, word)
    return complex(total)


def sf_series_term(tf: TwistedFamily, K, s):
    """CStr(c(omega) Phi_1(A^K)) at parameter s (spectral-flow series)."""
    a_vec, _ = tf.ab_vectors(s)
    word = (tf.omega_vec,) + (a_vec,) * K
    return complex(chern_eval(tf.Mdt, word))


def _pairing_rows(tf: TwistedFamily, s, N_max):
    """pairing_term(tf, N, s) and sf_series_term(tf, N - 1, s) for
    N = 1..N_max, from one marked exponential of the word (A,) * N_max.

    The word's chain has constant bands (-Q^2, -F_1(A), -F_2(A, A)) and the
    mark -F_1(B) on step 1, so toeplitz_exp_row of the blocks [[G_t, M_t],
    [0, G_t]] gives the plain row E and the marked row L (the Frechet
    derivative) at once.  Block (0, N) of L is the B-insertion sum of
    degree N, and block (0, N - 1) of E is Phi_1(A^(N-1)).  The diagonal
    and the mark do not depend on s, and F_1(A(s)) and F_2(A(s), A(s))
    have degree at most 2 per A-slot, so both blocks are polynomials of degree at
    most 2(N - 1) in s: N_max Gauss-Legendre nodes, exact up to degree
    2 N_max - 1, integrate every row entry exactly.  Every block
    of the chain is C_q-equivariant, so the chain runs on the half-size
    blocks of the Clifford half-frame; an A step has parity |A| + 1 and
    the marked B step |B| + 1.  No block is lifted: CStr reads the unit's
    row of the frame's CStr table, and CStr(c(omega) .) the row omega . W_p.
    """
    Mdt = tf.Mdt
    frame = Mdt.curvature.frame
    a_vec, b_vec = tf.ab_vectors(s)
    (diag, bands), n = frame.bands(1.0, (a_vec,) * N_max)
    zero, h, b_step = np.zeros_like(diag[0]), len(diag[0]), slot_degree(Mdt.alg, b_vec) + 1
    steps = zip((diag[0], bands[1][0], bands[2].get(0, zero)), (zero, -frame.f1(b_vec), zero))
    row = toeplitz_exp_row([np.block([[G, mark], [zero, G]]) for G, mark in steps], N_max)
    E, L = [r[:h, :h] for r in row], [r[:h, h:] for r in row]
    p_row = [_cstr_of_block(Mdt, Mdt.alg.unit_index, L[N], (n[N - 1] + b_step) % 2) for N in range(1, N_max + 1)]
    sf_row = [_cstr_of_block(Mdt, tf.omega_vec, E[N - 1], n[N - 1]) for N in range(1, N_max + 1)]
    return p_row, sf_row


def _curvature_identities(tf: TwistedFamily, s):
    """F(A,B) = F(B,A) = 0 and F(A) + F(A,A) = X~_s as matrices."""
    cur = tf.Mdt.curvature
    a_vec, b_vec = tf.ab_vectors(s)
    r1 = float(np.max(np.abs(cur.F2(a_vec, b_vec))))
    r2 = float(np.max(np.abs(cur.F2(b_vec, a_vec))))
    r3 = float(np.max(np.abs(cur.F1(a_vec) + cur.F2(a_vec, a_vec) - tf.X_tilde(s))))
    return max(r1, r2), r3


@dataclass
class PairingReport:
    fixture: str
    seed_note: str
    m: int
    N_used: int
    terms: list
    pairing_total: complex
    sf_direct: complex
    sf_series: complex
    tail_bound: float
    term_sign: float
    checks: ValidationReport
    timings: dict = field(default_factory=dict)  # wall seconds, written under "volatile"

    @property
    def verdict(self) -> bool:
        return self.checks.passed

    def as_dict(self) -> dict:
        return {
            "fixture": self.fixture,
            "seed": self.seed_note,
            "m": self.m,
            "N_used": self.N_used,
            "terms": [
                {
                    "N": t["N"],
                    "pairing_term": [round17(t["pairing_term"].real), round17(t["pairing_term"].imag)],
                    "sf_term": [round17(t["sf_term"].real), round17(t["sf_term"].imag)],
                    "residual": round17(t["residual"]),
                    "bound": round17(t["bound"]),
                }
                for t in self.terms
            ],
            "totals": {
                "pairing": [round17(self.pairing_total.real), round17(self.pairing_total.imag)],
                "sf_direct": [round17(self.sf_direct.real), round17(self.sf_direct.imag)],
                "sf_series": [round17(self.sf_series.real), round17(self.sf_series.imag)],
                "theoremC_residual": round17(abs(self.pairing_total - self.sf_direct)),
            },
            "tail_bound": round17(self.tail_bound),
            "term_sign": self.term_sign,
            "verdict": bool(self.verdict),
            "checks": self.checks.as_dict(),
            "volatile": {"timings": {k: round17(v) for k, v in self.timings.items()}},
        }


def pairing(M: OddFredholmModule, g: MatrixElement, N_max: int,
            term_tol=1e-7, total_tol=1e-6, tail_tol=1e-6) -> PairingReport:
    """Degree-by-degree pairing of the doubled character with the odd
    character chain of g, with the spectral-flow comparison.

    Per degree the B-insertion sum is matched against the spectral-flow
    series term (relative sign TERM_SIGN); the totals are compared
    against the spectral-flow integral computed by direct exponentials
    and by the perturbation series.  The integral itself vanishes up to
    quadrature error because the endpoints are similar matrices; the
    content of the check is the agreement of the independently computed
    series.

    The rows of degree N <= N_max are polynomials of degree at most
    2 N_max - 2 in s (see _pairing_rows), so they run on N_max
    Gauss-Legendre nodes, which integrate them exactly; the direct
    spectral-flow integral, whose integrand does not depend on N_max,
    keeps 32 nodes.  A tail bound that is not finite is refused before
    any row: no N_max certifies it.
    """
    if N_max < 1:
        raise SpectralError(f"N_max must be >= 1, got {N_max}")
    t0 = time.perf_counter()
    tf = twisted_family(M, g)
    checks = tf.report
    worst_f, worst_x = 0.0, 0.0
    for s in (0.25, 0.75):
        f_res, x_res = _curvature_identities(tf, s)
        worst_f = running_max(worst_f, f_res)
        worst_x = running_max(worst_x, x_res)
    checks.add("curvature-kills-AB-blocks", worst_f, 1e-12, "F(A,B) = 0 = F(B,A)")
    checks.add("curvature-sums-to-X", worst_x, 1e-12, "F(A) + F(A,A) = X~_s")

    # calibrated per-slot seminorm for the tail certificate
    a_norm = max(float(np.max(np.abs(tf.ab_vectors(s)[0]))) for s in (0.25, 0.5, 0.75, 1.0))
    b_norm = float(np.max(np.abs(tf.ab_vectors(0.5)[1])))
    kappa = _calibrate_pairing_kappa(tf)
    trace_factor = float(np.trace(expm(-tf.Mdt.Q2 / 2)).real) * np.exp(0.5)

    def term_bound(N):
        nu_prod = (kappa * a_norm) ** (N - 1) * (kappa * b_norm)
        return 0.5 * 2.0 * N * trace_factor * nu_prod / _floor_half_factorial(N)

    def tail_after(n):
        """The bounds of degrees n + 1 .. n + 399 summed; inf when a term
        overflows (the float power raises, a product reads inf and inf / inf
        NaN), since such a tail certifies nothing."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                tail = float(sum(term_bound(N) for N in range(n + 1, n + 400)))
        except OverflowError:
            return math.inf
        return tail if math.isfinite(tail) else math.inf

    tail = tail_after(N_max)
    if tail == math.inf:
        # a term bound that overflows or reads NaN at one degree does so at
        # every higher one, so no larger N_max certifies the tail
        raise SpectralError(f"certified tail inf above {tail_tol:.1e}; the term bound is not finite, "
                            "so no N_max certifies it")
    if tail > tail_tol:
        n_try = N_max
        while n_try < 400 and tail_after(n_try) > tail_tol:
            n_try += 1
        raise SpectralError(f"certified tail {tail:.2e} above {tail_tol:.1e}; need N_max about {n_try}")
    terms = []
    pairing_total = 0.0 + 0.0j
    worst_term = 0.0
    t_terms = time.perf_counter()
    x, w = gauss_legendre_01(N_max)
    rows = [_pairing_rows(tf, si, N_max) for si in x]
    for N in range(1, N_max + 1):
        p_val = sum(wi * p_row[N - 1] for (p_row, _), wi in zip(rows, w))
        s_val = sum(wi * sf_row[N - 1] for (_, sf_row), wi in zip(rows, w))
        resid = abs(p_val - TERM_SIGN * s_val)
        ref = max(abs(p_val), abs(s_val), 1.0)
        worst_term = running_max(worst_term, resid / ref)
        terms.append({"N": N, "pairing_term": complex(p_val), "sf_term": complex(s_val),
                      "residual": resid, "bound": term_bound(N)})
        pairing_total += p_val
    checks.add("per-degree-term-identity", worst_term, term_tol,
               "B-insertion sum = sign * c(omega)-times-A-word term, per degree")
    t_sf = time.perf_counter()
    sf = sf_integral(tf, s_nodes=32)
    checks.add("sf-methods-agree", abs(sf["direct"] - sf["series"]), 1e-8,
               "direct exponentials vs perturbation series")
    checks.add("sf-endpoints-similar", sf_endpoint_oracle(tf), 1e-8,
               "spectra of Q_{g,0} and Q_{g,1} coincide")
    checks.add("theoremC-total", abs(pairing_total - sf["direct"]) - 0.0, total_tol,
               "pairing total matches the spectral-flow integral within the certified tail",
               note="both sides vanish by the finite-dimensional degeneracy")
    checks.notes["nonzero_terms"] = sum(1 for t in terms if abs(t["pairing_term"]) > 1e-12)
    # on the affine path between the Hermitian symmetrizations of the
    # endpoints the integral has a nonzero exact value (the erf telescope);
    # the sqrt(pi)-normalized crossing relation is reported, never asserted
    Q0h = 0.5 * (tf.Q_s(0.0) + tf.Q_s(0.0).conj().T)
    Q1h = 0.5 * (tf.Q_s(1.0) + tf.Q_s(1.0).conj().T)
    diag = diagnostic_affine_sf(Q0h, Q1h, s_nodes=24)
    checks.add("affine-sf-erf-identity", abs(diag["integral"] - diag["oracle"]), 1e-12,
               "int_0^1 Tr(Qdot e^{-Q_s^2}) ds = Tr F(Q_1) - Tr F(Q_0) on the affine Hermitian path")
    checks.notes["crossing_diagnostic"] = {
        "integral_over_sqrt_pi": [round17(diag["integral_over_sqrt_pi"].real),
                                  round17(diag["integral_over_sqrt_pi"].imag)],
        "crossing_count": diag["crossings"],
    }
    rep = PairingReport(
        fixture=M.name, seed_note=f"{M.name}|{g.alg.name}", m=g.m, N_used=N_max, terms=terms,
        pairing_total=complex(pairing_total), sf_direct=sf["direct"], sf_series=sf["series"],
        tail_bound=tail, term_sign=TERM_SIGN, checks=checks,
        timings={"setup": t_terms - t0, "terms": t_sf - t_terms, "sf": time.perf_counter() - t_sf},
    )
    return rep


def _calibrate_pairing_kappa(tf: TwistedFamily):
    """Per-slot scaling making the trace-norm bound valid on small words."""
    words = []
    for s in (0.3, 0.9):
        a_vec, b_vec = tf.ab_vectors(s)
        words += [(a_vec,), (b_vec,), (a_vec, b_vec), (a_vec, a_vec), (b_vec, a_vec, a_vec)]
    return calibrate_nu(tf.Mdt, words, (1.0,), safety=1.5)
