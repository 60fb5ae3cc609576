"""Fredholm modules, the quantization map and the Chern character."""

import dataclasses
import itertools

import numpy as np
import pytest

from chernlab.algebra import acyclic_extension
from chernlab import chains, fredholm, hilbert
from chernlab.chains import BAR_RED, CYCLIC, Chain, _all_basis_words, alpha_map, d_total, random_basis_word
from chernlab.fixtures import (
    discrete_circle,
    exterior_strong,
    getzler_trivial,
    random_weak_cq,
)
from chernlab.cochains import CochainError, word_to_vecs
from chernlab.fredholm import (
    CqFredholmModule,
    Homotopy,
    ModuleError,
    OddFredholmModule,
    acyclic_extend_module,
    bianchi_residual,
    chen_vanish,
    chern_eval,
    chern_pullback_residual,
    chern_scale,
    chern_simons_eval,
    coclosed_residual,
    conjugate_module,
    curvature,
    double_odd,
    getzler_closed_form,
    module_validate,
    psi_eval,
    psi_quadrature,
    quantize,
    quantize_partitions,
    transgression_check,
)
from chernlab.hilbert import clifford_validate, cstr, gauss_legendre_01, spinor_step
from scipy.linalg import expm


@pytest.fixture(scope="module")
def weak_q1():
    return random_weak_cq(hdim=6, q=1, seed=7, k=1)


@pytest.fixture(scope="module")
def circle_doubled():
    return double_odd(discrete_circle(4, seed=0))


def test_module_validation_kinds(weak_q1, circle_doubled):
    assert module_validate(weak_q1).passed
    rep = module_validate(circle_doubled)
    assert rep.passed
    assert rep.residual("multiplicativity") <= 1e-12


def test_strong_failure_detected(circle_doubled):
    M = circle_doubled
    h = M.hdim // 2
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((h, h))
    dense = 0.5 * (dense + dense.T)
    # odd Hermitian but not commuting with the multiplications: breaks [Q, c(f)] = c(df)
    bad = dataclasses.replace(conjugate_module(M, np.eye(M.hdim)), weak=False,
                              Q=M.Q + 0.01 * np.kron(np.array([[0, 1], [1, 0]]), dense).astype(complex))
    rep = module_validate(bad)
    assert not rep.passed
    assert rep.residual("commutator-rule") > 1e-4


def test_acyclic_extension_kills_sigma(circle_doubled):
    ext = acyclic_extension(circle_doubled.alg)
    M_T = acyclic_extend_module(circle_doubled, ext)
    sigma = ext.sigma_index
    assert np.max(np.abs(M_T.c_mats[sigma])) == 0.0
    # restriction to the base algebra is the original representation
    assert np.allclose(M_T.c_mats[: circle_doubled.alg.dim], circle_doubled.c_mats)
    assert M_T.weak


def test_extension_commutes_with_doubling():
    Modd = discrete_circle(3, seed=1)
    ext = acyclic_extension(Modd.alg)
    left = acyclic_extend_module(double_odd(Modd), ext)   # double then extend
    right = double_odd(acyclic_extend_module(Modd, ext))  # extend then double
    assert np.allclose(left.Q, right.Q)
    assert np.allclose(left.c_mats, right.c_mats)
    assert np.allclose(left.cm.e[0], right.cm.e[0])


def test_double_odd_structure():
    Modd = getzler_trivial(4, seed=2)
    M = double_odd(Modd)
    h = Modd.hdim
    # the doubling written out: H + H, e_1 = [[0, 1], [-1, 0]], block-diagonal
    # c on even elements, antidiagonal c on odd ones and antidiagonal Q
    sigma1 = np.array([[0, 1], [1, 0]])
    for odd in (Modd, discrete_circle(3, seed=1)):
        D, n = double_odd(odd), odd.hdim
        assert np.array_equal(D.cm.H.parity, np.array([1] * n + [-1] * n))
        assert np.array_equal(D.cm.e[0], np.kron(np.array([[0, 1], [-1, 0]], dtype=complex), np.eye(n)))
        for i in range(odd.alg.dim):
            block = sigma1 if odd.alg.degree[i] % 2 else np.eye(2)
            assert np.array_equal(D.c_mats[i], np.kron(block, odd.c_mats[i]))
        assert np.array_equal(D.Q, np.kron(sigma1, odd.Q))
    assert np.allclose(M.Q @ M.Q, np.kron(np.eye(2), Modd.Q @ Modd.Q))
    e1 = M.cm.e[0]
    assert np.allclose(e1 @ e1, -np.eye(2 * h))
    # even elements act block-diagonally (all of Mat2C is even)
    for i in range(Modd.alg.dim):
        G = M.cm.H.parity.astype(float)
        ci = M.c_mats[i]
        assert np.max(np.abs(ci - G[:, None] * ci * G[None, :])) <= 1e-13


def test_curvature_components(weak_q1, circle_doubled):
    # weak module over a zero-differential algebra: F1 = [Q, c]
    cur = curvature(weak_q1)
    alg = weak_q1.alg
    for i in range(alg.dim):
        sign = (-1.0) ** (int(alg.degree[i]) % 2)
        expected = weak_q1.Q @ weak_q1.c_mats[i] - sign * weak_q1.c_mats[i] @ weak_q1.Q
        got = cur.eval_word((i,))
        assert np.max(np.abs(got - expected)) <= 1e-13
    # strong module: F1(f) = 0 and F2(f, theta) = 0 for degree-0 f
    M = circle_doubled
    curM = curvature(M)
    f = np.zeros(M.alg.dim, dtype=complex)
    f[1] = 1.0  # u^1
    assert np.max(np.abs(curM.eval_slots((f,)))) <= 1e-12
    rng = np.random.default_rng(3)
    theta = np.zeros(M.alg.dim, dtype=complex)
    theta[M.alg.dim - 1] = complex(rng.standard_normal())
    assert np.max(np.abs(curM.eval_slots((f, theta)))) <= 1e-12
    assert np.max(np.abs(curM.eval_slots((theta, f)))) <= 1e-12
    # arity >= 3 vanishes identically
    assert np.max(np.abs(curM.eval_slots((theta, theta, theta)))) == 0.0


def test_curvature_over_extension(circle_doubled):
    # F(sigma) = 1 and F(sigma, theta) = 0 = F(theta, sigma)
    ext = acyclic_extension(circle_doubled.alg)
    M_T = acyclic_extend_module(circle_doubled, ext)
    cur = curvature(M_T)
    sigma = ext.sigma_index
    assert np.max(np.abs(cur.eval_word((sigma,)) - np.eye(M_T.hdim))) <= 1e-13
    rng = np.random.default_rng(4)
    for _ in range(5):
        j = int(rng.integers(0, ext.dim))
        assert np.max(np.abs(cur.eval_word((sigma, j)))) <= 1e-13
        assert np.max(np.abs(cur.eval_word((j, sigma)))) <= 1e-13


def test_quantize_engines_agree(weak_q1):
    rng = np.random.default_rng(5)
    for N in range(0, 5):
        w = random_basis_word(weak_q1.alg, BAR_RED, N, rng)
        a = quantize(weak_q1, 0.7, w)
        b = quantize_partitions(weak_q1, 0.7, w)
        assert np.max(np.abs(a - b)) <= 1e-12


def test_quantize_arity_zero_and_one(weak_q1):
    M = weak_q1
    assert np.max(np.abs(quantize(M, 0.5, ()) - expm(-0.5 * M.Q2))) <= 1e-12
    # N = 1: -T {F(theta)}_{T Q^2}
    from chernlab.hilbert import heat_bracket

    cur = curvature(M)
    w = (1,)
    lhs = quantize(M, 0.8, w)
    rhs = -0.8 * heat_bracket(0.8 * M.Q2, [cur.eval_word(w)], check=False)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_chern_parity_and_unitary_invariance(weak_q1):
    M = weak_q1
    rng = np.random.default_rng(6)
    scale = chern_scale(M)
    # wrong parity words vanish
    for _ in range(30):
        N = int(rng.integers(0, 4))
        w = random_basis_word(M.alg, CYCLIC, N, rng)
        c = Chain.basis_word(M.alg, CYCLIC, w)
        if c.parity() != M.q % 2:
            assert abs(chern_eval(M, c)) <= 1e-12 * scale
    # unitary conjugation invariance
    raw = rng.standard_normal((M.hdim, M.hdim)) + 1j * rng.standard_normal((M.hdim, M.hdim))
    herm = M.cm.project_equivariant(0.5 * (raw + raw.conj().T), 0)
    herm = 0.5 * (herm + herm.conj().T)
    U = expm(1j * herm)
    M2 = conjugate_module(M, U)
    for _ in range(20):
        N = int(rng.integers(0, 4))
        w = random_basis_word(M.alg, CYCLIC, N, rng)
        v1 = chern_eval(M, w)
        v2 = chern_eval(M2, w)
        assert abs(v1 - v2) <= 1e-11 * max(1.0, scale)


def test_chern_restriction_along_extension(circle_doubled):
    # Ch_M = Ch_{M_T} on words over the base algebra
    M = circle_doubled
    ext = acyclic_extension(M.alg)
    M_T = acyclic_extend_module(M, ext)
    rng = np.random.default_rng(7)
    for _ in range(10):
        N = int(rng.integers(0, 3))
        w = random_basis_word(M.alg, CYCLIC, N, rng)
        assert abs(chern_eval(M, w) - chern_eval(M_T, w)) <= 1e-12


def test_coclosedness_and_pullback(circle_doubled):
    M = circle_doubled
    ext = acyclic_extension(M.alg)
    M_T = acyclic_extend_module(M, ext)
    rng = np.random.default_rng(8)
    scale = chern_scale(M_T)
    for _ in range(15):
        N = int(rng.integers(0, 3))
        w = random_basis_word(ext, CYCLIC, N, rng)
        assert abs(coclosed_residual(M_T, w)) <= 1e-9 * scale
        assert chern_pullback_residual(M_T, w) <= 1e-9 * scale


def test_coclosed_residual_of_a_basis_word_builds_no_chain(monkeypatch):
    # criterion 05's fixtures, each with a spread of its words (every word of
    # up to 4 slots on a small algebra, of up to 2 on a large one).  A basis
    # word runs d + b - B on the per-word faces: no chain is built and no
    # word layer runs, since a layer pass costs about 30x the whole per-word
    # loop on this one-word traffic.  The value has the bits of
    # Ch(d_total(basis_word)) summed in d, b, -B order: for one word the
    # three images have distinct lengths, so d_total's layers are exactly them.
    seed = 20260809
    modules = []
    for M in (random_weak_cq(hdim=4, q=0, seed=seed + 1, k=1), random_weak_cq(hdim=6, q=1, seed=seed + 2, k=2),
              double_odd(discrete_circle(6, seed=seed))):
        modules += [M, acyclic_extend_module(M, acyclic_extension(M.alg))]
    cases = []
    for M in modules:
        words = _all_basis_words(M.alg, 3 if M.alg.dim <= 8 else 1)
        for w in words[:: max(1, len(words) // 60)]:
            image = d_total(Chain.basis_word(M.alg, CYCLIC, w))
            N = len(w) - 1
            terms = [t for n in (N, N - 1, N + 1) for t in image.component(n).terms.items()]
            cases.append((M, w, (-1.0) ** M.q * complex(sum(cf * chern_eval(M, t) for t, cf in terms))))
    assert len(cases) > 300 and sum(v != 0 for _, _, v in cases) > 100

    def refuse(*args, **kwargs):
        raise AssertionError("a one-word coclosed_residual reached a chain")

    monkeypatch.setattr(Chain, "__init__", refuse)
    monkeypatch.setattr(Chain, "_from_layers", classmethod(refuse))
    monkeypatch.setattr(chains, "_apply_layers", refuse)
    for M, w, want in cases:
        got = coclosed_residual(M, w)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (M.name, w)


def test_coclosed_residual_skips_only_terms_with_a_zero_cstr_row(monkeypatch):
    # on q = 1 modules many terms of (d + b - B) word meet a zero row of the
    # CStr table (Ch vanishes there by parity); dropping them before any
    # chain is computed leaves the sum bit for bit as it was
    seed = 20260809
    M = random_weak_cq(hdim=6, q=1, seed=seed + 2, k=2)
    frame = M.curvature.frame
    assert not all(live.all() for live in frame.live_rows)
    calls = []
    inner = fredholm._reduced_phi

    def counting(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(fredholm, "_reduced_phi", counting)
    filtered = unfiltered = nonzero = 0
    for w in _all_basis_words(M.alg, 3):
        del calls[:]
        got = coclosed_residual(M, w)
        filtered += len(calls)
        del calls[:]
        want = (-1.0) ** M.q * fredholm._chern_sum(M, chains.d_total_terms(M.alg, w), 1.0)
        unfiltered += len(calls)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), w
        nonzero += got != 0
    assert nonzero > 50 and filtered < unfiltered


def test_chen_vanish_requires_strong(weak_q1):
    with pytest.raises(ModuleError):
        chen_vanish(weak_q1)


def test_chen_vanish_strong_fixture():
    M = exterior_strong(hdim=4, q=0, seed=9, k=1)
    rep = chen_vanish(M, seed=10, n_words=30)
    assert rep.passed, rep.summary()


def _direction(M, rng):
    """A random odd, Hermitian, C_q-equivariant direction on M's space."""
    raw = rng.standard_normal((M.hdim, M.hdim)) + 1j * rng.standard_normal((M.hdim, M.hdim))
    V = M.cm.project_equivariant(raw, 1)
    return 0.5 * (V + V.conj().T)


@pytest.mark.parametrize("name", ["q0", "q1", "q2", "q3", "circle~_T"])
def test_psi_matches_definition(name):
    M = _HALF_FRAME_MODULES[name]()
    rng = np.random.default_rng(11)
    hom = Homotopy(M, _direction(M, rng))
    for N in range(0, 4):
        w = random_basis_word(M.alg, BAR_RED, N, rng)
        for word in (w, word_to_vecs(M.alg, w)):
            a = psi_eval(hom, 0.4, 0.9, word)
            b = psi_quadrature(hom, 0.4, 0.9, word, nodes=40)
            assert np.max(np.abs(a - b)) <= 1e-10
            assert np.max(np.abs(b)) > 1e-3
    # arity-0 component scales linearly in T as T -> 0
    n1 = np.max(np.abs(psi_eval(hom, 0.4, 1e-5, ())))
    n2 = np.max(np.abs(psi_eval(hom, 0.4, 2e-5, ())))
    assert n2 / n1 == pytest.approx(2.0, rel=1e-3)


@pytest.mark.parametrize("name", ["q1", "q2", "q3", "circle~_T"])
def test_psi_eval_runs_one_half_frame_chain(name, monkeypatch):
    # one Frechet call on (N + 1) half-size nodes, for basis and vector words
    M = _HALF_FRAME_MODULES[name]()
    hom = Homotopy(M, _direction(M, np.random.default_rng(12)))
    shapes = []

    def recording(G, E):
        shapes.append(G.shape)
        return frechet(G, E)

    frechet = hilbert.expm_frechet
    monkeypatch.setattr(hilbert, "expm_frechet", recording)
    words = [(), (1,), (1, 2), (2, 1, 3)]
    for w in words + [word_to_vecs(M.alg, w) for w in words]:
        psi_eval(hom, 0.4, 1.0, w)
    h = M.hdim // 2
    assert shapes == [((len(w) + 1) * h, (len(w) + 1) * h) for w in words] * 2


def test_bianchi_identity(weak_q1):
    M = weak_q1
    rng = np.random.default_rng(12)
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    V = M.cm.project_equivariant(raw, 1)
    V = 0.5 * (V + V.conj().T)
    hom = Homotopy(M, V)
    for N in range(0, 3):
        w = random_basis_word(M.alg, BAR_RED, N, rng)
        assert bianchi_residual(hom, 0.3, 1.0, w) <= 1e-6


def test_transgression_small():
    M = random_weak_cq(hdim=4, q=0, seed=13, k=2, strong=True)
    rng = np.random.default_rng(14)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    V = M.cm.project_equivariant(raw, 1)
    V = 0.5 * (V + V.conj().T)
    hom = Homotopy(M, V)
    ext = acyclic_extension(M.alg)
    words = [random_basis_word(ext, CYCLIC, 1 + int(rng.integers(0, 2)), rng) for _ in range(6)]
    rep = transgression_check(hom, words, s_nodes=16, ext_alg=ext)
    assert rep.passed, rep.summary()
    # V = 0: both sides vanish
    rep0 = transgression_check(Homotopy(M, np.zeros_like(V)), words[:2],
                               s_nodes=8, ext_alg=ext)
    assert rep0.max_residual() <= 1e-12
    assert rep0.notes["nonzero_lhs_words"] == 0


def _small_homotopy(seed, q=1):
    M = random_weak_cq(hdim=4, q=q, seed=seed, k=2, strong=q == 0)
    rng = np.random.default_rng(seed + 1)
    V = M.cm.project_equivariant(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), 1)
    return M, 0.5 * (V + V.conj().T)


def test_transgression_counts_the_words_it_evaluates():
    # a generator of words is consumed by the check; the note counts what it evaluated
    M, V = _small_homotopy(17, q=0)
    ext = acyclic_extension(M.alg)
    rng = np.random.default_rng(18)
    words = [random_basis_word(ext, CYCLIC, 1 + int(rng.integers(0, 2)), rng) for _ in range(4)]
    rep = transgression_check(Homotopy(M, V), (w for w in words), s_nodes=8, ext_alg=ext)
    assert rep.passed, rep.summary()
    assert rep.checks[0].note == "4 words"
    M1, M0 = (acyclic_extend_module(Homotopy(M, V).module(s), ext) for s in (1.0, 0.0))
    expected = sum(abs(chern_eval(M1, w) - chern_eval(M0, w)) > 1e-8 for w in words)
    assert expected > 0
    assert rep.notes["nonzero_lhs_words"] == expected


def _not_hermitian(M, V):
    return 1j * V


def _not_odd(M, V):
    # the grading is Hermitian and anticommutes with every generator, but is even
    return V + np.diag(M.cm.H.parity.astype(complex))


def _not_equivariant(M, V):
    # an odd Hermitian operator minus its C_q-equivariant part
    rng = np.random.default_rng(20)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    G = M.cm.H.parity.astype(float)
    A = 0.5 * (A - G[:, None] * A * G[None, :])
    A = 0.5 * (A + A.conj().T)
    return V + A - M.cm.project_equivariant(A, 1)


CHECK_IDS = ("Q-hermitian", "Q-odd", "Q-clifford-equivariance")


@pytest.mark.parametrize("spoil, failing", [
    (_not_hermitian, "Q-hermitian"),
    (_not_odd, "Q-odd"),
    (_not_equivariant, "Q-clifford-equivariance"),
], ids=["not-hermitian", "not-odd", "not-equivariant"])
def test_homotopy_refuses_a_bad_direction(spoil, failing):
    M, V = _small_homotopy(19)
    Homotopy(M, V)  # the projected direction is accepted
    with pytest.raises(ModuleError) as err:
        Homotopy(M, spoil(M, V))
    named = [check_id for check_id in CHECK_IDS if check_id in str(err.value)]
    assert named == [failing]


def test_extended_homotopy_is_the_extension_of_each_module():
    M, V = _small_homotopy(21)
    hom = Homotopy(M, V)
    ext = acyclic_extension(M.alg)
    hom_T = hom.extended(ext)
    for s in (0.0, 0.37, 1.0):
        direct = acyclic_extend_module(hom.module(s), ext)
        assert hom_T.module(s).alg is ext
        assert np.array_equal(hom_T.module(s).c_mats, direct.c_mats)
        assert np.array_equal(hom_T.module(s).Q, direct.Q)


def test_getzler_closed_form_matches_doubling():
    Modd = getzler_trivial(4, seed=15)
    M = double_odd(Modd)
    rng = np.random.default_rng(16)
    scale = chern_scale(M)
    hits = 0
    for _ in range(30):
        N = int(rng.integers(0, 6))
        w = random_basis_word(Modd.alg, CYCLIC, N, rng)
        closed = getzler_closed_form(Modd, w)
        doubled = chern_eval(M, w)
        assert abs(closed - doubled) <= 1e-9 * scale
        if N % 2 == 0:
            assert closed == 0.0
        elif abs(closed) > 1e-9:
            hits += 1
    assert hits > 3  # the comparison is not vacuous


def test_getzler_rejects_graded_input():
    M = discrete_circle(3, seed=0)
    with pytest.raises(ModuleError):
        getzler_closed_form(M, (0, 4))


def test_trace_norm_bound_calibrated(circle_doubled):
    from chernlab.fredholm import calibrate_nu, phi_estimate_ratio

    M = circle_doubled
    rng = np.random.default_rng(17)
    cal = [random_basis_word(M.alg, CYCLIC, 1 + int(rng.integers(0, 3)), rng)[1:] for _ in range(15)]
    kappa = calibrate_nu(M, cal, (0.25, 1.0, 4.0))
    for _ in range(20):
        w = random_basis_word(M.alg, CYCLIC, 1 + int(rng.integers(0, 3)), rng)[1:]
        for T in (0.25, 1.0, 4.0):
            assert phi_estimate_ratio(M, w, T, kappa=kappa) <= 1.0 + 1e-10


def test_calibrate_nu_refuses_a_non_finite_ratio(circle_doubled, monkeypatch):
    M = circle_doubled
    word = (M.alg.unit.coeffs,)
    monkeypatch.setattr(fredholm, "phi_estimate_ratio", lambda *args, **kwargs: np.nan)
    with pytest.raises(ModuleError, match="trace-norm ratio"):
        fredholm.calibrate_nu(M, [word], [1.0])


def test_a_zero_slot_word_has_ratio_zero(circle_doubled):
    # a zero slot makes the bound 0, and Phi is multilinear, so 0 too
    from chernlab.fredholm import calibrate_nu, phi_estimate_ratio

    M = circle_doubled
    zero = np.zeros(M.alg.dim, dtype=complex)
    for word in [(zero,), (M.alg.unit.coeffs, zero), (zero, M.alg.unit.coeffs, zero)]:
        assert phi_estimate_ratio(M, word, 1.0) == 0.0
    assert calibrate_nu(M, [(zero,)], [1.0]) == 1.25


# -- Clifford periodicity ------------------------------------------------------------------


def _times_spinor_module(M):
    """M (x) S, S = C^{1|1} the spinor module of C_2: one C_2 spinor step on the
    Clifford module, with c and Q becoming 1 (x) c and 1 (x) Q."""
    eye = np.eye(2)
    return CqFredholmModule(M.alg, spinor_step(M.cm, 2), np.stack([np.kron(eye, c) for c in M.c_mats]),
                            np.kron(eye, M.Q), weak=M.weak, name=M.name + "(x)S")


@pytest.mark.parametrize("make", [lambda: random_weak_cq(hdim=6, q=0, seed=3, k=2),
                                  lambda: random_weak_cq(hdim=6, q=1, seed=4, k=2),
                                  lambda: double_odd(discrete_circle(3))], ids=["q0", "q1", "circle~"])
def test_clifford_periodicity(make):
    # Ch(M (x) S) = (i/2) Ch(M) on every basis word of 1 to 4 slots; the factor
    # is 2^-2 tr(sigma_3 eps_1 eps_2) = 2i / 4
    M = make()
    MS = _times_spinor_module(M)
    assert MS.q == M.q + 2
    assert clifford_validate(MS.cm).passed and module_validate(MS).passed
    nonzero = 0
    for w in _all_words(M.alg.dim, 4)[1:]:
        ch = chern_eval(M, w)
        assert abs(chern_eval(MS, w) - 0.5j * ch) <= 1e-13 * max(1.0, abs(ch)), w
        nonzero += abs(ch) > 1e-8
    assert nonzero > 0


# -- basis words in the Clifford half-frame ----------------------------------------------


def _all_words(dim, max_slots):
    return [w for N in range(max_slots + 1) for w in itertools.product(range(dim), repeat=N)]


_HALF_FRAME_MODULES = {
    "q0": lambda: random_weak_cq(hdim=4, q=0, seed=21, k=2),
    "q1": lambda: random_weak_cq(hdim=6, q=1, seed=22, k=2),
    "q2": lambda: random_weak_cq(hdim=8, q=2, seed=23, k=2),
    "q3": lambda: random_weak_cq(hdim=8, q=3, seed=24, k=2),
    "circle~": lambda: double_odd(discrete_circle(2, seed=3)),
    "circle~_T": lambda: acyclic_extend_module(double_odd(discrete_circle(2, seed=3))),
}


@pytest.mark.parametrize("name", ["q0", "q1", "q2", "q3", "circle~", "circle~_T"])
def test_basis_word_quantize_matches_vector_slots_and_partitions(name):
    # basis words read the tables and coefficient-vector words build their
    # blocks from the F_2 rows, both on half-size blocks when q >= 1; the
    # partition enumeration runs on the full-size Curvature.F1 and F2
    M = _HALF_FRAME_MODULES[name]()
    words = _all_words(M.alg.dim, 3)
    for T in (0.5, 1.0, 2.0):
        for w in words:
            phi = quantize(M, T, w)
            assert phi.shape == (M.hdim, M.hdim)
            tol = 1e-13 * max(1.0, float(np.max(np.abs(phi))))
            vec = quantize(M, T, word_to_vecs(M.alg, w))
            assert np.max(np.abs(phi - vec)) <= tol, (T, w)
            parts = quantize_partitions(M, T, w)
            assert np.max(np.abs(phi - parts)) <= tol, (T, w)
    rng = np.random.default_rng(42)
    degrees = sorted(set(M.alg.degree_tuple))
    for N in range(1, 4):
        for _ in range(4):
            w = tuple(_of_degree(M.alg, rng, degrees[rng.integers(len(degrees))]) for _ in range(N))
            # distinct slots, and one slot object repeated (its blocks are built once)
            for word, T in itertools.product((w, (w[0],) * N), (0.5, 2.0)):
                parts = quantize_partitions(M, T, word)
                tol = 1e-13 * max(1.0, float(np.max(np.abs(parts))))
                assert np.max(np.abs(quantize(M, T, word) - parts)) <= tol, (T, N)


def test_quantize_refuses_a_mixed_degree_slot():
    # the lift's sign is the word's parity, and a slot of two degrees has none
    M = _HALF_FRAME_MODULES["q1"]()
    mixed = np.zeros(M.alg.dim, dtype=complex)
    mixed[[M.alg.degree_tuple.index(0), M.alg.degree_tuple.index(1)]] = 1.0
    for word in [(mixed,), (M.alg.unit.coeffs, mixed)]:
        with pytest.raises(CochainError):
            quantize(M, 1.0, word)


@pytest.mark.parametrize("name", ["q0", "q1", "q2", "q3", "circle~_T"])
def test_basis_word_chain_runs_on_half_size_blocks(name, monkeypatch):
    M = _HALF_FRAME_MODULES[name]()
    sizes = []
    inner = fredholm.chain_exp_topright

    def recording(diag, bands):
        sizes.append({block.shape for block in diag})
        return inner(diag, bands)

    monkeypatch.setattr(fredholm, "chain_exp_topright", recording)
    for w in [(), (1,), (1, 2), (2, 1, 3)]:
        quantize(M, 1.0, w)
    h = M.hdim // 2 if M.q >= 1 else M.hdim
    assert sizes == [{(h, h)}] * 4


def _of_degree(alg, rng, degree):
    """A random coefficient vector supported on basis elements of one degree."""
    mask = np.array([d == degree for d in alg.degree_tuple])
    return mask * (rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))


def _homogeneous(alg, rng, parity):
    """A random coefficient vector supported on basis elements of one degree parity."""
    mask = np.array([d % 2 == parity for d in alg.degree_tuple])
    return mask * (rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))


@pytest.mark.parametrize("name", ["q0", "q1", "q2", "q3", "circle~_T"])
def test_f2_is_the_closed_form_in_both_frames(name):
    # F_2(u, v) = c(s(u) v) - c(s(u)) c(v), s(u) = (-1)^{|u|} u
    M = _HALF_FRAME_MODULES[name]()
    alg = M.alg
    cur = M.curvature
    rng = np.random.default_rng(41)
    for pu, pv in itertools.product((0, 1), repeat=2):
        u, v = _homogeneous(alg, rng, pu), _homogeneous(alg, rng, pv)
        su = (-1.0) ** pu * u
        prod = np.einsum("i,j,ijk->k", su, v, alg.mul)
        closed = M.c(prod) - M.c(su) @ M.c(v)
        got = cur.F2(u, v)
        assert np.max(np.abs(got - closed)) <= 1e-13 * max(1.0, float(np.max(np.abs(closed))))
    if M.q == 0:
        return
    frame = cur.frame
    Up = frame.U[:, : M.hdim // 2]
    for i, j in itertools.product(range(alg.dim), repeat=2):
        full = cur.F2(np.eye(alg.dim)[i], np.eye(alg.dim)[j])
        tol = 1e-13 * max(1.0, float(np.max(np.abs(full))))
        assert np.max(np.abs(frame.f2(i, j) - Up.conj().T @ full @ Up)) <= tol


def _non_equivariant(M, which, eps=1e-6):
    """A copy of M whose c(e_1) or Q carries a small part that breaks the C_q action."""
    rng = np.random.default_rng(31)
    noise = eps * (rng.standard_normal((M.hdim, M.hdim)) + 1j * rng.standard_normal((M.hdim, M.hdim)))
    c_mats, Q = np.array(M.c_mats), np.array(M.Q)
    p = int(M.alg.degree[1]) % 2
    G = M.cm.H.parity.astype(float)
    if which == "c":
        c_mats[1] += noise
    elif which == "c-flipped":
        # right parity, wrong sign past e_1: off-diagonal in the half-frame
        c_mats[1] += G[:, None] * M.cm.project_equivariant(noise, p)
    elif which == "c-wrong-parity":
        # equivariant of the other parity: commutes with Gamma e_1, wrong sign on U_-
        c_mats[1] += M.cm.project_equivariant(noise, 1 - p)
    else:
        Q += noise + noise.conj().T
    return CqFredholmModule(M.alg, M.cm, c_mats, Q, weak=True, name=f"{M.name}+{which}")


@pytest.mark.parametrize("which", ["c", "c-flipped", "c-wrong-parity", "Q"])
def test_half_frame_guard_refuses_a_non_equivariant_module(which):
    M = _non_equivariant(random_weak_cq(hdim=6, q=1, seed=22, k=2), which)
    assert not module_validate(M).passed
    # every word runs in the half-frame, so every word is refused
    for word in [(1,), word_to_vecs(M.alg, (1,))]:
        with pytest.raises(ModuleError, match="equivariant"):
            quantize(M, 1.0, word)


def test_half_frame_guard_refuses_a_nan_entry():
    base = random_weak_cq(hdim=6, q=1, seed=22, k=2)
    c_mats = np.array(base.c_mats)
    c_mats[2][0, 0] = np.nan
    M = CqFredholmModule(base.alg, base.cm, c_mats, base.Q, weak=True)
    with pytest.raises(ModuleError, match="equivariant"):
        quantize(M, 1.0, (2,))


def _nan_in_c1(base):
    c_mats = np.array(base.c_mats)
    c_mats[1][0, 0] = np.nan
    if isinstance(base, OddFredholmModule):
        return OddFredholmModule(base.alg, c_mats, base.Q, weak=base.weak)
    return CqFredholmModule(base.alg, base.cm, c_mats, base.Q, weak=base.weak)


@pytest.mark.parametrize("make", [lambda: random_weak_cq(hdim=6, q=1, seed=22, k=2),
                                  lambda: discrete_circle(3, seed=0)], ids=["weak-q1", "odd-circle"])
def test_nan_operator_entry_fails_module_validation(make):
    rep = module_validate(_nan_in_c1(make()))
    assert not rep.passed
    assert all(np.isnan(c.residual) for c in rep.failing())



def test_nan_q_entry_fails_module_validation_without_raising():
    # the NaN reaches Delta = Q^2 + 1, whose spectrum is only a note
    base = random_weak_cq(hdim=6, q=1, seed=22, k=2)
    Q = np.array(base.Q)
    Q[0, 1] = np.nan
    rep = module_validate(CqFredholmModule(base.alg, base.cm, base.c_mats, Q, weak=True))
    assert not rep.passed and np.isnan(rep.residual("Q-hermitian"))
    assert np.isnan(rep.notes["delta_max_eig"])

def test_module_operators_are_read_only_copies():
    base = random_weak_cq(hdim=6, q=1, seed=22, k=2)
    c_mats, Q = np.array(base.c_mats), np.array(base.Q)
    M = CqFredholmModule(base.alg, base.cm, c_mats, Q)
    assert c_mats.flags.writeable and Q.flags.writeable
    with pytest.raises(ValueError):
        M.c_mats[1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        M.Q[0, 1] = 1.0
    odd = discrete_circle(3, seed=0)
    with pytest.raises(ValueError):
        odd.c_mats[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        odd.Q[0, 0] = 2.0


def test_replaced_module_quantizes_its_new_operator_with_a_fresh_cache():
    M = random_weak_cq(hdim=6, q=1, seed=22, k=2)
    before = quantize(M, 1.0, (1,))
    M2 = dataclasses.replace(M, Q=2.0 * M.Q)
    assert not M2.Q.flags.writeable and M2._phi_cache == {} and M2.curvature is not M.curvature
    after = quantize(M2, 1.0, (1,))
    vec = quantize(M2, 1.0, word_to_vecs(M2.alg, (1,)))
    assert np.max(np.abs(after - vec)) <= 1e-13 * max(1.0, float(np.max(np.abs(vec))))
    assert np.max(np.abs(after - before)) > 1e-3
    assert np.array_equal(quantize(M, 1.0, (1,)), before)


def test_every_field_of_the_frozen_classes_refuses_reassignment():
    from chernlab.algebra import mat_lift
    from chernlab.fixtures import circle_loop_element, exterior_algebra
    from chernlab.spectral import ch_g, twisted_family
    from chernlab.suite import SuiteConfig

    M = random_weak_cq(hdim=6, q=1, seed=22, k=2)
    V = M.cm.project_equivariant(np.ones((6, 6), dtype=complex), 1)
    circle = discrete_circle(3, seed=0)
    g = circle_loop_element(circle.alg, eps=0.1, seed=1)
    lift = mat_lift(exterior_algebra(1), 2)
    for obj in (M.cm.H, M.cm, M, circle, Homotopy(M, 0.5 * (V + V.conj().T)), lift, lift.unit, g,
                ch_g(g, 2), twisted_family(circle, g), SuiteConfig()):
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
    # what an algebra derives on construction is frozen as well
    for name in ("degree_tuple", "mul_table", "mul_cf", "diff_table", "matrix_basis", "matrix_flat_inv"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lift, name, getattr(lift, name))


def test_nan_coclosed_residual_fails_the_chern_group(monkeypatch):
    import chernlab.suite as suite

    inner = suite.coclosed_residual
    calls = []

    def poisoned(M, chain, *args, **kwargs):
        calls.append(chain)
        if len(calls) == 1:
            return complex(np.nan)
        return inner(M, chain, *args, **kwargs)

    monkeypatch.setattr(suite, "coclosed_residual", poisoned)
    reports = suite.group_chern(suite.SuiteConfig(seed=0, fast=True))
    first = reports[0]
    assert first.subject.startswith("chern:")
    assert not next(c for c in first.checks if c.check_id == "coclosed-base").passed
    assert not first.passed


def test_nan_phi_ratio_fails_the_trace_norm_bound(monkeypatch):
    import chernlab.suite as suite

    inner = suite.phi_estimate_ratio
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(1)
        return np.nan if len(calls) == 1 else inner(*args, **kwargs)

    monkeypatch.setattr(suite, "phi_estimate_ratio", poisoned)
    rep = suite.fundamental_estimate_report(suite.SuiteConfig(seed=0, fast=True))
    assert not rep.passed
    assert np.isnan(rep.residual("trace-norm-bound"))


def test_phi_estimate_ratio_uses_the_basis_word_cache():
    from chernlab.fredholm import phi_estimate_ratio

    M = double_odd(discrete_circle(4, seed=0))
    for w in [(1, 5), (5, 9), (9,)]:
        ratio = phi_estimate_ratio(M, w, 0.5)
        assert (0.5, w) in M._phi_cache
        assert abs(ratio - phi_estimate_ratio(M, word_to_vecs(M.alg, w), 0.5)) <= 1e-13


def test_cached_blocks_own_their_memory():
    # an entry of _phi_cache holds a copy of its reduced block, not a view that
    # pins the whole (K+1)h x (K+1)h exponential
    for M in (acyclic_extend_module(random_weak_cq(hdim=4, q=0, seed=5, k=1)),
              random_weak_cq(hdim=6, q=1, seed=22, k=2)):
        for w in [(), (1,), (1, 2, 1), (2, 1, 3), (1, 1, 2, 3)]:
            quantize(M, 1.0, w)
            chern_eval(M, (0,) + w, 0.5)
        h2 = M.hdim // 2 if M.q >= 1 else M.hdim
        assert len(M._phi_cache) >= 8
        for key, (phi, p) in M._phi_cache.items():
            assert phi.base is None and phi.flags.owndata and not phi.flags.writeable, key
            assert phi.shape == (h2, h2) and p in (0, 1), key
    M_T = acyclic_extend_module(random_weak_cq(hdim=4, q=0, k=1))
    assert quantize(M_T, 1.0, (1, 2, 1)).base is None


_ORACLE_BASES = {
    # every fixture generator, at each q it builds (odd modules are doubled to q = 1)
    **{f"weak-q{q}": lambda q=q: random_weak_cq(hdim=4, q=q, seed=30 + q, k=2) for q in range(4)},
    **{f"strong-q{q}": lambda q=q: exterior_strong(hdim=4, q=q, seed=40 + q, k=2) for q in range(4)},
    "circle~": lambda: double_odd(discrete_circle(3, seed=5)),
    "getzler~": lambda: double_odd(getzler_trivial(4, seed=6)),
}


@pytest.mark.parametrize("name", [n + ext for n in _ORACLE_BASES for ext in ("", "_T")])
def test_chern_eval_matches_the_cstr_oracle(name):
    # the CStr table row against the supertrace of c(theta_0) times the lifted Phi
    base = name.removesuffix("_T")
    M = _ORACLE_BASES[base]()
    if name != base:
        M = acyclic_extend_module(M)
    rng = np.random.default_rng(sorted(_ORACLE_BASES).index(base))
    words = [random_basis_word(M.alg, CYCLIC, N, rng) for N in range(4) for _ in range(4)]
    degrees = sorted(set(M.alg.degree_tuple))
    words += [tuple(_of_degree(M.alg, rng, degrees[rng.integers(len(degrees))]) for _ in range(N + 1))
              for N in range(4)]
    for T in (0.5, 1.0, 2.0):
        for w in words:
            value = chern_eval(M, w, T)
            oracle = cstr(M.cm, M.c(w[0]) @ quantize(M, T, tuple(w[1:])))
            assert abs(value - oracle) <= 1e-13 * max(1.0, abs(oracle)), (T, w)


# -- the Chern-Simons form through the CStr table ---------------------------------------


def _extended_homotopy(name, seed):
    """A random homotopy of a half-frame module, over its acyclic extension."""
    M = _HALF_FRAME_MODULES[name]()
    return Homotopy(M, _direction(M, np.random.default_rng(seed))).extended(acyclic_extension(M.alg))


@pytest.mark.parametrize("name", ["q0", "q1", "q2", "q3", "circle~"])
def test_chern_simons_eval_matches_the_cstr_oracle(name):
    # the unit's CStr table row of M_s against the supertrace of the lifted Psi;
    # the form runs on the extension (circle~ extended is circle~_T)
    hom_T = _extended_homotopy(name, 50)
    alg_T = hom_T.M.alg
    rng = np.random.default_rng(51)
    chains_in = [Chain.basis_word(alg_T, CYCLIC, random_basis_word(alg_T, CYCLIC, N, rng))
                 for N in range(3) for _ in range(3)]
    chains_in += [d_total(c) for c in chains_in[3:6]]
    s_x, s_w = gauss_legendre_01(4)
    nonzero = 0
    for chain in chains_in:
        value = chern_simons_eval(hom_T, chain, s_nodes=4)
        oracle = (-1.0) ** hom_T.M.q * sum(
            wi * sum(cf * cstr(hom_T.M.cm, psi_eval(hom_T, si, 1.0, w)) for w, cf in alpha_map(chain).terms.items())
            for si, wi in zip(s_x, s_w))
        assert abs(value - oracle) <= 1e-13 * max(1.0, abs(value)), chain.terms
        nonzero += abs(oracle) > 1e-8
    assert nonzero > 0


def test_chern_simons_parity_check_reads_the_parity_of_the_table():
    # wrong-parity words give CS = 0 through the table row of the block's
    # parity; read with the rows of the other parity, they do not
    hom_T = _extended_homotopy("q1", 52)
    alg_T = hom_T.M.alg
    rng = np.random.default_rng(53)
    wrong = []
    while len(wrong) < 8:
        c = Chain.basis_word(alg_T, CYCLIC, random_basis_word(alg_T, CYCLIC, int(rng.integers(0, 3)), rng))
        if (c.parity() + hom_T.M.q + 1) % 2 == 1:
            wrong.append(c)
    assert max(abs(chern_simons_eval(hom_T, c, s_nodes=4)) for c in wrong) <= 1e-10
    table = fredholm._HalfFrame.cstr_table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fredholm._HalfFrame, "cstr_table", property(lambda frame: table.func(frame)[::-1]))
        assert max(abs(chern_simons_eval(hom_T, c, s_nodes=4)) for c in wrong) > 1e-3


def test_transgression_neither_lifts_nor_calls_cstr(monkeypatch):
    # every supertrace of the check reads a CStr table: no block is lifted
    M, V = _small_homotopy(19, q=1)
    ext = acyclic_extension(M.alg)
    rng = np.random.default_rng(20)
    words = [random_basis_word(ext, CYCLIC, 1 + int(rng.integers(0, 2)), rng) for _ in range(4)]
    want = transgression_check(Homotopy(M, V), words, s_nodes=8, ext_alg=ext)

    def refuse(*args, **kwargs):
        raise AssertionError("a supertrace lifted its block")

    monkeypatch.setattr(hilbert, "cstr", refuse)
    monkeypatch.setattr(fredholm._HalfFrame, "lift", refuse)
    got = transgression_check(Homotopy(M, V), words, s_nodes=8, ext_alg=ext)
    assert want.max_residual() > 0 and want.notes["nonzero_lhs_words"] > 0
    assert got.as_dict() == want.as_dict()
