"""The odd character chain, twisted families and the spectral-flow pairing."""

import dataclasses
import gc
import itertools
import math
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

from chernlab import chains, spectral
from chernlab.algebra import (
    MatrixElement,
    acyclic_extension,
    dga_validate,
    DgAlgebra,
    mat_lift,
    matrix_units,
    maurer_cartan,
)
from chernlab.chains import CYCLIC, Chain
from chernlab.cochains import CochainError, slot_degree
from chernlab.fixtures import circle_function, circle_loop_element, discrete_circle, discrete_circle_algebra
from chernlab.fredholm import ModuleError
from chernlab.hilbert import cstr, gauss_legendre_01, heat_bracket, marked_chain_exp_row
from chernlab.spectral import (
    SpectralError,
    TERM_SIGN,
    ab_slots,
    ch_g,
    ch_g_closed,
    diagnostic_affine_sf,
    lift_matrix_to_ext,
    lifted_coeffs,
    pairing,
    pairing_term,
    pairing_term_direct,
    partition_resum_check,
    perturbation_series,
    sf_endpoint_oracle,
    sf_integral,
    sf_series_term,
    sigma_left_mult,
    twisted_family,
)
from scipy.linalg import expm


@pytest.fixture(scope="module")
def small_g():
    alg = discrete_circle_algebra(2)
    return circle_loop_element(alg, eps=0.5, seed=3)


@pytest.fixture(scope="module")
def circle6():
    return discrete_circle(6, seed=0)


@pytest.fixture(scope="module")
def tf6(circle6):
    g = circle_loop_element(circle6.alg, eps=0.10, seed=7)
    return twisted_family(circle6, g)


def _ab_by_formula(omega_T, s):
    """A(s) = s omega - s(1-s) sigma omega^2 and B = sigma omega as matrix elements."""
    omega2 = omega_T @ omega_T
    return omega_T.scale(s) - sigma_left_mult(omega2).scale(s * (1.0 - s)), sigma_left_mult(omega_T)


def _assert_same_slots(got, a_s, b, lifted):
    # the slot constructor's vectors carry the bits of the formula's lifted coefficients
    want = (lifted_coeffs(a_s, lifted), lifted_coeffs(b, lifted))
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_universal_maurer_cartan_slots():
    # algebra C<w>/(w^3) with dw = -w^2: exercises the sigma omega^2 branch
    mul = np.zeros((3, 3, 3), dtype=complex)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = mul[1, 0, 1] = 1
    mul[0, 2, 2] = mul[2, 0, 2] = 1
    mul[1, 1, 2] = 1  # w * w = w^2, w * w^2 = 0
    diff = np.zeros((3, 3), dtype=complex)
    diff[2, 1] = -1.0  # d w = -w^2
    alg = DgAlgebra(3, [0, 1, 2], 0, mul, diff, name="universal-mc")
    assert dga_validate(alg).passed
    ext = acyclic_extension(alg)
    omega = MatrixElement(np.eye(3, dtype=complex)[1].reshape(1, 1, 3), alg)
    omega_T = lift_matrix_to_ext(omega, ext)
    for s in (0.3, 0.8):
        a_s, b = _ab_by_formula(omega_T, s)
        _assert_same_slots(ab_slots(omega_T, ext)(s), a_s, b, ext)
        # d_T A(s) = -s^2 omega^2 and A(s) A(s) = s^2 omega^2
        omega2 = omega_T @ omega_T
        assert (a_s.d() + omega2.scale(s * s)).max_norm() <= 1e-13
        assert (a_s @ a_s - omega2.scale(s * s)).max_norm() <= 1e-13
        # A B = -s sigma omega^2 = -(B A)
        ab = a_s @ b
        ba = b @ a_s
        assert (ab + ba).max_norm() <= 1e-13
        assert (b @ b).max_norm() <= 1e-13
        # d_T B = sigma omega^2 - omega
        expect = sigma_left_mult(omega2) - omega_T
        assert (b.d() - expect).max_norm() <= 1e-13


def test_ch_g_zero_cases(small_g):
    alg = small_g.alg
    gid = MatrixElement.identity(1, alg)
    assert ch_g(gid, 3).total().norm() == 0.0
    ch = ch_g(small_g, 3)
    assert ch.component(0).norm() == 0.0
    for N, c in ch.chains.items():
        if c.terms:
            assert c.parity() == 1  # every component is odd


def test_ch_g_closed_report(small_g):
    rep = ch_g_closed(small_g, 5)
    assert rep.passed, rep.summary()
    assert rep.residual("connes-part-reduces-to-zero") == 0.0


def _m2_element():
    alg = discrete_circle_algebra(2)
    rng = np.random.default_rng(5)
    entries = np.zeros((2, 2, alg.dim), dtype=complex)
    for p in range(2):
        for q in range(2):
            vals = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            if p == q:
                vals += 1.5
            entries[p, q] = circle_function(alg, vals)
    return MatrixElement(entries, alg)


def _plane_loop_element():
    """A 2 x 2 loop over the polynomial forms on C^2 modulo weight >= 3
    (x, y, dx and dy of weight 1).  On the discrete circle two one-forms
    multiply to zero, so omega^2 = 0 there; here omega^2 holds
    [A, B] dx dy for omega = A dx + B dy + ..., so sigma omega^2 != 0."""
    # the basis monomial x^a y^b dx^e dy^f as (a, b, e, f)
    monos = [m for m in itertools.product(range(3), range(3), range(2), range(2)) if sum(m) <= 2]
    index = {m: i for i, m in enumerate(monos)}
    dim = len(monos)
    mul = np.zeros((dim, dim, dim), dtype=complex)
    diff = np.zeros((dim, dim), dtype=complex)
    for i, (a, b, e, f) in enumerate(monos):
        for j, (c, d, g, h) in enumerate(monos):
            prod = (a + c, b + d, e + g, f + h)
            if prod in index and e + g <= 1 and f + h <= 1:
                mul[i, j, index[prod]] = -1.0 if f and g else 1.0  # dy passes dx
        # d(x^a y^b) = a x^(a-1) y^b dx + b x^a y^(b-1) dy, placed in front of dx^e dy^f
        if a and not e:
            diff[index[(a - 1, b, 1, f)], i] += a
        if b and not f:
            diff[index[(a, b - 1, e, 1)], i] += -b if e else b
    alg = DgAlgebra(dim, [e + f for _, _, e, f in monos], 0, mul, diff, name="PlaneForms")
    assert dga_validate(alg).passed
    rng = np.random.default_rng(11)
    functions = [index[m] for m in ((1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))]
    entries = np.zeros((2, 2, dim), dtype=complex)
    for p in range(2):
        for q in range(2):
            entries[p, q, functions] = 0.3 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        entries[p, p, 0] = 1.5
    return MatrixElement(entries, alg)


def test_ab_slots_of_an_m2_element_match_the_formula():
    # for m = 2 the lifted coefficients go through the lift's matrix_flat_inv
    g = _m2_element()
    alg_T = acyclic_extension(g.alg)
    omega_T = lift_matrix_to_ext(maurer_cartan(g), alg_T)
    lifted = mat_lift(alg_T, 2)
    slots = ab_slots(omega_T, lifted)
    for s in (0.0, 0.3, 0.8, 1.0):
        a_s, b = _ab_by_formula(omega_T, s)
        _assert_same_slots(slots(s), a_s, b, lifted)
    assert np.any(slots(0.3)[0]) and np.any(slots(0.3)[1])


def test_ch_g_closed_frees_its_algebra(small_g, monkeypatch):
    # nothing kept across calls (kernel tables, sign rows) may hold the
    # acyclic extension that every ch_g call builds afresh
    built = []
    inner = spectral.ch_g

    def recording(g, N_max):
        out = inner(g, N_max)
        built.append(weakref.ref(out.alg_T))
        return out

    monkeypatch.setattr(spectral, "ch_g", recording)
    assert ch_g_closed(small_g, 3).passed
    gc.collect()
    assert len(built) == 1 and built[0]() is None


def test_ch_g_closed_adds_no_term_by_term_and_its_witnesses_are_columnar(small_g, monkeypatch):
    added, witnesses = [], []
    inner_add, inner_witness = chains._add, spectral._chen_witness

    def counting(terms, word, coeff):
        added.append(word)
        return inner_add(terms, word, coeff)

    def recording(ch, N, vecs):
        out = inner_witness(ch, N, vecs)
        witnesses.append(out)
        return out

    monkeypatch.setattr(chains, "_add", counting)
    monkeypatch.setattr(spectral, "_chen_witness", recording)
    assert ch_g_closed(small_g, 5).passed
    assert added == []
    assert len(witnesses) == 4 and all(w.terms for w in witnesses)


def test_ch_g_closed_m2():
    g = _m2_element()
    rep = ch_g_closed(g, 3)
    assert rep.passed, rep.summary()


def test_twisted_family_identities(tf6):
    assert tf6.report.passed, tf6.report.summary()
    # s = 0 gives back Q_m; s = 1 is the conjugated operator (same spectrum)
    assert np.max(np.abs(tf6.Q_s(0.0) - tf6.Q_m)) == 0.0
    assert sf_endpoint_oracle(tf6) <= 1e-10


def test_twisted_family_requires_strong(circle6):
    weak = dataclasses.replace(discrete_circle(4, seed=0), weak=True)
    g = circle_loop_element(weak.alg, eps=0.2, seed=1)
    with pytest.raises(SpectralError):
        twisted_family(weak, g)


def test_perturbation_series_matches_exponential(tf6):
    for s in (0.0, 0.5, 1.0):
        ps, tail = perturbation_series(tf6, s, 1.0, 14)
        direct = expm(-(tf6.Q_s(s) @ tf6.Q_s(s)))
        assert np.max(np.abs(ps - direct)) <= 1e-8
        assert tail <= 1e-8
    # X_0 = 0: the series is exactly the heat operator
    ps0, _ = perturbation_series(tf6, 0.0, 1.0, 3)
    assert np.max(np.abs(ps0 - expm(-tf6.Q_m @ tf6.Q_m))) == 0.0


def test_perturbation_series_tail_error(tf6):
    with pytest.raises(SpectralError):
        perturbation_series(tf6, 1.0, 1.0, 1, tail_tol=1e-12)


def test_sf_methods_agree_and_vanish(tf6):
    sf = sf_integral(tf6, s_nodes=16, M_max=14)
    assert abs(sf["direct"] - sf["series"]) <= 1e-8
    assert abs(sf["direct"]) <= 1e-8  # finite-dimensional degeneracy


def _crossings_by_scan(Q0, Q1, steps=400):
    """Signed zero crossings of the sorted eigenvalue paths on a uniform grid."""
    prev = np.linalg.eigvalsh(Q0)
    count = 0
    for s in np.linspace(0.0, 1.0, steps + 1)[1:]:
        cur = np.linalg.eigvalsh((1 - s) * Q0 + s * Q1)
        count += int(np.sum((prev < 0) & (cur >= 0))) - int(np.sum((prev >= 0) & (cur < 0)))
        prev = cur
    return count


def test_diagnostic_affine_path():
    rng = np.random.default_rng(11)
    d = 6
    A = rng.standard_normal((d, d))
    Q0 = 0.5 * (A + A.T) + 0.0j
    B = rng.standard_normal((d, d))
    Q1 = 0.5 * (B + B.T) + 0.0j
    out = diagnostic_affine_sf(Q0, Q1, s_nodes=48)
    assert abs(out["integral"] - out["oracle"]) <= 1e-8
    assert isinstance(out["crossings"], int)
    # the endpoint index difference is the sum the 400-step scan telescopes to
    counts = []
    for _ in range(12):
        A, B = (rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d)))
        Q0, Q1 = A + A.conj().T, B + B.conj().T
        counts.append(diagnostic_affine_sf(Q0, Q1, s_nodes=4)["crossings"])
        assert counts[-1] == _crossings_by_scan(Q0, Q1)
    assert any(counts)
    # a path that moves two eigenvalues of a conjugated diagonal across zero
    U = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    Q0, Q1 = (U @ np.diag(lam) @ U.conj().T for lam in ([-1.0, -0.5, 0.7, 2.0], [1.0, 0.5, 0.7, 2.0]))
    assert diagnostic_affine_sf(Q0, Q1, s_nodes=4)["crossings"] == _crossings_by_scan(Q0, Q1) == 2


def test_partition_resummation(tf6):
    assert partition_resum_check(tf6, 0.0, 1.0, 1) <= 1e-12  # both sides e^{-T Q~^2}
    assert partition_resum_check(tf6, 0.5, 1.0, 1) <= 1e-12  # exact match at M_max = 1
    assert partition_resum_check(tf6, 0.8, 1.0, 3) <= 1e-8


def test_pairing_term_marked_engine_vs_direct(tf6):
    for N in (1, 2, 3):
        for s in (0.3, 0.9):
            a = pairing_term(tf6, N, s)
            b = pairing_term_direct(tf6, N, s)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_pairing_identity_orientation(tf6):
    # the per-degree identity holds with TERM_SIGN = -1 and fails with +1
    from chernlab.spectral import sf_series_term

    p1 = pairing_term(tf6, 1, 0.5)
    s0 = sf_series_term(tf6, 0, 0.5)
    assert abs(p1 - TERM_SIGN * s0) <= 1e-12
    assert abs(p1 + TERM_SIGN * s0) > 1e-4  # terms are genuinely nonzero


@pytest.mark.parametrize("s", [0.3, 0.9])
def test_term_sign_from_the_degree_one_terms(tf6, s):
    # F_1(B) = c~(omega): c vanishes on the sigma components and
    # d(sigma omega) = -sigma d omega - omega.  So Phi_1(B) = -{c~(omega)}_{Q~^2},
    # the degree-1 B-insertion sum is -CStr(c~(omega) e^{-Q~^2}), and the order-0
    # spectral-flow term is +CStr(c~(omega) e^{-Q~^2}): TERM_SIGN = -1
    Mdt = tf6.Mdt
    _, b_vec = tf6.ab_vectors(s)
    assert np.array_equal(Mdt.curvature.F1(b_vec), tf6.c_omega_doubled)
    heat_term = cstr(Mdt.cm, tf6.c_omega_doubled @ expm(-Mdt.Q2))
    p_row, sf_row = spectral._pairing_rows(tf6, s, 1)
    assert abs(p_row[0] + heat_term) <= 1e-12
    assert abs(sf_row[0] - heat_term) <= 1e-12
    assert abs(heat_term) > 1e-4
    assert TERM_SIGN == -1.0


def test_pairing_report_small(circle6):
    g = circle_loop_element(circle6.alg, eps=0.10, seed=7)
    rep = pairing(circle6, g, N_max=6, tail_tol=1e-3)
    assert rep.checks.passed, rep.checks.summary()
    assert rep.checks.notes["nonzero_terms"] == 6
    data = rep.as_dict()
    assert data["verdict"] is True
    assert len(data["terms"]) == 6


def test_pairing_tail_guard(circle6):
    g = circle_loop_element(circle6.alg, eps=0.4, seed=7)
    with pytest.raises(SpectralError):
        pairing(circle6, g, N_max=3, tail_tol=1e-9)



@pytest.mark.parametrize("N_max", [0, -3])
def test_pairing_refuses_a_degree_below_one(circle6, N_max):
    g = circle_loop_element(circle6.alg, eps=0.10, seed=7)
    with pytest.raises(SpectralError, match="N_max must be >= 1"):
        pairing(circle6, g, N_max=N_max)

def test_doubling_reshuffle_isomorphism():
    # pairing data on (H^m)~ equals the reshuffle of the doubled matrix module
    from chernlab.fredholm import acyclic_extend_module, double_odd, matrix_module
    Modd = discrete_circle(3, seed=2)
    ext = acyclic_extension(Modd.alg)
    M_T = acyclic_extend_module(Modd, ext)
    m = 2
    lifted = mat_lift(ext, m)
    left = double_odd(matrix_module(M_T, m, lifted_alg=lifted))  # (H^m)~
    h = Modd.hdim
    # U: (v+, v-) in (H^m)~ -> ((v1+, v1-), ..., (vm+, vm-)) in (H~)^m
    n = 2 * m * h
    U = np.zeros((n, n))
    for p in range(m):
        for sgn in range(2):
            for x in range(h):
                row = p * 2 * h + sgn * h + x   # index in (H~)^m
                col = sgn * m * h + p * h + x   # index in (H^m)~
                U[row, col] = 1.0
    # right-hand side: Mat_m of the doubled module, built directly
    Mq = double_odd(M_T)
    mats = matrix_units(m)[0]
    c_right = np.stack([np.kron(B, Mq.c_mats[i]) for B in mats for i in range(ext.dim)])
    Q_right = np.kron(np.eye(m), Mq.Q)
    assert np.max(np.abs(U @ left.Q @ U.T - Q_right)) <= 1e-13
    worst = max(
        float(np.max(np.abs(U @ left.c_mats[a] @ U.T - c_right[a])))
        for a in range(lifted.dim)
    )
    assert worst <= 1e-13


CIRCLE2_TERMS = {1: 4, 2: 32, 3: 192, 4: 1024, 5: 5120, 6: 24576}


def _ch_g_by_sums(g, N_max):
    """Ch(g) for m = 1 as {N: {word: coeff}}, each tensor word expanded by a
    product loop and added term by term into a dict."""
    alg_T = acyclic_extension(g.alg)
    omega_T = lift_matrix_to_ext(maurer_cartan(g), alg_T)
    unit_vec = alg_T.unit.coeffs
    slots = ab_slots(omega_T, alg_T)
    out = {}
    for N in range(1, N_max + 1):
        nodes, weights = gauss_legendre_01(N + 1)
        acc = {}
        for s, w in zip(nodes, weights):
            a_s, b = _ab_by_formula(omega_T, s)
            _assert_same_slots(slots(s), a_s, b, alg_T)
            a_vec, b_vec = a_s.entries[0, 0], b.entries[0, 0]
            for k in range(1, N + 1):
                words = [((), w)]
                for vec in [unit_vec] + [a_vec] * (k - 1) + [b_vec] + [a_vec] * (N - k):
                    nz = np.nonzero(vec)[0]
                    words = [(t + (int(i),), cf * vec[i]) for t, cf in words for i in nz]
                for t, cf in words:
                    if cf != 0 and alg_T.unit_index not in t[1:]:  # the constructor's add rules
                        chains._add(acc, t, cf)
        out[N] = acc
    return out


def test_ch_g_term_counts_on_the_n2_circle():
    alg = discrete_circle_algebra(2)
    ch = ch_g(circle_loop_element(alg, eps=0.5, seed=20260818), 6)
    assert {N: len(ch.component(N).terms) for N in range(1, 7)} == CIRCLE2_TERMS


def test_ch_g_refuses_past_the_term_limit(small_g, monkeypatch):
    # degrees 1 and 2 hold 4 + 32 terms; degree 3 adds 192 in three blocks of 64
    monkeypatch.setattr(spectral, "_CH_G_MAX_TERMS", 100)
    with pytest.raises(SpectralError, match="exceeds 100 terms at degree 3"):
        ch_g(small_g, 5)
    # under 50 not even one degree-3 block fits (36 + 64 distinct words), so
    # the build refuses before it makes any 4-slot block
    built = []
    inner = spectral._kron_layer

    def counting(factors, dim, coeff, *tags):
        built.append(len(factors))
        return inner(factors, dim, coeff, *tags)

    monkeypatch.setattr(spectral, "_kron_layer", counting)
    monkeypatch.setattr(spectral, "_CH_G_MAX_TERMS", 50)
    with pytest.raises(SpectralError, match="exceeds 50 terms at degree 3"):
        ch_g(small_g, 5)
    assert sorted(set(built)) == [2, 3]


def test_ch_g_limits_the_traced_terms_for_m2(monkeypatch):
    # for m = 2 degrees 1-3 hold 4 + 32 + 192 traced terms, built from
    # 16 + 512 + 12288 lifted ones: only the traced count meets the limit
    g = _m2_element()
    monkeypatch.setattr(spectral, "_CH_G_MAX_TERMS", 300)
    ch = ch_g(g, 3)
    assert [len(ch.component(N).terms) for N in range(1, 4)] == [4, 32, 192]
    monkeypatch.setattr(spectral, "_CH_G_MAX_TERMS", 100)
    with pytest.raises(SpectralError, match="exceeds 100 terms at degree 3"):
        ch_g(g, 3)


def test_ch_g_matches_a_sum_of_expanded_words(small_g):
    # the moment build gives the words of the quadrature's term-by-term
    # sums, in the same order; the exact s-integral and the Gauss-Legendre
    # sum differ only by rounding
    ch = ch_g(small_g, 4)
    ref = _ch_g_by_sums(small_g, 4)
    for N in range(1, 5):
        got = ch.component(N).terms
        assert list(got) == list(ref[N])
        scale = max(abs(cf) for cf in ref[N].values())
        assert all(abs(got[w] - cf) <= 1e-14 * scale for w, cf in ref[N].items())
    total = ch.total()
    assert list(total.terms) == [w for N in range(1, 5) for w in ref[N]]


def test_beta_moments_are_the_exact_integrals_rounded():
    # int_0^1 s^(N-1) (s-1)^beta ds, expanded by the binomial theorem in
    # exact arithmetic; Gauss-Legendre with N + 1 nodes integrates the
    # degree N - 1 + beta <= 2N - 2 integrand exactly up to rounding
    for N in range(1, 10):
        moments = spectral._beta_moments(N)
        x, w = gauss_legendre_01(N + 1)
        assert len(moments) == N
        for beta, got in enumerate(moments):
            exact = sum(Fraction(math.comb(beta, j) * (-1) ** (beta - j), N + j) for j in range(beta + 1))
            assert got.hex() == float(exact).hex(), (N, beta)
            assert abs(got - float(np.sum(w * x ** (N - 1) * (x - 1) ** beta))) <= 1e-15, (N, beta)


@pytest.mark.parametrize("make_g, N_max, sigma_slots", [(_m2_element, 4, False), (_plane_loop_element, 3, True)],
                         ids=["circle", "plane"])
def test_ch_g_of_an_m2_element_matches_a_quadrature_build(make_g, N_max, sigma_slots):
    # for m = 2 a lifted index a * dim_T + i is a sigma index when i is: the
    # moment build gives the words, in the same order, of summing the
    # Kronecker blocks of ab_slots(s) at Gauss-Legendre nodes, then tracing.
    # Only the plane loop has sigma omega^2 != 0, so words with beta > 0
    g = make_g()
    ch = ch_g(g, N_max)
    alg_T = ch.alg_T
    lifted = mat_lift(alg_T, 2)
    slots = ab_slots(lift_matrix_to_ext(maurer_cartan(g), alg_T), lifted)
    assert bool(np.any(slots.sigma_omega_sq)) == sigma_slots
    unit_vec = lifted.unit.coeffs
    for N in range(1, N_max + 1):
        acc = Chain(lifted, CYCLIC)
        for s, w in zip(*gauss_legendre_01(N + 1)):
            a_vec, b_vec = slots(s)
            for k in range(1, N + 1):
                word = [unit_vec] + [a_vec] * (k - 1) + [b_vec] + [a_vec] * (N - k)
                acc = acc + Chain.from_elements(lifted, CYCLIC, word).scale(w)
        ref = spectral.generalized_trace(acc, lifted, alg_T).terms
        got = ch.component(N).terms
        assert len(got) > 0 and list(got) == list(ref)
        scale = max(abs(cf) for cf in ref.values())
        assert all(abs(got[w] - cf) <= 1e-14 * scale for w, cf in ref.items()), N
    if sigma_slots:  # the circle loop's closedness is test_ch_g_closed_m2
        assert ch_g_closed(g, 3).passed


def test_ch_g_closed_applies_d_below_the_top_degree_only(small_g, monkeypatch):
    # (D Ch)_N = d Ch_N + b Ch_{N+1} is read for N <= N_max - 1 only, and d
    # keeps the word length: d sees the blocks of degrees 1..N_max - 1 and
    # never the top degree's, b those of degrees 2..N_max
    seen = {"d": [], "b": []}

    def recording(name, inner, keeps_length):
        def wrapped(alg, factors, tags):
            out = inner(alg, factors, tags)
            seen[name].append(len(factors))
            assert all(len(f) == len(factors) - (not keeps_length) for _, f, _ in out)
            return out
        return wrapped

    monkeypatch.setattr(spectral, "_d_blocks", recording("d", chains._d_blocks, True))
    monkeypatch.setattr(spectral, "_b_blocks", recording("b", chains._b_blocks, False))
    rep = ch_g_closed(small_g, 5)
    assert rep.passed
    # one block per position of B: degree M has M blocks of M + 1 slots
    assert sorted(seen["d"]) == [M + 1 for M in range(1, 5) for _ in range(M)]
    assert sorted(seen["b"]) == [M + 1 for M in range(2, 6) for _ in range(M)]


@pytest.mark.parametrize("make_g, N_max", [(lambda: circle_loop_element(discrete_circle_algebra(2), eps=0.5, seed=3), 5),
                                           (_m2_element, 4), (_plane_loop_element, 3)],
                         ids=["small_g", "circle_m2", "plane_m2"])
def test_d_ch_from_blocks_matches_the_layer_oracle(make_g, N_max):
    # d and b on the Kronecker blocks of Ch(g), each word with its source
    # word's moment, against d_cyclic and b_cyclic on the materialized
    # chain; the plane loop has words with beta > 0
    ch = ch_g(make_g(), N_max)
    total = ch.total()
    oracle = chains.d_cyclic(ch.total(N_max - 1)) + chains.b_cyclic(total)
    scale = max(1.0, total.norm())
    for N in range(1, N_max):
        acc = chains._LayerSum(ch.alg_T)
        spectral._add_d_ch(ch, N, acc)
        got = acc.chain(ch.alg_T, CYCLIC)
        want = oracle.component(N)
        assert len(want.terms) > 0
        assert (got - want).norm() <= 1e-14 * scale, N


@pytest.mark.parametrize("row", ["_d_signs", "_b_signs", "_wrap_sign"])
def test_ch_g_closed_fails_with_a_negated_sign_row(small_g, monkeypatch, row):
    # the block path reads its signs from the sign rows: a negated row must
    # fail a telescoped component, and nothing else
    inner = getattr(chains, row)

    def negated(*args):
        out = inner(*args)
        return -out if isinstance(out, float) else [-v for v in out]

    assert ch_g_closed(small_g, 5).passed
    monkeypatch.setattr(chains, row, negated)
    rep = ch_g_closed(small_g, 5)
    failing = [c.check_id for c in rep.failing()]
    assert failing and all(cid.startswith("telescoped-component-N=") for cid in failing), failing


def test_layer_d_and_b_of_ch_g_match_the_per_word_faces(small_g):
    # on the character chain no running sum hits zero, so the layer kernels
    # give the per-word faces' words in the same order, with the same bits
    total = ch_g(small_g, 5).total()
    alg = total.alg
    on_layers = chains.d_cyclic(total) + chains.b_cyclic(total)
    on_faces = chains._d_faces(alg, CYCLIC, total.terms)
    for w, cf in chains._b_faces(alg, CYCLIC, total.terms).items():
        chains._add(on_faces, w, cf)
    for N in range(1, 6):
        got = on_layers.component(N).terms
        ref = {w: cf for w, cf in on_faces.items() if len(w) == N + 1}
        assert list(got) == list(ref)
        assert [(c.real.hex(), c.imag.hex()) for c in got.values()] == \
            [(c.real.hex(), c.imag.hex()) for c in ref.values()]
        assert on_layers.component(N).norm() == Chain(alg, CYCLIC, ref).norm()


def test_ch_g_closed_nan_bound_fails(small_g, monkeypatch):
    # one NaN entire bound must fail the decay check, not vanish in a max
    inner = spectral.entire_bound

    def poisoned(c, *args, **kwargs):
        out = inner(c, *args, **kwargs)
        if c.terms and len(next(iter(c.terms))) == 5:  # lambda_4
            return float("nan")
        return out

    monkeypatch.setattr(spectral, "entire_bound", poisoned)
    rep = ch_g_closed(small_g, 4)
    assert not rep.passed
    assert [c.check_id for c in rep.failing()] == ["telescope-decay-rate"]


def test_nan_loop_entry_fails_the_telescoped_components():
    # the NaN reaches every chain component, and no tensor expansion may drop it
    clean = circle_loop_element(discrete_circle_algebra(2), eps=0.5, seed=3)
    entries = np.array(clean.entries)
    entries[0, 0, 1] = np.nan
    g = MatrixElement(entries, clean.alg)
    with np.errstate(invalid="ignore"):
        ch = ch_g(g, 3)
        rep = ch_g_closed(g, 4)
    for N in range(1, 4):
        assert np.isnan(ch.component(N).max_coeff())
        assert np.isnan(rep.residual(f"telescoped-component-N={N}"))
    # B kills the unit-led words of Ch(g) whatever their coefficients
    assert np.isnan(rep.residual("connes-part-reduces-to-zero"))


@pytest.mark.parametrize("s", [0.1, 0.6])
def test_pairing_rows_without_a_step_two_band(tf6, s):
    # at N_max = 1 the word (A,) has no F_2 block: the step-2 band is zero
    (p_val,), (sf_val,) = spectral._pairing_rows(tf6, s, 1)
    for got, ref in ((p_val, pairing_term(tf6, 1, s)), (sf_val, sf_series_term(tf6, 0, s))):
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))
        assert abs(ref) > 0


@pytest.mark.parametrize("s", [0.1, 0.6])
def test_pairing_rows_match_per_degree_terms(tf6, s):
    # one marked exponential at N = 10 against one per degree
    p_row, sf_row = spectral._pairing_rows(tf6, s, 10)
    for N in range(1, 11):
        for got, ref in ((p_row[N - 1], pairing_term(tf6, N, s)),
                         (sf_row[N - 1], sf_series_term(tf6, N - 1, s))):
            assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref))
            # the values fall with N to far below 1e-15: compare them relatively too
            assert abs(got - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_pairing_rows_match_the_lifted_cstr_oracle(tf6, s):
    # the CStr table rows against the supertrace of the lifted blocks
    Mdt = tf6.Mdt
    frame = Mdt.curvature.frame
    a_vec, b_vec = tf6.ab_vectors(s)
    (diag, bands), n = frame.bands(1.0, (a_vec,) * 10)
    b_step = slot_degree(Mdt.alg, b_vec) + 1
    E, L = marked_chain_exp_row(diag, bands, {1: {j: -frame.f1(b_vec) for j in range(10)}})
    p_row, sf_row = spectral._pairing_rows(tf6, s, 10)
    for N in range(1, 11):
        p_ref = cstr(Mdt.cm, frame.lift(L[N], n[N - 1] + b_step))
        sf_ref = cstr(Mdt.cm, tf6.c_omega_doubled @ frame.lift(E[N - 1], n[N - 1]))
        for got, ref in ((p_row[N - 1], p_ref), (sf_row[N - 1], sf_ref)):
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), N
            assert abs(ref) > 0


def test_pairing_neither_lifts_nor_calls_cstr(circle6, monkeypatch):
    # every supertrace of the pairing reads a CStr table, and the kappa
    # calibration reads trace norms of half-frame blocks: no block is lifted
    from chernlab import fredholm, hilbert

    g = circle_loop_element(circle6.alg, eps=0.10, seed=7)
    want = pairing(circle6, g, N_max=6, tail_tol=1e-3).as_dict()

    def refuse(*args, **kwargs):
        raise AssertionError("the pairing lifted a block")

    for module in (hilbert, spectral):
        monkeypatch.setattr(module, "cstr", refuse)
    monkeypatch.setattr(fredholm._HalfFrame, "lift", refuse)
    got = pairing(circle6, g, N_max=6, tail_tol=1e-3).as_dict()
    for data in (want, got):
        del data["volatile"]
    assert want["verdict"] is True
    assert got == want


def test_the_slots_are_built_once_and_the_crossings_read_two_spectra(circle6, small_g, monkeypatch):
    # sigma omega^2 and B are built once per omega: the matrix-element products
    # and sigma multiplications do not grow with the pairing's s-nodes or the
    # degree of ch_g; the crossing count reads the two endpoint spectra only
    g = circle_loop_element(circle6.alg, eps=0.10, seed=7)
    calls = []

    def counting(inner, name):
        def wrapped(*args):
            calls.append(name)
            return inner(*args)
        return wrapped

    def counted(run, *args, **kwargs):
        calls.clear()
        run(*args, **kwargs)
        return sorted(calls)

    monkeypatch.setattr(MatrixElement, "__matmul__", counting(MatrixElement.__matmul__, "matmul"))
    monkeypatch.setattr(spectral, "sigma_left_mult", counting(spectral.sigma_left_mult, "sigma"))
    assert counted(ch_g, small_g, 3) == counted(ch_g, small_g, 5)
    assert calls.count("sigma") == 2
    base = counted(pairing, circle6, g, N_max=6, tail_tol=1e-3)
    assert base.count("sigma") == 2
    nodes = spectral.gauss_legendre_01
    monkeypatch.setattr(spectral, "gauss_legendre_01", lambda n: nodes(2 * n))
    assert counted(pairing, circle6, g, N_max=6, tail_tol=1e-3) == base

    # the quadrature nodes come from eigvalsh too: take them before counting
    fixed = nodes(8)
    monkeypatch.setattr(spectral, "gauss_legendre_01", lambda n: fixed)
    spectra = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda Q: spectra.append(Q) or eigvalsh(Q))
    Q0, Q1 = np.diag([-1.0, 2.0]) + 0j, np.diag([1.0, 2.0]) + 0j
    assert diagnostic_affine_sf(Q0, Q1, s_nodes=8)["crossings"] == 1
    assert len(spectra) == 2


def test_pairing_refuses_an_uncertified_tail_before_any_row(monkeypatch):
    # the tail bound is closed-form, so an input whose tail does not certify
    # at N_max = 2 is refused before the first marked exponential
    M = discrete_circle(6, seed=3)
    g = circle_loop_element(M.alg, eps=0.10, seed=7)

    def refuse(*args, **kwargs):
        raise AssertionError("a pairing row was computed")

    monkeypatch.setattr(spectral, "toeplitz_exp_row", refuse)
    with pytest.raises(SpectralError, match=r"^certified tail .* need N_max about \d+$"):
        pairing(M, g, N_max=2)


@pytest.mark.parametrize("values, kappa", [([1, 30] * 3, None), ([1, 8] * 3, None), (None, np.nan)],
                         ids=["power-overflows", "inf-over-inf", "nan-kappa"])
def test_pairing_refuses_a_non_finite_tail_before_any_row(circle6, monkeypatch, values, kappa):
    # large slots overflow the float power of the term bound (a bare
    # OverflowError) or divide inf by an infinite floor(N/2)!; a NaN tail
    # compares below any tolerance.  Each is refused at once, without a
    # warning and without searching for an N_max that cannot exist
    if values is None:
        g = circle_loop_element(circle6.alg, eps=0.10, seed=7)
    else:
        g = MatrixElement(circle_function(circle6.alg, values).reshape(1, 1, -1), circle6.alg)
    if kappa is not None:
        monkeypatch.setattr(spectral, "_calibrate_pairing_kappa", lambda tf: kappa)

    def refuse(*args, **kwargs):
        raise AssertionError("a pairing row was computed")

    monkeypatch.setattr(spectral, "toeplitz_exp_row", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectralError, match=r"^certified tail inf above 1\.0e-06; the term bound is not finite, "
                                                r"so no N_max certifies it$"):
            pairing(circle6, g, N_max=2)


def test_pairing_rows_run_one_half_frame_chain(tf6, monkeypatch):
    # all degrees come from one constant-band chain on N_max + 1 nodes of
    # half-size blocks, marked through blocks of twice that size
    calls = []

    def recording(blocks, K):
        calls.append((K, [B.shape for B in blocks]))
        return kernel(blocks, K)

    kernel = spectral.toeplitz_exp_row
    monkeypatch.setattr(spectral, "toeplitz_exp_row", recording)
    spectral._pairing_rows(tf6, 0.4, 10)
    half = tf6.Mdt.hdim // 2
    assert half == 6
    assert calls == [(10, [(2 * half, 2 * half)] * 3)]


def _rules_with(monkeypatch, n_rule, nodes_for):
    """Replace the Gauss-Legendre rule of n_rule nodes by nodes_for(n_rule) nodes."""
    rule = gauss_legendre_01
    monkeypatch.setattr(spectral, "gauss_legendre_01", lambda n: rule(nodes_for(n) if n == n_rule else n))


def test_pairing_rows_are_exact_on_n_max_nodes(circle6, tf6, monkeypatch):
    # on the circle sigma omega^2 = 0 and the rows have degree N - 1 only,
    # so A(s) = s omega + s(s - 1) v, with v random on omega's support, puts
    # the full degree 2(N - 1) in block (0, N) of L and (0, N - 1) of E:
    # N_max nodes are exact, N_max - 1 nodes miss the top degree
    g = circle_loop_element(circle6.alg, eps=0.10, seed=7)
    omega, b_vec = tf6.omega_vec, tf6.ab_vectors(0.5)[1]
    rng = np.random.default_rng(5)
    v = (rng.normal(size=omega.shape) + 1j * rng.normal(size=omega.shape)) * (omega != 0) * np.max(np.abs(omega))
    monkeypatch.setattr(spectral.TwistedFamily, "ab_vectors", lambda self, s: (s * omega + s * (s - 1) * v, b_vec))
    N_max = 10

    def terms(nodes_for):
        _rules_with(monkeypatch, N_max, nodes_for)
        rep = pairing(circle6, g, N_max=N_max, tail_tol=math.inf)
        return [(t["pairing_term"], t["sf_term"]) for t in rep.terms]

    ref, exact, short = terms(lambda n: 40), terms(lambda n: n), terms(lambda n: n - 1)
    for want, got in zip(ref, exact):
        assert all(abs(x - y) <= 1e-14 * abs(y) for x, y in zip(got, want))
    assert all(abs(x - y) > 1e-8 * abs(y) for x, y in zip(short[-1], ref[-1]))


def test_heat_series_is_exact_on_m_max_plus_one_nodes(tf6, monkeypatch):
    # the order-M term has degree 2M in s; the integral of Tr(Qdot .)
    # vanishes on the conjugation path, so Qdot = 1 keeps the comparison
    # away from that cancellation
    monkeypatch.setattr(spectral.TwistedFamily, "Qdot", lambda self: np.eye(len(self.Q_m)))
    M_max = 2

    def series(nodes_for):
        _rules_with(monkeypatch, M_max + 1, nodes_for)
        return sf_integral(tf6, s_nodes=32, M_max=M_max)["series"]

    ref, exact, short = series(lambda n: 40), series(lambda n: n), series(lambda n: n - 1)
    assert abs(exact - ref) <= 1e-14 * abs(ref)
    assert abs(short - ref) > 1e-8 * abs(ref)


def test_pairing_and_sf_integral_take_one_row_per_exact_node(circle6, tf6, monkeypatch):
    # N_max marked rows for the pairing; M_max + 1 heat series and s_nodes
    # direct exponentials for the spectral-flow integral
    g = circle_loop_element(circle6.alg, eps=0.10, seed=7)
    rows, series, direct = [], [], []
    pairing_rows, dense = spectral._pairing_rows, spectral.expm
    monkeypatch.setattr(spectral, "_pairing_rows", lambda tf, s, N_max: rows.append(s) or pairing_rows(tf, s, N_max))
    pairing(circle6, g, N_max=6, tail_tol=1e-3)
    assert len(rows) == 6
    monkeypatch.setattr(spectral, "_heat_series",
                        lambda Q2, X, T, M_max, heat: series.append(M_max) or np.zeros_like(Q2))
    monkeypatch.setattr(spectral, "expm", lambda A: direct.append(A.shape) or dense(A))
    sf_integral(tf6, s_nodes=32, M_max=16)
    # 32 direct exponentials, and the one heat operator every series node shares
    assert series == [16] * 17 and len(direct) == 33


def test_pairing_takes_32_direct_nodes_whatever_n_max(circle6, monkeypatch):
    # the direct integrand Tr(Qdot e^{-Q_s^2}) does not depend on N_max; the
    # rows are stubbed, as only the spectral-flow integral is counted here
    g = circle_loop_element(circle6.alg, eps=0.10, seed=7)
    counts, inner_sf, dense = [], spectral.sf_integral, spectral.expm
    exps = []

    def counting(tf, s_nodes=32, M_max=16):
        start = len(exps)
        out = inner_sf(tf, s_nodes=s_nodes, M_max=M_max)
        counts.append((s_nodes, len(exps) - start))
        return out

    monkeypatch.setattr(spectral, "_pairing_rows", lambda tf, s, N_max: ([0j] * N_max, [0j] * N_max))
    monkeypatch.setattr(spectral, "sf_integral", counting)
    monkeypatch.setattr(spectral, "expm", lambda A: exps.append(A.shape) or dense(A))
    pairing(circle6, g, N_max=20, tail_tol=1e-3)
    assert counts == [(32, 33)]  # 32 direct exponentials and one heat operator


def test_one_heat_operator_serves_every_series_bit_for_bit(tf6):
    # sf_integral's nodes share one heat operator, and perturbation_series
    # reuses the one of its trace factor: the series of per-call heat
    # operators, bit for bit
    Qd, Q2 = tf6.Qdot(), tf6.Q_m @ tf6.Q_m
    want = 0.0 + 0.0j
    for si, wi in zip(*gauss_legendre_01(9)):
        want += wi * np.trace(Qd @ spectral._heat_series(Q2, tf6.X_s(si), 1.0, 8))
    got = sf_integral(tf6, s_nodes=4, M_max=8)["series"]
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    series, _ = perturbation_series(tf6, 0.3, 0.7, 12)
    assert np.array_equal(series, spectral._heat_series(Q2, tf6.X_s(0.3), 0.7, 12))


def test_constant_band_chains_take_no_dense_exponential(circle6, tf6, monkeypatch):
    # the pairing rows and the heat series run on toeplitz_exp_row: with the
    # Frechet kernel refused, the same values come back bit for bit, and the
    # only chain exponentials left are the kappa calibration's short words
    from chernlab import hilbert

    g = circle_loop_element(circle6.alg, eps=0.10, seed=7)

    def run():
        rep = pairing(circle6, g, N_max=6, tail_tol=1e-3).as_dict()
        del rep["volatile"]
        return rep, perturbation_series(tf6, 0.3, 1.0, 12), sf_integral(tf6, s_nodes=8)

    want = run()
    rows = []

    def recording(A):
        rows.append(A.shape[0])
        return dense(A)

    def refuse(*args, **kwargs):
        raise AssertionError("a Frechet exponential was computed")

    dense = hilbert.expm
    monkeypatch.setattr(hilbert, "expm", recording)
    monkeypatch.setattr(hilbert, "expm_frechet", refuse)
    got = run()
    assert got[0] == want[0] and got[0]["verdict"] is True
    assert np.array_equal(got[1][0], want[1][0]) and got[1][1] == want[1][1]
    assert got[2] == want[2]
    assert rows and max(rows) <= 24


def test_pairing_rows_refuse_a_mixed_degree_slot(tf6, monkeypatch):
    # the lift's sign comes from the slot degrees: a slot with no single
    # degree has no parity, and the rows must raise rather than lift it
    a_vec, b_vec = tf6.ab_vectors(0.4)
    alg = tf6.Mdt.alg
    even = next(i for i in range(alg.dim) if alg.degree[i] % 2 == 0 and a_vec[i] == 0)
    mixed = a_vec.copy()
    mixed[even] = 0.25
    monkeypatch.setattr(spectral.TwistedFamily, "ab_vectors", lambda self, s: (mixed, b_vec))
    with pytest.raises(CochainError):
        spectral._pairing_rows(tf6, 0.4, 4)


@pytest.mark.parametrize("T", [0.5, 1.0])
def test_heat_series_matches_per_order_brackets(tf6, T):
    Q2 = tf6.Q_m @ tf6.Q_m
    X = tf6.X_s(0.7)
    ref = expm(-T * Q2)
    for M in range(1, 9):
        ref = ref + (-T) ** M * heat_bracket(T * Q2, [X] * M, check=False)
    got = spectral._heat_series(Q2, X, T, 8)
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, float(np.max(np.abs(ref))))


def test_heat_series_of_a_zero_perturbation_is_the_heat_operator(tf6):
    # every block past the diagonal of the constant-band row is exactly zero
    Q2 = tf6.Q_m @ tf6.Q_m
    assert np.array_equal(spectral._heat_series(Q2, np.zeros_like(Q2), 0.7, 12), expm(-0.7 * Q2))


def test_pairing_nan_term_fails_the_term_identity(circle6, monkeypatch):
    # one NaN Clifford supertrace, read from the CStr table, must fail the
    # per-degree check, not vanish in a max
    g = circle_loop_element(circle6.alg, eps=0.10, seed=7)
    inner = spectral._cstr_of_block
    calls = []

    def poisoned(M, theta, phi, p):
        calls.append(1)
        return complex("nan") if len(calls) == 1 else inner(M, theta, phi, p)

    monkeypatch.setattr(spectral, "_cstr_of_block", poisoned)
    rep = pairing(circle6, g, N_max=6, tail_tol=1e-3)
    assert calls
    assert "per-degree-term-identity" in [c.check_id for c in rep.checks.failing()]


def test_affine_sf_check_fails_on_a_perturbed_oracle(circle6, monkeypatch):
    g = circle_loop_element(circle6.alg, eps=0.10, seed=7)
    inner = spectral.diagnostic_affine_sf
    seen = {}

    def perturbed(Q0, Q1, s_nodes=64):
        out = inner(Q0, Q1, s_nodes=s_nodes)
        seen["value"] = abs(out["oracle"])
        out["oracle"] += 1e-10
        return out

    monkeypatch.setattr(spectral, "diagnostic_affine_sf", perturbed)
    rep = pairing(circle6, g, N_max=6, tail_tol=1e-3)
    assert seen["value"] > 1e-6  # the identity is checked on a nonzero value
    assert [c.check_id for c in rep.checks.failing()] == ["affine-sf-erf-identity"]


def test_pairing_refuses_a_non_finite_kappa_ratio(circle6, monkeypatch):
    # kappa = inf would give a NaN tail bound, with which the report passed
    import chernlab.fredholm as fredholm

    g = circle_loop_element(circle6.alg, eps=0.10, seed=7)
    monkeypatch.setattr(fredholm, "phi_estimate_ratio", lambda *args, **kwargs: np.inf)
    with pytest.raises(ModuleError, match="trace-norm ratio"):
        pairing(circle6, g, N_max=4, tail_tol=1e-3)


def test_pairing_of_a_constant_loop_is_zero(circle6):
    # omega = 0 makes every calibration word's slots zero; their ratio is
    # 0, not inf, and every term of the pairing vanishes
    g = circle_loop_element(circle6.alg, eps=0.0, seed=7)
    rep = pairing(circle6, g, N_max=4)
    assert rep.verdict, rep.checks.summary()
    assert rep.pairing_total == 0.0 and rep.sf_direct == 0.0 and rep.sf_series == 0.0


def test_a_lift_of_another_size_is_refused():
    # lifted coefficients, the generalized trace and matrix modules read the
    # basis of Mat_m(C) from the lift, so a lift must match m and the dimension
    from chernlab.algebra import mat_lift
    from chernlab.fredholm import matrix_module

    M = discrete_circle(3, seed=2)
    g = MatrixElement.identity(2, M.alg)
    lift2, lift3 = mat_lift(M.alg, 2), mat_lift(M.alg, 3)
    assert (lift2.matrix_size, lift2.matrix_basis.shape) == (2, (4, 2, 2))
    assert np.array_equal(spectral.lifted_coeffs(g, lift2), lift2.unit.coeffs)
    for wrong in (lift3, M.alg, mat_lift(discrete_circle_algebra(2), 2)):
        with pytest.raises(SpectralError):
            spectral.lifted_coeffs(g, wrong)
    chain = Chain.from_elements(lift2, CYCLIC, [lift2.unit.coeffs])
    for wrong_lift, target in ((lift3, M.alg), (lift2, discrete_circle_algebra(2)), (acyclic_extension(M.alg), M.alg)):
        with pytest.raises(SpectralError):
            spectral.generalized_trace(chain, wrong_lift, target)
    with pytest.raises(ModuleError):
        matrix_module(M, 2, lifted_alg=lift3)
