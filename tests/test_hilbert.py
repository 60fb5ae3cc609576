"""Clifford modules, supertraces and the simplex heat-bracket kernels."""

import numpy as np
import pytest

from chernlab.hilbert import (
    CliffordModule,
    GradedHilbert,
    HilbertError,
    bracket_insert_unit,
    bracket_oracle,
    bracket_split_quadrature,
    chain_exp_row,
    chain_exp_topright,
    clifford_validate,
    cstr,
    cstr_cyclic_sum,
    heat_bracket,
    marked_chain_exp_row,
    marked_chain_exp_topright,
    simplex_bracket_quadrature,
    standard_clifford_module,
    supertrace,
    toeplitz_exp_row,
    trace_norm,
)

from scipy.linalg import expm


def _rand_psd(rng, d, scale=1.0):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = A @ A.conj().T
    return scale * H / max(1.0, np.max(np.abs(H)))


def _rand_mat(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _place(layout, d, nodes):
    """Dense (nodes*d)-square matrix with blocks {step: {j: block}} at (j, j + step)."""
    out = np.zeros((nodes * d, nodes * d), dtype=complex)
    for step, placed in layout.items():
        for j, block in placed.items():
            out[j * d : (j + 1) * d, (j + step) * d : (j + step + 1) * d] = block
    return out


def test_clifford_q0_trivial():
    cm = standard_clifford_module(0, 2, 3)
    rep = clifford_validate(cm)
    assert rep.passed
    assert np.allclose(cm.volume_element(), np.eye(5))
    # CStr = Str for q = 0
    rng = np.random.default_rng(0)
    A = _rand_mat(rng, 5)
    assert cstr(cm, A) == pytest.approx(supertrace(cm.H, A))


def test_clifford_q1_standard_matrix():
    cm = standard_clifford_module(1, 1)
    rep = clifford_validate(cm)
    assert rep.passed, rep.summary()
    assert np.allclose(cm.e[0], np.array([[0, 1], [-1, 0]]))


def test_clifford_relations_every_q():
    # S_q (x) C^{p+|p-} has dimension 2^ceil(q/2) (p+ + p-) for every q
    for q in range(6):
        for p_plus, p_minus in [(3, 0), (2, 1), (1, 2), (0, 1)]:
            cm = standard_clifford_module(q, p_plus, p_minus)
            assert cm.q == q and cm.dim == 2 ** ((q + 1) // 2) * (p_plus + p_minus)
            assert clifford_validate(cm).passed, (q, p_plus, p_minus)


@pytest.mark.parametrize("args, message", [
    ((-1, 2), "q must be a nonnegative integer"),
    ((1.5, 2), "q must be a nonnegative integer"),
    ((True, 2), "q must be a nonnegative integer"),
    ((1, -1), "p_plus must be a nonnegative integer"),
    ((2, 2, -1), "p_minus must be a nonnegative integer"),
    ((2, 2.0), "p_plus must be a nonnegative integer"),
    ((3, 0, 0), "the space is empty"),
])
def test_standard_clifford_module_refuses_bad_input(args, message):
    with pytest.raises(HilbertError, match=message):
        standard_clifford_module(*args)


def test_clifford_forced_failure():
    cm = standard_clifford_module(1, 2)
    bad = CliffordModule(cm.H, 1, [cm.e[0].conj().T * -1.0 + 1e-3])
    assert not clifford_validate(bad).passed


def test_nan_generator_fails_clifford_validation():
    cm = standard_clifford_module(2, 2)
    e = [np.array(m) for m in cm.e]
    e[1][0, 1] = np.nan
    rep = clifford_validate(CliffordModule(cm.H, 2, e))
    assert not rep.passed
    assert np.isnan(rep.residual("skew-adjoint"))


def test_supertrace_of_identity():
    H = GradedHilbert(np.array([1, 1, 1, -1]))
    assert supertrace(H, np.eye(4)) == pytest.approx(2.0)


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_cstr_vanishes_on_supercommutators(q):
    rng = np.random.default_rng(q + 1)
    cm = standard_clifford_module(q, 3, 3)
    for _ in range(50):
        pa, pb = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        A = cm.project_equivariant(_rand_mat(rng, cm.dim), pa)
        B = cm.project_equivariant(_rand_mat(rng, cm.dim), pb)
        # graded commutator
        com = A @ B - (-1.0) ** (pa * pb) * B @ A
        bound = 1e-12 * max(1.0, np.linalg.norm(A) * np.linalg.norm(B))
        assert abs(cstr(cm, com)) <= bound


def test_project_equivariant_is_projection():
    rng = np.random.default_rng(5)
    cm = standard_clifford_module(2, 4)
    for parity in (0, 1):
        A = cm.project_equivariant(_rand_mat(rng, cm.dim), parity)
        assert cm.supercommutes(A) <= 1e-12
        A2 = cm.project_equivariant(A, parity)
        assert np.max(np.abs(A - A2)) <= 1e-12
    # at q = 2 an odd equivariant operator needs a graded multiplicity space
    for p_minus in (0, 2):
        cm = standard_clifford_module(2, 2, p_minus)
        A = cm.project_equivariant(_rand_mat(rng, cm.dim), 1)
        assert cm.supercommutes(A) <= 1e-12
        assert (np.max(np.abs(A)) > 0.1) == (p_minus > 0)


def test_heat_bracket_arity_zero_and_unit():
    rng = np.random.default_rng(7)
    H = _rand_psd(rng, 5, scale=2.0)
    assert np.max(np.abs(heat_bracket(H, []) - expm(-H))) <= 1e-12
    # {1}_H = e^{-H}: simplex volume one
    one = np.eye(5, dtype=complex)
    assert np.max(np.abs(heat_bracket(H, [one]) - expm(-H))) <= 1e-12


def test_heat_bracket_rejects_bad_inputs():
    rng = np.random.default_rng(9)
    H = _rand_mat(rng, 4)
    with pytest.raises(HilbertError):
        heat_bracket(H, [])
    Hpsd = _rand_psd(rng, 4)
    with pytest.raises(HilbertError):
        heat_bracket(Hpsd, [np.eye(4)] * 13)


def test_heat_bracket_vs_oracle_small():
    rng = np.random.default_rng(11)
    H = _rand_psd(rng, 4, scale=3.0)
    ops = [_rand_mat(rng, 4) for _ in range(3)]
    lhs = heat_bracket(H, ops)
    rhs = bracket_oracle(H, ops, nodes=48)
    rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
    assert rel <= 1e-10


def test_heat_bracket_vs_simplex_quadrature():
    rng = np.random.default_rng(13)
    H = _rand_psd(rng, 3, scale=2.0)
    ops = [_rand_mat(rng, 3) for _ in range(2)]
    lhs = heat_bracket(H, ops)
    rhs = simplex_bracket_quadrature(H, ops, nodes=24)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) <= 1e-10


def test_bracket_duhamel_derivative():
    # d/dt expm(-(H + tB))|_0 = -{B}_H: Duhamel via the split at N=0
    rng = np.random.default_rng(15)
    H = _rand_psd(rng, 5, scale=1.5)
    B = _rand_mat(rng, 5)
    eps = 1e-6
    fd = (expm(-(H + eps * B)) - expm(-(H - eps * B))) / (2 * eps)
    assert np.max(np.abs(heat_bracket(H, [B]) + fd)) <= 1e-7


def test_insert_unit_sum_equals_plain_bracket():
    rng = np.random.default_rng(17)
    H = _rand_psd(rng, 4, scale=2.0)
    ops = [_rand_mat(rng, 4) for _ in range(2)]
    plain = heat_bracket(H, ops)
    total = sum(bracket_insert_unit(H, ops, j) for j in range(3))
    rel = np.linalg.norm(total - plain) / np.linalg.norm(plain)
    assert rel <= 1e-10


def test_insert_unit_matches_weighted_simplex_integral():
    # {A_1, .., A_j, 1, A_{j+1}, ..}_H = int (tau_{j+1} - tau_j) * (plain integrand)
    rng = np.random.default_rng(19)
    H = _rand_psd(rng, 3, scale=1.0)
    ops = [_rand_mat(rng, 3) for _ in range(2)]
    for j in range(3):
        lhs = bracket_insert_unit(H, ops, j)
        rhs = simplex_bracket_quadrature(
            H, ops, nodes=24, weight=lambda taus, _j=j: taus[_j + 1] - taus[_j]
        )
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_insert_unit_reversal_symmetry():
    # j = 0 vs j = N under reversal + adjoint for Hermitian inputs
    rng = np.random.default_rng(21)
    H = _rand_psd(rng, 4)
    ops = [(_rand_mat(rng, 4) + _rand_mat(rng, 4).conj().T) for _ in range(2)]
    for i in range(2):
        ops[i] = 0.5 * (ops[i] + ops[i].conj().T)
    left = bracket_insert_unit(H, ops, 0)
    right = bracket_insert_unit(H, list(reversed(ops)), len(ops))
    assert np.max(np.abs(left - right.conj().T)) <= 1e-10


def test_bracket_split_identity():
    rng = np.random.default_rng(23)
    H = _rand_psd(rng, 4, scale=2.0)
    ops = [_rand_mat(rng, 4) for _ in range(2)]
    B = _rand_mat(rng, 4)
    for k in (1, 2, 3):
        merged = ops[: k - 1] + [B] + ops[k - 1 :]
        lhs = heat_bracket(H, merged)
        rhs = bracket_split_quadrature(H, ops, B, k, nodes=64)
        assert np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-30) <= 1e-8


def test_trace_norm_triangle_and_value():
    rng = np.random.default_rng(25)
    A = _rand_mat(rng, 5)
    B = _rand_mat(rng, 5)
    assert trace_norm(A + B) <= trace_norm(A) + trace_norm(B) + 1e-10
    # rank-one check: |u><v| has trace norm |u||v|
    u = rng.standard_normal(5)
    v = rng.standard_normal(5)
    assert trace_norm(np.outer(u, v)) == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))


def test_trace_norm_bracket_bound():
    # ||{A_1..A_N}_H||_1 <= (1/N!) prod ||A_i|| Tr(e^{-H/2}) e^{1/2} at T = 1
    rng = np.random.default_rng(27)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        H = _rand_psd(rng, d, scale=3.0)
        N = int(rng.integers(1, 5))
        ops = [_rand_mat(rng, d) for _ in range(N)]
        lhs = trace_norm(heat_bracket(H, ops))
        fact = 1.0
        for j in range(2, N + 1):
            fact *= j
        bound = (1.0 / fact) * np.prod([np.linalg.norm(A, 2) for A in ops])
        bound *= np.trace(expm(-H / 2)).real * np.exp(0.5)
        assert lhs <= bound * (1 + 1e-10)


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_cstr_cyclic_sum(q):
    rng = np.random.default_rng(29 + q)
    cm = standard_clifford_module(q, 3, 3)
    H = cm.project_equivariant(_rand_psd(rng, cm.dim, scale=2.0), 0)
    H = 0.5 * (H + H.conj().T)
    # shift to keep PSD after projection
    wmin = np.linalg.eigvalsh(H).min()
    if wmin < 0:
        H = H - wmin * np.eye(cm.dim) * 1.0
    for _ in range(5):
        ops = [cm.project_equivariant(_rand_mat(rng, cm.dim), int(rng.integers(0, 2))) for _ in range(3)]
        res, lhs, rhs = cstr_cyclic_sum(cm, H, ops)
        scale = max(1.0, abs(rhs))
        assert res <= 1e-9 * scale


def test_cstr_cyclic_sum_single_term():
    rng = np.random.default_rng(31)
    cm = standard_clifford_module(1, 3)
    H = cm.project_equivariant(_rand_psd(rng, 6, 1.0), 0)
    H = 0.5 * (H + H.conj().T)
    H = H - min(0.0, np.linalg.eigvalsh(H).min()) * np.eye(6)
    A0 = cm.project_equivariant(_rand_mat(rng, 6), 0)
    res, lhs, rhs = cstr_cyclic_sum(cm, H, [A0])
    assert res <= 1e-10 * max(1.0, abs(rhs))
    assert rhs == pytest.approx(cstr(cm, A0 @ expm(-H)))


def test_cstr_cyclic_sum_rejects_nonequivariant():
    rng = np.random.default_rng(33)
    cm = standard_clifford_module(1, 2)
    H = np.eye(4, dtype=complex)
    with pytest.raises(HilbertError):
        cstr_cyclic_sum(cm, H, [_rand_mat(rng, 4)])


def test_chain_exp_second_superdiagonal():
    # a step-2 band contributes {C}_H exactly like a single insertion
    rng = np.random.default_rng(35)
    H = _rand_psd(rng, 3, scale=1.0)
    C = _rand_mat(rng, 3)
    out = chain_exp_topright([-H, -H, -H], {2: {0: C}})
    assert np.max(np.abs(out - heat_bracket(H, [C]))) <= 1e-12


def test_marked_chain_exp_counts_single_marker():
    # marker on the diagonal of a single node: int e^{-uH} M e^{-(1-u)H} du
    rng = np.random.default_rng(37)
    H = _rand_psd(rng, 3, scale=1.0)
    M = _rand_mat(rng, 3)
    out = marked_chain_exp_topright([-H], {}, {0: {0: M}})
    assert np.max(np.abs(out - heat_bracket(H, [M]))) <= 1e-12


def test_marked_chain_exp_matches_two_copy_matrix():
    # K = 3: bands at steps 1 and 2, markers at steps 0 and 1, against
    # expm of the explicit [[G, M], [0, G]] augmentation
    rng = np.random.default_rng(41)
    d, K = 2, 3
    diag = [-_rand_psd(rng, d) for _ in range(K + 1)]
    bands = {1: {j: 0.5 * _rand_mat(rng, d) for j in range(K)},
             2: {j: 0.5 * _rand_mat(rng, d) for j in range(K - 1)}}
    marked = {0: {j: 0.5 * _rand_mat(rng, d) for j in range(K + 1)},
              1: {j: 0.5 * _rand_mat(rng, d) for j in range(K)}}
    n = (K + 1) * d
    G = _place({0: dict(enumerate(diag)), **bands}, d, K + 1)
    big = np.block([[G, _place(marked, d, K + 1)], [np.zeros((n, n)), G]])
    ref = expm(big)[0:d, n + K * d :]
    out = marked_chain_exp_topright(diag, bands, marked)
    assert np.max(np.abs(out - ref)) <= 1e-12


def test_chain_exp_row_blocks_are_prefix_topright():
    # block (0, k) of the row is the top-right block of the exponential of
    # the chain cut to nodes 0..k, bands included only inside the cut
    rng = np.random.default_rng(43)
    d, K = 3, 6
    diag = [-_rand_psd(rng, d) for _ in range(K + 1)]
    bands = {1: {j: _rand_mat(rng, d) for j in range(K)},
             2: {j: _rand_mat(rng, d) for j in range(K - 1)}}
    row = chain_exp_row(diag, bands)
    assert len(row) == K + 1
    for k in range(K + 1):
        cut = {step: {j: b for j, b in placed.items() if j + step <= k}
               for step, placed in bands.items()}
        ref = expm(_place({0: dict(enumerate(diag[: k + 1])), **cut}, d, k + 1))[0:d, k * d :]
        assert np.max(np.abs(row[k] - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))
    assert np.array_equal(chain_exp_topright(diag, bands), row[-1])


@pytest.mark.parametrize("norm", [0.1, 1.0, 10.0, 100.0])
def test_marked_chain_exp_row_matches_two_copy_matrix(norm):
    # marks at steps 0, 1 and 2 on a chain scaled to ||G||_1 = norm; both
    # rows against expm of the explicit [[G, M], [0, G]] augmentation
    rng = np.random.default_rng(47)
    d, K = 3, 5
    diag = [-_rand_psd(rng, d) for _ in range(K + 1)]
    bands = {1: {j: _rand_mat(rng, d) for j in range(K)},
             2: {j: _rand_mat(rng, d) for j in range(K - 1)}}
    marked = {0: {j: _rand_mat(rng, d) for j in range(K + 1)},
              1: {j: _rand_mat(rng, d) for j in range(K)},
              2: {j: _rand_mat(rng, d) for j in range(K - 1)}}
    n = (K + 1) * d
    c = norm / np.linalg.norm(_place({0: dict(enumerate(diag)), **bands}, d, K + 1), 1)
    diag = [c * D for D in diag]
    bands = {step: {j: c * b for j, b in placed.items()} for step, placed in bands.items()}
    G = _place({0: dict(enumerate(diag)), **bands}, d, K + 1)
    big = expm(np.block([[G, _place(marked, d, K + 1)], [np.zeros((n, n)), G]]))
    E, L = marked_chain_exp_row(diag, bands, marked)
    for got, ref in ((np.hstack(E), big[0:d, 0:n]), (np.hstack(L), big[0:d, n:])):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(marked_chain_exp_topright(diag, bands, marked), L[-1])


def _constant_bands(rng, d, n_steps, norm):
    """Random blocks for steps 0..n_steps-1 with sum_t ||blocks[t]||_1 = norm."""
    blocks = [_rand_mat(rng, d) for _ in range(n_steps)]
    c = norm / sum(np.linalg.norm(B, 1) for B in blocks)
    return [c * B for B in blocks]


def _dense_layout(blocks, K):
    """(diag, bands) of the constant-band chain on K + 1 nodes, for the dense engine."""
    return [blocks[0]] * (K + 1), {t: {j: blocks[t] for j in range(K + 1 - t)} for t in range(1, len(blocks))}


@pytest.mark.parametrize("d", [1, 3, 6])
def test_toeplitz_exp_row_matches_the_dense_engine(d):
    # plain and marked rows of constant-band chains against chain_exp_row and
    # marked_chain_exp_row, for ||G||_1 up to 100 (the dense oracle is
    # refereed at 1000 below); the marked row is block (0, 1) of the kernel
    # run on the augmented blocks [[B_t, M_t], [0, B_t]]
    rng = np.random.default_rng(59 + d)
    for K in (0, 1, 2, 10, 16):
        for n_steps in (2, 3):
            for norm in (1e-3, 1e-1, 1.0, 10.0, 100.0):
                blocks = _constant_bands(rng, d, n_steps, norm)
                marks = [_rand_mat(rng, d) for _ in range(n_steps)]
                zero = np.zeros((d, d), dtype=complex)
                row = toeplitz_exp_row(blocks, K)
                marked = toeplitz_exp_row([np.block([[B, M], [zero, B]]) for B, M in zip(blocks, marks)], K)
                diag, bands = _dense_layout(blocks, K)
                mark_diag, mark_bands = _dense_layout(marks, K)
                E, L = marked_chain_exp_row(diag, bands, {0: dict(enumerate(mark_diag)), **mark_bands})
                ref = chain_exp_row(diag, bands)
                assert len(row) == len(marked) == K + 1
                for got, want in ((row, ref), ([r[:d, :d] for r in marked], E), ([r[:d, d:] for r in marked], L)):
                    scale = max(float(np.max(np.abs(w))) for w in want)
                    err = max(float(np.max(np.abs(g - w))) for g, w in zip(got, want))
                    assert err <= 1e-13 * scale, (K, n_steps, norm)


def test_toeplitz_exp_row_is_right_where_the_dense_engine_drifts():
    # at ||G||_1 = 1000 the kernel stays within 2e-13 of the largest block of
    # a 50-digit exponential of the assembled chain, while the dense engine
    # drifts past 1e-12 on some draws: where the two disagree, the dense
    # side is the one that is off
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    d, dense_worst = 3, 0.0
    for K in (2, 4):
        for n_steps in (2, 3):
            for _ in range(3):
                blocks = _constant_bands(rng, d, n_steps, 1000.0)
                diag, bands = _dense_layout(blocks, K)
                with mpmath.workdps(50):
                    exact = mpmath.expm(mpmath.matrix(_place({0: dict(enumerate(diag)), **bands}, d, K + 1).tolist()))
                    exact = np.array(exact.tolist(), dtype=complex)[:d]
                scale = float(np.max(np.abs(exact)))
                kernel_err = np.max(np.abs(np.hstack(toeplitz_exp_row(blocks, K)) - exact)) / scale
                dense_err = np.max(np.abs(np.hstack(chain_exp_row(diag, bands)) - exact)) / scale
                assert kernel_err <= 2e-13, (K, n_steps)
                if abs(dense_err - kernel_err) > 1e-12:
                    assert dense_err > 10 * kernel_err, (K, n_steps)
                dense_worst = max(dense_worst, dense_err)
    assert dense_worst > 1e-12


def test_toeplitz_exp_row_edge_cases():
    rng = np.random.default_rng(67)
    H, X = _rand_psd(rng, 4), _rand_mat(rng, 4)
    # K = 0 is the exponential of the diagonal block; steps past K are ignored
    (only,) = toeplitz_exp_row([-H, X, X], 0)
    assert np.max(np.abs(only - expm(-H))) <= 1e-14
    # a zero band leaves every block past the diagonal exactly zero
    row = toeplitz_exp_row([-H, np.zeros((4, 4))], 5)
    assert all(np.all(r == 0) for r in row[1:])
    assert np.max(np.abs(row[0] - expm(-H))) <= 1e-14
    # the zero matrix has the identity row
    row = toeplitz_exp_row([np.zeros((4, 4))] * 3, 4)
    assert np.array_equal(row[0], np.eye(4)) and all(np.all(r == 0) for r in row[1:])
    # a non-finite block is refused, not sent through log2 of an infinite norm
    for bad in (np.nan, np.inf, -np.inf):
        Y = X.copy()
        Y[1, 2] = bad
        with pytest.raises(HilbertError, match="finite"):
            toeplitz_exp_row([-H, Y], 3)


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_cstr_matches_the_volume_element_written_out(q):
    cm = standard_clifford_module(q, 2, 3)
    rng = np.random.default_rng(53 + q)
    A = _rand_mat(rng, cm.dim)
    gamma = np.eye(cm.dim, dtype=complex)
    for m in cm.e:
        gamma = gamma @ m
    ref = 2.0 ** (-q) * np.sum(cm.H.parity * np.diagonal(gamma @ A))
    assert abs(cstr(cm, A) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_clifford_generators_are_read_only_copies():
    e1 = np.array([[0, 1], [-1, 0]], dtype=complex)
    cm = CliffordModule(GradedHilbert(np.array([1, -1])), 1, [e1])
    e1[0, 1] = 5.0  # the caller's array is not the stored one
    assert cm.e[0][0, 1] == 1.0
    with pytest.raises(ValueError):
        cm.e[0][0, 1] = 5.0
    with pytest.raises(ValueError):
        cm.volume_element()[0, 0] = 2.0
    assert np.array_equal(cm.volume_element(), cm.e[0])
