"""Fixture algebras and modules used throughout the verification suite.

Algebras: the ground field, exterior algebras, a two-by-two matrix
algebra and the discrete circle (functions on Z_n with forward and
backward difference one-forms).  Modules: seeded random weak modules
over exterior algebras, the strong discrete-circle module, and the
trivially-graded representation module used for the odd-JLO comparison.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .algebra import AlgebraError, DgAlgebra, matrix_units

__all__ = [
    "complex_line",
    "exterior_algebra",
    "discrete_circle_algebra",
    "matrix2_algebra",
    "circle_function",
    "gen_fixture",
]


def complex_line() -> DgAlgebra:
    """The ground field C as a dg algebra (dim 1, zero differential)."""
    mul = np.ones((1, 1, 1), dtype=complex)
    return DgAlgebra(1, [0], 0, mul, np.zeros((1, 1)), name="C")


def exterior_algebra(k: int) -> DgAlgebra:
    """Exterior algebra on k generators, zero differential.

    Basis indexed by subsets of {0..k-1} in (size, lexicographic) order,
    with degrees equal to subset size.
    """
    subsets = [()]
    for r in range(1, k + 1):
        subsets.extend(combinations(range(k), r))
    index = {s: i for i, s in enumerate(subsets)}
    dim = len(subsets)
    deg = np.array([len(s) for s in subsets])
    mul = np.zeros((dim, dim, dim), dtype=complex)
    for a, sa in enumerate(subsets):
        for b, sb in enumerate(subsets):
            if set(sa) & set(sb):
                continue
            merged = sa + sb
            # sign of the permutation sorting the concatenation
            perm = np.argsort(merged, kind="stable")
            sign = _perm_sign(perm)
            target = tuple(sorted(merged))
            mul[a, b, index[target]] = sign
    return DgAlgebra(dim, deg, 0, mul, np.zeros((dim, dim)), name=f"Ext{k}")


def _perm_sign(perm) -> float:
    sign = 1.0
    perm = list(perm)
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def discrete_circle_algebra(n: int) -> DgAlgebra:
    """Functions on Z_n with forward/backward difference one-forms.

    Basis in Fourier coordinates: u^k (degree 0) at indices 0..n-1, then
    u^k dt at n..2n-1 and u^k dtb at 2n..3n-1 (both degree 1).  The
    one-form generators obey dt*f = (f o shift) dt and
    dtb*f = (f o shift^-1) dtb, products of two one-forms vanish, and
    d f = (f o shift - f) dt + (f o shift^-1 - f) dtb, d(one-form) = 0.
    """
    if n < 2:
        raise AlgebraError("discrete circle needs n >= 2")
    dim = 3 * n
    deg = np.array([0] * n + [1] * (2 * n))
    zeta = np.exp(2j * np.pi * np.arange(n) / n)
    mul = np.zeros((dim, dim, dim), dtype=complex)
    for a in range(n):
        for b in range(n):
            c = (a + b) % n
            mul[a, b, c] = 1.0                      # u^a u^b
            mul[a, n + b, n + c] = 1.0              # f * (g dt)
            mul[a, 2 * n + b, 2 * n + c] = 1.0      # f * (g dtb)
            mul[n + a, b, n + c] = zeta[b]          # (g dt) * f
            mul[2 * n + a, b, 2 * n + c] = zeta[b].conjugate()  # (g dtb) * f
    diff = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        diff[n + k, k] = zeta[k] - 1.0
        diff[2 * n + k, k] = zeta[k].conjugate() - 1.0
    return DgAlgebra(dim, deg, 0, mul, diff, name=f"Circle{n}")


def _fourier(n):
    """F[j, k] = u^k(j): the values of the basis functions u^k at the points of Z_n."""
    return np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)


def circle_function(alg, values):
    """Coefficients of the function on Z_n with the given point values, as a
    degree-0 element of the discrete circle or of its acyclic extension
    (both hold u^0..u^{n-1} at indices 0..n-1)."""
    n = len(values)
    out = np.zeros(alg.dim, dtype=complex)
    out[:n] = np.linalg.solve(_fourier(n), values)
    return out


def matrix2_algebra() -> DgAlgebra:
    """Mat_2(C), trivially graded with zero differential.

    Basis {1, X, Y, Z} with X = E12, Y = E21, Z = E11 - E22, the basis of
    algebra.matrix_units(2); the unit is a basis element, which the chain
    machinery requires.
    """
    return DgAlgebra(4, [0] * 4, 0, matrix_units(2)[2], np.zeros((4, 4)), name="Mat2C")


# -- module fixtures -------------------------------------------------------------


def _random_hermitian(rng, d):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (A + A.conj().T)


def random_weak_cq(hdim=6, q=1, seed=0, k=1, strong=False, name=None):
    """Seeded random (weak) module over an exterior algebra.

    H is hilbert.balanced_clifford_module(q, hdim).  c sends each basis
    element to a random equivariant operator of the matching parity (the
    unit to the identity); Q is a random odd Hermitian equivariant
    operator.  Over an exterior algebra the degree-0 part is spanned by
    the unit, so the module is automatically strong; pass strong=True to
    record that.
    """
    from .fredholm import CqFredholmModule, module_validate
    from .hilbert import balanced_clifford_module

    cm = balanced_clifford_module(q, hdim)
    alg = exterior_algebra(k)
    rng = np.random.default_rng(seed)

    def draw(parity):
        raw = rng.standard_normal((hdim, hdim)) + 1j * rng.standard_normal((hdim, hdim))
        return cm.project_equivariant(raw, parity)

    c_mats = np.stack([np.eye(hdim) if i == alg.unit_index else draw(p) for i, p in enumerate(alg.parity_tuple)])
    Q = draw(1)
    Q = 0.5 * (Q + Q.conj().T)
    M = CqFredholmModule(alg, cm, c_mats, Q, weak=not strong,
                         name=name or f"random_weak_cq(d={hdim},q={q},k={k},seed={seed})")
    rep = module_validate(M)
    if not rep.passed:
        raise AlgebraError("random module failed its own axioms:\n" + rep.summary())
    return M


def exterior_strong(hdim=6, q=1, seed=0, k=2):
    """Strong module over an exterior algebra (degree-0 part is C 1)."""
    return random_weak_cq(hdim=hdim, q=q, seed=seed, k=k, strong=True,
                          name=f"exterior_strong(d={hdim},q={q},k={k},seed={seed})")


def discrete_circle(n=6, seed=0, coupling=1.0):
    """Strong odd module: H = l^2(Z_n), Q a Hermitian weighted shift.

    c(f) acts by multiplication, c(g dt) = M_g A with A = M_a S,
    c(g dtb) = M_g A* (S the cyclic shift); Q = A + A* + M_h.  The
    multiplicativity and commutator axioms are verified numerically at
    construction and a failure raises.
    """
    from .fredholm import OddFredholmModule, module_validate

    alg = discrete_circle_algebra(n)
    rng = np.random.default_rng(seed)
    a = coupling * (1.0 + 0.3 * rng.standard_normal(n) + 0.2j * rng.standard_normal(n))
    h = 0.5 * rng.standard_normal(n)
    S = np.zeros((n, n), dtype=complex)
    for j in range(n):
        S[j, (j + 1) % n] = 1.0  # (S xi)(j) = xi(j+1)
    A = np.diag(a) @ S
    Q = A + A.conj().T + np.diag(h).astype(complex)
    vals = _fourier(n)
    c_mats = np.zeros((alg.dim, n, n), dtype=complex)
    for kdx in range(n):
        Mk = np.diag(vals[:, kdx])
        c_mats[kdx] = Mk
        c_mats[n + kdx] = Mk @ A
        c_mats[2 * n + kdx] = Mk @ A.conj().T
    M = OddFredholmModule(alg, c_mats, Q, weak=False, name=f"discrete_circle(n={n},seed={seed})")
    rep = module_validate(M)
    if not rep.passed:
        raise AlgebraError("discrete circle axioms failed:\n" + rep.summary())
    return M


def getzler_trivial(hdim=4, seed=0):
    """Weak odd module over Mat_2(C): a true representation with a random
    Hermitian Q that does not commute with it."""
    from .fredholm import OddFredholmModule, module_validate

    if hdim % 2:
        raise AlgebraError("hdim must be even (H = C^2 tensor C^r)")
    alg = matrix2_algebra()
    r = hdim // 2
    rng = np.random.default_rng(seed)
    c_mats = np.stack([np.kron(m, np.eye(r)) for m in matrix_units(2)[0]])
    Q = _random_hermitian(rng, hdim)
    M = OddFredholmModule(alg, c_mats, Q, weak=True, name=f"getzler_trivial(d={hdim},seed={seed})")
    rep = module_validate(M)
    if not rep.passed:
        raise AlgebraError("getzler fixture failed validation:\n" + rep.summary())
    return M


def circle_loop_element(alg, eps=0.10, seed=7):
    """Invertible pointwise exponential f = exp(eps * noise) on Z_n,
    as a 1 x 1 degree-0 matrix over the circle algebra."""
    from .algebra import MatrixElement

    n = len(alg.degree0_indices())
    rng = np.random.default_rng(seed)
    vals = np.exp(eps * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    return MatrixElement(circle_function(alg, vals).reshape(1, 1, -1), alg)


_GENERATORS = {
    "random_weak_cq": random_weak_cq,
    "exterior_strong": exterior_strong,
    "discrete_circle": discrete_circle,
    "getzler_trivial": getzler_trivial,
}


def gen_fixture(name, params=None, seed=0):
    """Instantiate a named fixture; deterministic for a fixed seed."""
    if name not in _GENERATORS:
        raise AlgebraError(f"unknown fixture generator {name!r}; known: {sorted(_GENERATORS)}")
    params = dict(params or {})
    params.setdefault("seed", seed)
    return _GENERATORS[name](**params)


def gen_fixture_json(name, params=None, seed=0) -> str:
    from .serialize import dump_json, module_to_json

    return dump_json(module_to_json(gen_fixture(name, params, seed)))
