"""Finite-dimensional differential graded algebras with explicit bases.

An algebra is stored through its structure constants ``mul[i, j, k]``
(coefficient of basis element k in the product e_i * e_j), an integer
degree per basis element, the index of the unit and the matrix of the
differential.  Everything downstream (chains, Chern characters, the
spectral-flow pairing) works in these coordinates.

Algebras, their elements and matrices over them are frozen dataclasses:
__post_init__ checks every field (integers through operator.index, so 0.7
is refused, not read as 0), keeps read-only copies and builds what derives
from them once, as the caches downstream assume.  An algebra carries
nothing else that computes, so one read back from its JSON behaves as the
one it was written from.  A lift mat_lift(alg, m) records m as matrix_size
and keeps the basis of matrix_units(m), which is built once per m and
also gives mat_lift its structure constants; matrix modules, lifted
coefficient vectors and the generalized trace read it from the lift.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .report import ValidationReport, _frozen, _set_frozen, running_max


class AlgebraError(ValueError):
    pass


def _sparse_tables(arr):
    """The entries of arr that are not exactly zero (a NaN stays), grouped by
    all indices but the last, in C order: as {leading indices: [(last index,
    value)]}, and as read-only zero-padded target and coefficient arrays of
    shape arr.shape[:-1] + (width,)."""
    *lead, last = np.nonzero(arr != 0)
    vals = arr[(*lead, last)]
    flat = np.ravel_multi_index(lead, arr.shape[:-1])
    new = np.diff(flat, prepend=-1) != 0
    slot = np.arange(len(flat)) - np.flatnonzero(new)[np.cumsum(new) - 1]
    width = int(slot.max(initial=0)) + 1
    tgt = np.zeros(arr.shape[:-1] + (width,), dtype=np.int64)
    cf = np.zeros(arr.shape[:-1] + (width,), dtype=complex)
    tgt.reshape(-1, width)[flat, slot] = last
    cf.reshape(-1, width)[flat, slot] = vals
    tgt.flags.writeable = cf.flags.writeable = False
    table = {}
    for key, k, v in zip(zip(*[a.tolist() for a in lead]), last.tolist(), vals.tolist()):
        table.setdefault(key, []).append((k, v))
    return table, tgt, cf


@dataclass(frozen=True, eq=False)
class DgAlgebra:
    """Associative unital Z-graded algebra with a degree +1 differential;
    frozen (see the module docstring) and compared by identity."""

    dim: int
    degree: np.ndarray
    unit_index: int
    mul: np.ndarray
    diff: np.ndarray
    name: str = "algebra"
    # an acyclic extension (acyclic_extension) records the index of its odd
    # variable sigma and the dimension of the algebra it extends
    sigma_index: int | None = None
    base_dim: int | None = None
    matrix_size: int = 1  # m for Mat_m of an algebra built by mat_lift
    # a lift keeps its basis of Mat_m(C), set on construction: the B_a of
    # matrix_units(m) stacked, and the inverse of their flattening (read-only,
    # built once per m and shared by every lift of that size)
    matrix_basis = matrix_flat_inv = None

    def __post_init__(self):
        # private read-only copies: degree_tuple, parity_tuple, the sparse
        # tables below and the caches downstream assume the structure never changes
        dim, m = operator.index(self.dim), operator.index(self.matrix_size)
        _set_frozen(self, dim=dim, degree=_frozen([operator.index(d) for d in self.degree], dtype=int),
                    unit_index=operator.index(self.unit_index), mul=_frozen(self.mul), diff=_frozen(self.diff),
                    sigma_index=None if self.sigma_index is None else operator.index(self.sigma_index),
                    base_dim=None if self.base_dim is None else operator.index(self.base_dim), matrix_size=m)
        if not isinstance(self.name, str):
            raise AlgebraError("name must be a string")
        if dim < 1:
            raise AlgebraError("dim must be >= 1")
        if self.degree.shape != (dim,):
            raise AlgebraError("degree vector has wrong shape")
        if self.mul.shape != (dim, dim, dim):
            raise AlgebraError("structure constants have wrong shape")
        if self.diff.shape != (dim, dim):
            raise AlgebraError("differential matrix has wrong shape")
        if not 0 <= self.unit_index < dim:
            raise AlgebraError("unit_index out of range")
        if self.sigma_index is not None and not (0 <= self.sigma_index < dim and self.degree[self.sigma_index] == -1):
            raise AlgebraError("sigma_index must name a basis element of degree -1")
        if self.base_dim is not None and 2 * self.base_dim != dim:
            raise AlgebraError("base_dim must be half the dimension of the extension")
        if m < 1 or dim % (m * m):
            raise AlgebraError("matrix_size must be >= 1 and its square must divide dim")
        # plain-int degrees and the nonzero structure constants, a NaN included:
        # mul_table {(i, j): [(k, mul[i, j, k])]} and diff_table {j: [(i, diff[i, j])]}
        # for the per-word faces, and the same entries zero-padded for the word-layer
        # kernels, mul_tgt/mul_cf[i, j, e] and diff_tgt/diff_cf[j, e]
        degree_tuple = tuple(self.degree.tolist())
        mul_table, mul_tgt, mul_cf = _sparse_tables(self.mul)
        diff_table, diff_tgt, diff_cf = _sparse_tables(self.diff.T)
        _set_frozen(self, degree_tuple=degree_tuple, parity_tuple=tuple(d % 2 for d in degree_tuple),
                    mul_table=mul_table, mul_tgt=mul_tgt, mul_cf=mul_cf,
                    diff_table={j: entries for (j,), entries in diff_table.items()},
                    diff_tgt=diff_tgt, diff_cf=diff_cf)
        if m > 1:
            mats, flat_inv, _ = matrix_units(m)
            _set_frozen(self, matrix_basis=mats, matrix_flat_inv=flat_inv)

    # -- element helpers -------------------------------------------------

    def element(self, coeffs) -> "AlgebraElement":
        return AlgebraElement(coeffs, self)

    def basis_element(self, i) -> "AlgebraElement":
        coeffs = np.zeros(self.dim, dtype=complex)
        coeffs[i] = 1.0
        return AlgebraElement(coeffs, self)

    @property
    def unit(self) -> "AlgebraElement":
        return self.basis_element(self.unit_index)

    def degree0_indices(self):
        return [i for i in range(self.dim) if self.degree[i] == 0]

    def multiply_coeffs(self, a, b):
        return np.einsum("i,j,ijk->k", a, b, self.mul)

    def diff_coeffs(self, a):
        return self.diff @ a

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        mul_triplets = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k, v in self.mul_table.get((i, j), []):
                    mul_triplets.append([i, j, k, v.real, v.imag])
        diff_triplets = []
        for j, entries in sorted(self.diff_table.items()):
            for i, v in entries:
                diff_triplets.append([i, j, v.real, v.imag])
        out = {
            "name": self.name,
            "dim": self.dim,
            "degrees": list(self.degree_tuple),
            "unit_index": self.unit_index,
            "mul": mul_triplets,
            "diff": diff_triplets,
        }
        out.update({key: getattr(self, key) for key in ("sigma_index", "base_dim") if getattr(self, key) is not None})
        if self.matrix_size > 1:
            out["matrix_size"] = self.matrix_size
        return out

    @classmethod
    def from_json_dict(cls, data) -> "DgAlgebra":
        dim = operator.index(data["dim"])

        def index(i):
            i = operator.index(i)
            if not 0 <= i < dim:
                raise AlgebraError(f"triplet index {i} out of range")
            return i

        mul = np.zeros((dim, dim, dim), dtype=complex)
        for i, j, k, re, im in data["mul"]:
            mul[index(i), index(j), index(k)] = complex(re, im)
        diff = np.zeros((dim, dim), dtype=complex)
        for i, j, re, im in data["diff"]:
            diff[index(i), index(j)] = complex(re, im)
        return cls(dim, data["degrees"], data["unit_index"], mul, diff, name=data.get("name", "algebra"),
                   sigma_index=data.get("sigma_index"), base_dim=data.get("base_dim"),
                   matrix_size=data.get("matrix_size", 1))

    def __repr__(self):
        return f"DgAlgebra({self.name!r}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Element of a DgAlgebra, stored as a read-only copy of its coefficient vector."""

    coeffs: np.ndarray
    parent: DgAlgebra

    def __post_init__(self):
        _set_frozen(self, coeffs=_frozen(self.coeffs))
        if self.coeffs.shape != (self.parent.dim,):
            raise AlgebraError("coefficient vector has wrong length")

    def __add__(self, other):
        return AlgebraElement(self.coeffs + other.coeffs, self.parent)

    def __sub__(self, other):
        return AlgebraElement(self.coeffs - other.coeffs, self.parent)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return AlgebraElement(self.parent.multiply_coeffs(self.coeffs, other.coeffs), self.parent)
        return AlgebraElement(self.coeffs * complex(other), self.parent)

    def __rmul__(self, scalar):
        return AlgebraElement(self.coeffs * complex(scalar), self.parent)

    def __neg__(self):
        return AlgebraElement(-self.coeffs, self.parent)

    def d(self) -> "AlgebraElement":
        return AlgebraElement(self.parent.diff_coeffs(self.coeffs), self.parent)

    def degrees_present(self):
        nz = np.nonzero(self.coeffs != 0)[0]  # a NaN counts
        return sorted({int(self.parent.degree[i]) for i in nz})

    def norm(self) -> float:
        """Designated seminorm: max absolute basis coefficient."""
        return float(np.max(np.abs(self.coeffs), initial=0.0))

    def __repr__(self):
        return f"AlgebraElement({self.coeffs!r})"


def dga_validate(alg: DgAlgebra) -> ValidationReport:
    """Check associativity, unit laws, grading, d^2 = 0 and graded Leibniz.

    Associativity and Leibniz are checked exhaustively for dim <= 48 and
    on seeded random triples beyond that (the report notes which mode was
    used).
    """
    tol = 1e-12
    rep = ValidationReport(f"dga:{alg.name}")
    mul, diff, deg = alg.mul, alg.diff, alg.degree
    dim, u = alg.dim, alg.unit_index

    exhaustive = dim <= 48
    if exhaustive:
        lhs = np.einsum("ijk,klm->ijlm", mul, mul)
        rhs = np.einsum("jlk,ikm->ijlm", mul, mul)
        assoc = np.max(np.abs(lhs - rhs), initial=0.0)
    else:
        rng = np.random.default_rng(0)
        assoc = 0.0
        for _ in range(2000):
            i, j, l = rng.integers(0, dim, size=3)
            lhs_v = np.einsum("k,klm->lm", mul[i, j], mul)[l]
            rhs_v = np.einsum("k,km->m", mul[j, l], mul[i])
            assoc = running_max(assoc, np.max(np.abs(lhs_v - rhs_v)))
    rep.add("associativity", assoc, tol, "(e_i e_j) e_l = e_i (e_j e_l)",
            note="exhaustive" if exhaustive else "sampled")

    unit_res = running_max(float(np.max(np.abs(mul[u] - np.eye(dim)))),
                           np.max(np.abs(mul[:, u, :] - np.eye(dim))))
    rep.add("unit-laws", unit_res, tol, "1*e_j = e_j = e_j*1")

    deg_sum = deg[:, None, None] + deg[None, :, None]
    bad_mul = np.where(deg[None, None, :] != deg_sum, np.abs(mul), 0.0)
    rep.add("grading-product", float(np.max(bad_mul, initial=0.0)), tol, "deg(e_i e_j) = deg(e_i) + deg(e_j)")

    bad_diff = np.where(deg[:, None] != deg[None, :] + 1, np.abs(diff), 0.0)
    rep.add("grading-differential", float(np.max(bad_diff, initial=0.0)), tol, "d raises degree by one")

    rep.add("unit-differential", float(np.max(np.abs(diff[:, u]), initial=0.0)), tol, "d(1) = 0")
    rep.add("d-squared", float(np.max(np.abs(diff @ diff), initial=0.0)), tol, "d(d(a)) = 0")

    if exhaustive:
        dprod = np.einsum("ijk,lk->ijl", mul, diff)
        da_b = np.einsum("pi,pjl->ijl", diff, mul)
        sign = (-1.0) ** (deg % 2)
        a_db = np.einsum("i,pj,ipl->ijl", sign, diff, mul)
        leib = float(np.max(np.abs(dprod - da_b - a_db), initial=0.0))
        note = "exhaustive"
    else:
        rng = np.random.default_rng(1)
        leib = 0.0
        for _ in range(2000):
            i, j = rng.integers(0, dim, size=2)
            dprod_v = diff @ mul[i, j]
            da_b_v = np.einsum("p,pl->l", diff[:, i], mul[:, j, :])
            a_db_v = (-1.0) ** (deg[i] % 2) * np.einsum("p,pl->l", diff[:, j], mul[i])
            leib = running_max(leib, np.max(np.abs(dprod_v - da_b_v - a_db_v)))
        note = "sampled"
    rep.add("graded-leibniz", leib, tol, "d(ab) = (da)b + (-1)^|a| a db", note=note)
    return rep


def acyclic_extension(alg: DgAlgebra) -> DgAlgebra:
    """Adjoin an odd square-zero variable s with differential d - iota.

    Basis: the original e_i at indices 0..dim-1 followed by s*e_i at
    dim..2*dim-1.  The new variable is s*1 at index dim + unit_index,
    it has degree -1, squares to zero and supercommutes with the base.
    """
    dim = alg.dim
    dim2 = 2 * dim
    deg2 = np.concatenate([alg.degree, alg.degree - 1])
    mul2 = np.zeros((dim2, dim2, dim2), dtype=complex)
    sign = (-1.0) ** (alg.degree % 2)
    # plain * plain, plain * (s b) = (-1)^|a| s(ab), (s a) * plain = s(ab)
    mul2[:dim, :dim, :dim] = alg.mul
    mul2[:dim, dim:, dim:] = np.einsum("i,ijk->ijk", sign, alg.mul)
    mul2[dim:, :dim, dim:] = alg.mul
    diff2 = np.zeros((dim2, dim2), dtype=complex)
    diff2[:dim, :dim] = alg.diff
    # d_T(s b) = -s db - b
    diff2[dim:, dim:] = -alg.diff
    diff2[:dim, dim:] = -np.eye(dim)
    return DgAlgebra(dim2, deg2, alg.unit_index, mul2, diff2, name=alg.name + "_T",
                     sigma_index=dim + alg.unit_index, base_dim=dim)


@functools.cache
def matrix_units(m):
    """The basis of Mat_m(C) used by mat_lift, the inverse of its flattening
    and its structure constants: the identity, the E_pq with p != q in row
    order, then E_00 - E_pp for p = 1..m-1.  For m = 2 this is
    {1, E_01, E_10, E_00 - E_11}.  Built once per m, as read-only arrays
    (the basis stacked on axis 0) that every lift of size m shares."""
    mats = [np.eye(m, dtype=complex)]
    for p in range(m):
        for q in range(m):
            if p != q:
                e = np.zeros((m, m), dtype=complex)
                e[p, q] = 1.0
                mats.append(e)
    for p in range(1, m):
        e = np.zeros((m, m), dtype=complex)
        e[0, 0] = 1.0
        e[p, p] = -1.0
        mats.append(e)
    flat_inv = np.linalg.inv(np.stack([b.reshape(-1) for b in mats], axis=1))
    mm = len(mats)
    cmat = np.zeros((mm, mm, mm), dtype=complex)
    for a in range(mm):
        for b in range(mm):
            cmat[a, b] = flat_inv @ (mats[a] @ mats[b]).reshape(-1)
    return _frozen(mats), _frozen(flat_inv), _frozen(cmat)


def mat_lift(alg: DgAlgebra, m: int) -> DgAlgebra:
    """Mat_m(alg) as a DgAlgebra of dimension m^2 * dim with entrywise d, in
    the basis B_a (x) e_i (index a * dim + i) with B_a from matrix_units(m);
    Mat_1(alg) is alg itself."""
    if m < 1:
        raise AlgebraError("matrix size must be >= 1")
    if m == 1:
        return alg
    cmat = matrix_units(m)[2]  # the build whose basis the lift keeps
    mm, dim = m * m, alg.dim
    dim_out = mm * dim
    mul_out = np.einsum("abc,ijk->aibjck", cmat, alg.mul).reshape(dim_out, dim_out, dim_out)
    deg_out = np.tile(alg.degree, mm)
    diff_out = np.kron(np.eye(mm), alg.diff)
    return DgAlgebra(dim_out, deg_out, alg.unit_index, mul_out, diff_out, name=f"Mat{m}({alg.name})", matrix_size=m)


@dataclass(frozen=True, eq=False)
class MatrixElement:
    """m x m matrix with entries in a common DgAlgebra, stored as a read-only copy."""

    entries: np.ndarray
    alg: DgAlgebra
    m: int = field(init=False)

    def __post_init__(self):
        _set_frozen(self, entries=_frozen(self.entries))
        if self.entries.ndim != 3 or self.entries.shape[0] != self.entries.shape[1]:
            raise AlgebraError("entries must have shape (m, m, dim)")
        if self.entries.shape[2] != self.alg.dim:
            raise AlgebraError("entry length does not match the algebra dimension")
        _set_frozen(self, m=self.entries.shape[0])

    @classmethod
    def from_scalar_matrix(cls, mat, alg: DgAlgebra):
        mat = np.asarray(mat, dtype=complex)
        m = mat.shape[0]
        entries = np.zeros((m, m, alg.dim), dtype=complex)
        entries[:, :, alg.unit_index] = mat
        return cls(entries, alg)

    @classmethod
    def identity(cls, m, alg: DgAlgebra):
        return cls.from_scalar_matrix(np.eye(m), alg)

    def __add__(self, other):
        return MatrixElement(self.entries + other.entries, self.alg)

    def __sub__(self, other):
        return MatrixElement(self.entries - other.entries, self.alg)

    def __neg__(self):
        return MatrixElement(-self.entries, self.alg)

    def scale(self, scalar):
        return MatrixElement(self.entries * complex(scalar), self.alg)

    def __matmul__(self, other):
        if self.m != other.m:
            raise AlgebraError("matrix sizes differ")
        out = np.einsum("pri,rqj,ijk->pqk", self.entries, other.entries, self.alg.mul)
        return MatrixElement(out, self.alg)

    def d(self):
        return MatrixElement(np.einsum("ki,pqi->pqk", self.alg.diff, self.entries), self.alg)

    def entry(self, p, q) -> AlgebraElement:
        return AlgebraElement(self.entries[p, q], self.alg)

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.entries), initial=0.0))

    def is_degree(self, k) -> bool:
        mask = self.alg.degree != k
        return float(np.max(np.abs(self.entries[:, :, mask]), initial=0.0)) <= 1e-13

    def degrees_present(self):
        degs = set()
        for p in range(self.m):
            for q in range(self.m):
                degs.update(self.entry(p, q).degrees_present())
        return sorted(degs)

    def inverse_deg0(self) -> "MatrixElement":
        """Inverse of a degree-0 matrix: a linear solve in the regular
        representation of Mat_m of the degree-0 subalgebra, so the result
        depends only on the structure constants."""
        if not self.is_degree(0):
            raise AlgebraError("matrix has entries of nonzero degree")
        alg = self.alg
        deg0 = alg.degree0_indices()
        n0 = len(deg0)
        m = self.m
        unit0 = deg0.index(alg.unit_index)
        # left multiplication by X on Mat_m(degree-0 part):
        # (X Y)_{p s, k} = sum_{r, i, j} X_{p r, i} mul0[i, j, k] Y_{r s, j}
        mul0 = alg.mul[np.ix_(deg0, deg0, deg0)]
        X = self.entries[:, :, deg0]
        K = np.einsum("pri,ijk->prjk", X, mul0)
        big = np.zeros((m, m, n0, m, m, n0), dtype=complex)
        for s in range(m):
            big[:, s, :, :, s, :] = K.transpose(0, 3, 1, 2)  # [p, k, r, j]
        big = big.reshape(m * m * n0, m * m * n0)
        rhs = np.zeros((m, m, n0), dtype=complex)
        for p in range(m):
            rhs[p, p, unit0] = 1.0
        try:
            sol = np.linalg.solve(big, rhs.reshape(-1)).reshape(m, m, n0)
        except np.linalg.LinAlgError as exc:
            raise AlgebraError("matrix not invertible") from exc
        out = np.zeros_like(self.entries)
        out[:, :, deg0] = sol
        inv = MatrixElement(out, alg)
        resid = max((inv @ self - MatrixElement.identity(m, alg)).max_norm(),
                    (self @ inv - MatrixElement.identity(m, alg)).max_norm())
        if resid > 1e-9:
            raise AlgebraError("matrix has no two-sided inverse")
        return inv

    def __repr__(self):
        return f"MatrixElement(m={self.m}, alg={self.alg.name!r})"


def maurer_cartan(g: MatrixElement) -> MatrixElement:
    """omega = g^{-1} dg for an invertible degree-0 matrix g."""
    if not g.is_degree(0):
        raise AlgebraError("maurer_cartan requires a degree-0 matrix")
    return g.inverse_deg0() @ g.d()


def maurer_cartan_residual(omega: MatrixElement) -> float:
    """Max-norm of d(omega) + omega^2 (zero for a Maurer-Cartan form)."""
    return (omega.d() + omega @ omega).max_norm()
