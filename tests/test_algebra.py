"""Tests for the dg algebra layer: validation, acyclic extension, matrix
lifts and Maurer-Cartan forms."""

import numpy as np
import pytest

from chernlab.algebra import (
    AlgebraError,
    DgAlgebra,
    MatrixElement,
    acyclic_extension,
    dga_validate,
    mat_lift,
    matrix_units,
    maurer_cartan,
    maurer_cartan_residual,
)
from chernlab.fixtures import (
    circle_function,
    complex_line,
    discrete_circle_algebra,
    exterior_algebra,
    matrix2_algebra,
)


def test_ground_field_validates_exactly():
    rep = dga_validate(complex_line())
    assert rep.passed
    assert rep.max_residual() == 0.0


def test_exterior_algebra_validates():
    # associativity is checked exhaustively over all basis triples
    rep = dga_validate(exterior_algebra(2))
    assert rep.passed


def test_injected_unit_differential_fails():
    alg = exterior_algebra(1)
    bad_diff = alg.diff.copy()
    bad_diff[1, alg.unit_index] = 0.5  # d(1) = 0.5 e1, degree-consistent but illegal
    bad = DgAlgebra(alg.dim, alg.degree, alg.unit_index, alg.mul, bad_diff, name="bad")
    rep = dga_validate(bad)
    assert not rep.passed
    assert rep.residual("unit-differential") == pytest.approx(0.5)


def test_algebra_above_the_exhaustive_size_is_sampled():
    # 54 basis elements, above 48: associativity and Leibniz run on seeded samples
    rep = dga_validate(acyclic_extension(discrete_circle_algebra(9)))
    assert rep.passed, rep.summary()
    notes = {c.check_id: c.note for c in rep.checks}
    assert notes["associativity"] == notes["graded-leibniz"] == "sampled"


def test_nan_differential_fails_the_sampled_leibniz_check():
    alg = acyclic_extension(discrete_circle_algebra(9))
    diff = np.array(alg.diff)
    diff[0, 1] = np.nan
    rep = dga_validate(DgAlgebra(alg.dim, alg.degree, alg.unit_index, alg.mul, diff, name="nan"))
    assert np.isnan(rep.residual("graded-leibniz"))
    assert not rep.passed


@pytest.mark.parametrize("base", ["C", "Ext1", "Ext2", "Circle3", "Mat2C"])
def test_acyclic_extension_validates(base):
    algs = {
        "C": complex_line,
        "Ext1": lambda: exterior_algebra(1),
        "Ext2": lambda: exterior_algebra(2),
        "Circle3": lambda: discrete_circle_algebra(3),
        "Mat2C": matrix2_algebra,
    }
    alg = algs[base]()
    ext = acyclic_extension(alg)
    assert ext.dim == 2 * alg.dim
    rep = dga_validate(ext)
    assert rep.passed, rep.summary()


def test_extension_of_ground_field():
    ext = acyclic_extension(complex_line())
    sigma = ext.sigma_index
    assert ext.degree[sigma] == -1
    # d_T(sigma) = -1, d_T(1) = 0
    dsigma = ext.diff[:, sigma]
    expected = np.zeros(2, dtype=complex)
    expected[ext.unit_index] = -1.0
    assert np.allclose(dsigma, expected)
    assert np.allclose(ext.diff[:, ext.unit_index], 0.0)
    # sigma^2 = 0
    assert np.allclose(ext.mul[sigma, sigma], 0.0)


def test_sigma_supercommutes_with_odd_elements():
    ext = acyclic_extension(exterior_algebra(1))
    sigma = ext.sigma_index
    e1 = 1  # the odd generator of Ext1
    anti = ext.mul[sigma, e1] + ext.mul[e1, sigma]
    assert np.max(np.abs(anti)) == 0.0
    # and commutes with the even unit
    comm = ext.mul[sigma, ext.unit_index] - ext.mul[ext.unit_index, sigma]
    assert np.max(np.abs(comm)) == 0.0


def test_extension_restricts_to_base_differential():
    alg = discrete_circle_algebra(3)
    ext = acyclic_extension(alg)
    assert np.allclose(ext.diff[: alg.dim, : alg.dim], alg.diff)
    # projecting out the sigma block of d_T on base elements recovers d
    assert np.allclose(ext.diff[alg.dim :, : alg.dim], 0.0)


def test_mat_lift_m1_is_the_algebra_itself():
    alg = exterior_algebra(1)
    assert mat_lift(alg, 1) is alg


def test_mat_lift_m2_ground_field():
    lifted = mat_lift(complex_line(), 2)
    assert lifted.dim == 4
    rep = dga_validate(lifted)
    assert rep.passed
    assert np.max(np.abs(lifted.diff)) == 0.0


def test_matrix_units_2_is_the_basis_of_mat2c():
    mats, flat_inv, cmat = matrix_units(2)
    x, y = np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]])
    for got, want in zip(mats, [np.eye(2), x, y, np.diag([1, -1])]):
        assert np.array_equal(got, want)
    assert np.array_equal(cmat, matrix2_algebra().mul)
    assert np.array_equal(mat_lift(complex_line(), 2).mul, cmat)
    for a, B in enumerate(mats):
        assert np.array_equal(flat_inv @ B.reshape(-1), np.eye(4)[a])


def test_matrix_units_is_built_once_and_shared_by_every_lift():
    # the lift keeps the basis whose build gave mat_lift its structure constants
    mats, flat_inv, cmat = matrix_units(3)
    assert matrix_units(3) is matrix_units(3)
    assert not (mats.flags.writeable or flat_inv.flags.writeable or cmat.flags.writeable)
    for alg in (complex_line(), exterior_algebra(1)):
        lift = mat_lift(alg, 3)
        assert lift.matrix_basis is mats and lift.matrix_flat_inv is flat_inv
        assert np.array_equal(lift.mul, np.einsum("abc,ijk->aibjck", cmat, alg.mul).reshape((lift.dim,) * 3))


def test_mat_lift_leibniz_random_pairs():
    alg = exterior_algebra(1)
    lifted = mat_lift(alg, 2)
    rep = dga_validate(lifted)
    assert rep.passed
    assert rep.residual("graded-leibniz") <= 1e-12


def test_maurer_cartan_identity_matrix():
    alg = discrete_circle_algebra(4)
    g = MatrixElement.identity(2, alg)
    omega = maurer_cartan(g)
    assert omega.max_norm() <= 1e-14


def test_maurer_cartan_scalar_function():
    # m = 1 over the discrete circle: omega = f^-1 df with df != 0
    alg = discrete_circle_algebra(5)
    rng = np.random.default_rng(3)
    n = 5
    vals = 1.0 + 0.4 * rng.standard_normal(n) + 0.3j * rng.standard_normal(n)
    coeffs = circle_function(alg, vals)
    g = MatrixElement(coeffs.reshape(1, 1, -1), alg)
    assert np.max(np.abs(alg.diff @ coeffs)) > 1e-3  # df != 0
    omega = maurer_cartan(g)
    assert maurer_cartan_residual(omega) <= 1e-12


def test_maurer_cartan_refuses_a_singular_loop():
    alg = discrete_circle_algebra(6)
    vals = np.ones(6)
    vals[2] = 0.0  # g vanishes at one point of Z_6
    g = MatrixElement(circle_function(alg, vals).reshape(1, 1, -1), alg)
    with pytest.raises(AlgebraError):
        maurer_cartan(g)


def test_maurer_cartan_random_gl2():
    alg = discrete_circle_algebra(6)
    rng = np.random.default_rng(7)
    entries = np.zeros((2, 2, alg.dim), dtype=complex)
    for p in range(2):
        for q in range(2):
            vals = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            if p == q:
                vals += 4.0  # keep pointwise matrices invertible
            entries[p, q] = circle_function(alg, vals)
    g = MatrixElement(entries, alg)
    omega = maurer_cartan(g)
    assert maurer_cartan_residual(omega) <= 1e-10
    # dg^-1 = -g^-1 (dg) g^-1
    g_inv = g.inverse_deg0()
    lhs = g_inv.d()
    rhs = (g_inv @ g.d() @ g_inv).scale(-1.0)
    assert (lhs - rhs).max_norm() <= 1e-10


def test_maurer_cartan_rejects_nonzero_degree():
    alg = exterior_algebra(1)
    entries = np.zeros((1, 1, alg.dim), dtype=complex)
    entries[0, 0, 1] = 1.0  # odd generator
    with pytest.raises(AlgebraError):
        maurer_cartan(MatrixElement(entries, alg))


def test_json_round_trip():
    alg = discrete_circle_algebra(3)
    data = alg.to_json_dict()
    back = DgAlgebra.from_json_dict(data)
    assert np.allclose(back.mul, alg.mul)
    assert np.allclose(back.diff, alg.diff)
    assert list(back.degree) == list(alg.degree)
    assert back.unit_index == alg.unit_index


def test_malformed_structure_constants_raise():
    with pytest.raises(AlgebraError):
        DgAlgebra(2, [0, 0], 0, np.zeros((2, 2)), np.zeros((2, 2)))


def test_structure_constants_are_frozen_after_construction():
    alg = exterior_algebra(2)
    mul, diff = np.array(alg.mul), np.array(alg.diff)
    own = DgAlgebra(alg.dim, alg.degree, alg.unit_index, mul, diff)
    with pytest.raises(ValueError):
        own.mul[1, 2, 3] = 5.0
    with pytest.raises(ValueError):
        own.diff[1, 0] = 5.0
    mul[1, 2, 3] = 5.0  # the caller's arrays stay writable and are not shared
    diff[1, 0] = 5.0
    assert own.mul[1, 2, 3] == alg.mul[1, 2, 3] and own.diff[1, 0] == 0.0
    assert own.mul_table == alg.mul_table and own.diff_table == alg.diff_table


def _dense_from_tables(alg):
    """mul and diff rebuilt from each sparse table, and each padded pair."""
    dim = alg.dim
    mul, diff = np.zeros((dim, dim, dim), dtype=complex), np.zeros((dim, dim), dtype=complex)
    for (i, j), entries in alg.mul_table.items():
        assert [k for k, _ in entries] == sorted({k for k, _ in entries})
        for k, v in entries:
            mul[i, j, k] = v
    for j, entries in alg.diff_table.items():
        for i, v in entries:
            diff[i, j] = v
    mul_pad, diff_pad = np.zeros_like(mul), np.zeros_like(diff)
    for i, j, e in np.ndindex(alg.mul_cf.shape):
        mul_pad[i, j, alg.mul_tgt[i, j, e]] += alg.mul_cf[i, j, e]
    for j, e in np.ndindex(alg.diff_cf.shape):
        diff_pad[alg.diff_tgt[j, e], j] += alg.diff_cf[j, e]
    return mul, diff, mul_pad, diff_pad


@pytest.mark.parametrize("make", [exterior_algebra, lambda n: acyclic_extension(discrete_circle_algebra(n))])
def test_sparse_tables_hold_every_nonzero_entry_and_a_nan(make):
    alg = make(2)
    mul, diff = np.array(alg.mul), np.array(alg.diff)
    mul[1, 2, 3], diff[3, 1] = np.nan, np.nan
    own = DgAlgebra(alg.dim, alg.degree, alg.unit_index, mul, diff)
    for built, dense in zip(_dense_from_tables(own), (mul, diff, mul, diff)):
        assert np.array_equal(built, dense, equal_nan=True)
    assert list(own.mul_table) == sorted(own.mul_table) and list(own.diff_table) == sorted(own.diff_table)
    assert own.mul_tgt.shape[:2] == own.mul_cf.shape[:2] == (alg.dim, alg.dim)
    assert own.diff_tgt.shape[:1] == own.diff_cf.shape[:1] == (alg.dim,)
    for arr in (own.mul_tgt, own.mul_cf, own.diff_tgt, own.diff_cf):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


def test_degree_is_frozen_after_construction():
    degree = np.array([0, 1, 1, 2])
    alg = exterior_algebra(2)
    mul, diff = np.array(alg.mul), np.array(alg.diff)
    own = DgAlgebra(alg.dim, degree, alg.unit_index, mul, diff)
    coeffs, entries = np.arange(4, dtype=complex), np.ones((2, 2, 4), dtype=complex)
    el, me = own.element(coeffs), MatrixElement(entries, own)
    for given, stored in ((degree, own.degree), (mul, own.mul), (diff, own.diff),
                          (coeffs, el.coeffs), (entries, me.entries)):
        at = (1,) * given.ndim
        before = stored[at]
        with pytest.raises(ValueError):
            stored[at] = 3
        given[at] = 3  # the caller's array stays writable and is not shared
        assert stored[at] == before != 3
    assert own.degree[1] == 1
    assert own.degree_tuple == (0, 1, 1, 2)
    assert all(type(d) is int for d in own.degree_tuple)
