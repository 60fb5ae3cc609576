"""Fixture generation, determinism and JSON round trips."""

import json

import numpy as np
import pytest

from chernlab.algebra import AlgebraError, DgAlgebra, acyclic_extension, mat_lift
from chernlab.chains import BAR_RED, random_basis_word
from chernlab.fixtures import (
    complex_line,
    discrete_circle_algebra,
    exterior_algebra,
    gen_fixture,
    gen_fixture_json,
    matrix2_algebra,
)
from chernlab.fredholm import (
    OddFredholmModule,
    acyclic_extend_module,
    double_odd,
    matrix_module,
    module_validate,
    quantize,
)
from chernlab.serialize import (
    dump_json,
    matrix_from_json,
    matrix_to_json,
    module_from_json,
    module_to_json,
)


def test_fixture_determinism_bytes():
    a = gen_fixture_json("random_weak_cq", {"hdim": 6, "q": 1}, seed=7)
    b = gen_fixture_json("random_weak_cq", {"hdim": 6, "q": 1}, seed=7)
    assert a == b
    c = gen_fixture_json("random_weak_cq", {"hdim": 6, "q": 1}, seed=8)
    assert a != c


def test_unknown_fixture_rejected():
    with pytest.raises(AlgebraError):
        gen_fixture("no_such_generator")


def test_discrete_circle_axioms_checked():
    M = gen_fixture("discrete_circle", {"n": 6})
    rep = module_validate(M)
    assert rep.residual("multiplicativity") <= 1e-12
    assert rep.residual("commutator-rule") <= 1e-12


def test_getzler_fixture_is_weak_odd():
    M = gen_fixture("getzler_trivial", {"hdim": 4}, seed=3)
    assert M.weak
    assert module_validate(M).passed


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    B = matrix_from_json(json.loads(dump_json(matrix_to_json(A))))
    assert np.array_equal(A, B)  # 17 significant digits round-trip exactly


def test_module_round_trip():
    M = gen_fixture("exterior_strong", {"hdim": 4, "q": 1, "k": 1}, seed=5)
    data = json.loads(dump_json(module_to_json(M)))
    M2 = module_from_json(data)
    assert np.array_equal(M.Q, M2.Q)
    assert np.array_equal(M.c_mats, M2.c_mats)
    assert M2.weak == M.weak
    assert module_validate(M2).passed


def test_odd_module_round_trip():
    M = gen_fixture("discrete_circle", {"n": 3}, seed=1)
    M2 = module_from_json(json.loads(dump_json(module_to_json(M))))
    assert np.array_equal(M.Q, M2.Q)
    assert module_validate(M2).passed
    assert not M2.weak


def test_matrix_module_over_a_lift_read_back_from_json_is_bitwise_the_same():
    from chernlab.algebra import DgAlgebra, mat_lift
    from chernlab.fredholm import matrix_module

    M = gen_fixture("discrete_circle", {"n": 3}, seed=1)
    lifted = mat_lift(M.alg, 2)
    read_back = DgAlgebra.from_json_dict(json.loads(dump_json(lifted.to_json_dict())))
    assert np.array_equal(read_back.mul, lifted.mul)
    a, b = matrix_module(M, 2, lifted_alg=lifted), matrix_module(M, 2, lifted_alg=read_back)
    assert b.alg is read_back
    assert np.array_equal(a.c_mats, b.c_mats) and np.array_equal(a.Q, b.Q)


def test_acyclic_extension_survives_a_json_round_trip():
    # sigma_index and base_dim are constructor fields written to JSON, so
    # the read-back extension serves the module extension and the Chen
    # operators with the in-memory bits; a base algebra's JSON has neither key
    from chernlab.algebra import DgAlgebra, acyclic_extension
    from chernlab.chains import CYCLIC, Chain, alpha_map, chen_R, chen_S, random_basis_word
    from chernlab.fixtures import discrete_circle_algebra
    from chernlab.fredholm import acyclic_extend_module

    base = discrete_circle_algebra(3)
    assert not {"sigma_index", "base_dim"} & set(base.to_json_dict())
    ext = acyclic_extension(base)
    read_back = DgAlgebra.from_json_dict(json.loads(dump_json(ext.to_json_dict())))
    assert (read_back.sigma_index, read_back.base_dim) == (ext.sigma_index, ext.base_dim) == (9, 9)
    M_T = acyclic_extend_module(gen_fixture("discrete_circle", {"n": 3}, seed=1), read_back)
    assert M_T.alg is read_back
    rng = np.random.default_rng(3)
    for N in range(4):
        word = random_basis_word(ext, CYCLIC, N, rng)
        for op in (chen_R, chen_S, alpha_map):
            a, b = op(Chain.basis_word(ext, CYCLIC, word)), op(Chain.basis_word(read_back, CYCLIC, word))
            assert list(a.terms) == list(b.terms)
            assert [(cf.real.hex(), cf.imag.hex()) for cf in a.terms.values()] == \
                [(cf.real.hex(), cf.imag.hex()) for cf in b.terms.values()]


def _suite_algebras():
    """Every algebra the suite builds: the base algebras, their acyclic
    extensions, and matrix lifts over a base algebra and over an extension."""
    base = [complex_line(), exterior_algebra(1), exterior_algebra(2), discrete_circle_algebra(3),
            discrete_circle_algebra(6), matrix2_algebra()]
    return base + [acyclic_extension(a) for a in base] + [
        mat_lift(exterior_algebra(1), 2), mat_lift(acyclic_extension(discrete_circle_algebra(2)), 2)]


@pytest.mark.parametrize("alg", _suite_algebras(), ids=lambda alg: alg.name)
def test_every_algebra_the_suite_builds_survives_a_json_round_trip(alg):
    text = dump_json(alg.to_json_dict())
    back = DgAlgebra.from_json_dict(json.loads(text))
    assert dump_json(back.to_json_dict()) == text
    assert (back.sigma_index, back.base_dim, back.matrix_size) == (alg.sigma_index, alg.base_dim, alg.matrix_size)
    assert ("matrix_size" in alg.to_json_dict()) == (alg.matrix_size > 1)
    for key in ("mul_tgt", "mul_cf", "diff_tgt", "diff_cf", "matrix_basis", "matrix_flat_inv"):
        assert np.array_equal(getattr(back, key), getattr(alg, key)), key


def _fixture_modules():
    """A module of every fixture generator, its extension over the acyclic
    extension, and the circle's matrix module over Mat_2 (a lift)."""
    mods = [gen_fixture(name, seed=5) for name in ("random_weak_cq", "exterior_strong", "getzler_trivial")]
    mods.append(gen_fixture("discrete_circle", {"n": 3}, seed=5))
    return mods + [acyclic_extend_module(M) for M in mods] + [matrix_module(mods[-1], 2)]


@pytest.mark.parametrize("M", _fixture_modules(), ids=lambda M: M.name)
def test_a_fixture_module_read_back_from_json_validates_and_quantizes_to_the_same_bits(M):
    text = dump_json(module_to_json(M))
    back = module_from_json(json.loads(text))
    assert dump_json(module_to_json(back)) == text

    def bits(rep):
        return [(c.check_id, float(c.residual).hex()) for c in rep.checks]

    assert bits(module_validate(back)) == bits(module_validate(M))
    word = random_basis_word(M.alg, BAR_RED, 2, np.random.default_rng(0))
    a, b = (double_odd(X) if isinstance(X, OddFredholmModule) else X for X in (M, back))
    assert quantize(b, 1.0, word).tobytes() == quantize(a, 1.0, word).tobytes()
