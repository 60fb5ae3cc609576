"""Fixture generation, determinism and JSON round trips."""

import json

import numpy as np
import pytest

from chernlab.algebra import AlgebraError
from chernlab.chains import CYCLIC, Chain
from chernlab.fixtures import gen_fixture, gen_fixture_json
from chernlab.fredholm import module_validate
from chernlab.serialize import (
    chain_from_json,
    chain_to_json,
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


def test_chain_round_trip():
    M = gen_fixture("discrete_circle", {"n": 3}, seed=1)
    alg = M.alg
    c = Chain(alg, CYCLIC)
    c.add_term((0, 4, 5), 1.5 - 0.25j)
    c.add_term((2,), 3.0)
    data = json.loads(dump_json(chain_to_json(c)))
    c2 = chain_from_json(data, alg)
    assert (c - c2).norm() == 0.0


def test_chain_from_json_keeps_a_nan_slot_entry():
    from chernlab.fixtures import exterior_algebra

    alg = exterior_algebra(2)
    slot0, slot1 = np.eye(alg.dim)[0], np.eye(alg.dim)[1]
    slot1[2] = np.nan
    data = {"kind": CYCLIC, "terms": [{"coeff": [1.0, 0.0],
                                       "slots": [[[x, 0.0] for x in v] for v in (slot0, slot1)]}]}
    c = chain_from_json(data, alg)
    assert c.terms[(0, 1)] == 1.0
    assert np.isnan(c.terms[(0, 2)])


def test_subspace_round_trip():
    from chernlab.algebra import acyclic_extension
    from chernlab.chains import Chain, chen_R, chen_residual, chen_subspace
    from chernlab.fixtures import exterior_algebra
    from chernlab.serialize import subspace_from_json, subspace_to_json

    alg = acyclic_extension(exterior_algebra(1))
    sub = chen_subspace(alg, N_max=2)
    data = json.loads(dump_json(subspace_to_json(sub)))
    sub2 = subspace_from_json(data, alg)
    c = chen_R(Chain.basis_word(alg, CYCLIC, (1, 2)))
    assert abs(chen_residual(c, sub) - chen_residual(c, sub2)) <= 1e-12
    assert sub2.rank == sub.rank


def test_homotopy_round_trip():
    from chernlab.fixtures import random_weak_cq
    from chernlab.serialize import homotopy_from_json, homotopy_to_json
    from chernlab.fredholm import Homotopy

    M = random_weak_cq(hdim=4, q=0, seed=21, k=1)
    rng = np.random.default_rng(22)
    V = M.cm.project_equivariant(rng.standard_normal((4, 4)) + 0j, 1)
    V = 0.5 * (V + V.conj().T)
    hom = Homotopy.affine_Q(M, V)
    data = json.loads(dump_json(homotopy_to_json(hom, V=V)))
    hom2 = homotopy_from_json(data)
    assert np.max(np.abs(hom2.Q_of(0.7) - hom.Q_of(0.7))) <= 1e-15
    assert np.max(np.abs(hom2.Qdot_of(0.3) - V)) <= 1e-15
