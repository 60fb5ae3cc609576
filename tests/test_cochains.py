"""Operator bar cochains: product, codifferential, dual evaluation."""

import numpy as np
import pytest

from chernlab.algebra import acyclic_extension
from chernlab.chains import BAR, CYCLIC, Chain, d_total, random_basis_word
from chernlab.cochains import CochainError, OperatorBarCochain, delta, dual_eval
from chernlab.fixtures import discrete_circle_algebra, exterior_algebra
from chernlab.hilbert import GradedHilbert
from chernlab.verification import delta_leibniz_report, random_bar_cochain

ALG = acyclic_extension(discrete_circle_algebra(3))
H = GradedHilbert(np.array([1, 1, -1, -1]))


def _rand_cochain(parity, seed):
    return random_bar_cochain(ALG, H, parity, np.random.default_rng(seed))


def test_unit_cochain_is_neutral():
    rng = np.random.default_rng(0)
    l1 = _rand_cochain(1, 1)
    unit = OperatorBarCochain.unit(ALG, H.dim)
    for _ in range(10):
        N = int(rng.integers(0, 4))
        w = random_basis_word(ALG, BAR, N, rng)
        a = (l1 * unit).eval_word(w)
        b = (unit * l1).eval_word(w)
        c = l1.eval_word(w)
        assert np.max(np.abs(a - c)) <= 1e-13
        assert np.max(np.abs(b - c)) <= 1e-13


def test_product_associative():
    rng = np.random.default_rng(2)
    l1, l2, l3 = _rand_cochain(1, 3), _rand_cochain(0, 4), _rand_cochain(1, 5)
    for _ in range(10):
        N = int(rng.integers(0, 4))
        w = random_basis_word(ALG, BAR, N, rng)
        a = ((l1 * l2) * l3).eval_word(w)
        b = (l1 * (l2 * l3)).eval_word(w)
        scale = max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


def test_product_parity_bookkeeping():
    l1, l2 = _rand_cochain(1, 6), _rand_cochain(1, 7)
    assert (l1 * l2).parity == 0
    assert (l1 * _rand_cochain(0, 8)).parity == 1


def test_product_mismatched_spaces_rejected():
    other = OperatorBarCochain.unit(ALG, 6)
    with pytest.raises(CochainError):
        _ = _rand_cochain(0, 9) * other


def test_delta_raises_parity_and_leibniz_small():
    rep = delta_leibniz_report(ALG, n_cochains=25, seed=11)
    assert rep.passed, rep.summary()
    assert delta(_rand_cochain(0, 12)).parity == 1


def test_delta_squares_to_zero():
    rng = np.random.default_rng(13)
    l = _rand_cochain(1, 14)
    ddl = delta(delta(l))
    for _ in range(10):
        N = int(rng.integers(0, 4))
        w = random_basis_word(ALG, BAR, N, rng)
        assert np.max(np.abs(ddl.eval_word(w))) <= 1e-10


def test_dual_eval_signs():
    # even functional: no sign; odd functional against an odd operator: sign -1
    class Functional:
        def __init__(self, parity):
            self.parity = parity

        def eval_chain(self, chain):
            return sum(chain.terms.values())

    alg = exterior_algebra(2)
    c = Chain.basis_word(alg, CYCLIC, (0, 1))

    def X(chain):
        return chain.scale(2.0)

    even = dual_eval(Functional(0), X, c, x_parity=1)
    odd = dual_eval(Functional(1), X, c, x_parity=1)
    assert even == pytest.approx(2.0)
    assert odd == pytest.approx(-2.0)
    with pytest.raises(CochainError):
        dual_eval(Functional(None), X, c, x_parity=1)


def test_total_codifferential_squares_chainside():
    # ((d + b - B)^dual)^2 l = 0 because the chain-side square vanishes
    rng = np.random.default_rng(15)
    for _ in range(20):
        N = int(rng.integers(0, 4))
        w = random_basis_word(ALG, CYCLIC, N, rng)
        c = Chain.basis_word(ALG, CYCLIC, w)
        assert d_total(d_total(c)).norm() <= 1e-12


def test_slot_degree_reads_a_nan_coefficient():
    # a NaN on a degree-1 element next to the unit is an inhomogeneous slot,
    # not a pure degree-0 one
    from chernlab.algebra import AlgebraElement
    from chernlab.cochains import slot_degree

    alg = exterior_algebra(2)
    vec = np.array([1.0, np.nan, 0.0, 0.0], dtype=complex)
    with pytest.raises(CochainError, match="not homogeneous"):
        slot_degree(alg, vec)
    assert AlgebraElement(vec, alg).degrees_present() == [0, 1]
