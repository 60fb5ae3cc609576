"""The verification routines (the complex-axiom checks behind criterion
01, the bracket kernel) and their reports: a check passes only on finite
residuals, and a wrong sign or a NaN structure constant fails them."""

import inspect

import numpy as np
import pytest

from chernlab import chains, verification
from chernlab.algebra import DgAlgebra, acyclic_extension, dga_validate
from chernlab.chains import CYCLIC, Chain
from chernlab.fixtures import discrete_circle_algebra, exterior_algebra
from chernlab.fredholm import module_validate
from chernlab.hilbert import clifford_validate


def test_nan_product_entry_fails_the_axiom_checks():
    # e1 * e2 = NaN * e1e2 in the exterior algebra on two generators
    clean = exterior_algebra(2)
    assert verification.complex_axiom_residuals(clean, max_slots=4).passed
    mul = np.array(clean.mul)
    mul[1, 2, 3] = np.nan
    alg = DgAlgebra(clean.dim, clean.degree, clean.unit_index, mul, clean.diff, name="Ext2-NaN")
    assert np.isnan(alg.mul_table[(1, 2)][0][1])
    with np.errstate(invalid="ignore"):
        rep = verification.complex_axiom_residuals(alg, max_slots=4)
        assert np.isnan(chains.b_cyclic(Chain.basis_word(alg, CYCLIC, (0, 1, 2))).terms[(0, 3)])
        assert np.isnan(chains.d_total_terms(alg, (0, 1, 2))[(0, 3)])
    assert not rep.passed
    bad = {c.check_id for c in rep.failing()}
    assert "bb" in bad
    assert all(np.isnan(rep.residual(cid)) for cid in bad)


def _flipped(fn, index):
    """fn with the sign at index flipped (the whole sign when index is None)."""
    def flipped(parities, *args):
        row = fn(parities, *args)
        if index is None:
            return -row
        return [-v if k == index else v for k, v in enumerate(row)]
    return flipped


@pytest.mark.parametrize("name, index", [("_wrap_sign", None), ("_d_signs", 1), ("_b_signs", 1)])
def test_a_flipped_sign_fails_the_axiom_checks(monkeypatch, name, index):
    # one wrong sign in one convention must show in the axiom residuals
    alg = acyclic_extension(discrete_circle_algebra(2))
    assert verification.complex_axiom_residuals(alg, max_slots=4).passed
    monkeypatch.setattr(chains, name, _flipped(getattr(chains, name), index))
    monkeypatch.setattr(chains, "_SIGN_ROWS", {})
    rep = verification.complex_axiom_residuals(alg, max_slots=4)
    assert not rep.passed
    assert rep.max_residual() >= 1.0


def test_max_residual_keeps_a_nan():
    from chernlab.report import ValidationReport

    rep = ValidationReport("two checks")
    rep.add("finite", 0.5, 1.0)
    rep.add("poisoned", np.nan, 1.0)
    assert np.isnan(rep.max_residual())


def test_nan_oracle_fails_the_bracket_kernel_report(monkeypatch):
    inner = verification.bracket_oracle
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(1)
        out = inner(*args, **kwargs)
        return np.full_like(out, np.nan) if len(calls) == 1 else out

    monkeypatch.setattr(verification, "bracket_oracle", poisoned)
    rep = verification.bracket_kernel_report(n_instances=3, seed=0)
    assert np.isnan(rep.residual("block-exponential-vs-oracle"))
    assert "block-exponential-vs-oracle" in {c.check_id for c in rep.failing()}


def test_checks_take_no_tolerance():
    # the pinned tolerances are the contract: no caller can loosen one
    checks = (verification.complex_axiom_residuals, verification.delta_leibniz_report,
              verification.codifferential_squares_report, verification.bracket_kernel_report,
              verification.supertrace_report, dga_validate, module_validate, clifford_validate)
    for fn in checks:
        assert not [p for p in inspect.signature(fn).parameters if "tol" in p], fn.__name__


@pytest.mark.parametrize("alg", [exterior_algebra(2), acyclic_extension(discrete_circle_algebra(2))],
                         ids=["Ext2", "Circle2_T"])
def test_codifferential_square_on_faces_matches_word_layers(alg):
    # the report squares d + b - B on per-word faces; the word-layer d_total of
    # the same 50 words gives the same worst norm up to rounding
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        w = chains.random_basis_word(alg, CYCLIC, int(rng.integers(0, 4)), rng)
        worst = max(worst, chains.d_total(chains.d_total(Chain.basis_word(alg, CYCLIC, w))).norm())
    rep = verification.codifferential_squares_report(alg, seed=3)
    assert rep.passed and abs(rep.residual("dual-differential-squares-to-zero") - worst) <= 1e-15
