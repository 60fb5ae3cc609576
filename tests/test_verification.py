"""The verification routines (the word-layer checks behind criterion 01,
the bracket kernel) and their reports: a check passes only on finite
residuals."""

import inspect

import numpy as np

from chernlab import chains, verification
from chernlab.algebra import dga_validate
from chernlab.fixtures import exterior_algebra
from chernlab.fredholm import module_validate
from chernlab.hilbert import clifford_validate


def test_nan_product_entry_fails_the_axiom_checks(monkeypatch):
    alg = exterior_algebra(2)
    assert verification.complex_axiom_residuals(alg, max_slots=4).passed
    (i, j), _ = next((pair, e) for pair, e in alg.mul_table.items() if alg.unit_index not in pair)
    clean = chains._LayerKernels

    class Poisoned(clean):
        def __init__(self, a):
            super().__init__(a)
            self.prod_cf[i, j, 0] = np.nan

    monkeypatch.setattr(chains, "_LayerKernels", Poisoned)
    with np.errstate(invalid="ignore"):
        rep = verification.complex_axiom_residuals(alg, max_slots=4)
    assert not rep.passed
    bad = {c.check_id for c in rep.failing()}
    assert "bb" in bad
    assert all(np.isnan(rep.residual(cid)) for cid in bad)


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
