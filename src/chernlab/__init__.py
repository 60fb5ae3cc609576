"""chernlab: finite-dimensional dg algebras, cyclic/bar complexes,
Clifford heat brackets, heat-kernel Chern characters and the
spectral-flow pairing, with a numerical verification suite."""

import os

# One BLAS thread unless the caller sets others: the kernels work on small
# matrices, where more threads cost more than they give (README, "CLI").
# This must run before any submodule imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .algebra import (
    AlgebraError,
    AlgebraElement,
    DgAlgebra,
    MatrixElement,
    acyclic_extension,
    dga_validate,
    mat_lift,
    maurer_cartan,
    maurer_cartan_residual,
)
from .chains import (
    BAR,
    BAR_RED,
    CYCLIC,
    B_connes,
    Chain,
    ChainError,
    alpha_map,
    b_cyclic,
    b_prime,
    chen_R,
    chen_S,
    chen_Si,
    chen_Ti,
    cyclicize_N,
    d_bar,
    d_cyclic,
    d_total,
    d_total_terms,
    entire_bound,
)
from .cochains import OperatorBarCochain, delta, dual_eval
from .fredholm import (
    CqFredholmModule,
    Homotopy,
    ModuleError,
    OddFredholmModule,
    acyclic_extend_module,
    chen_vanish,
    chern_eval,
    coclosed_residual,
    conjugate_module,
    curvature,
    double_odd,
    getzler_closed_form,
    matrix_module,
    module_validate,
    psi_cochain,
    quantize,
    quantize_partitions,
    transgression_check,
)
from .hilbert import (
    CliffordModule,
    GradedHilbert,
    HilbertError,
    bracket_insert_unit,
    bracket_oracle,
    cstr,
    cstr_cyclic_sum,
    heat_bracket,
    spinor_step,
    standard_clifford_module,
    supertrace,
    trace_norm,
)
from .report import CheckResult, ValidationReport
from .spectral import (
    OddChernChain,
    PairingReport,
    SpectralError,
    TwistedFamily,
    ch_g,
    ch_g_closed,
    diagnostic_affine_sf,
    pairing,
    partition_resum_check,
    perturbation_series,
    sf_integral,
    twisted_family,
)

__version__ = "0.1.0"
