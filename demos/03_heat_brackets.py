"""Simplex heat brackets and Clifford supertraces: the block-exponential
evaluator, its quadrature cross-check, and the rotation identity.

Run as: python3 demos/03_heat_brackets.py
"""

import numpy as np
from scipy.linalg import expm

from chernlab import (
    bracket_insert_unit,
    bracket_oracle,
    cstr,
    cstr_cyclic_sum,
    heat_bracket,
    standard_clifford_module,
    trace_norm,
)
from chernlab.hilbert import bracket_split_quadrature

rng = np.random.default_rng(2)
d = 6
A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
H = A @ A.conj().T / 3.0
ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(3)]

print("== one augmented block exponential evaluates the simplex integral ==")
plain = heat_bracket(H, ops)
oracle = bracket_oracle(H, ops, nodes=48)
print(f"{{A1, A2, A3}}_H: block-exponential vs quadrature recursion "
      f"relative error {np.linalg.norm(plain - oracle) / np.linalg.norm(plain):.2e}")
print(f"arity 0 recovers the heat operator: "
      f"{np.max(np.abs(heat_bracket(H, []) - expm(-H))):.2e}")

print()
print("== inserting the unit splits the time simplex ==")
total = sum(bracket_insert_unit(H, ops, j) for j in range(4))
print(f"sum over gaps = plain bracket: {np.linalg.norm(total - plain):.2e}")

print()
print("== the split identity ==")
B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
merged = heat_bracket(H, ops[:1] + [B] + ops[1:])
split = bracket_split_quadrature(H, ops, B, 2, nodes=64)
print(f"one insertion vs the u-weighted product form: "
      f"{np.linalg.norm(merged - split):.2e}")

print()
print("== trace-norm bound ==")
lhs = trace_norm(plain)
bound = np.prod([np.linalg.norm(X, 2) for X in ops]) / 6.0
bound *= np.trace(expm(-H / 2)).real * np.exp(0.5)
print(f"||bracket||_1 = {lhs:.4f} <= factorial heat bound {bound:.4f}")

print()
print("== Clifford supertrace kills graded commutators ==")
for q in (0, 1, 2):
    cm = standard_clifford_module(q, 3, 3)
    X = cm.project_equivariant(rng.standard_normal((cm.dim, cm.dim)) + 0j, 1)
    Y = cm.project_equivariant(rng.standard_normal((cm.dim, cm.dim)) + 0j, 1)
    com = X @ Y + Y @ X  # graded commutator of two odds
    print(f"q={q}: |CStr([X, Y])| = {abs(cstr(cm, com)):.2e}")

print()
print("== the rotation identity behind coclosedness ==")
cm = standard_clifford_module(1, 4)
raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
Hq = cm.project_equivariant(raw @ raw.conj().T, 0)
Hq = 0.5 * (Hq + Hq.conj().T)
Hq -= min(0.0, np.linalg.eigvalsh(Hq).min()) * np.eye(8)
ops_q = [cm.project_equivariant(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),
                                int(rng.integers(0, 2))) for _ in range(3)]
res, lhs, rhs = cstr_cyclic_sum(cm, Hq, ops_q)
print(f"signed rotations sum: {lhs:.6f}")
print(f"out-front form:       {rhs:.6f}")
print(f"residual: {res:.2e}")
