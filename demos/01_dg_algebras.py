"""Differential graded algebras: construction, validation, the acyclic
extension and Maurer-Cartan forms.  Degree-0 inversion is one linear
solve in the regular representation, so an algebra read back from JSON
inverts to the same bits.

Run as: python3 demos/01_dg_algebras.py
"""

import numpy as np

from chernlab import (
    AlgebraError,
    DgAlgebra,
    MatrixElement,
    acyclic_extension,
    dga_validate,
    maurer_cartan,
    maurer_cartan_residual,
)
from chernlab.fixtures import circle_function, discrete_circle_algebra, exterior_algebra

print("== exterior algebra on two generators ==")
ext2 = exterior_algebra(2)
print(f"dim = {ext2.dim}, degrees = {list(ext2.degree)}")
rep = dga_validate(ext2)
print(rep.summary())

print()
print("== the discrete circle: functions on Z_6 with difference one-forms ==")
circle = discrete_circle_algebra(6)
print(f"dim = {circle.dim} (6 functions, 6 forward forms, 6 backward forms)")
print(dga_validate(circle).summary())

print()
print("== adjoining the odd square-zero variable ==")
circle_T = acyclic_extension(circle)
sigma = circle_T.sigma_index
print(f"extension dim = {circle_T.dim}, sigma sits at index {sigma} with degree "
      f"{circle_T.degree[sigma]}")
d_sigma = circle_T.diff[:, sigma]
print("d(sigma) has a single coefficient -1 on the unit:",
      d_sigma[circle_T.unit_index], "and norm", np.linalg.norm(d_sigma))
print("sigma^2 coefficients are all zero:",
      np.max(np.abs(circle_T.mul[sigma, sigma])) == 0.0)
print(dga_validate(circle_T).summary())

print()
print("== Maurer-Cartan form of an invertible loop ==")
rng = np.random.default_rng(0)
values = np.exp(0.5 * (rng.standard_normal(6) + 1j * rng.standard_normal(6)))
f = MatrixElement(circle_function(circle, values).reshape(1, 1, -1), circle)
omega = maurer_cartan(f)
print("omega = f^{-1} df lives in degree 1:", omega.degrees_present())
print(f"d(omega) + omega^2 residual: {maurer_cartan_residual(omega):.2e}")

print()
print("== the same for a random GL_2 loop ==")
entries = np.zeros((2, 2, circle.dim), dtype=complex)
for p in range(2):
    for q in range(2):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        if p == q:
            v += 4.0
        entries[p, q] = circle_function(circle, v)
g = MatrixElement(entries, circle)
omega2 = maurer_cartan(g)
print(f"GL_2 Maurer-Cartan residual: {maurer_cartan_residual(omega2):.2e}")
g_inv = g.inverse_deg0()
lhs = g_inv.d()
rhs = (g_inv @ g.d() @ g_inv).scale(-1.0)
print(f"d(g^-1) = -g^-1 (dg) g^-1 residual: {(lhs - rhs).max_norm():.2e}")

print()
print("== one inverse for every copy of an algebra ==")
# circle_function turns point values on Z_6 into degree-0 coefficients
circle_json = DgAlgebra.from_json_dict(circle.to_json_dict())
g_json = MatrixElement(g.entries, circle_json)
same = np.array_equal(g.inverse_deg0().entries, g_json.inverse_deg0().entries)
print("g^-1 over the circle and over its JSON round trip agree bitwise:", same)
singular = np.ones(6)
singular[2] = 0.0
try:
    maurer_cartan(MatrixElement(circle_function(circle, singular).reshape(1, 1, -1), circle))
except AlgebraError as exc:
    print("a loop vanishing at one point of Z_6 is refused:", exc)
