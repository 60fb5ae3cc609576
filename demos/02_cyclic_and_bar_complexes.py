"""Cyclic and bar complexes: the three differentials, the rotation
operator, the intertwining map and the Chen normalization operators.

Run as: python3 demos/02_cyclic_and_bar_complexes.py
"""

import numpy as np

from chernlab import (
    B_connes,
    Chain,
    acyclic_extension,
    alpha_map,
    b_cyclic,
    b_prime,
    chen_Si,
    d_bar,
    d_cyclic,
    d_total,
    entire_bound,
)
from chernlab.chains import CYCLIC, bar_S_prime, h_map, random_basis_word
from chernlab.fixtures import discrete_circle_algebra, exterior_algebra

alg = acyclic_extension(discrete_circle_algebra(3))
rng = np.random.default_rng(1)

print("== differential axioms on random words ==")
ops = {"d": d_cyclic, "b": b_cyclic, "B": B_connes}
worst = 0.0
for _ in range(200):
    w = random_basis_word(alg, CYCLIC, int(rng.integers(0, 5)), rng)
    c = Chain.basis_word(alg, CYCLIC, w)
    for na, fa in ops.items():
        for nb, fb in ops.items():
            res = (fa(fb(c)) + fb(fa(c))).norm() if na != nb else fa(fb(c)).norm()
            worst = max(worst, res)
print(f"max residual of squares and anticommutators: {worst:.2e}")

print()
print("== the Connes operator inserts the unit and rotates ==")
w = random_basis_word(alg, CYCLIC, 2, rng)
out = B_connes(Chain.basis_word(alg, CYCLIC, w))
print(f"B of a 3-slot word has {len(out.terms)} signed rotations, "
      f"all starting with the unit index {alg.unit_index}")

print()
print("== the intertwining identity for the rotation-normalized map ==")
worst = 0.0
for _ in range(100):
    c = Chain.basis_word(alg, CYCLIC, random_basis_word(alg, CYCLIC, int(rng.integers(0, 4)), rng))
    lhs = alpha_map(d_total(c))
    ac, hc = alpha_map(c), h_map(c)
    rhs = d_bar(ac) + b_prime(ac) - (bar_S_prime(hc) + hc)
    worst = max(worst, (lhs - rhs).norm())
print(f"alpha(d + b - B) = (d + b') alpha - (S' + 1) h residual: {worst:.2e}")

print()
print("== Chen normalization in the reduced complex ==")
small = acyclic_extension(exterior_algebra(1))
f = small.basis_element(small.unit_index)
si = chen_Si(f, 0, Chain.basis_word(small, CYCLIC, (1,)))
print(f"inserting the unit dies in the reduced complex: norm {si.norm():.1f}")

print()
print("== entire growth bookkeeping ==")
chain = Chain(alg, CYCLIC)
for N in range(0, 7):
    chain = chain + Chain.basis_word(alg, CYCLIC, tuple([0] + [4] * N), coeff=2.0 ** N)
print("term-by-term bound sum_N |c_N| / floor(N/2)!:", f"{entire_bound(chain):.4f}")
