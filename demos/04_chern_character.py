"""The heat-kernel character of a Fredholm module: quantization,
coclosedness, Chen vanishing, the transgression and the odd closed form.

Run as: python3 demos/04_chern_character.py
"""

import numpy as np

from chernlab import (
    Chain,
    acyclic_extension,
    acyclic_extend_module,
    chen_vanish,
    chern_eval,
    coclosed_residual,
    double_odd,
    getzler_closed_form,
    module_validate,
    quantize,
    quantize_partitions,
    transgression_check,
)
from chernlab.chains import CYCLIC, random_basis_word
from chernlab.fixtures import discrete_circle, getzler_trivial, random_weak_cq
from chernlab.fredholm import Homotopy, chern_scale

print("== a strong module on the discrete circle ==")
Modd = discrete_circle(6, seed=0)
print(module_validate(Modd).summary())
M = double_odd(Modd)
print(f"doubled module: H has dimension {M.hdim}, Clifford index q = {M.q}")

print()
print("== the quantization map on words ==")
rng = np.random.default_rng(3)
w = random_basis_word(M.alg, CYCLIC, 2, rng)
banded = quantize(M, 1.0, w[1:])
parts = quantize_partitions(M, 1.0, w[1:])
print(f"banded block-exponential vs partition enumeration: "
      f"{np.max(np.abs(banded - parts)):.2e}")

print()
print("== coclosedness of the character ==")
scale = chern_scale(M)
worst = max(abs(coclosed_residual(M, random_basis_word(M.alg, CYCLIC, int(rng.integers(0, 3)), rng)))
            for _ in range(40))
print(f"(d + b - B)^dual Ch residual over 40 random words: {worst / scale:.2e}")

print()
print("== vanishing on the Chen normalization ==")
print(chen_vanish(M, seed=4, n_words=50).summary())

print()
print("== homotopy invariance through the transgression form ==")
M0 = random_weak_cq(hdim=4, q=0, seed=5, k=2, strong=True)
V = M0.cm.project_equivariant(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), 1)
hom = Homotopy(M0, 0.5 * (V + V.conj().T))
ext = acyclic_extension(M0.alg)
words = [random_basis_word(ext, CYCLIC, 1 + int(rng.integers(0, 2)), rng) for _ in range(8)]
M1_T = acyclic_extend_module(hom.module(1.0), ext)
M0_T = acyclic_extend_module(hom.module(0.0), ext)
sample = words[0]
lhs = chern_eval(M1_T, Chain.basis_word(ext, CYCLIC, sample)) - \
    chern_eval(M0_T, Chain.basis_word(ext, CYCLIC, sample))
print(f"character difference on one word: {lhs:.6f} (nonzero in general)")
print(transgression_check(hom, words, s_nodes=24, ext_alg=ext).summary())

print()
print("== the odd character in closed form (trivially graded, d = 0) ==")
Mg = getzler_trivial(4, seed=6)
Md = double_odd(Mg)
for N in (1, 2, 3):
    # draw until the word pairs nontrivially (even degrees are zero by parity)
    for _ in range(50):
        w = random_basis_word(Mg.alg, CYCLIC, N, rng)
        closed = getzler_closed_form(Mg, w)
        if N % 2 == 0 or abs(closed) > 1e-6:
            break
    doubled = chern_eval(Md, w)
    print(f"N = {N}: closed form {closed:.6f}  doubled module {doubled:.6f}  "
          f"difference {abs(closed - doubled):.2e}")
