"""The odd character chain of an invertible loop, its closedness modulo
Chen normalization, and the degree-by-degree spectral-flow pairing.

Run as: python3 demos/05_spectral_flow_pairing.py
"""

import numpy as np

from chernlab import (
    ch_g,
    ch_g_closed,
    diagnostic_affine_sf,
    pairing,
    partition_resum_check,
    perturbation_series,
    sf_integral,
    twisted_family,
)
from chernlab.fixtures import circle_loop_element, discrete_circle, discrete_circle_algebra
from scipy.linalg import expm

print("== the character chain of a loop on the two-point circle ==")
alg2 = discrete_circle_algebra(2)
g_small = circle_loop_element(alg2, eps=0.5, seed=3)
ch = ch_g(g_small, 5)
print("terms per degree:", {N: len(c.terms) for N, c in ch.chains.items()})
print(ch_g_closed(g_small, 5).summary())

print()
print("== the twisted family on the six-point circle ==")
M = discrete_circle(6, seed=0)
g = circle_loop_element(M.alg, eps=0.10, seed=7)
tf = twisted_family(M, g)
print(tf.report.summary())

print()
print("== perturbation series for the twisted heat operator ==")
for s in (0.5, 1.0):
    series, tail = perturbation_series(tf, s, 1.0, 14)
    direct = expm(-(tf.Q_s(s) @ tf.Q_s(s)))
    print(f"s = {s}: |series - exponential| = {np.max(np.abs(series - direct)):.2e}, "
          f"certified tail {tail:.1e}")
print(f"resummation identity residual (partition cap 3): "
      f"{partition_resum_check(tf, 0.8, 1.0, 3):.2e}")

print()
print("== the spectral-flow integral degenerates at finite dimension ==")
sf = sf_integral(tf, s_nodes=24)
print(f"direct quadrature: {abs(sf['direct']):.2e}   series route: {abs(sf['series']):.2e}")
print("(the endpoints are similar matrices, so the honest content is the")
print(" agreement of the independently computed degree series below)")

print()
print("== degree-by-degree pairing against the spectral-flow series ==")
rep = pairing(M, g, N_max=10)
print(f"{'N':>2} {'|pairing term|':>15} {'|sf term|':>15} {'residual':>10}")
for t in rep.terms:
    print(f"{t['N']:>2} {abs(t['pairing_term']):>15.3e} {abs(t['sf_term']):>15.3e} "
          f"{t['residual']:>10.1e}")
print(f"totals: pairing {abs(rep.pairing_total):.2e}, spectral flow {abs(rep.sf_direct):.2e}, "
      f"certified tail {rep.tail_bound:.1e}")
print(f"relative sign of the two series: {rep.term_sign:+.0f}")
print(rep.checks.summary())

print()
print("== crossing-count diagnostic on a generic Hermitian path ==")
rng = np.random.default_rng(9)
Q0 = rng.standard_normal((8, 8)); Q0 = 0.5 * (Q0 + Q0.T) + 0j
Q1 = rng.standard_normal((8, 8)); Q1 = 0.5 * (Q1 + Q1.T) + 0j
out = diagnostic_affine_sf(Q0, Q1)
print(f"integral = {out['integral'].real:.6f}, erf-telescoping oracle = {out['oracle']:.6f}")
print(f"integral / sqrt(pi) = {out['integral_over_sqrt_pi'].real:.4f} vs "
      f"crossings n_-(Q0) - n_-(Q1) = {out['crossings']} (reported, not asserted)")
