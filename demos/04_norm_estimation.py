"""Sandwich-certified norm estimation in the deformed algebra.

The deformed C*-norm of a trig polynomial is bracketed by the l2 and
l1 norms of its coefficients; the working estimate in between is the
top singular value of the left-multiplication operator compressed to a
finite mode window -- a certified lower bound that only grows with the
window.  An element whose modes lie on one line needs no window: its
norm is the sup of a 1-D symbol.  At hbar = 0 the norm is simply the
sup of |f| on the torus, which makes a nice end-to-end check.

Run:  python3 demos/04_norm_estimation.py
"""

import numpy as np

from nctorus import FourierElement, SymplecticStructure, op_norm_estimate

e = FourierElement.character
J = SymplecticStructure.standard()

print("== a single character is unitary ==")
est = op_norm_estimate(e((3, -2)), 0.3, J, window=8)
print(f"  l2 {est.lower_l2:.3f} <= op {est.op_lower:.6f} <= l1 {est.upper_l1:.3f}")

print("\n== U + V + U* + V*: the norm moves with hbar ==")
f = e((1, 0)) + e((0, 1)) + e((-1, 0)) + e((0, -1))
for hbar in (0.0, 0.1, 0.25, 0.5):
    est = op_norm_estimate(f, hbar, J, window=24)
    print(
        f"  hbar={hbar:<5} l2 {est.lower_l2:.3f} <= op {est.op_lower:.4f} "
        f"<= l1 {est.upper_l1:.3f}  ({est.iterations} iterations)"
    )
print("  at hbar=0 the norm is sup|2cos + 2cos| = 4; deformation shrinks it")

print("\n== one row of modes: the sup of a 1-D symbol, the same for every hbar ==")
# 0.5 e(-1,1) + e(0,1) + 0.5 e(1,1) = (1 + cos 2 pi x) e(y): every mode has
# p2 = 1, so the element is a(U) V with V unitary, and its norm is
# sup|1 + cos| = 2 whatever hbar and the window; one FFT samples that sup
row = 0.5 * e((-1, 1)) + e((0, 1)) + 0.5 * e((1, 1))
for hbar in (0.0, 0.1, 0.25):
    est = op_norm_estimate(row, hbar, J, window=8)
    print(f"  hbar={hbar:<5} op {est.op_lower:.10f}  ({est.iterations} iterations)")

print("\n== the estimate is monotone in the window ==")
rng = np.random.default_rng(5)
modes = rng.integers(-2, 3, size=(4, 2))
coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
g = FourierElement(2, zip(map(tuple, modes.tolist()), coeffs))
for W in (4, 8, 16, 32):
    est = op_norm_estimate(g, 0.17, J, window=W)
    print(f"  window {W:>2}: op_lower = {est.op_lower:.8f}")

print("\n== hbar = 0 cross-check against the grid sup ==")
d = {}
srng = np.random.default_rng(1)
for p1 in range(-4, 5):
    for p2 in range(-4, 5):
        amp = 2.0 ** (-max(abs(p1), abs(p2)))
        d[(p1, p2)] = amp * (srng.standard_normal() + 1j * srng.standard_normal())
h = FourierElement(2, d)
est = op_norm_estimate(h, 0.0, J, window=32)
grid = np.arange(512) / 512
mesh = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
sup = float(np.abs(h.eval_at(mesh)).max())
print(f"  op_lower {est.op_lower:.6f} vs grid sup {sup:.6f} "
      f"(relative gap {abs(est.op_lower - sup) / sup:.2%})")
