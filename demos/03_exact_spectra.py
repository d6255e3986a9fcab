"""Exact shape-invariance spectra against the finite-difference oracle.

Both potential families factor through a superpotential whose partner
potentials differ by a parameter shift plus a constant; telescoping those
constants gives every level in closed form.  An independent Sturm-sequence
eigensolver on a 6000-point grid confirms the ladders.
"""

import numpy as np

from pdmdirac import (Grid, discretize_and_solve, gpt_solve,
                      partner_potentials, rm2_solve)

print("=== hyperbolic Rosen-Morse wells: V0 - V1 sech^2 x + V2 tanh x ===")
for v1, v2 in ((6.0, 0.0), (12.0, 2.0), (20.0, -3.0)):
    sol = rm2_solve(0.0, v1, v2, n_max=5)
    admissible = sol.spectrum.admissible()
    grid = Grid(-15.0, 15.0, 6000)
    fd = discretize_and_solve(lambda x: partner_potentials(sol.w, x).v_minus,
                              grid, len(admissible), eigenvectors=False)
    print(f"V1 = {v1}, V2 = {v2}: C1 = {sol.w.c1:+.4f}, C2 = {sol.w.c2:.4f} "
          f"({len(admissible)} bound levels)")
    print(f"  {'n':>2} {'exact ladder':>16} {'eigensolver':>16} {'difference':>12}")
    for lv, lam in zip(admissible, fd.eigenvalues):
        print(f"  {lv.n:>2} {lv.e_bar:16.8f} {lam:16.8f} {lv.e_bar - lam:12.2e}")
print()

print("=== generalized Poschl-Teller wells on the half line ===")
for a, b, c in ((5.0, 1.5, 1.0), (9.0, 3.0, 2.0)):
    sol = gpt_solve(a, b, c, n_max=5)
    admissible = sol.spectrum.admissible()
    grid = Grid(1e-3 / c, 20.0 / c, 6000)
    fd = discretize_and_solve(lambda x: partner_potentials(sol.w, x).v_minus,
                              grid, len(admissible), eigenvectors=False)
    print(f"A = {a}, B = {b}, c = {c}: {len(admissible)} bound levels")
    print(f"  {'n':>2} {'exact ladder':>16} {'eigensolver':>16} {'difference':>12}")
    for lv, lam in zip(admissible, fd.eigenvalues):
        print(f"  {lv.n:>2} {lv.e_bar:16.8f} {lam:16.8f} {lv.e_bar - lam:12.2e}")
print()

print("=== partner degeneracy: spectrum of v_plus vs v_minus shifted by one ===")
sol = rm2_solve(0.0, 20.0, -3.0, n_max=3)
grid = Grid(-15.0, 15.0, 6000)
minus = discretize_and_solve(lambda x: partner_potentials(sol.w, x).v_minus,
                             grid, 3, eigenvectors=False)
plus = discretize_and_solve(lambda x: partner_potentials(sol.w, x).v_plus,
                            grid, 2, eigenvectors=False)
for j in range(2):
    print(f"  v_plus level {j} = {plus.eigenvalues[j]:12.6f}   "
          f"v_minus level {j + 1} = {minus.eigenvalues[j + 1]:12.6f}")
