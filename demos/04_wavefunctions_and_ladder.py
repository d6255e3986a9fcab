"""Closed-form bound states, node counts and the operator ladder.

Each level-n state is a Jacobi polynomial at generally non-integer negative
superscripts times exponential/hyperbolic prefactors.  The same states are
rebuilt here by applying the raising operator -d/dx + W numerically to the
shifted ground state; the two constructions overlap to better than 1e-10.
"""

import numpy as np

from pdmdirac import (Grid, PoschlTellerSuperpotential, gpt_wavefunction,
                      jacobi_eval, ladder_state, ode_residual,
                      partner_potentials, rm2_solve, rm2_wavefunction)

print("Jacobi values at general parameters, recurrence vs explicit sum:")
for (n, a, b, z) in ((3, -2.3, 1.7, 0.4), (5, -4.1, -0.9, -0.6), (8, 2.2, -3.3, 0.9)):
    from pdmdirac import jacobi_eval_sum
    r, s = jacobi_eval(n, a, b, z), jacobi_eval_sum(n, a, b, z)
    print(f"  P_{n}^({a},{b})({z}) = {r:.12f}  (sum route {s:.12f})")
print()

v1, v2 = 20.0, -3.0
sol = rm2_solve(0.0, v1, v2, n_max=3)
grid = Grid(-15.0, 15.0, 6000)
weights = grid.weights
pot = lambda x: partner_potentials(sol.w, x).v_minus

print(f"Rosen-Morse V1 = {v1}, V2 = {v2}:")
print(f"  {'n':>2} {'ladder energy':>14} {'nodes':>6} {'ODE residual':>13} {'ladder overlap':>15}")
for n in range(3):
    st = rm2_wavefunction(n, v1, v2, grid)
    res = ode_residual(pot, st.e_bar, st.samples, grid)
    lad = ladder_state(sol.w, n, grid)
    overlap = abs(float(np.sum(weights * lad * st.samples)))
    print(f"  {n:>2} {st.e_bar:14.6f} {st.nodes:>6} {res:13.2e} {overlap:15.12f}")
print()

a, b, c = 12.0, 3.0, 1.0
w = PoschlTellerSuperpotential(a=a, b=b, c=c)
gridg = Grid(1e-3, 20.0, 6000)
weightsg = gridg.weights
potg = lambda x: partner_potentials(w, x).v_minus

print(f"Poschl-Teller A = {a}, B = {b}, c = {c}:")
print(f"  {'n':>2} {'ladder energy':>14} {'nodes':>6} {'ODE residual':>13} {'ladder overlap':>15}")
for n in range(4):
    st = gpt_wavefunction(n, a, b, c, gridg)
    # the x^(B/c) wall breaks the stencil order below x ~ 0.15; trim it
    res = ode_residual(potg, st.e_bar, st.samples, gridg, skip=45)
    lad = ladder_state(w, n, gridg)
    overlap = abs(float(np.sum(weightsg * lad * st.samples)))
    print(f"  {n:>2} {st.e_bar:14.6f} {st.nodes:>6} {res:13.2e} {overlap:15.12f}")
print()

print("orthogonality of distinct Rosen-Morse levels:")
states = [rm2_wavefunction(n, v1, v2, grid).samples for n in range(3)]
for m in range(3):
    row = [float(np.sum(weights * states[m] * states[n])) for n in range(3)]
    print("  " + "  ".join(f"{v:+.2e}" for v in row))
