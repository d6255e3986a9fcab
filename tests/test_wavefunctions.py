import math
import warnings

import numpy as np
import pytest

from pdmdirac import (BetaMode, Grid, ModelParams, PoschlTellerSuperpotential,
                      RosenMorseSuperpotential, count_nodes, first_derivative,
                      gpt_state_evaluator, gpt_wavefunction, jacobi_derivative,
                      jacobi_eval, jacobi_eval_sum, jacobi_recurrence_degenerate,
                      ode_residual, partner_potentials,
                      rm2_exponents, rm2_state_evaluator, rm2_wavefunction)
from pdmdirac.errors import DomainError


def test_jacobi_degree_zero_and_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.uniform(-5, 5, 2)
        z = rng.uniform(-1, 1)
        assert jacobi_eval(0, a, b, z) == 1.0
        expected = 0.5 * ((a + b + 2.0) * z + (a - b))
        assert jacobi_eval(1, a, b, z) == pytest.approx(expected, rel=1e-15)


def test_jacobi_recurrence_vs_sum_oracle():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        a, b = rng.uniform(-5.0, 5.0, 2)
        z = rng.uniform(-1.0, 1.0)
        n = int(rng.integers(0, 11))
        r = jacobi_eval(n, a, b, z)
        s = jacobi_eval_sum(n, a, b, z)
        worst = max(worst, abs(r - s) / max(1.0, abs(s)))
    assert worst < 1e-9


def test_jacobi_degenerate_parameters_use_fallback():
    # a + b = -3 kills the k = 3 denominator; value must still be finite
    a, b = -1.0, -2.0
    assert jacobi_recurrence_degenerate(3, a, b)
    for z in (-0.7, 0.0, 0.4):
        v = jacobi_eval(3, a, b, z)
        assert math.isfinite(v)
        assert v == pytest.approx(jacobi_eval_sum(3, a, b, z), abs=1e-12)
    assert not jacobi_recurrence_degenerate(2, 1.0, 2.0)


def test_jacobi_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(50):
        a, b = rng.uniform(-4, 4, 2)
        z = rng.uniform(-0.9, 0.9)
        n = int(rng.integers(1, 8))
        fd = (jacobi_eval(n, a, b, z + h) - jacobi_eval(n, a, b, z - h)) / (2 * h)
        assert jacobi_derivative(n, a, b, z) == pytest.approx(fd, abs=1e-6 * (1 + abs(fd)))


def test_rm2_ground_state_ratio():
    v1, v2 = 20.0, -3.0
    c2 = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * v1))
    c1 = v2 / (2.0 * c2)
    phi, _ = rm2_state_evaluator(0, v1, v2)
    xs = np.linspace(-5, 5, 101)
    ratio = phi(xs) / (np.exp(-c1 * xs) * np.cosh(xs) ** (-c2))
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8


def test_rm2_tails_decay():
    grid = Grid(-15.0, 15.0, 3000)
    for n in (0, 1):
        st = rm2_wavefunction(n, 12.0, 1.0, grid)
        assert abs(st.samples[0]) < 1e-10
        assert abs(st.samples[-1]) < 1e-10


def test_rm2_state_past_the_range_of_the_exponential():
    # past |x| = 354.9 the direct forms' e^{2|x|} overflows; those rows take
    # the mirrored forms, so the state and its derivative stay finite with
    # no RuntimeWarning
    grid = Grid(-800.0, 800.0, 4000)
    _, dphi = rm2_state_evaluator(1, 12.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        st = rm2_wavefunction(1, 12.0, 1.0, grid)
        slope = dphi(grid.points)
    assert np.all(np.isfinite(st.samples)) and st.nodes == 1
    assert np.all(np.isfinite(slope))


def test_rm2_node_counts():
    grid = Grid(-15.0, 15.0, 3000)
    for n in (0, 1, 2):
        st = rm2_wavefunction(n, 12.0, 1.0, grid)
        assert st.nodes == n


def test_rm2_inadmissible_level_rejected():
    grid = Grid(-15.0, 15.0, 1000)
    with pytest.raises(ValueError, match="not admissible"):
        rm2_wavefunction(2, 6.0, 0.0, grid)  # C2 - 2 = 0
    with pytest.raises(ValueError, match="not admissible"):
        rm2_wavefunction(3, 12.0, 10.0, grid)  # decay margin fails


def test_rm2_exponents_reduce_to_ladder_constants():
    # -2r = (C2-n) - V2/(2(C2-n)), -2s = (C2-n) + V2/(2(C2-n))
    v1, v2, n = 20.0, -3.0, 2
    c2 = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * v1))
    r, s = rm2_exponents(n, v1, v2)
    assert -2 * r == pytest.approx((c2 - n) - v2 / (2 * (c2 - n)), rel=1e-13)
    assert -2 * s == pytest.approx((c2 - n) + v2 / (2 * (c2 - n)), rel=1e-13)


def test_gpt_boundary_value_vanishes():
    phi, _ = gpt_state_evaluator(0, 5.0, 1.5, 1.0)
    small = phi(np.array([1e-8, 1e-6, 1e-4]))
    assert np.all(np.abs(small) < 1e-5)
    assert abs(small[0]) < abs(small[2])
    with pytest.raises(DomainError):
        phi(-0.1)


def test_gpt_ground_state_ratio():
    a, b, c = 9.0, 3.0, 2.0
    phi, _ = gpt_state_evaluator(0, a, b, c)
    xs = np.linspace(0.05, 8.0, 101)
    ratio = phi(xs) / (np.cosh(c * xs) ** (-a / c) * np.sinh(c * xs) ** (b / c))
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8


def test_gpt_node_counts():
    a, b, c = 5.0, 1.5, 1.0
    grid = Grid(1e-3, 20.0, 3000)
    for n in (0, 1):
        st = gpt_wavefunction(n, a, b, c, grid)
        assert st.nodes == n
    # n = 2 is not normalizable here, but the closed form still has 2 nodes
    phi2, _ = gpt_state_evaluator(2, a, b, c)
    assert count_nodes(phi2(grid.points)) == 2


def test_gpt_inadmissible_level_rejected():
    grid = Grid(1e-3, 20.0, 1000)
    with pytest.raises(ValueError, match="not admissible"):
        gpt_wavefunction(2, 5.0, 1.5, 1.0, grid)


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_gpt_nonpositive_c_rejected(c):
    # c = 0 raised a bare ZeroDivisionError from the admissibility test
    grid = Grid(1e-3, 20.0, 1000)
    with pytest.raises(ValueError, match=f"c must be positive, got {c}"):
        gpt_wavefunction(0, 5.0, 1.5, c, grid)


@pytest.mark.parametrize("v1, v2, levels", [(12.0, 1.0, (0, 1, 2)),
                                            (20.0, -3.0, (0, 1, 2))])
def test_rm2_ode_residual(v1, v2, levels):
    from pdmdirac import rm2_solve

    w = rm2_solve(0.0, v1, v2, n_max=0).w
    grid = Grid(-15.0, 15.0, 6000)
    pot = lambda x: partner_potentials(w, x).v_minus
    for n in levels:
        st = rm2_wavefunction(n, v1, v2, grid)
        assert ode_residual(pot, st.e_bar, st.samples, grid) < 1e-6


@pytest.mark.parametrize("a, b, c, levels", [(5.0, 1.5, 1.0, (0, 1)),
                                             (9.0, 3.0, 2.0, (0, 1))])
def test_gpt_ode_residual(a, b, c, levels):
    w = PoschlTellerSuperpotential(a=a, b=b, c=c)
    grid = Grid(1e-3 / c, 20.0 / c, 6000)
    pot = lambda x: partner_potentials(w, x).v_minus
    for n in levels:
        st = gpt_wavefunction(n, a, b, c, grid)
        # the x^(B/c) boundary layer breaks the stencil order near the wall;
        # trim it (~x < 0.15/c) from the residual norm
        assert ode_residual(pot, st.e_bar, st.samples, grid, skip=45) < 1e-6


def test_rm2_polynomial_satisfies_transformed_ode():
    v1, v2 = 12.0, 1.0
    for n in (1, 2):
        r, s = rm2_exponents(n, v1, v2)
        a, b = -2.0 * r, -2.0 * s
        zs = np.linspace(-0.95, 0.95, 41)
        p = jacobi_eval(n, a, b, zs)
        dp = jacobi_derivative(n, a, b, zs)
        if n >= 2:
            d2p = 0.25 * (n + a + b + 1) * (n + a + b + 2) * jacobi_eval(
                n - 2, a + 2.0, b + 2.0, zs)
        else:
            d2p = np.zeros_like(zs)
        res = ((1.0 - zs ** 2) * d2p
               + (-2.0 * s + 2.0 * r - (2.0 - 2.0 * r - 2.0 * s) * zs) * dp
               + n * (n - 2.0 * r - 2.0 * s + 1.0) * p)
        assert np.max(np.abs(res) / (1.0 + np.abs(p))) < 1e-8


def test_gpt_polynomial_satisfies_transformed_ode():
    a, b, c = 9.0, 3.0, 2.0
    aj, bj = b / c - 0.5, -a / c - 0.5
    for n in (1, 2):
        ys = np.linspace(1.05, 40.0, 41)
        p = jacobi_eval(n, aj, bj, ys)
        dp = jacobi_derivative(n, aj, bj, ys)
        if n >= 2:
            d2p = 0.25 * (n + aj + bj + 1) * (n + aj + bj + 2) * jacobi_eval(
                n - 2, aj + 2.0, bj + 2.0, ys)
        else:
            d2p = np.zeros_like(ys)
        res = ((1.0 - ys ** 2) * d2p
               + (-(a + b) / c - ((b - a) / c + 1.0) * ys) * dp
               + n * (n + (b - a) / c) * p)
        assert np.max(np.abs(res) / (1.0 + np.abs(p))) < 1e-8


@pytest.mark.parametrize("a, b, c", [(12.0, 3.0, 1.0), (9.0, 3.0, 2.0), (5.0, 1.5, 1.0)])
def test_gpt_state_derivative_matches_finite_differences(a, b, c):
    grid = Grid(0.05 / c, 10.0 / c, 4000)
    for n in (0, 1, 2):
        phi, dphi = gpt_state_evaluator(n, a, b, c)
        exact = dphi(grid.points)
        numeric = first_derivative(phi(grid.points), grid.step)
        assert np.max(np.abs(numeric - exact)) < 2e-6 * np.max(np.abs(exact))


def test_orthogonality_rm2():
    grid = Grid(-15.0, 15.0, 4000)
    weights = grid.weights
    states = [rm2_wavefunction(n, 20.0, -3.0, grid).samples for n in range(3)]
    for m in range(3):
        assert np.sum(weights * states[m] ** 2) == pytest.approx(1.0, abs=1e-12)
        for n in range(m + 1, 3):
            assert abs(np.sum(weights * states[m] * states[n])) < 1e-6


def test_orthogonality_gpt():
    grid = Grid(1e-3, 20.0, 4000)
    weights = grid.weights
    states = [gpt_wavefunction(n, 12.0, 3.0, 1.0, grid).samples for n in range(3)]
    for m in range(3):
        for n in range(m + 1, 3):
            assert abs(np.sum(weights * states[m] * states[n])) < 1e-6


def test_rm2_with_spinor_factor():
    # m2*gamma > |m1 + beta*m2| keeps the mass positive on the whole line
    params = ModelParams(omega=3.0, alpha=0.5, gamma=1.0, beta=0.25,
                         m1=0.1, m2=1.2)
    grid = Grid(-15.0, 15.0, 2001)
    plain = rm2_wavefunction(1, 12.0, 1.0, grid)
    spinor = rm2_wavefunction(1, 12.0, 1.0, grid, spinor=params)
    mass = 1.2 * 1.0 + (0.1 + 0.25 * 1.2) * np.tanh(grid.points)
    recon = np.sqrt(mass) * plain.samples
    recon /= np.sqrt(np.sum(grid.weights * recon ** 2))
    assert np.max(np.abs(np.abs(recon) - np.abs(spinor.samples))) < 1e-10


def test_rm2_with_spinor_rejects_sign_changing_mass():
    params = ModelParams(omega=3.0, alpha=0.5, gamma=0.1, beta=6.0,
                         m1=0.0, m2=4.2145)
    grid = Grid(-15.0, 15.0, 1001)
    with pytest.raises(DomainError):
        rm2_wavefunction(0, 12.0, 1.0, grid, spinor=params)


def test_gpt_with_spinor_constant_factor():
    # mass-ratio beta makes the spinor factor a constant sqrt(m2*gamma)
    params = ModelParams(omega=3.0, alpha=0.5, gamma=0.7, beta=0.0,
                         m1=0.3, m2=1.4, beta_mode=BetaMode.MASS_RATIO)
    grid = Grid(1e-3, 20.0, 2001)
    plain = gpt_wavefunction(0, 5.0, 1.5, 1.0, grid)
    spinor = gpt_wavefunction(0, 5.0, 1.5, 1.0, grid, spinor=params)
    assert np.max(np.abs(plain.samples - spinor.samples)) < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_normalize_refuses_nonfinite_samples():
    # the far-field Poschl-Teller state overflows once cx passes about 355
    grid = Grid(1e-3, 400.0, 4000)
    raw = gpt_state_evaluator(1, 9.0, 1.5, 1.0)[0](grid.points)
    first = int(np.flatnonzero(~np.isfinite(raw))[0])
    with pytest.raises(OverflowError) as info:
        gpt_wavefunction(1, 9.0, 1.5, 1.0, grid)
    assert str(info.value) == (f"non-finite wavefunction sample at "
                               f"x = {float(grid.points[first])!r} (node {first})")
