import math
import sys
import threading
import warnings

import numpy as np
import pytest

from pdmdirac import (BetaMode, Grid, ModelParams, PoschlTellerSuperpotential,
                      RosenMorseSuperpotential, count_nodes, first_derivative,
                      gpt_state_evaluator, gpt_wavefunction, jacobi_derivative,
                      jacobi_eval, jacobi_eval_sum, jacobi_recurrence_degenerate,
                      ode_residual, partner_potentials, quadrature_norm,
                      rm2_exponents, rm2_state_evaluator, rm2_wavefunction)
from pdmdirac import (cancellation_residual, complete_potential, dirac, dirac_profiles,
                      effective_potential_ansatz, effective_potential_general,
                      gpt_solve, gpt_solve_from_params, hermitian_coeffs, model,
                      nonhermitian_coeffs, numerics, profile_from_params, rho_weight,
                      rm2_solve_from_params, schrodinger_potential, susy,
                      wavefunctions)
from pdmdirac.errors import DomainError
from pdmdirac.numerics import normalize


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


@pytest.mark.parametrize("entry", [
    lambda c: gpt_solve(5.0, 1.5, c),
    lambda c: gpt_state_evaluator(0, 5.0, 1.5, c),
    lambda c: gpt_wavefunction(0, 5.0, 1.5, c, Grid(1e-3, 20.0, 1000)),
], ids=["gpt_solve", "gpt_state_evaluator", "gpt_wavefunction"])
@pytest.mark.parametrize("c", [0.0, -1.0])
def test_gpt_nonpositive_c_rejected(c, entry):
    # c = 0 raised a bare ZeroDivisionError, from the admissibility test or
    # from the exponents b/c - 1/2 and -a/c - 1/2; c = -1 gave finite samples
    with pytest.raises(ValueError, match=f"c must be positive, got {c}"):
        entry(c)


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


def test_normalize_refuses_nonfinite_samples():
    # m2 * gamma overflows, so the mass is infinite, made NaN, and every
    # sample is NaN
    params = ModelParams(omega=3.0, alpha=0.5, gamma=10.0, beta=0.0, m1=0.1, m2=1e308)
    grid = Grid(1e-3, 20.0, 4000)
    with pytest.raises(OverflowError) as info:
        gpt_wavefunction(1, 9.0, 1.5, 1.0, grid, spinor=params)
    assert str(info.value) == (f"non-finite wavefunction sample at "
                               f"x = {float(grid.points[0])!r} (node 0)")


def _spinor(**kw):
    return ModelParams(**{**dict(omega=3.0, alpha=0.5, gamma=10.0, beta=0.25,
                                 m1=0.1, m2=1e308), **kw})


@pytest.mark.parametrize("make, args, grid, spinor", [
    # 2c (m1 + beta m2) csch(2cx) overflows, and m2 gamma is inf: inf - inf
    (gpt_wavefunction, (1, 9.0, 1.5, 1.0), Grid(1e-3, 20.0, 6000), _spinor()),
    # m2 gamma is inf, and phi underflows to 0 far out: sqrt(M) phi is not
    # inf * 0 there
    (gpt_wavefunction, (1, 9.0, 2.5, 1.0), Grid(1e-3, 800.0, 4000), _spinor(beta=0.0)),
    # m2 gamma + (m1 + beta m2) tanh x as inf - inf on the left half
    (rm2_wavefunction, (1, 12.0, 1.0), Grid(-15.0, 15.0, 6000), _spinor(beta=10.0)),
    # 2cx below 5.6e-17 on every node, where the log-space prefactor would
    # take log1p(-1)
    (gpt_wavefunction, (3, 44.4239, 1e-12, 2.23e-231), Grid(0.001, 153.0, 400), None),
    # the Jacobi recurrence overflows at exponents of order 1e81
    (rm2_wavefunction, (3, 5.33e162, 1e6), Grid(-1.539, 3.09, 400), None),
], ids=["gpt-spinor-mass", "gpt-spinor-mass-far", "rm2-spinor-mass", "gpt-tiny-c",
        "rm2-huge-v1"])
def test_overflowing_state_is_refused_without_a_warning(make, args, grid, spinor):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as info:
            make(*args, grid, spinor=spinor)
    assert str(info.value) == (f"non-finite wavefunction sample at "
                               f"x = {float(grid.points[0])!r} (node 0)")


@pytest.mark.parametrize("family", ["cosh", "coth"])
def test_spinor_states_keep_the_bits_of_the_mass_expression(family):
    # the overflow handling leaves every finite mass row as it was
    params = _spinor(gamma=100.0, m2=1.2)
    cross = params.m1 + params.beta_effective * params.m2
    if family == "cosh":
        grid = Grid(-15.0, 15.0, 2001)
        phi, _ = rm2_state_evaluator(1, 12.0, 1.0)
        mass = params.m2 * params.gamma + cross * np.tanh(grid.points)
        got = rm2_wavefunction(1, 12.0, 1.0, grid, spinor=params)
    else:
        grid = Grid(1e-3, 20.0, 2001)
        phi, _ = gpt_state_evaluator(1, 9.0, 1.5, 1.0)
        u = 2.0 * grid.points
        mass = params.m2 * params.gamma - 2.0 * cross * (
            2.0 * np.exp(-u) / (1.0 - np.exp(-2.0 * u)))
        got = gpt_wavefunction(1, 9.0, 1.5, 1.0, grid, spinor=params)
    assert (got.samples.tobytes()
            == normalize(np.sqrt(mass) * phi(grid.points), grid).tobytes())


# (n, A, B, c) of Poschl-Teller states and the far end of their grids:
# past cx = 355 the direct forms overflow, and for (1, 3.02, 1, 1) the cosh
# factor leaves the normal range at cx = 235, where the state is still 7e-3
_FAR_STATES = [((1, 9.0, 1.5, 1.0), 400.0), ((1, 9.0, 2.5, 1.0), 800.0),
               ((0, 9.0, 2.5, 1.0), 800.0), ((2, 12.0, 2.5, 0.5), 1600.0),
               ((1, 3.02, 1.0, 1.0), 2000.0)]


@pytest.mark.parametrize("state, x_max", _FAR_STATES)
def test_gpt_far_field_state_is_finite_normalized_with_n_nodes(state, x_max):
    n = state[0]
    grid = Grid(1e-3, x_max, 4000)
    _, dphi = gpt_state_evaluator(*state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = gpt_wavefunction(*state, grid)
        slope = dphi(grid.points)
    assert np.all(np.isfinite(st.samples)) and np.all(np.isfinite(slope))
    assert st.nodes == n
    assert abs(quadrature_norm(st.samples, grid) - 1.0) < 1e-12


@pytest.mark.parametrize("state", [(1, 3.02, 1.0, 1.0), (0, 2.05, 2.0, 1.0),
                                   (2, 5.1, 1.0, 1.0), (1, 1.52, 0.5, 0.5)])
def test_gpt_far_field_forms_continue_the_direct_forms(state):
    # phi and phi' decay as e^{-kx}, k = A - B - 2cn, up to terms of order
    # e^{-2cx}: from x = 30/c on, phi e^{kx} and phi' e^{kx} are constant
    # across the switch to the log-space forms; a slow decay keeps them
    # representable on both sides of it
    n, a, b, c = state
    k = a - b - 2.0 * c * n
    x = np.linspace(30.0 / c, 800.0 / c, 3000)
    phi, dphi = gpt_state_evaluator(*state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = phi(x) * np.exp(k * x)
        slope = dphi(x) * np.exp(k * x)
    assert np.max(np.abs(scaled / scaled[-1] - 1.0)) < 1e-12
    assert np.max(np.abs(slope / (-k * scaled) - 1.0)) < 1e-12
    # a scalar call takes the same forms
    assert phi(float(x[-1])) * np.exp(k * x[-1]) == pytest.approx(scaled[-1], rel=1e-14)


def _former_gpt_state(n, a, b, c, x):
    """phi and phi' of levels n <= 2 by the former expressions: the direct
    prefactor and the plain three-term recurrence."""
    def poly(m, p, q, y):
        prev, cur = np.ones_like(y), 0.5 * ((p + q + 2.0) * y + (p - q))
        if m == 0:
            return prev
        for k in range(2, m + 1):
            s = 2.0 * k + p + q
            t1 = (s - 1.0) * ((s * (s - 2.0)) * y + (p * p - q * q))
            t2 = 2.0 * (k + p - 1.0) * (k + q - 1.0) * s
            cur, prev = (t1 * cur - t2 * prev) / (2.0 * k * (k + p + q) * (s - 2.0)), cur
        return cur

    aj, bj = b / c - 0.5, -a / c - 0.5
    u = c * x
    pref = ((2.0 * np.sinh(u) ** 2) ** (b / (2.0 * c))
            * (2.0 * np.cosh(u) ** 2) ** (-a / (2.0 * c)))
    y = np.cosh(2.0 * u)
    dpoly = (0.5 * (n + aj + bj + 1.0) * poly(n - 1, aj + 1.0, bj + 1.0, y) if n
             else np.zeros_like(y))
    log_slope = b / np.tanh(u) - a * np.tanh(u)
    return (pref * poly(n, aj, bj, y),
            pref * (log_slope * poly(n, aj, bj, y) + 2.0 * c * np.sinh(2.0 * u) * dpoly))


def test_gpt_states_keep_their_bits_where_the_direct_forms_hold():
    # levels 0-2 of (9, 2.5, 1): the normalized states on (1e-3, 20, 6000),
    # and phi and phi' out to x = 60, where the direct forms still hold
    for n in range(3):
        grid = Grid(1e-3, 20.0, 6000)
        former = _former_gpt_state(n, 9.0, 2.5, 1.0, grid.points)[0]
        assert (gpt_wavefunction(n, 9.0, 2.5, 1.0, grid).samples.tobytes()
                == normalize(former, grid).tobytes())
        phi, dphi = gpt_state_evaluator(n, 9.0, 2.5, 1.0)
        x = Grid(1e-3, 60.0, 6000).points
        assert [phi(x).tobytes(), dphi(x).tobytes()] == [
            arr.tobytes() for arr in _former_gpt_state(n, 9.0, 2.5, 1.0, x)]


@pytest.fixture
def factor_spy(monkeypatch, empty_memos):
    """An empty memo store, and the list of (name, x) each state factor
    computation samples."""
    computed = []
    for name in ("_rm2_factors", "_gpt_factors"):
        original = getattr(wavefunctions, name)

        def spy(*args, _name=name, _original=original):
            computed.append((_name, args[-1]))
            return _original(*args)

        monkeypatch.setattr(wavefunctions, name, spy)
    return computed


def test_level_independent_factors_are_computed_once_per_family_and_grid(factor_spy):
    line, half = Grid(-15.0, 15.0, 6000), Grid(1e-3, 20.0, 6000)
    rm = [rm2_wavefunction(n, 12.0, 1.0, line).samples for n in range(3)]
    pt = [gpt_wavefunction(n, 9.0, 2.5, 1.0, half).samples for n in range(3)]
    assert [name for name, _ in factor_spy] == ["_rm2_factors", "_gpt_factors"]
    # each family keeps its own memo name, so alternating them misses neither
    rm2_wavefunction(2, 12.0, 1.0, line), gpt_wavefunction(2, 9.0, 2.5, 1.0, half)
    assert len(factor_spy) == 2
    # another grid of the same size, and other constants, miss
    rm2_wavefunction(0, 12.0, 1.0, Grid(-14.0, 14.0, 6000))
    gpt_wavefunction(0, 9.5, 2.5, 1.0, half)
    assert len(factor_spy) == 4
    # the stored factors are read-only; the states are the bits of fresh factors
    for name in ("rm2_factors", "gpt_factors"):
        (_, factors), = numerics._memos[name]
        for arr in factors:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        del numerics._memos[name]
    for n in range(3):
        assert rm2_wavefunction(n, 12.0, 1.0, line).samples.tobytes() == rm[n].tobytes()
        assert gpt_wavefunction(n, 9.0, 2.5, 1.0, half).samples.tobytes() == pt[n].tobytes()


def _with(x, i, value):
    x = x.copy()
    x[i] = value
    return x


_NODES = np.linspace(0.5, 2.5, 10)


@pytest.mark.parametrize("first, second", [
    # (A, B, c, x) of two calls of the Poschl-Teller factors
    ((0.0, 2.5, 1.0, _NODES), (-0.0, 2.5, 1.0, _NODES)),
    ((9.0, 0.0, 1.0, _NODES), (9.0, -0.0, 1.0, _NODES)),
    ((9.0, 2.5, 1.0, _NODES), (9.0, 2.5, 1.0, _with(_NODES, 3, np.nan))),
    ((9.0, 2.5, 1.0, _NODES), (9.0, 2.5, 1.0, _NODES.reshape(2, -1))),
    ((9.0, 2.5, 1.0, Grid(1e-3, 20.0, 600).points),
     (9.0, 2.5, 1.0, Grid(1e-3, 19.0, 600).points)),
], ids=["negative-zero-A", "negative-zero-B", "nan-x", "reshape", "other-grid"])
def test_gpt_factor_memo_misses_on_any_other_bits(first, second, factor_spy):
    for a, b, c, x in (first, second):
        phi, dphi = gpt_state_evaluator(0, a, b, c)
        got = phi(x), dphi(x)
    assert len(factor_spy) == 2
    del numerics._memos["gpt_factors"]
    assert [arr.tobytes() for arr in got] == [phi(x).tobytes(), dphi(x).tobytes()]


@pytest.mark.parametrize("first, second", [
    (np.array([0.0, 1.0, 2.0]), np.array([-0.0, 1.0, 2.0])),
    (_NODES, _NODES.reshape(2, -1)),
    (Grid(-15.0, 15.0, 600).points, Grid(-14.0, 14.0, 600).points),
], ids=["negative-zero-x", "reshape", "other-grid"])
def test_rm2_factor_memo_misses_on_any_other_bits(first, second, factor_spy):
    _, dphi = rm2_state_evaluator(1, 12.0, 1.0)
    for x in (first, second):
        got = dphi(x)
    assert len(factor_spy) == 2
    del numerics._memos["rm2_factors"]
    assert got.tobytes() == dphi(second).tobytes()


def test_state_factor_memo_hits_equal_bits_and_misses_an_array_changed_in_place(factor_spy):
    phi, _ = rm2_state_evaluator(1, 12.0, 1.0)
    x = np.array([np.nan, -1.0, 0.0, 1.0])
    phi(x), phi(x.copy())  # equal bits, a NaN node among them: one computation
    assert len(factor_spy) == 1
    x[1] = -2.0  # a writable array is keyed by its bits, not its identity
    got = phi(x)
    assert len(factor_spy) == 2
    assert got[1] == pytest.approx(phi(np.array([-2.0]))[0], rel=1e-12)
    # a read-only view of a writable array may change through its base
    base = np.linspace(-1.0, 1.0, 8)
    view = base[:]
    view.flags.writeable = False
    phi(view)
    base[0] = -3.0
    assert phi(view)[0] == pytest.approx(phi(np.array([-3.0]))[0], rel=1e-12)


def _states_chain(params, family, grid, e_ref=1.2, epsilon=0.3):
    """One family through the paper's chain, as the states benchmark runs
    it: every array output, in order."""
    prof = profile_from_params(params, family)
    x = grid.points
    out = []
    for coeffs in (nonhermitian_coeffs(params, prof), hermitian_coeffs(params, prof)):
        out += [coeffs.c2(x), coeffs.c1(x), coeffs.c0(x)]
    out.append(rho_weight(params, prof, x))
    out += [schrodinger_potential(params, prof, epsilon, x, form=form)
            for form in ("generic", "ansatz")]
    mass, v_r = dirac_profiles(params, prof, e_ref)
    pot = complete_potential(mass, v_r.v, v_r.dv, e_ref)
    out += [pot.v_i(x), cancellation_residual(mass, v_r, pot.v_i, e_ref, x),
            effective_potential_general(mass, v_r, e_ref, x),
            effective_potential_ansatz(params, prof, e_ref, x)]
    if family == "cosh":
        sol = rm2_solve_from_params(params, n_max=2)
        states = [rm2_wavefunction(n, sol.coeffs.v1, sol.coeffs.v2, grid) for n in range(3)]
    else:
        sol = gpt_solve_from_params(params, n_max=2)
        states = [gpt_wavefunction(n, sol.w.a, sol.w.b, sol.w.c, grid) for n in range(3)]
    potential = lambda nodes: partner_potentials(sol.w, nodes).v_minus
    skip = 0 if family == "cosh" else 45
    out += [st.samples for st in states]
    out.append(np.array([ode_residual(potential, st.e_bar, st.samples, grid, skip=skip)
                         for st in states]))
    return [np.asarray(arr) for arr in out]


def test_states_chain_gives_the_same_bytes_with_every_memo_lookup_a_miss(monkeypatch):
    cosh = ModelParams(omega=3.0, alpha=0.5, gamma=0.5, beta=-0.9, m1=0.35, m2=0.5)
    coth = ModelParams(omega=3.0, alpha=0.5, gamma=3.5, beta=-0.5, m1=0.3, m2=2.0)
    line, half = Grid(-15.0, 15.0, 6000), Grid(1e-3, 20.0, 6000)
    runs = []
    for forced_miss in (False, True):
        if forced_miss:
            for module in (model, dirac, susy, wavefunctions):
                # a fresh object() key equals no stored one
                monkeypatch.setattr(module, "_memoized",
                                    lambda name, key, compute, *args, **kwargs:
                                    numerics._memoized(name, object(), compute,
                                                       *args, **kwargs))
        runs.append([arr.tobytes() for arr in _states_chain(cosh, "cosh", line)
                     + _states_chain(coth, "coth", half)])
    assert runs[0] == runs[1]


def _stored_nbytes(obj, seen):
    # the bytes of the arrays and key copies in obj, each object counted once
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, tuple):
        return sum(_stored_nbytes(part, seen) for part in obj)
    return 0


def test_memo_store_stays_bounded_over_repeated_chains(empty_memos):
    cosh = ModelParams(omega=3.0, alpha=0.5, gamma=0.5, beta=-0.9, m1=0.35, m2=0.5)
    coth = ModelParams(omega=3.0, alpha=0.5, gamma=3.5, beta=-0.5, m1=0.3, m2=2.0)
    line, half = Grid(-15.0, 15.0, 6000), Grid(1e-3, 20.0, 6000)
    for _ in range(2):
        _states_chain(cosh, "cosh", line)
        _states_chain(coth, "coth", half)
    counts = {name: len(entries) for name, entries in numerics._memos.items()}
    assert counts == {"grid": 2, "profile": 1, "m": 1, "dm": 1, "v": 1, "dv": 1,
                      "d2v": 1, "rm2_factors": 1, "gpt_factors": 1, "partners": 1}
    # the figure the README states: about 1.104 MB at 6000 points
    assert _stored_nbytes(tuple(numerics._memos.values()), set()) <= 1.104e6


def test_state_and_partner_memos_under_threads_give_the_bits_of_fresh_calls():
    # more threads than cores, switching often, every thread on the same
    # grid in a round and the grids alternating: an entry that paired one
    # key with another call's arrays would hand them to the threads that hit
    grids = {"cosh": (Grid(-15.0, 15.0, 400), Grid(-14.0, 14.0, 400)),
             "coth": (Grid(1e-3, 20.0, 400), Grid(2e-3, 18.0, 400))}
    evaluators = {"cosh": [rm2_state_evaluator(n, 12.0, 1.0)[0] for n in range(3)],
                  "coth": [gpt_state_evaluator(n, 9.0, 2.5, 1.0)[0] for n in range(3)]}
    w = {"cosh": RosenMorseSuperpotential(c1=1.0 / 6.0, c2=3.0),
         "coth": PoschlTellerSuperpotential(a=9.0, b=2.5, c=1.0)}

    def outputs(family, grid):
        x = grid.points
        return ([phi(x).tobytes() for phi in evaluators[family]]
                + [partner_potentials(w[family], x[2:-2]).v_minus.tobytes()])

    expected = {(f, g): outputs(f, g) for f in grids for g in grids[f]}
    n_threads, rounds = 8, 100
    barrier = threading.Barrier(n_threads, timeout=30.0)
    failures = []

    def work():
        try:
            for i in range(rounds):
                barrier.wait()
                family = ("cosh", "coth")[i // 2 % 2]
                grid = grids[family][i % 2]
                if outputs(family, grid) != expected[family, grid]:
                    failures.append(i)
        except Exception as exc:  # recorded, then asserted on below
            failures.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
