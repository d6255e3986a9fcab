import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdirac import (BetaMode, CoshProfile, CothProfile, ModelParams,
                      derived_constants, evaluate_profile,
                      m1_linear_constraint, profile_from_params, sigma_of)
from pdmdirac.errors import DomainError
from pdmdirac.susy import square


def test_cosh_profile_at_origin():
    p = evaluate_profile(CoshProfile(delta=1.0, gamma=0.1, beta=0.5), 0.0)
    assert p.a == 1.0
    assert p.a1 == 0.0
    assert p.a2 == 1.0
    assert p.b == 0.1
    assert p.b1 == 0.5


def test_coth_profile_asymptote():
    p = evaluate_profile(CothProfile(delta=1.0, c=1.0), 40.0)
    assert abs(p.a - 1.0) < 1e-12
    assert abs(p.a1) < 1e-12


@pytest.mark.parametrize("profile, lo, hi", [
    (CoshProfile(delta=2.0, gamma=0.3, beta=-0.4), -3.0, 3.0),
    (CothProfile(delta=1.5, c=0.8, gamma=0.2, beta=0.6), 0.2, 5.0),
])
def test_profile_derivatives_match_finite_differences(profile, lo, hi):
    rng = np.random.default_rng(42)
    xs = rng.uniform(lo, hi, 200)
    h = 1e-4
    p = evaluate_profile(profile, xs)
    fd1 = (evaluate_profile(profile, xs + h).a
           - evaluate_profile(profile, xs - h).a) / (2 * h)
    fd2 = (evaluate_profile(profile, xs + h).a1
           - evaluate_profile(profile, xs - h).a1) / (2 * h)
    assert np.max(np.abs(p.a1 - fd1) / (1 + np.abs(fd1))) < 1e-6
    assert np.max(np.abs(p.a2 - fd2) / (1 + np.abs(fd2))) < 1e-6


def test_b_is_bitwise_gamma_a_plus_beta_a1():
    prof = CoshProfile(delta=1.3, gamma=0.21, beta=-0.7)
    xs = np.linspace(-4, 4, 57)
    p = evaluate_profile(prof, xs)
    assert np.array_equal(p.b, prof.gamma * p.a + prof.beta * p.a1)
    assert np.array_equal(p.b1, prof.gamma * p.a1 + prof.beta * p.a2)


def test_cosh_overflow_reports_threshold():
    with pytest.raises(OverflowError, match="700"):
        evaluate_profile(CoshProfile(), 701.0)


@pytest.mark.parametrize("x", [-1.0, 0.0])
def test_coth_domain_error(x):
    with pytest.raises(DomainError):
        evaluate_profile(CothProfile(), x)


def test_derived_constants_omega3_alpha2():
    sol = derived_constants(3.0, 2.0, 0.1, 2.0, BetaMode.COUPLING)
    assert sol.sigma == pytest.approx(25.0 / 9.0, rel=1e-15)
    assert sol.beta == pytest.approx(-1.0 / 6.0, rel=1e-15)


def test_hermitian_limit():
    sol = derived_constants(5.0, 0.0, 0.3, 1.0, BetaMode.COUPLING)
    assert sol.sigma == 1.0
    assert sol.beta == 0.5


def test_gamma_zero_kills_epsilon_and_fixes_energy():
    sol = derived_constants(3.0, 1.0, 0.0, 2.0, BetaMode.COUPLING)
    assert sol.epsilon == 0.0
    assert sol.e_squared == 1.5


def test_m1_branches_absent_for_negative_radicand():
    # radicand = 9*(1 + 1/9) - 24 = -14
    sol = derived_constants(3.0, 2.0, 0.1, 2.0, BetaMode.LITERAL, beta=-1.0 / 6.0)
    assert sol.m1_plus is None
    assert sol.m1_minus is None
    assert not sol.has_m1


def test_m1_roots_solve_their_quadratic():
    # both branches satisfy m1*(m1 + beta*m2) = 1/4 - alpha/omega exactly
    sol = derived_constants(3.0, 0.5, 0.1, 2.0, BetaMode.COUPLING)
    target = 0.25 - 0.5 / 3.0
    for root in (sol.m1_plus, sol.m1_minus):
        assert root is not None
        assert root * (root + sol.beta * 2.0) == pytest.approx(target, rel=1e-12)


def test_m1_linear_constraint_closure():
    omega, alpha, beta, m2 = 3.0, 0.5, 1.0 / 3.0, 2.0
    m1 = m1_linear_constraint(omega, alpha, beta, m2)
    sigma = sigma_of(omega, alpha)
    assert m2 * (m1 + beta * m2) == pytest.approx(sigma * beta - 1.0, rel=1e-12)


@given(omega=st.floats(0.1, 50.0), alpha=st.floats(-10.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_sigma_at_least_one(omega, alpha):
    s = sigma_of(omega, alpha)
    assert s >= 1.0
    if alpha == 0.0:
        assert s == 1.0
    elif abs(alpha) > 1e-6 * omega:  # strict gap only above float granularity
        assert s > 1.0


@given(x=st.floats(-3.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_cosh_derivatives_consistent_everywhere(x):
    prof = CoshProfile(delta=2.0)
    h = 1e-4
    p = evaluate_profile(prof, x)
    fd1 = (evaluate_profile(prof, x + h).a - evaluate_profile(prof, x - h).a) / (2 * h)
    assert abs(p.a1 - fd1) / (1 + abs(fd1)) < 1e-6


@pytest.mark.parametrize("kwargs", [
    dict(omega=0.0, alpha=1.0, gamma=0.1, beta=0.2),
    dict(omega=1.0, alpha=1.0, gamma=0.1, beta=0.2, m2=0.0),
    dict(omega=1.0, alpha=1.0, gamma=0.1, beta=0.2, delta=0.0),
    dict(omega=1.0, alpha=1.0, gamma=0.1, beta=0.2, c=0.0),
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_beta_modes_resolve():
    p = ModelParams(omega=3.0, alpha=1.0, gamma=0.1, beta=6.0, m1=0.5, m2=2.0,
                    beta_mode=BetaMode.LITERAL)
    assert p.beta_effective == 6.0
    p = ModelParams(omega=3.0, alpha=1.0, gamma=0.1, beta=6.0, m1=0.5, m2=2.0,
                    beta_mode=BetaMode.COUPLING)
    assert p.beta_effective == pytest.approx(1.0 / 6.0)
    p = ModelParams(omega=3.0, alpha=1.0, gamma=0.1, beta=6.0, m1=0.5, m2=2.0,
                    beta_mode=BetaMode.MASS_RATIO)
    assert p.beta_effective == pytest.approx(-0.25)


def test_profile_from_params_uses_effective_beta():
    p = ModelParams(omega=3.0, alpha=1.0, gamma=0.1, beta=6.0, m1=0.5, m2=2.0,
                    beta_mode=BetaMode.MASS_RATIO)
    prof = profile_from_params(p, "coth")
    assert isinstance(prof, CothProfile)
    assert prof.beta == pytest.approx(-0.25)


def test_square_matches_python_pow_bit_for_bit():
    # the sweep's array pass relies on this to reproduce the scalar bytes
    rng = np.random.default_rng(20261018)
    n = 40_000
    # |x| < 1.34e154, where Python's ** would raise OverflowError
    magnitude = np.concatenate([
        10.0 ** rng.uniform(-320.0, 154.0, n),       # every scale, subnormal squares
        10.0 ** rng.uniform(-323.0, -308.0, n),      # subnormal inputs
        10.0 ** rng.uniform(-155.0, -153.0, n),      # squares at the subnormal edge
        rng.uniform(0.9e154, 1.34e154, n),           # squares next to DBL_MAX
        rng.uniform(0.0, 4.0, n),
    ])
    x = magnitude * rng.choice([-1.0, 1.0], magnitude.size)
    assert x.size == 200_000
    expected = np.array([v ** 2 for v in x.tolist()])
    got = square(x)
    differ = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
    assert differ.size == 0, f"{differ.size} squares differ, first at x = {x[differ[0]]!r}"
    assert square(-3.0) == 9.0 and isinstance(square(-3.0), float)
