import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdirac import (BetaMode, CoshProfile, CothProfile, Grid, ModelParams,
                      cancellation_residual, complete_potential,
                      derived_constants, dirac_profiles,
                      effective_potential_ansatz, effective_potential_general,
                      dirac, evaluate_profile, hermitian_coeffs, model,
                      nonhermitian_coeffs, numerics, profile_from_params, rho_weight,
                      schrodinger_potential, sigma_of)
from pdmdirac.errors import DomainError, SingularityError
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
    sol = derived_constants(ModelParams(3.0, 2.0, 0.1, 0.0, m2=2.0,
                                        beta_mode=BetaMode.COUPLING))
    assert sol.sigma == pytest.approx(25.0 / 9.0, rel=1e-15)
    assert sol.beta == pytest.approx(-1.0 / 6.0, rel=1e-15)


def test_hermitian_limit():
    sol = derived_constants(ModelParams(5.0, 0.0, 0.3, 0.0, m2=1.0,
                                        beta_mode=BetaMode.COUPLING))
    assert sol.sigma == 1.0
    assert sol.beta == 0.5


def test_gamma_zero_kills_epsilon_and_fixes_energy():
    sol = derived_constants(ModelParams(3.0, 1.0, 0.0, 0.0, m2=2.0,
                                        beta_mode=BetaMode.COUPLING))
    assert sol.epsilon == 0.0
    assert sol.e_squared == 1.5


def test_m1_branches_absent_for_negative_radicand():
    # radicand = 9*(1 + 1/9) - 24 = -14
    sol = derived_constants(ModelParams(3.0, 2.0, 0.1, -1.0 / 6.0, m2=2.0,
                                        beta_mode=BetaMode.LITERAL))
    assert sol.m1_plus is None
    assert sol.m1_minus is None
    assert not sol.has_m1


def test_m1_roots_solve_their_quadratic():
    # both branches satisfy m1*(m1 + beta*m2) = 1/4 - alpha/omega exactly
    sol = derived_constants(ModelParams(3.0, 0.5, 0.1, 0.0, m2=2.0,
                                        beta_mode=BetaMode.COUPLING))
    target = 0.25 - 0.5 / 3.0
    for root in (sol.m1_plus, sol.m1_minus):
        assert root is not None
        assert root * (root + sol.beta * 2.0) == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("mode, fields, message", [
    (BetaMode.LITERAL, {"beta": None}, "literal beta mode requires an explicit beta"),
    (BetaMode.MASS_RATIO, {"beta": 0.0, "m1": None},
     "mass-ratio beta mode requires m1 and nonzero m2"),
])
def test_derived_constants_refuses_a_beta_its_mode_cannot_resolve(mode, fields, message):
    params = ModelParams(3.0, 2.0, 0.1, m2=2.0, beta_mode=mode, **fields)
    with pytest.raises(ValueError, match=message):
        derived_constants(params)


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


FIELDS = ("a", "a1", "a2", "b", "b1")


def assert_same_bits(got, want):
    for name in FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name


def _always_miss(name, key, compute, *args, **kwargs):
    """``numerics._memoized`` with every lookup a miss: a fresh ``object()``
    key equals no stored one."""
    return numerics._memoized(name, object(), compute, *args, **kwargs)


_GRID = np.linspace(0.0, 2.0, 10)
_POSITIVE = np.linspace(0.5, 2.5, 10)


def _with(x, i, value):
    x = x.copy()
    x[i] = value
    return x


@pytest.mark.parametrize("first, second", [
    ((CoshProfile(delta=1.0, gamma=0.2, beta=0.3), _GRID),
     (CoshProfile(delta=1.0, gamma=0.2, beta=0.3), _with(_GRID, 0, -0.0))),
    ((CoshProfile(delta=1.0, gamma=0.2, beta=0.3), _GRID),
     (CoshProfile(delta=1.0, gamma=0.2, beta=0.3), _with(_GRID, 3, np.nan))),
    ((CoshProfile(delta=1.0, gamma=0.2, beta=0.3), _GRID),
     (CoshProfile(delta=1.0, gamma=0.2, beta=0.3), _GRID.reshape(2, -1))),
    # gamma*A is -0.0 here, so the sign of beta's zero decides the sign of B
    ((CoshProfile(delta=1.0, gamma=-0.0, beta=0.0), _POSITIVE),
     (CoshProfile(delta=1.0, gamma=-0.0, beta=-0.0), _POSITIVE)),
    ((CoshProfile(delta=1.0, gamma=0.2, beta=0.3), _POSITIVE),
     (CothProfile(delta=1.0, gamma=0.2, beta=0.3), _POSITIVE)),
], ids=["negative-zero-x", "nan-x", "reshape", "negative-zero-beta", "other-class"])
def test_profile_memo_misses_on_any_other_bits(first, second, empty_memos):
    stored = evaluate_profile(*first)
    got = evaluate_profile(*second)
    assert got is not stored
    assert_same_bits(got, model._profile_values(*second))


def test_profile_memo_hit_is_read_only_and_survives_a_raising_call(empty_memos):
    prof = CothProfile(delta=1.5, c=0.8, gamma=0.2, beta=0.6)
    stored = evaluate_profile(prof, _POSITIVE)
    assert evaluate_profile(prof, _POSITIVE.copy()) is stored
    assert_same_bits(stored, model._profile_values(prof, _POSITIVE))
    for name in FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(stored, name)[0] = 1.0
    with pytest.raises(DomainError):
        evaluate_profile(prof, _with(_POSITIVE, 0, 0.0))
    with pytest.raises(OverflowError):
        evaluate_profile(CoshProfile(), _with(_POSITIVE, 0, 800.0))
    assert evaluate_profile(prof, _POSITIVE) is stored


def _chain(params, family, grid, e_ref=1.2, epsilon=0.3):
    """One family's hermitization and Dirac chain: 26 profile evaluations."""
    prof = profile_from_params(params, family)
    x = grid.points
    for coeffs in (nonhermitian_coeffs(params, prof), hermitian_coeffs(params, prof)):
        coeffs.c2(x), coeffs.c1(x), coeffs.c0(x)
    rho_weight(params, prof, x)
    schrodinger_potential(params, prof, epsilon, x, form="generic")
    schrodinger_potential(params, prof, epsilon, x, form="ansatz")
    mass, v_r = dirac_profiles(params, prof, e_ref)
    pot = complete_potential(mass, v_r.v, v_r.dv, e_ref)
    pot.v_i(x)
    cancellation_residual(mass, v_r, pot.v_i, e_ref, x)
    effective_potential_general(mass, v_r, e_ref, x)
    effective_potential_ansatz(params, prof, e_ref, x)


def test_one_profile_computation_per_family_and_grid(monkeypatch, empty_memos):
    computed = []
    values = model._profile_values

    def spy(profile, x):
        computed.append(profile)
        return values(profile, x)

    monkeypatch.setattr(model, "_profile_values", spy)
    cosh = ModelParams(omega=3.0, alpha=0.5, gamma=0.5, beta=-0.9, m1=0.35, m2=0.5)
    coth = ModelParams(omega=3.0, alpha=0.5, gamma=3.5, beta=-0.5, m1=0.3, m2=2.0)
    line, half = Grid(-15.0, 15.0, 6000), Grid(1e-3, 20.0, 6000)
    _chain(cosh, "cosh", line)
    assert len(computed) == 1
    _chain(coth, "coth", half)
    assert len(computed) == 2
    _chain(cosh, "cosh", Grid(-14.0, 14.0, 6000))
    assert len(computed) == 3
    # with every lookup a miss, the same chain evaluates the profile 26 times
    monkeypatch.setattr(model, "_memoized", _always_miss)
    monkeypatch.setattr(dirac, "_memoized", _always_miss)
    _chain(cosh, "cosh", line)
    assert len(computed) == 3 + 26


def test_vanishing_profile_is_refused_on_a_memo_hit_too(empty_memos):
    # delta = 0 makes A = 0 at every node; the second pass reads the memo's
    # ProfileValues, whose A = 0 test ran on the first
    params = ModelParams(omega=3.0, alpha=0.5, gamma=0.5, beta=-0.9, m1=0.35, m2=0.5)
    prof = CoshProfile(delta=0.0, gamma=0.5, beta=-0.9)
    x = Grid(-15.0, 15.0, 600).points
    stored = evaluate_profile(prof, x)
    mass, _ = dirac_profiles(params, prof, 1.2)
    for _ in range(2):
        assert evaluate_profile(prof, x) is stored
        # the same field closure both times: its own memo must not skip the test
        with pytest.raises(SingularityError, match=r"^A\(x\) = 0 inside the Dirac profiles$"):
            mass.m(x)
        with pytest.raises(SingularityError,
                           match=r"^A\(x\) = 0 inside the effective potential$"):
            effective_potential_ansatz(params, prof, 1.2, x)
        for form in ("generic", "ansatz"):
            with pytest.raises(SingularityError,
                               match=r"^A\(x\) = 0 inside schrodinger_potential$"):
                schrodinger_potential(params, prof, 0.3, x, form=form)


def test_profile_memo_matches_a_read_only_owner_by_identity(monkeypatch, empty_memos):
    computed = []
    values = model._profile_values
    monkeypatch.setattr(model, "_profile_values",
                        lambda profile, x: computed.append(x) or values(profile, x))
    prof = CothProfile(delta=1.5, c=0.8, gamma=0.2, beta=0.6)
    x = np.linspace(0.5, 2.5, 6000).copy()
    x.flags.writeable = False  # it owns its data, as Grid.points does
    stored = evaluate_profile(prof, x)
    # the key holds the array, not a copy of its bytes
    (key, _), = numerics._memos["profile"]
    assert key[0] is CothProfile and any(part is x for part in key[1])
    assert all(len(part) < x.nbytes for part in key[1] if isinstance(part, bytes))
    assert evaluate_profile(prof, x) is stored
    # the memo keeps the array alive, so no other array can take its id
    alive = weakref.ref(x)
    del x
    gc.collect()
    assert alive() is not None
    # equal bits in another read-only owner: another identity, a miss
    twin = np.linspace(0.5, 2.5, 6000).copy()
    twin.flags.writeable = False
    assert evaluate_profile(prof, twin) is not stored
    assert len(computed) == 2
    # a read-only view is keyed by its bits: its base may change it
    base = np.linspace(0.5, 2.5, 6000)
    view = base[:]
    view.flags.writeable = False
    first = evaluate_profile(prof, view)
    base[0] = 3.0
    assert evaluate_profile(prof, view) is not first
    assert len(computed) == 4
    assert_same_bits(evaluate_profile(prof, view), values(prof, base))
