import dataclasses
import sys
import threading

import numpy as np
import pytest

from pdmdirac import (BetaMode, CoshProfile, DiracPotential, Grid,
                      MassProfile, ModelParams, RealPotential, cancellation_residual,
                      complete_potential, dirac,
                      consistent_energy_cosh, dirac_profiles,
                      effective_potential_ansatz, effective_potential_general,
                      profile_from_params, rm2_state_evaluator, sigma_of,
                      spinor_components)
from pdmdirac.errors import DomainError, PoleError, SingularityError


def constant_profiles(m_val, v_val, e_ref):
    mass = MassProfile(m=lambda x: m_val + 0.0 * np.asarray(x),
                       dm=lambda x: 0.0 * np.asarray(x))
    pot = RealPotential(v=lambda x: v_val + 0.0 * np.asarray(x),
                        dv=lambda x: 0.0 * np.asarray(x),
                        d2v=lambda x: 0.0 * np.asarray(x))
    return mass, pot


def _cosh_mass_m1(omega, alpha, beta, m2):
    # the m1 of the linear cross-term constraint m2 (m1 + beta m2) = sigma beta - 1,
    # which makes the cosh mass m2*gamma + ((sigma*beta - 1)/m2) * tanh(x)
    return (sigma_of(omega, alpha) * beta - 1.0) / m2 - beta * m2


def test_cosh_mass_matches_tanh_form():
    omega, alpha, gamma, beta, m2 = 3.0, 0.5, 0.3, 1.0 / 3.0, 2.0
    m1 = _cosh_mass_m1(omega, alpha, beta, m2)
    params = ModelParams(omega=omega, alpha=alpha, gamma=gamma, beta=beta,
                         m1=m1, m2=m2)
    prof = CoshProfile(delta=1.0, gamma=gamma, beta=beta)
    mass, _ = dirac_profiles(params, prof, e_ref=1.0)
    xs = np.linspace(-4, 4, 41)
    sigma = sigma_of(omega, alpha)
    expected = m2 * gamma + (sigma * beta - 1.0) / m2 * np.tanh(xs)
    assert np.allclose(mass.m(xs), expected, rtol=1e-12)
    assert mass.m(0.0) == pytest.approx(m2 * gamma, rel=1e-14)


def test_mass_derivatives_match_finite_differences():
    params = ModelParams(omega=3.0, alpha=1.0, gamma=0.3, beta=0.2, m1=0.4, m2=1.5)
    for family, xs in (("cosh", np.linspace(-3, 3, 30)),
                       ("coth", np.linspace(0.3, 5, 30))):
        prof = profile_from_params(params, family)
        mass, pot = dirac_profiles(params, prof, e_ref=1.3)
        h = 1e-5
        fd_m = (mass.m(xs + h) - mass.m(xs - h)) / (2 * h)
        fd_v = (pot.v(xs + h) - pot.v(xs - h)) / (2 * h)
        fd_v2 = (pot.dv(xs + h) - pot.dv(xs - h)) / (2 * h)
        assert np.max(np.abs(mass.dm(xs) - fd_m) / (1 + np.abs(fd_m))) < 1e-8
        assert np.max(np.abs(pot.dv(xs) - fd_v) / (1 + np.abs(fd_v))) < 1e-8
        assert np.max(np.abs(pot.d2v(xs) - fd_v2) / (1 + np.abs(fd_v2))) < 1e-8


def test_vr_at_origin_scales_with_delta():
    params = ModelParams(omega=3.0, alpha=1.0, gamma=0.1, beta=0.2, delta=2.0)
    prof = CoshProfile(delta=2.0, gamma=0.1, beta=0.2)
    e_ref = 1.7
    _, pot = dirac_profiles(params, prof, e_ref)
    assert pot.v(0.0) == pytest.approx(e_ref * (1.0 - 1.0 / 2.0), rel=1e-14)
    prof1 = CoshProfile(delta=1.0, gamma=0.1, beta=0.2)
    params1 = ModelParams(omega=3.0, alpha=1.0, gamma=0.1, beta=0.2, delta=1.0)
    _, pot1 = dirac_profiles(params1, prof1, e_ref)
    assert pot1.v(0.0) == 0.0


def test_coth_mass_constant_for_mass_ratio_beta():
    # beta = -m1/m2 removes the A'/A term entirely
    params = ModelParams(omega=3.0, alpha=1.0, gamma=0.4, beta=0.0, m1=0.6,
                         m2=1.5, beta_mode=BetaMode.MASS_RATIO)
    prof = profile_from_params(params, "coth")
    mass, _ = dirac_profiles(params, prof, e_ref=1.0)
    xs = np.linspace(0.2, 8, 40)
    assert np.max(np.abs(mass.m(xs) - 1.5 * 0.4)) < 1e-12
    assert np.max(np.abs(mass.dm(xs))) < 1e-12


def test_vi_zero_for_constant_inputs():
    mass, pot = constant_profiles(1.4, 0.3, e_ref=2.0)
    dp = complete_potential(mass, pot.v, pot.dv, 2.0)
    xs = np.linspace(-5, 5, 21)
    assert np.max(np.abs(dp.v_i(xs))) == 0.0


def test_vi_closed_form_on_half_line():
    # constant mass, V_R = E - (E/delta) tanh(cx): V_I = -(c/2) csch(cx) sech(cx)
    c, delta, e_ref = 2.0, 0.5, 1.3
    params = ModelParams(omega=3.0, alpha=1.0, gamma=0.4, beta=0.0, m1=0.6,
                         m2=1.5, c=c, delta=delta, beta_mode=BetaMode.MASS_RATIO)
    prof = profile_from_params(params, "coth")
    mass, pot = dirac_profiles(params, prof, e_ref)
    dp = complete_potential(mass, pot.v, pot.dv, e_ref)
    xs = np.linspace(0.1, 4, 50)
    expected = -(c / 2.0) / (np.sinh(c * xs) * np.cosh(c * xs))
    assert np.allclose(dp.v_i(xs), expected, rtol=1e-12)
    assert np.allclose(pot.v(xs), e_ref - e_ref / delta * np.tanh(c * xs),
                       rtol=1e-13)


def test_imaginary_bracket_vanishes_for_random_smooth_inputs():
    # arbitrary smooth M, V_R with exact derivatives: the bracket built from
    # the completed V_I must vanish identically
    rng = np.random.default_rng(8)
    xs = rng.uniform(-3.0, 3.0, 1000)
    for trial in range(5):
        a0, a1w, a2w = rng.uniform(0.5, 2.0, 3)
        b0, b1w = rng.uniform(-0.8, 0.8, 2)
        mass = MassProfile(
            m=lambda x, a0=a0, a1w=a1w: a0 + 0.3 * np.sin(a1w * x) + 2.0,
            dm=lambda x, a1w=a1w: 0.3 * a1w * np.cos(a1w * x))
        pot = RealPotential(
            v=lambda x, b0=b0, b1w=b1w, a2w=a2w: b0 + 0.4 * np.cos(a2w * x) + b1w * x / 10.0,
            dv=lambda x, b1w=b1w, a2w=a2w: -0.4 * a2w * np.sin(a2w * x) + b1w / 10.0,
            d2v=lambda x, a2w=a2w: -0.4 * a2w * a2w * np.cos(a2w * x))
        e_ref = 3.5  # above every V_R value drawn here
        dp = complete_potential(mass, pot.v, pot.dv, e_ref)
        res = cancellation_residual(mass, pot, dp.v_i, e_ref, xs)
        assert np.max(np.abs(res)) < 1e-12


def test_effective_potential_constant_inputs():
    mass, pot = constant_profiles(1.4, 0.3, e_ref=2.0)
    xs = np.linspace(-3, 3, 11)
    got = effective_potential_general(mass, pot, 2.0, xs)
    expected = -0.3 ** 2 + 1.4 ** 2 + 2 * 2.0 * 0.3
    assert np.max(np.abs(got - expected)) < 1e-14


def test_effective_potential_reproduces_sech_tanh_well():
    # cosh profile with the matching constants reproduces
    # V0 - V1 sech^2 x + V2 tanh x with the closed-form coefficients
    from pdmdirac import derived_constants, rm2_coefficients_from_params

    omega, alpha, gamma, m2 = 3.0, 0.5, 0.3, 2.0
    sol = derived_constants(ModelParams(omega, alpha, gamma, 0.0, m2=m2,
                                        beta_mode=BetaMode.COUPLING))
    m1 = _cosh_mass_m1(omega, alpha, sol.beta, m2)
    params = ModelParams(omega=omega, alpha=alpha, gamma=gamma, beta=sol.beta,
                         m1=m1, m2=m2)
    prof = CoshProfile(delta=1.0, gamma=gamma, beta=sol.beta)
    e_ref = np.sqrt(sol.e_squared)
    coeffs = rm2_coefficients_from_params(params)
    xs = np.linspace(-4, 4, 200)
    got = effective_potential_ansatz(params, prof, e_ref, xs)
    well = (coeffs.v0 - coeffs.v1 / np.cosh(xs) ** 2 + coeffs.v2 * np.tanh(xs))
    assert np.max(np.abs(got - well) / (1 + np.abs(well))) < 1e-10


def test_pole_is_refused():
    mass, _ = constant_profiles(1.0, 0.0, e_ref=2.0)
    pot = RealPotential(v=lambda x: np.asarray(x) * 0.0 + 2.0,  # V_R == E
                        dv=lambda x: np.asarray(x) * 0.0,
                        d2v=lambda x: np.asarray(x) * 0.0)
    with pytest.raises(PoleError):
        effective_potential_general(mass, pot, 2.0, 0.5)
    dp = complete_potential(mass, pot.v, pot.dv, 2.0)
    with pytest.raises(PoleError):
        dp.v_i(0.5)


def spinor_setup(n, npts):
    gamma, m1, beta, m2, delta = 1.0, 0.1, 0.25, 1.2, 1.0
    params = ModelParams(omega=3.0, alpha=0.5, gamma=gamma, beta=beta,
                         m1=m1, m2=m2)
    prof = CoshProfile(delta=delta, gamma=gamma, beta=beta)
    cross = m1 + beta * m2
    e = consistent_energy_cosh(gamma, m1, beta, m2, n, delta)
    v1 = e * e / delta ** 2 + cross ** 2 - 0.25
    v2 = 2.0 * gamma * m2 * cross
    phi, dphi = rm2_state_evaluator(n, v1, v2)
    mass, pot = dirac_profiles(params, prof, e)
    dp = complete_potential(mass, pot.v, pot.dv, e)
    grid = Grid(-15.0, 15.0, npts)
    return phi, dphi, grid, mass, dp, e


def test_spinor_constant_mass_ratio():
    mass, pot = constant_profiles(2.25, 0.3, e_ref=2.0)
    dp = complete_potential(mass, pot.v, pot.dv, 2.0)
    grid = Grid(-10.0, 10.0, 600)
    varphi = np.exp(-grid.points ** 2 / 2.0)
    dvarphi = -grid.points * varphi
    sp = spinor_components(varphi, dvarphi, grid, mass, dp, 2.0)
    assert np.allclose(sp.phi.real, 1.5 * varphi, rtol=1e-13)
    assert np.max(np.abs(sp.phi.imag)) == 0.0


def test_spinor_ground_state_residual_default_grid():
    phi, dphi, grid, mass, dp, e = spinor_setup(0, 6000)
    sp = spinor_components(phi(grid.points), dphi(grid.points), grid, mass, dp, e)
    assert sp.residual < 1e-5


def test_spinor_residual_fourth_order_decay():
    residuals = []
    for npts in (1500, 3000, 6000):
        phi, dphi, grid, mass, dp, e = spinor_setup(1, npts)
        sp = spinor_components(phi(grid.points), dphi(grid.points), grid,
                               mass, dp, e)
        residuals.append(sp.residual)
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    assert 8.0 < r1 < 32.0  # ~2^4 per refinement
    assert 8.0 < r2 < 32.0


def test_spinor_upper_component_origin_value():
    phi, dphi, grid, mass, dp, e = spinor_setup(0, 6000)
    sp = spinor_components(phi(grid.points), dphi(grid.points), grid, mass, dp, e)
    i0 = np.argmin(np.abs(grid.points))
    x0 = grid.points[i0]
    expected = np.sqrt(mass.m(x0)) * phi(x0)
    assert sp.phi[i0].real == pytest.approx(expected, rel=1e-12)
    # at x = 0 exactly the mass is m2*gamma
    assert mass.m(0.0) == pytest.approx(1.2 * 1.0, rel=1e-14)


def test_spinor_rejects_nonpositive_mass():
    mass = MassProfile(m=lambda x: np.tanh(np.asarray(x)),
                       dm=lambda x: 1.0 / np.cosh(np.asarray(x)) ** 2)
    pot = RealPotential(v=lambda x: 0.0 * np.asarray(x),
                        dv=lambda x: 0.0 * np.asarray(x),
                        d2v=lambda x: 0.0 * np.asarray(x))
    dp = complete_potential(mass, pot.v, pot.dv, 1.0)
    grid = Grid(-5.0, 5.0, 64)
    varphi = np.exp(-grid.points ** 2)
    with pytest.raises(DomainError):
        spinor_components(varphi, -2 * grid.points * varphi, grid, mass, dp, 1.0)


# ----------------------------------------------------------------------
# the field memos, keyed by each call's closures, and V_I's fresh arrays
# ----------------------------------------------------------------------

_MEMO_PARAMS = ModelParams(omega=3.0, alpha=0.5, gamma=0.5, beta=-0.9, m1=0.35, m2=0.5)
_MEMO_E = 1.2


def _fields(params=_MEMO_PARAMS, family="cosh", e_ref=_MEMO_E):
    """Fresh closures: (M, M', V_R, V_R', V_R'', V_I) in that order."""
    mass, v_r = dirac_profiles(params, profile_from_params(params, family), e_ref)
    pot = complete_potential(mass, v_r.v, v_r.dv, e_ref)
    return mass.m, mass.dm, v_r.v, v_r.dv, v_r.d2v, pot.v_i


def test_repeat_field_call_returns_the_same_read_only_array():
    x = Grid(-15.0, 15.0, 600).points
    fields = _fields()
    for f, fresh in zip(fields[:5], _fields()):
        first = f(x)
        assert f(x) is first
        assert first.tobytes() == fresh(x).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 1.0
    # V_I keeps no memo: a fresh array on every call
    v_i = fields[5]
    first = v_i(x)
    assert v_i(x) is not first
    assert v_i(x).tobytes() == first.tobytes() == _fields()[5](x).tobytes()
    # a scalar call is neither memoized nor made read-only
    for f in fields:
        got = f(0.5)
        assert not isinstance(got, np.ndarray)
        assert got == f(np.array([0.5]))[0]


def test_one_family_chain_computes_each_field_once(monkeypatch):
    # the chain of perfbench's states workload: 18 field evaluations, 5
    # field arrays and V_I twice
    evaluated = []
    evaluate = dirac.evaluate_profile

    def spy_profile(profile, x):
        evaluated.append(profile)
        return evaluate(profile, x)

    monkeypatch.setattr(dirac, "evaluate_profile", spy_profile)
    seen = {}

    def spy(name, f):
        def field(x):
            out = f(x)
            seen.setdefault(name, []).append(out)
            return out
        return field

    m, dm, v, dv, d2v, _ = _fields()
    mass = MassProfile(m=spy("m", m), dm=spy("dm", dm))
    v_r = RealPotential(v=spy("v", v), dv=spy("dv", dv), d2v=spy("d2v", d2v))
    pot = complete_potential(mass, v_r.v, v_r.dv, _MEMO_E)
    pot = DiracPotential(v_r=pot.v_r, v_i=spy("v_i", pot.v_i))
    x = Grid(-15.0, 15.0, 600).points
    pot.v_i(x)
    cancellation_residual(mass, v_r, pot.v_i, _MEMO_E, x)
    effective_potential_general(mass, v_r, _MEMO_E, x)
    assert {k: len(arrs) for k, arrs in seen.items()} == {
        "m": 4, "dm": 3, "v": 4, "dv": 4, "d2v": 1, "v_i": 2}
    first, second = seen.pop("v_i")
    assert second is not first and second.tobytes() == first.tobytes()
    for arrs in seen.values():
        assert all(arr is arrs[0] for arr in arrs)
    # every field call still evaluates the profile
    assert len(evaluated) == 16


def _read_only(arr):
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def test_v_i_gives_a_fresh_closures_bits_on_every_call():
    x = np.linspace(-2.0, 2.0, 50)
    m, dm = _read_only(1.5 + 0.2 * np.tanh(x)), _read_only(0.2 / np.cosh(x) ** 2)
    v, dv = _read_only(0.3 * np.sin(x)), _read_only(0.3 * np.cos(x))
    expected = (dm / (2.0 * m) + dv / (2.0 * (2.0 - v))).tobytes()
    # the very same read-only arrays, fresh arrays, writable arrays, or one
    # fresh input among shared ones: a fresh array each call, with the same
    # bits
    cases = {
        "shared": (lambda x: m, lambda x: dm, lambda x: v, lambda x: dv),
        "fresh": (lambda x: m.copy(), lambda x: dm.copy(), lambda x: v.copy(),
                  lambda x: dv.copy()),
        "writable": (lambda x, a=m.copy(): a, lambda x, a=dm.copy(): a,
                     lambda x, a=v.copy(): a, lambda x, a=dv.copy(): a),
        "one fresh": (lambda x: m, lambda x: dm, lambda x: v, lambda x: _read_only(dv)),
    }
    for what, (fm, fdm, fv, fdv) in cases.items():
        v_i = complete_potential(MassProfile(m=fm, dm=fdm), fv, fdv, 2.0).v_i
        outs = [v_i(x) for _ in range(3)]
        assert outs[0] is not outs[1] and outs[1] is not outs[2], what
        assert all(out.tobytes() == expected for out in outs), what
    # the Dirac chain's own V_I on a grid: the bits of a fresh closure
    g = Grid(-15.0, 15.0, 600).points
    v_i = _fields()[5]
    outs = [v_i(g) for _ in range(3)]
    assert outs[0] is not outs[1] and outs[1] is not outs[2]
    assert all(out.tobytes() == _fields()[5](g).tobytes() for out in outs)


def test_v_i_refuses_on_every_call_with_shared_inputs():
    x = np.linspace(-2.0, 2.0, 50)
    one, zero = _read_only(np.ones_like(x)), _read_only(np.zeros_like(x))
    at_pole = _read_only(np.full_like(x, 2.0))
    calls = []

    def v_r(x):
        calls.append("v_r")
        return at_pole

    no_mass = complete_potential(MassProfile(m=lambda x: zero, dm=lambda x: zero),
                                 v_r, lambda x: zero, 2.0).v_i
    pole = complete_potential(MassProfile(m=lambda x: one, dm=lambda x: zero),
                              v_r, lambda x: zero, 2.0).v_i
    for _ in range(2):
        with pytest.raises(SingularityError, match="M\\(x\\) = 0"):
            no_mass(x)
        with pytest.raises(PoleError):
            pole(x)
    # V_R is read only after the M = 0 test passes
    assert calls == ["v_r", "v_r"]
    # on the Dirac chain's own fields, whose second calls hit their memos:
    # gamma = 0 and m1 = -beta m2 make M = 0, and E = 0 makes V_R = E, at
    # every node
    g = Grid(-15.0, 15.0, 600).points
    massless = dataclasses.replace(_MEMO_PARAMS, gamma=0.0, m1=0.45)
    for params, e_ref, error in ((massless, _MEMO_E, SingularityError),
                                 (_MEMO_PARAMS, 0.0, PoleError)):
        m, *_, v_i = _fields(params, e_ref=e_ref)
        for _ in range(2):
            with pytest.raises(error):
                v_i(g)
        assert m(g) is m(g)


def test_memos_under_threads_give_the_bits_of_fresh_closures():
    # more threads than cores, switching often, each round on one (family,
    # grid) for every thread and the two grids alternating through one set of
    # closures: a memo entry that showed its key before its value would hand
    # one grid's array, or None, to the threads that hit it
    line = (Grid(-15.0, 15.0, 400), Grid(-14.0, 14.0, 400))
    half = (Grid(1e-3, 20.0, 400), Grid(2e-3, 18.0, 400))
    coth = ModelParams(omega=3.0, alpha=0.5, gamma=3.5, beta=-0.5, m1=0.3, m2=2.0)
    jobs = []
    for params, family, grids in ((_MEMO_PARAMS, "cosh", line), (coth, "coth", half)):
        expected = {g: [f(g.points).tobytes() for f in _fields(params, family)]
                    for g in grids}
        jobs.append((_fields(params, family), grids, expected))
    n_threads, rounds = 8, 200
    barrier = threading.Barrier(n_threads, timeout=30.0)
    failures = []

    def work():
        try:
            for i in range(rounds):
                barrier.wait()
                fields, grids, expected = jobs[i // 2 % 2]
                g = grids[i % 2]
                got = [f(g.points) for f in fields]
                # the five fields share read-only arrays; V_I's are fresh
                if ([arr.tobytes() for arr in got] != expected[g]
                        or any(arr.flags.writeable for arr in got[:5])):
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
