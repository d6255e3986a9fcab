import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdirac import (BetaMode, ModelParams, PoschlTellerSuperpotential,
                      RosenMorseSuperpotential, ground_state_samples,
                      gpt_params_ab, gpt_solve, gpt_solve_from_params,
                      ladder_state, partner_potentials,
                      rm2_coefficients_from_params, rm2_level_radicand,
                      rm2_solve, rm2_solve_from_params, si_check,
                      si_remainder_ladder)
from pdmdirac import numerics, ode_residual, susy
from pdmdirac.errors import DomainError
from pdmdirac.susy import gpt_level_columns, rm2_level_columns
from pdmdirac.numerics import Grid
from pdmdirac.wavefunctions import gpt_wavefunction, rm2_wavefunction


def test_partner_constant_w_degenerate():
    # c2 = 0 bypasses the normalizability invariant on purpose: W' = 0
    w = RosenMorseSuperpotential(c1=0.7, c2=0.0)
    assert not w.is_normalizable
    pp = partner_potentials(w, 1.3)
    assert pp.v_minus == pytest.approx(0.49, rel=1e-15)
    assert pp.v_plus == pytest.approx(0.49, rel=1e-15)


def test_partner_hand_value():
    pp = partner_potentials(RosenMorseSuperpotential(c1=0.0, c2=2.0), 0.0)
    assert pp.v_minus == pytest.approx(-2.0, rel=1e-15)  # 4 - (4+2)*1
    assert pp.v_plus == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("w, xs", [
    (RosenMorseSuperpotential(c1=-0.4, c2=2.7), np.linspace(-6, 6, 1000)),
    (PoschlTellerSuperpotential(a=5.0, b=1.5, c=1.3), np.linspace(0.05, 12, 1000)),
])
def test_partner_expansion_matches_w_form(w, xs):
    pp = partner_potentials(w, xs)
    assert np.max(np.abs(pp.v_minus - (w.w(xs) ** 2 - w.dw(xs)))) < 1e-12 * 100
    assert np.max(np.abs(pp.v_plus - (w.w(xs) ** 2 + w.dw(xs)))) < 1e-12 * 100


def test_gpt_domain_error():
    w = PoschlTellerSuperpotential(a=5.0, b=1.5, c=1.0)
    with pytest.raises(DomainError):
        partner_potentials(w, -0.5)
    with pytest.raises(DomainError):
        w.w(0.0)


def test_ladder_base_cases():
    assert si_remainder_ladder(RosenMorseSuperpotential(c1=0.3, c2=2.0), 0) == 0.0
    assert si_remainder_ladder(PoschlTellerSuperpotential(a=5, b=1.5, c=1), 0) == 0.0


def test_ladder_rm2_value():
    # V2 = 0, C2 = 2, n = 1: 4 - 1 = 3
    w = RosenMorseSuperpotential(c1=0.0, c2=2.0)
    assert si_remainder_ladder(w, 1) == pytest.approx(3.0, rel=1e-15)


def test_ladder_gpt_value():
    # A - B = 5, c = 1, n = 1: 25 - 9 = 16
    w = PoschlTellerSuperpotential(a=6.5, b=1.5, c=1.0)
    assert si_remainder_ladder(w, 1) == pytest.approx(16.0, rel=1e-15)


def test_ladder_zero_division():
    w = RosenMorseSuperpotential(c1=0.1, c2=2.0)
    with pytest.raises(ZeroDivisionError):
        si_remainder_ladder(w, 2)


@pytest.mark.parametrize("w", [
    RosenMorseSuperpotential(c1=-0.375, c2=4.0),
    PoschlTellerSuperpotential(a=9.0, b=3.0, c=2.0),
])
def test_ladder_telescopes_to_direct_remainder(w):
    # Ebar_n - Ebar_{n-1} equals the x-independent constant R(a_n)
    for n in (1, 2, 3):
        direct = float(partner_potentials(w.shifted(n - 1), 0.37).v_plus
                       - partner_potentials(w.shifted(n), 0.37).v_minus)
        step = si_remainder_ladder(w, n) - si_remainder_ladder(w, n - 1)
        assert step == pytest.approx(direct, abs=1e-12)


def test_rm2_solve_example():
    sol = rm2_solve(10.0, 6.0, 0.0, n_max=3)
    assert sol.w.c2 == 2.0
    assert sol.w.c1 == 0.0
    e_bars = [lv.e_bar for lv in sol.spectrum]
    assert e_bars[0] == 0.0
    assert e_bars[1] == pytest.approx(3.0)
    assert e_bars[2] is None  # C2 - 2 = 0 pole
    assert [lv.admissible for lv in sol.spectrum] == [True, True, False, False]


def test_rm2_reality_condition_error():
    with pytest.raises(ValueError, match="1 \\+ 4\\*V1 must be positive"):
        rm2_solve(1.0, -0.26, 0.0)


def test_rm2_no_bound_state_warning():
    with pytest.warns(UserWarning, match="no bound states"):
        rm2_solve(1.0, -0.1, 0.0)


def test_rm2_zero_c2_is_a_pole_at_every_level():
    # V1 = 0 gives C2 = 0: level 0's ladder is the empty sum, but its
    # radicand divides by (C2 - 0)^2, and the levels above divide by C2^2
    with pytest.warns(UserWarning, match="V1 <= 0"):
        sol = rm2_solve(1.0, 0.0, 0.5, n_max=2)
    assert sol.w.c2 == 0.0
    assert [(lv.e_bar, lv.e_rel, lv.admissible) for lv in sol.spectrum] == [
        (None, None, False)] * 3


def test_rm2_params_path_is_bit_identical():
    params = ModelParams(omega=3.0, alpha=2.0, gamma=0.1, beta=6.0, m2=4.2145)
    coeffs = rm2_coefficients_from_params(params)
    lit = rm2_solve(coeffs.v0, coeffs.v1, coeffs.v2, n_max=4)
    via = rm2_solve_from_params(params, n_max=4)
    for a, b in zip(lit.spectrum, via.spectrum):
        assert a.e_bar == b.e_bar
        assert a.e_rel == b.e_rel
        assert a.is_real == b.is_real and a.admissible == b.admissible
    assert lit.w == via.w


def test_rm2_admissibility_needs_decay_margin():
    # C2 - n > 0 alone is not enough: (C2-n)^2 must beat |V2|/2
    sol = rm2_solve(0.0, 20.0, -3.0, n_max=4)
    assert [lv.admissible for lv in sol.spectrum] == [True, True, True, False, False]


def test_rm2_reality_flag_mirrors_radicand_with_exact_tie():
    # v0 = -3: radicand at n=0 is -3 + 4 - 1 = 0 exactly; ties count as real
    sol = rm2_solve(-3.0, 6.0, 4.0, n_max=0)
    lv = sol.spectrum.levels[0]
    assert rm2_level_radicand(-3.0, 4.0, 2.0, 0) == 0.0
    assert lv.is_real
    assert lv.e_rel == 0.0


def test_rm2_energies_never_clamped():
    sol = rm2_solve(-50.0, 6.0, 0.0, n_max=1)
    lv = sol.spectrum.levels[0]
    assert not lv.is_real
    assert lv.e_rel.real == 0.0
    assert lv.e_rel.imag > 0.0


def test_figure_one_blue_curve_values():
    # caption-literal constants: n=3, alpha=2, omega=3, gamma=0.1, beta=6
    for m2, expected in ((4.2145, 0.0565786), (5.6142, 0.0310165)):
        params = ModelParams(omega=3.0, alpha=2.0, gamma=0.1, beta=6.0, m2=m2)
        sol = rm2_solve_from_params(params, n_max=3)
        lv = sol.spectrum.levels[3]
        assert not lv.is_real
        assert abs(abs(lv.e_rel.imag) - expected) < 1e-3


def test_figure_one_red_curve_real():
    for m2 in np.linspace(4.0, 6.0, 41):
        params = ModelParams(omega=3.0, alpha=2.0, gamma=0.1, beta=6.0, m2=m2)
        sol = rm2_solve_from_params(params, n_max=0)
        assert sol.spectrum.levels[0].is_real


def test_gpt_b_constant():
    for c in (0.5, 1.0, 3.0):
        params = ModelParams(omega=5.0, alpha=1.0, gamma=10.0, beta=0.0,
                             delta=0.5, c=c, m2=1.0, beta_mode=BetaMode.COUPLING)
        _, b = gpt_params_ab(params)
        assert b == 1.5 * c


def test_gpt_level_zero():
    sol = gpt_solve(5.0, 1.5, 1.0, n_max=0, delta=0.5, gamma=10.0, m2=1.3)
    lv = sol.spectrum.levels[0]
    assert lv.e_bar == 0.0
    assert lv.e_rel == pytest.approx(0.5 * abs(10.0 * 1.3), rel=1e-14)


def test_gpt_figure_two_window():
    # radicand of level 3 changes sign near m2 = 1.404; level 0 always real
    def radicand(m2):
        params = ModelParams(omega=5.0, alpha=1.0, gamma=10.0, beta=0.0,
                             delta=0.5, c=3.0, m2=m2, beta_mode=BetaMode.COUPLING)
        a, b = gpt_params_ab(params)
        w = PoschlTellerSuperpotential(a=a, b=b, c=3.0)
        return (10.0 * m2) ** 2 + si_remainder_ladder(w, 3)

    lo, hi = 0.5, 3.0
    assert radicand(lo) < 0.0 < radicand(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if radicand(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - 1.404) <= 0.01


def test_gpt_boundary_violation_warns_and_flags():
    with pytest.warns(UserWarning, match="boundary"):
        sol = gpt_solve(-2.0, 1.5, 1.0, n_max=2)
    assert all(not lv.admissible for lv in sol.spectrum)
    assert all(lv.e_bar is not None for lv in sol.spectrum)


def test_si_check_examples():
    w = RosenMorseSuperpotential(c1=0.0, c2=3.0)
    xs = np.linspace(-8, 8, 1000)
    assert np.max(np.abs(si_check(w, xs))) < 1e-12
    wg = PoschlTellerSuperpotential(a=5.0, b=1.5, c=1.0)
    xs = np.linspace(1e-2, 20, 1000)
    assert np.max(np.abs(si_check(wg, xs))) < 1e-12
    with pytest.raises(ValueError, match="shift undefined"):
        si_check(RosenMorseSuperpotential(c1=0.0, c2=1.0), 0.5)


def test_si_residual_random_parameter_sets():
    rng = np.random.default_rng(12)
    xs_line = np.linspace(-8, 8, 1000)
    xs_half = np.linspace(0.02, 20, 1000)
    for _ in range(50):
        c2 = rng.uniform(1.5, 6.0)
        c1 = rng.uniform(-0.8, 0.8) * c2
        w = RosenMorseSuperpotential(c1=c1, c2=c2)
        assert w.is_normalizable
        res = np.abs(si_check(w, xs_line))
        bound = 1e-10 * (1.0 + np.abs(partner_potentials(w, xs_line).v_plus))
        assert np.all(res <= bound)
        a = rng.uniform(4.0, 12.0)
        b = rng.uniform(0.5, a - 2.5)
        c = rng.uniform(0.5, 2.0)
        wg = PoschlTellerSuperpotential(a=a, b=b, c=c)
        res = np.abs(si_check(wg, xs_half))
        bound = 1e-10 * (1.0 + np.abs(partner_potentials(wg, xs_half).v_plus))
        assert np.all(res <= bound)


def test_ladder_monotone_over_admissible_levels():
    sol = rm2_solve(0.0, 20.0, -3.0, n_max=4)
    adm = [lv.e_bar for lv in sol.spectrum.admissible()]
    assert all(b > a for a, b in zip(adm, adm[1:]))
    solg = gpt_solve(12.0, 3.0, 1.0, n_max=5)
    admg = [lv.e_bar for lv in solg.spectrum.admissible()]
    assert all(b > a for a, b in zip(admg, admg[1:]))


def test_ladder_state_n0_is_ground_state():
    w = RosenMorseSuperpotential(c1=-0.375, c2=4.0)
    grid = Grid(-15.0, 15.0, 2001)
    got = ladder_state(w, 0, grid)
    raw = ground_state_samples(w, grid.points)
    ratio = got / raw
    assert np.max(np.abs(ratio / ratio[1000] - 1.0)) < 1e-12


def test_ladder_state_with_a_huge_raw_peak():
    # the raw ground state peaks at 3.7e156, whose square overflows: it
    # normalized to 4000 zeros; V1 = C2 (C2 + 1) and V2 = 2 C1 C2 name the
    # same well for the closed form
    grid = Grid(-1.0, 1.18, 4000)
    lad = ladder_state(RosenMorseSuperpotential(c1=-599.0, c2=600.0), 0, grid)
    closed = rm2_wavefunction(0, 360600.0, -718800.0, grid).samples
    assert np.max(np.abs(lad - closed)) < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_ladder_state_overlap_rm2(n):
    v1, v2 = 20.0, -3.0
    w = rm2_solve(0.0, v1, v2, n_max=0).w
    grid = Grid(-15.0, 15.0, 4000)
    lad = ladder_state(w, n, grid)
    closed = rm2_wavefunction(n, v1, v2, grid).samples
    weights = grid.weights
    overlap = abs(float(np.sum(weights * lad * closed)))
    assert overlap > 1.0 - 1e-6


@pytest.mark.parametrize("n", [1, 2])
def test_ladder_state_overlap_gpt(n):
    a, b, c = 12.0, 3.0, 1.0
    w = PoschlTellerSuperpotential(a=a, b=b, c=c)
    grid = Grid(1e-3, 20.0, 4000)
    lad = ladder_state(w, n, grid)
    closed = gpt_wavefunction(n, a, b, c, grid).samples
    weights = grid.weights
    overlap = abs(float(np.sum(weights * lad * closed)))
    assert overlap > 1.0 - 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ladder_state_refuses_an_overflowing_state():
    # exp(-C1 x) cosh(x)^(-C2) overflows at the far left of this grid
    grid = Grid(-800.0, 800.0, 4001)
    with pytest.raises(OverflowError, match="non-finite"):
        ladder_state(RosenMorseSuperpotential(c1=1.0, c2=3.0), 1, grid)


def test_ladder_state_coarse_grid_warning():
    w = RosenMorseSuperpotential(c1=0.0, c2=3.0)
    with pytest.warns(UserWarning, match="coarse grid"):
        ladder_state(w, 1, Grid(-10.0, 10.0, 256))


# coefficients that reach every branch: poles, zero C2, overflowing powers
COEFF = st.one_of(st.floats(-30.0, 30.0), st.floats(-1e200, 1e200),
                  st.sampled_from([0.0, -0.25, 2.0, 6.0, 1e-170, 1e160, -1e160]))


def _scalar_level(solve, n):
    """The scalar level n, or None where the solver raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return solve(n).spectrum.levels[n]
        except (ArithmeticError, ValueError):
            return None


def _assert_regular_rows_match(cols, levels):
    for i, lv in enumerate(levels):
        if not cols.regular[i]:
            continue
        assert lv is not None and lv.e_bar is not None
        assert np.float64(lv.e_rel.real).tobytes() == cols.e_re[i].tobytes()
        assert np.float64(lv.e_rel.imag).tobytes() == cols.e_im[i].tobytes()
        assert lv.is_real == cols.is_real[i] and lv.admissible == cols.admissible[i]


@given(rows=st.lists(st.tuples(COEFF, COEFF, COEFF), min_size=1, max_size=12),
       n=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_rm2_level_columns_match_rm2_solve(rows, n):
    v0, v1, v2 = (np.array(col) for col in zip(*rows))
    cols = rm2_level_columns(v0, v1, v2, n)
    _assert_regular_rows_match(cols, [
        _scalar_level(lambda k, r=r: rm2_solve(*r, n_max=k), n) for r in rows])


@given(rows=st.lists(st.tuples(*[COEFF] * 6), min_size=1, max_size=12),
       n=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_gpt_level_columns_match_gpt_solve(rows, n):
    a, b, c, delta, gamma, m2 = (np.array(col) for col in zip(*rows))
    cols = gpt_level_columns(a, b, c, n, delta=delta, gamma=gamma, m2=m2)
    _assert_regular_rows_match(cols, [
        _scalar_level(lambda k, r=r: gpt_solve(*r[:3], n_max=k, delta=r[3],
                                               gamma=r[4], m2=r[5]), n)
        for r in rows])


def test_gpt_level_columns_regular_exactly_where_gpt_solve_is_finite():
    # A - B within 10 % of sqrt(float max), so that the squares of the
    # ladder overflow on some rows and not on others, and some c <= 0
    rng = np.random.default_rng(32)
    root = math.sqrt(np.finfo(float).max)
    rows = 300
    for n in range(1, 5):
        b = rng.uniform(-5.0, 5.0, rows)
        a = b + rng.choice([-1.0, 1.0], rows) * rng.uniform(0.9, 1.1, rows) * root
        c = rng.uniform(-0.01, 0.1, rows) * root
        c[::25] = 0.0
        delta, gamma, m2 = (rng.uniform(0.5, 2.0, rows), rng.uniform(0.0, 3.0, rows),
                            rng.uniform(0.5, 2.0, rows))
        cols = gpt_level_columns(a, b, c, n, delta=delta, gamma=gamma, m2=m2)
        levels = [_scalar_level(lambda k, i=i: gpt_solve(a[i], b[i], c[i], n_max=k,
                                                         delta=delta[i], gamma=gamma[i],
                                                         m2=m2[i]), n)
                  for i in range(rows)]
        finite = [lv is not None and math.isfinite(lv.e_rel.real)
                  and math.isfinite(lv.e_rel.imag) for lv in levels]
        assert cols.regular.tolist() == finite
        assert 0 < sum(finite) < rows
        _assert_regular_rows_match(cols, levels)


def test_level_columns_settle_ordinary_rows_only():
    # V1 = 20: C2 = 4, an ordinary level 3; V1 = 12: C2 = 3, a pole;
    # V1 = -1: 1 + 4 V1 < 0; V2 = 1e300: V2^2 overflows in the radicand
    cols = rm2_level_columns(np.full(4, 1.0), np.array([20.0, 12.0, -1.0, 20.0]),
                             np.array([1.0, 1.0, 1.0, 1e300]), 3)
    assert cols.regular.tolist() == [True, False, False, False]
    # c = 0 is outside gpt_solve's domain; (gamma m2)^2 overflows a power
    one = np.ones(3)
    cols = gpt_level_columns(np.full(3, 9.0), np.full(3, 1.5), np.array([1.0, 0.0, 1.0]),
                             1, delta=one, gamma=np.array([2.0, 2.0, 1e160]), m2=one)
    assert cols.regular.tolist() == [True, False, False]


def test_level_columns_settle_a_level_above_a_pole():
    # V1 = 6: C2 = 2, so level 2 is a pole that rm2_solve steps over
    cols = rm2_level_columns(np.array([1.0]), np.array([6.0]), np.array([0.5]), 3)
    lv = rm2_solve(1.0, 6.0, 0.5, n_max=3).spectrum.levels[3]
    assert cols.regular.tolist() == [True]
    _assert_regular_rows_match(cols, [lv])
    assert (lv.e_rel.real, lv.e_rel.imag) == (1.3919410907075054, 0.0)


def test_far_field_is_finite_without_a_warning():
    # the suite turns RuntimeWarning into an error: x = 400 squared an
    # overflowing cosh, and x = 720 overflowed cosh itself
    pt = gpt_solve(9, 2.5, 1).w
    for x in (400.0, np.array([400.0, 720.0])):
        pp = partner_potentials(pt, x)
        assert np.all(pp.v_minus == 42.25) and np.all(pp.v_plus == 42.25)
    assert ground_state_samples(rm2_solve(0, 12, 1).w, np.array([-720.0, 720.0])).tolist() == [0.0, 0.0]
    # a ground state that is still representable beyond |x| = 710
    w = RosenMorseSuperpotential(c1=-0.4, c2=0.5)
    xs = np.array([-750.0, -720.0, 715.0, 750.0])
    expected = [math.exp(-w.c1 * x) * 2.0 ** w.c2 * math.exp(-w.c2 * abs(x)) for x in xs]
    assert np.allclose(ground_state_samples(w, xs), expected, rtol=1e-13, atol=0.0)


def test_far_field_forms_keep_the_bits_of_every_other_row():
    # the former expressions, on every row where they do not overflow:
    # the oracle's and the states workload's grids among them
    pt = PoschlTellerSuperpotential(a=9.0, b=2.5, c=1.0)
    x = np.concatenate((Grid(1e-3, 20.0, 6000).points, np.linspace(300.0, 355.5, 50),
                        np.linspace(355.7, 800.0, 50)))
    with np.errstate(over="ignore"):
        kept = np.isfinite(np.cosh(pt.c * x) ** 2)
    assert 0 < kept.sum() < x.size
    u = pt.c * x[kept]
    sech2, csch2 = 1.0 / np.cosh(u) ** 2, 1.0 / np.sinh(u) ** 2
    d2 = (pt.a - pt.b) ** 2
    pp = partner_potentials(pt, x)
    assert pp.v_minus[kept].tobytes() == (
        d2 + pt.b * (pt.b - pt.c) * csch2 - pt.a * (pt.a + pt.c) * sech2).tobytes()
    assert pp.v_plus[kept].tobytes() == (
        d2 + pt.b * (pt.b + pt.c) * csch2 - pt.a * (pt.a - pt.c) * sech2).tobytes()
    assert np.all(pp.v_minus[~kept] == d2) and np.all(pp.v_plus[~kept] == d2)
    rm = rm2_solve(0, 12, 1).w
    x = np.concatenate((Grid(-15.0, 15.0, 6000).points, [-710.0, 700.0, 710.0]))
    assert ground_state_samples(rm, x).tobytes() == (
        np.exp(-rm.c1 * x) * np.cosh(x) ** (-rm.c2)).tobytes()


def test_poschl_teller_dw_and_ground_state_are_finite_far_out_without_a_warning():
    # the suite turns RuntimeWarning into an error: at x = 400 dw squared an
    # overflowing cosh, and the ground state's sinh power overflowed
    pt = gpt_solve(9, 2.5, 1).w
    x = np.array([400.0, 720.0])
    assert pt.dw(x).tolist() == [0.0, 0.0]
    assert pt.dw(400.0) == 0.0
    assert ground_state_samples(pt, x).tolist() == [0.0, 0.0]
    # exp(-2u) * 4 (a + b) c, still representable past the overflow at u = 355.5
    assert math.isclose(pt.dw(356.0), 4.0 * math.exp(-712.0) * (pt.a + pt.b) * pt.c,
                        rel_tol=1e-12)
    # sinh(2)**1000 overflows and cosh(2)**-1500 underflows, yet their
    # product is 2.3375885120030679e-304 (40 digits of mpmath)
    steep = PoschlTellerSuperpotential(a=1500.0, b=1000.0, c=1.0)
    assert math.isclose(ground_state_samples(steep, np.array([2.0]))[0],
                        2.337588512003067892e-304, rel_tol=1e-12)


@pytest.mark.parametrize("pt", [PoschlTellerSuperpotential(a=9.0, b=2.5, c=1.0),
                                PoschlTellerSuperpotential(a=3.0, b=1.5, c=0.7),
                                PoschlTellerSuperpotential(a=40.0, b=30.0, c=2.0)])
def test_poschl_teller_dw_and_ground_state_keep_their_bits_up_to_x_20(pt):
    x = np.concatenate((Grid(1e-3, 20.0, 6000).points, [20.0]))
    u = pt.c * x
    assert pt.dw(x).tobytes() == (
        pt.a * pt.c * (1.0 / np.cosh(u) ** 2) + pt.b * pt.c * (1.0 / np.sinh(u) ** 2)).tobytes()
    assert ground_state_samples(pt, x).tobytes() == (
        np.cosh(u) ** (-pt.a / pt.c) * np.sinh(u) ** (pt.b / pt.c)).tobytes()


@pytest.fixture
def partner_spy(monkeypatch, empty_memos):
    """An empty memo store, and the list of x each partner computation samples."""
    computed = []
    original = susy._partner_potentials

    def spy(w, x):
        computed.append(x)
        return original(w, x)

    monkeypatch.setattr(susy, "_partner_potentials", spy)
    return computed


def test_one_partner_evaluation_over_three_residuals(partner_spy):
    # ode_residual samples V on a fresh slice grid.points[2:-2] each call
    w = gpt_solve(9.0, 2.5, 1.0).w
    grid = Grid(1e-3, 20.0, 6000)
    pot = lambda x: partner_potentials(w, x).v_minus
    states = [gpt_wavefunction(n, 9.0, 2.5, 1.0, grid) for n in range(3)]
    got = [ode_residual(pot, st.e_bar, st.samples, grid, skip=45) for st in states]
    assert len(partner_spy) == 1
    pp = partner_potentials(w, grid.points[2:-2])
    for arr in (pp.v_minus, pp.v_plus):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    # the residuals of a computation per call
    del numerics._memos["partners"]
    fresh = lambda x: susy._partner_potentials(w, x).v_minus
    assert got == [ode_residual(fresh, st.e_bar, st.samples, grid, skip=45) for st in states]


_X = np.linspace(0.5, 2.5, 10)


def _with(x, i, value):
    x = x.copy()
    x[i] = value
    return x


@pytest.mark.parametrize("first, second", [
    ((RosenMorseSuperpotential(c1=0.0, c2=3.0), _X),
     (RosenMorseSuperpotential(c1=-0.0, c2=3.0), _X)),
    ((PoschlTellerSuperpotential(a=0.0, b=2.5, c=1.0), _X),
     (PoschlTellerSuperpotential(a=-0.0, b=2.5, c=1.0), _X)),
    ((PoschlTellerSuperpotential(a=9.0, b=0.0, c=1.0), _X),
     (PoschlTellerSuperpotential(a=9.0, b=-0.0, c=1.0), _X)),
    ((RosenMorseSuperpotential(c1=0.5, c2=3.0), _with(_X, 0, 0.0)),
     (RosenMorseSuperpotential(c1=0.5, c2=3.0), _with(_X, 0, -0.0))),
    ((RosenMorseSuperpotential(c1=0.5, c2=3.0), _X),
     (RosenMorseSuperpotential(c1=0.5, c2=3.0), _with(_X, 3, np.nan))),
    ((RosenMorseSuperpotential(c1=0.5, c2=3.0), _X),
     (RosenMorseSuperpotential(c1=0.5, c2=3.0), _X.reshape(2, -1))),
    ((RosenMorseSuperpotential(c1=0.5, c2=3.0), Grid(-15.0, 15.0, 600).points[2:-2]),
     (RosenMorseSuperpotential(c1=0.5, c2=3.0), Grid(-14.0, 14.0, 600).points[2:-2])),
], ids=["negative-zero-c1", "negative-zero-A", "negative-zero-B", "negative-zero-x",
        "nan-x", "reshape", "other-grid"])
def test_partner_memo_misses_on_any_other_bits(first, second, partner_spy):
    for w, x in (first, second):
        got = partner_potentials(w, x)
    assert len(partner_spy) == 2
    want = susy._partner_potentials(*second)
    assert got.v_minus.tobytes() == want.v_minus.tobytes()
    assert got.v_plus.tobytes() == want.v_plus.tobytes()


def test_partner_memo_hits_equal_bits_and_misses_an_array_changed_in_place(partner_spy):
    w = RosenMorseSuperpotential(c1=0.5, c2=3.0)
    x = np.array([np.nan, -1.0, 0.0, 1.0])
    first = partner_potentials(w, x)
    assert partner_potentials(w, x.copy()) is first  # a NaN node among equal bits
    x[1] = -2.0
    assert partner_potentials(w, x).v_minus[1] == pytest.approx(
        partner_potentials(w, np.array([-2.0])).v_minus[0], rel=1e-12)
    assert len(partner_spy) == 3
    partner_potentials(w, 0.5), partner_potentials(w, 0.5)  # scalars are not memoized
    assert len(partner_spy) == 5
