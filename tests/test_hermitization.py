import numpy as np
import pytest

from pdmdirac import (BetaMode, CoshProfile, ModelParams, apply_operator,
                      evaluate_profile, hermitian_coeffs, nonhermitian_coeffs,
                      profile_from_params, rho_weight, schrodinger_potential)
from pdmdirac.errors import DomainError
from pdmdirac.verify import gaussian_triple, rho_inverse_triple, similarity_residual


def test_nonhermitian_hand_value_at_origin():
    params = ModelParams(omega=2.0, alpha=1.0, gamma=0.0, beta=1.0)
    prof = CoshProfile(delta=1.0, gamma=0.0, beta=1.0)
    ops = nonhermitian_coeffs(params, prof)
    assert ops.c2(0.0) == -2.0
    assert ops.c1(0.0) == 0.0
    assert ops.c0(0.0) == 0.0


def test_alpha_zero_collapses_to_hermitian_form():
    params = ModelParams(omega=3.0, alpha=0.0, gamma=0.2, beta=0.4)
    prof = CoshProfile(delta=1.0, gamma=0.2, beta=0.4)
    big = nonhermitian_coeffs(params, prof)
    small = hermitian_coeffs(params, prof)
    xs = np.linspace(-3, 3, 61)
    for pair in ((big.c2, small.c2), (big.c1, small.c1), (big.c0, small.c0)):
        assert np.max(np.abs(pair[0](xs) - pair[1](xs))) < 1e-12


def test_coefficient_parity_for_even_a_odd_b():
    params = ModelParams(omega=2.5, alpha=1.5, gamma=0.0, beta=0.8)
    prof = CoshProfile(delta=1.0, gamma=0.0, beta=0.8)
    ops = nonhermitian_coeffs(params, prof)
    xs = np.linspace(0.1, 3.0, 20)
    assert np.allclose(ops.c2(xs), ops.c2(-xs), rtol=1e-13)
    assert np.allclose(ops.c1(xs), -ops.c1(-xs), rtol=1e-13)
    assert np.allclose(ops.c0(xs), ops.c0(-xs), rtol=1e-13)


def test_ueff_hand_value():
    # omega=3, alpha=2, gamma=0.1, beta=-1/6, cosh profile, x=0:
    # U_eff = 3/2 + 1/2 - 2 + (3 + 16/3)*0.01 = 1/12
    params = ModelParams(omega=3.0, alpha=2.0, gamma=0.1, beta=-1.0 / 6.0)
    prof = CoshProfile(delta=1.0, gamma=0.1, beta=-1.0 / 6.0)
    ops = hermitian_coeffs(params, prof)
    assert ops.c0(0.0) == pytest.approx(1.0 / 12.0, abs=1e-12)
    # independent second coding of the same closed form
    w, a = params.omega, params.alpha
    p = evaluate_profile(prof, 0.0)
    direct = (w / 2.0 - w * (p.a * p.b1 + p.a1 * p.b)
              - a * (p.a1 ** 2 + p.a * p.a2) + (w + 4 * a * a / w) * p.b ** 2)
    assert ops.c0(0.0) == pytest.approx(direct, abs=1e-12)


def test_ueff_constant_when_b_and_alpha_vanish():
    params = ModelParams(omega=4.0, alpha=0.0, gamma=0.0, beta=0.0)
    prof = CoshProfile(delta=1.0)
    ops = hermitian_coeffs(params, prof)
    xs = np.linspace(-5, 5, 41)
    assert np.max(np.abs(ops.c0(xs) - 2.0)) < 1e-14


def test_rho_is_one_for_alpha_zero():
    params = ModelParams(omega=3.0, alpha=0.0, gamma=0.5, beta=0.5)
    prof = CoshProfile(delta=1.0, gamma=0.5, beta=0.5)
    xs = np.linspace(-3, 3, 21)
    assert np.array_equal(rho_weight(params, prof, xs), np.ones_like(xs))


def test_rho_power_law_for_gamma_zero():
    params = ModelParams(omega=3.0, alpha=1.0, gamma=0.0, beta=0.4)
    prof = CoshProfile(delta=1.0, gamma=0.0, beta=0.4)
    xs = np.linspace(-2, 2, 21)
    p = evaluate_profile(prof, xs)
    expected = p.a ** (-2.0 * 1.0 * 0.4 / 3.0)
    assert np.allclose(rho_weight(params, prof, xs), expected, rtol=1e-14)


def test_rho_refuses_a_negative_profile_with_a_non_integer_exponent():
    # delta = -1 makes A = -cosh x < 0, and A^(-2ab/w) = A^(-4/15) is not real
    params = ModelParams(omega=3.0, alpha=1.0, gamma=0.0, beta=0.4, delta=-1.0)
    prof = CoshProfile(delta=-1.0, gamma=0.0, beta=0.4)
    with pytest.raises(DomainError, match="A\\(x\\) <= 0 with a non-integer rho exponent"):
        rho_weight(params, prof, np.linspace(-1.0, 1.0, 5))


def test_rho_exponential_vs_quadrature_for_beta_zero():
    params = ModelParams(omega=3.0, alpha=1.2, gamma=0.3, beta=0.0)
    prof = CoshProfile(delta=1.0, gamma=0.3, beta=0.0)
    for x in (0.5, 1.0, 2.5):
        # quadrature oracle for the exponent integral on [0, x]
        ts = np.linspace(0.0, x, 20001)
        p = evaluate_profile(prof, ts)
        integ = np.trapezoid(p.b / p.a, ts)
        oracle = np.exp(-2.0 * params.alpha / params.omega * integ)
        assert rho_weight(params, prof, x) == pytest.approx(oracle, rel=1e-8)
    xs = np.linspace(-3, 3, 31)
    assert np.all(rho_weight(params, prof, xs) > 0.0)


def test_schrodinger_b_zero_collapse():
    # with B = 0 only the leading, A'' and (A')^2 terms survive
    params = ModelParams(omega=3.0, alpha=1.0, gamma=0.0, beta=0.0)
    prof = CoshProfile(delta=1.0)
    eps = 0.4
    xs = np.linspace(-2, 2, 21)
    got = schrodinger_potential(params, prof, eps, xs, form="generic")
    p = evaluate_profile(prof, xs)
    w, a = 3.0, 1.0
    expected = ((w / 2.0 - eps) / p.a ** 2 + (w - a) * p.a2 / (w * p.a)
                - a * p.a1 ** 2 / (w * p.a ** 2))
    assert np.allclose(got, expected, rtol=1e-14)


@pytest.mark.parametrize("family", ["cosh", "coth"])
def test_schrodinger_forms_agree(family):
    params = ModelParams(omega=3.0, alpha=2.0, gamma=0.1, beta=-1.0 / 6.0, m2=2.0)
    prof = profile_from_params(params, family)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-3, 3, 1000) if family == "cosh" else rng.uniform(0.1, 5, 1000)
    gen = schrodinger_potential(params, prof, 0.37, xs, form="generic")
    ans = schrodinger_potential(params, prof, 0.37, xs, form="ansatz")
    assert np.max(np.abs(gen - ans) / (1.0 + np.abs(ans))) < 1e-10


@pytest.mark.parametrize("form, matched, message", [
    ("ansatz", False, "the ansatz form is defined in the matched convention only"),
    ("closed", True, "unknown form: 'closed'"),
])
def test_schrodinger_refuses_an_unsupported_form(form, matched, message):
    params = ModelParams(omega=3.0, alpha=1.0, gamma=0.2, beta=0.4)
    prof = CoshProfile(delta=1.0, gamma=0.2, beta=0.4)
    with pytest.raises(ValueError, match=f"^{message}$"):
        schrodinger_potential(params, prof, 0.37, 0.5, form=form, matched=matched)


def test_schrodinger_hand_value_at_origin():
    # cosh, delta=1, x=0: A=1, A'=0, A''=1, (AB)' = beta; coefficient is
    # (w/2-eps) - beta + sigma*gamma^2 + (w-a)/w
    params = ModelParams(omega=3.0, alpha=2.0, gamma=0.1, beta=0.25)
    prof = CoshProfile(delta=1.0, gamma=0.1, beta=0.25)
    eps = 0.6
    sigma = 25.0 / 9.0
    expected = (1.5 - eps) - 0.25 + sigma * 0.01 + (3.0 - 2.0) / 3.0
    got = schrodinger_potential(params, prof, eps, 0.0, form="generic")
    assert got == pytest.approx(expected, rel=1e-14)


def test_apply_operator_identity_and_second_derivative():
    from pdmdirac import OperatorCoefficients

    ident = OperatorCoefficients(c2=lambda x: 0.0 * x, c1=lambda x: 0.0 * x,
                                 c0=lambda x: 1.0 + 0.0 * x)
    f = lambda x: np.sin(x)
    assert apply_operator(ident, f, np.cos, lambda x: -np.sin(x), 0.3) == f(0.3)
    dd = OperatorCoefficients(c2=lambda x: 1.0 + 0.0 * x, c1=lambda x: 0.0 * x,
                              c0=lambda x: 0.0 * x)
    sq = lambda x: x * x
    for x in (-1.0, 0.0, 2.5):
        assert apply_operator(dd, sq, lambda x: 2 * x, lambda x: 2.0 + 0 * x, x) == 2.0


def test_apply_operator_matches_finite_difference_application():
    params = ModelParams(omega=3.0, alpha=1.0, gamma=0.2, beta=0.3)
    prof = CoshProfile(delta=1.0, gamma=0.2, beta=0.3)
    ops = nonhermitian_coeffs(params, prof)
    f, f1, f2 = gaussian_triple(0.4, 0.9)
    h = 1e-3
    for x in (-1.2, 0.0, 0.8, 1.7):
        fd1 = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
        fd2 = (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h)
               - f(x - 2 * h)) / (12 * h * h)
        oracle = ops.c2(x) * fd2 + ops.c1(x) * fd1 + ops.c0(x) * f(x)
        exact = apply_operator(ops, f, f1, f2, x)
        assert exact == pytest.approx(oracle, abs=1e-7 * max(1.0, abs(exact)))


def test_conjugated_zeroth_coefficient_matches_ueff():
    # extract c0 of rho H rho^{-1} by applying it to the constant monomial:
    # rho * H(rho^{-1} * 1) is exactly the conjugated operator's c0
    params = ModelParams(omega=3.0, alpha=1.5, gamma=0.2, beta=0.3, m2=1.5)
    prof = CoshProfile(delta=1.0, gamma=0.2, beta=0.3)
    big = nonhermitian_coeffs(params, prof)
    small = hermitian_coeffs(params, prof)
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    f, f1, f2 = rho_inverse_triple(params, prof, one, zero, zero)
    xs = np.linspace(-2.5, 2.5, 20)
    extracted = rho_weight(params, prof, xs) * apply_operator(big, f, f1, f2, xs)
    expected = small.c0(xs)
    assert np.max(np.abs(extracted - expected) / (1 + np.abs(expected))) < 1e-8


@pytest.mark.parametrize("family", ["cosh", "coth"])
@pytest.mark.parametrize("mode", [BetaMode.LITERAL, BetaMode.COUPLING,
                                  BetaMode.MASS_RATIO])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_similarity_identity(family, mode, alpha):
    params = ModelParams(omega=3.0, alpha=alpha, gamma=0.2, beta=0.3,
                         m1=0.4, m2=1.5, beta_mode=mode)
    prof = profile_from_params(params, family)
    xs = np.linspace(-3, 3, 100) if family == "cosh" else np.linspace(0.3, 6, 100)
    worst = similarity_residual(params, prof, xs)
    assert worst < (1e-12 if alpha == 0.0 else 1e-8)


@pytest.mark.parametrize("family", ["cosh", "coth"])
def test_substitution_chain(family):
    # h acting on xi = Phi/A equals -w A (Phi'' - bracket*Phi) + eps*Phi/A,
    # with the bracket in the direct-reduction convention (matched=False).
    params = ModelParams(omega=3.0, alpha=1.5, gamma=0.15, beta=0.3, m2=1.5)
    prof = profile_from_params(params, family)
    small = hermitian_coeffs(params, prof)
    eps = 0.8
    xs = np.linspace(-2.5, 2.5, 80) if family == "cosh" else np.linspace(0.4, 5, 80)
    phi, phi1, phi2 = gaussian_triple(0.9, 0.8)

    def xi(x):
        return phi(x) / evaluate_profile(prof, x).a

    def xi1(x):
        p = evaluate_profile(prof, x)
        return phi1(x) / p.a - phi(x) * p.a1 / p.a ** 2

    def xi2(x):
        p = evaluate_profile(prof, x)
        return (phi2(x) / p.a - 2.0 * phi1(x) * p.a1 / p.a ** 2
                + phi(x) * (2.0 * p.a1 ** 2 / p.a ** 3 - p.a2 / p.a ** 2))

    lhs = apply_operator(small, xi, xi1, xi2, xs)
    p = evaluate_profile(prof, xs)
    bracket = schrodinger_potential(params, prof, eps, xs, form="generic",
                                    matched=False)
    rhs = (-params.omega * p.a * (phi2(xs) - bracket * phi(xs))
           + eps * phi(xs) / p.a)
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale


@pytest.mark.parametrize("family", ["cosh", "coth"])
def test_leading_coefficient_is_one_formula_for_both_operators(family):
    # c2 = -omega A^2 in H and in h, with the same bits as the formula
    params = ModelParams(omega=3.0, alpha=0.5, gamma=0.5, beta=-0.9, m1=0.35, m2=0.5)
    prof = profile_from_params(params, family)
    xs = np.linspace(0.05, 6.0, 300)
    p = evaluate_profile(prof, xs)
    formula = (-params.omega * p.a * p.a).tobytes()
    for coeffs in (nonhermitian_coeffs(params, prof), hermitian_coeffs(params, prof)):
        assert coeffs.c2(xs).tobytes() == formula
        a = evaluate_profile(prof, 1.5).a
        assert coeffs.c2(1.5) == -params.omega * a * a
