"""Named self-verification checks, shared by the ``verify`` CLI command and the
acceptance suite.

Each check compares an implementation route against an independent route
(finite differences, quadrature, a second closed form, the finite-difference
eigensolver, an exact value) and reports a residual with its tolerance; it
passes when the residual is strictly below the tolerance.  A yes/no condition
is a 0/1 value with tolerance 0.5, a time limit a value in seconds.

A check that carries an acceptance criterion is named after it
(``criterion 3: ...``) and keeps that criterion's grids, seeds, draws and
tolerance; ``tests/test_acceptance.py`` asserts that every check passes.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from . import dirac, hermitization, numerics, susy, wavefunctions
from .model import (BetaMode, ModelParams, derived_constants,
                    evaluate_profile, profile_from_params)


class Check(NamedTuple):
    name: str
    value: float
    tol: float

    def passed(self, scale: float = 1.0) -> bool:
        return bool(self.value < self.tol * scale)


def _holds(name: str, condition) -> Check:
    return Check(name, 0.0 if condition else 1.0, 0.5)


def _params(**kw) -> ModelParams:
    base = dict(omega=3.0, alpha=1.0, gamma=0.2, beta=0.3, m1=0.4, m2=1.5)
    base.update(kw)
    return ModelParams(**base)


def _sample_points(family: str, count: int, rng) -> np.ndarray:
    if family == "cosh":
        return rng.uniform(-3.0, 3.0, count)
    return rng.uniform(0.15, 5.0, count)


def _criterion_points(seed: int) -> dict[str, np.ndarray]:
    """1000 points per family for criteria 5 and 6, drawn cosh first."""
    rng = np.random.default_rng(seed)
    return {"cosh": rng.uniform(-3, 3, 1000), "coth": rng.uniform(0.1, 5, 1000)}


def _rel_diff(got, ref) -> float:
    return float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))


# the two cases that criteria 9, 10 and 12 share, one per family:
# (label, exact solution, closed-form state builder, grid)
def _state_cases(n_points: int):
    rm2 = susy.rm2_solve(0.0, 20.0, -3.0, n_max=3)
    gpt = susy.gpt_solve(12.0, 3.0, 1.0, n_max=3)
    return (
        ("Rosen-Morse", rm2,
         lambda n, g: wavefunctions.rm2_wavefunction(n, 20.0, -3.0, g),
         numerics.Grid(-15.0, 15.0, n_points)),
        ("Poschl-Teller", gpt,
         lambda n, g: wavefunctions.gpt_wavefunction(n, 12.0, 3.0, 1.0, g),
         numerics.Grid(1e-3, 20.0, n_points)),
    )


def suite_model() -> list[Check]:
    rng = np.random.default_rng(11)
    checks = []
    sol = derived_constants(_params(alpha=2.0, gamma=0.1, m2=2.0, beta_mode=BetaMode.COUPLING))
    checks.append(Check("sigma(3,2) equals 25/9", abs(sol.sigma - 25.0 / 9.0), 1e-15))
    checks.append(Check("coupling beta equals -1/6", abs(sol.beta + 1.0 / 6.0), 1e-15))
    for family in ("cosh", "coth"):
        prof = profile_from_params(_params(), family)
        xs = _sample_points(family, 60, rng)
        p = evaluate_profile(prof, xs)
        h = 1e-4
        fd1 = (evaluate_profile(prof, xs + h).a - evaluate_profile(prof, xs - h).a) / (2 * h)
        fd2 = (evaluate_profile(prof, xs + h).a1 - evaluate_profile(prof, xs - h).a1) / (2 * h)
        checks.append(Check(f"{family}: A' matches finite differences",
                            _rel_diff(p.a1, fd1), 1e-6))
        checks.append(Check(f"{family}: A'' matches finite differences",
                            _rel_diff(p.a2, fd2), 1e-6))
    sol2 = derived_constants(_params(alpha=0.5, gamma=0.1, m2=2.0, beta_mode=BetaMode.COUPLING))
    res = abs(sol2.m1_plus * (sol2.m1_plus + sol2.beta * 2.0) - (0.25 - 0.5 / 3.0))
    checks.append(Check("m1 root solves its quadratic", res, 1e-12))
    return checks


def suite_hermitization() -> list[Check]:
    checks = []
    for family in ("cosh", "coth"):
        xs = (np.linspace(-3.0, 3.0, 100) if family == "cosh"
              else np.linspace(0.3, 6.0, 100))
        for alpha in (0.0, 1.0, 2.0):
            params = _params(alpha=alpha)
            prof = profile_from_params(params, family)
            worst = similarity_residual(params, prof, xs)
            tol = 1e-12 if alpha == 0.0 else 1e-8
            checks.append(Check(f"criterion 4: similarity identity "
                                f"({family}, alpha={alpha:g})", worst, tol))
        params = _params()
        prof = profile_from_params(params, family)
        xs = _sample_points(family, 500, np.random.default_rng(7))
        rho = hermitization.rho_weight(params, prof, xs)
        checks.append(_holds(f"rho positive ({family})", np.all(rho > 0.0)))
    params = _params(gamma=0.3, beta=0.2)
    for family, xs in _criterion_points(5).items():
        prof = profile_from_params(params, family)
        gen = hermitization.schrodinger_potential(params, prof, 0.37, xs, form="generic")
        ans = hermitization.schrodinger_potential(params, prof, 0.37, xs, form="ansatz")
        checks.append(Check(f"criterion 6: second-order forms agree ({family})",
                            _rel_diff(gen, ans), 1e-10))
    return checks


def gaussian_triple(x0: float, sw: float):
    """exp(-((x - x0)/sw)^2) and its first two derivatives, in closed form."""
    def f(x):
        return np.exp(-((x - x0) / sw) ** 2)

    def f1(x):
        return f(x) * (-2.0 * (x - x0) / sw ** 2)

    def f2(x):
        return f(x) * (4.0 * (x - x0) ** 2 / sw ** 4 - 2.0 / sw ** 2)

    return f, f1, f2


def rho_inverse_triple(params: ModelParams, prof, xi, xi1, xi2):
    """rho^{-1} xi and its first two derivatives, in closed form."""
    w, al = params.omega, params.alpha

    def rinv(x):
        p = evaluate_profile(prof, x)
        return p.a ** (2.0 * al * prof.beta / w) * np.exp(2.0 * al * prof.gamma / w * x)

    def g(x):
        p = evaluate_profile(prof, x)
        return 2.0 * al / w * (p.b / p.a)

    def dg(x):
        p = evaluate_profile(prof, x)
        return 2.0 * al / w * prof.beta * (p.a2 / p.a - (p.a1 / p.a) ** 2)

    def f(x):
        return rinv(x) * xi(x)

    def f1(x):
        return rinv(x) * (xi1(x) + g(x) * xi(x))

    def f2(x):
        return rinv(x) * (xi2(x) + 2.0 * g(x) * xi1(x) + (g(x) ** 2 + dg(x)) * xi(x))

    return f, f1, f2


def similarity_residual(params: ModelParams, prof, xs: np.ndarray) -> float:
    """Worst pointwise mismatch of H(rho^{-1} xi) against rho^{-1} h(xi) over
    five Gaussian test functions, relative to max |h(xi)|.

    All derivatives of rho^{-1} xi are closed-form, so the residual isolates
    coefficient errors from discretization error.
    """
    big_h = hermitization.nonhermitian_coeffs(params, prof)
    small_h = hermitization.hermitian_coeffs(params, prof)
    worst = 0.0
    for x0 in np.linspace(xs[0] + 0.5, xs[-1] - 0.5, 5):
        xi, xi1, xi2 = gaussian_triple(x0, 0.7)
        f, f1, f2 = rho_inverse_triple(params, prof, xi, xi1, xi2)
        lhs = hermitization.apply_operator(big_h, f, f1, f2, xs)
        hxi = hermitization.apply_operator(small_h, xi, xi1, xi2, xs)
        rhs = hxi / hermitization.rho_weight(params, prof, xs)
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(hxi))))
    return worst


def suite_dirac() -> list[Check]:
    checks = []
    params = _params(gamma=0.3, beta=0.2)
    e_ref = 1.3
    points5, points6 = _criterion_points(4), _criterion_points(5)
    for family in ("cosh", "coth"):
        prof = profile_from_params(params, family)
        mass, vr = dirac.dirac_profiles(params, prof, e_ref)
        pot = dirac.complete_potential(mass, vr.v, vr.dv, e_ref)
        bracket = dirac.cancellation_residual(mass, vr, pot.v_i, e_ref, points5[family])
        checks.append(Check(f"criterion 5: imaginary bracket vanishes ({family})",
                            float(np.max(np.abs(bracket))), 1e-12))
        xs = points6[family]
        v_gen = dirac.effective_potential_general(mass, vr, e_ref, xs)
        v_ans = dirac.effective_potential_ansatz(params, prof, e_ref, xs)
        checks.append(Check(f"criterion 6: effective-potential forms agree ({family})",
                            _rel_diff(v_gen, v_ans), 1e-10))
    return checks


def suite_susy() -> list[Check]:
    rng = np.random.default_rng(12)
    xs_line = np.linspace(-8.0, 8.0, 1000)
    xs_half = np.linspace(0.02, 20.0, 1000)
    t0 = time.perf_counter()
    worst_rm2 = 0.0
    worst_gpt = 0.0
    for _ in range(50):
        c2 = rng.uniform(1.5, 6.0)
        c1 = rng.uniform(-0.8, 0.8) * c2
        w = susy.RosenMorseSuperpotential(c1=c1, c2=c2)
        worst_rm2 = max(worst_rm2, float(np.max(np.abs(susy.si_check(w, xs_line)))))
        a = rng.uniform(4.0, 12.0)
        b = rng.uniform(0.5, a - 2.5)
        c = rng.uniform(0.5, 2.0)
        wg = susy.gpt_superpotential(a, b, c)
        worst_gpt = max(worst_gpt, float(np.max(np.abs(susy.si_check(wg, xs_half)))))
    checks = [Check("criterion 3: shape-invariance residual (Rosen-Morse)", worst_rm2, 1e-10),
              Check("criterion 3: shape-invariance residual (Poschl-Teller)", worst_gpt, 1e-10),
              Check("criterion 3: seconds for the 100 parameter sets",
                    time.perf_counter() - t0, 5.0)]
    w = susy.RosenMorseSuperpotential(c1=-0.375, c2=4.0)
    tel = max(abs(susy.si_remainder_ladder(w, n) - susy.si_remainder_ladder(w, n - 1)
                  - _direct_remainder(w, n)) for n in (1, 2, 3))
    checks.append(Check("ladder telescoping (Rosen-Morse)", tel, 1e-12))
    rng2 = np.random.default_rng(9)
    xs = rng2.uniform(-3.0, 3.0, 200)
    pp = susy.partner_potentials(w, xs)
    direct_minus = w.w(xs) ** 2 - w.dw(xs)
    direct_plus = w.w(xs) ** 2 + w.dw(xs)
    diff = max(float(np.max(np.abs(pp.v_minus - direct_minus))),
               float(np.max(np.abs(pp.v_plus - direct_plus))))
    checks.append(Check("expanded partners equal W^2 -+ W'", diff, 1e-12))
    checks += _half_line_window() + _whole_line_window()
    # criterion 10: the partners share every level above the ground level
    for (label, sol, _, grid), k in zip(_state_cases(6000), (2, 3)):
        minus = numerics.discretize_and_solve(
            lambda x: susy.partner_potentials(sol.w, x).v_minus, grid, k + 1,
            eigenvectors=False)
        plus = numerics.discretize_and_solve(
            lambda x: susy.partner_potentials(sol.w, x).v_plus, grid, k,
            eigenvectors=False)
        gap = float(np.max(np.abs(plus.eigenvalues - minus.eigenvalues[1:k + 1])))
        checks.append(Check(f"criterion 10: partner spectra degenerate above the "
                            f"ground level ({label})", gap, 1e-3))
    for label, sol, closed, grid in _state_cases(4000):
        weights = grid.weights
        defect = 0.0
        for n in (1, 2):
            lad = susy.ladder_state(sol.w, n, grid)
            overlap = abs(float(np.sum(weights * lad * closed(n, grid).samples)))
            defect = max(defect, 1.0 - overlap)
        checks.append(Check(f"criterion 12: ladder states n = 1, 2 against closed forms, "
                            f"1 - overlap ({label})", defect, 1e-5))
    return checks


def _direct_remainder(w, n: int) -> float:
    # R(a_n) straight from the shape-invariance constant at one point
    a_prev = w.shifted(n - 1)
    a_n = w.shifted(n)
    x0 = 0.37
    return float(susy.partner_potentials(a_prev, x0).v_plus
                 - susy.partner_potentials(a_n, x0).v_minus)


def _half_line_window() -> list[Check]:
    """Criterion 7: the paper's level-3 reality threshold near m2 = 1.404."""
    def radicand(m2, n):
        params = ModelParams(omega=5.0, alpha=1.0, gamma=10.0, beta=0.0,
                             delta=0.5, c=3.0, m2=m2, beta_mode=BetaMode.COUPLING)
        a, b = susy.gpt_params_ab(params)
        w = susy.gpt_superpotential(a, b, 3.0)
        return (10.0 * m2) ** 2 + susy.si_remainder_ladder(w, n)

    lo, hi = 0.5, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if radicand(mid, 3) < 0.0 else (lo, mid)
    crossing = 0.5 * (lo + hi)
    ground_real = all(radicand(m2, 0) >= 0.0 for m2 in np.linspace(0.1, 8.0, 200))
    return [Check("criterion 7: level-3 radicand sign change, |m2 - 1.404|",
                  abs(crossing - 1.404), 0.01),
            _holds("criterion 7: level 0 real on m2 in [0.1, 8]", ground_real)]


def _whole_line_window() -> list[Check]:
    """Criterion 8: the level-3 imaginary window for m2 in [4, 6].

    Caption-literal constants: n = 3, alpha = 2, omega = 3, gamma = 0.1, beta = 6.
    """
    omega, alpha, gamma, beta = 3.0, 2.0, 0.1, 6.0
    claims = {4.2145: 0.0565786, 5.6142: 0.0310165}
    claim_err = 0.0
    for m2, expected in claims.items():
        params = ModelParams(omega=omega, alpha=alpha, gamma=gamma, beta=beta, m2=m2)
        lv = susy.rm2_solve_from_params(params, n_max=3).spectrum.levels[3]
        claim_err = max(claim_err, abs(abs(lv.e_rel.imag) - expected))
    # the window from one array pass over m2, the pass that pdmdirac sweep runs
    m2 = np.linspace(4.0, 6.0, 201)
    co = susy.rm2_coefficients(omega, alpha, gamma, beta, m2)
    lv = susy.rm2_level_columns(co.v0, co.v1, co.v2, 3)
    # the reality flags against the level-3 radicand V0 + S^2 - V2^2/(4 S^2),
    # S = C2 - 3, written out here from the model constants apart from susy;
    # a radicand within round-off of zero may carry either flag
    sigma = (omega ** 2 + 4.0 * alpha ** 2) / omega ** 2
    v0 = omega / 2.0 + gamma ** 2 * sigma + 0.25 + ((sigma * beta - 1.0) / m2) ** 2
    v1 = (omega / 2.0 - gamma ** 2 * (m2 ** 2 - sigma) - 0.25
          + (sigma * beta - 1.0) ** 2 / m2 ** 2)
    v2 = 2.0 * gamma * (sigma * beta - 1.0)
    disc = 1.0 + 4.0 * v1
    s = (np.sqrt(np.maximum(disc, 0.0)) - 1.0) / 2.0 - 3.0
    rad = v0 + s ** 2 - v2 ** 2 / (4.0 * s ** 2)
    near_zero = np.abs(rad) <= 1e-12 * (1.0 + np.abs(v0))
    flags_consistent = np.all(lv.regular & (disc > 0.0)
                              & (near_zero | (lv.is_real == (rad > 0.0))))
    return [Check("criterion 8: |Im E_3| at the window ends against the paper",
                  claim_err, 1e-3),
            _holds("criterion 8: imaginary window inside m2 in [4, 6]",
                   0 < np.sum(~lv.is_real) < m2.size),
            _holds("criterion 8: reality flags mirror the radicand sign",
                   flags_consistent)]


def suite_wavefunctions() -> list[Check]:
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        a, b = rng.uniform(-5.0, 5.0, 2)
        z = rng.uniform(-1.0, 1.0)
        n = int(rng.integers(0, 11))
        r = wavefunctions.jacobi_eval(n, a, b, z)
        s = wavefunctions.jacobi_eval_sum(n, a, b, z)
        worst = max(worst, abs(r - s) / max(1.0, abs(s)))
    checks = [Check("criterion 11: jacobi recurrence vs explicit sum, 1000 draws",
                    worst, 1e-9)]

    v1, v2 = 12.0, 1.0
    c2 = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * v1))
    c1 = v2 / (2.0 * c2)
    xs = np.linspace(-5.0, 5.0, 101)
    phi0, _ = wavefunctions.rm2_state_evaluator(0, v1, v2)
    ratio = phi0(xs) / (np.exp(-c1 * xs) * np.cosh(xs) ** (-c2))
    checks.append(Check("Rosen-Morse n=0 matches exp/cosh form",
                        float(np.max(np.abs(ratio / ratio[0] - 1.0))), 1e-8))
    a, b, c = 5.0, 1.5, 1.0
    xg = np.linspace(0.05, 10.0, 101)
    phig, _ = wavefunctions.gpt_state_evaluator(0, a, b, c)
    ratio_g = phig(xg) / (np.cosh(c * xg) ** (-a / c) * np.sinh(c * xg) ** (b / c))
    checks.append(Check("Poschl-Teller n=0 matches cosh/sinh form",
                        float(np.max(np.abs(ratio_g / ratio_g[0] - 1.0))), 1e-8))

    # criterion 9: the states n <= 3; the Poschl-Teller wall needs skip = 45
    for (label, sol, closed, grid), skip in zip(_state_cases(6000), (0, 45)):
        pot = lambda x, w=sol.w: susy.partner_potentials(w, x).v_minus
        weights = grid.weights
        res = 0.0
        nodes_ok = True
        states = []
        for lv in sol.spectrum.admissible():
            st = closed(lv.n, grid)
            res = max(res, numerics.ode_residual(pot, st.e_bar, st.samples, grid, skip=skip))
            nodes_ok &= st.nodes == lv.n
            states.append(st.samples)
        orth = max(abs(float(np.sum(weights * states[m] * states[n])))
                   for m in range(len(states)) for n in range(m + 1, len(states)))
        checks += [Check(f"criterion 9: ODE residual, states n <= 3 ({label})", res, 1e-6),
                   Check(f"criterion 9: orthogonality, states n <= 3 ({label})", orth, 1e-6),
                   _holds(f"criterion 9: node counts equal level index ({label})", nodes_ok)]
    return checks


def suite_numerics() -> list[Check]:
    checks = []
    g = numerics.Grid(0.0, math.pi, 1201)
    r = numerics.discretize_and_solve(lambda x: 0.0 * x, g, 2)
    checks.append(Check("box ground eigenvalue", abs(r.eigenvalues[0] - 1.0), 1e-4))
    g2 = numerics.Grid(-12.0, 12.0, 1601)
    r2 = numerics.discretize_and_solve(lambda x: x * x, g2, 2)
    checks.append(Check("oscillator ground eigenvalue", abs(r2.eigenvalues[0] - 1.0), 1e-3))
    gq = numerics.Grid(0.0, math.pi, 999)
    nrm = numerics.quadrature_norm(np.sin(gq.points), gq)
    checks.append(Check("quadrature norm of sin on [0, pi]",
                        abs(nrm - math.sqrt(math.pi / 2.0)), 1e-10))
    checks += _ladder_vs_oracle(
        1, "Rosen-Morse", ((6.0, 0.0), (12.0, 2.0), (20.0, -3.0)),
        lambda v1, v2: (susy.rm2_solve(0.0, v1, v2, n_max=5),
                        numerics.Grid(-15.0, 15.0, 6000)))
    checks += _ladder_vs_oracle(
        2, "Poschl-Teller", ((5.0, 1.5, 1.0), (9.0, 3.0, 2.0)),
        lambda a, b, c: (susy.gpt_solve(a, b, c, n_max=5),
                         numerics.Grid(1e-3 / c, 20.0 / c, 6000)))
    return checks


def _ladder_vs_oracle(num: int, label: str, cases, solve) -> list[Check]:
    """Criteria 1 and 2: each admissible exact level against the eigensolver,
    the worst error over max(5e-4, 1e-3 |E|), and the slowest case in seconds."""
    worst = 0.0
    slowest = 0.0
    for args in cases:
        t0 = time.perf_counter()
        sol, grid = solve(*args)
        admissible = sol.spectrum.admissible()
        pot = lambda x: susy.partner_potentials(sol.w, x).v_minus
        fd = numerics.discretize_and_solve(pot, grid, len(admissible), eigenvectors=False)
        for lv, lam in zip(admissible, fd.eigenvalues):
            err = abs(lv.e_bar - lam)
            tol = max(5e-4, 1e-3 * abs(lv.e_bar))
            worst = max(worst, err / tol)
        slowest = max(slowest, time.perf_counter() - t0)
    return [Check(f"criterion {num}: {label} ladder vs eigensolver, worst error/tol",
                  float(worst), 1.0),
            Check(f"criterion {num}: seconds for the slowest {label} parameter set",
                  slowest, 30.0)]


SUITES = {
    "model": suite_model,
    "hermitization": suite_hermitization,
    "dirac": suite_dirac,
    "susy": suite_susy,
    "wavefunctions": suite_wavefunctions,
    "numerics": suite_numerics,
}


def run_suites(names: list[str], tolerance_scale: float = 1.0) -> tuple[list[tuple[str, Check, bool]], bool]:
    results = []
    all_ok = True
    for name in names:
        for check in SUITES[name]():
            ok = check.passed(tolerance_scale)
            all_ok = all_ok and ok
            results.append((name, check, ok))
    return results, all_ok


def result_line(suite: str, check: Check, ok: bool) -> str:
    """One PASS/FAIL line, as ``pdmdirac verify`` prints it."""
    return (f"[{'PASS' if ok else 'FAIL'}] {suite}: {check.name}  "
            f"(value {check.value:.3e}, tol {check.tol:.1e})")
