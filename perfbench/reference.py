"""Independent references for the benchmark's checks.

Everything here is written from the paper's formulas with numpy alone and
imports nothing from pdmdirac, so a check never compares the program with a
copy of itself.  Conventions follow the paper: hbar = 2m = 1, the
Rosen-Morse well V0 - V1 sech^2 x + V2 tanh x on the line, and the
Poschl-Teller superpotential A tanh cx - B coth cx on the half line.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def require(ok, what: str):
    if not ok:
        raise CheckFailed(what)


# ----------------------------------------------------------------------
# model constants -> family coefficients
# ----------------------------------------------------------------------

def sigma(omega: float, alpha: float) -> float:
    return 1.0 + 4.0 * alpha * alpha / (omega * omega)


def rm_coefficients(omega, alpha, gamma, beta, m2):
    """(V0, V1, V2) of the cosh-profile family (unit delta)."""
    s = sigma(omega, alpha)
    u = s * beta - 1.0
    v0 = omega / 2.0 + gamma * gamma * s + 0.25 + u * u / (m2 * m2)
    v1 = omega / 2.0 - gamma * gamma * (m2 * m2 - s) - 0.25 + u * u / (m2 * m2)
    return v0, v1, 2.0 * gamma * u


def pt_coefficients(omega, alpha, gamma, delta, c, m2):
    """(A, B) of the coth-profile family."""
    e2 = omega / 2.0 - gamma * gamma * (m2 * m2 - sigma(omega, alpha))
    return c / 2.0 - (e2 + delta * delta * m2 * m2) / (4.0 * c), 1.5 * c


def rm_c2(v1: float) -> float:
    return (math.sqrt(1.0 + 4.0 * v1) - 1.0) / 2.0


# ----------------------------------------------------------------------
# exact ladders, radicands and states
# ----------------------------------------------------------------------

def rm_level(v1, v2, n):
    c2 = rm_c2(v1)
    c1 = v2 / (2.0 * c2)
    s = c2 - n
    return c1 * c1 + c2 * c2 - (c1 * c2 / s) ** 2 - s * s


def pt_level(a, b, c, n):
    d = a - b
    return d * d - (d - 2.0 * c * n) ** 2


def rm_radicand(coeffs, n):
    """V0 + s^2 - V2^2/(4 s^2), s = C2 - n, with a bound on its round-off.

    The bound is 1e-12 of the size of the terms (E^2 cancels them at a window
    edge) plus what an error of 1e-13 (1 + C2) in s does to the pole term
    near s = 0.
    """
    v0, v1, v2 = coeffs
    c2 = rm_c2(v1)
    s = c2 - n
    pole = v2 * v2 / (4.0 * s * s)
    terms = (v0, s * s, -pole)
    ds = 1e-13 * (1.0 + c2)
    return math.fsum(terms), 1e-12 * sum(abs(t) for t in terms) + 2.0 * pole * ds / abs(s)


def pt_radicand(a, b, c, gamma, m2, n):
    """(gamma m2)^2 + Ebar_n with a bound on its round-off."""
    d = a - b
    terms = ((gamma * m2) ** 2, d * d, -(d - 2.0 * c * n) ** 2)
    return math.fsum(terms), 1e-12 * sum(abs(t) for t in terms)


def rm_admissible(v1, v2, n):
    s = rm_c2(v1) - n
    return s > 0.0 and s * s > abs(v2) / 2.0


def pt_admissible(a, b, c, n):
    return a - b - 2.0 * c * n > 0.0 and a / c > 0.0 and b / c > 0.0


def rm_potential(v1, v2, x):
    """v_minus = W^2 - W' for W = C1 + C2 tanh x."""
    c2 = rm_c2(v1)
    c1 = v2 / (2.0 * c2)
    t = np.tanh(x)
    return c1 * c1 + c2 * c2 + 2.0 * c1 * c2 * t - c2 * (c2 + 1.0) / np.cosh(x) ** 2


def pt_potential(a, b, c, x):
    """v_minus = W^2 - W' for W = A tanh cx - B coth cx."""
    u = c * x
    return ((a - b) ** 2 + b * (b - c) / np.sinh(u) ** 2
            - a * (a + c) / np.cosh(u) ** 2)


def jacobi(n: int, p: float, q: float, z):
    """P_n^{(p,q)}(z) from the explicit finite sum."""
    def binom(top, k):
        return math.prod((top - i) / (k - i) for i in range(k))
    lo, hi = (z - 1.0) / 2.0, (z + 1.0) / 2.0
    return sum(binom(n + p, n - m) * binom(n + q, m) * lo ** m * hi ** (n - m)
               for m in range(n + 1))


def rm_state(v1, v2, n, x):
    """Unnormalized level-n state: u^-r v^-s P_n^(-2r,-2s)(-tanh x)."""
    t = n - rm_c2(v1)
    r = (t - v2 / (2.0 * t)) / 2.0
    s = (t + v2 / (2.0 * t)) / 2.0
    th = np.tanh(x)
    # (1 +- tanh x)/2 written without cosh overflow
    return ((1.0 + np.exp(-2.0 * x)) ** r * (1.0 + np.exp(2.0 * x)) ** s
            * jacobi(n, -2.0 * r, -2.0 * s, -th))


def pt_state(a, b, c, n, x):
    """Unnormalized level-n state in y = cosh 2cx."""
    y = np.cosh(2.0 * c * x)
    return ((y - 1.0) ** (b / (2.0 * c)) * (y + 1.0) ** (-a / (2.0 * c))
            * jacobi(n, b / c - 0.5, -a / c - 0.5, y))


# ----------------------------------------------------------------------
# profiles, the similarity weight and the Dirac ansatz
# ----------------------------------------------------------------------

def profile(family, delta, c, gamma, beta, x):
    """A, A', A'', B = gamma A + beta A', B' for A = delta cosh x or
    delta coth cx."""
    if family == "cosh":
        a, a1 = delta * np.cosh(x), delta * np.sinh(x)
        a2 = a
    else:
        coth = 1.0 / np.tanh(c * x)
        csch2 = 1.0 / np.sinh(c * x) ** 2
        a, a1 = delta * coth, -delta * c * csch2
        a2 = 2.0 * delta * c * c * csch2 * coth
    return a, a1, a2, gamma * a + beta * a1, gamma * a1 + beta * a2


def similarity_mismatch(big, small, omega, alpha, beta, prof):
    """Worst relative mismatch of h = rho H rho^-1, coefficient by coefficient.

    With H = C2 d^2 + C1 d + C0, h = c2 d^2 + c1 d + c0 and
    G = -(ln rho)' = (2 alpha/omega) B/A, the identity H rho^-1 = rho^-1 h
    holds exactly when c2 = C2, c1 = C1 + 2 G C2 and
    c0 = C0 + G C1 + (G^2 + G') C2.
    """
    a, a1, a2, b, _ = prof
    k = 2.0 * alpha / omega
    g = k * b / a
    dg = k * beta * (a2 / a - (a1 / a) ** 2)
    pairs = ((small[0], (big[0],)),
             (small[1], (big[1], 2.0 * g * big[0])),
             (small[2], (big[2], g * big[1], (g * g + dg) * big[0])))
    worst = 0.0
    for lhs, parts in pairs:
        size = np.abs(lhs) + sum(np.abs(p) for p in parts)
        worst = max(worst, float(np.max(np.abs(lhs - sum(parts)) / size)))
    return worst


def rho(omega, alpha, gamma, beta, a, x):
    return a ** (-2.0 * alpha * beta / omega) * np.exp(-2.0 * alpha * gamma / omega * x)


def cancellation_bracket(m1, m2, gamma, beta, e_ref, prof, v_i):
    """The imaginary bracket of the reduced equation for the ansatz
    M = m1 A'/A + m2 B/A, V_R = E - E/A and a given V_I."""
    a, a1, a2, b, b1 = prof
    m = m1 * a1 / a + m2 * b / a
    dm = m1 * (a2 / a - (a1 / a) ** 2) + m2 * (b1 / a - b * a1 / (a * a))
    v_r = e_ref - e_ref / a
    dv_r = e_ref * a1 / (a * a)
    return (-2.0 * v_i * v_r + 2.0 * e_ref * v_i - dv_r + dm / m * v_r
            - e_ref * dm / m)


# ----------------------------------------------------------------------
# grid tools
# ----------------------------------------------------------------------

def grid_points(x_min, x_max, n_points):
    h = (x_max - x_min) / (n_points + 1)
    return x_min + h * np.arange(1, n_points + 1), h


def grid_norm2(f, h):
    """Squared L2 norm of interior samples with zero Dirichlet ends.

    The trapezoid rule over the closed grid; the program uses it too on
    even sample counts, which every grid here has.
    """
    return h * float(np.dot(f, f))


def sign_changes(f, floor=1e-12) -> int:
    """Sign changes among the samples above ``floor`` times the peak."""
    f = np.asarray(f, dtype=float)
    keep = f[np.abs(f) >= floor * np.max(np.abs(f))]
    return int(np.count_nonzero(np.signbit(keep[1:]) != np.signbit(keep[:-1])))


def ode_residual(potential_values, e_bar, f, h, skip):
    """|| -f'' + (V - E) f || / || f || on the interior, f'' by the
    five-point fourth-order stencil, ``skip`` further points cut per side."""
    d2 = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1]
          - f[4:]) / (12.0 * h * h)
    core = f[2:-2]
    res = -d2 + (potential_values[2:-2] - e_bar) * core
    if skip:
        res, core = res[skip:-skip], core[skip:-skip]
    return float(np.linalg.norm(res) / np.linalg.norm(core))


def bisect_root(f, lo: float, hi: float) -> float:
    """Root of f in [lo, hi] where f changes sign, to the last bit."""
    f_lo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (f(mid) < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)
