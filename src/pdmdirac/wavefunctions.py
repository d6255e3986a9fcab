"""Jacobi polynomials at general parameters and the closed-form bound states.

The two families' eigenstates reduce to Jacobi polynomials with (generally
negative, non-integer) superscripts, evaluated outside [-1, 1] for the
half-line family.  The three-term recurrence is the fast path; whenever one
of its denominators degenerates the explicit finite hypergeometric sum (which
is always defined for integer n >= 0) takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import ModelParams
from .numerics import Grid, count_nodes, normalize
from .susy import (PoschlTellerSuperpotential, Superpotential, gpt_admissible,
                   rm2_admissible, rm2_superpotential, si_remainder_ladder)

# recurrence denominators closer to zero than this switch to the explicit
# sum; at the boundary the cancellation error is ~eps/_GUARD ~ 1e-10, safely
# under the dual-route agreement tolerance
_GUARD = 1e-6


@dataclass(frozen=True)
class BoundState:
    """A normalized bound state sampled on a grid."""

    n: int
    samples: np.ndarray
    e_bar: float
    nodes: int


def jacobi_recurrence_degenerate(n: int, a: float, b: float) -> bool:
    """True when some recurrence denominator 2k(k+a+b)(2k+a+b-2), k <= n,
    is within the guard threshold of zero."""
    for k in range(2, n + 1):
        if abs(k + a + b) < _GUARD or abs(2.0 * k + a + b - 2.0) < _GUARD:
            return True
    return False


def _genbinom(p: float, k: int) -> float:
    # generalized binomial via the falling factorial; defined for any real p
    out = 1.0
    for i in range(k):
        out *= (p - i) / (k - i)
    return out


def jacobi_eval_sum(n: int, a: float, b: float, z):
    """P_n^{(a,b)}(z) by the explicit finite sum

        sum_m C(n+a, n-m) C(n+b, m) ((z-1)/2)^m ((z+1)/2)^{n-m},

    always defined for integer n >= 0; the independent route used as the
    oracle for the recurrence.
    """
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    z = np.asarray(z, dtype=float)
    lo = (z - 1.0) / 2.0
    hi = (z + 1.0) / 2.0
    total = np.zeros_like(z)
    for m in range(n + 1):
        coef = _genbinom(n + a, n - m) * _genbinom(n + b, m)
        total = total + coef * lo ** m * hi ** (n - m)
    return total if total.ndim else float(total)


def jacobi_eval(n: int, a: float, b: float, z):
    """P_n^{(a,b)}(z) by the three-term recurrence with a guarded fallback.

    The recurrence

        2k(k+a+b)(2k+a+b-2) P_k = (2k+a+b-1)[(2k+a+b)(2k+a+b-2) z + a^2-b^2] P_{k-1}
                                  - 2(k+a-1)(k+b-1)(2k+a+b) P_{k-2}

    degenerates when a+b hits -k or 2-2k; those parameter slices fall back to
    :func:`jacobi_eval_sum`.
    """
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    z = np.asarray(z, dtype=float)
    ones = np.ones_like(z)
    if n == 0:
        return ones if ones.ndim else 1.0
    p_prev = ones
    p = 0.5 * ((a + b + 2.0) * z + (a - b))
    if n == 1:
        return p if np.ndim(p) else float(p)
    if jacobi_recurrence_degenerate(n, a, b):
        return jacobi_eval_sum(n, a, b, z)
    for k in range(2, n + 1):
        s = 2.0 * k + a + b
        denom = 2.0 * k * (k + a + b) * (s - 2.0)
        t1 = (s - 1.0) * ((s * (s - 2.0)) * z + (a * a - b * b))
        t2 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        p, p_prev = (t1 * p - t2 * p_prev) / denom, p
    return p if np.ndim(p) else float(p)


def jacobi_derivative(n: int, a: float, b: float, z):
    """d/dz P_n^{(a,b)}(z) = (n+a+b+1)/2 * P_{n-1}^{(a+1,b+1)}(z)."""
    if n == 0:
        z = np.asarray(z, dtype=float)
        return np.zeros_like(z) if z.ndim else 0.0
    return 0.5 * (n + a + b + 1.0) * jacobi_eval(n - 1, a + 1.0, b + 1.0, z)


# ----------------------------------------------------------------------
# hyperbolic Rosen-Morse states (whole line)
# ----------------------------------------------------------------------

def rm2_exponents(n: int, v1: float, v2: float) -> tuple[float, float]:
    """The half-angle exponents (r, s) of the level-n state:

        t = n + (1 - sqrt(1 + 4 V1))/2   (= n - C2),
        r = (t - (V2/2)/t)/2,   s = (t + (V2/2)/t)/2.
    """
    disc = 1.0 + 4.0 * v1
    if disc <= 0.0:
        raise ValueError("1 + 4*V1 must be positive")
    t = n + 0.5 * (1.0 - math.sqrt(disc))
    if t == 0.0:
        raise ZeroDivisionError(f"exponents undefined at C2 - n = 0 (n = {n})")
    r = 0.5 * (t - 0.5 * v2 / t)
    s = 0.5 * (t + 0.5 * v2 / t)
    return r, s


def rm2_state_evaluator(n: int, v1: float, v2: float):
    """Closed-form level-n state of -phi'' + (-V1 sech^2 x + V2 tanh x + const) phi.

    Returns (phi, dphi) evaluators:

        phi(x) = u^{-r} v^{-s} P_n^{(-2r,-2s)}(-tanh x),
        u = (1+tanh x)/2,  v = (1-tanh x)/2,

    computed through the overflow-free forms u = 1/(1+e^{-2x}),
    v = 1/(1+e^{2x}); dphi is the exact derivative.
    """
    r, s = rm2_exponents(n, v1, v2)
    aj, bj = -2.0 * r, -2.0 * s

    def _parts(x):
        x = np.asarray(x, dtype=float)
        u = 1.0 / (1.0 + np.exp(-2.0 * x))
        v = 1.0 / (1.0 + np.exp(2.0 * x))
        return u ** (-r) * v ** (-s), np.tanh(x)

    def phi(x):
        pref, t = _parts(x)
        return pref * jacobi_eval(n, aj, bj, -t)

    def dphi(x):
        pref, t = _parts(x)
        poly = jacobi_eval(n, aj, bj, -t)
        dpoly = jacobi_derivative(n, aj, bj, -t)
        return pref * ((-r * (1.0 - t) + s * (1.0 + t)) * poly
                       - (1.0 - t * t) * dpoly)

    return phi, dphi


def _bound_state(n: int, samples: np.ndarray, mass: np.ndarray | None,
                 w: Superpotential, grid: Grid) -> BoundState:
    # the shared tail: optional sqrt(M) factor, normalization, level energy
    if mass is not None:
        if np.any(mass <= 0.0):
            raise DomainError("M(x) must be positive on the grid for the "
                              "spinor factor")
        samples = np.sqrt(mass) * samples
    samples = normalize(samples, grid)
    return BoundState(n=n, samples=samples, e_bar=si_remainder_ladder(w, n),
                      nodes=count_nodes(samples))


def rm2_wavefunction(n: int, v1: float, v2: float, grid: Grid,
                     spinor: ModelParams | None = None) -> BoundState:
    """Normalized level-n Rosen-Morse bound state sampled on the grid.

    With model constants ``spinor``, the state is multiplied by sqrt(M(x)),
    M = m2 g + (m1 + b m2) tanh x; M must stay positive on the grid.
    """
    disc = 1.0 + 4.0 * v1
    if disc <= 0.0:
        raise ValueError("1 + 4*V1 must be positive")
    w = rm2_superpotential(disc, v2)
    c2 = w.c2
    if not rm2_admissible(n, c2, v2):
        raise ValueError(
            f"level n = {n} is not admissible: needs C2 - n > 0 and "
            f"(C2 - n)^2 > |V2|/2 with C2 = {c2}")
    phi, _ = rm2_state_evaluator(n, v1, v2)
    mass = None
    if spinor is not None:
        cross = spinor.m1 + spinor.beta_effective * spinor.m2
        mass = spinor.m2 * spinor.gamma + cross * np.tanh(grid.points)
    return _bound_state(n, phi(grid.points), mass, w, grid)


# ----------------------------------------------------------------------
# generalized Poschl-Teller states (half line)
# ----------------------------------------------------------------------

def gpt_state_evaluator(n: int, a: float, b: float, c: float):
    """Closed-form level-n state of the half-line family, as (phi, dphi).

    In the variable y = cosh(2cx):

        phi = (y-1)^{B/2c} (y+1)^{-A/2c} P_n^{(B/c - 1/2, -A/c - 1/2)}(y),

    evaluated through (y-1) = 2 sinh^2(cx), (y+1) = 2 cosh^2(cx).  The
    half exponents make the n = 0 state reduce exactly to
    cosh^{-A/c}(cx) sinh^{B/c}(cx).
    """
    aj = b / c - 0.5
    bj = -a / c - 0.5

    def _parts(x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise DomainError("half-line state evaluated at x <= 0")
        u = c * x
        pref = ((2.0 * np.sinh(u) ** 2) ** (b / (2.0 * c))
                * (2.0 * np.cosh(u) ** 2) ** (-a / (2.0 * c)))
        y = np.cosh(2.0 * u)
        return u, pref, y

    def phi(x):
        _, pref, y = _parts(x)
        return pref * jacobi_eval(n, aj, bj, y)

    def dphi(x):
        u, pref, y = _parts(x)
        poly = jacobi_eval(n, aj, bj, y)
        dpoly = jacobi_derivative(n, aj, bj, y)
        log_slope = b / np.tanh(u) - a * np.tanh(u)
        return pref * (log_slope * poly + 2.0 * c * np.sinh(2.0 * u) * dpoly)

    return phi, dphi


def gpt_wavefunction(n: int, a: float, b: float, c: float, grid: Grid,
                     spinor: ModelParams | None = None) -> BoundState:
    """Normalized level-n Poschl-Teller bound state on a half-line grid.

    With model constants ``spinor``, the state is multiplied by sqrt(M(x)),
    M = m2 g - 2c (m1 + b m2) csch(2cx); M must stay positive on the grid.
    """
    if np.any(grid.points <= 0.0):
        raise DomainError("grid must lie in x > 0")
    if not gpt_admissible(n, a, b, c):
        raise ValueError(
            f"level n = {n} is not admissible: needs A - B - 2cn > 0 and "
            f"A/c > 0, B/c > 0 (A = {a}, B = {b}, c = {c})")
    phi, _ = gpt_state_evaluator(n, a, b, c)
    mass = None
    if spinor is not None:
        cross = spinor.m1 + spinor.beta_effective * spinor.m2
        u = 2.0 * c * grid.points
        csch = 2.0 * np.exp(-u) / (1.0 - np.exp(-2.0 * u))
        mass = spinor.m2 * spinor.gamma - 2.0 * c * cross * csch
    return _bound_state(n, phi(grid.points), mass,
                        PoschlTellerSuperpotential(a=a, b=b, c=c), grid)
