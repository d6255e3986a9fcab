"""Jacobi polynomials at general parameters and the closed-form bound states.

The two families' eigenstates reduce to Jacobi polynomials with (generally
negative, non-integer) superscripts, evaluated outside [-1, 1] for the
half-line family.  The three-term recurrence is the fast path; whenever one
of its denominators degenerates the explicit finite hypergeometric sum (which
is always defined for integer n >= 0) takes over.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import ModelParams
from .numerics import Grid, _array_key, _memoized, count_nodes, normalize
from .susy import (Superpotential, gpt_admissible, gpt_superpotential,
                   rm2_admissible, rm2_superpotential, si_remainder_ladder)

# recurrence denominators closer to zero than this switch to the explicit
# sum; at the boundary the cancellation error is ~eps/_GUARD ~ 1e-10, safely
# under the dual-route agreement tolerance
_GUARD = 1e-6

# the largest argument whose exponential is finite
_EXP_MAX = math.log(sys.float_info.max)
_LN2 = math.log(2.0)
_TINY = sys.float_info.min  # the smallest normal double


class BoundState(NamedTuple):
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
    total = _jacobi_sum(n, a, b, np.asarray(z, dtype=float), 1.0)
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
    p = _jacobi(n, a, b, np.asarray(z, dtype=float), 1.0)
    return p if np.ndim(p) else float(p)


def _jacobi(n: int, a: float, b: float, z, w):
    """w^n P_n^{(a,b)}(z/w), the homogeneous form of the recurrence, with the
    explicit sum where a denominator degenerates.

    w = 1.0 gives P_n(z) with the bits of the plain recurrence (every factor
    w is an exact 1.0); z = 1.0 and w = 1/y give y^{-n} P_n(y), finite where
    P_n(y) overflows.
    """
    one = np.ones(np.broadcast(z, w).shape)
    if n == 0:
        return one
    p_prev = one
    p = 0.5 * ((a + b + 2.0) * z + (a - b) * w)
    if n == 1:
        return p
    if jacobi_recurrence_degenerate(n, a, b):
        return _jacobi_sum(n, a, b, z, w)
    ww = w * w
    for k in range(2, n + 1):
        s = 2.0 * k + a + b
        denom = 2.0 * k * (k + a + b) * (s - 2.0)
        t1 = (s - 1.0) * ((s * (s - 2.0)) * z + (a * a - b * b) * w)
        t2 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        p, p_prev = (t1 * p - t2 * ww * p_prev) / denom, p
    return p


def _jacobi_sum(n: int, a: float, b: float, z, w):
    # w^n P_n(z/w) by the explicit sum, with (z -+ w)/2 for (z -+ 1)/2
    lo = (z - w) / 2.0
    hi = (z + w) / 2.0
    total = np.zeros(np.shape(lo))
    for m in range(n + 1):
        coef = _genbinom(n + a, n - m) * _genbinom(n + b, m)
        total = total + coef * lo ** m * hi ** (n - m)
    return total


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

        t = n - C2,   r = (t - (V2/2)/t)/2,   s = (t + (V2/2)/t)/2,

    with C2 from :func:`susy.rm2_superpotential`, which refuses 1 + 4 V1 <= 0.
    """
    t = n - rm2_superpotential(v1, v2).c2
    if t == 0.0:
        raise ZeroDivisionError(f"exponents undefined at C2 - n = 0 (n = {n})")
    r = 0.5 * (t - 0.5 * v2 / t)
    s = 0.5 * (t + 0.5 * v2 / t)
    return r, s


def _inv_one_plus_exp(m: np.ndarray) -> np.ndarray:
    """1/(1 + e^m), and e^{-m}/(1 + e^{-m}) on the rows where e^m overflows."""
    over = m > _EXP_MAX
    if not over.any():
        return 1.0 / (1.0 + np.exp(m))
    em = np.exp(np.where(over, -m, m))
    return np.where(over, em / (1.0 + em), 1.0 / (1.0 + em))


def _rm2_factors(x):
    return _inv_one_plus_exp(-2.0 * x), _inv_one_plus_exp(2.0 * x), np.tanh(x)


def rm2_state_evaluator(n: int, v1: float, v2: float):
    """Closed-form level-n state of -phi'' + (-V1 sech^2 x + V2 tanh x + const) phi.

    Returns (phi, dphi) evaluators:

        phi(x) = u^{-r} v^{-s} P_n^{(-2r,-2s)}(-tanh x),
        u = (1+tanh x)/2,  v = (1-tanh x)/2,

    computed as u = 1/(1+e^{-2x}), v = 1/(1+e^{2x}), and as
    u = e^{2x}/(1+e^{2x}), v = e^{-2x}/(1+e^{-2x}) on the rows where the
    first forms' exponential would overflow (|x| > 354.89); dphi is the
    exact derivative.

    u, v and tanh x do not depend on the level: the ``"rm2_factors"`` memo
    of :func:`numerics._memoized` keeps them for the last array ``x``,
    matched by its exact bits or, for ``Grid.points``, its identity, so the
    levels of one grid compute them once.  The three arrays are read-only
    and stay in memory until the next array call (about 0.15 MB at 6000
    points); array calls return new arrays.
    """
    r, s = rm2_exponents(n, v1, v2)
    aj, bj = -2.0 * r, -2.0 * s

    def _parts(x):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            u, v, t = _memoized("rm2_factors", _array_key((), x), _rm2_factors, x)
        else:
            u, v, t = _rm2_factors(x)
        return u ** (-r) * v ** (-s), t

    def phi(x):
        pref, t = _parts(x)
        # a recurrence that overflows leaves non-finite rows, for
        # normalize to refuse
        with np.errstate(over="ignore", invalid="ignore"):
            return pref * jacobi_eval(n, aj, bj, -t)

    def dphi(x):
        pref, t = _parts(x)
        poly = jacobi_eval(n, aj, bj, -t)
        dpoly = jacobi_derivative(n, aj, bj, -t)
        return pref * ((-r * (1.0 - t) + s * (1.0 + t)) * poly
                       - (1.0 - t * t) * dpoly)

    return phi, dphi


def _bound_state(n: int, samples: np.ndarray, w: Superpotential, grid: Grid,
                 spinor: ModelParams | None, k: float, ratio) -> BoundState:
    # the shared tail: optional sqrt(M) factor, normalization, level energy
    if spinor is not None:
        # the spinor mass of both families, M = m2 g + k (m1 + b m2) ratio(x):
        # (k, ratio) is (1, tanh x) on the whole line and (-2c, csch 2cx) on
        # the half line, and k times (m1 + b m2) is exact in both
        r = ratio(grid.points)
        with np.errstate(over="ignore", invalid="ignore"):
            mass = (spinor.m2 * spinor.gamma
                    + k * (spinor.m1 + spinor.beta_effective * spinor.m2) * r)
        # a mass row that overflowed to +inf, or to NaN as inf - inf, is made
        # NaN, so sqrt(M) phi is NaN there for normalize to refuse; -inf is
        # left to the M > 0 check
        mass = np.where(mass < np.inf, mass, np.nan)
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
    w = rm2_superpotential(v1, v2)
    if not rm2_admissible(n, w.c2, v2):
        raise ValueError(
            f"level n = {n} is not admissible: needs C2 - n > 0 and "
            f"(C2 - n)^2 > |V2|/2 with C2 = {w.c2}")
    phi, _ = rm2_state_evaluator(n, v1, v2)
    return _bound_state(n, phi(grid.points), w, grid, spinor, 1.0, np.tanh)


# ----------------------------------------------------------------------
# generalized Poschl-Teller states (half line)
# ----------------------------------------------------------------------

def _gpt_factors(a: float, b: float, c: float, x):
    if np.any(x <= 0.0):
        raise DomainError("half-line state evaluated at x <= 0")
    u = c * x
    with np.errstate(over="ignore", invalid="ignore"):
        grow = (2.0 * np.sinh(u) ** 2) ** (b / (2.0 * c))
        decay = (2.0 * np.cosh(u) ** 2) ** (-a / (2.0 * c))
        pref = grow * decay
        y = np.cosh(2.0 * u)
    if not (grow.max() < np.inf and decay.min() >= _TINY):
        # far out one factor overflows, or the other falls below the normal
        # range and takes the product's precision with it: NaN sends those
        # rows to the evaluators' log-space forms
        pref = np.where((grow < np.inf) & (decay >= _TINY), pref, np.nan)
    return u, pref, y


def gpt_state_evaluator(n: int, a: float, b: float, c: float):
    """Closed-form level-n state of the half-line family, as (phi, dphi).

    In the variable y = cosh(2cx):

        phi = (y-1)^{B/2c} (y+1)^{-A/2c} P_n^{(B/c - 1/2, -A/c - 1/2)}(y),

    evaluated through (y-1) = 2 sinh^2(cx), (y+1) = 2 cosh^2(cx).  The
    half exponents make the n = 0 state reduce exactly to
    cosh^{-A/c}(cx) sinh^{B/c}(cx).  On the rows where these direct forms
    overflow, or the cosh factor falls below the normal range of doubles
    (cx beyond about 355, or sooner for large A/c, B/c or n), both
    evaluators take the prefactor in log space,

        log((y-1)^{B/2c} (y+1)^{-A/2c}) = ((B-A)/2c)(2cx - ln 2)
                                          + (B/c) ln(1 - e^{-2cx}) - (A/c) ln(1 + e^{-2cx}),

    times y^n, and the Jacobi polynomial scaled by y^{-n}; every other row
    keeps the direct forms' bits.  c <= 0 is refused, as in
    :func:`susy.gpt_superpotential`.

    cx, the direct prefactor and y do not depend on the level: the
    ``"gpt_factors"`` memo of :func:`numerics._memoized` keeps them for the
    last (A, B, c, x), matched by exact bits or, for ``Grid.points``, by
    identity, so the levels of one grid compute them once.  The three
    arrays are read-only and stay in memory until the next array call
    (about 0.15 MB at 6000 points); array calls return new arrays.
    """
    a, b, c = gpt_superpotential(a, b, c)  # refuses c <= 0
    aj = b / c - 0.5
    bj = -a / c - 0.5

    def _parts(x):
        x = np.asarray(x, dtype=float)
        if not x.ndim:
            return _gpt_factors(a, b, c, x)
        return _memoized("gpt_factors", _array_key((a, b, c), x), _gpt_factors, a, b, c, x)

    def _far(out, u, scaled):
        # the rows the direct forms lost (non-finite, the prefactor's NaN
        # marks among them) as e^{log prefactor + n log y} scaled(u, 1/y)
        far = ~np.isfinite(out)
        if not far.any():
            return out
        u = np.where(far, u, 1.0)  # keeps the other rows finite
        e = np.exp(-2.0 * u)
        log_y = 2.0 * u - _LN2 + np.log1p(e * e)
        # where 2cx < 5.6e-17 rounds e to 1, log1p(-e) is -inf and the row
        # comes out 0 as an underflow, or NaN beside a non-finite Jacobi
        # factor, for normalize to refuse
        with np.errstate(divide="ignore"):
            log_pref = ((b - a) / (2.0 * c) * (2.0 * u - _LN2)
                        + (b / c) * np.log1p(-e) - (a / c) * np.log1p(e))
        value = np.exp(log_pref + n * log_y) * scaled(u, 2.0 * e / (1.0 + e * e))
        return np.where(far, value, out)[()]  # [()] unwraps a scalar call

    def phi(x):
        u, pref, y = _parts(x)
        with np.errstate(over="ignore", invalid="ignore"):
            out = pref * jacobi_eval(n, aj, bj, y)
        return _far(out, u, lambda _, w: _jacobi(n, aj, bj, 1.0, w))

    def dphi(x):
        u, pref, y = _parts(x)
        with np.errstate(over="ignore", invalid="ignore"):
            poly = jacobi_eval(n, aj, bj, y)
            dpoly = jacobi_derivative(n, aj, bj, y)
            log_slope = b / np.tanh(u) - a * np.tanh(u)
            out = pref * (log_slope * poly + 2.0 * c * np.sinh(2.0 * u) * dpoly)

        def scaled(u, w):
            # sinh(2cx) y^{-n} P'_n(y) = tanh(2cx) y^{-(n-1)} P'_n(y)
            slope = (b / np.tanh(u) - a * np.tanh(u)) * _jacobi(n, aj, bj, 1.0, w)
            if n == 0:
                return slope
            return slope + (c * (n + aj + bj + 1.0) * np.tanh(2.0 * u)
                            * _jacobi(n - 1, aj + 1.0, bj + 1.0, 1.0, w))

        return _far(out, u, scaled)

    return phi, dphi


def gpt_wavefunction(n: int, a: float, b: float, c: float, grid: Grid,
                     spinor: ModelParams | None = None) -> BoundState:
    """Normalized level-n Poschl-Teller bound state on a half-line grid.

    With model constants ``spinor``, the state is multiplied by sqrt(M(x)),
    M = m2 g - 2c (m1 + b m2) csch(2cx); M must stay positive on the grid.
    """
    w = gpt_superpotential(a, b, c)
    if np.any(grid.points <= 0.0):
        raise DomainError("grid must lie in x > 0")
    if not gpt_admissible(n, a, b, c):
        raise ValueError(
            f"level n = {n} is not admissible: needs A - B - 2cn > 0 and "
            f"A/c > 0, B/c > 0 (A = {a}, B = {b}, c = {c})")
    phi, _ = gpt_state_evaluator(n, a, b, c)

    def csch(x):  # csch(u) = 2 e^{-u} / (1 - e^{-2u}) at u = 2cx
        u = 2.0 * c * x
        return 2.0 * np.exp(-u) / (1.0 - np.exp(-2.0 * u))

    return _bound_state(n, phi(grid.points), w, grid, spinor, -2.0 * c, csch)
