"""Shape-invariance engine and its two concrete potential families.

Factorization conventions (units hbar = 2m = 1):

    A = d/dx + W,   Adag = -d/dx + W,
    v_minus = W^2 - W',   v_plus = W^2 + W',

with ground state exp(-Int W) annihilated by A.  Shape invariance,
v_plus(x; a0) = v_minus(x; a1) + R(a1), telescopes into the exact ladder
Ebar_0 = 0, Ebar_n = sum_{k<=n} R(a_k).

Families:

    hyperbolic Rosen-Morse: W = C1 + C2 tanh x          (whole line)
    generalized Poschl-Teller: W = A tanh cx - B coth cx (half line x > 0)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import ModelParams, sigma_of
from .numerics import Grid, _array_key, _memoized, first_derivative, normalize


# np.cosh overflows just above |x| = 710.4758
_COSH_FAR = 710.0


def square(x):
    """``x ** 2`` for a float, ``np.float_power(x, 2.0)`` for an array.

    Both round as libm ``pow`` does.  numpy's ``** 2`` and ``np.square``
    compute ``x * x``, which differs from ``pow`` in the last bit on some
    inputs, so every closed form squares through this helper and gives the
    same bits on floats and on arrays.
    """
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x ** 2


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _where(cond, a, b):
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _sech2_csch2(u):
    """sech(u)^2 and csch(u)^2 as ``1 / cosh(u)**2`` and ``1 / sinh(u)**2``.

    On the rows where ``cosh(u)**2`` overflows they take the exponential
    forms of ``model._csch``, which stay finite; every other row keeps the
    bits of the direct forms.
    """
    with np.errstate(over="ignore"):
        cosh2 = np.cosh(u) ** 2
        sinh2 = np.sinh(u) ** 2
    sech2, csch2 = 1.0 / cosh2, 1.0 / sinh2
    if not cosh2.max() < np.inf:  # an overflow, or a NaN that hides one
        # u = 1 on the other rows keeps the exponential forms finite there
        over = np.isinf(cosh2)
        e = np.exp(-_where(over, np.abs(u), 1.0))
        sech2 = _where(over, (2.0 * e / (1.0 + e * e)) ** 2, sech2)
        csch2 = _where(over, (2.0 * e / (1.0 - e * e)) ** 2, csch2)
    return sech2, csch2


class RosenMorseSuperpotential(NamedTuple):
    """W(x) = c1 + c2*tanh(x); normalizable sector needs c2 > 0 and |c1| < c2."""

    c1: float
    c2: float

    @property
    def is_normalizable(self) -> bool:
        return self.c2 > 0.0 and abs(self.c1) < self.c2

    def w(self, x):
        return self.c1 + self.c2 * np.tanh(x)

    def dw(self, x):
        t = np.tanh(x)
        return self.c2 * (1.0 - t * t)

    def shifted(self, k: int = 1) -> "RosenMorseSuperpotential":
        """Parameter ladder a_k: c2 -> c2 - k with c1 rescaled to keep 2*c1*c2 fixed."""
        if k == 0:
            return self
        if self.c2 - k <= 0.0:
            raise ValueError(f"parameter shift undefined: c2 - {k} <= 0")
        return RosenMorseSuperpotential(c1=self.c1 * self.c2 / (self.c2 - k),
                                        c2=self.c2 - k)


class PoschlTellerSuperpotential(NamedTuple):
    """W(x) = a*tanh(c*x) - b*coth(c*x) on x > 0; boundary needs a/c > 0, b/c > 0."""

    a: float
    b: float
    c: float = 1.0

    @property
    def is_normalizable(self) -> bool:
        return self.a / self.c > 0.0 and self.b / self.c > 0.0

    def _check_domain(self, x):
        if np.any(np.asarray(x) <= 0.0):
            raise DomainError("Poschl-Teller superpotential is defined on x > 0")

    def w(self, x):
        self._check_domain(x)
        u = self.c * np.asarray(x, dtype=float)
        return self.a * np.tanh(u) - self.b / np.tanh(u)

    def dw(self, x):
        self._check_domain(x)
        sech2, csch2 = _sech2_csch2(self.c * np.asarray(x, dtype=float))
        return self.a * self.c * sech2 + self.b * self.c * csch2

    def shifted(self, k: int = 1) -> "PoschlTellerSuperpotential":
        """Parameter ladder a_k = {a - k c, b + k c}."""
        if k == 0:
            return self
        return PoschlTellerSuperpotential(a=self.a - k * self.c,
                                          b=self.b + k * self.c, c=self.c)


Superpotential = RosenMorseSuperpotential | PoschlTellerSuperpotential


class PartnerPotentials(NamedTuple):
    v_minus: np.ndarray | float
    v_plus: np.ndarray | float


def partner_potentials(w: Superpotential, x) -> PartnerPotentials:
    """v_minus = W^2 - W' and v_plus = W^2 + W' in expanded closed form.

    Array calls go through the ``"partners"`` memo of
    :func:`numerics._memoized`, which keeps the last (superpotential,
    nodes), matched by the exact bits of W's constants and of ``x`` (an
    ``ode_residual`` passes a fresh slice of ``Grid.points`` on each call).
    So they return read-only arrays, and the two arrays stay in memory until
    the next array call (about 0.15 MB at 6000 points, with the key's copy
    of ``x``).
    """
    if not np.ndim(x) or not isinstance(w, (RosenMorseSuperpotential,
                                            PoschlTellerSuperpotential)):
        return _partner_potentials(w, x)
    x = np.asarray(x, dtype=float)
    return _memoized("partners", (type(w), _array_key(w, x)), _partner_potentials, w, x)


def _partner_potentials(w: Superpotential, x) -> PartnerPotentials:
    if isinstance(w, RosenMorseSuperpotential):
        t = np.tanh(x)
        sech2 = 1.0 - t * t
        v2 = 2.0 * w.c1 * w.c2
        common = w.c1 * w.c1 + w.c2 * w.c2 + v2 * t
        v_minus = common - (w.c2 * w.c2 + w.c2) * sech2
        v_plus = common - (w.c2 * w.c2 - w.c2) * sech2
        return PartnerPotentials(v_minus=v_minus, v_plus=v_plus)
    if isinstance(w, PoschlTellerSuperpotential):
        w._check_domain(x)
        sech2, csch2 = _sech2_csch2(w.c * np.asarray(x, dtype=float))
        d2 = (w.a - w.b) ** 2
        v_minus = d2 + w.b * (w.b - w.c) * csch2 - w.a * (w.a + w.c) * sech2
        v_plus = d2 + w.b * (w.b + w.c) * csch2 - w.a * (w.a - w.c) * sech2
        return PartnerPotentials(v_minus=v_minus, v_plus=v_plus)
    raise TypeError(f"unsupported superpotential: {type(w).__name__}")


def si_remainder_ladder(w: Superpotential, n: int) -> float:
    """Exact level Ebar_n of v_minus via the telescoped shape-invariance sum.

    Rosen-Morse:     V2^2/(4 C2^2) + C2^2 - V2^2/(4 (C2-n)^2) - (C2-n)^2,
                     V2 = 2 C1 C2.
    Poschl-Teller:   (A-B)^2 - (A-B-2cn)^2.

    Both give exactly 0 at n = 0 (empty sum).  Elementwise when the
    superpotential holds arrays; there a Rosen-Morse pole C2 - n = 0 comes
    out non-finite instead of raising.
    """
    if n < 0:
        raise ValueError("level index must be nonnegative")
    if n == 0:
        return 0.0
    if isinstance(w, RosenMorseSuperpotential):
        if not isinstance(w.c2, np.ndarray) and w.c2 - n == 0.0:
            raise ZeroDivisionError(f"ladder hits C2 - n = 0 at n = {n}")
        v2 = 2.0 * w.c1 * w.c2
        return (v2 * v2 / (4.0 * w.c2 * w.c2) + w.c2 * w.c2
                - v2 * v2 / (4.0 * square(w.c2 - n)) - square(w.c2 - n))
    if isinstance(w, PoschlTellerSuperpotential):
        d0 = w.a - w.b
        return d0 * d0 - square(d0 - 2.0 * w.c * n)
    raise TypeError(f"unsupported superpotential: {type(w).__name__}")


def si_check(w: Superpotential, x):
    """Shape-invariance residual v_plus(x; a0) - v_minus(x; a1) - R(a1); ~ 0."""
    shifted = w.shifted(1)
    r1 = si_remainder_ladder(w, 1)
    return (partner_potentials(w, x).v_plus
            - partner_potentials(shifted, x).v_minus - r1)


def rm2_admissible(n: int, c2: float, v2: float) -> bool:
    """Normalizability of the Rosen-Morse level: C2 - n > 0 and (C2-n)^2 > |V2|/2.

    Elementwise over arrays; both tests are always evaluated.
    """
    return (c2 - n > 0.0) & (square(c2 - n) > abs(v2) / 2.0)


def gpt_admissible(n: int, a: float, b: float, c: float) -> bool:
    """Normalizability of the Poschl-Teller level: A - B - 2cn > 0 plus boundary.

    Elementwise over arrays; all three tests are always evaluated.
    """
    return (a - b - 2.0 * c * n > 0.0) & (a / c > 0.0) & (b / c > 0.0)


def relativistic_energy(rad, scale=1.0):
    """(Re E, Im E, is_real) of the + branch of E = scale*sqrt(rad), elementwise.

    E is pure imaginary when the radicand is negative; it is never clamped.
    """
    is_real = rad >= 0.0
    root = scale * _sqrt(_where(is_real, rad, -rad))
    return _where(is_real, root, 0.0), _where(is_real, 0.0, root), is_real


class Level(NamedTuple):
    """One spectrum entry.  ``e_bar`` is None when the ladder is undefined there.

    ``e_rel`` is the + branch of the relativistic energy +-|E|.
    """

    n: int
    e_bar: float | None
    e_rel: complex | None
    is_real: bool
    admissible: bool


@dataclass(frozen=True)
class LevelSpectrum:
    levels: tuple[Level, ...]

    def admissible(self) -> list[Level]:
        return [lv for lv in self.levels if lv.admissible]

    def __iter__(self):
        return iter(self.levels)


class RM2Coeffs(NamedTuple):
    """Rosen-Morse well V0 - V1 sech^2 x + V2 tanh x."""

    v0: float
    v1: float
    v2: float


class RM2Solution(NamedTuple):
    coeffs: RM2Coeffs
    w: RosenMorseSuperpotential
    spectrum: LevelSpectrum


class GPTSolution(NamedTuple):
    w: PoschlTellerSuperpotential
    spectrum: LevelSpectrum


def rm2_coefficients(omega, alpha, gamma, beta, m2) -> RM2Coeffs:
    """(V0, V1, V2) of the cosh-profile family, elementwise over arrays.

    V0 = w/2 + g^2 s + 1/4 + ((s b - 1)/m2)^2
    V1 = w/2 - g^2 (m2^2 - s) - 1/4 + (s b - 1)^2/m2^2
    V2 = 2 g (s b - 1)

    with s = sigma_of(omega, alpha) and b the resolved beta.
    """
    w, g = omega, gamma
    s = sigma_of(w, alpha)
    sb1 = s * beta - 1.0
    v0 = w / 2.0 + g * g * s + 0.25 + square(sb1 / m2)
    v1 = w / 2.0 - g * g * (m2 * m2 - s) - 0.25 + sb1 * sb1 / (m2 * m2)
    v2 = 2.0 * g * sb1
    return RM2Coeffs(v0=v0, v1=v1, v2=v2)


def rm2_coefficients_from_params(params: ModelParams) -> RM2Coeffs:
    """Map model constants to (V0, V1, V2) for the cosh-profile family.

    See :func:`rm2_coefficients`.  These closed forms assume the unit-scale
    profile; a warning is raised when delta != 1 since the coefficients then
    do not describe the profile actually configured.
    """
    if params.delta != 1.0:
        warnings.warn("closed-form well coefficients assume delta = 1; "
                      f"params.delta = {params.delta}", UserWarning, stacklevel=2)
    return rm2_coefficients(params.omega, params.alpha, params.gamma,
                            params.beta_effective, params.m2)


def rm2_level_radicand(v0: float, v2: float, c2: float, n: int) -> float:
    """Radicand of the relativistic spectrum, V0 + (C2-n)^2 - V2^2/(4 (C2-n)^2).

    Its sign is exactly the reality condition for level n.  Elementwise over
    arrays.
    """
    s = c2 - n
    return v0 + s * s - v2 * v2 / (4.0 * s * s)


def rm2_superpotential(v1: float, v2: float) -> RosenMorseSuperpotential:
    """C2 = (-1 + sqrt(1 + 4 V1))/2 (positive branch) and C1 = V2/(2 C2).

    The one place that forms 1 + 4 V1: a float 1 + 4 V1 <= 0 is refused,
    since no real superpotential constant exists there.  Elementwise and
    unchecked over arrays, where 1 + 4 V1 < 0 gives a NaN C2 and C2 = 0 a
    non-finite C1; a float C2 = 0 gives C1 = 0 when V2 = 0 and C1 = inf
    otherwise.

    Raises
    ------
    ValueError
        when a float 1 + 4 V1 <= 0.
    """
    disc = 1.0 + 4.0 * v1
    if not isinstance(disc, np.ndarray) and disc <= 0.0:
        raise ValueError(f"1 + 4*V1 must be positive for real energies to exist "
                         f"(got 1 + 4*V1 = {disc})")
    c2 = 0.5 * (-1.0 + _sqrt(disc))
    if isinstance(c2, np.ndarray) or c2 != 0.0:
        c1 = v2 / (2.0 * c2)
    else:
        c1 = 0.0 if v2 == 0.0 else math.inf
    return RosenMorseSuperpotential(c1=c1, c2=c2)


def rm2_solve(v0: float, v1: float, v2: float, n_max: int = 5) -> RM2Solution:
    """Exact solution of the Rosen-Morse well V0 - V1 sech^2 x + V2 tanh x.

    C2 = (-1 + sqrt(1 + 4 V1))/2 (positive branch; boundary conditions),
    C1 = V2 / (2 C2) (so that 2 C1 C2 = V2); levels carry the ladder Ebar_n,
    the relativistic energy E_n = +-sqrt(V0 + (C2-n)^2 - V2^2/(4(C2-n)^2))
    (pure imaginary when the radicand is negative, never clamped), the
    reality flag and the normalizability flag.

    Raises
    ------
    ValueError
        when 1 + 4 V1 <= 0 (no real superpotential constant exists).
    """
    w = rm2_superpotential(v1, v2)
    if v1 <= 0.0:
        warnings.warn("V1 <= 0: the well supports no bound states",
                      UserWarning, stacklevel=2)

    levels = []
    for n in range(n_max + 1):
        try:
            e_bar = si_remainder_ladder(w, n)
        except ZeroDivisionError:
            levels.append(Level(n=n, e_bar=None, e_rel=None,
                                is_real=False, admissible=False))
            continue
        e_re, e_im, is_real = relativistic_energy(rm2_level_radicand(v0, v2, w.c2, n))
        levels.append(Level(n=n, e_bar=e_bar, e_rel=complex(e_re, e_im),
                            is_real=is_real, admissible=rm2_admissible(n, w.c2, v2)))
    return RM2Solution(coeffs=RM2Coeffs(v0=v0, v1=v1, v2=v2), w=w,
                       spectrum=LevelSpectrum(tuple(levels)))


def rm2_solve_from_params(params: ModelParams, n_max: int = 5) -> RM2Solution:
    """rm2_solve on the (V0, V1, V2) computed from model constants.

    Delegates to :func:`rm2_solve` on the literal coefficients, so both entry
    points produce bit-identical spectra.
    """
    coeffs = rm2_coefficients_from_params(params)
    return rm2_solve(coeffs.v0, coeffs.v1, coeffs.v2, n_max=n_max)


def gpt_params_ab(params: ModelParams) -> tuple[float, float]:
    """Superpotential constants for the coth-profile family from model constants.

    B = 3c/2 always (the csch^2 strength is fixed by the reduction).  A uses
    the closed-form constant A = c/2 - (E^2 + delta^2 m2^2)/(4c) with
    E^2 = omega/2 - gamma^2 (m2^2 - sigma); see the reality-window demos.
    """
    return gpt_ab(params.omega, params.alpha, params.gamma, params.delta,
                  params.c, params.m2)


def gpt_ab(omega, alpha, gamma, delta, c, m2) -> tuple[float, float]:
    """(A, B) of :func:`gpt_params_ab`, elementwise over arrays."""
    s = sigma_of(omega, alpha)
    e2 = omega / 2.0 - square(gamma) * (square(m2) - s)
    a = c / 2.0 - (e2 + square(delta) * square(m2)) / (4.0 * c)
    return a, 1.5 * c


def gpt_solve(a: float, b: float, c: float, n_max: int = 5, *,
              delta: float = 1.0, gamma: float = 0.0,
              m2: float = 1.0) -> GPTSolution:
    """Exact solution of the generalized Poschl-Teller family.

    Ladder: Ebar_n = (A-B)^2 - (A-B-2cn)^2.  Relativistic map:
    E_n = +-|delta| sqrt((gamma m2)^2 + Ebar_n), pure imaginary when the
    radicand is negative.  Admissible levels need A - B - 2cn > 0 together
    with the boundary conditions A/c > 0, B/c > 0; violating the boundary
    conditions only flags every level inadmissible (with a warning), the
    spectrum formulas are still evaluated.
    """
    if not c > 0.0:
        raise ValueError(f"c must be positive, got {c}")
    w = PoschlTellerSuperpotential(a=a, b=b, c=c)
    if not w.is_normalizable:
        warnings.warn("boundary conditions violated (A/c and B/c must be "
                      "positive); all levels flagged inadmissible",
                      UserWarning, stacklevel=2)
    g2 = square(gamma * m2)
    levels = []
    for n in range(n_max + 1):
        e_bar = si_remainder_ladder(w, n)
        e_re, e_im, is_real = relativistic_energy(g2 + e_bar, abs(delta))
        levels.append(Level(n=n, e_bar=e_bar, e_rel=complex(e_re, e_im),
                            is_real=is_real, admissible=gpt_admissible(n, a, b, c)))
    return GPTSolution(w=w, spectrum=LevelSpectrum(tuple(levels)))


def gpt_solve_from_params(params: ModelParams, n_max: int = 5) -> GPTSolution:
    a, b = gpt_params_ab(params)
    return gpt_solve(a, b, params.c, n_max=n_max, delta=params.delta,
                     gamma=params.gamma, m2=params.m2)


class LevelColumns(NamedTuple):
    """One level over arrays of parameters, one entry per row.

    ``regular`` marks the rows where the level's own values are finite, the
    scalar solver's domain checks pass and the level is not a pole, and
    (Poschl-Teller) every lower level's ladder value is finite too: there
    the scalar solver returns these same bits and raises nothing.  The
    other rows hold meaningless values.
    """

    e_re: np.ndarray
    e_im: np.ndarray
    is_real: np.ndarray
    admissible: np.ndarray
    regular: np.ndarray


def _finite(*values):
    ok = True
    for value in values:
        ok = ok & np.isfinite(value)
    return ok


def rm2_level_columns(v0, v1, v2, n: int) -> LevelColumns:
    """Level n of :func:`rm2_solve` over arrays of (V0, V1, V2).

    Level n is evaluated alone.  rm2_solve walks the levels below it too,
    but none of them can raise where level n is finite: rm2_solve steps over
    a pole C2 = k, C2 = 0 makes C1 non-finite, and a finite C2 is below
    6.8e153, so no square(C2 - k) overflows.
    """
    with np.errstate(all="ignore"):
        w = rm2_superpotential(v1, v2)
        rad = rm2_level_radicand(v0, v2, w.c2, n)
        e_re, e_im, is_real = relativistic_energy(rad)
        regular = (1.0 + 4.0 * v1 > 0.0) & _finite(
            v0, v1, v2, w.c1, si_remainder_ladder(w, n), rad, e_re, e_im)
        return LevelColumns(e_re, e_im, is_real, rm2_admissible(n, w.c2, v2), regular)


def gpt_level_columns(a, b, c, n: int, *, delta, gamma, m2) -> LevelColumns:
    """Level n of :func:`gpt_solve` over arrays of its arguments."""
    with np.errstate(all="ignore"):
        w = PoschlTellerSuperpotential(a=a, b=b, c=c)
        g2 = square(gamma * m2)
        regular = (c > 0.0) & _finite(a, b, c, g2)
        # gpt_solve walks every level up to n; an overflowing power on that
        # walk shows here as a non-finite ladder value
        for k in range(n + 1):
            e_bar = si_remainder_ladder(w, k)
            regular &= _finite(e_bar)
        e_re, e_im, is_real = relativistic_energy(g2 + e_bar, abs(delta))
        return LevelColumns(e_re, e_im, is_real, gpt_admissible(n, a, b, c),
                            regular & _finite(e_re, e_im))


def ground_state_samples(w: Superpotential, x: np.ndarray) -> np.ndarray:
    """exp(-Int W) in closed form for either family (unnormalized)."""
    if isinstance(w, RosenMorseSuperpotential):
        x = np.asarray(x, dtype=float)
        far = np.abs(x) > _COSH_FAR
        if not np.any(far):
            return np.exp(-w.c1 * x) * np.cosh(x) ** (-w.c2)
        # the mirrored form cosh x = e^{|x|} (1 + e^{-2|x|}) / 2, where
        # e^{-2|x|} is below the last bit of 1; each form sees 0 on the other's rows
        near, beyond = _where(far, 0.0, x), _where(far, x, 0.0)
        return _where(far, np.exp(-w.c1 * beyond - w.c2 * (np.abs(beyond) - math.log(2.0))),
                      np.exp(-w.c1 * near) * np.cosh(near) ** (-w.c2))
    if isinstance(w, PoschlTellerSuperpotential):
        w._check_domain(x)
        u = w.c * np.asarray(x, dtype=float)
        p, q = -w.a / w.c, w.b / w.c
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.cosh(u) ** p * np.sinh(u) ** q
        far = ~np.isfinite(g)
        if not np.any(far):
            return g
        # a power overflowed (alone, or as inf * 0): the mirrored forms
        # cosh u, sinh u = e^u (1 +- e^{-2u}) / 2 in log space on those rows,
        # and u = 1 on the others
        beyond = _where(far, u, 1.0)
        e = np.exp(-2.0 * beyond)
        return _where(far, np.exp((p + q) * (beyond - math.log(2.0))
                                  + p * np.log1p(e) + q * np.log1p(-e)), g)
    raise TypeError(f"unsupported superpotential: {type(w).__name__}")


def ladder_state(w: Superpotential, n: int, grid: Grid) -> np.ndarray:
    """Level-n state by n applications of Adag = -d/dx + W on the ground state.

    Starts from the closed-form ground state of the n-times shifted
    parameters and climbs with 4th-order numeric differentiation, so the
    result is an independent construction of the closed-form wavefunction
    (up to normalization).  Keep n small (<= 5); differencing error grows
    with each application.  A state that overflows or vanishes on the grid is
    refused, as in :func:`pdmdirac.numerics.normalize`.
    """
    if n < 0:
        raise ValueError("level index must be nonnegative")
    if grid.n_points < 512:
        warnings.warn("coarse grid: ladder differentiation error may dominate",
                      UserWarning, stacklevel=2)
    x = grid.points
    g = ground_state_samples(w.shifted(n), x)
    for k in range(n - 1, -1, -1):
        wk = w.shifted(k)
        g = -first_derivative(g, grid.step) + wk.w(x) * g
    return normalize(g, grid)
