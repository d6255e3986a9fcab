"""Model parameters, ansatz profiles and the constraint-matching algebra.

The model is a two-parameter non-Hermitian oscillator built from a first-order
operator ``A(x) d/dx + B(x)`` with ``B = gamma*A + beta*A'``.  Two profile
families are supported: ``A = delta*cosh(x)`` on the whole line and
``A = delta*coth(c*x)`` on the half line ``x > 0``.

The constant ``beta`` is over-determined in the source model; it is therefore
an explicit input together with a mode flag recording which convention fixed
it (see :class:`BetaMode`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .numerics import _array_key, _memoized

# cosh/sinh overflow in IEEE doubles just above 710; stay clear of it.
HYPERBOLIC_LIMIT = 700.0


class BetaMode(str, Enum):
    """Provenance of the ``beta`` constant (exactly one applies).

    LITERAL     use the supplied value verbatim (figure-caption convention).
    COUPLING    beta = (omega - 2*alpha) / (2*omega), from matching the A''/A
                coefficients of the two second-order forms.
    MASS_RATIO  beta = -m1/m2, the choice that removes the mixed
                sech*csch term of the half-line potential.
    """

    LITERAL = "literal"
    COUPLING = "coupling"
    MASS_RATIO = "mass-ratio"


def resolve_beta(mode: BetaMode, omega: float, alpha: float,
                 beta: float | None, m1: float | None, m2: float | None) -> float:
    """The beta of ``mode``, elementwise over arrays.

    An array ``m2`` is not checked for zeros: those entries come out
    non-finite.
    """
    if mode is BetaMode.LITERAL:
        if beta is None:
            raise ValueError("literal beta mode requires an explicit beta")
        return beta if isinstance(beta, np.ndarray) else float(beta)
    if mode is BetaMode.COUPLING:
        return (omega - 2.0 * alpha) / (2.0 * omega)
    if mode is BetaMode.MASS_RATIO:
        if m1 is None or m2 is None or (not isinstance(m2, np.ndarray) and m2 == 0.0):
            raise ValueError("mass-ratio beta mode requires m1 and nonzero m2")
        return -m1 / m2
    raise ValueError(f"unknown beta mode: {mode!r}")


@dataclass(frozen=True)
class ModelParams:
    """All model constants in one validated record."""

    omega: float
    alpha: float
    gamma: float
    beta: float
    delta: float = 1.0
    c: float = 1.0
    m1: float = 0.0
    m2: float = 1.0
    beta_mode: BetaMode = BetaMode.LITERAL

    def __post_init__(self):
        # the tests of in_domain, one by one to name the first that fails
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.m2 == 0.0:
            raise ValueError("m2 must be nonzero")
        if self.delta == 0.0:
            raise ValueError("delta must be nonzero")
        if not self.c > 0.0:
            raise ValueError(f"c must be positive, got {self.c}")
        object.__setattr__(self, "beta_mode", BetaMode(self.beta_mode))

    @property
    def beta_effective(self) -> float:
        """The beta actually used downstream, resolved per ``beta_mode``."""
        return resolve_beta(self.beta_mode, self.omega, self.alpha,
                            self.beta, self.m1, self.m2)


def in_domain(omega, m2, delta, c):
    """Where ModelParams accepts these values, elementwise over arrays."""
    return (omega > 0.0) & (m2 != 0.0) & (delta != 0.0) & (c > 0.0)


def sigma_of(omega: float, alpha: float) -> float:
    """sigma = (omega^2 + 4 alpha^2) / omega^2; equals 1 exactly when alpha = 0.

    Elementwise over arrays.
    """
    if not isinstance(alpha, np.ndarray) and alpha == 0.0:
        return 1.0
    sigma = (omega * omega + 4.0 * alpha * alpha) / (omega * omega)
    return np.where(alpha == 0.0, 1.0, sigma) if isinstance(alpha, np.ndarray) else sigma


class CoshProfile(NamedTuple):
    """A(x) = delta*cosh(x), defined for all real x."""

    delta: float = 1.0
    gamma: float = 0.0
    beta: float = 0.0


class CothProfile(NamedTuple):
    """A(x) = delta*coth(c*x), defined on x > 0 only."""

    delta: float = 1.0
    c: float = 1.0
    gamma: float = 0.0
    beta: float = 0.0


Profile = CoshProfile | CothProfile


def profile_from_params(params: ModelParams, family: str) -> Profile:
    """Build the profile for ``family`` ("cosh" or "coth") from model constants."""
    beta = params.beta_effective
    if family == "cosh":
        return CoshProfile(delta=params.delta, gamma=params.gamma, beta=beta)
    if family == "coth":
        return CothProfile(delta=params.delta, c=params.c,
                           gamma=params.gamma, beta=beta)
    raise ValueError(f"unknown profile family: {family!r}")


class ProfileValues(NamedTuple):
    """A, its first two derivatives, and B = gamma*A + beta*A' with B'.

    ``a_vanishes`` tells whether A is 0.0 anywhere.  It is tested once, when
    the values are computed: the ``"profile"`` memo of
    :func:`evaluate_profile` hands the same record to every caller of one
    profile and grid, and the Dirac fields key their memos by its identity.
    """

    a: np.ndarray | float
    a1: np.ndarray | float
    a2: np.ndarray | float
    b: np.ndarray | float
    b1: np.ndarray | float
    a_vanishes: bool


def _csch(u):
    # stable for u > 0: 2 e^{-u} / (1 - e^{-2u}); never overflows
    eu = np.exp(-u)
    return 2.0 * eu / (1.0 - eu * eu)


def evaluate_profile(profile: Profile, x) -> ProfileValues:
    """Evaluate A, A', A'', B, B' at ``x`` (scalar or array).

    Derivatives are exact closed forms.  B and B' are built from the same
    A-values, so ``b == gamma*a + beta*a1`` holds bit-for-bit.

    Array calls go through the ``"profile"`` memo of
    :func:`numerics._memoized`, which keeps the last (profile, grid),
    matched by exact bits, or in O(1) by identity for a read-only array
    that owns its data, such as ``Grid.points``.  So the returned arrays
    are read-only and one grid's five arrays stay in memory until the next
    array call (about 0.24 MB at 6000 points).

    Raises
    ------
    DomainError
        for a CothProfile evaluated at x <= 0.
    OverflowError
        for a CoshProfile with |x| beyond the hyperbolic overflow threshold.
    """
    if not np.ndim(x) or not isinstance(profile, (CoshProfile, CothProfile)):
        return _profile_values(profile, x)
    x = np.asarray(x, dtype=float)
    return _memoized("profile", (type(profile), _array_key(profile, x)),
                     _profile_values, profile, x)


def _profile_values(profile: Profile, x) -> ProfileValues:
    x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    if isinstance(profile, CoshProfile):
        if np.any(np.abs(x) > HYPERBOLIC_LIMIT):
            raise OverflowError(
                f"cosh argument exceeds overflow threshold {HYPERBOLIC_LIMIT}: "
                f"max |x| = {np.max(np.abs(x))}")
        d = profile.delta
        a = d * np.cosh(x)
        a1 = d * np.sinh(x)
        a2 = a
    elif isinstance(profile, CothProfile):
        if np.any(np.asarray(x) <= 0.0):
            raise DomainError("coth profile is defined on x > 0 only")
        d, c = profile.delta, profile.c
        u = c * x
        coth = 1.0 / np.tanh(u)
        csch2 = _csch(u) ** 2
        a = d * coth
        a1 = -d * c * csch2
        a2 = 2.0 * d * c * c * csch2 * coth
    else:
        raise TypeError(f"unsupported profile type: {type(profile).__name__}")
    b = profile.gamma * a + profile.beta * a1
    b1 = profile.gamma * a1 + profile.beta * a2
    return ProfileValues(a=a, a1=a1, a2=a2, b=b, b1=b1,
                         a_vanishes=bool(np.any(a == 0.0)))


class ConstraintSolution(NamedTuple):
    """Derived constants of the coefficient-matching between the two chains.

    ``m1_plus``/``m1_minus`` are the two roots of the quadratic m1-relation;
    a branch is None (absent, not zero) when the radicand is negative.
    """

    sigma: float
    beta: float
    epsilon: float
    e_squared: float
    m1_plus: float | None
    m1_minus: float | None

    @property
    def has_m1(self) -> bool:
        return self.m1_plus is not None


def derived_constants(params: ModelParams) -> ConstraintSolution:
    """Compute sigma, beta (per mode), epsilon, E^2 and the m1 roots.

    epsilon = gamma^2 m2^2 - sigma gamma^2 and E^2 = omega/2 - gamma^2 (m2^2 - sigma).
    The m1 roots solve m1 (m1 + beta m2) = 1/4 - alpha/omega, i.e.

        m1 = ( -beta omega m2 +- sqrt(omega^2 (1 + beta^2 m2^2) - 4 alpha omega) ) / (2 omega)

    with both branches reported absent when the radicand is negative.
    """
    omega, alpha, gamma, m2 = params.omega, params.alpha, params.gamma, params.m2
    b = params.beta_effective
    sigma = sigma_of(omega, alpha)
    epsilon = gamma * gamma * m2 * m2 - sigma * gamma * gamma
    e_squared = omega / 2.0 - gamma * gamma * (m2 * m2 - sigma)
    radicand = omega * omega * (1.0 + b * b * m2 * m2) - 4.0 * alpha * omega
    if radicand < 0.0:
        m1_plus = m1_minus = None
    else:
        root = math.sqrt(radicand)
        m1_plus = (-b * omega * m2 + root) / (2.0 * omega)
        m1_minus = (-b * omega * m2 - root) / (2.0 * omega)
    return ConstraintSolution(sigma=sigma, beta=b, epsilon=epsilon,
                              e_squared=e_squared,
                              m1_plus=m1_plus, m1_minus=m1_minus)
