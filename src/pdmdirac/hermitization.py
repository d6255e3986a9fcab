"""The non-Hermitian operator, its mapping weight and Hermitian equivalent.

The non-Hermitian operator is

    H = -w A^2 d^2/dx^2 + (4 a A B - 2 w A A') d/dx
        - (w - 2a)(A B' + A' B) + w B^2 - a (A A'' + (A')^2) + w/2

(w = omega, a = alpha).  Conjugating with the positive weight

    rho(x) = exp( -(2a/w) * Int B/A dx ) = A^{-2ab/w} * e^{-2agx/w}

(b = beta, g = gamma; the antiderivative constant is absorbed) produces the
Hermitian equivalent

    h = -w d/dx A^2 d/dx + U_eff,
    U_eff = w/2 - w (A B)' - a ((A')^2 + A A'') + (w + 4a^2/w) B^2.

Substituting xi = Phi/A turns h xi = eps xi into a Schroedinger-like equation
for Phi whose potential-like coefficient is exposed by
:func:`schrodinger_potential`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, SingularityError
from .model import ModelParams, Profile, evaluate_profile, sigma_of


class OperatorCoefficients(NamedTuple):
    """A second-order differential operator c2 d^2 + c1 d + c0 as evaluators."""

    c2: Callable
    c1: Callable
    c0: Callable


def _leading(w: float, profile: Profile) -> Callable:
    """c2 = -w A^2, the leading coefficient shared by H and h."""

    def c2(x):
        p = evaluate_profile(profile, x)
        return -w * p.a * p.a

    return c2


def nonhermitian_coeffs(params: ModelParams, profile: Profile) -> OperatorCoefficients:
    """Coefficients of the non-Hermitian operator H."""
    w, a = params.omega, params.alpha

    def c1(x):
        p = evaluate_profile(profile, x)
        return 4.0 * a * p.a * p.b - 2.0 * w * p.a * p.a1

    def c0(x):
        p = evaluate_profile(profile, x)
        return (-(w - 2.0 * a) * (p.a * p.b1 + p.a1 * p.b)
                + w * p.b * p.b
                - a * (p.a * p.a2 + p.a1 * p.a1)
                + w / 2.0)

    return OperatorCoefficients(c2=_leading(w, profile), c1=c1, c0=c0)


def hermitian_coeffs(params: ModelParams, profile: Profile) -> OperatorCoefficients:
    """Coefficients of the Hermitian equivalent h = -w d A^2 d + U_eff."""
    w, a = params.omega, params.alpha

    def c1(x):
        p = evaluate_profile(profile, x)
        return -2.0 * w * p.a * p.a1

    def c0(x):
        p = evaluate_profile(profile, x)
        return (w / 2.0
                - w * (p.a1 * p.b + p.a * p.b1)
                - a * (p.a1 * p.a1 + p.a * p.a2)
                + (w + 4.0 * a * a / w) * p.b * p.b)

    return OperatorCoefficients(c2=_leading(w, profile), c1=c1, c0=c0)


def rho_weight(params: ModelParams, profile: Profile, x):
    """The similarity weight rho(x) = A^{-2ab/w} e^{-2agx/w} (> 0 on the domain)."""
    w, al = params.omega, params.alpha
    g, b = profile.gamma, profile.beta
    p = evaluate_profile(profile, x)
    expo = -2.0 * al * b / w
    if np.any(np.asarray(p.a) <= 0.0) and expo != round(expo):
        raise DomainError("A(x) <= 0 with a non-integer rho exponent")
    return np.asarray(p.a) ** expo * np.exp(-2.0 * al * g / w * np.asarray(x))


def schrodinger_potential(params: ModelParams, profile: Profile, epsilon: float,
                          x, form: str = "generic", matched: bool = True):
    """The full Phi-coefficient of the Schroedinger-like equation -Phi'' + (...) Phi = 0.

    Parameters
    ----------
    form : "generic" or "ansatz"
        "generic" evaluates the coefficient from (A, B) directly:

            (w/2 - eps)*k/A^2 - (A B)'/A^2 + sigma B^2/A^2
            + (w - a) A''/(w A) - a (A')^2/(w A^2)

        "ansatz" evaluates the closed form specialized to B = g A + b A':

            sigma g^2 + (w/2 - eps)/A^2 + (sigma b^2 - b - a/w)(A'/A)^2
            + ((w - a)/w - b) A''/A + 2 g (sigma b - 1) A'/A

        The two agree pointwise whenever ``matched`` is True.
    matched : bool
        Convention for the leading 1/A^2 term.  True (default) uses
        k = 1, the convention under which the coefficient matching against
        the mass-ansatz potential was carried out.  False uses k = 1/w,
        the direct reduction of h through xi = Phi/A; the two differ by a
        factor of w on that single term.  Only the generic form supports
        matched=False.
    """
    w, a = params.omega, params.alpha
    sigma = sigma_of(w, a)
    p = evaluate_profile(profile, x)
    if p.a_vanishes:
        raise SingularityError("A(x) = 0 inside schrodinger_potential")
    if form == "generic":
        lead = 1.0 if matched else 1.0 / w
        a2sq = p.a * p.a
        return ((w / 2.0 - epsilon) * lead / a2sq
                - (p.a1 * p.b + p.a * p.b1) / a2sq
                + sigma * p.b * p.b / a2sq
                + (w - a) * p.a2 / (w * p.a)
                - a * p.a1 * p.a1 / (w * a2sq))
    if form == "ansatz":
        if not matched:
            raise ValueError("the ansatz form is defined in the matched convention only")
        g, b = profile.gamma, profile.beta
        r1 = p.a1 / p.a
        return (sigma * g * g
                + (w / 2.0 - epsilon) / (p.a * p.a)
                + (sigma * b * b - b - a / w) * r1 * r1
                + ((w - a) / w - b) * p.a2 / p.a
                + 2.0 * g * (sigma * b - 1.0) * r1)
    raise ValueError(f"unknown form: {form!r}")


def apply_operator(coeffs: OperatorCoefficients, f, f1, f2, x):
    """Apply c2 f'' + c1 f' + c0 f at x, with f1/f2 the exact derivatives of f."""
    return coeffs.c2(x) * f2(x) + coeffs.c1(x) * f1(x) + coeffs.c0(x) * f(x)
