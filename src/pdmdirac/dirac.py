"""Dirac reduction: mass/vector-potential ansatz, imaginary-part cancellation
and the real effective potential of the resulting Schroedinger-like problem.

The 1+1 time-independent Dirac pair for upper/lower components (phi, theta) is

    -i theta' + (E - V) theta - M phi = 0
     i phi'   + (E - V) phi   - M theta = 0

with complex V = V_R + i V_I.  Eliminating theta and substituting
phi = sqrt(M) varphi gives -varphi'' + V_eff varphi = E^2 varphi.  The choice

    V_I = M'/(2M) + V_R'/(2(E - V_R))

cancels the imaginary part of V_eff identically, leaving

    V_eff = -V_R^2 + M^2 + 2 E V_R + 3 V_R'^2/(4 (E-V_R)^2) + V_R''/(2 (E-V_R)).

Under the model ansatz M = m1 A'/A + m2 B/A, V_R = E - E/A, B = g A + b A'
this specializes to the closed form evaluated by
:func:`effective_potential_ansatz`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, PoleError, SingularityError
from .model import ModelParams, Profile, evaluate_profile
from .numerics import Grid, _memoized, first_derivative


class MassProfile(NamedTuple):
    """Position-dependent mass with its first derivative (closed form)."""

    m: Callable
    dm: Callable


class RealPotential(NamedTuple):
    """The real part V_R of the vector potential, with two derivatives."""

    v: Callable
    dv: Callable
    d2v: Callable


class DiracPotential(NamedTuple):
    """Complex vector potential V = V_R + i V_I."""

    v_r: Callable
    v_i: Callable


class SpinorPair(NamedTuple):
    """Upper/lower Dirac components on a grid, plus the cross-equation residual.

    ``residual`` is the L2-relative residual of the first coupled equation,
    -i theta' + (E - V) theta - M phi, with theta' taken by 4th-order
    differences (the only numeric step in the construction).
    """

    phi: np.ndarray
    theta: np.ndarray
    residual: float


def dirac_profiles(params: ModelParams, profile: Profile,
                   e_ref: float) -> tuple[MassProfile, RealPotential]:
    """Mass M = m1 A'/A + m2 B/A and V_R = E - E/A with closed derivatives.

    Each of the five fields evaluates the profile on every call, so its
    refusals and side effects are those of :func:`evaluate_profile`.  An
    array call goes through :func:`numerics._memoized` under the field's
    name (``"m"``, ``"dm"``, ``"v"``, ``"dv"``, ``"d2v"``), keyed by this
    call's field closure and the identity of the ``ProfileValues`` that the
    profile memo hands back for one profile and grid.  So it returns a
    read-only array, and one family's chain on one grid computes each field
    once.  The five entries outlive the closures and hold about 0.24 MB at
    6000 points, besides the ``ProfileValues`` they keep alive, until the
    next array call of the same field.  Scalar calls are not memoized.
    """
    m1, m2 = params.m1, params.m2

    def field(compute):
        # the key holds this call's closure and the ProfileValues, so the
        # record's id cannot be reused while it is stored, and keys compare
        # their records only when the ids are equal, that is, when they are
        # the same object
        def evaluate(x):
            p = evaluate_profile(profile, x)
            if p.a_vanishes:
                raise SingularityError("A(x) = 0 inside the Dirac profiles")
            if not np.ndim(x):
                return compute(p)
            return _memoized(compute.__name__, (compute, id(p), p), compute, p)

        return evaluate

    def m(p):
        return m1 * p.a1 / p.a + m2 * p.b / p.a

    def dm(p):
        r, q = p.a1 / p.a, p.b / p.a
        return m1 * (p.a2 / p.a - r * r) + m2 * (p.b1 / p.a - q * r)

    def v(p):
        return e_ref - e_ref / p.a

    def dv(p):
        return e_ref * p.a1 / (p.a * p.a)

    def d2v(p):
        return e_ref * p.a2 / (p.a * p.a) - 2.0 * e_ref * p.a1 * p.a1 / (p.a ** 3)

    return (MassProfile(m=field(m), dm=field(dm)),
            RealPotential(v=field(v), dv=field(dv), d2v=field(d2v)))


def _pole_gap(e_ref: float, vr, x):
    """E - V_R at x, refusing the points where it is zero."""
    gap = e_ref - vr
    if np.any(gap == 0.0):
        bad = np.asarray(x)[gap == 0.0] if np.ndim(x) else x
        raise PoleError(f"E = V_R at x = {bad}")
    return gap


def complete_potential(mass: MassProfile, v_r: Callable, v_r1: Callable,
                       e_ref: float) -> DiracPotential:
    """Attach the imaginary part V_I = M'/(2M) + V_R'/(2(E - V_R)).

    With this V_I the imaginary bracket of the eliminated second-order
    equation vanishes identically (see :func:`cancellation_residual`).

    ``v_i`` calls its four inputs, M, V_R, M' and V_R' in that order, on
    every call, refuses M = 0 and then E = V_R, and returns a fresh array.
    It keeps no memo of its own: the fields of :func:`dirac_profiles` it is
    built on keep theirs.
    """

    def v_i(x):
        mx = np.asarray(mass.m(x))
        if np.any(mx == 0.0):
            raise SingularityError("M(x) = 0 inside the imaginary part")
        gap = _pole_gap(e_ref, np.asarray(v_r(x)), x)
        return np.asarray(mass.dm(x)) / (2.0 * mx) + np.asarray(v_r1(x)) / (2.0 * gap)

    return DiracPotential(v_r=v_r, v_i=v_i)


def cancellation_residual(mass: MassProfile, pot: RealPotential,
                          v_i: Callable, e_ref: float, x):
    """The imaginary bracket -2 V_I V_R + 2 E V_I - V_R' + (M'/M) V_R - E M'/M.

    Identically zero when ``v_i`` comes from :func:`complete_potential`.
    """
    vr = np.asarray(pot.v(x))
    vi = np.asarray(v_i(x))
    ml = np.asarray(mass.dm(x)) / np.asarray(mass.m(x))
    return -2.0 * vi * vr + 2.0 * e_ref * vi - np.asarray(pot.dv(x)) + ml * vr - e_ref * ml


def effective_potential_general(mass: MassProfile, pot: RealPotential,
                                e_ref: float, x):
    """V_eff from (M, V_R, E) directly; poles at E = V_R are refused."""
    vr = np.asarray(pot.v(x))
    gap = _pole_gap(e_ref, vr, x)
    mx = np.asarray(mass.m(x))
    dvr = np.asarray(pot.dv(x))
    return (-vr * vr + mx * mx + 2.0 * e_ref * vr
            + 3.0 * dvr * dvr / (4.0 * gap * gap)
            + np.asarray(pot.d2v(x)) / (2.0 * gap))


def effective_potential_ansatz(params: ModelParams, profile: Profile,
                               e_ref: float, x):
    """V_eff specialized to the model ansatz, as an explicit closed form:

        E^2 - E^2/A^2 + m2^2 g^2 + 2 g m2 (m1 + b m2) A'/A
        + ((m1 + b m2)^2 - 1/4) (A'/A)^2 + A''/(2A)
    """
    p = evaluate_profile(profile, x)
    if p.a_vanishes:
        raise SingularityError("A(x) = 0 inside the effective potential")
    g = profile.gamma
    cross = params.m1 + profile.beta * params.m2
    r = p.a1 / p.a
    return (e_ref * e_ref - e_ref * e_ref / (p.a * p.a)
            + params.m2 ** 2 * g * g
            + 2.0 * g * params.m2 * cross * r
            + (cross * cross - 0.25) * r * r
            + p.a2 / (2.0 * p.a))


def spinor_components(varphi: np.ndarray, dvarphi: np.ndarray, grid: Grid,
                      mass: MassProfile, potential: DiracPotential,
                      e: float) -> SpinorPair:
    """Build (phi, theta) from a Schroedinger solution varphi with derivative.

    phi = sqrt(M) varphi; theta solves the second coupled equation,
    theta = (i phi' + (E - V) phi) / M, with phi' assembled in closed form
    from the supplied varphi'.  The first coupled equation is then evaluated
    with a 4th-order numeric theta' and reported as an L2-relative residual.
    """
    x = grid.points
    varphi = np.asarray(varphi, dtype=float)
    dvarphi = np.asarray(dvarphi, dtype=float)
    if varphi.shape != x.shape or dvarphi.shape != x.shape:
        raise ValueError("sample arrays must match the grid")
    mx = np.asarray(mass.m(x), dtype=float)
    if np.any(mx <= 0.0):
        raise DomainError("M(x) must be positive on the grid (complex mass "
                          "is not supported)")
    root = np.sqrt(mx)
    phi = root * varphi
    dphi = np.asarray(mass.dm(x)) / (2.0 * root) * varphi + root * dvarphi
    v = np.asarray(potential.v_r(x)) + 1j * np.asarray(potential.v_i(x))
    theta = (1j * dphi + (e - v) * phi) / mx

    dtheta = (first_derivative(theta.real, grid.step)
              + 1j * first_derivative(theta.imag, grid.step))
    res = -1j * dtheta + (e - v) * theta - mx * phi
    core = slice(2, -2)  # one-sided edge stencils excluded from the norm
    scale = np.linalg.norm((mx * phi)[core])
    residual = float(np.linalg.norm(res[core]) / scale) if scale else float("inf")
    return SpinorPair(phi=phi.astype(complex), theta=theta, residual=residual)


def consistent_energy_cosh(gamma: float, m1: float, beta: float, m2: float,
                           n: int, delta: float = 1.0) -> float:
    """Self-consistent bound energy of the cosh-family Dirac chain.

    The effective potential built at reference energy E has n-th eigenvalue
    equal to E^2 exactly when S = C2 - n solves

        S^4 - (g^2 + P^2 + 1/4) S^2 + g^2 P^2 = 0,
        g = gamma m2,  P = m1 + beta m2,

    independent of n.  The returned E > 0 then satisfies
    sqrt(E^2/delta^2 + P^2) = S + n + 1/2.  With this E the whole first-order
    chain (V_R, V_I, spinors) closes on the closed-form level-n state.
    """
    g = gamma * m2
    cross = m1 + beta * m2
    k = g * g + cross * cross + 0.25
    disc = k * k - 4.0 * g * g * cross * cross
    if disc < 0.0:
        raise ValueError("no real self-consistent level for these constants")
    s2 = 0.5 * (k + np.sqrt(disc))
    s = float(np.sqrt(s2))
    e2 = delta * delta * ((s + n + 0.5) ** 2 - cross * cross)
    if e2 <= 0.0:
        raise ValueError("self-consistent level exists only at imaginary energy")
    return float(np.sqrt(e2))
