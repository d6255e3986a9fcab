"""Finite-difference verification oracle for -phi'' + V(x) phi = E phi.

Uniform grid, Dirichlet boundaries at both truncation points.  The interior
discretization is the standard symmetric tridiagonal matrix with diagonal
2/h^2 + V_i and off-diagonal -1/h^2.  Eigenvalues come from bisection on
Sturm sequence counts, each count stopped once it reaches the largest level
that asks for it (Barth, Martin and Wilkinson, Numer. Math. 9, 1967);
eigenvectors from a twisted LDL^T factorization, taken at the bisection
midpoint and once more at the Rayleigh quotient of its vector.  Everything
here is deterministic and independent of the closed-form machinery it is
used to check.

The sequential recurrences (the Sturm count and the two pivot sweeps of the
twisted factorization) loop over Python floats, not numpy arrays: each row
depends on the one before, and a numpy call per row costs far more than the
row's few flops.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError


class QuadratureFallback(UserWarning):
    """Composite Simpson needs an odd sample count; trapezoid was used instead."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid: n_points interior nodes strictly between x_min and x_max."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.n_points < 16:
            raise ValueError("n_points must be at least 16")

    @property
    def step(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points + 1)

    @property
    def points(self) -> np.ndarray:
        h = self.step
        return self.x_min + h * np.arange(1, self.n_points + 1)

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights of the interior nodes (Dirichlet zeros at the ends)."""
        return quadrature_weights(self.n_points + 2, self.step)[1:-1]


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None  # shape (k, n_points), unit grid-quadrature norm
    grid: Grid


def _sample(potential, pts: np.ndarray) -> np.ndarray:
    try:
        v = np.asarray(potential(pts), dtype=float)
        if v.shape != pts.shape:
            raise TypeError
    except TypeError:
        v = np.array([float(potential(x)) for x in pts])
    return v


def _pivmin(esq: float) -> float:
    # pivot floor only guards esq/q against overflow; it must stay far below
    # any physically meaningful pivot so counts are never perturbed
    return max(esq * 1e-292, 1e-300)


def _sturm_counts(rows: list[float], esq: float, shifts: np.ndarray,
                  caps: np.ndarray | None = None) -> np.ndarray:
    """Number of eigenvalues strictly below each shift (LDL^T sign count).

    ``rows`` is the diagonal as Python floats.  With ``caps`` (each at
    least 1) a shift's row loop stops once its count reaches its cap, and
    the count returned is min(full count, cap).
    """
    pivmin = _pivmin(esq)
    caps = [len(rows)] * len(shifts) if caps is None else caps.tolist()
    counts = []
    for s, cap in zip(shifts.tolist(), caps):
        q = math.inf  # first row: esq / inf is 0.0, so q = d - s exactly
        count = 0
        for d in rows:
            q = d - s - esq / q
            # below pivmin counts as negative; inside (-pivmin, pivmin) the
            # pivot becomes -pivmin.  A positive row costs one comparison.
            if q < pivmin:
                count += 1
                if count == cap:
                    break
                if q > -pivmin:
                    q = -pivmin
        counts.append(count)
    return np.array(counts, dtype=np.int64)


def _twisted_vector(diag: np.ndarray, e: float, shift: float) -> np.ndarray:
    """Eigenvector of T for the eigenvalue nearest shift, unnormalized.

    Forward and backward LDL^T pivots D+ and D- of T - shift I meet at the
    twist r that minimizes |gamma_r| = |D+_r + D-_r - (d_r - shift)|; the
    vector is 1 at r and each half is a running product of -e / D
    (Parlett and Dhillon, Linear Algebra Appl. 267, 1997).  Pivots get the
    Sturm count's guard, so no division is by zero.
    """
    esq = e * e
    pivmin = _pivmin(esq)
    a = diag - shift

    def pivots(rows):
        out = []
        q = math.inf
        for d in rows:
            q = d - esq / q
            if -pivmin < q < pivmin:
                q = -pivmin
            out.append(q)
        return out

    rows = a.tolist()
    d_plus = np.array(pivots(rows))
    d_minus = np.array(pivots(reversed(rows)))[::-1]
    r = int(np.argmin(np.abs(d_plus + d_minus - a)))
    z = np.ones(a.shape[0])
    z[:r] = np.cumprod(-e / d_plus[:r][::-1])[::-1]
    z[r + 1:] = np.cumprod(-e / d_minus[r + 1:])
    return z


def discretize_and_solve(potential, grid: Grid, k: int,
                         eigenvectors: bool = True) -> EigenResult:
    """Lowest ``k`` eigenpairs of -phi'' + V phi = lam phi with Dirichlet ends.

    Parameters
    ----------
    potential : callable
        Evaluator of V(x); must be finite at every interior node.
    k : int
        Number of eigenvalues requested (k <= n_points).

    Returns
    -------
    EigenResult
        Eigenvalues ascending, refined by a final Rayleigh quotient;
        eigenvectors (if requested) unit-norm under grid quadrature with a
        deterministic sign (largest-magnitude component positive).
    """
    pts = grid.points
    v = _sample(potential, pts)
    if not np.all(np.isfinite(v)):
        i = int(np.argmax(~np.isfinite(v)))
        raise ValueError(f"potential is not finite at x = {pts[i]} (node {i})")
    if not 1 <= k <= grid.n_points:
        raise ValueError(f"k must be in 1..{grid.n_points}, got {k}")

    h = grid.step
    e = -1.0 / (h * h)
    esq = e * e
    diag = 2.0 / (h * h) + v

    radius = 2.0 * abs(e)
    lo = np.full(k, np.min(diag) - radius)
    hi = np.full(k, np.max(diag) + radius)
    targets = np.arange(1, k + 1)
    scale = max(abs(lo[0]), abs(hi[0]), 1.0)
    rows = diag.tolist()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # targets that still share an interval share its midpoint: count each
        # distinct shift once, and only as far as its largest target
        shifts, slot = np.unique(mid, return_inverse=True)
        caps = np.zeros(shifts.size, dtype=np.int64)
        np.maximum.at(caps, slot, targets)
        counts = _sturm_counts(rows, esq, shifts, caps)[slot]
        above = counts >= targets
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        if np.max(hi - lo) <= 1e-13 * scale:
            break
    else:
        raise ConvergenceError(
            f"bisection failed to localize eigenvalues: widths {hi - lo}")
    lams = 0.5 * (lo + hi)

    if not eigenvectors:
        lams = np.sort(lams)
        if np.any(np.diff(lams) <= 0.0):
            raise ConvergenceError("eigenvalues not strictly ascending")
        return EigenResult(eigenvalues=lams, eigenvectors=None, grid=grid)

    vecs = np.empty((k, grid.n_points))
    refined = np.empty(k)
    mat_scale = float(np.max(np.abs(diag))) + 2.0 * abs(e)
    for j in range(k):
        # one twisted solve at the bisection midpoint, one more at the
        # Rayleigh quotient of its vector
        rq = lams[j]
        for _ in range(2):
            y = _twisted_vector(diag, e, rq)
            y = y / np.linalg.norm(y)
            ty = diag * y
            ty[:-1] += e * y[1:]
            ty[1:] += e * y[:-1]
            rq = float(y @ ty)
        res = float(np.linalg.norm(ty - rq * y))
        if res > 1e-6 * mat_scale:
            raise ConvergenceError(
                f"twisted factorization failed for eigenvalue #{j}: residual "
                f"{res:.3e} (matrix scale {mat_scale:.3e})")
        vecs[j], _ = normalize(y, grid)
        refined[j] = rq

    order = np.argsort(refined)
    refined = refined[order]
    vecs = vecs[order]
    if np.any(np.diff(refined) <= 0.0):
        raise ConvergenceError("eigenvalues not strictly ascending after refinement")
    return EigenResult(eigenvalues=refined, eigenvectors=vecs, grid=grid)


def quadrature_weights(n_samples: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n_samples equally spaced values.

    Simpson requires an odd sample count; even counts silently fall back to
    trapezoid (callers that care use :func:`quadrature_norm`, which warns).
    """
    if n_samples % 2 == 1 and n_samples >= 3:
        w = np.ones(n_samples)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (h / 3.0)
    w = np.full(n_samples, h)
    w[0] = w[-1] = h / 2.0
    return w


def normalize(samples: np.ndarray, grid: Grid) -> tuple[np.ndarray, float]:
    """Interior samples scaled to unit quadrature norm, largest sample positive.

    Returns the scaled samples and the norm they had.  Refuses non-finite
    samples (OverflowError) and a state that vanished on the grid (ValueError).
    """
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        i = int(bad[0])
        raise OverflowError(f"non-finite wavefunction sample at "
                            f"x = {float(grid.points[i])!r} (node {i})")
    norm = math.sqrt(float(np.sum(grid.weights * samples * samples)))
    if norm == 0.0:
        raise ValueError("state vanished on the grid; cannot normalize")
    out = samples / norm
    i_max = int(np.argmax(np.abs(out)))
    if out[i_max] < 0.0:
        out = -out
    return out, norm


def quadrature_norm(samples, grid: Grid) -> float:
    """L2 norm of samples over [x_min, x_max].

    Accepts either ``n_points`` interior samples (Dirichlet zeros are implied
    at both ends) or ``n_points + 2`` samples covering the closed interval.
    """
    f = np.asarray(samples, dtype=float)
    if f.shape[0] == grid.n_points:
        f = np.concatenate(([0.0], f, [0.0]))
    elif f.shape[0] != grid.n_points + 2:
        raise ValueError(
            f"sample count {f.shape[0]} matches neither the interior "
            f"({grid.n_points}) nor the closed grid ({grid.n_points + 2})")
    if f.shape[0] % 2 == 0:
        warnings.warn("even sample count: trapezoid fallback", QuadratureFallback,
                      stacklevel=2)
    w = quadrature_weights(f.shape[0], grid.step)
    return float(np.sqrt(np.sum(w * f * f)))


def first_derivative(samples: np.ndarray, h: float) -> np.ndarray:
    """4th-order first derivative; 5-point central core, one-sided at the edges."""
    f = np.asarray(samples)
    n = f.shape[0]
    if n < 5:
        raise ValueError("need at least 5 samples for the 4th-order stencil")
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    out[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    out[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return out


def second_derivative_interior(samples: np.ndarray, h: float) -> np.ndarray:
    """4th-order central second derivative on the interior (2 points trimmed per side)."""
    f = np.asarray(samples)
    if f.shape[0] < 5:
        raise ValueError("need at least 5 samples for the 4th-order stencil")
    return (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h * h)


def ode_residual(potential, e_bar: float, samples, grid: Grid,
                 skip: int = 0) -> float:
    """|| -D4 phi + V phi - Ebar phi ||_2 / || phi ||_2 on the trimmed interior.

    The 4th-order stencil drops two points per side; ``skip`` trims that many
    further points per side (used near non-smooth potential walls, where the
    formal order of the stencil collapses).
    """
    f = np.asarray(samples, dtype=float)
    if f.shape[0] != grid.n_points:
        raise ValueError("sample count does not match the grid")
    if f.shape[0] < 5 + 2 * skip:
        raise ValueError("too few interior points for the residual stencil")
    d2 = second_derivative_interior(f, grid.step)
    pts = grid.points[2:-2]
    core = f[2:-2]
    v = _sample(potential, pts)
    res = -d2 + (v - e_bar) * core
    if skip:
        res = res[skip:-skip]
        core = core[skip:-skip]
    denom = np.linalg.norm(core)
    if denom == 0.0:
        return float(np.linalg.norm(res))
    return float(np.linalg.norm(res) / denom)


def count_nodes(samples) -> int:
    """Strict sign changes, ignoring samples below 1e-12 of the peak magnitude."""
    f = np.asarray(samples, dtype=float)
    if f.size == 0:
        return 0
    cut = 1e-12 * np.max(np.abs(f))
    signs = np.sign(f[np.abs(f) >= cut]) if cut > 0.0 else np.sign(f)
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] * signs[:-1] < 0.0))
