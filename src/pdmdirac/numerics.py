"""Finite-difference verification oracle for -phi'' + V(x) phi = E phi.

Uniform grid, Dirichlet boundaries at both truncation points.  The interior
discretization is the standard symmetric tridiagonal matrix with diagonal
2/h^2 + V_i and off-diagonal -1/h^2.  Eigenvalues come from bisection on
Sturm sequence counts (Barth, Martin and Wilkinson, Numer. Math. 9, 1967).
Each count stops once it reaches the largest level that asks for it, or
once it enters the right tail where every later row has d - s >= 2|e|
(V above the shift) with a pivot of at least |e|: no later pivot can turn
negative there.  Eigenvectors come from three twisted LDL^T factorizations
per level, the first at the bisection midpoint and each further one at the
Rayleigh quotient of the vector before (Parlett and Dhillon, Linear Algebra
Appl. 267, 1997).  The first finds the level's twist index and the other
two keep it, so their pivot sweeps stop at the twist: n - 1 rows instead of
2n.  Since these converge cubically, the eigenvector path
stops bisecting at 1e-7 of the matrix scale once every interval provably
holds its one eigenvalue with no other within one interval width;
otherwise, and always without eigenvectors, it bisects to 1e-13.  The
vectors of levels closer than 1e-6 of the scale are orthogonalized within
their cluster.  Everything here is deterministic and independent of the
closed-form machinery it is used to check.

The sequential recurrences (the Sturm count and the two pivot sweeps of the
twisted factorization) loop over Python floats, not numpy arrays: each row
depends on the one before, and a numpy call per row costs far more than the
row's few flops.  A pivot sweep runs as one list comprehension, and falls
back to the guarded loop only when a pivot lands inside the guard band.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True)
class Grid:
    """Uniform grid: n_points interior nodes strictly between x_min and x_max."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        # an infinite or NaN end, or a width that overflows, makes the step
        # non-finite
        if not math.isfinite(self.x_max - self.x_min):
            raise ValueError(f"x_min and x_max must be finite and finitely far apart, "
                             f"got {self.x_min} and {self.x_max}")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
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
        """Trapezoid weights of the interior nodes (Dirichlet zeros at the ends)."""
        return np.full(self.n_points, self.step)


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None  # shape (k, n_points), unit grid-quadrature norm


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
                  caps: np.ndarray | None = None,
                  suffix_min: np.ndarray | None = None) -> np.ndarray:
    """Number of eigenvalues strictly below each shift (LDL^T sign count).

    ``rows`` is the diagonal as Python floats.  With ``caps`` (each at
    least 1) a shift's row loop stops once its count reaches its cap, and
    the count returned is min(full count, cap).  With ``suffix_min``, the
    smallest diagonal entry from each row to the last, a shift's loop also
    stops in the right tail where every row has d - s >= 2b, with
    b = max(|e|, pivmin), once a pivot reaches b: each later pivot is then
    d - s - e^2/q >= 2b - b, so no later row can add to the count.
    """
    pivmin = _pivmin(esq)
    n = len(rows)
    caps = [n] * len(shifts) if caps is None else caps.tolist()
    bound = max(math.sqrt(esq), pivmin)
    if suffix_min is None:
        tails = [n] * len(shifts)
    else:
        # the 1e-9 margin dwarfs the round-off of d - s, of e^2 / q and of
        # the threshold itself; a NaN shift sorts past the last row
        margin = 2.0 * bound + 1e-9 * (bound + np.abs(shifts))
        tails = np.searchsorted(suffix_min, shifts + margin).tolist()
    counts = []
    for s, cap, tail in zip(shifts.tolist(), caps, tails):
        q = math.inf  # first row: esq / inf is 0.0, so q = d - s exactly
        count = 0
        rest = iter(rows)
        for d in islice(rest, tail):
            q = d - s - esq / q
            # below pivmin counts as negative; inside (-pivmin, pivmin) the
            # pivot becomes -pivmin.  A positive row costs one comparison.
            if q < pivmin:
                count += 1
                if count == cap:
                    break
                if q > -pivmin:
                    q = -pivmin
        else:
            for d in rest:
                if q >= bound:
                    break
                q = d - s - esq / q
                if q < pivmin:
                    count += 1
                    if count == cap:
                        break
                    if q > -pivmin:
                        q = -pivmin
        counts.append(count)
    return np.array(counts, dtype=np.int64)


def _pivot_sweep(rows: list[float], shift: float, esq: float,
                 pivmin: float) -> np.ndarray:
    """LDL^T pivots of T - shift I, taken over ``rows`` in the order given.

    A pivot inside (-pivmin, pivmin) becomes -pivmin, as in the Sturm count.
    That guard almost never fires, so the rows first run through one
    unguarded comprehension.  Its pivots stand when each is at least pivmin
    in magnitude (a NaN is not), since the guard then changed nothing;
    otherwise, or after a division by an exact 0.0, the guarded loop runs.
    ``rows`` is a list, not an iterator, so that loop can read it again.
    """
    q = math.inf
    try:
        out = np.array([(q := d - shift - esq / q) for d in rows])
    except ZeroDivisionError:
        pass
    else:
        if np.all(np.abs(out) >= pivmin):
            return out
    out = []
    q = math.inf
    for d in rows:
        q = d - shift - esq / q
        if -pivmin < q < pivmin:
            q = -pivmin
        out.append(q)
    return np.array(out)


def _twisted_vector(diag: np.ndarray, rows: list[float], e: float, shift: float,
                    r: int | None = None) -> tuple[np.ndarray, int]:
    """Eigenvector of T for the eigenvalue nearest shift, unnormalized, and
    its twist index.

    Forward and backward LDL^T pivots D+ and D- of T - shift I meet at the
    twist r; the vector is 1 at r and each half is a running product of
    -e / D (Parlett and Dhillon, Linear Algebra Appl. 267, 1997).  Without
    ``r`` both sweeps run over all n rows and r minimizes
    |gamma_r| = |D+_r + D-_r - (d_r - shift)|.  Any twist near the vector's
    peak gives a small residual, so a given ``r`` is kept: D+ then runs over
    the rows before it and D- over the rows after it, n - 1 rows in all.
    ``rows`` is ``diag`` as Python floats.  Pivots get the Sturm count's
    guard, so no division is by zero.
    """
    esq = e * e
    pivmin = _pivmin(esq)
    if r is None:
        d_plus = _pivot_sweep(rows, shift, esq, pivmin)
        d_minus = _pivot_sweep(rows[::-1], shift, esq, pivmin)[::-1]
        r = int(np.argmin(np.abs(d_plus + d_minus - (diag - shift))))
        d_plus, d_minus = d_plus[:r], d_minus[r + 1:]
    else:
        d_plus = _pivot_sweep(rows[:r], shift, esq, pivmin)
        d_minus = _pivot_sweep(rows[:r:-1], shift, esq, pivmin)[::-1]
    z = np.ones(diag.size)
    z[:r] = np.cumprod(-e / d_plus[::-1])[::-1]
    z[r + 1:] = np.cumprod(-e / d_minus)
    return z, r


def _tridiagonal_times(diag: np.ndarray, e: float, y: np.ndarray) -> np.ndarray:
    ty = diag * y
    ty[:-1] += e * y[1:]
    ty[1:] += e * y[:-1]
    return ty


def _bisect(rows: list[float], esq: float, suffix_min: np.ndarray, lo: float,
            hi: float, k: int, width: float, isolated_width: float = 0.0):
    """Bisect [lo, hi), Gershgorin bounds of T, around each of its lowest k
    eigenvalues until every interval is at most ``width`` wide.

    With ``isolated_width`` the bisection stops earlier, once every interval
    is at most that wide and no other eigenvalue lies within one interval
    width of it.  Between two levels the intervals' own ends prove that;
    above the top level one more count does.  Returns the interval ends
    and whether that early stop was taken.
    """
    targets = np.arange(1, k + 1)
    lo = np.full(k, lo)
    hi = np.full(k, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # targets that still share an interval share its midpoint: count each
        # distinct shift once, and only as far as its largest target
        shifts, slot = np.unique(mid, return_inverse=True)
        caps = np.zeros(shifts.size, dtype=np.int64)
        np.maximum.at(caps, slot, targets)
        counts = _sturm_counts(rows, esq, shifts, caps, suffix_min)[slot]
        above = counts >= targets
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        widest = np.max(hi - lo)
        if widest <= width:
            return lo, hi, False
        if (widest <= isolated_width and np.all(lo[1:] - hi[:-1] >= widest)
                and _sturm_counts(rows, esq, hi[-1:] + widest, np.array([k + 1]),
                                  suffix_min)[0] == k):
            return lo, hi, True
    raise ConvergenceError(
        f"bisection failed to localize eigenvalues: widths {hi - lo}")


def _eigenpairs(diag: np.ndarray, rows: list[float], e: float, shifts: np.ndarray):
    """Unit eigenvectors (rows of the result) and their Rayleigh quotients:
    one twisted solve at each shift, then two more at the twist it found,
    each at the Rayleigh quotient of the vector before."""
    vecs = np.empty((shifts.size, diag.size))
    rqs = np.empty(shifts.size)
    for j, rq in enumerate(shifts.tolist()):
        r = None
        for _ in range(3):
            y, r = _twisted_vector(diag, rows, e, rq, r)
            y = y / np.linalg.norm(y)
            rq = float(y @ _tridiagonal_times(diag, e, y))
        vecs[j] = y
        rqs[j] = rq
    return vecs, rqs


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
    if h < 1e-75:
        raise ValueError(f"grid step {h:.3e} is below 1e-75, where the squared "
                         "coupling 1/h^4 overflows")
    e = -1.0 / (h * h)
    esq = e * e
    diag = 2.0 / (h * h) + v

    radius = 2.0 * abs(e)
    lo = float(np.min(diag)) - radius
    hi = float(np.max(diag)) + radius
    scale = max(abs(lo), abs(hi), 1.0)
    rows = diag.tolist()
    suffix_min = np.minimum.accumulate(diag[::-1])[::-1]
    # twisted solves at the Rayleigh quotient converge cubically, so the
    # eigenvector path may stop bisecting at a coarse width, once every
    # interval provably holds its one eigenvalue and no other lies near
    lo_k, hi_k, early = _bisect(rows, esq, suffix_min, lo, hi, k, 1e-13 * scale,
                                1e-7 * scale if eigenvectors else 0.0)
    if early:
        vecs, refined = _eigenpairs(diag, rows, e, 0.5 * (lo_k + hi_k))
        # a Rayleigh quotient that left its interval found another level
        if not np.all((lo_k <= refined) & (refined < hi_k)):
            lo_k, hi_k, early = _bisect(rows, esq, suffix_min, lo, hi, k, 1e-13 * scale)
    if not early:
        lams = 0.5 * (lo_k + hi_k)
        if not eigenvectors:
            lams = np.sort(lams)
            if np.any(np.diff(lams) <= 0.0):
                raise ConvergenceError("eigenvalues not strictly ascending")
            return EigenResult(eigenvalues=lams, eigenvectors=None)
        close = np.flatnonzero(np.diff(lams) <= 1e-13 * scale)
        if close.size:
            raise ConvergenceError(f"eigenvalues #{close[0]} and #{close[0] + 1} lie within the "
                                   f"bisection width {1e-13 * scale:.3e}: no orthogonal vectors")
        vecs, refined = _eigenpairs(diag, rows, e, lams)

    order = np.argsort(refined)
    refined = refined[order]
    vecs = vecs[order]
    # the twisted vectors of levels closer than 1e-6 of the scale (no level
    # of the oracle problems is) need not be orthogonal: as LAPACK dstein
    # does, take out of each its parts along the lower levels of its cluster
    clustered = np.diff(refined) <= 1e-6 * scale
    start = 0
    for j in range(1, k):
        if not clustered[j - 1]:
            start = j
            continue
        y = vecs[j]
        for i in range(start, j):
            y = y - (vecs[i] @ y) * vecs[i]
        y = y / np.linalg.norm(y)
        vecs[j] = y
        refined[j] = float(y @ _tridiagonal_times(diag, e, y))

    mat_scale = float(np.max(np.abs(diag))) + 2.0 * abs(e)
    for j in range(k):
        res = float(np.linalg.norm(_tridiagonal_times(diag, e, vecs[j]) - refined[j] * vecs[j]))
        if res > 1e-6 * mat_scale:
            raise ConvergenceError(
                f"twisted factorization failed for eigenvalue #{j}: residual "
                f"{res:.3e} (matrix scale {mat_scale:.3e})")
        vecs[j] = normalize(vecs[j], grid)
    if np.any(np.diff(refined) <= 0.0):
        raise ConvergenceError("eigenvalues not strictly ascending after refinement")
    return EigenResult(eigenvalues=refined, eigenvectors=vecs)


def quadrature_weights(n_samples: int, h: float) -> np.ndarray:
    """Composite trapezoid weights for n_samples equally spaced values.

    For states that decay smoothly to both ends the trapezoid rule converges
    faster than any power of h (Trefethen and Weideman, SIAM Review 56, 2014).
    """
    w = np.full(n_samples, h)
    w[0] = w[-1] = h / 2.0
    return w


def normalize(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Interior samples scaled to unit trapezoid norm, largest sample positive.

    Refuses non-finite samples (OverflowError) and a state that vanished on
    the grid (ValueError).
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
    return out


def quadrature_norm(samples, grid: Grid) -> float:
    """L2 norm of samples over [x_min, x_max] by the trapezoid rule.

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
