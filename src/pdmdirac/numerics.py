"""Finite-difference verification oracle for -phi'' + V(x) phi = E phi.

Uniform grid, Dirichlet boundaries at both truncation points.  The interior
discretization is the standard symmetric tridiagonal matrix with diagonal
2/h^2 + V_i and off-diagonal -1/h^2.  Eigenvalues are located by bisection
on Sturm sequence counts (Barth, Martin and Wilkinson, Numer. Math. 9, 1967).
Each count stops once it reaches the largest level that asks for it, or
once it enters the right tail where every later row has d - s >= 2|e|
(V above the shift) with a pivot of at least |e|: no later pivot can turn
negative there.  It also starts past most of the forbidden head, the
leading rows where d - s >= 2|e|, at a row j with q = inf as at row 0.
Every pivot in the head is at least |e|, so no count is lost, and the head
rows from j on shrink the start error e^2/q <= |e| by e^40: each row by a
factor of at least exp(2 acosh((m - s) / 2|e|)), with m the running
minimum of d.  Eigenvectors, and the Rayleigh quotients returned as the
eigenvalues, come from three twisted LDL^T factorizations per level, the
first at the bisection midpoint and each further one at the Rayleigh
quotient of the vector before (Parlett and Dhillon, Linear Algebra Appl.
267, 1997).  The first finds the level's twist index on the allowed
span, the rows where V is at or below the shift, so its sweeps stop at the
span's far ends.  The other two keep that twist, so their sweeps stop at
it.  Every solve computes the vector on its numerical support only, as
LAPACK's dlar1v does: D+ starts past most of the forbidden head and D-
before most of the forbidden tail, each with q = inf, and the entries
outside are exactly 0.0.  Each start is the block boundary past which the
walk the Sturm count runs puts every entry it leaves out below e^-A of the
entry where the walk starts; where a walk runs out, the start is row 0 or
n - 1.  The third solve's vector is the one returned, so its walk runs to
A = 46, below 2^-60 of the vector's largest.  The first two solves only
find the next shift (the first also the twist), so their walks stop at
A = 20, as the count's own walk does: over the walk their pivots converge
to a full sweep's within e^-40, so the twist on the span is the same, and
the entries left out move the Rayleigh quotient by far less than the next
solve's own shift error.  Since these solves converge cubically, the
solve stops bisecting at 1e-7 of the matrix scale once every interval
provably holds its one eigenvalue with no other within one interval width;
otherwise it bisects to 1e-13.  Without eigenvectors the solve takes the
same route and returns the same Rayleigh quotients, bit for bit; it only
keeps no vectors.  The one difference: two levels within the final 1e-13
width have no orthogonal twisted vectors, so the eigenvector path refuses
them and the eigenvalues-only path returns the bisection midpoints.  A
Rayleigh quotient that leaves its interval makes the solve bisect on from
the intervals it stopped at, down to 1e-13; bisection keeps no other
state, so those intervals are the ones a full bisection ends with.  The
vectors of levels closer than 1e-6 of the scale are orthogonalized within
their cluster.  Everything here is deterministic and independent of the
closed-form machinery it is used to check.

The sequential recurrences (the Sturm count and the two pivot sweeps of the
twisted factorization) loop over Python floats, not numpy arrays: each row
depends on the one before, and a numpy call per row costs far more than the
row's few flops.  A pivot sweep runs as one list comprehension, and falls
back to the guarded loop only when a pivot lands inside the guard band.
Each solve lays T out once (``_tridiagonal``): the diagonal as floats, the
squared coupling, the pivot floor, the suffix minimum, the prefix minimum
at the end of each 32-row block and the Gershgorin ends, which also give
the one matrix scale.  The bisection keeps its intervals as Python floats
too, and counts each distinct midpoint once.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import neg
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True)
class Grid:
    """Uniform grid: n_points interior nodes strictly between x_min and x_max.

    ``points`` and ``weights`` are read-only arrays shared by every caller.
    The ``"grid"`` memo of :func:`_memoized` builds them once for each of
    the last two grids used (about 0.2 MB at 6000 points), so a caller that
    alternates two grids builds each pair once.  No array is kept on the
    instance, so a grid that is not among the last two holds none.  The
    memo matches a grid by each end's type and value and by ``n_points``,
    not by grid equality: an ``np.float32`` end equals and hashes as the
    float of the same value but gives other nodes.
    """

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
        return _grid_arrays(self)[0]

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid weights of the interior nodes (Dirichlet zeros at the ends)."""
        return _grid_arrays(self)[1]


def _grid_arrays(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    key = (type(grid.x_min), grid.x_min, type(grid.x_max), grid.x_max, grid.n_points)
    return _memoized("grid", key, _build_grid_arrays, grid, keep=2)


def _build_grid_arrays(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    h = grid.step
    return (grid.x_min + h * np.arange(1, grid.n_points + 1),
            quadrature_weights(grid.n_points + 2, h)[1:-1])


def _array_key(consts, x: np.ndarray) -> tuple:
    """The memo key of float constants and a float array ``x``.

    It holds exact bits, not values (-0.0 == 0.0, yet sinh tells them
    apart), and ``x``'s shape.  A read-only array that owns its data, as
    ``Grid.points`` does, is taken to keep its values and is keyed by its
    identity instead, an O(1) match: the key holds the array, so its id
    cannot be reused while the key is stored, and keys compare the arrays
    themselves only when their ids are equal, that is, when they are the
    same object.  Every other array, such as a slice of ``Grid.points`` or
    a read-only view of a writable array, is keyed by its bits.
    """
    head = np.array(consts, dtype=float).tobytes()
    if x.flags.owndata and not x.flags.writeable:
        return head, x.shape, id(x), x
    return head, x.shape, x.tobytes()


# memo name -> ((key, value), ...), least recently used first
_memos: dict = {}


def _memoized(name: str, key, compute, *args, keep: int = 1):
    """The package's one memo, for code that evaluates the same constants on
    the same nodes several times in a row.

    Returns the value stored under ``name`` for ``key``, and otherwise
    ``compute(*args)``, an array or a tuple, with its arrays made
    read-only.  Each name keeps the ``keep`` most recently used entries,
    and each call replaces them in one assignment, so threads that share a
    name see either the old entries or the new ones.
    """
    entries = _memos.get(name, ())
    for i, (k, value) in enumerate(entries):
        if k == key:
            if i + 1 < len(entries):
                _memos[name] = (*entries[:i], *entries[i + 1:], entries[i])
            return value
    value = compute(*args)
    for arr in value if isinstance(value, tuple) else (value,):
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    _memos[name] = (*entries, (key, value))[-keep:]
    return value


class EigenResult(NamedTuple):
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None  # shape (k, n_points), unit grid-quadrature norm


def _sample(potential, pts: np.ndarray) -> np.ndarray:
    v = np.asarray(potential(pts), dtype=float)
    if v.shape != pts.shape:
        raise ValueError(f"potential returned shape {v.shape}, not the nodes' {pts.shape}")
    return v


# rows per block of the walks through the forbidden head and tail: fewer
# rows per block cost more steps of a walk, more rows a later start
_BLOCK = 32
# how far a returned twisted vector's support reaches into its forbidden
# ends: e^-46 is below 2^-60 = e^-41.6 of the peak, with a margin
_SUPPORT_NATS = 46.0
# the amplitude the Sturm count's head walk damps (its e^40 rule for the
# start error), and the support of the two shift-finding solves of a level
_COUNT_NATS = 20.0


class _Tridiagonal(NamedTuple):
    """Symmetric tridiagonal T laid out for the row sweeps: the diagonal as
    an array and as Python floats (``rows``), the constant coupling ``e`` and
    its square, the pivot floor, the smallest diagonal entry from each row
    to the last (``suffix_min``) and from row 0 to the last row of each
    block of ``_BLOCK`` rows (``block_min``), both as Python floats, and the
    Gershgorin ends ``lo`` and ``hi`` of the spectrum.
    """

    diag: np.ndarray
    rows: list[float]
    e: float
    esq: float
    pivmin: float
    suffix_min: list[float]
    block_min: list[float]
    lo: float
    hi: float


def _tridiagonal(diag: np.ndarray, e: float) -> _Tridiagonal:
    esq = e * e
    radius = 2.0 * abs(e)
    # the pivot floor only guards esq/q against overflow; it must stay far
    # below any physically meaningful pivot so counts are never perturbed
    return _Tridiagonal(diag=diag, rows=diag.tolist(), e=e, esq=esq,
                        pivmin=max(esq * 1e-292, 1e-300),
                        suffix_min=np.minimum.accumulate(diag[::-1])[::-1].tolist(),
                        block_min=np.minimum.accumulate(diag)[_BLOCK - 1::_BLOCK].tolist(),
                        lo=float(np.min(diag)) - radius, hi=float(np.max(diag)) + radius)


def _forbidden_ends(t: _Tridiagonal, shift: float) -> tuple[float, int, int]:
    """b = max(|e|, pivmin), the end of the forbidden head's whole blocks
    and the first row of the forbidden tail of T - shift I.

    The rows where d - shift >= 2b are forbidden: after a pivot of at least
    b, each pivot there is d - shift - e^2/q >= 2b - b.  The head is the
    leading forbidden rows, counted in whole blocks of ``_BLOCK`` rows, and
    the tail the rows from which every later row is forbidden.  When every
    row is, the tail is every row and the head none.
    """
    bound = max(math.sqrt(t.esq), t.pivmin)
    # the forbidden rows have d >= edge: the 1e-9 margin dwarfs the
    # round-off of d - s, of e^2 / q and of the threshold itself
    edge = shift + (2.0 * bound + 1e-9 * (bound + abs(shift)))
    # a NaN shift's tail is every row, so its count stops at once, at 0
    tail = bisect_left(t.suffix_min, edge)
    # block_min never rises
    return bound, min(_BLOCK * bisect_right(t.block_min, -edge, key=neg), tail), tail


def _damped_rows(mins, shift: float, bound: float, nats: float) -> int:
    """Rows of the forbidden blocks whose smallest diagonal entries ``mins``
    lists, in the order a walk takes them, that the walk needs to shrink an
    amplitude by e^nats; every row if they shrink it less.

    A sweep that enters a forbidden row with diagonal at least m from
    forbidden rows leaves it with a pivot of at least the fixed point
    b exp(acosh((m - shift) / 2b)) of q = m - shift - b^2/q.  So the row
    shrinks |e|/q, the ratio of neighbouring twisted-vector entries, by
    exp(acosh((m - shift) / 2b)), and an error e^2/q of the pivot by its
    square.  Each block is costed at its smallest entry.  The walk adds one
    exponent per block and stops at nats / ``_BLOCK``; a power of 2 scales
    both sides exactly, so it stops where a sum over the rows would.
    """
    width = 2.0 * bound
    stop = nats / _BLOCK
    acosh = math.acosh
    damped = 0.0
    blocks = 0
    for m in mins:
        if damped >= stop:
            break
        damped += acosh((m - shift) / width)
        blocks += 1
    return _BLOCK * blocks


def _sturm_counts(t: _Tridiagonal, shifts: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of T strictly below each shift (LDL^T sign
    count), each capped.

    A shift's row loop stops once its count reaches its cap (each at least
    1), and the count returned is min(full count, cap).  No forbidden row
    (``_forbidden_ends``) adds to the count, so the loop stops in the tail
    once a pivot reaches b.

    It also starts past most of the forbidden head, the P leading rows.
    There every pivot is at least b, so starting at row j < P with
    q = inf, as at row 0, skips no count and leaves q_j off by
    e^2/q_{j-1} <= |e|.  The head rows from j on shrink that error by
    ``_damped_rows``' factor squared.  The start j is the block boundary
    nearest P from which the head's whole blocks shrink it by e^40 (e^20
    of amplitude, ``_COUNT_NATS``), each block costed at its last row,
    where min(d_0..d_i) is smallest.  The error is then below 2^-57 of the
    pivot, under the round-off of one row.  When the whole head shrinks it
    less, j is 0.
    """
    esq, pivmin, block_min = t.esq, t.pivmin, t.block_min
    counts = []
    for s, cap in zip(shifts.tolist(), caps.tolist()):
        bound, head, tail = _forbidden_ends(t, s)
        j = head - _damped_rows(reversed(block_min[:head // _BLOCK]), s, bound, _COUNT_NATS)
        q = math.inf  # first row: esq / inf is 0.0, so q = d - s exactly
        count = 0
        rest = iter(t.rows)
        rest.__setstate__(j)  # the list iterator's position: rows before j are never read
        for d in islice(rest, tail - j):
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
            if q < bound:
                for d in rest:
                    q = d - s - esq / q
                    if q < pivmin:
                        count += 1
                        if count == cap:
                            break
                        if q > -pivmin:
                            q = -pivmin
                    elif q >= bound:
                        break
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
        out = np.fromiter([(q := d - shift - esq / q) for d in rows], float, len(rows))
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


def _support(t: _Tridiagonal, shift: float, first: int, last: int,
             nats: float) -> tuple[int, int]:
    """Rows [lo, hi) of the numerical support of a twisted vector of
    T - shift I whose twist lies in [first, last], to an amplitude of
    e^-nats.

    Before the twist each entry is |e| / D+ times the next, and after it
    |e| / D- times the one before.  So from the end of the forbidden head
    (``_forbidden_ends``), or the twist's block if that comes first, the
    head rows walked back shrink every entry before lo below e^-nats of
    the entry at the walk's start (``_damped_rows``).  With
    ``_SUPPORT_NATS`` that is below 2^-60 of the vector's largest entry;
    with ``_COUNT_NATS``, the count's walk, below e^-20 of it.  The tail
    rows walked on from the tail's first row, or the row after ``last`` if
    that comes later, do the same for every entry from hi on.  A walk that
    runs out first gives lo = 0 or hi = n.
    """
    bound, head, tail = _forbidden_ends(t, shift)
    head = min(head, first - first % _BLOCK)
    tail = max(tail, last + 1)
    return (head - _damped_rows(reversed(t.block_min[:head // _BLOCK]), shift, bound, nats),
            min(tail + _damped_rows(t.suffix_min[tail::_BLOCK], shift, bound, nats),
                len(t.rows)))


def _twisted_vector(t: _Tridiagonal, shift: float, r: int | None = None,
                    nats: float = _SUPPORT_NATS) -> tuple[np.ndarray, int]:
    """Eigenvector of T for the eigenvalue nearest shift, unnormalized, and
    its twist index.

    Forward and backward LDL^T pivots D+ and D- of T - shift I meet at the
    twist r; the vector is 1 at r and each half is a running product of
    -e / D (Parlett and Dhillon, Linear Algebra Appl. 267, 1997).  Without
    ``r``, r minimizes |gamma_r| = |D+_r + D-_r - (d_r - shift)| over the
    allowed span [first, last], the first and last rows with
    d - shift <= 2|e| (V at or below the shift), or over all rows when
    there are none.  That twist sits at the vector's peak, and the peak
    lies in the span: at a peak z_r of an eigenvector,
    (d_r - lambda) z_r = |e| (z_{r-1} + z_{r+1}) <= 2|e| z_r.  Any twist
    near the vector's peak gives a small residual, so a given ``r`` is
    kept, as the span [r, r].

    The vector is computed on its numerical support [lo, hi) to an
    amplitude of e^-nats only (``_support``), as LAPACK's dlar1v does
    (ISUPPZ; Dhillon, Parlett and Voemel, ACM TOMS 32, 2006), and is
    exactly 0.0 outside it.  With the default ``_SUPPORT_NATS`` every entry
    the cut leaves out is below 2^-60 of the peak of the vector that sweeps
    over all rows give; with ``_COUNT_NATS``, which ``_eigenpairs`` passes
    for the solves that only find the next shift, below e^-20 of it.  D+
    starts at lo and D- at hi - 1, each with q = inf as at the ends.  The
    walked rows shrink that start's error by e^(2 nats), e^92 or e^40, so
    from the walk's start on the pivots match a full sweep's to below one
    rounding, and the twist on the span is a full sweep's.  D+ runs
    forward to ``last`` and D- backward to ``first``: without ``r``, the
    support's rows plus the span's, and with it hi - lo - 1 rows.  Pivots
    get the Sturm count's guard, so no division is by zero.
    """
    rows, esq, pivmin = t.rows, t.esq, t.pivmin
    if r is None:
        a = t.diag - shift
        allowed = np.flatnonzero(a <= 2.0 * abs(t.e))
        first, last = (int(allowed[0]), int(allowed[-1])) if allowed.size else (0, a.size - 1)
        lo, hi = _support(t, shift, first, last, nats)
        d_plus = _pivot_sweep(rows[lo:last + 1], shift, esq, pivmin)
        # rows hi - 1 down to first; a stop of first - 1 would read -1 at first = 0
        d_minus = _pivot_sweep(rows[hi - 1:first - 1 if first else None:-1],
                               shift, esq, pivmin)[::-1]
        r = first + int(np.argmin(np.abs(d_plus[first - lo:] + d_minus[:last + 1 - first]
                                         - a[first:last + 1])))
        d_plus, d_minus = d_plus[:r - lo], d_minus[r + 1 - first:]
    else:
        lo, hi = _support(t, shift, r, r, nats)
        d_plus = _pivot_sweep(rows[lo:r], shift, esq, pivmin)
        d_minus = _pivot_sweep(rows[hi - 1:r:-1], shift, esq, pivmin)[::-1]
    z = np.zeros(t.diag.size)
    z[r] = 1.0
    z[lo:r] = np.cumprod(-t.e / d_plus[::-1])[::-1]
    z[r + 1:hi] = np.cumprod(-t.e / d_minus)
    return z, r


def _tridiagonal_times(t: _Tridiagonal, y: np.ndarray) -> np.ndarray:
    ty = t.diag * y
    ty[:-1] += t.e * y[1:]
    ty[1:] += t.e * y[:-1]
    return ty


def _bisect(t: _Tridiagonal, lo: np.ndarray, hi: np.ndarray, width: float,
            isolated_width: float = 0.0):
    """Bisect each [lo_j, hi_j) around the (j + 1)-th lowest eigenvalue of T
    until every interval is at most ``width`` wide.

    Bisection keeps no state beyond the intervals, so it may start from the
    Gershgorin ends or go on from intervals an earlier call returned.  With
    ``isolated_width`` it stops earlier, once every interval is at most
    that wide and no other eigenvalue lies within one interval width of it.
    Between two levels the intervals' own ends prove that; above the top
    level one more count does.  Returns the interval ends and whether that
    early stop was taken.
    """
    lo, hi = lo.tolist(), hi.tolist()
    k = len(lo)
    for _ in range(200):
        mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
        # targets that still share an interval share its midpoint: count each
        # distinct shift once, and only as far as its largest target
        caps = {m: target for target, m in enumerate(mid, 1)}
        found = _sturm_counts(t, np.array(list(caps)), np.array(list(caps.values())))
        counts = dict(zip(caps, found.tolist()))
        for j, m in enumerate(mid):
            # target j + 1 is reached below m: its level lies below m
            if counts[m] > j:
                hi[j] = m
            else:
                lo[j] = m
        widest = max(b - a for a, b in zip(lo, hi))
        if widest <= width:
            return np.array(lo), np.array(hi), False
        if (widest <= isolated_width and all(a - b >= widest for a, b in zip(lo[1:], hi))
                and _sturm_counts(t, np.array([hi[-1] + widest]), np.array([k + 1]))[0] == k):
            return np.array(lo), np.array(hi), True
    raise ConvergenceError(
        f"bisection failed to localize eigenvalues: widths {np.subtract(hi, lo)}")


def _eigenpairs(t: _Tridiagonal, shifts: np.ndarray):
    """Unit eigenvectors (rows of the result) and their Rayleigh quotients:
    one twisted solve at each shift, then two more at the twist it found,
    each at the Rayleigh quotient of the vector before.

    The first two solves only find the next shift (the first also the
    twist), so they sweep the e^20 support of the count's walk
    (``_COUNT_NATS``); the third, whose vector is returned, sweeps the
    2^-60 one (``_SUPPORT_NATS``).  A shift-finding vector leaves out only
    entries below e^-20 of the entry where its walk starts, and its pivots
    match a full sweep's within e^-40 over the walk, so its twist is the
    same.  Its Rayleigh quotient moves by far less than the next solve's
    own shift error: on the oracle problems by at most 2.2e-17, where that
    error is 2e-7 to 2e-5 after the first solve and down to 4e-14 after
    the second.
    """
    vecs = np.empty((shifts.size, t.diag.size))
    rqs = np.empty(shifts.size)
    for j, rq in enumerate(shifts.tolist()):
        r = None
        for nats in (_COUNT_NATS, _COUNT_NATS, _SUPPORT_NATS):
            y, r = _twisted_vector(t, rq, r, nats)
            y = y / np.linalg.norm(y)
            rq = float(y @ _tridiagonal_times(t, y))
        vecs[j] = y
        rqs[j] = rq
    return vecs, rqs


def discretize_and_solve(potential, grid: Grid, k: int,
                         eigenvectors: bool = True) -> EigenResult:
    """Lowest ``k`` eigenpairs of -phi'' + V phi = lam phi with Dirichlet ends.

    Parameters
    ----------
    potential : callable
        Evaluator of V(x): maps the array of interior nodes to an array of
        the same shape, finite at every node.
    k : int
        Number of eigenvalues requested, an integer in 1..n_points; any
        other value is refused with ValueError before V is sampled.
    eigenvectors : bool
        Whether the result carries the eigenvectors.  It picks no other
        algorithm: the eigenvalues are the same either way.

    Returns
    -------
    EigenResult
        Eigenvalues ascending: the Rayleigh quotients of the final twisted
        solves, except when two levels lie within the final bisection width
        (1e-13 of the matrix scale): then the solve raises ConvergenceError
        with eigenvectors and returns the bisection midpoints without.
        Eigenvectors (if requested, else None) unit-norm under grid
        quadrature with a deterministic sign (largest-magnitude component
        positive).
    """
    if not (isinstance(k, numbers.Integral) and 1 <= k <= grid.n_points):
        raise ValueError(f"k must be an integer in 1..{grid.n_points}, got {k!r}")
    pts = grid.points
    v = _sample(potential, pts)
    if not np.all(np.isfinite(v)):
        i = int(np.argmax(~np.isfinite(v)))
        raise ValueError(f"potential is not finite at x = {pts[i]} (node {i})")

    h = grid.step
    if h < 1e-75:
        raise ValueError(f"grid step {h:.3e} is below 1e-75, where the squared "
                         "coupling 1/h^4 overflows")
    t = _tridiagonal(2.0 / (h * h) + v, -1.0 / (h * h))
    # the Gershgorin end farther from zero is max|d| + 2|e|, the same sum
    mat_scale = max(abs(t.lo), abs(t.hi))
    scale = max(mat_scale, 1.0)
    # twisted solves at the Rayleigh quotient converge cubically, so the
    # solve may stop bisecting at a coarse width, once every interval
    # provably holds its one eigenvalue and no other lies near
    lo_k, hi_k, early = _bisect(t, np.full(k, t.lo), np.full(k, t.hi), 1e-13 * scale,
                                1e-7 * scale)
    if early:
        vecs, refined = _eigenpairs(t, 0.5 * (lo_k + hi_k))
        # a Rayleigh quotient that left its interval found another level:
        # bisect on from these intervals to the full width
        if not np.all((lo_k <= refined) & (refined < hi_k)):
            lo_k, hi_k, early = _bisect(t, lo_k, hi_k, 1e-13 * scale)
    if not early:
        # ascending: bisection intervals are either shared or disjoint
        lams = 0.5 * (lo_k + hi_k)
        close = np.flatnonzero(np.diff(lams) <= 1e-13 * scale)
        if close.size and not eigenvectors:
            # no twisted solve tells such a pair apart: return the midpoints
            if np.any(np.diff(lams) <= 0.0):
                raise ConvergenceError("eigenvalues not strictly ascending")
            return EigenResult(eigenvalues=lams, eigenvectors=None)
        if close.size:
            raise ConvergenceError(f"eigenvalues #{close[0]} and #{close[0] + 1} lie within the "
                                   f"bisection width {1e-13 * scale:.3e}: no orthogonal vectors")
        vecs, refined = _eigenpairs(t, lams)

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
        refined[j] = float(y @ _tridiagonal_times(t, y))

    for j in range(k):
        res = float(np.linalg.norm(_tridiagonal_times(t, vecs[j]) - refined[j] * vecs[j]))
        if res > 1e-6 * mat_scale:
            raise ConvergenceError(
                f"twisted factorization failed for eigenvalue #{j}: residual "
                f"{res:.3e} (matrix scale {mat_scale:.3e})")
        vecs[j] = normalize(vecs[j], grid)
    if np.any(np.diff(refined) <= 0.0):
        raise ConvergenceError("eigenvalues not strictly ascending after refinement")
    return EigenResult(eigenvalues=refined, eigenvectors=vecs if eigenvectors else None)


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

    Refuses non-finite samples (OverflowError), and a sample count other
    than ``n_points`` and a state that vanished on the grid (ValueError).
    The count is checked first, so a non-finite sample is only ever named
    by an existing node.  The norm is ``quadrature_norm``'s.  A peak outside
    [1e-150, 1e150], whose square would overflow or underflow, is divided
    out first.
    """
    samples = _interior_samples(samples, grid)
    if not np.all(np.isfinite(samples)):
        i = int(np.argmax(~np.isfinite(samples)))
        raise OverflowError(f"non-finite wavefunction sample at "
                            f"x = {float(grid.points[i])!r} (node {i})")
    peak = float(np.max(np.abs(samples)))
    if peak > 0.0 and not 1e-150 <= peak <= 1e150:
        samples = samples / peak
    norm = quadrature_norm(samples, grid)
    if norm == 0.0:
        raise ValueError("state vanished on the grid; cannot normalize")
    out = samples / norm
    i_max = int(np.argmax(np.abs(out)))
    if out[i_max] < 0.0:
        out = -out
    return out


def quadrature_norm(samples, grid: Grid) -> float:
    """L2 norm of ``n_points`` interior samples over [x_min, x_max] by the
    trapezoid rule of ``grid.weights``, with Dirichlet zeros implied at both
    ends.  Any other sample count is refused with ValueError.
    """
    f = _interior_samples(samples, grid)
    return math.sqrt(float(np.sum(grid.weights * f * f)))


def _interior_samples(samples, grid: Grid) -> np.ndarray:
    """``samples`` as a float array, refused with ValueError unless it holds
    one sample per interior node of ``grid``."""
    f = np.asarray(samples, dtype=float)
    if f.shape[0] != grid.n_points:
        raise ValueError(f"sample count {f.shape[0]} is not the {grid.n_points} interior nodes")
    return f


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

    ``potential`` maps the array of nodes to an array of the same shape.
    The 4th-order stencil drops two points per side; ``skip``, a
    non-negative integer, trims that many further points per side (used
    near non-smooth potential walls, where the formal order of the stencil
    collapses).
    """
    if not (isinstance(skip, numbers.Integral) and skip >= 0):
        raise ValueError(f"skip must be a non-negative integer, got {skip!r}")
    f = _interior_samples(samples, grid)
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
    """Strict sign changes, ignoring samples below 1e-12 of the peak magnitude.

    A NaN or infinite sample has no sign to count, so it is refused with
    ValueError naming the first such index.
    """
    f = np.asarray(samples, dtype=float)
    if f.size == 0:
        return 0
    a = np.abs(f)
    cut = 1e-12 * np.max(a)
    if not cut < np.inf:  # the peak is non-finite exactly when a sample is
        i = int(np.argmax(~np.isfinite(f)))
        raise ValueError(f"non-finite sample {float(f.flat[i])!r} at index {i}")
    if cut > 0.0:
        # every kept sample is nonzero, so a sign change is a change of < 0
        neg = f[a >= cut] < 0.0
        return int(np.count_nonzero(neg[1:] != neg[:-1]))
    signs = np.sign(f)
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] * signs[:-1] < 0.0))
