import math

import numpy as np
import pytest

from pdmdirac import (Grid, RosenMorseSuperpotential, count_nodes,
                      discretize_and_solve, gpt_solve, ode_residual,
                      partner_potentials, quadrature_norm, quadrature_weights,
                      rm2_solve, rm2_wavefunction, si_remainder_ladder)
from pdmdirac.errors import ConvergenceError
from pdmdirac.numerics import normalize


def box_potential(x):
    return 0.0 * np.asarray(x)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 100)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 8)
    # an infinite end made NaN points, ends 2e308 apart an infinite step, and
    # 100.5 points made 101
    for ends in ((-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="must be finite"):
            Grid(*ends, 100)
    with pytest.raises(ValueError, match="must be an integer"):
        Grid(0.0, 1.0, 100.5)
    assert Grid(0.0, 1.0, np.int64(100)).n_points == 100
    g = Grid(0.0, 1.0, 99)
    assert g.step == pytest.approx(0.01)
    assert len(g.points) == 99
    assert g.points[0] == pytest.approx(0.01)


def test_box_eigenvalues():
    g = Grid(0.0, math.pi, 4000)
    r = discretize_and_solve(box_potential, g, 3)
    assert abs(r.eigenvalues[0] - 1.0) < 1e-5
    assert abs(r.eigenvalues[1] - 4.0) < 1e-4
    assert abs(r.eigenvalues[2] - 9.0) < 5e-4


def test_harmonic_oscillator_eigenvalues():
    g = Grid(-12.0, 12.0, 4000)
    r = discretize_and_solve(lambda x: x * x, g, 4)
    for i, expected in enumerate((1.0, 3.0, 5.0, 7.0)):
        assert abs(r.eigenvalues[i] - expected) < (1e-5 if i == 0 else 1e-4)


def test_rm2_cross_validation():
    w = RosenMorseSuperpotential(c1=0.0, c2=2.0)
    g = Grid(-15.0, 15.0, 6000)
    r = discretize_and_solve(lambda x: partner_potentials(w, x).v_minus, g, 2)
    for n in range(2):
        assert abs(r.eigenvalues[n] - si_remainder_ladder(w, n)) < 5e-4


@pytest.mark.parametrize("potential, domain, exact", [
    (box_potential, (0.0, math.pi), 1.0),
    (lambda x: x * x, (-12.0, 12.0), 1.0),
])
def test_second_order_convergence(potential, domain, exact):
    errors = []
    for n in (500, 1000):
        g = Grid(domain[0], domain[1], n)
        r = discretize_and_solve(potential, g, 1, eigenvectors=False)
        errors.append(abs(r.eigenvalues[0] - exact))
    # grid step roughly halves, so the error should drop ~4x (within 20%)
    h_ratio = (Grid(*domain, 500).step / Grid(*domain, 1000).step) ** 2
    assert errors[0] / errors[1] == pytest.approx(h_ratio, rel=0.2)


def test_eigenvector_matrix_residual_and_norm():
    g = Grid(-12.0, 12.0, 2001)
    r = discretize_and_solve(lambda x: x * x, g, 3)
    h = g.step
    v = np.asarray(r.eigenvectors)
    diag = 2.0 / h ** 2 + g.points ** 2
    for j in range(3):
        assert quadrature_norm(v[j], g) == pytest.approx(1.0, abs=1e-12)
        y = v[j] / np.linalg.norm(v[j])
        ty = diag * y
        ty[:-1] += -1.0 / h ** 2 * y[1:]
        ty[1:] += -1.0 / h ** 2 * y[:-1]
        assert np.linalg.norm(ty - r.eigenvalues[j] * y) < 1e-9


def test_even_potential_gives_definite_parity():
    g = Grid(-12.0, 12.0, 2001)
    r = discretize_and_solve(lambda x: x * x, g, 3)
    for j, parity in enumerate((+1, -1, +1)):
        v = r.eigenvectors[j]
        asym = np.max(np.abs(v - parity * v[::-1])) / np.max(np.abs(v))
        assert asym < 1e-6


def test_box_independence_for_confined_potential():
    # same step on both boxes so only the truncation differs
    w = RosenMorseSuperpotential(c1=0.0, c2=2.0)
    pot = lambda x: partner_potentials(w, x).v_minus
    g1 = Grid(-15.0, 15.0, 5999)   # h = 0.005
    g2 = Grid(-16.5, 16.5, 6599)   # h = 0.005
    r1 = discretize_and_solve(pot, g1, 2, eigenvectors=False)
    r2 = discretize_and_solve(pot, g2, 2, eigenvectors=False)
    assert np.max(np.abs(r1.eigenvalues - r2.eigenvalues)) < 1e-8


def test_nonfinite_potential_reports_location():
    g = Grid(0.0, 1.0, 99)

    def pot(x):
        x = np.asarray(x)
        return np.where(np.abs(x - 0.5) < 1e-3, np.inf, 0.0)

    with pytest.raises(ValueError, match="not finite at x"):
        discretize_and_solve(pot, g, 1)


def test_grid_step_too_small_for_the_matrix_is_refused():
    # h^2 underflowed to 0.0 and the solve divided by it
    with pytest.raises(ValueError, match="grid step 9.901e-163 is below 1e-75"):
        discretize_and_solve(box_potential, Grid(0.0, 1e-160, 100), 1)


def test_ode_residual_exact_eigenfunction():
    g = Grid(0.0, math.pi, 4000)
    samples = np.sin(g.points)
    assert ode_residual(box_potential, 1.0, samples, g) < 1e-8


def test_ode_residual_noise_control():
    rng = np.random.default_rng(0)
    res = []
    for n in (1000, 2000):
        g = Grid(0.0, math.pi, n)
        noise = 1e-6 * rng.standard_normal(n)
        res.append(ode_residual(box_potential, 0.0, noise, g))
    # noise residual scales like h^-2: doubling the resolution quadruples it
    assert res[1] / res[0] == pytest.approx(4.0, rel=0.5)
    assert res[0] > 1e4  # vastly above any smooth-state residual


def test_ode_residual_rm2_first_level():
    w = RosenMorseSuperpotential(c1=0.0, c2=2.0)
    g = Grid(-15.0, 15.0, 4000)
    st = rm2_wavefunction(1, 6.0, 0.0, g)
    pot = lambda x: partner_potentials(w, x).v_minus
    assert ode_residual(pot, st.e_bar, st.samples, g) < 1e-6


def test_quadrature_constant():
    g = Grid(0.0, 1.0, 99)
    closed = np.ones(101)
    assert quadrature_norm(closed, g) == pytest.approx(1.0, abs=1e-14)


def test_quadrature_sin_norm():
    g = Grid(0.0, math.pi, 999)
    closed = np.sin(np.concatenate(([0.0], g.points, [math.pi])))
    assert quadrature_norm(closed, g) == pytest.approx(math.sqrt(math.pi / 2.0),
                                                       abs=1e-10)


def test_quadrature_gaussian_tail_truncation():
    # || e^{-x^2/2} ||_2 = pi^{1/4}; truncation at 12 sigma is below 1e-12
    g = Grid(-12.0, 12.0, 79999)
    closed = np.exp(-np.concatenate(([g.x_min], g.points, [g.x_max])) ** 2 / 2.0)
    assert quadrature_norm(closed, g) == pytest.approx(math.pi ** 0.25, abs=1e-12)


def test_quadrature_interior_vs_closed():
    g = Grid(0.0, math.pi, 999)
    interior = np.sin(g.points)
    closed = np.sin(np.concatenate(([0.0], g.points, [math.pi])))
    assert quadrature_norm(interior, g) == pytest.approx(quadrature_norm(closed, g),
                                                         rel=1e-14)
    with pytest.raises(ValueError, match="sample count"):
        quadrature_norm(np.ones(5), g)


def test_grid_weights_are_the_interior_quadrature_weights():
    # trapezoid for either parity of n_points + 2
    for n_points in (999, 1000):
        g = Grid(0.0, math.pi, n_points)
        assert g.weights.shape == (n_points,)
        assert g.weights[0] == g.step
        assert np.array_equal(g.weights, quadrature_weights(n_points + 2, g.step)[1:-1])
        # the dropped end weights are all that is missing from the interval length
        assert float(np.sum(g.weights)) == pytest.approx(math.pi - g.step, rel=1e-13)


def test_normalize_refuses_a_vanished_state():
    g = Grid(-1.0, 1.0, 64)
    with pytest.raises(ValueError, match="state vanished on the grid"):
        normalize(np.zeros(g.n_points), g)


def test_count_nodes_cases():
    assert count_nodes(np.ones(50)) == 0
    xs = np.linspace(0.01, math.pi - 0.01, 400)
    assert count_nodes(np.sin(3 * xs)) == 2
    g = Grid(-15.0, 15.0, 2001)
    st = rm2_wavefunction(2, 12.0, 1.0, g)
    assert count_nodes(st.samples) == 2
    # near-zero chatter is ignored
    noisy = np.concatenate((np.full(10, 1.0), 1e-15 * np.array([1, -1, 1]),
                            np.full(10, 1.0)))
    assert count_nodes(noisy) == 0


def _unit_angle(u, v):
    # |u/|u| -/+ v/|v||, which is the angle between the lines up to O(angle^3)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return float(np.linalg.norm(u - math.copysign(1.0, float(u @ v)) * v))


def _double_well(depth):
    return lambda x: 0.5 * (x * x - depth * depth) ** 2


def test_close_pair_is_refused_on_the_eigenvector_path():
    # the two lowest levels of the double well lie 9.4e-10 apart, below the
    # bisection's final width (about 4.1e-9): their twisted vectors came back
    # with a grid overlap of 0.30
    g = Grid(-7.0, 7.0, 1400)
    with pytest.raises(ConvergenceError, match="eigenvalues #0 and #1 lie within"):
        discretize_and_solve(_double_well(3.0), g, 6)
    r = discretize_and_solve(_double_well(3.0), g, 6, eigenvectors=False)
    h = g.step
    t = (np.diag(2.0 / h ** 2 + _double_well(3.0)(g.points))
         + np.diag(np.full(g.n_points - 1, -1.0 / h ** 2), 1)
         + np.diag(np.full(g.n_points - 1, -1.0 / h ** 2), -1))
    assert np.max(np.abs(r.eigenvalues - np.linalg.eigvalsh(t)[:6])) < 1e-8
    # a pair as far apart as levels 2 and 3 of that well (2.6e-7) is kept
    # and comes out orthogonal
    r = discretize_and_solve(_double_well(2.75), g, 2)
    assert r.eigenvalues[1] - r.eigenvalues[0] == pytest.approx(2.76e-7, rel=0.01)
    assert abs(float(np.sum(g.weights * r.eigenvectors[0] * r.eigenvectors[1]))) < 1e-4


def test_twisted_vector_handles_every_pivot_class():
    from pdmdirac.numerics import _twisted_vector

    rng = np.random.default_rng(3)
    n = 40
    e = -4.0
    for _ in range(20):
        # build the diagonal row by row from chosen forward pivots of
        # T - shift I: a few are tiny or 0.0, and the last is 0.0, so the
        # shift is an eigenvalue of T
        shift = float(rng.uniform(-0.5, 0.5))
        forced = set(rng.choice(np.arange(2, n - 2, 3), 4, replace=False).tolist())
        d = []
        q = math.inf
        for i in range(n):
            if i in forced or i == n - 1:
                piv = 0.0 if i % 2 or i == n - 1 else 1e-13 * float(rng.standard_normal())
                d.append(shift + piv + e * e / q)
            else:
                d.append(float(rng.uniform(-1.0, 1.0)))
            q = d[i] - shift - e * e / q
            if abs(q) < 1e-300:  # only keeps this construction finite
                q = -1e-300
        d = np.array(d)
        t = np.diag(d) + np.diag(np.full(n - 1, e), 1) + np.diag(np.full(n - 1, e), -1)
        lams, vecs = np.linalg.eigh(t)
        j = int(np.argmin(np.abs(lams - shift)))
        got, r = _twisted_vector(d, d.tolist(), e, shift)
        assert np.all(np.isfinite(got))
        assert _unit_angle(got, vecs[:, j]) < 1e-9
        # solved again at that twist, the sweeps stop there and give the
        # same vector
        assert np.array_equal(_twisted_vector(d, d.tolist(), e, shift, r)[0], got)
    # d - shift exactly 0.0 on every row: every other pivot lands on 0.0 and
    # takes the pivmin branch.  For odd n the shift is an eigenvalue, with
    # the null vector (1, 0, -1, 0, ...)
    for n in (40, 41):
        d = np.full(n, 0.25)
        got, r = _twisted_vector(d, d.tolist(), e, 0.25)
        assert np.all(np.isfinite(got))
        assert np.array_equal(_twisted_vector(d, d.tolist(), e, 0.25, r)[0], got)
    null = np.zeros(41)
    null[::4], null[2::4] = 1.0, -1.0
    assert _unit_angle(got, null) < 1e-9


def _pivots_reference(a, esq):
    # the twisted factorization's pivot loop as first written, on the shifted
    # diagonal a = d - shift; _pivot_sweep must give the same bits
    pivmin = max(esq * 1e-292, 1e-300)
    out = []
    q = math.inf
    for d in a:
        q = d - esq / q
        if -pivmin < q < pivmin:
            q = -pivmin
        out.append(q)
    return np.array(out)


def _assert_pivots_match_reference(diag, esq, shifts):
    # forward over the rows and backward over their reversed copy
    from pdmdirac.numerics import _pivot_sweep

    rows = np.array(diag, dtype=float).tolist()
    pivmin = max(esq * 1e-292, 1e-300)
    for shift in np.array(shifts, dtype=float).tolist():
        a = np.array(rows) - shift
        for got, ref in ((_pivot_sweep(rows, shift, esq, pivmin), _pivots_reference(a, esq)),
                         (_pivot_sweep(rows[::-1], shift, esq, pivmin),
                          _pivots_reference(a[::-1], esq))):
            assert got.shape == (len(rows),)
            assert np.array_equal(got, ref)


def test_pivot_sweep_matches_reference_loop_on_every_pivot_class():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(16, 60))
        diag = rng.uniform(-5.0, 5.0, n)
        esq = rng.uniform(0.1, 2.0) ** 2
        # diag values as shifts land the first pivot of a sweep on exactly
        # 0.0, so the next row divides by it
        _assert_pivots_match_reference(diag, esq, np.concatenate(
            (rng.uniform(-8.0, 8.0, 10), diag[:3], diag[-3:])))
    # as in the Sturm count's test: esq = 1e-300 puts pivmin at 1e-300, and
    # after a pivot of 1e300 the coupling term underflows to 0.0, so with
    # shift 0 these rows land exactly on 0.0, on +-pivmin and strictly
    # inside (-pivmin, pivmin).  Each class gets its own diagonal, first,
    # inside and last in both directions, so that no division by 0.0
    # elsewhere sends the sweep to the guarded loop; one more holds them all
    pivmin = 1e-300
    targets = [0.0, pivmin, -pivmin, 0.5 * pivmin, -0.5 * pivmin,
               np.nextafter(pivmin, 0.0), np.nextafter(-pivmin, 0.0),
               5e-324, -5e-324, 2.0 * pivmin, -2.0 * pivmin]
    diags = [[t, 1e300, t, 1e300, t] for t in targets]
    diags.append([targets[-1]] + [d for t in targets for d in (1e300, t)])
    for diag in diags:
        _assert_pivots_match_reference(diag, 1e-300, [0.0, -0.0, 1.0, -1.0, pivmin])


def test_sturm_counts_match_dense_eigenvalues():
    from pdmdirac.numerics import _sturm_counts

    rng = np.random.default_rng(11)
    n = 40
    for _ in range(10):
        diag = rng.uniform(-5.0, 5.0, n)
        e = rng.uniform(-2.0, 2.0)
        t = np.diag(diag) + np.diag(np.full(n - 1, e), 1) + np.diag(
            np.full(n - 1, e), -1)
        lams = np.linalg.eigvalsh(t)
        # diag[0] as a shift makes the first pivot exactly 0.0 (pivmin branch)
        shifts = np.concatenate((rng.uniform(lams[0] - 1.0, lams[-1] + 1.0, 30),
                                 diag))
        expected = [int(np.sum(lams < s)) for s in shifts]
        assert _sturm_counts(diag.tolist(), e * e, shifts).tolist() == expected
    # constant diagonal 1, e = -1, shift 0: the second pivot is 1 - 1/1 = 0.0
    diag = np.ones(n)
    t = np.diag(diag) - np.eye(n, k=1) - np.eye(n, k=-1)
    lams = np.linalg.eigvalsh(t)
    shifts = np.array([0.0, 1.0, 2.0, -0.5])
    expected = [int(np.sum(lams < s)) for s in shifts]
    assert _sturm_counts(diag.tolist(), 1.0, shifts).tolist() == expected


def _sturm_counts_reference(diag, esq, shifts):
    # the row loop as first written (chained band guard, then a sign test);
    # _sturm_counts must give the same count for every shift
    pivmin = max(esq * 1e-292, 1e-300)
    counts = []
    for s in shifts:
        q = diag[0] - s
        if -pivmin < q < pivmin:
            q = -pivmin
        count = int(q < 0.0)
        for d in diag[1:]:
            q = d - s - esq / q
            if -pivmin < q < pivmin:
                q = -pivmin
            if q < 0.0:
                count += 1
        counts.append(count)
    return counts


def _assert_counts_match_reference(diag, esq, shifts):
    # every cap, with and without the exit in the right tail, gives the
    # reference loop's count
    from pdmdirac.numerics import _sturm_counts

    rows = np.array(diag, dtype=float).tolist()
    shifts = np.array(shifts, dtype=float)
    suffix_min = np.minimum.accumulate(np.array(rows)[::-1])[::-1]
    full = _sturm_counts_reference(rows, esq, shifts.tolist())
    for tails in (None, suffix_min):
        assert _sturm_counts(rows, esq, shifts, None, tails).tolist() == full
        # a capped count stops at its cap
        for cap in (1, 2, len(rows)):
            caps = np.full(shifts.size, cap)
            assert (_sturm_counts(rows, esq, shifts, caps, tails).tolist()
                    == [min(c, cap) for c in full])


def test_sturm_counts_match_reference_loop_on_every_pivot_class():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(16, 60))
        diag = rng.uniform(-5.0, 5.0, n)
        esq = rng.uniform(0.0, 2.0) ** 2
        # diag values as shifts land the first pivot on exactly 0.0; repeats
        # and a NaN shift go through the same loop; the last rows less 2|e|
        # sit on the edge of the tail exit's threshold
        shifts = np.concatenate((rng.uniform(-8.0, 8.0, 20), diag[:5],
                                 np.repeat(rng.uniform(-8.0, 8.0, 3), 3),
                                 [np.nan], diag[-5:] - 2.0 * math.sqrt(esq)))
        _assert_counts_match_reference(diag, esq, shifts)
    # esq = 1e-300 puts pivmin at 1e-300, and after a pivot of 1e300 the
    # coupling term esq / q underflows to 0.0: with shift 0 the next pivot is
    # the diagonal entry itself, so these rows land exactly on 0.0, on
    # +-pivmin and strictly inside (0, pivmin) and (-pivmin, 0)
    esq = 1e-300
    pivmin = 1e-300
    targets = [0.0, pivmin, -pivmin, 0.5 * pivmin, -0.5 * pivmin,
               np.nextafter(pivmin, 0.0), np.nextafter(-pivmin, 0.0),
               5e-324, -5e-324, 2.0 * pivmin, -2.0 * pivmin]
    for first in targets:
        diag = [first]
        for t in targets:
            diag += [1e300, t]
        _assert_counts_match_reference(diag, esq, [0.0, 0.0, -0.0, 1.0, -1.0, pivmin,
                                                   -pivmin, 1e300])


class _RowsRead(list):
    """A diagonal that counts the rows a Sturm count reads."""

    read = 0

    def __iter__(self):
        for d in super().__iter__():
            self.read += 1
            yield d


@pytest.mark.parametrize("solve, coeffs, domain, share", [
    (rm2_solve, (5.0, 20.0, 1.0), (-15.0, 15.0), 0.9),
    (gpt_solve, (9.0, 2.5, 1.0), (1e-3, 20.0), 0.4),
])
def test_sturm_counts_stop_in_the_forbidden_tail(solve, coeffs, domain, share):
    # where V > s on every later node, a pivot of at least |e| stays so, and
    # the count is final: on the oracle problems the counts at 50 shifts
    # across the lowest levels are unchanged, and they read 0.86 (whole
    # line) and 0.35 (half line) of the rows
    from pdmdirac.numerics import _sturm_counts

    w = solve(*coeffs, n_max=2).w
    grid = Grid(*domain, 6000)
    h = grid.step
    diag = 2.0 / h ** 2 + partner_potentials(w, grid.points).v_minus
    suffix_min = np.minimum.accumulate(diag[::-1])[::-1]
    shifts = np.linspace(-1.0, 60.0, 50)
    full, tail = _RowsRead(diag.tolist()), _RowsRead(diag.tolist())
    esq = h ** -4
    assert (_sturm_counts(tail, esq, shifts, None, suffix_min).tolist()
            == _sturm_counts(full, esq, shifts).tolist())
    assert full.read == 50 * 6000
    assert tail.read < share * full.read


def test_eigenvalues_only_bits_are_pinned():
    # these potentials and grids use only IEEE + - * /, so the bits are the
    # same on every platform; a change to the bisection that moves any
    # midpoint moves them
    r = discretize_and_solve(lambda x: x * x, Grid(-8.0, 8.0, 900), 4,
                             eigenvectors=False)
    assert [float(v).hex() for v in r.eigenvalues] == [
        "0x1.fffd6aa62dc9cp-1", "0x1.7ffcc54d93235p+1",
        "0x1.3ffbcd471266cp+2", "0x1.bff7ed2f66b4ep+2"]
    r = discretize_and_solve(box_potential, Grid(0.0, math.pi, 4000), 3,
                             eigenvectors=False)
    assert [float(v).hex() for v in r.eigenvalues] == [
        "0x1.0000019af6aaep+0", "0x1.fffff8620a618p+1",
        "0x1.1ffff6fa728c1p+3"]


def _rosen_morse_oracle_problem():
    # the 6000-point whole-line problem the oracle checks, k = 3
    w = rm2_solve(5.0, 20.0, 1.0, n_max=2).w
    return (lambda x: partner_potentials(w, x).v_minus), Grid(-15.0, 15.0, 6000)


def test_bisection_counts_each_distinct_shift_once(monkeypatch):
    from pdmdirac import numerics

    calls = []
    counts = numerics._sturm_counts

    def spy(rows, esq, shifts, caps=None, suffix_min=None):
        calls.append(np.array(shifts))
        return counts(rows, esq, shifts, caps, suffix_min)

    monkeypatch.setattr(numerics, "_sturm_counts", spy)
    potential, grid = _rosen_morse_oracle_problem()
    discretize_and_solve(potential, grid, 3, eigenvectors=False)
    assert calls
    for shifts in calls:
        assert np.unique(shifts).size == shifts.size
    # the three targets share one interval until the first passes split them
    assert sum(shifts.size for shifts in calls) < 3 * len(calls)


@pytest.mark.parametrize("solve, coeffs, domain", [
    (rm2_solve, (5.0, 20.0, 1.0), (-15.0, 15.0)),
    (gpt_solve, (9.0, 2.5, 1.0), (1e-3, 20.0)),
])
def test_eigenvector_path_stops_bisecting_early(monkeypatch, solve, coeffs, domain):
    # the eigenvector path stops at 1e-7 of the scale (24 passes and one
    # count above the top level); the eigenvalues-only path bisects to 1e-13
    from pdmdirac import numerics

    calls = []
    counts = numerics._sturm_counts

    def spy(*args):
        calls.append(args[2].size)
        return counts(*args)

    monkeypatch.setattr(numerics, "_sturm_counts", spy)
    w = solve(*coeffs, n_max=2).w
    potential = lambda x: partner_potentials(w, x).v_minus
    grid = Grid(*domain, 6000)
    discretize_and_solve(potential, grid, 3)
    assert len(calls) <= 26
    calls.clear()
    discretize_and_solve(potential, grid, 3, eigenvectors=False)
    assert len(calls) == 44


@pytest.mark.parametrize("solve, coeffs, domain", [
    (rm2_solve, (5.0, 20.0, 1.0), (-15.0, 15.0)),
    (gpt_solve, (9.0, 2.5, 1.0), (1e-3, 20.0)),
])
def test_later_twisted_solves_keep_the_twist(monkeypatch, solve, coeffs, domain):
    # each level's first solve sweeps all n rows both ways to find its twist;
    # its two later solves sweep up to the twist and back down to it, n - 1
    # rows: 71,994 rows for k = 3 instead of 108,000
    from pdmdirac import numerics

    rows_read = []
    sweep = numerics._pivot_sweep

    def spy(rows, *args):
        rows_read.append(len(rows))
        return sweep(rows, *args)

    monkeypatch.setattr(numerics, "_pivot_sweep", spy)
    w = solve(*coeffs, n_max=2).w
    n = 6000
    discretize_and_solve(lambda x: partner_potentials(w, x).v_minus, Grid(*domain, n), 3)
    assert rows_read[:2] == [n, n]
    per_solve = [a + b for a, b in zip(rows_read[::2], rows_read[1::2])]
    assert per_solve == [2 * n, n - 1, n - 1] * 3
    assert sum(rows_read) == 71_994


def test_early_stop_never_hands_back_the_wrong_level():
    # level 1 of this well lies 5.4e-9 above level 0, far inside the early
    # stop's width (about 4e-3): the interval around level 0 never holds it
    # alone with a clear margin, so it bisects on to 1e-13 of the scale
    g = Grid(-7.0, 7.0, 1400)
    r = discretize_and_solve(_double_well(2.93), g, 1)
    bisected = discretize_and_solve(_double_well(2.93), g, 1, eigenvectors=False)
    h = g.step
    scale = float(np.max(2.0 / h ** 2 + _double_well(2.93)(g.points))) + 2.0 / h ** 2
    assert abs(r.eigenvalues[0] - bisected.eigenvalues[0]) <= 1e-12 * scale
    v = r.eigenvectors[0]
    assert int(np.sum(v[1:] * v[:-1] < 0.0)) == 0


def test_rayleigh_quotient_outside_its_interval_falls_back_to_full_bisection(monkeypatch):
    # a twisted solve that converged to a neighbouring level leaves its
    # interval; the solve then bisects to 1e-13 of the scale, as the
    # eigenvalues-only path does, and solves again from there
    from pdmdirac import numerics

    pairs = numerics._eigenpairs
    shifts = []

    def astray(diag, rows, e, mids):
        shifts.append(mids)
        vecs, rqs = pairs(diag, rows, e, mids)
        return vecs, rqs + (1.0 if len(shifts) == 1 else 0.0)

    monkeypatch.setattr(numerics, "_eigenpairs", astray)
    potential, grid = _rosen_morse_oracle_problem()
    r = discretize_and_solve(potential, grid, 3)
    bisected = discretize_and_solve(potential, grid, 3, eigenvectors=False)
    assert len(shifts) == 2
    assert np.array_equal(shifts[1], bisected.eigenvalues)
    assert np.max(np.abs(r.eigenvalues - bisected.eigenvalues)) < 1e-8


@pytest.mark.parametrize("depth", [2.93, 2.9, 2.85])
def test_close_pair_outside_the_refused_width_is_orthogonal(depth):
    # the lowest pair of these wells lies 5.4e-9, 1.1e-8 and 3.3e-8 apart,
    # just above the refused width: their twisted vectors had grid overlaps
    # of 0.034, 0.011 and 1.6e-3 before the cluster was orthogonalized
    g = Grid(-7.0, 7.0, 1400)
    r = discretize_and_solve(_double_well(depth), g, 2)
    v = r.eigenvectors
    assert abs(float(np.sum(g.weights * v[0] * v[1]))) < 1e-12
    h = g.step
    diag = 2.0 / h ** 2 + _double_well(depth)(g.points)
    for j in range(2):
        y = v[j] / np.linalg.norm(v[j])
        ty = diag * y
        ty[:-1] += -1.0 / h ** 2 * y[1:]
        ty[1:] += -1.0 / h ** 2 * y[:-1]
        assert np.linalg.norm(ty - r.eigenvalues[j] * y) < 1e-9


@pytest.mark.parametrize("solve, coeffs, domain", [
    (rm2_solve, (5.0, 20.0, 1.0), (-15.0, 15.0)),
    (gpt_solve, (9.0, 2.5, 1.0), (1e-3, 20.0)),
])
def test_oracle_eigenvectors_on_the_oracle_problems(solve, coeffs, domain):
    # the 6000-point problems the oracle checks: eigenvector j has exactly j
    # raw sign changes, tails included, and its Rayleigh quotient matches
    # the eigenvalues-only bisection
    w = solve(*coeffs, n_max=2).w
    potential = lambda x: partner_potentials(w, x).v_minus
    grid = Grid(*domain, 6000)
    r = discretize_and_solve(potential, grid, 3)
    bisected = discretize_and_solve(potential, grid, 3, eigenvectors=False)
    h = grid.step
    scale = float(np.max(np.abs(2.0 / h ** 2 + potential(grid.points)))) + 2.0 / h ** 2
    for j, v in enumerate(r.eigenvectors):
        assert int(np.sum(v[1:] * v[:-1] < 0.0)) == j
        assert abs(r.eigenvalues[j] - bisected.eigenvalues[j]) <= 1e-12 * scale


def test_derivative_stencils_are_fourth_order():
    from pdmdirac.numerics import first_derivative, second_derivative_interior

    errs1, errs2 = [], []
    for n in (200, 400):
        g = Grid(0.0, 3.0, n)
        f = np.sin(g.points)
        errs1.append(np.max(np.abs(first_derivative(f, g.step) - np.cos(g.points))))
        d2 = second_derivative_interior(f, g.step)
        errs2.append(np.max(np.abs(d2 + np.sin(g.points[2:-2]))))
    assert errs1[0] / errs1[1] == pytest.approx(16.0, rel=0.35)
    assert errs2[0] / errs2[1] == pytest.approx(16.0, rel=0.35)


def test_against_scipy_tridiagonal_solver():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    g = Grid(-8.0, 8.0, 900)
    r = discretize_and_solve(lambda x: x * x, g, 4)
    h = g.step
    d = 2.0 / h ** 2 + g.points ** 2
    e = np.full(g.n_points - 1, -1.0 / h ** 2)
    ref = scipy_linalg.eigh_tridiagonal(d, e, select="i",
                                        select_range=(0, 3))[0]
    assert np.max(np.abs(r.eigenvalues - ref)) < 1e-9


def test_against_scipy_tridiagonal_solver_eigenvectors():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    potential, g = _rosen_morse_oracle_problem()
    r = discretize_and_solve(potential, g, 3)
    h = g.step
    d = 2.0 / h ** 2 + potential(g.points)
    e = np.full(g.n_points - 1, -1.0 / h ** 2)
    ref_vals, ref_vecs = scipy_linalg.eigh_tridiagonal(d, e, select="i",
                                                       select_range=(0, 2))
    assert np.max(np.abs(r.eigenvalues - ref_vals)) < 1e-9
    for j in range(3):
        # on a uniform grid the overlap h <a, b> / (h |a| |b|) is the cosine
        ours = r.eigenvectors[j] / np.linalg.norm(r.eigenvectors[j])
        theirs = ref_vecs[:, j] / np.linalg.norm(ref_vecs[:, j])
        assert abs(float(ours @ theirs)) >= 1.0 - 1e-12
