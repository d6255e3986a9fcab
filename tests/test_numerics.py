import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdirac import (Grid, RosenMorseSuperpotential, count_nodes,
                      discretize_and_solve, gpt_solve, numerics, ode_residual,
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


def test_potential_must_return_an_array_of_the_nodes_shape():
    # the potential is sampled in one call; a scalar is not taken node by node
    g = Grid(0.0, 1.0, 99)
    with pytest.raises(ValueError, match=r"returned shape \(\), not the nodes' \(99,\)"):
        discretize_and_solve(lambda x: 5.0, g, 1)
    samples = np.sin(np.pi * g.points)
    with pytest.raises(ValueError, match=r"returned shape \(\), not the nodes' \(95,\)"):
        ode_residual(lambda x: 5.0, 0.0, samples, g)


def test_residual_of_an_all_zero_state_is_zero():
    # the relative residual has a zero norm below it; the absolute one is returned
    g = Grid(0.0, 1.0, 99)
    assert ode_residual(lambda x: 5.0 * x, 1.0, np.zeros(99), g) == 0.0


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


def test_ode_residual_refuses_a_negative_or_non_integer_skip():
    # skip = -1 sliced res[-1:1], an empty array, and read 0.0 at any energy
    g = Grid(-5.0, 5.0, 400)
    ground = np.exp(-0.5 * g.points ** 2)
    harmonic = lambda x: x * x
    assert ode_residual(harmonic, 1.0, ground, g) < 1e-3
    assert ode_residual(harmonic, 7.0, ground, g) > 1.0
    for skip in (-1, -3, 1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match=f"skip must be a non-negative integer, got {skip!r}"):
            ode_residual(harmonic, 7.0, ground, g, skip=skip)
    assert (ode_residual(harmonic, 7.0, ground, g, skip=np.int64(2))
            == ode_residual(harmonic, 7.0, ground, g, skip=2) > 1.0)


def test_solve_refuses_a_bad_k_before_sampling_the_potential():
    # k = 2.5 failed deep in numpy and k = "3" in a comparison, both after
    # the potential was sampled
    g = Grid(0.0, 1.0, 99)
    sampled = []

    def potential(x):
        sampled.append(x.size)
        return 0.0 * x

    for k in (0, -1, 100, 2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match=rf"k must be an integer in 1\.\.99, got {k!r}"):
            discretize_and_solve(potential, g, k)
    assert sampled == []
    r = discretize_and_solve(potential, g, np.int64(2), eigenvectors=False)
    assert sampled == [99]
    assert np.array_equal(r.eigenvalues, discretize_and_solve(potential, g, 2,
                                                              eigenvectors=False).eigenvalues)


def test_quadrature_sin_norm():
    g = Grid(0.0, math.pi, 999)
    assert quadrature_norm(np.sin(g.points), g) == pytest.approx(math.sqrt(math.pi / 2.0),
                                                                 abs=1e-10)


def test_quadrature_gaussian_tail_truncation():
    # || e^{-x^2/2} ||_2 = pi^{1/4}; truncation at 12 sigma is below 1e-12
    g = Grid(-12.0, 12.0, 79999)
    interior = np.exp(-g.points ** 2 / 2.0)
    assert quadrature_norm(interior, g) == pytest.approx(math.pi ** 0.25, abs=1e-12)


def test_quadrature_interior_vs_closed():
    # interior samples only: the closed grid's count is refused like any other
    g = Grid(0.0, math.pi, 999)
    interior = np.sin(g.points)
    closed = np.sin(np.concatenate(([0.0], g.points, [math.pi])))
    w = quadrature_weights(closed.size, g.step)
    assert quadrature_norm(interior, g) == pytest.approx(math.sqrt(float(np.sum(w * closed ** 2))),
                                                         rel=1e-14)
    for count in (5, g.n_points + 2):
        with pytest.raises(ValueError, match="sample count"):
            quadrature_norm(np.ones(count), g)


def test_grid_weights_are_the_interior_quadrature_weights():
    # trapezoid for either parity of n_points + 2
    for n_points in (999, 1000):
        g = Grid(0.0, math.pi, n_points)
        assert g.weights.shape == (n_points,)
        assert g.weights[0] == g.step
        assert np.array_equal(g.weights, quadrature_weights(n_points + 2, g.step)[1:-1])
        # the dropped end weights are all that is missing from the interval length
        assert float(np.sum(g.weights)) == pytest.approx(math.pi - g.step, rel=1e-13)


@pytest.mark.parametrize("x_min, x_max, n_points", [
    (-0.0, 1.0, 50), (np.float32(0.5), 2.0, 16), (0.0, 1.0, np.int64(100)),
    (-15.0, 15.0, 6000), (1e-3, 20.0, 6000),
], ids=["negative-zero-end", "float32-end", "int64-count", "oracle-line", "oracle-half"])
def test_grid_arrays_keep_the_bits_of_their_expressions(x_min, x_max, n_points,
                                                        empty_memos):
    g = Grid(x_min, x_max, n_points)
    h = g.step
    points = g.x_min + h * np.arange(1, g.n_points + 1)
    weights = quadrature_weights(g.n_points + 2, h)[1:-1]
    for _ in range(2):  # a build, then a memo hit
        for got, want in ((g.points, points), (g.weights, weights)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_grid_arrays_are_read_only():
    g = Grid(0.0, 1.0, 16)
    for arr in (g.points, g.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert g.points[0] == g.step and g.weights[0] == g.step


def test_grid_arrays_are_built_once_for_each_of_two_alternating_grids(monkeypatch,
                                                                      empty_memos):
    built = []
    weights = numerics.quadrature_weights

    def spy(n_samples, h):
        built.append(n_samples)
        return weights(n_samples, h)

    monkeypatch.setattr(numerics, "quadrature_weights", spy)
    line, half = Grid(-15.0, 15.0, 100), Grid(1e-3, 20.0, 102)
    points = line.points
    for _ in range(3):
        for g in (line, half):
            g.points, g.weights
    assert built == [102, 104]
    # an equal grid is the same entry, and now the most recently used
    assert Grid(-15.0, 15.0, 100).points is points
    # so a third grid evicts half, the least recently used, and keeps line
    Grid(0.0, 1.0, 34).weights
    assert line.points is points
    half.weights
    assert built == [102, 104, 36, 104]


def test_grid_arrays_never_hand_a_float32_end_the_float64_ends_arrays(empty_memos):
    # the two grids are equal and hash alike, but the float32 step rounds
    # the nodes differently
    wide, narrow = Grid(0.5, 2.0, 16), Grid(np.float32(0.5), 2.0, 16)
    assert wide == narrow and hash(wide) == hash(narrow)
    want = [((g.x_min + g.step * np.arange(1, 17)).tobytes(),
             quadrature_weights(18, g.step)[1:-1].tobytes()) for g in (wide, narrow)]
    assert want[0][0] != want[1][0]
    for g, (points, weights) in zip((wide, narrow) * 2, want * 2):
        assert g.points.tobytes() == points and g.weights.tobytes() == weights


def test_normalize_refuses_a_vanished_state():
    g = Grid(-1.0, 1.0, 64)
    with pytest.raises(ValueError, match="state vanished on the grid"):
        normalize(np.zeros(g.n_points), g)


def test_normalize_refuses_a_wrong_sample_count():
    # quadrature_norm's refusal, which names both counts
    g = Grid(-1.0, 1.0, 64)
    with pytest.raises(ValueError, match="sample count 65 is not the 64 interior nodes"):
        normalize(np.ones(65), g)


def test_normalize_checks_the_sample_count_before_naming_a_non_finite_node():
    # the non-finite sample sits past the last node: the count is refused,
    # where looking up its node raised IndexError
    g = Grid(-1.0, 1.0, 64)
    with pytest.raises(ValueError, match="sample count 65 is not the 64 interior nodes"):
        normalize(np.r_[np.ones(64), np.inf], g)
    with pytest.raises(OverflowError, match=r"\(node 3\)"):
        normalize(np.r_[np.ones(3), np.nan, np.ones(60)], g)


def test_normalize_divides_out_a_peak_whose_square_leaves_the_float_range():
    # 1e-170 squared underflows to 0.0: the state was refused as vanished
    g = Grid(0.0, 1.0, 100)
    unit = normalize(np.full(100, 1e-170), g)
    assert np.allclose(unit, 1.0 / math.sqrt(100 * g.step), rtol=1e-15, atol=0.0)
    # 1e200 squared overflows: the state normalized to zeros
    samples = np.sin(np.pi * g.points)
    assert np.allclose(normalize(1e200 * samples, g), normalize(samples, g),
                       rtol=1e-14, atol=0.0)
    # a non-finite sample is still refused, however large the others
    samples[7] = math.inf
    with pytest.raises(OverflowError, match=r"\(node 7\)"):
        normalize(1e200 * samples, g)


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


def _count_nodes_reference(samples):
    # the former body of count_nodes: products of np.sign over the kept samples
    f = np.asarray(samples, dtype=float)
    if f.size == 0:
        return 0
    cut = 1e-12 * np.max(np.abs(f))
    signs = np.sign(f[np.abs(f) >= cut]) if cut > 0.0 else np.sign(f)
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] * signs[:-1] < 0.0))


_NODE_SAMPLES = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 5e-324, -5e-324, math.nan,
                               math.inf, -math.inf]),
              st.floats(allow_nan=True, allow_infinity=True)),
    max_size=40)


def _assert_counts_as_the_reference(samples):
    # finite samples count as the reference does; a NaN or infinite one is
    # refused, naming the first
    bad = [i for i, v in enumerate(samples) if not math.isfinite(v)]
    if not bad:
        assert count_nodes(samples) == _count_nodes_reference(samples), samples
        return
    with pytest.raises(ValueError, match=rf"^non-finite sample \S+ at index {bad[0]}$"):
        count_nodes(samples)


@settings(max_examples=200, deadline=None)
@given(_NODE_SAMPLES)
def test_count_nodes_matches_the_reference_on_every_sample_class(samples):
    # zeros, samples below the cut, NaN, +-inf, empty and single-element arrays
    _assert_counts_as_the_reference(samples)


def test_count_nodes_matches_the_reference_on_edge_cases():
    for samples in ([], [1.0], [-1.0], [0.0, 0.0], [1.0, -1e-300, -1.0],
                    [1.0, math.nan, -1.0], [math.inf, -math.inf, 1.0],
                    [1e-320, -1e-320, 0.0, 1e-320], [1.0, 0.0, -1.0, 0.0, 1.0],
                    [1.0, 1e-13, -1e-13, 1.0], [1.0, -1e-12, 1.0]):
        _assert_counts_as_the_reference(samples)


@pytest.mark.parametrize("samples, message", [
    ([math.nan, 1.0, -1.0, 1.0], "non-finite sample nan at index 0"),
    ([math.inf, 1.0, -1.0], "non-finite sample inf at index 0"),
    ([1.0, -1.0, 1.0, -math.inf, math.nan], "non-finite sample -inf at index 3"),
])
def test_count_nodes_refuses_non_finite_samples(samples, message):
    # these read 2, 0 and 3 nodes before
    with pytest.raises(ValueError, match=f"^{message}$"):
        count_nodes(np.array(samples))


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
    from pdmdirac.numerics import _tridiagonal, _twisted_vector

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
        t = _tridiagonal(d, e)
        got, r = _twisted_vector(t, shift)
        assert np.all(np.isfinite(got))
        assert _unit_angle(got, vecs[:, j]) < 1e-9
        # solved again at that twist, the sweeps stop there and give the
        # same vector
        assert np.array_equal(_twisted_vector(t, shift, r)[0], got)
    # d - shift exactly 0.0 on every row: every other pivot lands on 0.0 and
    # takes the pivmin branch.  For odd n the shift is an eigenvalue, with
    # the null vector (1, 0, -1, 0, ...)
    for n in (40, 41):
        t = _tridiagonal(np.full(n, 0.25), e)
        got, r = _twisted_vector(t, 0.25)
        assert np.all(np.isfinite(got))
        assert np.array_equal(_twisted_vector(t, 0.25, r)[0], got)
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
    from pdmdirac.numerics import _sturm_counts, _tridiagonal

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
        # a cap of n never stops a count early
        caps = np.full(shifts.size, n)
        assert _sturm_counts(_tridiagonal(diag, e), shifts, caps).tolist() == expected
    # constant diagonal 1, e = -1, shift 0: the second pivot is 1 - 1/1 = 0.0
    diag = np.ones(n)
    t = np.diag(diag) - np.eye(n, k=1) - np.eye(n, k=-1)
    lams = np.linalg.eigvalsh(t)
    shifts = np.array([0.0, 1.0, 2.0, -0.5])
    expected = [int(np.sum(lams < s)) for s in shifts]
    assert (_sturm_counts(_tridiagonal(diag, -1.0), shifts, np.full(shifts.size, n)).tolist()
            == expected)


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


def _assert_counts_match_reference(diag, e, shifts):
    # every cap, with the exit in the right tail, gives the reference loop's
    # count, stopped at the cap; a cap of n never stops a count early
    from pdmdirac.numerics import _sturm_counts, _tridiagonal

    t = _tridiagonal(np.array(diag, dtype=float), e)
    shifts = np.array(shifts, dtype=float)
    full = _sturm_counts_reference(t.rows, e * e, shifts.tolist())
    for cap in (1, 2, len(t.rows)):
        caps = np.full(shifts.size, cap)
        assert (_sturm_counts(t, shifts, caps).tolist()
                == [min(c, cap) for c in full])


def test_sturm_counts_match_reference_loop_on_every_pivot_class():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(16, 60))
        diag = rng.uniform(-5.0, 5.0, n)
        e = rng.uniform(0.0, 2.0)
        # diag values as shifts land the first pivot on exactly 0.0; repeats
        # and a NaN shift go through the same loop; the last rows less 2|e|
        # sit on the edge of the tail exit's threshold
        shifts = np.concatenate((rng.uniform(-8.0, 8.0, 20), diag[:5],
                                 np.repeat(rng.uniform(-8.0, 8.0, 3), 3),
                                 [np.nan], diag[-5:] - 2.0 * math.sqrt(e * e)))
        _assert_counts_match_reference(diag, e, shifts)
    # e = 1e-150 puts pivmin at 1e-300, and after a pivot of 1e300 the
    # coupling term e^2 / q underflows to 0.0: with shift 0 the next pivot is
    # the diagonal entry itself, so these rows land exactly on 0.0, on
    # +-pivmin and strictly inside (0, pivmin) and (-pivmin, 0)
    e = 1e-150
    pivmin = 1e-300
    targets = [0.0, pivmin, -pivmin, 0.5 * pivmin, -0.5 * pivmin,
               np.nextafter(pivmin, 0.0), np.nextafter(-pivmin, 0.0),
               5e-324, -5e-324, 2.0 * pivmin, -2.0 * pivmin]
    for first in targets:
        diag = [first]
        for t in targets:
            diag += [1e300, t]
        _assert_counts_match_reference(diag, e, [0.0, 0.0, -0.0, 1.0, -1.0, pivmin,
                                                 -pivmin, 1e300])


class _RowsRead(list):
    """A diagonal that counts the rows a Sturm count reads: its iterator,
    like a list's, starts where ``__setstate__`` puts it, and counts only
    the rows it yields."""

    read = 0

    def __iter__(self):
        return _RowIterator(self)


class _RowIterator:
    def __init__(self, rows):
        self.rows, self.at = rows, 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.at == len(self.rows):
            raise StopIteration
        self.rows.read += 1
        self.at += 1
        return self.rows[self.at - 1]

    def __setstate__(self, at):
        self.at = at


@pytest.mark.parametrize("solve, coeffs, domain, share", [
    (rm2_solve, (5.0, 20.0, 1.0), (-15.0, 15.0), 0.9),
    (gpt_solve, (9.0, 2.5, 1.0), (1e-3, 20.0), 0.4),
])
def test_sturm_counts_stop_in_the_forbidden_tail(solve, coeffs, domain, share):
    # where V > s on every later node, a pivot of at least |e| stays so, and
    # the count is final: on the oracle problems the counts at 50 shifts
    # across the lowest levels are the reference loop's, and they read 0.86
    # (whole line) and 0.35 (half line) of the rows
    from pdmdirac.numerics import _sturm_counts, _tridiagonal

    w = solve(*coeffs, n_max=2).w
    grid = Grid(*domain, 6000)
    h = grid.step
    diag = 2.0 / h ** 2 + partner_potentials(w, grid.points).v_minus
    shifts = np.linspace(-1.0, 60.0, 50)
    t = _tridiagonal(diag, -1.0 / h ** 2)
    tail = _RowsRead(t.rows)
    caps = np.full(shifts.size, 6000)
    assert (_sturm_counts(t._replace(rows=tail), shifts, caps).tolist()
            == _sturm_counts_reference(t.rows, t.esq, shifts.tolist()))
    assert tail.read < share * 50 * 6000


def test_sturm_counts_start_past_the_forbidden_head(monkeypatch):
    # every count the bisection makes starts past most of the head where V
    # is above the shift, and equals the reference loop's count from row 0,
    # capped.  On the 6000-point k = 3 oracle problems, Rosen-Morse reads
    # 72,885 rows (106,389 from row 0); Poschl-Teller reads as many as from
    # row 0, since its wall damps less than a start past it needs.  Both
    # paths make the same counts, with eigenvectors or without
    from pdmdirac import numerics

    counts = numerics._sturm_counts
    rows = _RowsRead()

    def spy(t, shifts, caps):
        rows.extend(t.rows)
        got = counts(t._replace(rows=rows), shifts, caps)
        rows.clear()
        ref = _sturm_counts_reference(t.rows, t.esq, shifts.tolist())
        assert got.tolist() == np.minimum(ref, caps).tolist()
        return got

    monkeypatch.setattr(numerics, "_sturm_counts", spy)
    read = {}
    for solve, coeffs, domain in [(rm2_solve, (5.0, 20.0, 1.0), (-15.0, 15.0)),
                                  (gpt_solve, (9.0, 2.5, 1.0), (1e-3, 20.0))]:
        w = solve(*coeffs, n_max=2).w
        for eigenvectors in (True, False):
            rows.read = 0
            discretize_and_solve(lambda x: partner_potentials(w, x).v_minus,
                                 Grid(*domain, 6000), 3, eigenvectors=eigenvectors)
            read[solve, eigenvectors] = rows.read
    assert read[rm2_solve, True] <= 73_000
    assert read[gpt_solve, True] == 18_585
    for solve in (rm2_solve, gpt_solve):
        assert read[solve, False] == read[solve, True]
    for w, grid in _drawn_wells():
        discretize_and_solve(lambda x: partner_potentials(w, x).v_minus, grid, 3)
    discretize_and_solve(lambda x: x * x, Grid(-8.0, 8.0, 900), 4, eigenvectors=False)
    # below every V, every row is in the head and in the tail: no row is read
    g = Grid(-5.0, 5.0, 400)
    t = numerics._tridiagonal(2.0 / g.step ** 2 + g.points ** 2, -1.0 / g.step ** 2)
    rows.read = 0
    assert numerics._sturm_counts(t, np.array([-1.0, -0.5]), np.array([3, 3])).tolist() == [0, 0]
    assert rows.read == 0


@given(diag=st.lists(st.one_of(st.floats(-1.0, 1.0), st.floats(-1e6, 1e6)),
                     min_size=16, max_size=40),
       negative=st.booleans(), e=st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_matrix_scale_is_the_farther_gershgorin_end(diag, negative, e):
    # the residual refusal's threshold is 1e-6 of max|d| + 2|e|; the solve
    # reads that scale off the Gershgorin ends, whichever is farther from 0,
    # and it must be the same sum bit for bit, for mixed-sign and
    # all-negative diagonals and for |e| on either side of 0.5
    from pdmdirac.numerics import _tridiagonal

    d = -np.abs(diag) if negative else np.array(diag)
    t = _tridiagonal(d, e)
    assert max(abs(t.lo), abs(t.hi)) == float(np.max(np.abs(d))) + 2.0 * abs(e)


def test_eigenvalues_only_bits_are_pinned():
    # these potentials and grids use only IEEE + - * /, so the bits are the
    # same on every platform; a change to the bisection's early stop or to
    # the twisted solves that moves any Rayleigh quotient moves them.  They
    # lie within 7.6e-13 (x^2) and 5.9e-10 (box, scale 6.5e6) of LAPACK's
    r = discretize_and_solve(lambda x: x * x, Grid(-8.0, 8.0, 900), 4,
                             eigenvectors=False)
    assert [float(v).hex() for v in r.eigenvalues] == [
        "0x1.fffd6aa7609c6p-1", "0x1.7ffcc54de2318p+1",
        "0x1.3ffbcd46cf2a6p+2", "0x1.bff7ed2f846e4p+2"]
    r = discretize_and_solve(box_potential, Grid(0.0, math.pi, 4000), 3,
                             eigenvectors=False)
    assert [float(v).hex() for v in r.eigenvalues] == [
        "0x1.fffffe46a9a6cp-1", "0x1.fffff91aa60dap+1",
        "0x1.1ffff745ba29dp+3"]


def _rosen_morse_oracle_problem():
    # the 6000-point whole-line problem the oracle checks, k = 3
    w = rm2_solve(5.0, 20.0, 1.0, n_max=2).w
    return (lambda x: partner_potentials(w, x).v_minus), Grid(-15.0, 15.0, 6000)


def test_bisection_counts_each_distinct_shift_once(monkeypatch):
    from pdmdirac import numerics

    calls = []
    counts = numerics._sturm_counts

    def spy(t, shifts, caps):
        calls.append(np.array(shifts))
        return counts(t, shifts, caps)

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
    # both paths stop at 1e-7 of the scale: 24 passes and one count above
    # the top level, where a full bisection to 1e-13 took 44 counts
    from pdmdirac import numerics

    calls = []
    counts = numerics._sturm_counts

    def spy(*args):
        calls.append(args[1].size)
        return counts(*args)

    monkeypatch.setattr(numerics, "_sturm_counts", spy)
    w = solve(*coeffs, n_max=2).w
    potential = lambda x: partner_potentials(w, x).v_minus
    grid = Grid(*domain, 6000)
    discretize_and_solve(potential, grid, 3)
    assert len(calls) <= 26
    calls.clear()
    discretize_and_solve(potential, grid, 3, eigenvectors=False)
    assert len(calls) == 25


@pytest.mark.parametrize("solve, coeffs, domain", [
    (rm2_solve, (5.0, 20.0, 1.0), (-15.0, 15.0)),
    (gpt_solve, (9.0, 2.5, 1.0), (1e-3, 20.0)),
])
def test_later_twisted_solves_keep_the_twist(monkeypatch, solve, coeffs, domain):
    # each level's first solve finds its twist on the allowed span (V at or
    # below the shift): D+ sweeps forward to the span's last row and D-
    # backward to its first, each from the far end of the vector's support.
    # Its two later solves sweep up to the twist and back down to it, over
    # the support only.  The first two solves only find the next shift, so
    # their support is the Sturm count's e^20 walk; the third, whose vector
    # is returned, keeps the e^46 walk.  For k = 3: 39,309 rows (Rosen-Morse)
    # and 25,780 (Poschl-Teller), instead of the 52,275 and 37,423 that
    # e^46 supports for all three read, the 55,149 and 55,024 of sweeps from
    # rows 0 and n - 1, and 108,000 with no twist kept
    from pdmdirac import numerics

    rows_read = []
    swept = []
    shifts = []
    supports = []
    sweep = numerics._pivot_sweep
    support = numerics._support

    def spy(rows, shift, *args):
        rows_read.append(len(rows))
        swept.append(rows)
        shifts.append(shift)
        return sweep(rows, shift, *args)

    def support_spy(t, shift, first, last, nats):
        lo, hi = support(t, shift, first, last, nats)
        supports.append((first, last, lo, hi, nats))
        return lo, hi

    monkeypatch.setattr(numerics, "_pivot_sweep", spy)
    monkeypatch.setattr(numerics, "_support", support_spy)
    w = solve(*coeffs, n_max=2).w
    n = 6000
    grid = Grid(*domain, n)
    potential = lambda x: partner_potentials(w, x).v_minus
    discretize_and_solve(potential, grid, 3)
    h = grid.step
    diag = 2.0 / (h * h) + potential(grid.points)
    per_solve = [a + b for a, b in zip(rows_read[::2], rows_read[1::2])]
    assert [nats for *_, nats in supports] == [numerics._COUNT_NATS, numerics._COUNT_NATS,
                                                numerics._SUPPORT_NATS] * 3
    # each returned solve sweeps what every later solve swept when all three
    # supports reached e^46
    assert per_solve[2::3] == {rm2_solve: [5041, 5999, 5999],
                               gpt_solve: [2529, 3602, 5999]}[solve]
    rows = diag.tolist()
    for j in range(1, 9, 3):
        # the second solve keeps the third's twist r and sweeps fewer rows,
        # rows[lo:r] forward and rows[hi - 1:r:-1] backward
        assert supports[j][:2] == supports[j + 1][:2]
        assert per_solve[j] < per_solve[j + 1]
        for i in (j, j + 1):
            r, _, lo, hi, _ = supports[i]
            assert swept[2 * i] == rows[lo:r] and swept[2 * i + 1] == rows[hi - 1:r:-1]
    for j in range(0, 18, 6):
        allowed = np.flatnonzero(diag - shifts[j] <= 2.0 / (h * h))
        assert 0 < allowed.size < n // 10
        first, last = int(allowed[0]), int(allowed[-1])
        assert rows_read[j] <= last + 1 and rows_read[j + 1] <= n - first
        assert swept[j] == rows[last + 1 - rows_read[j]:last + 1]
        assert swept[j + 1] == rows[first:first + rows_read[j + 1]][::-1]
    assert sum(rows_read) == {rm2_solve: 39_309, gpt_solve: 25_780}[solve]


def _drawn_wells():
    # 26 superpotentials with their grids, drawn over ROADMAP item 2's
    # domain: Rosen-Morse V1 in [0.5, 40], V2 in [-30, 30] on
    # Grid(-25, 25, 4000); Poschl-Teller b/c in [0.6, 4], (a - b)/c in
    # [0.2, 12] on Grid(1e-6/c, 25/c, 4000)
    rng = np.random.default_rng(17)
    wells = []
    line = Grid(-25.0, 25.0, 4000)
    for _ in range(12):
        wells.append((rm2_solve(0.0, rng.uniform(0.5, 40.0), rng.uniform(-30.0, 30.0),
                                n_max=2).w, line))
    for _ in range(12):
        c = rng.uniform(0.5, 2.0)
        b = c * rng.uniform(0.6, 4.0)
        wells.append((gpt_solve(b + c * rng.uniform(0.2, 12.0), b, c, n_max=2).w,
                      Grid(1e-6 / c, 25.0 / c, 4000)))
    # level 2 of these wells lies above the left (right) asymptote, so its
    # span reaches row 0 (row n - 1)
    for v2 in (2.0, -2.0):
        wells.append((rm2_solve(0.0, 12.0, v2, n_max=2).w, line))
    return wells


def test_span_twist_is_the_full_sweeps_twist_on_both_families(monkeypatch):
    # every first twisted solve of the k = 3 solves of _drawn_wells picks the
    # twist of two full sweeps, argmin |gamma| over all rows.  It only finds
    # the next shift, so its support is the e^20 walk's: it builds the vector
    # those sweeps give to within e^-20 of its peak, with exact zeros
    # outside its support
    from pdmdirac import numerics

    twisted = numerics._twisted_vector
    sweep = numerics._pivot_sweep
    spans = []

    def spy(t, shift, r=None, nats=numerics._SUPPORT_NATS):
        z, got = twisted(t, shift, r, nats)
        if r is None:
            assert nats == numerics._COUNT_NATS
            d_plus = sweep(t.rows, shift, t.esq, t.pivmin)
            d_minus = sweep(t.rows[::-1], shift, t.esq, t.pivmin)[::-1]
            full = int(np.argmin(np.abs(d_plus + d_minus - (t.diag - shift))))
            assert got == full
            ref = np.ones(t.diag.size)
            ref[:full] = np.cumprod(-t.e / d_plus[:full][::-1])[::-1]
            ref[full + 1:] = np.cumprod(-t.e / d_minus[full + 1:])
            assert np.all(np.abs(z - ref) <= math.exp(-20.0) * np.max(np.abs(ref)))
            allowed = np.flatnonzero(t.diag - shift <= 2.0 * abs(t.e))
            first, last = int(allowed[0]), int(allowed[-1])
            lo, hi = numerics._support(t, shift, first, last, nats)
            assert np.all(z[:lo] == 0.0) and np.all(z[hi:] == 0.0)
            spans.append((first, last, t.diag.size))
        return z, got

    monkeypatch.setattr(numerics, "_twisted_vector", spy)
    wells = _drawn_wells()
    for w, grid in wells:
        discretize_and_solve(lambda x: partner_potentials(w, x).v_minus, grid, 3)
    assert len(spans) == 3 * len(wells)
    assert sum(0 < first and last < n - 1 for first, last, n in spans) > len(spans) // 2
    assert any(first == 0 for first, _, _ in spans)
    assert any(last == n - 1 for _, last, n in spans)


@pytest.mark.parametrize("solve, coeffs, domain", [
    (rm2_solve, (5.0, 20.0, 1.0), (-15.0, 15.0)),
    (gpt_solve, (9.0, 2.5, 1.0), (1e-3, 20.0)),
])
def test_support_cuts_only_entries_below_two_to_the_minus_60(monkeypatch, solve, coeffs,
                                                              domain):
    # against a reference whose walk never stops, so that every twisted
    # solve sweeps from rows 0 and n - 1: the eigenvalues keep every bit,
    # and each entry a returned solve's support leaves out (an exact 0.0)
    # is below 2^-60 of the peak of that solve's reference vector.  A
    # shift-finding solve's support leaves out only entries below e^-20 of
    # it.  Besides the oracle problem, _drawn_wells and the close
    # double-well pairs
    from pdmdirac import numerics

    walk = numerics._damped_rows
    twisted = numerics._twisted_vector

    def every_row(mins, shift, bound, nats):
        return walk(mins, shift, bound, math.inf)

    cut = []

    def spy(t, shift, r=None, nats=numerics._SUPPORT_NATS):
        z, got = twisted(t, shift, r, nats)
        monkeypatch.setattr(numerics, "_damped_rows", every_row)
        ref, ref_r = twisted(t, shift, r, nats)
        monkeypatch.setattr(numerics, "_damped_rows", walk)
        assert ref_r == got and np.all(ref != 0.0)
        out = z == 0.0
        assert nats in (numerics._SUPPORT_NATS, numerics._COUNT_NATS)
        bound = 2.0 ** -60 if nats == numerics._SUPPORT_NATS else math.exp(-20.0)
        assert np.all(np.abs(ref[out]) < bound * np.max(np.abs(ref)))
        cut.append(int(np.sum(out)))
        return z, got

    w = solve(*coeffs, n_max=2).w
    problems = [(lambda x: partner_potentials(w, x).v_minus, Grid(*domain, 6000), 3)]
    if solve is gpt_solve:
        problems += [(lambda x, w=w: partner_potentials(w, x).v_minus, grid, 3)
                     for w, grid in _drawn_wells()]
        problems += [(_double_well(depth), Grid(-7.0, 7.0, 1400), 2)
                     for depth in (2.93, 2.9, 2.85, 2.75)]
    for potential, grid, k in problems:
        monkeypatch.setattr(numerics, "_twisted_vector", spy)
        got = discretize_and_solve(potential, grid, k)
        monkeypatch.setattr(numerics, "_twisted_vector", twisted)
        monkeypatch.setattr(numerics, "_damped_rows", every_row)
        ref = discretize_and_solve(potential, grid, k)
        monkeypatch.setattr(numerics, "_damped_rows", walk)
        assert np.array_equal(got.eigenvalues, ref.eigenvalues)
    # entries cut in all: 15,840 on the Rosen-Morse problem (958 by the
    # returned solves), 455,065 with the Poschl-Teller problem, the drawn
    # wells and the double wells (105,595)
    assert sum(cut) > {rm2_solve: 2_500, gpt_solve: 300_000}[solve]


def test_shift_finding_supports_keep_every_output_bit(monkeypatch):
    # each level's first two twisted solves only find the next shift, so
    # they sweep the e^20 support of the Sturm count's walk: against a
    # reference whose three solves all sweep the e^46 (2^-60) support, every
    # eigenvalue and eigenvector keeps its bits, on both oracle problems,
    # _drawn_wells and the four double wells.  Each shift-finding support
    # lies inside the e^46 support at the same shift and twist
    from pdmdirac import numerics

    support = numerics._support
    twisted = numerics._twisted_vector
    shift_finding = []

    def support_spy(t, shift, first, last, nats):
        lo, hi = support(t, shift, first, last, nats)
        if nats == numerics._COUNT_NATS:
            wide_lo, wide_hi = support(t, shift, first, last, numerics._SUPPORT_NATS)
            assert wide_lo <= lo and hi <= wide_hi
            shift_finding.append(wide_hi - wide_lo - (hi - lo))
        return lo, hi

    def every_solve_returned(t, shift, r=None, nats=None):
        return twisted(t, shift, r)

    problems = []
    for solve, coeffs, domain in [(rm2_solve, (5.0, 20.0, 1.0), (-15.0, 15.0)),
                                  (gpt_solve, (9.0, 2.5, 1.0), (1e-3, 20.0))]:
        w = solve(*coeffs, n_max=2).w
        problems.append((lambda x, w=w: partner_potentials(w, x).v_minus,
                         Grid(*domain, 6000), 3))
    problems += [(lambda x, w=w: partner_potentials(w, x).v_minus, grid, 3)
                 for w, grid in _drawn_wells()]
    problems += [(_double_well(depth), Grid(-7.0, 7.0, 1400), 2)
                 for depth in (2.93, 2.9, 2.85, 2.75)]
    for potential, grid, k in problems:
        monkeypatch.setattr(numerics, "_support", support_spy)
        got = discretize_and_solve(potential, grid, k)
        monkeypatch.setattr(numerics, "_support", support)
        monkeypatch.setattr(numerics, "_twisted_vector", every_solve_returned)
        ref = discretize_and_solve(potential, grid, k)
        monkeypatch.setattr(numerics, "_twisted_vector", twisted)
        assert np.array_equal(got.eigenvalues, ref.eigenvalues)
        assert np.array_equal(got.eigenvectors, ref.eigenvectors)
    # two shift-finding solves per level, and most of them cut rows
    assert len(shift_finding) >= 2 * sum(k for *_, k in problems)
    assert sum(rows > 0 for rows in shift_finding) > len(shift_finding) // 2


def test_empty_span_twist_sweeps_every_row(monkeypatch):
    # a shift below every V leaves no allowed row: the twist is then taken
    # over all rows, as the full sweeps take it
    from pdmdirac import numerics

    g = Grid(-5.0, 5.0, 400)
    t = numerics._tridiagonal(2.0 / g.step ** 2 + g.points ** 2, -1.0 / g.step ** 2)
    calls = []
    sweep = numerics._pivot_sweep

    def spy(rows, *args):
        calls.append(len(rows))
        return sweep(rows, *args)

    monkeypatch.setattr(numerics, "_pivot_sweep", spy)
    for shift in (-1.0, -0.5):
        assert np.flatnonzero(t.diag - shift <= 2.0 * abs(t.e)).size == 0
        z, r = numerics._twisted_vector(t, shift)
        assert calls[-2:] == [400, 400]
        d_plus = sweep(t.rows, shift, t.esq, t.pivmin)
        d_minus = sweep(t.rows[::-1], shift, t.esq, t.pivmin)[::-1]
        assert r == int(np.argmin(np.abs(d_plus + d_minus - (t.diag - shift))))
        assert np.all(np.isfinite(z))


def _bisected(potential, grid, k):
    # the midpoints of a full bisection to 1e-13 of the scale, with no early
    # stop and no twisted solve: a reference independent of the solve's
    # Rayleigh quotients
    h = grid.step
    t = numerics._tridiagonal(2.0 / h ** 2 + potential(grid.points), -1.0 / h ** 2)
    scale = max(abs(t.lo), abs(t.hi), 1.0)
    lo, hi, _ = numerics._bisect(t, np.full(k, t.lo), np.full(k, t.hi), 1e-13 * scale)
    return 0.5 * (lo + hi)


def test_early_stop_never_hands_back_the_wrong_level():
    # level 1 of this well lies 5.4e-9 above level 0, far inside the early
    # stop's width (about 4e-3): the interval around level 0 never holds it
    # alone with a clear margin, so it bisects on to 1e-13 of the scale
    g = Grid(-7.0, 7.0, 1400)
    r = discretize_and_solve(_double_well(2.93), g, 1)
    bisected = _bisected(_double_well(2.93), g, 1)
    h = g.step
    scale = float(np.max(2.0 / h ** 2 + _double_well(2.93)(g.points))) + 2.0 / h ** 2
    assert abs(r.eigenvalues[0] - bisected[0]) <= 1e-12 * scale
    v = r.eigenvectors[0]
    assert int(np.sum(v[1:] * v[:-1] < 0.0)) == 0


def test_rayleigh_quotient_outside_its_interval_falls_back_to_full_bisection(monkeypatch):
    # a twisted solve that converged to a neighbouring level leaves its
    # interval; the solve then bisects on from the early-stop intervals to
    # 1e-13 of the scale, to a full bisection's exact midpoints, and solves
    # again from there.  Bisecting on takes 45 Sturm counts on this
    # problem; restarting from the Gershgorin ends took 69
    from pdmdirac import numerics

    pairs = numerics._eigenpairs
    counts = numerics._sturm_counts
    shifts = []
    calls = []

    def astray(t, mids):
        shifts.append(mids)
        vecs, rqs = pairs(t, mids)
        return vecs, rqs + (1.0 if len(shifts) == 1 else 0.0)

    def spy(*args):
        calls.append(args[1].size)
        return counts(*args)

    monkeypatch.setattr(numerics, "_eigenpairs", astray)
    monkeypatch.setattr(numerics, "_sturm_counts", spy)
    potential, grid = _rosen_morse_oracle_problem()
    r = discretize_and_solve(potential, grid, 3)
    assert len(calls) <= 46
    bisected = _bisected(potential, grid, 3)
    assert len(shifts) == 2
    assert np.array_equal(shifts[1], bisected)
    assert np.max(np.abs(r.eigenvalues - bisected)) < 1e-8


def test_eigenvalues_only_are_the_eigenvector_paths_bits():
    # without vectors the solve takes the same early stop, twisted solves and
    # refusals, and keeps the same Rayleigh quotients, bit for bit
    potential, grid = _rosen_morse_oracle_problem()
    wells = [(gpt_solve(9.0, 2.5, 1.0, n_max=2).w, Grid(1e-3, 20.0, 6000)), *_drawn_wells()]
    problems = [(potential, grid, 3), (lambda x: x * x, Grid(-8.0, 8.0, 900), 4)]
    for w, g in wells:
        problems.append((lambda x, w=w: partner_potentials(w, x).v_minus, g, 3))
    for potential, grid, k in problems:
        r = discretize_and_solve(potential, grid, k)
        only = discretize_and_solve(potential, grid, k, eigenvectors=False)
        assert only.eigenvectors is None
        assert np.array_equal(only.eigenvalues, r.eigenvalues)


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
    # a full bisection's midpoint
    w = solve(*coeffs, n_max=2).w
    potential = lambda x: partner_potentials(w, x).v_minus
    grid = Grid(*domain, 6000)
    r = discretize_and_solve(potential, grid, 3)
    bisected = _bisected(potential, grid, 3)
    h = grid.step
    scale = float(np.max(np.abs(2.0 / h ** 2 + potential(grid.points)))) + 2.0 / h ** 2
    for j, v in enumerate(r.eigenvectors):
        assert int(np.sum(v[1:] * v[:-1] < 0.0)) == j
        assert abs(r.eigenvalues[j] - bisected[j]) <= 1e-12 * scale


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


def test_against_scipy_tridiagonal_solver_eigenvalues_only():
    # the Rayleigh quotients land within 7.6e-13 of LAPACK's eigenvalues,
    # where a bisection midpoint to 1e-13 of the scale lay 2.4e-10 off
    scipy_linalg = pytest.importorskip("scipy.linalg")
    g = Grid(-8.0, 8.0, 900)
    r = discretize_and_solve(lambda x: x * x, g, 4, eigenvectors=False)
    h = g.step
    d = 2.0 / h ** 2 + g.points ** 2
    e = np.full(g.n_points - 1, -1.0 / h ** 2)
    ref = scipy_linalg.eigh_tridiagonal(d, e, select="i",
                                        select_range=(0, 3))[0]
    assert r.eigenvectors is None
    assert np.max(np.abs(r.eigenvalues - ref)) < 1e-11


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
