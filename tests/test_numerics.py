import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from cvgme import families as fam
from cvgme import numerics as num
from cvgme import witnesses as wit


# ---------------------------------------------------------------------------
# grids and the error ledger
# ---------------------------------------------------------------------------


def test_disc_grid_cell_count():
    grid = num.disc_grid(0.2, 1.0)
    assert grid.cell_count() == 81  # 5x5 lattice block minus far corners... counted
    centers = grid.centers()
    assert np.all(np.abs(centers) <= 1.0 + 1e-9)
    # lattice points are integer multiples of delta
    n = centers / 0.2
    assert np.allclose(n.real, np.round(n.real), atol=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        num.disc_grid(-0.1, 1.0)
    with pytest.raises(ValueError):
        num.disc_grid(0.5, 0.2)
    for delta, radius in ((0.1, math.nan), (math.inf, 1.0), (math.nan, math.inf)):
        named = re.escape("delta=%r, radius=%r" % (delta, radius))
        with pytest.raises(ValueError, match=named):
            num.disc_grid(delta, radius)


@settings(max_examples=60, deadline=None)
@example(delta=0.25, radius=1.0, modes=3, energy=1.0)
@given(delta=st.floats(0.02, 1.0), radius=st.floats(0.05, 1.5),
       modes=st.integers(2, 9), energy=st.floats(0.0, 10.0))
def test_rigorous_error_matches_per_cell_loop(delta, radius, modes, energy):
    assume(delta <= radius)
    grid = num.disc_grid(delta, radius)
    n_re, n_im = grid.indices()
    assert grid.cell_count() == n_re.size
    d = grid.delta
    total = 0.0
    for a, b in zip(n_re, n_im):
        total += 2 * d**3 * math.sqrt(2 * modes * energy)
        total += 2 * modes * d**4 * (1 + math.sqrt(2.0 * (a * a + b * b)))
    assert num.rigorous_error(grid, modes, energy) == pytest.approx(total, rel=1e-12)


def test_rigorous_error_roughly_halves_with_delta():
    e1 = num.rigorous_error(num.disc_grid(0.01, 0.9), 3, 1.0)
    e2 = num.rigorous_error(num.disc_grid(0.005, 0.9), 3, 1.0)
    assert e2 / e1 == pytest.approx(0.5, abs=0.05)


def test_midpoint_gaussian_invariant():
    # integral of exp(-2 M |alpha|^2) over the plane is pi / (2 M)
    m = 3
    grid = num.disc_grid(0.01, 3.0)
    vals = np.exp(-2 * m * np.abs(grid.centers()) ** 2)
    got = num.midpoint_integral(vals, grid.delta)
    assert got == pytest.approx(math.pi / (2 * m), abs=1e-6)


@pytest.mark.parametrize("delta,radius", [(0.2, 1.0), (0.25, 1.0), (0.1, 0.7),
                                          (0.0065, 0.9), (0.05, 0.05), (0.3, 0.61),
                                          (0.1, 1.0 - 5e-11)])
def test_indices_match_the_masked_square(delta, radius):
    # the row-by-row lattice keeps exactly the cells, in the same order, that
    # clipping the full square to the disc keeps
    grid = num.disc_grid(delta, radius)
    nmax = int(math.floor(radius / delta + 1e-9))
    rng = np.arange(-nmax, nmax + 1)
    n_re, n_im = np.meshgrid(rng, rng, indexing="ij")
    mask = n_re * n_re + n_im * n_im <= (radius / delta) ** 2 + 1e-9
    got_re, got_im = grid.indices()
    assert np.array_equal(got_re, n_re[mask])
    assert np.array_equal(got_im, n_im[mask])


def _point_even(x, y):
    return np.abs(np.cos(3 * x - y) * np.exp(-(x * x + 2 * y * y)))


def _conj_even(x, y):
    return np.abs((1 + x) * np.cos(2 * y) * np.exp(-(x * x + y * y)))


def _both_even(x, y):
    return np.abs(np.cos(3 * x) * np.cos(y) * np.exp(-(x * x + 2 * y * y)))


@pytest.mark.parametrize("fn,folds", [
    (_point_even, {}),
    (_point_even, {"point_even": True}),
    (_conj_even, {"conj_even": True}),
    (_both_even, {"point_even": True, "conj_even": True}),
], ids=["plain", "point", "conj", "both"])
@pytest.mark.parametrize("block_cells", [1, 7, 1 << 16])
def test_lattice_integral_matches_midpoint_sum(fn, folds, block_cells, monkeypatch):
    # blocks and symmetry folds change the order of the midpoint sum only
    monkeypatch.setattr(num, "LATTICE_BLOCK_CELLS", block_cells)
    # the last grid's outermost rows hold no cell
    for grid in (num.disc_grid(0.01, 1.3), num.disc_grid(0.3, 0.61),
                 num.disc_grid(0.1, 1.0 - 5e-11)):
        centers = grid.centers()
        want = num.midpoint_integral(fn(centers.real, centers.imag), grid.delta)
        got = num.midpoint_lattice_integral(fn, grid, **folds)
        assert got == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def quad_objective(xi):
    # smooth test surface with the max at a known settings set
    target = np.array([0.5 + 0.5j, -0.5, 0.25j])
    return 1.0 - np.sum(np.abs(xi - target) ** 2, axis=-1)


def patchy(xi):
    # undefined (nan) wherever the first point has real part above 0.2
    return np.where(xi[..., 0].real > 0.2, np.nan, -np.sum(np.abs(xi) ** 2, axis=-1))


def terraced(xi):
    # piecewise constant: ties between vertices, failed contractions, shrinks
    return -np.sum(np.floor(4 * np.abs(xi - 0.3) ** 2), axis=-1)


def scipy_reference(objective, n_points, budget, init_radius=1.0):
    """The restarted Nelder-Mead, one restart after another with scipy.

    `objective` maps one settings set to a value.  Returns the best set, its
    value, the objective evaluations and the improving restarts.
    """
    rng = np.random.default_rng(budget.seed)
    u = rng.random((budget.restarts, n_points, 2))
    inits = init_radius * np.sqrt(u[:, :, 0]) * np.exp(2j * math.pi * u[:, :, 1])

    def as_complex(x):
        return x[:n_points] + 1j * x[n_points:]

    def neg_objective(x):
        val = objective(as_complex(x))
        if not np.isfinite(val):
            return np.inf
        return -float(val)

    options = {"maxfev": budget.max_evals, "xatol": budget.tol,
               "fatol": budget.tol, "adaptive": True}
    best_val, best_x, evals, improving = -np.inf, None, 0, 0
    for xi0 in inits:
        x0 = np.concatenate([xi0.real, xi0.imag])
        f0 = objective(xi0)
        evals += 1
        if not np.isfinite(f0):
            continue
        improved = False
        if f0 > best_val:
            best_val, best_x, improved = float(f0), x0, True
        for _ in range(2):
            res = minimize(neg_objective, x0, method="Nelder-Mead", options=options)
            evals += res.nfev
            if not np.isfinite(res.fun):
                break
            x0 = res.x
            if -res.fun > best_val:
                best_val, best_x, improved = float(-res.fun), res.x, True
        improving += improved
    if best_x is None:
        raise ValueError("every restart produced a non-finite objective")
    return as_complex(best_x), best_val, evals, improving


def assert_matches_reference(objective, one_set, n_points, budget, **kwargs):
    got = num.optimize_settings(objective, n_points, budget, **kwargs)
    xi, value, evals, improving = scipy_reference(one_set, n_points, budget, **kwargs)
    np.testing.assert_array_equal(got.xi, xi)
    assert got.value == value
    assert (got.objective_evals, got.improving_restarts) == (evals, improving)


def test_optimizer_finds_quadratic_max():
    budget = num.OptimizerBudget(restarts=8, max_evals=4000, tol=1e-9, seed=1)
    xi, val = num.optimize_settings(quad_objective, 3, budget, init_radius=1.0)
    assert val == pytest.approx(1.0, abs=1e-6)
    assert xi.shape == (3,)


def test_optimizer_value_matches_returned_points():
    budget = num.OptimizerBudget(restarts=4, max_evals=500, tol=1e-7, seed=3)
    xi, val = num.optimize_settings(quad_objective, 3, budget)
    assert val == pytest.approx(quad_objective(xi), abs=1e-12)


def test_optimizer_monotone_in_restarts():
    vals = []
    for restarts in (2, 8, 32):
        budget = num.OptimizerBudget(restarts=restarts, max_evals=300, tol=1e-7, seed=7)
        _, val = num.optimize_settings(quad_objective, 3, budget)
        vals.append(val)
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


def test_optimizer_deterministic():
    budget = num.OptimizerBudget(restarts=6, max_evals=400, tol=1e-7, seed=11)
    xi1, v1 = num.optimize_settings(quad_objective, 3, budget)
    xi2, v2 = num.optimize_settings(quad_objective, 3, budget)
    assert v1 == v2
    np.testing.assert_array_equal(xi1, xi2)


def test_optimizer_survives_non_finite_patches():
    budget = num.OptimizerBudget(restarts=8, max_evals=400, tol=1e-7, seed=5)
    _, val = num.optimize_settings(patchy, 2, budget)
    assert np.isfinite(val)


# budgets that run out in the initial simplex (1, 3), mid-expansion (quad 37,
# patchy 7), mid-contraction (patchy 37) and mid-shrink (terraced 7, 37)
@pytest.mark.parametrize("max_evals", [1, 3, 7, 37, 400])
@pytest.mark.parametrize("tol", [0.0, 1e-7])
@pytest.mark.parametrize("objective,n_points",
                         [(quad_objective, 3), (patchy, 2), (terraced, 2)],
                         ids=["quad", "patchy", "terraced"])
def test_lockstep_matches_scipy(objective, n_points, max_evals, tol):
    budget = num.OptimizerBudget(restarts=6, max_evals=max_evals, tol=tol, seed=2)
    assert_matches_reference(objective, objective, n_points, budget)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), restarts=st.integers(1, 6),
       max_evals=st.integers(1, 300), tol=st.sampled_from([0.0, 1e-7, 1e-3]),
       surface=st.sampled_from([(quad_objective, 3), (patchy, 2), (terraced, 2)]))
def test_lockstep_matches_scipy_property(seed, restarts, max_evals, tol, surface):
    objective, n_points = surface
    budget = num.OptimizerBudget(restarts=restarts, max_evals=max_evals, tol=tol,
                                 seed=seed)
    try:
        scipy_reference(objective, n_points, budget)
    except ValueError:
        with pytest.raises(ValueError, match="non-finite"):
            num.optimize_settings(objective, n_points, budget)
        return
    assert_matches_reference(objective, objective, n_points, budget)


@pytest.mark.parametrize("kernel", [None, fam.vacuum_kernel(1)], ids=["B", "E"])
def test_lockstep_matches_scipy_on_the_settings_objective(kernel):
    spec = fam.w_family(3)
    entry = lambda d: fam.family_c_entry(spec, d)
    kernel_entry = None if kernel is None else (lambda d: fam.kernel_c_entry(kernel, d))
    budget = num.OptimizerBudget(restarts=8, max_evals=400, tol=1e-7, seed=4)
    assert_matches_reference(wit.stacked_settings_objective(entry, kernel_entry),
                             wit.settings_objective(entry, kernel_entry), 4, budget,
                             init_radius=3.0 / math.sqrt(3.0))


def test_optimizer_rejects_a_one_set_objective():
    budget = num.OptimizerBudget(restarts=2, max_evals=10, seed=0)
    with pytest.raises(ValueError, match="K values"):
        num.optimize_settings(lambda xi: float(np.sum(np.abs(xi) ** 2)), 3, budget)


def test_optimizer_every_start_non_finite():
    budget = num.OptimizerBudget(restarts=3, max_evals=50, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        num.optimize_settings(lambda xi: np.full(xi.shape[:-1], np.nan), 2, budget)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0])
def test_optimizer_rejects_bad_init_radius(radius):
    budget = num.OptimizerBudget(restarts=2, max_evals=10, seed=0)
    with pytest.raises(ValueError, match="init_radius"):
        num.optimize_settings(quad_objective, 3, budget, init_radius=radius)


def test_optimizer_budget_rejects_negative_tol():
    with pytest.raises(ValueError, match="tolerance"):
        num.OptimizerBudget(tol=-1.0)
    with pytest.raises(ValueError, match="tolerance"):
        num.OptimizerBudget(tol=float("nan"))


# ---------------------------------------------------------------------------
# bisection / boundary search
# ---------------------------------------------------------------------------


def test_bisect_threshold_step_function():
    calls = []

    def pred(x):
        calls.append(x)
        return x < 0.5

    got = num.bisect_threshold(pred, 0.0, 1.0, 1e-4)
    assert got == pytest.approx(0.5, abs=1e-4)
    # two endpoint probes plus ceil(log2(range/tol)) interior probes
    assert len(calls) <= 2 + math.ceil(math.log2(1.0 / 1e-4))


def test_bisect_threshold_requires_bracket():
    # a margin > 0 is true; 0, a negative margin and NaN are false
    for margin in (True, False, 0.7, 0.0, -0.3, math.nan):
        with pytest.raises(num.NoBoundaryError, match="does not bracket"):
            num.bisect_threshold(lambda x: margin, 0.0, 1.0, 1e-3)


@pytest.mark.parametrize("search", [num.bisect_threshold, num.monotone_boundary])
@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
def test_searches_reject_bad_tolerance(search, tol):
    def predicate(x):
        raise AssertionError("the predicate ran before the tolerance was checked")

    with pytest.raises(ValueError, match="tolerance") as exc:
        search(predicate, 0.0, 1.0, tol)
    assert not isinstance(exc.value, num.NoBoundaryError)


def test_monotone_boundary_step():
    got = num.monotone_boundary(lambda r: r > 0.37, 0.0, 1.0, 1e-4)
    assert got == pytest.approx(0.37, abs=1e-3)


def test_monotone_boundary_rejects_constant():
    for verdict in (True, -0.3):
        with pytest.raises(num.NoBoundaryError):
            num.monotone_boundary(lambda r: verdict, 0.0, 1.0, 1e-3)


@pytest.mark.parametrize("lo,hi", [(3.0, 0.2), (0.5, 0.5), (math.nan, 1.0)])
def test_monotone_boundary_rejects_empty_range_before_scanning(lo, hi):
    def predicate(r):
        raise AssertionError("the predicate ran before the range was checked")

    with pytest.raises(ValueError, match="need lo < hi") as exc:
        num.monotone_boundary(predicate, lo, hi, 1e-3)
    assert not isinstance(exc.value, num.NoBoundaryError)


def test_monotone_boundary_reads_margins_by_sign():
    # a margin of -0.37 is false, not a truthy number, and the scan's values
    # at the ends of the flipping interval are not asked for again
    calls = []

    def margin(r):
        calls.append(r)
        return r - 0.37

    got = num.monotone_boundary(margin, 0.0, 1.0, 1e-4)
    assert got == num.monotone_boundary(lambda r: r > 0.37, 0.0, 1.0, 1e-4)
    assert len(calls) == len(set(calls))


def _bisection(predicate, lo, hi, tol):
    """Bisection on the boolean verdicts: the reference the search must match."""
    p_lo = bool(predicate(lo))
    p_hi = bool(predicate(hi))
    if p_lo == p_hi:
        raise num.NoBoundaryError(
            "predicate does not bracket a boundary on [%g, %g]" % (lo, hi))
    for _ in range(max(0, int(math.ceil(math.log2((hi - lo) / tol))))):
        mid = 0.5 * (lo + hi)
        if bool(predicate(mid)) == p_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisection_points(lo, hi, tol):
    """Every point bisection to `tol` could probe, as the floats it computes."""
    points = [lo, hi]
    for _ in range(max(0, int(math.ceil(math.log2((hi - lo) / tol))))):
        mids = [0.5 * (a + b) for a, b in zip(points, points[1:])]
        points = [x for pair in zip(points, mids) for x in pair] + [hi]
    return points


def _recorded(fn):
    calls = []

    def predicate(x):
        calls.append(x)
        return fn(x)

    return predicate, calls


@st.composite
def _brackets(draw, max_steps=20):
    lo = draw(st.floats(-3.0, 3.0))
    hi = lo + draw(st.floats(1e-3, 4.0))
    tol = (hi - lo) * 2.0 ** -draw(st.floats(0.0, max_steps))
    return lo, hi, tol, draw(st.floats(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)))


# margins g(d) of d = sign * (root - x), nondecreasing in d: each is monotone in x
_MARGINS = {
    "linear": lambda k: lambda d: k * d,
    "smooth": lambda k: lambda d: math.expm1(k * d) + 1e-3 * d,
    "stepped": lambda k: lambda d: float(math.floor(k * d)),
    "plateaued": lambda k: lambda d: max(-0.5, min(0.5, k * d)),
    "kinked": lambda k: lambda d: k * d if d > 0 else d / k,
    "exact zeros": lambda k: lambda d: 0.0 if abs(k * d) < 0.5 else d,
    "nan tail": lambda k: lambda d: math.nan if k * d < -0.5 else d,
    "infinite tail": lambda k: lambda d: -math.inf if k * d < -0.5 else d,
}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(bracket=_brackets(), shape=st.sampled_from(sorted(_MARGINS)),
       k=st.floats(0.1, 50.0), sign=st.sampled_from([1.0, -1.0]))
def test_bisect_threshold_equals_bisection_on_monotone_margins(bracket, shape, k, sign):
    lo, hi, tol, root = bracket
    g = _MARGINS[shape](k)
    margin, calls = _recorded(lambda x: g(sign * (root - x)))
    try:
        expected = _bisection(lambda x: margin(x) > 0, lo, hi, tol)
    except num.NoBoundaryError:
        with pytest.raises(num.NoBoundaryError):
            num.bisect_threshold(margin, lo, hi, tol)
        return
    bisection_calls = len(calls)
    calls.clear()
    assert num.bisect_threshold(margin, lo, hi, tol) == expected
    assert len(calls) <= bisection_calls + 1
    if bisection_calls <= 14:  # the 2^(calls - 2) + 1 lattice points are few
        assert set(calls) <= set(_bisection_points(lo, hi, tol))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bracket=_brackets(), sign=st.sampled_from([1.0, -1.0]),
       as_numpy=st.booleans())
def test_bisect_threshold_probes_a_bool_predicate_as_bisection(bracket, sign, as_numpy):
    lo, hi, tol, root = bracket
    verdict = (lambda x: np.bool_(sign * (root - x) > 0)) if as_numpy else (
        lambda x: sign * (root - x) > 0)
    reference, expected_calls = _recorded(verdict)
    predicate, calls = _recorded(verdict)
    try:
        expected = _bisection(reference, lo, hi, tol)
    except num.NoBoundaryError:
        with pytest.raises(num.NoBoundaryError):
            num.bisect_threshold(predicate, lo, hi, tol)
    else:
        assert num.bisect_threshold(predicate, lo, hi, tol) == expected
    assert calls == expected_calls


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bracket=_brackets(max_steps=12), k=st.floats(1.0, 200.0),
       phase=st.floats(0.0, 2 * math.pi), bias=st.floats(-0.9, 0.9))
def test_bisect_threshold_on_a_non_monotone_margin_returns_a_flip(bracket, k, phase,
                                                                   bias):
    lo, hi, tol, _ = bracket
    verdict = lambda x: math.sin(k * x + phase) + bias > 0
    assume(verdict(lo) != verdict(hi))
    margin, calls = _recorded(lambda x: math.sin(k * x + phase) + bias)
    got = num.bisect_threshold(margin, lo, hi, tol)
    points = _bisection_points(lo, hi, tol)
    flips = [0.5 * (a + b) for a, b in zip(points, points[1:]) if verdict(a) != verdict(b)]
    assert got in flips
    assert set(calls) <= set(points)
    assert len(calls) <= 2 + max(0, math.ceil(math.log2((hi - lo) / tol))) + 1


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (1.0, 0.0), (0.0, -math.inf)])
def test_bisect_threshold_rejects_an_empty_interval(lo, hi):
    def predicate(x):
        raise AssertionError("the predicate ran before the interval was checked")

    with pytest.raises(ValueError, match="lo < hi") as exc:
        num.bisect_threshold(predicate, lo, hi, 1e-3)
    assert not isinstance(exc.value, num.NoBoundaryError)


# ---------------------------------------------------------------------------
# Gaussian sampling
# ---------------------------------------------------------------------------


def test_gaussian_samples_deterministic_and_prefix_stable():
    cov = [[0.04, 0.01], [0.01, 0.09]]
    a = num.gaussian_samples((0.1, -0.2), cov, 100, seed=42)
    b = num.gaussian_samples((0.1, -0.2), cov, 1000, seed=42)
    np.testing.assert_array_equal(a, b[:100])


def test_gaussian_samples_moments():
    # samples come back as complex phase-space points x + i y
    cov = np.array([[0.05, 0.02], [0.02, 0.08]])
    mean = (0.3, -0.1)
    draws = num.gaussian_samples(mean, cov, 1_000_000, seed=123)
    assert draws.mean().real == pytest.approx(0.3, abs=2e-3)
    assert draws.mean().imag == pytest.approx(-0.1, abs=2e-3)
    got_cov = np.cov(np.vstack([draws.real, draws.imag]))
    assert np.linalg.det(got_cov) == pytest.approx(np.linalg.det(cov), rel=0.02)


def test_gaussian_samples_degenerate_cov():
    draws = num.gaussian_samples((0.5, 0.5), [[0.0, 0.0], [0.0, 0.0]], 10, seed=0)
    np.testing.assert_allclose(draws, 0.5 + 0.5j)


def test_gaussian_samples_rejects_indefinite():
    with pytest.raises(ValueError):
        num.gaussian_samples((0, 0), [[1.0, 0.0], [0.0, -1e-6]], 10, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_covariance_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        num.gaussian_samples((0, 0), [[bad, 0.0], [0.0, 1.0]], 10, seed=0)
    with pytest.raises(ValueError, match="finite"):
        wit.RandomDisplacementScheme(0.0, ((1.0, 0.0), (0.0, bad)), 3)


# ---------------------------------------------------------------------------
# tail radius
# ---------------------------------------------------------------------------


def test_tail_radius_gaussian():
    env = num.GaussianEnvelope(((1.0, 0, 2.0, 0.0),))  # exp(-2 rho^2)
    r = num.tail_radius(env)
    # analytic tail: (pi/2) exp(-2 r^2) <= tol
    assert (math.pi / 2) * math.exp(-2 * r * r) <= 1e-6
    assert r < 4.0  # and not absurdly conservative


def _mp_tail(terms, r):
    """int_r^inf 2 pi rho sum c rho^k e^(-a (rho - rho0)^2) d rho at 40 digits,
    split at each centre beyond r."""
    def integrand(rho):
        return 2 * mpmath.pi * rho * sum(
            mpmath.mpf(c) * rho**k * mpmath.exp(-mpmath.mpf(a) * (rho - rho0) ** 2)
            for c, k, a, rho0 in terms)

    with mpmath.workdps(40):
        cuts = sorted({mpmath.mpf(r)} | {mpmath.mpf(t[3]) for t in terms if t[3] > r})
        return float(mpmath.quad(integrand, cuts + [mpmath.inf]))


@pytest.mark.parametrize("terms,r", [
    (((1.0, 0, 2.0, 0.0),), 1.0),
    (((0.7, 1, 6.0, 0.0), (2.0, 3, 6.0, 0.0), (0.1, 5, 1.5, 0.0)), 0.8),
    (((0.3, 2, 4.0, 0.0), (1.2, 4, 4.0, 0.0), (0.5, 6, 4.0, 0.0)), 0.0),
    (((1.0, 0, 6.0, 1.2),), 0.5),  # r below a shifted centre
    (((1.0, 0, 6.0, 1.2),), 1.7),
    (((1.0, 0, 6.0, -1.2),), 0.5),
    (((0.5, 0, 18.0, 2.0), (0.5, 0, 18.0, -2.0), (1.0, 0, 18.0, 0.0)), 1.25),
    (((0.5, 0, 18.0, 2.0), (0.5, 0, 18.0, -2.0), (1.0, 0, 18.0, 0.0)), 2.75),
])
def test_envelope_tail_matches_mpmath(terms, r):
    assert num.GaussianEnvelope(terms).tail(r) == pytest.approx(_mp_tail(terms, r),
                                                                rel=1e-12)


@pytest.mark.parametrize("spec", [
    fam.w_family(3, eta=0.1), fam.cat_family(3, 1.1), fam.cat_family(2, 0.5 + 0.4j, 0.1),
    fam.cat_family(9, 0.86), fam.dicke2_family(4), fam.psi_family("psi1"),
    fam.psi_family("psi2"),
], ids=lambda s: s.label())
def test_family_envelope_tail_matches_mpmath(spec):
    env = fam.slice_abs_envelope(spec)
    for r in (0.25, num.tail_radius(env)):
        assert env.tail(r) == pytest.approx(_mp_tail(env.terms, r), rel=1e-12)


@pytest.mark.parametrize("term", [
    (-1.0, 0, 1.0, 0.0),  # negative coefficient
    (math.nan, 0, 1.0, 0.0),
    (1.0, 0, 0.0, 0.0),  # no decay
    (1.0, 0, -2.0, 0.0),
    (1.0, 0, math.inf, 0.0),
    (1.0, 0, 1.0, math.nan),
    (1.0, -1, 1.0, 0.0),  # negative power
    (1.0, 1.5, 1.0, 0.0),  # fractional power
    (1.0, 1, 1.0, 0.5),  # a power on a shifted centre
    (1.0, 2, 1.0, -0.5),
])
def test_envelope_rejects_bad_terms(term):
    with pytest.raises(ValueError, match="envelope term"):
        num.GaussianEnvelope((term,))


def test_minimize_resolves_on_demand():
    # perfbench/tracing.py patches numerics.minimize
    assert num.minimize is minimize
    with pytest.raises(AttributeError):
        num.no_such_name
