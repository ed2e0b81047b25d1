"""Grids, rigorous midpoint-rule error bounds, optimization and sampling.

The integration grid is the square lattice (n_R + i n_I) * delta clipped to a
disc.  The midpoint rule on that lattice admits a per-cell error bound of

    2 delta^3 sqrt(2 M E) + 2 M delta^4 (1 + sqrt(2 (n_R^2 + n_I^2)))

for integrands built from parity expectations of M-mode states with total
energy at most E; summing it over the cells gives a certified error ledger
for the absolute-integral witness.  Any higher-order quadrature rule would
void that ledger, so plain midpoint it is.

Settings-set optimization is a restarted Nelder-Mead on the 2N real
coordinates.  Restarts draw their initial sets upfront from one seeded stream,
so that enlarging the restart count only appends new starts (the best value
is monotone in the budget).  The objective is stacked: it maps K settings
sets (K, N) to K values, and all restarts step together, so each Nelder-Mead
iteration makes one objective call for every restart's reflection and one
for their expansions or contractions.  Each restart still takes exactly the
steps of scipy's adaptive Nelder-Mead (Gao & Han 2012), so the results equal
those of running the restarts one after another with scipy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
# not called here, but perfbench/tracing.py patches this name on this module
from scipy.optimize import minimize  # noqa: F401

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridSpec:
    """Square-lattice midpoint grid clipped to a centred disc."""

    delta: float
    radius: float
    energy_bound: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.delta) and math.isfinite(self.radius)):
            raise ValueError("grid spacing and disc radius must be finite, got "
                             "delta=%r, radius=%r" % (self.delta, self.radius))
        if self.delta <= 0:
            raise ValueError("grid spacing must be positive")
        if self.radius <= 0:
            raise ValueError("disc radius must be positive")
        if self.delta > self.radius:
            raise ValueError("grid spacing exceeds the disc radius (empty grid)")

    def _rows(self):
        """Lattice rows n = -nmax..nmax and the half-width of each row.

        Row n_R keeps the cells with |n_I| <= k[n_R], i.e. exactly those with
        n_R^2 + n_I^2 <= (radius/delta)^2 (+1e-9); k is -1 for an empty row.
        """
        nmax = int(math.floor(self.radius / self.delta + 1e-9))
        limit = (self.radius / self.delta) ** 2 + 1e-9
        rows = np.arange(-nmax, nmax + 1)
        sq = rows * rows
        k = np.floor(np.sqrt(np.maximum(limit - sq, 0.0))).astype(rows.dtype)
        # settle the rounding of the float square root by the integer test
        k += sq + (k + 1) ** 2 <= limit
        k -= sq + k * k > limit
        return rows, k

    # src sums the lattice blockwise and builds neither of the next two arrays,
    # but perfbench/tracing.py patches both names
    def indices(self):
        """Integer lattice coordinates (n_R, n_I) of the retained cells, row by row."""
        rows, k = self._rows()
        counts = np.maximum(2 * k + 1, 0)
        n_re = np.repeat(rows, counts)
        first = np.repeat(np.cumsum(counts) - counts + k, counts)
        return n_re, np.arange(n_re.size) - first

    def centers(self) -> np.ndarray:
        """Cell centers as a flat complex array."""
        n_re, n_im = self.indices()
        return (n_re + 1j * n_im) * self.delta

    def cell_count(self) -> int:
        _, k = self._rows()
        return int(np.maximum(2 * k + 1, 0).sum())


def disc_grid(delta: float, radius: float, energy_bound: float | None = None) -> GridSpec:
    """Grid of cells whose centers (n_R + i n_I) delta satisfy |center| <= radius."""
    return GridSpec(float(delta), float(radius), energy_bound)


def rigorous_error(grid: GridSpec, modes: int, energy_bound: float) -> float:
    """Sum of the per-cell midpoint error bounds over the whole grid.

    The radial term sum_cells sqrt(2 (n_R^2 + n_I^2)) is sqrt(2)/delta^3 times
    the lattice integral of |alpha|, summed block by block on a quarter disc.
    """
    if energy_bound < 0:
        raise ValueError("energy bound must be nonnegative")
    cells = grid.cell_count()
    d = grid.delta
    per_cell_const = 2.0 * d**3 * math.sqrt(2.0 * modes * energy_bound)
    radial = math.sqrt(2.0) / d**3 * midpoint_lattice_integral(
        np.hypot, grid, point_even=True, conj_even=True)
    return float(cells * per_cell_const + 2.0 * modes * d**4 * (cells + radial))


# not called in src, but perfbench/tracing.py patches this name
def midpoint_integral(fn_values: np.ndarray, delta: float) -> float:
    """Midpoint-rule integral of sampled values over their square cells."""
    return float(delta * delta * np.sum(fn_values))


# cells per block of midpoint_lattice_integral: small enough to stay in cache
LATTICE_BLOCK_CELLS = 1 << 16


def midpoint_lattice_integral(fn, grid: GridSpec, point_even: bool = False,
                              conj_even: bool = False) -> float:
    """Midpoint-rule integral of fn(x, y) over the retained cells of `grid`.

    `fn` gets a column x of row coordinates n_R*delta and a row y of column
    coordinates n_I*delta, and returns the values on the block they span
    (see `families.family_wigner_slice_xy`), with the shape of that block;
    any other shape raises ValueError.  Rows are taken a block at a time,
    each over the columns its widest row needs, so no array holds much more
    than LATTICE_BLOCK_CELLS values.

    The disc is symmetric under both reflections below, so a symmetry of
    `fn` lets the sum visit half the cells and count the mirrored ones
    twice: `point_even` (fn(-x, -y) = fn(x, y)) keeps the rows n_R >= 0,
    `conj_even` (fn(x, -y) = fn(x, y)) the columns n_I >= 0.  The cells
    and their weights in the sum are unchanged; only its order differs.
    """
    rows, k = grid._rows()
    nmax = int(rows[-1])  # rows[nmax] is row 0
    ones = np.ones(rows.size)
    row_w = np.where(rows > 0, 2.0, 1.0) if point_even else ones
    col_w = np.where(rows > 0, 2.0, 1.0) if conj_even else ones
    step = max(1, LATTICE_BLOCK_CELLS // rows.size)
    total = 0.0
    for i in range(nmax if point_even else 0, rows.size, step):
        half = k[i : i + step]
        width = int(half.max())
        if width < 0:
            continue
        cols = slice(nmax if conj_even else nmax - width, nmax + width + 1)
        x, y = rows[i : i + step, None] * grid.delta, rows[None, cols] * grid.delta
        vals = np.asarray(fn(x, y))
        if vals.shape != (x.size, y.size):
            raise ValueError("the integrand returned shape %r for a lattice block of "
                             "shape %r" % (vals.shape, (x.size, y.size)))
        vals = np.where(np.abs(rows[None, cols]) <= half[:, None], vals, 0.0)
        total += row_w[i : i + step] @ vals @ col_w[cols]
    return float(grid.delta * grid.delta * total)


@dataclass(frozen=True)
class OptimizerBudget:
    """Restart/evaluation budget for the settings-set optimizer."""

    restarts: int = 32
    max_evals: int = 2000
    tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_evals < 1:
            raise ValueError("need at least one evaluation per restart")
        if not self.tol >= 0:
            raise ValueError("optimizer tolerance must be nonnegative")


@dataclass(frozen=True)
class SettingsOptimum:
    """Best settings set found, its value, and the work spent finding it.

    Unpacks as ``xi, value``.  `objective_evals` counts the start points plus
    every Nelder-Mead evaluation; `improving_restarts` counts the restarts
    that raised the best value over all earlier restarts.
    """

    xi: np.ndarray
    value: float
    objective_evals: int
    improving_restarts: int

    def __iter__(self):
        return iter((self.xi, self.value))


def _lockstep_nelder_mead(func, x0, max_evals: int, tol: float):
    """Adaptive Nelder-Mead minimization of every row of `x0`, in lock step.

    `func` maps a stack of points (K, D) to K values (+inf where undefined).
    Each row follows scipy's ``_minimize_neldermead`` (adaptive, xatol =
    fatol = `tol`, maxfev = `max_evals`) step for step: the same initial
    simplex, reflection, expansion, contraction and shrink formulas and
    comparisons, the same argsort of the vertices, and the same budget rule
    (an evaluation past the budget is not made; in an interrupted shrink the
    vertex that hit the budget is moved but keeps its stale value).  The
    rows only share the calls to `func`: one for the reflections, one for
    the expansions and contractions, one for the shrinks of each iteration.

    Returns the best vertex (R, D), its value (R,) and the evaluation count
    of each row (R,).
    """
    x0 = np.asarray(x0, dtype=float)
    n_rows, dim = x0.shape
    # the adaptive parameters of Gao & Han, Comput. Optim. Appl. 51, 259 (2012)
    rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    # trial point c_x xbar - c_w x_worst of an expansion, an outside and an
    # inside contraction ((1 - psi) xbar + psi x_worst, with the sign moved)
    c_xbar = np.array([1 + rho * chi, 1 + psi * rho, 1 - psi])
    c_worst = np.array([rho * chi, psi * rho, -psi])

    sim = np.repeat(x0[:, None, :], dim + 1, axis=1)
    k = np.arange(dim)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.full((n_rows, dim + 1), np.inf)
    first = min(max_evals, dim + 1)
    fsim[:, :first] = func(sim[:, :first].reshape(-1, dim)).reshape(n_rows, first)
    nfev = np.full(n_rows, first)

    def sort(s, f):
        ind = np.argsort(f, axis=1)
        at = np.arange(len(f))[:, None]
        return s[at, ind], f[at, ind]

    for _ in range(2):  # scipy sorts twice before its first iteration
        sim, fsim = sort(sim, fsim)
    # the rows still iterating, and their simplexes, values and counts
    rows, s, f, used = np.arange(n_rows), sim, fsim, nfev
    while True:
        done = used >= max_evals
        flat = np.abs(f[:, :1] - f[:, 1:]).max(axis=1) <= tol
        if flat.any():  # scipy's convergence test, its vertex half only where needed
            done |= flat & (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= tol)
        if done.any():
            sim[rows], fsim[rows], nfev[rows] = s, f, used
            rows, s, f, used = rows[~done], s[~done], f[~done], used[~done]
            if rows.size == 0:
                break
        xbar = np.add.reduce(s[:, :-1], axis=1) / dim
        worst = s[:, -1]
        xr = (1 + rho) * xbar - rho * worst
        fxr = func(xr)
        used += 1

        expand = fxr < f[:, 0]
        accept = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~accept & (fxr < f[:, -1])
        second = ~accept & (used < max_evals)
        ftrial = np.full(rows.size, np.inf)
        trial = None
        if second.any():
            kind = np.where(expand, 0, np.where(outside, 1, 2))[second]
            trial = (c_xbar[kind, None] * xbar[second]
                     - c_worst[kind, None] * worst[second])
            ftrial[second] = func(trial)
            used[second] += 1
        take_trial = second & np.where(
            expand, ftrial < fxr, np.where(outside, ftrial <= fxr, ftrial < f[:, -1]))
        take_xr = accept | (second & expand & ~take_trial)
        shrink = second & ~expand & ~take_trial
        s[take_xr, -1], f[take_xr, -1] = xr[take_xr], fxr[take_xr]
        if trial is not None:
            pick = take_trial[second]
            s[take_trial, -1], f[take_trial, -1] = trial[pick], ftrial[take_trial]
        if shrink.any():
            left = max_evals - used[shrink]
            base = s[shrink, :1]
            moved = base + sigma * (s[shrink, 1:] - base)
            vertex = np.arange(1, dim + 1)
            evaluated = vertex <= left[:, None]
            touched = vertex <= left[:, None] + 1
            s_sh, f_sh = s[shrink], f[shrink]
            s_sh[:, 1:][touched] = moved[touched]
            if evaluated.any():
                f_sh[:, 1:][evaluated] = func(moved[evaluated])
            s[shrink], f[shrink] = s_sh, f_sh
            used[shrink] += evaluated.sum(axis=1)
        s, f = sort(s, f)
    return sim[:, 0], fsim.min(axis=1), nfev


def optimize_settings(objective, n_points: int, budget: OptimizerBudget,
                      init_radius: float = 1.0) -> SettingsOptimum:
    """Maximize `objective` over N-point settings sets in the complex plane.

    `objective` is stacked: it maps a complex array (K, n_points) of K
    settings sets to their K real values (non-finite values count as -inf).
    All restart starts are drawn upfront from one seeded stream (uniform on
    a disc of radius `init_radius`), so results are deterministic per seed
    and monotone in the restart count.  Every restart with a finite start
    then runs two adaptive Nelder-Mead descents on the 2N real coordinates,
    the second from the first one's endpoint; the restarts step in lock step
    (:func:`_lockstep_nelder_mead`), each exactly as scipy's Nelder-Mead
    would.  The best value is updated strictly, in restart order, so the
    result equals that of running the restarts one after another, and it is
    never below the best finite start.
    """
    if not (math.isfinite(init_radius) and init_radius > 0):
        raise ValueError("init_radius must be positive and finite, got %r"
                         % (init_radius,))
    rng = np.random.default_rng(budget.seed)
    # upfront draw, one uniform pair per point so that restart k's start set
    # is independent of the total restart count (radius sqrt(u) for uniform
    # area density)
    u = rng.random((budget.restarts, n_points, 2))
    inits = init_radius * np.sqrt(u[:, :, 0]) * np.exp(2j * math.pi * u[:, :, 1])

    def evaluate(xi):
        vals = np.asarray(objective(xi), dtype=float)
        if vals.shape != xi.shape[:1]:
            raise ValueError("the objective must map settings sets (K, %d) to K "
                             "values; got shape %r" % (n_points, vals.shape))
        return vals

    def neg_objective(x):
        vals = evaluate(x[:, :n_points] + 1j * x[:, n_points:])
        return np.where(np.isfinite(vals), -vals, np.inf)

    f0 = evaluate(inits)
    evals = f0.size
    start = np.isfinite(f0)
    if not start.all():
        logger.debug("restarts %s discarded: non-finite objective at start",
                     np.flatnonzero(~start).tolist())
    x0 = np.concatenate([inits.real, inits.imag], axis=1)
    # candidates[i]: restart i's finite start and the finite endpoints of its
    # descents, in the order the best value is updated
    candidates = [[(f0[i], x0[i])] if start[i] else [] for i in range(budget.restarts)]
    rows = np.flatnonzero(start)
    x = x0[rows]
    # two descent stages per restart: the second rebuilds the simplex at
    # the first's endpoint, which escapes collapsed simplexes.  Polishing
    # per restart (not just the global winner) keeps the result monotone
    # in the restart count.
    for _ in range(2):
        if rows.size == 0:
            break
        x, fun, nfev = _lockstep_nelder_mead(neg_objective, x, budget.max_evals,
                                             budget.tol)
        evals += int(nfev.sum())
        keep = np.isfinite(fun)
        for i, value, point in zip(rows[keep], -fun[keep], x[keep]):
            candidates[i].append((value, point))
        rows, x = rows[keep], x[keep]

    best_val, best_x, improving = -np.inf, None, 0
    for steps in candidates:
        improved = False
        for value, point in steps:
            if value > best_val:
                best_val, best_x, improved = float(value), point, True
        improving += improved
    if best_x is None:
        raise ValueError("every restart produced a non-finite objective")
    return SettingsOptimum(best_x[:n_points] + 1j * best_x[n_points:], best_val,
                           evals, improving)


class NoBoundaryError(ValueError):
    """A boolean predicate does not flip exactly once on the searched interval."""


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("search tolerance must be positive and finite, got %r" % tol)


def bisect_threshold(predicate, lo: float, hi: float, tol: float) -> float:
    """Locate the flip point of a monotone boolean predicate on [lo, hi].

    Uses exactly two endpoint calls plus ceil(log2((hi-lo)/tol)) probes.
    Raises NoBoundaryError when the endpoints agree.
    """
    _check_tol(tol)
    if hi <= lo:
        raise ValueError("need lo < hi")
    p_lo = bool(predicate(lo))
    p_hi = bool(predicate(hi))
    if p_lo == p_hi:
        raise NoBoundaryError(
            "predicate does not bracket a boundary on [%g, %g]" % (lo, hi)
        )
    steps = max(0, int(math.ceil(math.log2((hi - lo) / tol))))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if bool(predicate(mid)) == p_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def monotone_boundary(predicate, lo: float, hi: float, tol: float,
                      coarse: int = 9) -> float:
    """Coarse-scan a predicate for monotonicity, then bisect its boundary.

    The scan must show exactly one flip; anything else is reported as a
    NoBoundaryError rather than silently bisected.
    """
    _check_tol(tol)
    xs = np.linspace(lo, hi, coarse)
    vals = [bool(predicate(x)) for x in xs]
    flips = [i for i in range(len(vals) - 1) if vals[i] != vals[i + 1]]
    if len(flips) != 1:
        raise NoBoundaryError(
            "predicate is not monotone on [%g, %g] (%d sign changes in the "
            "coarse scan)" % (lo, hi, len(flips))
        )
    i = flips[0]
    return bisect_threshold(predicate, float(xs[i]), float(xs[i + 1]), tol)


def _covariance_root(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2):
        raise ValueError("covariance must be 2x2")
    if abs(cov[0, 1] - cov[1, 0]) > 1e-12:
        raise ValueError("covariance must be symmetric")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # positive semidefinite but singular: use the eigenvalue square root
        vals, vecs = np.linalg.eigh(cov)
        if vals.min() < -1e-12:
            raise ValueError("covariance is not positive semidefinite") from None
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def gaussian_samples(mean, cov, n: int, seed: int) -> np.ndarray:
    """`n` complex samples with jointly normal (Re, Im), via Box-Muller.

    One seeded stream, consumed in order; the whole batch is a deterministic
    function of (mean, cov, n, seed), and a prefix of a longer batch equals
    the shorter batch.
    """
    mean = np.asarray(mean, dtype=float).reshape(2)
    root = _covariance_root(cov)
    rng = np.random.default_rng(seed)
    # one uniform pair per sample, drawn consecutively
    uu = rng.random((n, 2))
    u1 = 1.0 - uu[:, 0]  # (0, 1]
    u2 = uu[:, 1]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.stack([r * np.cos(2.0 * math.pi * u2), r * np.sin(2.0 * math.pi * u2)])
    xy = (root @ z) + mean[:, None]
    return xy[0] + 1j * xy[1]


def tail_radius(envelope, tol: float = 1e-6, r_start: float = 1.0,
                r_step: float = 0.25, r_max: float = 40.0) -> float:
    """Smallest lattice radius whose envelope tail integrates below `tol`.

    `envelope` maps rho -> an upper bound on |integrand| at radius rho; the
    tail integral int_r^inf 2 pi rho envelope(rho) d rho is evaluated by
    adaptive quadrature.
    """
    r = r_start
    while r <= r_max:
        tail, _ = integrate.quad(
            lambda rho: 2.0 * math.pi * rho * envelope(rho), r, np.inf, limit=200
        )
        if tail < tol:
            return r
        r += r_step
    raise ValueError("no radius up to %g meets the tail tolerance %g" % (r_max, tol))
