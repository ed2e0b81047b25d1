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
from fractions import Fraction

import numpy as np

logger = logging.getLogger(__name__)


def __getattr__(name):  # perfbench/tracing.py patches numerics.minimize: load it only then
    if name != "minimize":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from scipy.optimize import minimize
    return minimize


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
    if not 0 <= energy_bound < math.inf:
        raise ValueError("energy bound must be finite and nonnegative")
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
    """A predicate does not flip exactly once on the searched interval."""


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("search tolerance must be positive and finite, got %r" % tol)


def bisect_threshold(predicate, lo: float, hi: float, tol: float) -> float:
    """Locate the flip point of a monotone predicate on [lo, hi].

    The predicate returns a margin whose sign is its verdict: a value > 0 is
    true, anything else (0, a negative value, NaN) false, and a bool counts
    as 1 or 0.  The search probes only the 2^s + 1 points that bisection to
    `tol` could visit, s = ceil(log2((hi-lo)/tol)), each as the float that
    bisection's own 0.5*(lo+hi) steps give it, and ends at a one-cell bracket
    [x_j, x_j+1] whose ends have different verdicts; it returns
    0.5*(x_j + x_j+1).  While both bracket margins are finite and of strictly
    opposite sign, the next probe interpolates between them by the ITP rule
    (Oliveira & Takahashi, ACM TOMS 47(1), 2021; kappa1 = 0.2/(hi-lo),
    kappa2 = 2, n0 = 1); otherwise it is the bracket's midpoint, so a bool
    predicate is probed at bisection's points in bisection's order.

    When the verdicts are monotone in x the result is == to bisection's on
    the same verdicts.  When they are not, it is still the midpoint of a
    verified flip of bisection's width.  The search makes the two endpoint
    calls plus at most s + 1 probes, one more than bisection's s.  Raises
    NoBoundaryError when the endpoint verdicts agree.
    """
    _check_tol(tol)
    if hi <= lo:
        raise ValueError("need lo < hi")
    m_lo = float(predicate(lo))
    m_hi = float(predicate(hi))
    if (m_lo > 0) == (m_hi > 0):
        raise NoBoundaryError(
            "predicate does not bracket a boundary on [%g, %g]" % (lo, hi)
        )
    steps = max(0, int(math.ceil(math.log2((hi - lo) / tol))))
    n = 1 << steps

    def point(j):  # lattice index 0..n -> the float bisection computes for it
        a, b, x_a, x_b = 0, n, lo, hi
        while j not in (a, b):
            mid, x_mid = (a + b) // 2, 0.5 * (x_a + x_b)
            if j < mid:
                b, x_b = mid, x_mid
            else:
                a, x_a = mid, x_mid
        return x_a if j == a else x_b

    # the bracket as lattice indices with their points and margins; a keeps
    # the verdict of lo
    a, b, x_a, x_b, m_a, m_b = 0, n, lo, hi, m_lo, m_hi
    probes = 0
    while b - a > 1:
        p = (a + b) // 2
        if (math.isfinite(m_a) and math.isfinite(m_b)
                and min(m_a, m_b) < 0 < max(m_a, m_b)):
            # regula falsi, moved kappa1 (b-a)^2 cells towards the midpoint;
            # u is a fraction of the bracket from a
            u_f = m_a / (m_a - m_b)
            shift = 0.2 * ((b - a) / n)
            u = u_f + math.copysign(shift, 0.5 - u_f) if shift <= abs(0.5 - u_f) else 0.5
            # projected so that the bracket after probe k + 1 is at most
            # 2^(s - k) cells wide, which bounds the probes by s + 1
            # (a Fraction, as b - a can reach 2^1024, past the float range)
            reach = 1 << (steps - probes)
            p = min(max(a + round(Fraction(u) * (b - a)), a + 1, b - reach),
                    b - 1, a + reach)
        x_p = point(p)
        m_p = float(predicate(x_p))
        probes += 1
        if (m_p > 0) == (m_lo > 0):
            a, x_a, m_a = p, x_p, m_p
        else:
            b, x_b, m_b = p, x_p, m_p
    return 0.5 * (x_a + x_b)


def monotone_boundary(predicate, lo: float, hi: float, tol: float) -> float:
    """Coarse-scan a predicate for monotonicity, then search its boundary.

    The scan takes 9 evenly spaced points of [lo, hi], reads each value as
    `bisect_threshold` does (> 0 is true), and must show exactly one flip;
    anything else is reported as a NoBoundaryError rather than silently
    searched.  The search of the flipping interval reuses the scan's values
    at its two ends.  Raises ValueError, before any predicate call, unless
    lo < hi.
    """
    _check_tol(tol)
    if not lo < hi:
        raise ValueError("need lo < hi")
    xs = [float(x) for x in np.linspace(lo, hi, 9)]
    margins = [float(predicate(x)) for x in xs]
    flips = [i for i in range(len(xs) - 1)
             if (margins[i] > 0) != (margins[i + 1] > 0)]
    if len(flips) != 1:
        raise NoBoundaryError(
            "predicate is not monotone on [%g, %g] (%d sign changes in the "
            "coarse scan)" % (lo, hi, len(flips))
        )
    i = flips[0]
    ends = {xs[i]: margins[i], xs[i + 1]: margins[i + 1]}
    return bisect_threshold(lambda x: ends[x] if x in ends else predicate(x),
                            xs[i], xs[i + 1], tol)


def _covariance_root(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2):
        raise ValueError("covariance must be 2x2")
    if not np.isfinite(cov).all():
        raise ValueError("covariance must be finite")
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


@dataclass(frozen=True)
class GaussianEnvelope:
    """rho -> sum of c rho^k e^(-a (rho - rho0)^2) over `terms` (c, k, a, rho0),
    each with c >= 0, a > 0, an int k >= 0, and k = 0 if rho0 != 0."""

    terms: tuple

    def __post_init__(self):
        for c, k, a, rho0 in self.terms:
            if not (0 <= c < math.inf and 0 < a < math.inf and math.isfinite(rho0)
                    and isinstance(k, int) and k >= 0 and (k == 0 or rho0 == 0)):
                raise ValueError("bad envelope term (c, k, a, rho0) = %r" % ((c, k, a, rho0),))

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        return sum(c * rho**k * np.exp(-a * (rho - rho0) ** 2) for c, k, a, rho0 in self.terms)

    def tail(self, r: float) -> float:
        """int_r^inf 2 pi rho envelope(rho) d rho: a term adds c (I_k + rho0 I_-1)(r - rho0),
        I_j(t) = int_t^inf s^(j+1) e^(-a s^2) ds = (t^j e^(-a t^2) + j I_j-2(t)) / 2a."""
        total = 0.0
        for c, k, a, rho0 in self.terms:
            t = r - rho0
            i_odd = 0.5 * math.sqrt(math.pi / a) * math.erfc(math.sqrt(a) * t)  # I_-1(t)
            i = i_odd if k % 2 else 0.0
            for j in range(k % 2, k + 1, 2):
                i = (t**j * math.exp(-a * t * t) + j * i) / (2.0 * a)
            total += c * (i + rho0 * i_odd)
        return 2.0 * math.pi * total


def tail_radius(envelope: GaussianEnvelope) -> float:
    """First radius 1, 1.25, ..., 40 whose exact tail (`GaussianEnvelope.tail`) is < 1e-6."""
    for r in (1.0 + 0.25 * n for n in range(157)):
        if envelope.tail(r) < 1e-6:
            return r
    raise ValueError("no radius up to 40 meets the tail tolerance 1e-6")
