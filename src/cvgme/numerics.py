"""Grids, rigorous midpoint-rule error bounds, optimization and sampling.

The integration grid is the square lattice (n_R + i n_I) * delta clipped to a
disc.  The midpoint rule on that lattice admits a per-cell error bound of

    2 delta^3 sqrt(2 M E) + 2 M delta^4 (1 + sqrt(2 (n_R^2 + n_I^2)))

for integrands built from parity expectations of M-mode states with total
energy at most E; summing it over the cells gives a certified error ledger
for the absolute-integral witness.  Any higher-order quadrature rule would
void that ledger, so plain midpoint it is.

Settings-set optimization is a restarted Nelder-Mead on the 2N real
coordinates; restarts draw their initial sets upfront from one seeded stream
so that enlarging the restart count only appends new starts (the best value
is monotone in the budget).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.optimize import minimize

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridSpec:
    """Square-lattice midpoint grid clipped to a centred disc."""

    delta: float
    radius: float
    energy_bound: float | None = None

    def __post_init__(self):
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
        n_re, _ = self.indices()
        return int(n_re.size)


def disc_grid(delta: float, radius: float, energy_bound: float | None = None) -> GridSpec:
    """Grid of cells whose centers (n_R + i n_I) delta satisfy |center| <= radius."""
    return GridSpec(float(delta), float(radius), energy_bound)


def rigorous_error(grid: GridSpec, modes: int, energy_bound: float) -> float:
    """Sum of the per-cell midpoint error bounds over the whole grid."""
    if energy_bound < 0:
        raise ValueError("energy bound must be nonnegative")
    n_re, n_im = grid.indices()
    d = grid.delta
    per_cell_const = 2.0 * d**3 * math.sqrt(2.0 * modes * energy_bound)
    radial = np.sqrt(2.0 * (n_re.astype(float) ** 2 + n_im.astype(float) ** 2))
    return float(
        n_re.size * per_cell_const + 2.0 * modes * d**4 * np.sum(1.0 + radial)
    )


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
    (see `families.family_wigner_slice_xy`).  Rows are taken a block at a
    time, each over the columns its widest row needs, so no array holds much
    more than LATTICE_BLOCK_CELLS values.

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
        vals = fn(rows[i : i + step, None] * grid.delta, rows[None, cols] * grid.delta)
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


def optimize_settings(objective, n_points: int, budget: OptimizerBudget,
                      init_radius: float = 1.0):
    """Maximize `objective` over N-point settings sets in the complex plane.

    `objective` takes a complex array of length `n_points` and returns a real
    number.  Each restart runs a Nelder-Mead descent on the 2N stacked real
    coordinates; all restart initializations are drawn upfront from a single
    seeded stream (uniform on a disc of radius `init_radius`), so results are
    deterministic per seed and monotone in the restart count.  The returned
    value is never below the best raw initialization.
    """
    rng = np.random.default_rng(budget.seed)
    n_restarts = budget.restarts
    # upfront draw, one uniform pair per point so that restart k's start set
    # is independent of the total restart count (radius sqrt(u) for uniform
    # area density)
    u = rng.random((n_restarts, n_points, 2))
    inits = init_radius * np.sqrt(u[:, :, 0]) * np.exp(2j * math.pi * u[:, :, 1])

    def as_complex(x):
        return x[:n_points] + 1j * x[n_points:]

    def neg_objective(x):
        val = objective(as_complex(x))
        if not np.isfinite(val):
            return np.inf
        return -float(val)

    best_val = -np.inf
    best_x = None
    options = {
        "maxfev": budget.max_evals,
        "xatol": budget.tol,
        "fatol": budget.tol,
        "adaptive": True,
    }
    for i in range(n_restarts):
        xi0 = inits[i]
        x0 = np.concatenate([xi0.real, xi0.imag])
        f0 = objective(xi0)
        if not np.isfinite(f0):
            logger.debug("restart %d discarded: non-finite objective at start", i)
            continue
        if f0 > best_val:
            best_val = float(f0)
            best_x = x0
        # two descent stages per restart: the second rebuilds the simplex at
        # the first's endpoint, which escapes collapsed simplexes.  Polishing
        # per restart (not just the global winner) keeps the result monotone
        # in the restart count.
        for _ in range(2):
            res = minimize(neg_objective, x0, method="Nelder-Mead",
                           options=options)
            if not np.isfinite(res.fun):
                break
            x0 = res.x
            if -res.fun > best_val:
                best_val = float(-res.fun)
                best_x = res.x
    if best_x is None:
        raise ValueError("every restart produced a non-finite objective")
    return as_complex(np.asarray(best_x, dtype=float)), best_val


def bisect_threshold(predicate, lo: float, hi: float, tol: float) -> float:
    """Locate the flip point of a monotone boolean predicate on [lo, hi].

    Uses exactly two endpoint calls plus ceil(log2((hi-lo)/tol)) probes.
    """
    if hi <= lo:
        raise ValueError("need lo < hi")
    p_lo = bool(predicate(lo))
    p_hi = bool(predicate(hi))
    if p_lo == p_hi:
        raise ValueError(
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

    The scan must show exactly one flip; anything else is reported as an
    error rather than silently bisected.
    """
    xs = np.linspace(lo, hi, coarse)
    vals = [bool(predicate(x)) for x in xs]
    flips = [i for i in range(len(vals) - 1) if vals[i] != vals[i + 1]]
    if len(flips) != 1:
        raise ValueError(
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
