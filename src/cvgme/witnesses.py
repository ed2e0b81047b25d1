"""Five phase-space certification schemes for genuine multipartite entanglement.

Each scheme returns a :class:`WitnessReport` carrying the witness value, the
certification threshold, the relevant error term, and the verdict.  All
verdicts use strict inequalities with a 1e-12 guard band so that floating
noise can never flip a borderline case toward a false positive.

Scheme summary (M system modes throughout):

* ``witness_a`` - midpoint-rule absolute integral of the displaced-parity
  expectation over a 2D slice, against pi/(4 sqrt(M-1)); the slice is a
  family's closed form or any vectorized callable, summed block by block
  over the disc lattice.  Carries either the rigorous per-cell
  discretization bound (when the grid carries an energy bound) or a
  clearly-labelled heuristic grid-halving error.
* ``witness_b`` - trace norm of the N x N Hermitian matrix of multiport
  parity-displacement expectations, against M/(2 sqrt(M-1)).
* ``witness_c`` - parity of the collective centre-of-mass mode of the system
  plus M-2 ancilla modes (a KernelSpec); negative expectation certifies.
* ``witness_d`` - Monte-Carlo estimate of the same collective parity under
  randomly displaced shots; sign-based verdict (mean + 3 stderr < 0).
* ``witness_e`` - trace norm of the Hadamard product of a characteristic
  settings matrix with an ancilla kernel matrix, against 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from . import families, numerics
from .fock_core import (
    MAX_DENSE_ENTRIES,
    MixedState,
    ResourceLimitError,
    as_ensemble,
    check_dense_size,
    tensor,
)
from .gaussian_ops import DEFAULT_PHOTON_BUDGET, MAX_DISPLACEMENT_SQ, displacement_matrix

# not called here, but perfbench/tracing.py patches these names on this module
from .gaussian_ops import apply_linear_optical, displacement_matrix_element  # noqa: F401

GUARD = 1e-12

#: Most photons `_com_density_matrix` takes: its alternating sum loses digits
#: (|n> is off by 4e-12 at n = 12, 3e-8 at 20) and 21! overflows int64.
MOMENT_PHOTON_LIMIT = 20


def _root_m_minus_1(modes: int) -> float:
    """sqrt(M-1), the scale of the GME bounds, which need M >= 2 modes."""
    if not modes >= 2:
        raise ValueError("a GME threshold needs at least 2 modes, got M = %r" % (modes,))
    return math.sqrt(modes - 1.0)


def slice_integral_threshold(modes: int) -> float:
    """Certification bound for the absolute displaced-parity integral."""
    return math.pi / (4.0 * _root_m_minus_1(modes))


def volume_threshold(modes: int) -> float:
    """The same bound expressed as an absolute Wigner slice volume."""
    return 1.0 / (2.0 * _root_m_minus_1(modes))


def settings_threshold(modes: int) -> float:
    """Trace-norm bound for the settings-matrix witness."""
    return modes / (2.0 * _root_m_minus_1(modes))


@dataclass
class WitnessReport:
    """Outcome of one witness evaluation."""

    witness: str
    value: float
    threshold: float
    certified: bool
    family: str | None = None
    params: dict = field(default_factory=dict)
    rigorous_error: float | None = None
    stderr: float | None = None
    n_settings: int | None = None
    seed: int | None = None
    xi_points: list | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def trace_norm_hermitian(mat: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(mat, mat.conj().T, atol=1e-10):
        raise ValueError("matrix is not Hermitian within 1e-10")
    return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))


def _settings_matrices(entry_fn, xi, kernel_fn=None):
    """Hermitian matrices 0.5 (E + E^H) of a stack of settings sets xi (..., N).

    E[a, b] = entry_fn(xi_a - xi_b) / N, multiplied by kernel_fn(xi_a - xi_b)
    when a kernel is given; both are called once, on the whole (..., N, N)
    array of differences.
    """
    n = xi.shape[-1]
    diffs = xi[..., :, None] - xi[..., None, :]
    mat = np.asarray(entry_fn(diffs), dtype=complex)
    if mat.shape != diffs.shape:
        mat = np.broadcast_to(mat, diffs.shape)
    mat = mat / n
    if kernel_fn is not None:
        mat = mat * np.asarray(kernel_fn(diffs), dtype=complex)
    return 0.5 * (mat + np.conj(np.swapaxes(mat, -1, -2)))


def build_settings_matrix(entry_fn, xi, kernel_fn=None) -> np.ndarray:
    """Hermitian matrix of entry_fn(xi_n - xi_n') / N over a settings set.

    `entry_fn` (and `kernel_fn`, whose values multiply the entries) is called
    once on the N x N array of differences; the matrix is the Hermitian part
    of the result.  The 1/N factor gives a unit diagonal entry function
    trace 1; the kernel values carry no such factor.
    """
    xi = np.asarray(xi, dtype=complex).ravel()
    if xi.size < 2:
        raise ValueError("a settings set needs at least 2 points")
    if not np.all(np.isfinite(xi)):
        raise ValueError("settings points must be finite")
    mat = _settings_matrices(entry_fn, xi, kernel_fn)
    if not np.all(np.isfinite(mat)):
        raise ValueError("entry function returned a non-finite value")
    return mat


def distinct_settings(xi) -> int:
    """Number of distinct measured differences xi_n - xi_n' (sign-folded).

    A difference and its negative are one setting; the zero difference (the
    diagonal) counts once.  Differences within 1e-6 of each other are one.
    """
    tol = 1e-6
    xi = np.asarray(xi, dtype=complex).ravel()
    reps = []
    for a in range(xi.size):
        for b in range(a, xi.size):
            d = xi[a] - xi[b]
            if d.real < -tol or (abs(d.real) <= tol and d.imag < -tol):
                d = -d
            for r in reps:
                if abs(d - r) <= tol:
                    break
            else:
                reps.append(d)
    return len(reps)


def abs_slice_integral(slice_fn, grid: numerics.GridSpec) -> float:
    """Midpoint-rule integral of |W| over the retained cells of `grid`.

    `slice_fn` is the Wigner function on the slice: a `FamilySpec` with a
    closed slice form (summed from its split x, y factors, folded by its
    reflection symmetries), or a vectorized callable of complex alpha, whose
    output must have the shape of its input (else ValueError).  The sum runs
    block by block over the lattice (`numerics.midpoint_lattice_integral`).
    """
    if isinstance(slice_fn, families.FamilySpec):
        spec = slice_fn
        return numerics.midpoint_lattice_integral(
            lambda x, y: np.abs(families.family_wigner_slice_xy(spec, x, y)),
            grid, **families.slice_symmetries(spec))
    return numerics.midpoint_lattice_integral(
        lambda x, y: np.abs(slice_fn(x + 1j * y)), grid)


def witness_a(slice_fn, grid: numerics.GridSpec, modes: int) -> WitnessReport:
    """Absolute-integral witness on a 2D slice, via the midpoint rule.

    `slice_fn` is a `FamilySpec` (whose label the report carries) or a
    vectorized callable of complex alpha, summed as in
    :func:`abs_slice_integral`.  With the grid's energy bound the per-cell
    rigorous error ledger applies; without one the error is estimated by
    halving the grid spacing, and the verdict is flagged as non-rigorous.
    """
    pi_scale = (math.pi / 2.0) ** modes

    def integral(g):
        return pi_scale * abs_slice_integral(slice_fn, g)

    value = integral(grid)
    threshold = slice_integral_threshold(modes)

    rigorous = grid.energy_bound is not None
    if rigorous:
        err = numerics.rigorous_error(grid, modes, grid.energy_bound)
    else:
        err = abs(value - integral(numerics.disc_grid(grid.delta / 2.0, grid.radius)))

    certified = (value - err) > threshold + GUARD
    report = WitnessReport(
        witness="A",
        value=value,
        threshold=threshold,
        certified=certified,
        family=slice_fn.label() if isinstance(slice_fn, families.FamilySpec) else None,
        params={
            "delta": grid.delta,
            "radius": grid.radius,
            "error": err,
            "error_kind": "rigorous" if rigorous else "heuristic",
            "energy_bound": grid.energy_bound,
            "v2d": (2.0 / math.pi) * value,
            "v2d_threshold": volume_threshold(modes),
            "modes": modes,
        },
        rigorous_error=err if rigorous else None,
    )
    if not rigorous:
        report.params["heuristic_error"] = err
    return report


def _settings_witness(entry_fn, xi, modes: int, kernel, family, seed) -> WitnessReport:
    """Witness B (no kernel) or E: the trace norm of the normalized settings
    matrix of `entry_fn` on xi, for E multiplied entrywise by the kernel
    matrix, against M/(2 sqrt(M-1)) for B and 1 for E."""
    xi = np.asarray(xi, dtype=complex).ravel()
    params = {"modes": modes, "n_points": int(xi.size)}
    if kernel is None:
        witness, threshold, kernel_fn = "B", settings_threshold(modes), None
    else:
        kernel.check_modes(modes)
        witness, threshold = "E", 1.0
        kernel_fn = lambda d: families.kernel_c_entry(kernel, d)
        params["kernel"] = kernel.label()
    value = trace_norm_hermitian(build_settings_matrix(entry_fn, xi, kernel_fn=kernel_fn))
    return WitnessReport(
        witness=witness,
        value=value,
        threshold=threshold,
        certified=value > threshold + GUARD,
        family=family,
        params=params,
        n_settings=distinct_settings(xi),
        seed=seed,
        xi_points=[[float(p.real), float(p.imag)] for p in xi],
    )


def witness_b(entry_fn, xi, modes: int, family: str | None = None,
              seed: int | None = None) -> WitnessReport:
    """Settings-matrix witness from multiport parity-displacement data.

    `entry_fn(xi)` must return the expectation of the negative multiport
    parity combined with the equal displacement of every mode by `xi`.
    """
    return _settings_witness(entry_fn, xi, modes, None, family, seed)


def _lower_com(psi: np.ndarray) -> np.ndarray:
    """a_c psi for the centre-of-mass mode a_c = SUM_m a_m / sqrt(M)."""
    out = np.zeros_like(psi)
    root = np.sqrt(np.arange(1, psi.shape[0]))
    for axis in range(psi.ndim):
        head = (slice(None),) * axis
        root_col = root.reshape((-1,) + (1,) * (psi.ndim - 1 - axis))
        out[head + (slice(None, -1),)] += root_col * psi[head + (slice(1, None),)]
    return out / math.sqrt(psi.ndim)


def _com_density_matrix(state, max_photons: int) -> np.ndarray:
    """Single-mode density matrix of the centre-of-mass mode of `state`.

    With N the largest total photon number and phi_p = a_c^p psi on the
    dense amplitudes, the Gram matrix G[i, j] = <phi_i|phi_j> holds the
    normal-ordered moments <a_c^dagger^i a_c^j>, and
    rho[n, m] = SUM_k (-1)^k / (k! sqrt(n! m!)) G[m+k, n+k].
    """
    branches = as_ensemble(state)
    n_max = max(pure.total_photon_max() for _, pure in branches)
    if n_max > min(max_photons, MOMENT_PHOTON_LIMIT):
        raise ResourceLimitError(
            "total photon number %d exceeds the brute-force budget %d or the moment "
            "sum's limit %d, the lesser" % (n_max, max_photons, MOMENT_PHOTON_LIMIT)
        )
    gram = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for weight, pure in branches:
        check_dense_size(pure.amps.shape, MAX_DENSE_ENTRIES // (n_max + 1))
        phi = [pure.amps]
        for _ in range(n_max):
            phi.append(_lower_com(phi[-1]))
        flat = np.reshape(phi, (n_max + 1, -1))
        gram += weight * (flat.conj() @ flat.T)
    rho = np.zeros_like(gram)
    for k in range(n_max + 1):
        rho[: n_max + 1 - k, : n_max + 1 - k] += (-1) ** k / math.factorial(k) * gram[k:, k:].T
    inv_root = 1.0 / np.sqrt([math.factorial(n) for n in range(n_max + 1)])
    return rho * np.outer(inv_root, inv_root)


def _displaced_parity_from_dm(rho: np.ndarray, beta: complex) -> float:
    """tr[rho Pi(beta)] = tr[rho D(2 beta) Pi] for a number-basis density matrix."""
    n = rho.shape[0]
    sign = (-1.0) ** np.arange(n)
    disp = displacement_matrix(2.0 * beta, n)
    return float(np.sum(rho * sign[:, None] * disp.T).real)


def witness_c(state, kernel: families.KernelSpec, alpha: complex = 0.0,
              max_photons: int = DEFAULT_PHOTON_BUDGET) -> WitnessReport:
    """Collective-parity witness on the system plus M-2 ancilla modes.

    `state` is an M-mode Pure/MixedState and `kernel` the M-2 ancillas,
    which must have truncated-Fock states (vacuum or Fock entries; a
    squeezed ancilla raises ValueError).  The value is the expectation of
    the displaced parity of the centre-of-mass mode over all 2M-2 modes; a
    negative value certifies.  `params` records the oracle's size: the joint
    state's per-mode `cutoff`, its dense amplitude `entries` summed over its
    branches, and `n_max`, its largest total photon number.
    """
    modes = state.modes
    if modes < 3:
        raise ValueError("collective-parity witness needs at least 3 modes")
    kernel.check_modes(modes)
    anc = kernel.fock_states()
    total_modes = 2 * modes - 2
    scale = math.sqrt(modes / (2.0 * modes - 2.0))
    beta = complex(alpha) * scale

    try:
        joint = MixedState(tuple((w, reduce(tensor, anc, st)) for w, st in as_ensemble(state)))
        rho_plus = _com_density_matrix(joint, max_photons)
    except ResourceLimitError as exc:
        raise ResourceLimitError(
            "%s; for larger systems use the tabulated closed forms "
            "(family_smoothed_wigner)" % exc
        ) from None
    try:
        value = _displaced_parity_from_dm(rho_plus, beta)
    except ValueError:
        raise ValueError(
            "|alpha| = %.6g is out of range: at M = %d the collective parity is "
            "computed up to |alpha| = %.4g"
            % (abs(complex(alpha)), modes, math.sqrt(MAX_DISPLACEMENT_SQ) / (2.0 * scale))
        ) from None
    return WitnessReport(
        witness="C",
        value=value,
        threshold=0.0,
        certified=value < -GUARD,
        params={
            "modes": modes,
            "total_modes": total_modes,
            "alpha": [complex(alpha).real, complex(alpha).imag],
            "ancillas": [list(map(tuple, np.argwhere(a.amps).tolist())) for a in anc],
            "cutoff": joint.cutoff,
            "entries": sum(pure.amps.size for _, pure in joint.branches),
            "n_max": rho_plus.shape[0] - 1,
        },
    )


@dataclass(frozen=True)
class RandomDisplacementScheme:
    """Sampling scheme for the randomized collective-parity witness.

    `alpha` is the phase-space point being probed, `cov` the 2x2 covariance
    of the sampled displacement, `modes` the system size.  Soundness requires
    sqrt(det C) >= (M-2)/(4 M^2); schemes below the bound are rejected.
    """

    alpha: complex
    cov: tuple
    modes: int

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        numerics._covariance_root(cov)  # 2x2, symmetric and positive semidefinite
        if not cmath.isfinite(complex(self.alpha)):
            raise ValueError("alpha must be finite, got %r" % (self.alpha,))
        if self.modes < 3:
            raise ValueError("scheme needs at least 3 modes")
        det = float(max(np.linalg.det(cov), 0.0))
        bound = (self.modes - 2.0) / (4.0 * self.modes**2)
        if math.sqrt(det) < bound - 1e-12:
            raise ValueError(
                "sqrt(det cov) = %.6g is below the soundness bound %.6g; "
                "certification with this spread would be unsound"
                % (math.sqrt(det), bound)
            )
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "cov", tuple(map(tuple, cov)))

    def cov_matrix(self) -> np.ndarray:
        return np.asarray(self.cov, dtype=float)


def witness_d(target, scheme: RandomDisplacementScheme, n_samples: int,
              seed: int) -> WitnessReport:
    """Monte-Carlo sign test of the collective parity under random shots.

    `target` is either a FamilySpec with a tabulated centre-of-mass Wigner
    function (whose label the report carries) or a callable giving that
    single-mode Wigner function directly.
    Each shot displaces all modes equally by a Gaussian draw; the estimator
    certifies when mean + 3 stderr < 0.  Only the sign is certified - the
    analytic magnitude normalization is deliberately not part of the verdict.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples for a stable verdict")
    if isinstance(target, families.FamilySpec):
        com_wigner = lambda y: families.family_com_wigner(target, y)
        family = target.label()
    elif callable(target):
        com_wigner, family = target, None
    else:
        raise TypeError("target must be a FamilySpec or a callable")

    m = scheme.modes
    root_m = math.sqrt(m)
    mean_vec = (-scheme.alpha.real / root_m, -scheme.alpha.imag / root_m)
    draws = numerics.gaussian_samples(mean_vec, scheme.cov_matrix(), n_samples, seed)
    shots = (math.pi / 2.0) * np.asarray(com_wigner(-root_m * draws), dtype=float)
    mean = float(np.mean(shots))
    stderr = float(np.std(shots, ddof=1) / math.sqrt(n_samples))
    return WitnessReport(
        witness="D",
        value=mean,
        threshold=0.0,
        certified=(mean + 3.0 * stderr) < -GUARD,
        family=family,
        params={
            "modes": m,
            "n_samples": int(n_samples),
            "alpha": [scheme.alpha.real, scheme.alpha.imag],
            "sqrt_det_cov": math.sqrt(max(np.linalg.det(scheme.cov_matrix()), 0.0)),
        },
        stderr=stderr,
        seed=seed,
    )


def witness_e(char_entry_fn, xi, kernel: families.KernelSpec, modes: int,
              family: str | None = None, seed: int | None = None) -> WitnessReport:
    """Kernel-matrix witness: trace norm of C o K against 1.

    `char_entry_fn(xi)` is the slice characteristic function of the system
    state at the equal displacement xi of every mode; the kernel matrix is
    the product of ancilla characteristic functions at the raw differences
    (no 1/N there - only C is normalized).
    """
    return _settings_witness(char_entry_fn, xi, modes, kernel, family, seed)


#: Slope of the plateau-escape funnel of the settings objective.
ESCAPE_SLOPE = 30.0


def stacked_settings_objective(entry_fn, kernel_entry_fn=None):
    """Optimization objective over a stack of settings sets, with plateau escape.

    The returned function maps settings sets xi (..., N) to their values
    (...), with one stacked eigvalsh for the whole stack.  The raw trace norm
    of the (normalized, trace-1) settings matrix equals 1 on the entire
    region where the matrix is positive semidefinite, which leaves simplex
    methods stranded.  Whenever the smallest eigenvalue is nonnegative the
    objective returns 1 - ESCAPE_SLOPE * lambda_min instead, turning the flat region
    into a gentle funnel toward the PSD boundary while agreeing with the
    trace norm wherever the matrix has a negative mode.
    """

    def objective(xi):
        mat = _settings_matrices(entry_fn, np.asarray(xi, dtype=complex),
                                 kernel_entry_fn)
        eigs = np.linalg.eigvalsh(mat)
        lam_min = eigs[..., 0]
        return np.where(lam_min < -1e-14, np.abs(eigs).sum(axis=-1),
                        1.0 - ESCAPE_SLOPE * lam_min)

    return objective


def settings_objective(entry_fn, kernel_entry_fn=None):
    """The plateau-escape objective of one settings set (a float per call).

    This is :func:`stacked_settings_objective` applied to a single set.
    """
    stacked = stacked_settings_objective(entry_fn, kernel_entry_fn)
    return lambda xi: float(stacked(np.asarray(xi, dtype=complex).ravel()))


def _optimize_settings_witness(spec, kernel, n_points, budget):
    """Optimize witness B (no kernel) or E (with one) over Xi for a family,
    from starting points in the disc of radius 3/sqrt(M)."""
    if n_points < 2:
        raise ValueError("a settings set needs at least 2 points")
    entry = lambda d: families.family_c_entry(spec, d)
    kernel_entry = None
    if kernel is None:
        settings_threshold(spec.modes)  # M >= 2, before the search
    else:
        kernel.check_modes(spec.modes)
        kernel_entry = lambda d: families.kernel_c_entry(kernel, d)
    optimum = numerics.optimize_settings(
        stacked_settings_objective(entry, kernel_entry), n_points, budget,
        3.0 / math.sqrt(spec.modes)
    )
    report = _settings_witness(entry, optimum.xi, spec.modes, kernel, spec.label(),
                               budget.seed)
    report.params["restarts"] = budget.restarts
    report.params["max_evals"] = budget.max_evals
    report.params["objective_evals"] = optimum.objective_evals
    report.params["improving_restarts"] = optimum.improving_restarts
    return report


def optimize_witness_b(spec: families.FamilySpec, n_points: int,
                       budget: numerics.OptimizerBudget) -> WitnessReport:
    """Optimize the settings-matrix witness over Xi for a closed-form family."""
    return _optimize_settings_witness(spec, None, n_points, budget)


def optimize_witness_e(spec: families.FamilySpec, kernel: families.KernelSpec,
                       n_points: int, budget: numerics.OptimizerBudget) -> WitnessReport:
    """Optimize the kernel-matrix witness over Xi for a closed-form family."""
    return _optimize_settings_witness(spec, kernel, n_points, budget)
