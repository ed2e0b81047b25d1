"""Exact operations on truncated Fock states.

A state's amplitudes are a dense array of shape (cutoff+1,)*M (see
`fock_core`).  Single-mode operators act on it one mode at a time
(:func:`apply_mode_matrices`): each step is one matrix product on the
leading axis, flattened against the rest, and puts the new axis last, so
no axis is moved on its own.

Displacements use the whole number-basis matrix <m|D(beta)|n> from
:func:`displacement_matrix`.  Each diagonal m - n = k of that matrix is a
normalized Laguerre function of |beta|^2, built by its three-term recurrence
in n, which never forms the factorial ratios or powers of beta that overflow
or underflow; elements are exact at any truncation, unlike exponentiating a
truncated ladder operator.  The recurrence's coefficients and the index
tables of the fill depend on the dimension alone; the 16 dimensions used
last keep theirs.  A linear-optical unitary acts by rebuilding each
occupied basis state from creation operators on the dense array; amplitude
damping branches per mode into Kraus terms and merges proportional branches.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache

import numpy as np

from .fock_core import (
    DimensionError,
    MixedState,
    PureState,
    ResourceLimitError,
    as_ensemble,
    check_dense_size,
    normalize,
    total_photons,
)

# photon-number ceiling of the brute-force reference path: the basis states
# apply_linear_optical rebuilds and the centre-of-mass moments of witness_c
# grow combinatorially with it
DEFAULT_PHOTON_BUDGET = 8

NORM_LOSS_LIMIT = 1e-6

# e^(-|beta|^2/2) = <0|D(beta)|0> leaves the normal double range beyond this
MAX_DISPLACEMENT_SQ = -2.0 * math.log(sys.float_info.min)


class CutoffError(ValueError):
    """Raised when a displacement loses too much norm to truncation."""


@lru_cache(maxsize=16)
def _displacement_tables(dim: int):
    """The parts of :func:`displacement_matrix` that depend on `dim` alone.

    k, k/2, (1/2) log n!, the recurrence's coefficient rows 2n+1+k,
    sqrt(n(n+k)) and sqrt((n+1)(n+k+1)), the lower-triangle pairs (n, k)
    with n + k < dim, their row index n + k and the signs (-1)^k.  The
    arrays are read-only, since every caller of one dim shares them.
    """
    k = np.arange(dim, dtype=float)
    n = k[:, None]
    half_log_factorial = 0.5 * np.fromiter(map(math.lgamma, range(1, dim + 1)), float, dim)
    n_idx, k_idx = np.nonzero(np.add.outer(k, k) < dim)  # n + k < dim
    tables = (k, 0.5 * k, half_log_factorial, 2 * n + 1 + k,
              np.sqrt(n * (n + k)), np.sqrt((n + 1) * (n + k + 1)),
              n_idx, k_idx, n_idx + k_idx, (-1.0) ** k_idx)
    for table in tables:
        table.flags.writeable = False
    return tables


def displacement_matrix(beta: complex, dim: int) -> np.ndarray:
    """The dim x dim block <m|D(beta)|n>, m, n = 0..dim-1.

    For m = n + k >= n the element is e^(ik arg beta) f_n^k(|beta|^2) with the
    normalized Laguerre function
    f_n^k(x) = sqrt(n!/(n+k)!) x^(k/2) e^(-x/2) L_n^k(x), bounded by 1 and
    built by the recurrence
    sqrt((n+1)(n+k+1)) f_(n+1) = (2n+1+k-x) f_n - sqrt(n(n+k)) f_(n-1),
    vectorized over k.  The upper triangle follows from
    D(beta)^dagger = D(-beta).  Raises ValueError once e^(-|beta|^2/2)
    underflows (|beta| above about 37.6), where the elements would be lost.
    """
    if dim < 1:
        raise ValueError("matrix dimension must be >= 1")
    beta = complex(beta)
    x = beta.real * beta.real + beta.imag * beta.imag
    if not math.isfinite(x) or x > MAX_DISPLACEMENT_SQ:
        raise ValueError(
            "|beta| = %.6g is out of range: e^(-|beta|^2/2) underflows beyond "
            "|beta| = %.4g" % (math.sqrt(x), math.sqrt(MAX_DISPLACEMENT_SQ))
        )
    if x == 0.0:
        return np.eye(dim, dtype=complex)
    (k, half_k, half_log_factorial, diag, root_lo, root_hi,
     n_idx, k_idx, m_idx, sign) = _displacement_tables(dim)
    f = np.empty((dim, dim))  # f[n, k] = f_n^k(x)
    f[0] = np.exp(half_k * math.log(x) - half_log_factorial - 0.5 * x)
    if dim > 1:
        f[1] = f[0] * (diag[0] - x) / root_hi[0]  # row n = 0, where f_(-1) = 0
    for n in range(1, dim - 1):
        f[n + 1] = ((diag[n] - x) * f[n] - root_lo[n] * f[n - 1]) / root_hi[n]
    vals = f[n_idx, k_idx]
    phase = np.exp(1j * math.atan2(beta.imag, beta.real) * k)[k_idx]
    out = np.empty((dim, dim), dtype=complex)
    out[m_idx, n_idx] = phase * vals
    out[n_idx, m_idx] = sign * phase.conj() * vals
    return out


def displacement_matrix_element(m: int, n: int, beta: complex) -> complex:
    """<m|D(beta)|n> in the number basis."""
    if m < 0 or n < 0:
        raise ValueError("negative Fock index")
    return complex(displacement_matrix(beta, max(m, n) + 1)[m, n])


def apply_mode_matrices(arr: np.ndarray, mats) -> np.ndarray:
    """Apply mats[m] (rows x arr.shape[m]) to axis m of `arr`, for every m.

    `mats` holds one matrix per axis.  Each step contracts the leading axis
    by one matrix product and puts the new axis last, so after one step per
    axis every axis is back in place.
    """
    for mat in mats:
        out = mat @ arr.reshape(arr.shape[0], -1)
        arr = out.T.reshape(arr.shape[1:] + (mat.shape[0],))
    return arr


def apply_displacement(state: PureState, betas) -> PureState:
    """Apply the product displacement D(beta_1) x ... x D(beta_M).

    `betas` is one complex number per mode (a scalar is broadcast).  The
    working cutoff is enlarged by ceil(4|beta|^2 + 6) so the displaced state
    fits; if more than 1e-6 of the norm still escapes, the input cutoff was
    genuinely too small and a CutoffError is raised.
    """
    if np.isscalar(betas):
        betas = [betas] * state.modes
    betas = [complex(b) for b in betas]
    if len(betas) != state.modes:
        raise DimensionError(
            "expected %d displacement amplitudes, got %d" % (state.modes, len(betas))
        )
    bmax = max(abs(b) for b in betas) if betas else 0.0
    headroom = int(math.ceil(4.0 * bmax * bmax + 6.0))
    work_cutoff = state.cutoff + headroom

    in_norm = state.norm_sq()
    if in_norm == 0.0:
        raise ValueError("null state: nothing to displace")

    check_dense_size((work_cutoff + 1,) * state.modes)
    mats = [displacement_matrix(b, work_cutoff + 1)[:, : state.cutoff + 1] for b in betas]
    out = PureState(apply_mode_matrices(state.amps, mats))
    loss = abs(out.norm_sq() - in_norm)
    if loss > NORM_LOSS_LIMIT:
        raise CutoffError(
            "cutoff too small: displacement lost %.3g of the norm" % loss
        )
    return out


def _create(psi: np.ndarray, column: np.ndarray) -> np.ndarray:
    """SUM_m column[m] a_m^dagger psi on a dense array whose top level is empty."""
    out = np.zeros_like(psi)
    up = np.sqrt(np.arange(1, psi.shape[0])).reshape((-1,) + (1,) * (psi.ndim - 1))
    for axis, c in enumerate(column):
        if c != 0:
            np.moveaxis(out, axis, 0)[1:] += c * up * np.moveaxis(psi, axis, 0)[:-1]
    return out


def apply_linear_optical(
    unitary: np.ndarray, state: PureState, max_photons: int = DEFAULT_PHOTON_BUDGET
) -> PureState:
    """Apply a linear-optical unitary by its action on creation operators.

    Each occupied basis state PROD_m (a_m^dagger)^n_m / sqrt(n_m!) |0> is
    rebuilt one photon at a time on the dense array, with a_m^dagger
    rewritten as SUM_m' U[m', m] a_m'^dagger.  Photon number is conserved
    exactly.  States above the photon budget are refused (cost grows
    combinatorially); raise the budget explicitly for known-slow reference
    checks.
    """
    unitary = np.asarray(unitary, dtype=complex)
    modes = state.modes
    if unitary.shape != (modes, modes):
        raise DimensionError(
            "unitary shape %r does not match %d modes" % (unitary.shape, modes)
        )
    if not np.allclose(unitary.conj().T @ unitary, np.eye(modes), atol=1e-12):
        raise ValueError("matrix is not unitary within 1e-12")
    n_tot = state.total_photon_max()
    if n_tot > max_photons:
        raise ResourceLimitError(
            "total photon number %d exceeds the brute-force budget %d"
            % (n_tot, max_photons)
        )

    shape = (max(state.cutoff, n_tot) + 1,) * modes
    check_dense_size(shape)
    out = np.zeros(shape, dtype=complex)
    for key in map(tuple, np.argwhere(state.amps).tolist()):
        psi = np.zeros(shape, dtype=complex)
        psi[(0,) * modes] = state.amps[key] / math.sqrt(math.prod(map(math.factorial, key)))
        for mode, n in enumerate(key):
            for _ in range(n):
                psi = _create(psi, unitary[:, mode])
        out += psi

    out[np.abs(out) <= 1e-16] = 0.0
    top = int(np.argwhere(out).max(initial=0))
    return PureState(out).with_cutoff(max(state.cutoff, top))


def _canonical_branch(state: PureState):
    """The normalized, phase-fixed branch and the key that merges proportional ones.

    The key is the branch rounded to 10 decimals; adding 0.0 turns -0.0 into
    0.0, so that rounding noise around zero cannot split equal branches.
    """
    st = normalize(state)
    phase = st.amps[tuple(np.argwhere(st.amps)[0])]
    fixed = st.amps / (phase / abs(phase))
    return (np.round(fixed, 10) + 0.0).tobytes(), PureState(fixed)


def apply_amplitude_damping(state, eta: float) -> MixedState:
    """Photon loss with probability `eta` per photon, independently per mode.

    Kraus branches are enumerated over per-mode loss counts k: the branch
    moves the amplitude of n to n - k, scaled by
    sqrt(PROD_m C(n_m, k_m) eta^k_m (1-eta)^(n_m-k_m)).  Branches lighter
    than 1e-15 are dropped and proportional branches are merged, so e.g. a
    single-photon superposition damps to an exact rank-2 mixture.
    """
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError("loss parameter must lie in [0, 1]")
    branches_in = as_ensemble(state)
    if eta == 0.0:
        return MixedState(tuple((w, st) for w, st in branches_in))

    keep = 1.0 - eta
    merged = {}

    for w_in, pure in branches_in:
        dim = pure.cutoff + 1
        max_loss = np.argwhere(pure.amps).max(axis=0, initial=0).tolist()
        for loss_vec in itertools.product(*(range(k + 1) for k in max_loss)):
            factor = np.ones(())
            for k in loss_vec:
                factor = np.multiply.outer(factor, [
                    math.comb(n, k) * (eta**k) * (keep ** (n - k)) for n in range(k, dim)
                ])
            amps = np.zeros_like(pure.amps)
            amps[tuple(slice(dim - k) for k in loss_vec)] = (
                pure.amps[tuple(slice(k, None) for k in loss_vec)] * np.sqrt(factor)
            )
            branch = PureState(amps)
            weight = w_in * branch.norm_sq()
            if weight < 1e-15:
                continue
            key, canonical = _canonical_branch(branch)
            merged[key] = (merged.get(key, (0.0, None))[0] + weight, canonical)

    total = sum(w for w, _ in merged.values())
    out = tuple(
        (w / total, st) for w, st in sorted(merged.values(), key=lambda p: -p[0])
    )
    return MixedState(out)


def parity_expectation(state) -> float:
    """<(-1)^(total photon number)>; always in [-1, 1]."""
    return sum(
        w * float(np.sum(np.where(total_photons(st.amps.shape) % 2, -1.0, 1.0)
                         * np.abs(st.amps) ** 2))
        for w, st in as_ensemble(state)
    )
