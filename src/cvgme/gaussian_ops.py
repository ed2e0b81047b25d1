"""Exact operations on truncated Fock states.

A state's amplitudes are a dense array of shape (cutoff+1,)*M (see
`fock_core`), and a single-mode operator acts on it as one ``np.tensordot``
per mode (:func:`apply_mode_matrices`).

Displacements use the whole number-basis matrix <m|D(beta)|n> from
:func:`displacement_matrix`.  Each diagonal m - n = k of that matrix is a
normalized Laguerre function of |beta|^2, built by its three-term recurrence
in n, which never forms the factorial ratios or powers of beta that overflow
or underflow; elements are exact at any truncation, unlike exponentiating a
truncated ladder operator.  Multiport beamsplitters act by multinomial
expansion of creation operators; amplitude damping by per-mode Kraus
branching.

The balanced multiport +/-(I - (2/M)J) implements the parity of the
centre-of-mass mode: conjugation sends a_m to +/-(1-2/M)a_m -/+ (2/M) times
the sum of the others, and the vacuum is left invariant.
"""

from __future__ import annotations

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

# photon-number ceiling of the brute-force reference path: the multinomial
# expansion of apply_linear_optical and the centre-of-mass moments of
# witness_c grow combinatorially with it
DEFAULT_PHOTON_BUDGET = 8

TRUNCATION_TOL = 1e-10
NORM_LOSS_LIMIT = 1e-6

# e^(-|beta|^2/2) = <0|D(beta)|0> leaves the normal double range beyond this
MAX_DISPLACEMENT_SQ = -2.0 * math.log(sys.float_info.min)


class CutoffError(ValueError):
    """Raised when a displacement loses too much norm to truncation."""


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
    k = np.arange(dim, dtype=float)
    f = np.empty((dim, dim))  # f[n, k] = f_n^k(x)
    log_factorial = np.fromiter(map(math.lgamma, range(1, dim + 1)), float, dim)
    f[0] = np.exp(0.5 * k * math.log(x) - 0.5 * log_factorial - 0.5 * x)
    if dim > 1:
        f[1] = f[0] * (1.0 + k - x) / np.sqrt(k + 1.0)
    for n in range(1, dim - 1):
        f[n + 1] = ((2 * n + 1 + k - x) * f[n] - np.sqrt(n * (n + k)) * f[n - 1]) / (
            np.sqrt((n + 1) * (n + k + 1))
        )
    n_idx, k_idx = np.nonzero(np.add.outer(k, k) < dim)  # n + k < dim
    vals = f[n_idx, k_idx]
    phase = np.exp(1j * math.atan2(beta.imag, beta.real) * k)[k_idx]
    out = np.empty((dim, dim), dtype=complex)
    out[n_idx + k_idx, n_idx] = phase * vals
    out[n_idx, n_idx + k_idx] = (-1.0) ** k_idx * phase.conj() * vals
    return out


def displacement_matrix_element(m: int, n: int, beta: complex) -> complex:
    """<m|D(beta)|n> in the number basis."""
    if m < 0 or n < 0:
        raise ValueError("negative Fock index")
    return complex(displacement_matrix(beta, max(m, n) + 1)[m, n])


def apply_mode_matrices(arr: np.ndarray, mats) -> np.ndarray:
    """Apply mats[m] (rows x arr.shape[m]) to axis m of `arr`, for every m."""
    for axis, mat in enumerate(mats):
        arr = np.moveaxis(np.tensordot(mat, arr, axes=(1, axis)), 0, axis)
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


def beamsplitter_matrix(modes: int, sign=1) -> np.ndarray:
    """The balanced multiport +/-(I - (2/M)J), J the all-ones matrix.

    `sign` may be +1/-1 or the strings '+'/'-'.  The result is real
    orthogonal, symmetric, and involutory.
    """
    if isinstance(sign, str):
        if sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        sign = 1 if sign == "+" else -1
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if modes < 2:
        raise DimensionError("multiport needs at least 2 modes")
    mat = np.eye(modes) - (2.0 / modes) * np.ones((modes, modes))
    return sign * mat


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def _linear_power(column: np.ndarray, power: int, modes: int) -> dict:
    """Expand (sum_j column[j] b_j^dagger)^power over occupation tuples.

    Returns occupation tuple -> coefficient of prod_j (b_j^dagger)^{k_j}.
    """
    out = {}
    if power == 0:
        out[(0,) * modes] = 1.0 + 0.0j
        return out
    for comp in _compositions(power, modes):
        coeff = math.factorial(power)
        ok = True
        term = 1.0 + 0.0j
        for j, k in enumerate(comp):
            if k == 0:
                continue
            c = column[j]
            if c == 0:
                ok = False
                break
            coeff /= math.factorial(k)
            term *= c**k
        if ok:
            out[comp] = coeff * term
    return out


def apply_linear_optical(
    unitary: np.ndarray, state: PureState, max_photons: int = DEFAULT_PHOTON_BUDGET
) -> PureState:
    """Apply a linear-optical unitary by multinomial expansion.

    Each creation operator a_m^dagger is rewritten as
    sum_m' U[m', m] a_m'^dagger and the product over occupied modes is
    expanded.  Photon number is conserved exactly.  States above the photon
    budget are refused (cost grows combinatorially); raise the budget
    explicitly for known-slow reference checks.
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

    power_cache = {}

    def powers(mode: int, p: int) -> dict:
        key = (mode, p)
        got = power_cache.get(key)
        if got is None:
            got = _linear_power(unitary[:, mode], p, modes)
            power_cache[key] = got
        return got

    out_cut = max(state.cutoff, n_tot)
    check_dense_size((out_cut + 1,) * modes)
    out = np.zeros((out_cut + 1,) * modes, dtype=complex)
    for key in map(tuple, np.argwhere(state.amps).tolist()):
        # amplitude -> polynomial coefficient on prod (a^dagger)^n |0>
        coeff = state.amps[key]
        for n in key:
            coeff /= math.sqrt(math.factorial(n))
        # product over modes of expanded powers
        acc = {(0,) * modes: coeff}
        for mode, n in enumerate(key):
            if n == 0:
                continue
            factor = powers(mode, n)
            nxt = {}
            for occ_a, ca in acc.items():
                for occ_b, cb in factor.items():
                    occ = tuple(x + y for x, y in zip(occ_a, occ_b))
                    nxt[occ] = nxt.get(occ, 0.0) + ca * cb
            acc = nxt
        for occ, c in acc.items():
            # coefficient -> amplitude
            val = c
            for n in occ:
                val *= math.sqrt(math.factorial(n))
            out[occ] += val

    out[np.abs(out) <= 1e-16] = 0.0
    top = int(np.argwhere(out).max(initial=0))
    return PureState(out).with_cutoff(max(state.cutoff, top))


def _canonical_branch(state: PureState):
    """Phase-fixed fingerprint used to merge proportional Kraus branches."""
    st = normalize(state)
    keys = np.argwhere(st.amps)
    phase = st.amps[tuple(keys[0])]
    phase /= abs(phase)
    fixed = st.amps / phase
    fingerprint = tuple(
        (k, round(v.real, 10), round(v.imag, 10))
        for k, v in zip(map(tuple, keys.tolist()), fixed[tuple(keys.T)].tolist())
        if abs(v) > 1e-12
    )
    return fingerprint, PureState(fixed)


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
        max_loss = tuple(np.argwhere(pure.amps).max(axis=0, initial=0).tolist())
        for loss_vec in _compositions_upto(max_loss):
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
            fingerprint, canonical = _canonical_branch(branch)
            if fingerprint in merged:
                merged[fingerprint] = (merged[fingerprint][0] + weight, canonical)
            else:
                merged[fingerprint] = (weight, canonical)

    total = sum(w for w, _ in merged.values())
    out = tuple(
        (w / total, st) for w, st in sorted(merged.values(), key=lambda p: -p[0])
    )
    return MixedState(out)


def _compositions_upto(bounds):
    """All loss vectors 0 <= k_m <= bounds[m]."""
    if not bounds:
        yield ()
        return
    for first in range(bounds[0] + 1):
        for rest in _compositions_upto(bounds[1:]):
            yield (first,) + rest


def parity_expectation(state) -> float:
    """<(-1)^(total photon number)>; always in [-1, 1]."""
    return sum(
        w * float(np.sum(np.where(total_photons(st.amps.shape) % 2, -1.0, 1.0)
                         * np.abs(st.amps) ** 2))
        for w, st in as_ensemble(state)
    )
