"""Exact operations on truncated Fock states.

The oracle works on dense amplitude arrays of shape (cutoff+1,)*M: a state's
occupation map is turned into one by :func:`dense_amplitudes` when an oracle
function is entered, and a single-mode operator acts on it as one
``np.tensordot`` per mode (:func:`apply_mode_matrices`).

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
from scipy.special import gammaln

from .fock_core import (
    DimensionError,
    MixedState,
    PureState,
    as_ensemble,
    normalize,
)

# photon-number ceiling of the brute-force reference path: the multinomial
# expansion of apply_linear_optical and the centre-of-mass moments of
# witness_c grow combinatorially with it
DEFAULT_PHOTON_BUDGET = 8

# ceiling on the complex entries of one dense oracle tensor (32 MiB)
MAX_DENSE_ENTRIES = 1 << 21

TRUNCATION_TOL = 1e-10
NORM_LOSS_LIMIT = 1e-6

# e^(-|beta|^2/2) = <0|D(beta)|0> leaves the normal double range beyond this
MAX_DISPLACEMENT_SQ = -2.0 * math.log(sys.float_info.min)


class ResourceLimitError(RuntimeError):
    """Raised when a brute-force computation would exceed its size budget."""


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
    f[0] = np.exp(0.5 * k * math.log(x) - 0.5 * gammaln(k + 1.0) - 0.5 * x)
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


def dense_amplitudes(state: PureState, max_entries: int = MAX_DENSE_ENTRIES) -> np.ndarray:
    """The amplitudes of `state` as an array of shape (cutoff+1,)*modes.

    Raises ResourceLimitError instead of allocating more than `max_entries`.
    """
    shape = (state.cutoff + 1,) * state.modes
    check_dense_size(shape, max_entries)
    arr = np.zeros(shape, dtype=complex)
    if state.amps:
        arr[tuple(np.array(list(state.amps)).T)] = list(state.amps.values())
    return arr


def check_dense_size(shape, max_entries: int = MAX_DENSE_ENTRIES) -> None:
    """Refuse a dense tensor of `shape` with more than `max_entries` entries."""
    entries = math.prod(shape)
    if entries > max_entries:
        raise ResourceLimitError(
            "a dense tensor of shape %r has %d entries, above the budget %d"
            % (tuple(shape), entries, max_entries)
        )


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
    arr = apply_mode_matrices(dense_amplitudes(state), mats)
    keys = np.argwhere(np.abs(arr) > 1e-16)
    amps = dict(zip(map(tuple, keys.tolist()), arr[tuple(keys.T)].tolist()))

    out = PureState(state.modes, work_cutoff, amps)
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

    out_amps = {}
    for key, amp in state.amps.items():
        # amplitude -> polynomial coefficient on prod (a^dagger)^n |0>
        coeff = amp
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
            if c == 0:
                continue
            # coefficient -> amplitude
            val = c
            for n in occ:
                val *= math.sqrt(math.factorial(n))
            out_amps[occ] = out_amps.get(occ, 0.0) + val

    out_amps = {k: v for k, v in out_amps.items() if abs(v) > 1e-16}
    cutoff = max(state.cutoff, max((max(k) for k in out_amps), default=0))
    return PureState(modes, cutoff, out_amps)


def _canonical_branch(state: PureState):
    """Phase-fixed fingerprint used to merge proportional Kraus branches."""
    st = normalize(state)
    anchor = min(st.amps)
    phase = st.amps[anchor]
    phase /= abs(phase)
    fixed = {k: v / phase for k, v in st.amps.items()}
    fingerprint = tuple(
        sorted(
            (k, round(v.real, 10), round(v.imag, 10))
            for k, v in fixed.items()
            if abs(v) > 1e-12
        )
    )
    return fingerprint, PureState(st.modes, st.cutoff, fixed)


def apply_amplitude_damping(state, eta: float) -> MixedState:
    """Photon loss with probability `eta` per photon, independently per mode.

    Kraus branches are enumerated over per-mode loss counts; branches lighter
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
        modes = pure.modes
        max_loss = tuple(
            max((key[m] for key in pure.amps), default=0) for m in range(modes)
        )
        for loss_vec in _compositions_upto(max_loss):
            amps = {}
            for key, amp in pure.amps.items():
                ok = True
                factor = 1.0
                for n, k in zip(key, loss_vec):
                    if k > n:
                        ok = False
                        break
                    factor *= math.comb(n, k) * (eta**k) * (keep ** (n - k))
                if not ok or factor == 0.0:
                    continue
                new_key = tuple(n - k for n, k in zip(key, loss_vec))
                amps[new_key] = amps.get(new_key, 0.0) + amp * math.sqrt(factor)
            if not amps:
                continue
            branch = PureState(modes, pure.cutoff, amps)
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
    total = 0.0
    for w, st in as_ensemble(state):
        acc = 0.0
        for key, amp in st.amps.items():
            p = amp.real * amp.real + amp.imag * amp.imag
            if sum(key) % 2:
                acc -= p
            else:
                acc += p
        total += w * acc
    return total
