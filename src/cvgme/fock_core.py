"""Truncated multimode Fock-space states.

A pure state is a dense complex array of shape (cutoff+1,)*M: entry
[n1, ..., nM] is the amplitude of |n1 ... nM>.  The state families build
these arrays directly, and the brute-force oracle (`gaussian_ops`,
`phase_space`, the collective-parity witness) computes on them with whole
single-mode matrices.  An array above MAX_DENSE_ENTRIES entries is refused
before it is allocated.

Mixed states are stored as weighted ensembles of pure states rather than
density matrices; every mixture needed here (loss channels on small
superpositions) has very low rank.

Each state carries its own cutoff.  Products and mixtures zero-pad their
factors and branches to the largest cutoff among them, which is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ceiling on the complex entries of one dense oracle tensor (32 MiB)
MAX_DENSE_ENTRIES = 1 << 21


class NullStateError(ValueError):
    """Raised when an operation receives a state with no amplitude weight."""


class DimensionError(ValueError):
    """Raised on mode-count mismatches and on levels a cutoff cannot hold."""


class ResourceLimitError(RuntimeError):
    """Raised when a brute-force computation would exceed its size budget."""


def check_dense_size(shape, max_entries: int = MAX_DENSE_ENTRIES) -> None:
    """Refuse a dense tensor of `shape` with more than `max_entries` entries."""
    entries = math.prod(shape)
    if entries > max_entries:
        raise ResourceLimitError(
            "a dense tensor of shape %r has %d entries, above the budget %d"
            % (tuple(shape), entries, max_entries)
        )


def total_photons(shape) -> np.ndarray:
    """n1 + ... + nM at every entry of an amplitude array of `shape`."""
    return sum(np.indices(shape, sparse=True))


@dataclass(frozen=True, eq=False)
class PureState:
    """A pure state: `amps[n1, ..., nM]` is the amplitude of |n1 ... nM>.

    `amps` has shape (cutoff+1,)*modes.  The state is not normalized
    automatically; call :func:`normalize` when unit norm matters.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim < 1:
            raise DimensionError("mode count must be >= 1")
        if len(set(amps.shape)) != 1:
            raise DimensionError(
                "amplitude array of shape %r is not (cutoff+1,)*modes" % (amps.shape,)
            )
        if amps.shape[0] < 1:
            raise DimensionError("cutoff must be >= 0")
        object.__setattr__(self, "amps", amps)

    @property
    def modes(self) -> int:
        return self.amps.ndim

    @property
    def cutoff(self) -> int:
        return self.amps.shape[0] - 1

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def total_photon_max(self) -> int:
        """Largest total occupation with a nonzero amplitude (0 for the null state)."""
        return int(np.max(total_photons(self.amps.shape)[self.amps != 0], initial=0))

    def with_cutoff(self, cutoff: int) -> "PureState":
        """The same amplitudes under another per-mode cutoff.

        Growing pads with zeros; shrinking below an occupied level raises.
        """
        if cutoff == self.cutoff:
            return self
        if cutoff < self.cutoff:
            top = int(np.argwhere(self.amps).max(initial=0))
            if top > cutoff:
                raise DimensionError("cannot shrink cutoff below occupied level %d" % top)
            return PureState(self.amps[(slice(cutoff + 1),) * self.modes].copy())
        check_dense_size((cutoff + 1,) * self.modes)
        amps = np.zeros((cutoff + 1,) * self.modes, dtype=complex)
        amps[(slice(self.cutoff + 1),) * self.modes] = self.amps
        return PureState(amps)


@dataclass(frozen=True)
class MixedState:
    """A statistical mixture: list of (weight, PureState) branches.

    Weights must be nonnegative and sum to 1 within 1e-12; branches share the
    same mode count, and each is zero-padded to the largest cutoff among them.
    """

    branches: tuple

    def __post_init__(self):
        branches = tuple((float(w), st) for w, st in self.branches)
        if not branches:
            raise NullStateError("mixture with no branches")
        modes = branches[0][1].modes
        total = 0.0
        for w, st in branches:
            if w < -1e-15:
                raise ValueError("negative branch weight %g" % w)
            if st.modes != modes:
                raise DimensionError("branches disagree on mode count")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError("branch weights sum to %.15g, expected 1" % total)
        cutoff = max(st.cutoff for _, st in branches)
        branches = tuple((w, st.with_cutoff(cutoff)) for w, st in branches)
        object.__setattr__(self, "branches", branches)

    @property
    def modes(self) -> int:
        return self.branches[0][1].modes

    @property
    def cutoff(self) -> int:
        return self.branches[0][1].cutoff


def as_ensemble(state):
    """View any state as a list of (weight, PureState) branches."""
    if isinstance(state, PureState):
        return [(1.0, state)]
    if isinstance(state, MixedState):
        return list(state.branches)
    raise TypeError("expected PureState or MixedState, got %r" % type(state))


def normalize(state: PureState) -> PureState:
    """Scale to unit norm, preserving relative phases.

    Raises NullStateError if every amplitude is zero.
    """
    nrm = state.norm()
    if nrm == 0.0:
        raise NullStateError("null state: cannot normalize a zero amplitude array")
    if abs(nrm - 1.0) < 1e-15:
        return state
    return PureState(state.amps * (1.0 / nrm))


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument.

    Levels above the smaller of the two cutoffs are absent from one state
    and do not contribute.
    """
    if a.modes != b.modes:
        raise DimensionError(
            "mode count mismatch: %d vs %d" % (a.modes, b.modes)
        )
    common = (slice(min(a.cutoff, b.cutoff) + 1),) * a.modes
    return complex(np.vdot(a.amps[common], b.amps[common]))


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; mode count adds, amplitudes multiply, the lower cutoff is padded."""
    cutoff = max(a.cutoff, b.cutoff)
    check_dense_size((cutoff + 1,) * (a.modes + b.modes))
    return PureState(np.multiply.outer(a.with_cutoff(cutoff).amps,
                                       b.with_cutoff(cutoff).amps))


def mean_photon_number(state) -> float:
    """Mean total photon number SUM_m <n_m>."""
    return sum(
        w * float(np.sum(total_photons(st.amps.shape) * np.abs(st.amps) ** 2))
        for w, st in as_ensemble(state)
    )


def fock_state(occupation, cutoff=None) -> PureState:
    """|n1 n2 ... nM> basis state."""
    occ = tuple(int(n) for n in occupation)
    if not occ:
        raise DimensionError("mode count must be >= 1")
    if min(occ) < 0:
        raise ValueError("negative photon count in %r" % (occ,))
    if cutoff is None:
        cutoff = max(occ)
    if max(occ) > cutoff:
        raise DimensionError("occupation %d exceeds cutoff %d in %r" % (max(occ), cutoff, occ))
    shape = (cutoff + 1,) * len(occ)
    check_dense_size(shape)
    amps = np.zeros(shape, dtype=complex)
    amps[occ] = 1.0
    return PureState(amps)


def vacuum(modes: int, cutoff: int = 0) -> PureState:
    return fock_state((0,) * modes, cutoff)


def coherent_state(gamma: complex, cutoff: int) -> PureState:
    """Single-mode coherent state truncated at `cutoff` (not re-normalized).

    The truncation tail is the caller's responsibility; families pick cutoffs
    so the discarded weight is below 1e-14.
    """
    gamma = complex(gamma)
    amps = np.empty(cutoff + 1, dtype=complex)
    amp = complex(math.exp(-0.5 * abs(gamma) ** 2))
    for n in range(cutoff + 1):
        amps[n] = amp
        amp = amp * gamma / math.sqrt(n + 1)
    return PureState(amps)
