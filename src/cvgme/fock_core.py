"""Truncated multimode Fock-space states.

A state is stored as an occupation map: occupation vectors (tuples of
per-mode photon counts) to complex amplitudes.  The state families build
their truncated-Fock expansions in this form, and it is the exchange format
of the package.  The brute-force oracle (`gaussian_ops`, `phase_space`, the
collective-parity witness) does not compute on the map: on entry it turns
each state into a dense array of shape (cutoff+1,)*M and works with whole
single-mode matrices on that.

Mixed states are stored as weighted ensembles of pure states rather than
density matrices; every mixture needed here (loss channels on small
superpositions) has very low rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class NullStateError(ValueError):
    """Raised when an operation receives a state with no amplitude weight."""


class DimensionError(ValueError):
    """Raised on mode-count or cutoff mismatches between states."""


def _check_key(key, modes, cutoff):
    if len(key) != modes:
        raise DimensionError(
            "occupation vector %r has length %d, expected %d" % (key, len(key), modes)
        )
    for n in key:
        if n < 0:
            raise ValueError("negative photon count in %r" % (key,))
        if n > cutoff:
            raise DimensionError(
                "occupation %d exceeds cutoff %d in %r" % (n, cutoff, key)
            )


@dataclass(frozen=True)
class PureState:
    """A pure state on `modes` bosonic modes with per-mode cutoff `cutoff`.

    `amps` maps occupation tuples to complex amplitudes.  The state is not
    normalized automatically; call :func:`normalize` when unit norm matters.
    """

    modes: int
    cutoff: int
    amps: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.modes < 1:
            raise DimensionError("mode count must be >= 1")
        if self.cutoff < 0:
            raise DimensionError("cutoff must be >= 0")
        clean = {}
        for key, amp in self.amps.items():
            key = tuple(int(n) for n in key)
            _check_key(key, self.modes, self.cutoff)
            if amp != 0:
                clean[key] = complex(amp)
        object.__setattr__(self, "amps", clean)

    def norm_sq(self) -> float:
        return sum((a.real * a.real + a.imag * a.imag) for a in self.amps.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def total_photon_max(self) -> int:
        """Largest total occupation present (0 for the null map)."""
        return max((sum(k) for k in self.amps), default=0)

    def with_cutoff(self, cutoff: int) -> "PureState":
        """Return the same amplitudes under a (>=) per-mode cutoff."""
        if cutoff < self.total_photon_max():
            for key in self.amps:
                if max(key) > cutoff:
                    raise DimensionError(
                        "cannot shrink cutoff below occupied level %d" % max(key)
                    )
        return PureState(self.modes, cutoff, dict(self.amps))


@dataclass(frozen=True)
class MixedState:
    """A statistical mixture: list of (weight, PureState) branches.

    Weights must be nonnegative and sum to 1 within 1e-12; branches share the
    same mode count and cutoff.
    """

    branches: tuple

    def __post_init__(self):
        branches = tuple((float(w), st) for w, st in self.branches)
        if not branches:
            raise NullStateError("mixture with no branches")
        modes = branches[0][1].modes
        cutoff = branches[0][1].cutoff
        total = 0.0
        for w, st in branches:
            if w < -1e-15:
                raise ValueError("negative branch weight %g" % w)
            if st.modes != modes:
                raise DimensionError("branches disagree on mode count")
            if st.cutoff != cutoff:
                raise DimensionError("branches disagree on cutoff")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError("branch weights sum to %.15g, expected 1" % total)
        object.__setattr__(self, "branches", branches)

    @property
    def modes(self) -> int:
        return self.branches[0][1].modes

    @property
    def cutoff(self) -> int:
        return self.branches[0][1].cutoff

    def with_cutoff(self, cutoff: int) -> "MixedState":
        return MixedState(tuple((w, st.with_cutoff(cutoff)) for w, st in self.branches))


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
        raise NullStateError("null state: cannot normalize a zero amplitude map")
    if abs(nrm - 1.0) < 1e-15:
        return state
    scale = 1.0 / nrm
    return PureState(
        state.modes, state.cutoff, {k: a * scale for k, a in state.amps.items()}
    )


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.modes != b.modes:
        raise DimensionError(
            "mode count mismatch: %d vs %d" % (a.modes, b.modes)
        )
    # iterate over the smaller support
    if len(a.amps) > len(b.amps):
        return complex(sum(a.amps[k].conjugate() * v for k, v in b.amps.items()
                           if k in a.amps))
    return complex(sum(v.conjugate() * b.amps[k] for k, v in a.amps.items()
                       if k in b.amps))


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; mode count adds, amplitudes multiply."""
    if a.cutoff != b.cutoff:
        raise DimensionError(
            "cutoff mismatch in tensor: %d vs %d (use with_cutoff to align)"
            % (a.cutoff, b.cutoff)
        )
    amps = {}
    for ka, va in a.amps.items():
        for kb, vb in b.amps.items():
            amps[ka + kb] = va * vb
    return PureState(a.modes + b.modes, a.cutoff, amps)


def mean_photon_number(state) -> float:
    """Mean total photon number SUM_m <n_m>."""
    total = 0.0
    for w, st in as_ensemble(state):
        acc = 0.0
        for key, amp in st.amps.items():
            acc += sum(key) * (amp.real * amp.real + amp.imag * amp.imag)
        total += w * acc
    return total


def fock_state(occupation, cutoff=None) -> PureState:
    """|n1 n2 ... nM> basis state."""
    occ = tuple(int(n) for n in occupation)
    if cutoff is None:
        cutoff = max(occ) if occ else 0
    return PureState(len(occ), cutoff, {occ: 1.0})


def vacuum(modes: int, cutoff: int = 0) -> PureState:
    return fock_state((0,) * modes, cutoff)


def coherent_state(gamma: complex, cutoff: int) -> PureState:
    """Single-mode coherent state truncated at `cutoff` (not re-normalized).

    The truncation tail is the caller's responsibility; families pick cutoffs
    so the discarded weight is below 1e-14.
    """
    gamma = complex(gamma)
    amps = {}
    term = math.exp(-0.5 * abs(gamma) ** 2)
    amp = complex(term)
    for n in range(cutoff + 1):
        if amp != 0:
            amps[(n,)] = amp
        amp = amp * gamma / math.sqrt(n + 1)
    return PureState(1, cutoff, amps)
