"""Pointwise Wigner / characteristic-function evaluation on truncated states.

These are the brute-force reference evaluators.  Both are expectations
<psi|P (x)_m D(xi_m)|psi> on the dense amplitude array of each branch, with P
the identity (characteristic function) or the parity (Wigner function, by
D(alpha) Pi D(-alpha) = Pi D(-2 alpha)).  Because |psi> lies in the truncated
space, only the (cutoff+1) x (cutoff+1) block of each displacement enters,
so both values are exact without any headroom cutoff.  Closed-form families
(see `families`) are the production path; everything here exists so the
closed forms can be cross-checked.

A 2D slice is the set {alpha*y + conj(alpha)*z : alpha in C} for coefficient
vectors y, z with |y_m|^2 - |z_m|^2 = 1 on every mode.  The diagonal slice
y = (1,...,1), z = 0 is the one used by all the state families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock_core import as_ensemble
from .gaussian_ops import apply_mode_matrices, dense_amplitudes, displacement_matrix

# not called here, but perfbench/tracing.py patches these names on this module
from .fock_core import inner_product  # noqa: F401
from .gaussian_ops import apply_displacement, parity_expectation  # noqa: F401


@dataclass(frozen=True)
class SliceSpec:
    """Coefficient vectors y, z of a 2D phase-space slice plus a region.

    `region` is ('disc', center, radius) or ('rect', re_lo, re_hi, im_lo,
    im_hi); it only matters to integration drivers, not to point evaluation.
    """

    y: tuple
    z: tuple
    region: tuple = ("disc", 0j, 3.0)

    def __post_init__(self):
        y = tuple(complex(c) for c in self.y)
        z = tuple(complex(c) for c in self.z)
        if len(y) != len(z):
            raise ValueError("coefficient vectors differ in length")
        for ym, zm in zip(y, z):
            if abs(abs(ym) ** 2 - abs(zm) ** 2 - 1.0) > 1e-12:
                raise ValueError(
                    "slice coefficients must satisfy |y|^2 - |z|^2 = 1 per mode"
                )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def modes(self) -> int:
        return len(self.y)

    def point(self, alpha: complex):
        """The slice point alpha*y + conj(alpha)*z as a length-M array."""
        alpha = complex(alpha)
        return np.array(
            [alpha * ym + alpha.conjugate() * zm for ym, zm in zip(self.y, self.z)]
        )


def diagonal_slice(modes: int, region=("disc", 0j, 3.0)) -> SliceSpec:
    """The slice alpha*(1,...,1) every closed-form family lives on."""
    return SliceSpec((1.0,) * modes, (0.0,) * modes, region)


def phase_point(values, modes=None):
    """Coerce to a length-M complex array of phase-space coordinates."""
    if np.isscalar(values):
        if modes is None:
            modes = 1
        return np.full(modes, complex(values))
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError("phase point must be one-dimensional")
    if modes is not None and arr.size != modes:
        raise ValueError("expected %d coordinates, got %d" % (modes, arr.size))
    return arr


def _expectation(state, mats) -> complex:
    """SUM_w weight_w <psi_w| (x)_m mats[m] |psi_w> over the branches."""
    total = 0.0 + 0.0j
    for w, pure in as_ensemble(state):
        psi = dense_amplitudes(pure)
        total += w * np.vdot(psi, apply_mode_matrices(psi, mats))
    return total


def displaced_parity_expectation(state, alphas) -> float:
    """<Pi(alpha)> = <D(alpha) Pi D(-alpha)> = <Pi D(-2 alpha)>."""
    alphas = phase_point(alphas, getattr(state, "modes", None))
    dim = state.cutoff + 1
    sign = (-1.0) ** np.arange(dim)[:, None]
    mats = [sign * displacement_matrix(-2.0 * a, dim) for a in alphas]
    return float(_expectation(state, mats).real)


def wigner_point(state, alphas) -> float:
    """W(alpha) = (2/pi)^M <Pi(alpha)>."""
    alphas = phase_point(alphas, getattr(state, "modes", None))
    scale = (2.0 / math.pi) ** len(alphas)
    return scale * displaced_parity_expectation(state, alphas)


def characteristic_point(state, xis) -> complex:
    """chi(xi) = <D(xi)>; chi(0) = 1 and chi(-xi) = conj(chi(xi))."""
    xis = phase_point(xis, getattr(state, "modes", None))
    dim = state.cutoff + 1
    return complex(_expectation(state, [displacement_matrix(x, dim) for x in xis]))


def wigner_slice_point(state, slice_spec: SliceSpec, alpha: complex) -> float:
    """Wigner value at the slice point alpha*y + conj(alpha)*z."""
    if slice_spec.modes != state.modes:
        raise ValueError("slice has %d modes, state has %d" % (slice_spec.modes, state.modes))
    return wigner_point(state, slice_spec.point(alpha))
