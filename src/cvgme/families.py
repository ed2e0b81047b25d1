"""Closed-form state families and their analytic phase-space formulas.

Every family here carries some subset of:

* an exact Fock expansion (the brute-force reference path),
* a Wigner function on the diagonal slice alpha*(1,...,1), with loss,
* a characteristic/hybrid-expectation entry used by the settings-matrix
  witnesses,
* a smoothed (centre-of-mass, kernel-convolved) Wigner function,
* a closed-form absolute slice volume.

The closed forms are the production path; the Fock expansion exists so that
tests can check every formula against an independent brute-force evaluation.
Loss is handled analytically for the W and cat families (a damped cat is an
exact rank-2 mixture of smaller cats; a damped single-photon W state is an
exact mixture with the vacuum), never by Kraus enumeration at large M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import permutations

import numpy as np
from scipy.special import eval_genlaguerre

from .fock_core import (
    MixedState,
    PureState,
    check_dense_size,
    coherent_state,
    normalize,
    vacuum,
)

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)
_SQ6 = math.sqrt(6.0)
_SQ23 = math.sqrt(23.0)

# Smoothed centre-of-mass Wigner values at the origin for the two fixed
# asymmetric superposition states, with single-photon ancilla kernels.
# Exact radicals confirmed against the brute-force path.
PSI4_SMOOTHED_AT_ORIGIN = -2.0 * (11.0 * _SQ6 - 4.0) / (81.0 * math.pi)
PSI5_SMOOTHED_AT_ORIGIN = -(139.0 * _SQ3 - 144.0) / (512.0 * math.pi)

_KNOWN_TAGS = ("w", "cat", "dicke2", "noon3", "psi1", "psi2", "psi4", "psi5")

# Amplitude tables for the two three-mode asymmetric states.  Keys are
# occupation tuples; values exact up to floating point.
_PSI1_AMPS = {
    (1, 0, 0): (3 + _SQ23) / (8 * _SQ6),
    (0, 1, 0): (3 + _SQ23) / (8 * _SQ6),
    (0, 0, 1): (3 + _SQ23) / (8 * _SQ6),
    (1, 1, 0): 0.25,
    (1, 0, 1): 0.25,
    (0, 1, 1): (_SQ23 - 1) / 8,
    (2, 0, 0): (_SQ23 - 1) / (8 * _SQ2),
    (0, 2, 0): 1 / (4 * _SQ2),
    (0, 0, 2): 1 / (4 * _SQ2),
}

_PSI2_AMPS = {
    (3, 0, 0): 1 / (3 * _SQ2),
    (1, 1, 0): 1 / _SQ6,
    (1, 0, 1): 1 / _SQ6,
    (0, 1, 1): 1 / _SQ6,
    (1, 2, 0): -1 / (2 * _SQ6),
    (1, 0, 2): -1 / (2 * _SQ6),
    (2, 0, 0): 1 / (2 * _SQ3),
    (0, 2, 0): 1 / (2 * _SQ3),
    (0, 0, 2): 1 / (2 * _SQ3),
    (0, 1, 2): 1 / (2 * _SQ6),
    (0, 2, 1): 1 / (2 * _SQ6),
    (0, 3, 0): -1 / (6 * _SQ2),
    (0, 0, 3): -1 / (6 * _SQ2),
}

# psi4 and psi5 weigh their two permutation orbits equally, each orbit a
# uniform superposition of the distinct permutations of these occupations
_PSI45_ORBITS = {
    "psi4": ((2, 1, 0, 0), (1, 1, 1, 0)),
    "psi5": ((2, 1, 1, 0, 0), (1, 1, 1, 1, 0)),
}


@dataclass(frozen=True)
class FamilySpec:
    """Tagged description of one closed-form family member."""

    tag: str
    modes: int
    eta: float = 0.0
    gamma: complex = 0j
    n_photons: int = 0

    def __post_init__(self):
        if self.tag not in _KNOWN_TAGS:
            raise ValueError("unknown family tag %r" % self.tag)
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("loss parameter must lie in [0, 1]")
        if self.eta > 0 and self.tag not in ("w", "cat"):
            raise ValueError("loss is only modelled for the w and cat families")
        if self.tag in ("w", "cat") and self.modes < 1:
            raise ValueError("mode count must be >= 1")
        if self.tag == "dicke2" and self.modes < 2:
            raise ValueError("two-excitation symmetric states need >= 2 modes")
        if self.tag == "noon3":
            if self.modes != 3:
                raise ValueError("the N00N family here is three-mode")
            if self.n_photons < 1:
                raise ValueError("photon number must be >= 1")
        if self.tag in ("psi1", "psi2") and self.modes != 3:
            raise ValueError("%s is a three-mode state" % self.tag)
        if self.tag == "psi4" and self.modes != 4:
            raise ValueError("psi4 is a four-mode state")
        if self.tag == "psi5" and self.modes != 5:
            raise ValueError("psi5 is a five-mode state")

    def label(self) -> str:
        if self.tag == "w":
            s = "w:M=%d" % self.modes
            if self.eta:
                s += ",eta=%g" % self.eta
            return s
        if self.tag == "cat":
            g = self.gamma
            gtxt = "%g" % g.real if g.imag == 0 else repr(g)[1:-1]
            s = "cat:M=%d,gamma=%s" % (self.modes, gtxt)
            if self.eta:
                s += ",eta=%g" % self.eta
            return s
        if self.tag == "dicke2":
            return "dicke2:M=%d" % self.modes
        if self.tag == "noon3":
            return "noon3:N=%d" % self.n_photons
        return self.tag


def w_family(modes: int, eta: float = 0.0) -> FamilySpec:
    """Single excitation shared symmetrically over `modes` modes."""
    return FamilySpec("w", modes, eta=eta)


def cat_family(modes: int, gamma, eta: float = 0.0) -> FamilySpec:
    """Even superposition of |gamma>^M and |-gamma>^M."""
    return FamilySpec("cat", modes, eta=eta, gamma=complex(gamma))


def dicke2_family(modes: int) -> FamilySpec:
    """Two excitations shared symmetrically."""
    return FamilySpec("dicke2", modes)


def noon3_family(n_photons: int) -> FamilySpec:
    """(|N00> + |0N0> + |00N>)/sqrt(3)."""
    return FamilySpec("noon3", 3, n_photons=n_photons)


def psi_family(which: str) -> FamilySpec:
    modes = {"psi1": 3, "psi2": 3, "psi4": 4, "psi5": 5}[which]
    return FamilySpec(which, modes)


def parse_family(text: str) -> FamilySpec:
    """Parse CLI family strings like "w:M=3,eta=0.1" or "psi1"."""
    head, _, rest = text.strip().partition(":")
    tag = head.strip().lower()
    kwargs = {}
    if rest:
        for part in rest.split(","):
            key, sep, val = part.partition("=")
            if not sep:
                raise ValueError("malformed family parameter %r" % part)
            kwargs[key.strip().lower()] = val.strip()
    try:
        if tag == "w":
            spec = w_family(int(kwargs.pop("m", 3)), float(kwargs.pop("eta", 0.0)))
        elif tag == "cat":
            spec = cat_family(
                int(kwargs.pop("m", 3)),
                complex(kwargs.pop("gamma", "1")),
                float(kwargs.pop("eta", 0.0)),
            )
        elif tag == "dicke2":
            spec = dicke2_family(int(kwargs.pop("m", 3)))
        elif tag == "noon3":
            spec = noon3_family(int(kwargs.pop("n", 3)))
        elif tag in ("psi1", "psi2", "psi4", "psi5"):
            spec = psi_family(tag)
        else:
            raise ValueError("unknown family tag %r" % tag)
    except (TypeError, ValueError) as exc:
        raise ValueError("cannot parse family %r: %s" % (text, exc)) from None
    if kwargs:
        raise ValueError(
            "unrecognized parameters %s for family %r" % (sorted(kwargs), tag)
        )
    return spec


@dataclass(frozen=True)
class KernelSpec:
    """Ancilla states whose characteristic functions build the kernel matrix.

    `ancillas` is a tuple with one entry per auxiliary mode, each of the form
    ('vacuum',), ('fock', n) or ('squeezed', s).  For an M-mode system the
    witness that consumes this expects exactly M-2 entries.
    """

    ancillas: tuple

    def __post_init__(self):
        checked = []
        for anc in self.ancillas:
            kind = anc[0]
            if kind == "vacuum":
                checked.append(("vacuum",))
            elif kind == "fock":
                n = int(anc[1])
                if n < 0:
                    raise ValueError("negative Fock index in kernel")
                checked.append(("fock", n))
            elif kind == "squeezed":
                s = float(anc[1])
                if s <= 0:
                    raise ValueError("squeezing parameter must be positive")
                checked.append(("squeezed", s))
            else:
                raise ValueError("unknown ancilla kind %r" % (kind,))
        object.__setattr__(self, "ancillas", tuple(checked))

    def label(self) -> str:
        return "+".join(
            a[0] if a[0] == "vacuum" else "%s(%g)" % (a[0], a[1])
            for a in self.ancillas
        )


def vacuum_kernel(count: int) -> KernelSpec:
    return KernelSpec((("vacuum",),) * count)


def fock_kernel(count: int, n: int) -> KernelSpec:
    return KernelSpec((("fock", n),) * count)


def squeezed_kernel(count: int, s: float) -> KernelSpec:
    return KernelSpec((("squeezed", s),) * count)


def _distinct_permutations(occ):
    return sorted(set(permutations(occ)))


def coherent_tail_cutoff(gamma: complex, tol: float = 1e-14) -> int:
    """Smallest cutoff with sum_{n>cutoff} |gamma|^{2n}/n! below `tol`."""
    x = abs(gamma) ** 2
    if x == 0.0:
        return 0
    total = math.exp(x)
    partial = 1.0
    term = 1.0
    n = 0
    while total - partial > tol and n < 500:
        n += 1
        term *= x / n
        partial += term
    return n


def _cat_pure(modes: int, gamma: complex, sign: int, cutoff: int) -> PureState:
    """Normalized |gamma>^M + sign * |-gamma>^M."""
    check_dense_size((cutoff + 1,) * modes)
    plus = coherent_state(gamma, cutoff).amps
    minus = coherent_state(-gamma, cutoff).amps
    amps = reduce(np.multiply.outer, [plus] * modes) + sign * reduce(
        np.multiply.outer, [minus] * modes
    )
    return normalize(PureState(amps))


def _table_state(modes: int, table, cutoff: int | None) -> PureState:
    """The state with amplitude `amp` at occupation `occ` for each (occ, amp) in `table`.

    Its cutoff is the highest occupied level unless `cutoff` is given.
    """
    top = max(max(occ) for occ, _ in table)
    check_dense_size((top + 1,) * modes)
    amps = np.zeros((top + 1,) * modes, dtype=complex)
    for occ, amp in table:
        amps[occ] = amp
    state = PureState(amps)
    return state if cutoff is None else state.with_cutoff(cutoff)


def _single_occupations(modes: int, n: int):
    """n photons in one mode and none elsewhere, for each of the modes."""
    return [tuple(n if j == m else 0 for j in range(modes)) for m in range(modes)]


def family_fock_expansion(spec: FamilySpec, cutoff: int | None = None):
    """Exact truncated-Fock representation of the family member.

    Returns a PureState for lossless members and a MixedState otherwise.
    Photon-number eigenstates are exact; cat states carry a coherent tail
    below 1e-14 at the default cutoff; the other families default to their
    highest occupied level.
    """
    tag = spec.tag
    m = spec.modes
    if tag == "w":
        amp = 1.0 / math.sqrt(m)
        pure = _table_state(m, [(occ, amp) for occ in _single_occupations(m, 1)], cutoff)
        if spec.eta == 0.0:
            return pure
        return MixedState(((1.0 - spec.eta, pure), (spec.eta, vacuum(m, pure.cutoff))))

    if tag == "dicke2":
        amp = math.sqrt(2.0 / (m * (m - 1)))
        pairs = [tuple(1 if j in (a, b) else 0 for j in range(m))
                 for a in range(m) for b in range(a + 1, m)]
        return _table_state(m, [(occ, amp) for occ in pairs], cutoff)

    if tag == "noon3":
        return _table_state(
            3, [(occ, 1.0 / _SQ3) for occ in _single_occupations(3, spec.n_photons)], cutoff
        )

    if tag in ("psi1", "psi2"):
        return _table_state(3, (_PSI1_AMPS if tag == "psi1" else _PSI2_AMPS).items(), cutoff)

    if tag in ("psi4", "psi5"):
        table = []
        for occ in _PSI45_ORBITS[tag]:
            perms = _distinct_permutations(occ)
            table += [(key, 1.0 / math.sqrt(2.0 * len(perms))) for key in perms]
        return _table_state(m, table, cutoff)

    if tag == "cat":
        gamma = spec.gamma
        if gamma == 0:
            raise ValueError("cat family needs a nonzero coherent amplitude")
        if cutoff is None:
            cutoff = coherent_tail_cutoff(gamma)
        if spec.eta == 0.0:
            return _cat_pure(m, gamma, +1, cutoff)
        # exact rank-2 decomposition of the damped cat
        g = math.sqrt(1.0 - spec.eta) * gamma
        c = math.exp(-2.0 * m * spec.eta * abs(gamma) ** 2)
        n_plus_in = 2.0 * (1.0 + math.exp(-2.0 * m * abs(gamma) ** 2))
        exp_g = math.exp(-2.0 * m * abs(g) ** 2)
        w_plus = 2.0 * (1.0 + exp_g) * (1.0 + c) / (2.0 * n_plus_in)
        w_minus = 2.0 * (1.0 - exp_g) * (1.0 - c) / (2.0 * n_plus_in)
        branches = []
        if w_plus > 1e-15:
            branches.append((w_plus, _cat_pure(m, g, +1, cutoff)))
        if w_minus > 1e-15:
            branches.append((w_minus, _cat_pure(m, g, -1, cutoff)))
        total = sum(w for w, _ in branches)
        return MixedState(tuple((w / total, st) for w, st in branches))

    raise ValueError("no Fock expansion for family %r" % tag)


# not called in src, but perfbench/tracing.py patches this name
def family_wigner_slice(spec: FamilySpec, alpha):
    """Wigner function on the diagonal slice alpha*(1,...,1).

    Vectorized over `alpha` (complex scalar or ndarray).  Supported for the
    w, cat, dicke2, psi1 and psi2 families; others have no closed slice form.
    """
    alpha = np.asarray(alpha, dtype=complex)
    out = family_wigner_slice_xy(spec, alpha.real, alpha.imag)
    if out.ndim == 0:
        return float(out)
    return out


def family_wigner_slice_xy(spec: FamilySpec, x, y) -> np.ndarray:
    """The slice Wigner function at alpha = x + iy, for real x, y that broadcast.

    When x and y differ in shape (a lattice: x a column, y a row), every
    exponential and trigonometric factor is split into an x part times a y
    part, so the transcendental work is O(rows + columns) and the plane is
    filled by products alone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    split = x.shape != y.shape
    u = x * x + y * y
    m = spec.modes
    scale = (2.0 / math.pi) ** m

    def gauss(c, x0=0.0, y0=0.0):
        # exp(-c |alpha - (x0 + i y0)|^2)
        if split:
            return np.exp(-c * (x - x0) ** 2) * np.exp(-c * (y - y0) ** 2)
        if x0 == 0.0 and y0 == 0.0:
            return np.exp(-c * u)
        return np.exp(-c * ((x - x0) ** 2 + (y - y0) ** 2))

    def cos_diff(a, b):
        # cos(a - b) for a on the y axis and b on the x axis
        if split:
            return np.cos(a) * np.cos(b) + np.sin(a) * np.sin(b)
        return np.cos(a - b)

    if spec.tag in ("w", "dicke2", "psi2"):
        if spec.tag == "w":
            poly = (1.0 - spec.eta) * 4.0 * m * u + 2.0 * spec.eta - 1.0
            return scale * gauss(2.0 * m) * poly
        if spec.tag == "dicke2":
            return scale * gauss(2.0 * m) * (1.0 + 8.0 * (m - 1) * u * (m * u - 1.0))
        return 4.0 / math.pi**3 * gauss(6.0) * (1.0 - 30.0 * u + 108.0 * u**2)
    if spec.tag == "cat":
        gamma = spec.gamma
        g = math.sqrt(1.0 - spec.eta) * gamma
        c = math.exp(-2.0 * m * spec.eta * abs(gamma) ** 2)
        n_plus = 2.0 * (1.0 + math.exp(-2.0 * m * abs(gamma) ** 2))
        # cos(4M Im(alpha conj g)) with Im(alpha conj g) = y Re g - x Im g
        fringe = cos_diff(4.0 * m * g.real * y, 4.0 * m * g.imag * x)
        return (scale / n_plus) * (
            gauss(2.0 * m, g.real, g.imag)
            + gauss(2.0 * m, -g.real, -g.imag)
            + 2.0 * c * gauss(2.0 * m) * fringe
        )
    if spec.tag == "psi1":
        a = 16.0 + 3.0 * _SQ23
        return (
            gauss(6.0)
            / (16.0 * math.pi**3)
            * (
                a * (12.0 * u - 1.0) ** 2
                + 8.0 * _SQ6 * x * a * (6.0 * u - 1.0)
                + 48.0
                - 15.0 * _SQ23
            )
        )
    raise ValueError("no closed slice form for family %r" % spec.tag)


def slice_symmetries(spec: FamilySpec) -> dict:
    """The reflections that leave the closed slice form unchanged.

    ``point_even``: W(-alpha) = W(alpha); ``conj_even``: W(conj alpha) =
    W(alpha).  The radial w, dicke2 and psi2 slices have both; psi1 is odd
    in Re alpha; the cat swaps its two Gaussians under alpha -> -alpha and is
    even under conjugation only for real gamma.
    """
    if spec.tag not in ("w", "dicke2", "psi2", "psi1", "cat"):
        raise ValueError("no closed slice form for family %r" % spec.tag)
    return {
        "point_even": spec.tag != "psi1",
        "conj_even": spec.tag != "cat" or spec.gamma.imag == 0.0,
    }


def slice_abs_envelope(spec: FamilySpec):
    """A radial upper bound rho -> max_{|alpha|=rho} |W(alpha)|.

    Used to pick integration radii with provably small truncated tails.
    """
    m = spec.modes
    scale = (2.0 / math.pi) ** m
    if spec.tag == "w":
        eta = spec.eta

        def env(rho):
            u = np.asarray(rho) ** 2
            return scale * np.exp(-2 * m * u) * ((1 - eta) * 4 * m * u + 1.0)

    elif spec.tag == "dicke2":

        def env(rho):
            u = np.asarray(rho) ** 2
            return scale * np.exp(-2 * m * u) * (1 + 8 * (m - 1) * u * (m * u + 1))

    elif spec.tag == "cat":
        g = abs(math.sqrt(1.0 - spec.eta) * spec.gamma)
        n_plus = 2.0 * (1.0 + math.exp(-2.0 * m * abs(spec.gamma) ** 2))

        def env(rho):
            rho = np.asarray(rho, dtype=float)
            return (scale / n_plus) * (
                np.exp(-2 * m * (rho - g) ** 2)
                + np.exp(-2 * m * (rho + g) ** 2)
                + 2 * np.exp(-2 * m * rho * rho)
            )

    elif spec.tag == "psi1":
        a = 16.0 + 3.0 * _SQ23

        def env(rho):
            rho = np.asarray(rho, dtype=float)
            u = rho * rho
            return (
                np.exp(-6 * u)
                / (16 * math.pi**3)
                * (
                    a * (12 * u + 1) ** 2
                    + 8 * _SQ6 * rho * a * (6 * u + 1)
                    + abs(48 - 15 * _SQ23)
                )
            )

    elif spec.tag == "psi2":

        def env(rho):
            u = np.asarray(rho) ** 2
            return 4 * np.exp(-6 * u) / math.pi**3 * (1 + 30 * u + 108 * u * u)

    else:
        raise ValueError("no slice envelope for family %r" % spec.tag)
    return env


def family_c_entry(spec: FamilySpec, xi):
    """Settings-matrix entry function (before the 1/N normalization).

    For the hybrid-readout witness this is the expectation of the negative
    multiport parity combined with an equal displacement of every mode; for
    the slice characteristic function used by the kernel witness the same
    closed form applies to these parity-symmetric families.  Vectorized in
    `xi`.
    """
    xi = np.asarray(xi, dtype=complex)
    u = np.abs(xi) ** 2
    m = spec.modes
    if spec.tag == "w":
        out = np.exp(-0.5 * m * u) * (1.0 - m * (1.0 - spec.eta) * u)
    elif spec.tag == "cat":
        gamma = spec.gamma
        root = math.sqrt(1.0 - spec.eta)
        e2 = math.exp(-2.0 * m * abs(gamma) ** 2)
        pref = 1.0 / (1.0 + e2)
        cross = xi * np.conj(gamma)
        z = 2.0 * m * root * cross.real
        with np.errstate(over="ignore", invalid="ignore"):
            out = (
                pref
                * np.exp(-0.5 * m * u)
                * (np.cos(2.0 * m * root * cross.imag) + e2 * np.cosh(z))
            )
        if not np.isfinite(out).all():
            # far out exp(-Mu/2) underflows where cosh(z) overflows: take the
            # cosh term in log space, where its exponents are <= 0
            damp = -0.5 * m * u - 2.0 * m * abs(gamma) ** 2
            far = pref * (
                np.exp(-0.5 * m * u) * np.cos(2.0 * m * root * cross.imag)
                + 0.5 * (np.exp(damp + z) + np.exp(damp - z))
            )
            out = np.where(np.isfinite(out), out, far)
    else:
        raise ValueError("no settings-matrix entry for family %r" % spec.tag)
    if out.ndim == 0:
        return float(out)
    return out


def kernel_c_entry(kernel: KernelSpec, xi):
    """Product of ancilla characteristic functions at `xi` (vectorized)."""
    xi = np.asarray(xi, dtype=complex)
    u = np.abs(xi) ** 2
    out = np.ones_like(u)
    for anc in kernel.ancillas:
        if anc[0] == "vacuum":
            out = out * np.exp(-0.5 * u)
        elif anc[0] == "fock":
            out = out * np.exp(-0.5 * u) * eval_genlaguerre(anc[1], 0, u)
        else:  # squeezed
            s = anc[1]
            out = out * np.exp(
                -0.5 * (s * xi.real) ** 2 - 0.5 * (xi.imag / s) ** 2
            )
    if out.ndim == 0:
        return float(out)
    return out


def _kernel_is_all(kernel: KernelSpec, kind: str, n: int | None = None) -> bool:
    for anc in kernel.ancillas:
        if kind == "vacuum":
            if anc == ("vacuum",) or anc == ("fock", 0):
                continue
            return False
        if anc[0] != kind or (n is not None and anc[1] != n):
            return False
    return True


def family_smoothed_wigner(spec: FamilySpec, kernel: KernelSpec, alpha):
    """Tabulated closed forms of the kernel-smoothed centre-of-mass Wigner.

    Raises ValueError for pairs without a closed form; the brute-force
    witness evaluator covers those (at small sizes).
    """
    if len(kernel.ancillas) != spec.modes - 2:
        raise ValueError(
            "kernel lists %d ancillas, need M-2 = %d"
            % (len(kernel.ancillas), spec.modes - 2)
        )
    alpha = np.asarray(alpha, dtype=complex)
    u = np.abs(alpha) ** 2
    m = spec.modes

    out = None
    if spec.tag == "w" and _kernel_is_all(kernel, "vacuum"):
        out = (
            (2.0 / (math.pi * (m - 1)))
            * np.exp(-m * u / (m - 1))
            * ((m * m / (m - 1)) * (1.0 - spec.eta) * u + m * spec.eta - 1.0)
        )
    elif spec.tag == "dicke2" and m == 3:
        if _kernel_is_all(kernel, "fock", 1):
            out = (
                np.exp(-1.5 * u)
                / (32.0 * math.pi)
                * (81.0 * u**3 - 234.0 * u**2 + 216.0 * u - 16.0)
            )
        elif _kernel_is_all(kernel, "vacuum"):
            out = (
                np.exp(-1.5 * u)
                / (24.0 * math.pi)
                * (8.0 + (9.0 * u - 4.0) ** 2)
            )
    elif spec.tag == "psi1" and _kernel_is_all(kernel, "vacuum"):
        a = 16.0 + 3.0 * _SQ23
        out = (
            np.exp(-1.5 * u)
            / (1024.0 * math.pi)
            * (
                896.0
                - 216.0 * _SQ23
                + 81.0 * u**2 * a
                + 12.0 * _SQ2 * alpha.real * a * (9.0 * u - 4.0)
            )
        )
    elif spec.tag == "psi2" and _kernel_is_all(kernel, "vacuum"):
        out = (
            np.exp(-1.5 * u)
            / (64.0 * math.pi)
            * (243.0 * u**2 - 144.0 * u + 8.0)
        )
    elif spec.tag in ("psi4", "psi5") and _kernel_is_all(kernel, "fock", 1):
        if np.any(alpha != 0):
            raise ValueError(
                "smoothed form for %s is tabulated at the origin only" % spec.tag
            )
        const = (
            PSI4_SMOOTHED_AT_ORIGIN if spec.tag == "psi4" else PSI5_SMOOTHED_AT_ORIGIN
        )
        out = np.full_like(u, const)
    elif spec.tag == "noon3":
        if np.any(alpha != 0):
            raise ValueError("N00N smoothed forms are tabulated at the origin only")
        n = spec.n_photons
        if _kernel_is_all(kernel, "vacuum"):
            val = (-1.0) ** n * (2.0 + (-1.0) ** n) / (2.0 ** (n - 1) * math.pi)
        elif _kernel_is_all(kernel, "fock", 1):
            val = -(2.0 * (-1.0) ** n * (n - 1) - (n + 1)) / (2.0**n * math.pi)
        else:
            val = None
        if val is not None:
            out = np.full_like(u, val)

    if out is None:
        raise ValueError(
            "no tabulated smoothed form for family %r with kernel %s; "
            "use the brute-force witness evaluator" % (spec.tag, kernel.label())
        )
    if out.ndim == 0:
        return float(out)
    return out


def family_com_wigner(spec: FamilySpec, beta):
    """Single-mode Wigner of the centre-of-mass reduction (vectorized).

    Only the (possibly lossy) W family is tabulated: its reduction is the
    matching mixture of a single photon with the vacuum.
    """
    if spec.tag != "w":
        raise ValueError("centre-of-mass reduction tabulated for the w family only")
    beta = np.asarray(beta, dtype=complex)
    u = np.abs(beta) ** 2
    out = (2.0 / math.pi) * np.exp(-2.0 * u) * (
        (1.0 - spec.eta) * (4.0 * u - 1.0) + spec.eta
    )
    if out.ndim == 0:
        return float(out)
    return out


def v2d_closed_form(spec: FamilySpec) -> float:
    """Closed-form absolute slice volume (lossless w and dicke2 only)."""
    m = spec.modes
    if spec.tag == "w" and spec.eta == 0.0:
        return 4.0 / (m * math.sqrt(math.e)) - 1.0 / m
    if spec.tag == "dicke2":
        arg = math.sqrt((m - 2.0) / (2.0 * (m - 1.0)))
        return (
            1.0 / m
            - (16.0 * (m - 1.0) / (math.e * m * m)) * math.sinh(arg)
            + (8.0 * math.sqrt(2.0 * (m - 2.0) * (m - 1.0)) / (math.e * m * m))
            * math.cosh(arg)
        )
    raise ValueError(
        "no closed-form volume for %r; integrate the slice numerically"
        % spec.label()
    )


def family_energy(spec: FamilySpec) -> float:
    """Mean total photon number (an exact energy bound for grid error terms)."""
    if spec.tag == "w":
        return 1.0 - spec.eta
    if spec.tag == "cat":
        x = spec.modes * abs(spec.gamma) ** 2
        return (1.0 - spec.eta) * x * math.tanh(x)
    if spec.tag == "dicke2":
        return 2.0
    if spec.tag == "noon3":
        return float(spec.n_photons)
    if spec.tag == "psi1":
        w1 = (16.0 + 3.0 * _SQ23) / 64.0
        return w1 + 2.0 * (1.0 - w1)
    if spec.tag == "psi2":
        return 2.0 * 0.75 + 3.0 * 0.25
    if spec.tag == "psi4":
        return 3.0
    if spec.tag == "psi5":
        return 4.0
    raise ValueError("unknown family %r" % spec.tag)
