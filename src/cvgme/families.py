"""Closed-form state families and their analytic phase-space formulas.

Each family is one `FamilyRecord` in the `FAMILIES` table: its parameters
(label and CLI keys, converters, defaults, checks) and one field per
capability, any subset of:

* ``fock`` - an exact Fock expansion (the brute-force reference path),
* ``slice_xy``, ``symmetries``, ``envelope`` - the Wigner function on the
  diagonal slice alpha*(1,...,1), with loss, its reflections and a radial
  bound on its magnitude (a `numerics.GaussianEnvelope`, with exact tails),
* ``c_entry`` - a characteristic/hybrid-expectation entry used by the
  settings-matrix witnesses,
* ``smoothed``, ``com_wigner`` - the smoothed (centre-of-mass,
  kernel-convolved) Wigner function, tabulated by kernel, and the
  centre-of-mass Wigner function,
* ``v2d``, ``energy`` - a closed-form absolute slice volume, the mean
  total photon number.

A missing capability is None; the public lookups at the end raise one
ValueError, naming the family and the capability, when asked for it.

The ancillas of witnesses C and E are a `KernelSpec`: one tuple per mode,
such as ('fock', 1), whose kind is an `AncillaKind` record in `ANCILLAS`
(parameter check, characteristic function, truncated-Fock state).  Smoothed
forms exist for uniform kernels only: all ancillas vacuum, or all fock(1).

The closed forms are the production path; the Fock expansion exists so that
tests can check every formula against an independent brute-force evaluation.
Loss is handled analytically for the W and cat families (a damped cat is an
exact rank-2 mixture of smaller cats; a damped single-photon W state is an
exact mixture with the vacuum), never by Kraus enumeration at large M.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property, partial, reduce
from itertools import permutations
from typing import Callable

import numpy as np

from .fock_core import (
    MixedState,
    PureState,
    check_dense_size,
    coherent_state,
    fock_state,
    normalize,
    vacuum,
)
from .numerics import GaussianEnvelope

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)
_SQ6 = math.sqrt(6.0)
_SQ23 = math.sqrt(23.0)

# Smoothed centre-of-mass Wigner values at the origin for the two fixed
# asymmetric superposition states, with single-photon ancilla kernels.
# Exact radicals confirmed against the brute-force path.
PSI4_SMOOTHED_AT_ORIGIN = -2.0 * (11.0 * _SQ6 - 4.0) / (81.0 * math.pi)
PSI5_SMOOTHED_AT_ORIGIN = -(139.0 * _SQ3 - 144.0) / (512.0 * math.pi)

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


@dataclass(frozen=True)
class Param:
    """One family parameter, as written in labels and CLI family strings.

    `key` is matched case-insensitively by `parse_family`; `field` is the
    `FamilySpec` field it sets; `convert` turns the text (or `default`) into
    the value and `text` writes the value back (None leaves it out of the
    label); a value failing `valid` is rejected with the message `rule`.
    """

    key: str
    field: str
    convert: Callable
    default: object
    text: Callable
    valid: Callable
    rule: str


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(key: str, field: str, what: str, least: int) -> Param:
    return Param(key, field, int, 3, lambda v: "%d" % v,
                 lambda v: _is_int(v) and v >= least,
                 "%s must be an integer >= %d" % (what, least))


def _gamma_text(g) -> str:
    # repr() parenthesizes a complex number only when it has a real part
    return "%g" % g.real if g.imag == 0 else repr(complex(g)).strip("()")


_ETA = Param("eta", "eta", float, 0.0, lambda v: "%g" % v if v else None,
             lambda v: 0.0 <= v <= 1.0, "loss parameter must lie in [0, 1]")
_GAMMA = Param("gamma", "gamma", complex, 1, _gamma_text, cmath.isfinite,
               "coherent amplitude must be finite")


@dataclass(frozen=True)
class FamilyRecord:
    """What one state family is: its parameters and its capabilities.

    `modes` is the fixed mode count of a family without an ``M`` parameter.
    Each capability (see the module docstring) is a function of the
    `FamilySpec` first, or None when the family lacks it; `smoothed` maps the
    one ancilla that every ancilla of a kernel is to such a function of
    (spec, alpha, |alpha|^2).
    """

    tag: str
    params: tuple = ()
    modes: int | None = None
    fock: Callable | None = None
    slice_xy: Callable | None = None
    symmetries: Callable | None = None
    envelope: Callable | None = None
    c_entry: Callable | None = None
    smoothed: dict | None = None
    com_wigner: Callable | None = None
    v2d: Callable | None = None
    energy: Callable | None = None


@dataclass(frozen=True)
class FamilySpec:
    """Tagged description of one closed-form family member.

    Construction checks every parameter of the family's record; a field the
    family has no parameter for must keep its default (`modes` the record's
    fixed mode count).
    """

    tag: str
    modes: int
    eta: float = 0.0
    gamma: complex = 0j
    n_photons: int = 0

    def __post_init__(self):
        record = FAMILIES.get(self.tag)
        if record is None:
            raise ValueError("unknown family tag %r" % self.tag)
        free = set()
        for p in record.params:
            value = getattr(self, p.field)
            if not p.valid(value):
                raise ValueError("%s: %s, got %r" % (self.tag, p.rule, value))
            free.add(p.field)
        for f in fields(self)[1:]:  # every field after the tag
            fixed = record.modes if f.name == "modes" else f.default
            if f.name not in free and getattr(self, f.name) != fixed:
                raise ValueError("the %s family fixes %s = %r, got %r"
                                 % (self.tag, f.name, fixed, getattr(self, f.name)))

    def label(self) -> str:
        texts = [(p.key, p.text(getattr(self, p.field)))
                 for p in FAMILIES[self.tag].params]
        args = ",".join("%s=%s" % (key, text) for key, text in texts if text is not None)
        return "%s:%s" % (self.tag, args) if args else self.tag


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
    return FamilySpec(which, FAMILIES[which].modes)


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
        record = FAMILIES.get(tag)
        if record is None:
            raise ValueError("unknown family tag %r" % tag)
        values = {p.field: p.convert(kwargs.pop(p.key.lower(), p.default))
                  for p in record.params}
        spec = FamilySpec(tag, **{"modes": record.modes, **values})
    except (TypeError, ValueError) as exc:
        raise ValueError("cannot parse family %r: %s" % (text, exc)) from None
    if kwargs:
        raise ValueError(
            "unrecognized parameters %s for family %r" % (sorted(kwargs), tag)
        )
    return spec


@dataclass(frozen=True)
class AncillaKind:
    """What one kind of ancilla mode is.

    Its parameter must pass `valid` (None: the kind takes none), or the
    kernel is rejected with the message `rule`; `store(*params)` is the
    ancilla tuple kept.  `chi(out, xi, u, *params)` is `out` times the
    characteristic function at xi, with u = |xi|^2, and `fock(cutoff,
    *params)` the single-mode state at a cutoff of at least `cutoff` (None:
    the kind has no truncated-Fock form).
    """

    name: str
    valid: Callable | None
    rule: str
    store: Callable
    chi: Callable
    fock: Callable | None = None


def _laguerre(n: int, u):
    """L_n(u) for n >= 1, by the forward-difference recurrence of scipy's eval_genlaguerre."""
    d, p = -u, 1.0 - u
    for k in range(1, n):
        d = -u / (k + 1.0) * p + (k / (k + 1.0)) * d
        p = d + p
    return p


# the ancillas that key the smoothed tables (see FamilyRecord)
_VACUUM = ("vacuum",)
_FOCK1 = ("fock", 1)

# the record table: one entry per ancilla kind
ANCILLAS = {kind.name: kind for kind in (
    AncillaKind("vacuum", None, "takes no parameter", lambda: _VACUUM,
                lambda out, xi, u: out * np.exp(-0.5 * u), lambda cutoff: vacuum(1, cutoff)),
    AncillaKind("fock", lambda n: _is_int(n) and n >= 0,
                "the Fock index must be an integer >= 0",
                lambda n: ("fock", int(n)) if n else _VACUUM,  # |0> is the vacuum
                lambda out, xi, u, n: out * np.exp(-0.5 * u) * _laguerre(n, u),
                lambda cutoff, n: fock_state((n,), max(cutoff, n))),
    AncillaKind("squeezed", lambda s: (isinstance(s, numbers.Real) and not isinstance(s, bool)
                                       and 0.0 < s < math.inf),
                "the squeezing must be finite and positive", lambda s: ("squeezed", float(s)),
                lambda out, xi, u, s: out * np.exp(-0.5 * (s * xi.real) ** 2
                                                   - 0.5 * (xi.imag / s) ** 2)),
)}


@dataclass(frozen=True)
class KernelSpec:
    """Ancilla states whose characteristic functions build the kernel matrix.

    `ancillas` is a tuple with one entry per auxiliary mode, each of the form
    ('vacuum',), ('fock', n) or ('squeezed', s) and checked at construction
    by its kind's record in `ANCILLAS`; ('fock', 0) is stored as ('vacuum',).
    For an M-mode system the witness that consumes this expects exactly M-2
    entries.
    """

    ancillas: tuple

    def __post_init__(self):
        checked = []
        for anc in self.ancillas:
            name = anc[0] if isinstance(anc, tuple) and anc else None
            kind = ANCILLAS.get(name) if isinstance(name, str) else None
            if kind is None:
                raise ValueError("ancilla %r is not a tuple (kind, *params) of a known "
                                 "kind; the kinds are %s" % (anc, ", ".join(ANCILLAS)))
            params = anc[1:]
            arity = 0 if kind.valid is None else 1
            if len(params) != arity or arity and not kind.valid(*params):
                raise ValueError("%s ancilla: %s, got %r" % (kind.name, kind.rule, anc))
            checked.append(kind.store(*params))
        object.__setattr__(self, "ancillas", tuple(checked))

    def label(self) -> str:
        return "+".join("%s(%g)" % anc if len(anc) > 1 else anc[0] for anc in self.ancillas)

    def check_modes(self, modes: int) -> None:
        """Raise ValueError unless there are M-2 ancillas for an M-mode system."""
        if len(self.ancillas) != modes - 2:
            raise ValueError(
                "kernel lists %d ancillas, need M-2 = %d"
                % (len(self.ancillas), modes - 2)
            )

    def fock_states(self, cutoff: int) -> list:
        """The ancillas as single-mode states at cutoffs >= `cutoff`; squeezed ones raise."""
        for name, *_ in self.ancillas:
            if ANCILLAS[name].fock is None:
                raise ValueError("%s ancillas have no truncated-Fock oracle; they are "
                                 "supported by the kernel-matrix witness only" % name)
        return [ANCILLAS[name].fock(cutoff, *params) for name, *params in self.ancillas]


def vacuum_kernel(count: int) -> KernelSpec:
    return KernelSpec((("vacuum",),) * count)


def fock_kernel(count: int, n: int) -> KernelSpec:
    return KernelSpec((("fock", n),) * count)


def squeezed_kernel(count: int, s: float) -> KernelSpec:
    return KernelSpec((("squeezed", s),) * count)


def kernel_c_entry(kernel: KernelSpec, xi):
    """Product of ancilla characteristic functions at `xi` (vectorized)."""
    xi = np.asarray(xi, dtype=complex)
    u = np.abs(xi) ** 2
    out = np.ones_like(u)
    for name, *params in kernel.ancillas:
        out = ANCILLAS[name].chi(out, xi, u, *params)
    return _scalar(out)


def _scalar(out):
    """A 0-d result as a float; any other array as it is."""
    return float(out) if out.ndim == 0 else out


def _untabulated(spec, where) -> ValueError:
    return ValueError(
        "no tabulated smoothed form for family %r %s; "
        "use the brute-force witness evaluator" % (spec.tag, where)
    )


def coherent_tail_cutoff(gamma: complex) -> int:
    """Smallest cutoff with sum_{n>cutoff} |gamma|^{2n}/n! below 1e-14."""
    tol = 1e-14
    x = abs(gamma) ** 2
    if x == 0.0:
        return 0
    total = math.exp(x)
    partial_sum = 1.0
    term = 1.0
    n = 0
    while total - partial_sum > tol and n < 500:
        n += 1
        term *= x / n
        partial_sum += term
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


class _Plane:
    """Slice points alpha = x + iy, for real x, y that broadcast.

    Every exponential and trigonometric factor is split into an x part times
    a y part, so on a lattice (x a column, y a row) the transcendental work
    is O(rows + columns) and the plane is filled by products alone.
    """

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)

    @cached_property
    def u(self):
        """|alpha|^2"""
        return self.x * self.x + self.y * self.y

    def gauss(self, c, x0=0.0, y0=0.0):
        """exp(-c |alpha - (x0 + i y0)|^2)"""
        return np.exp(-c * (self.x - x0) ** 2) * np.exp(-c * (self.y - y0) ** 2)

    def cos_diff(self, a, b):
        """cos(a - b) for a on the y axis and b on the x axis"""
        return np.cos(a) * np.cos(b) + np.sin(a) * np.sin(b)


def _even(spec) -> dict:
    return {"point_even": True, "conj_even": True}


def _radial_envelope(a, scale, coeffs) -> GaussianEnvelope:
    """scale * sum_k coeffs[k] rho^k e^(-a rho^2), for a bound on |slice|."""
    return GaussianEnvelope(tuple((scale * c, k, a, 0.0) for k, c in enumerate(coeffs) if c))


# w: a single excitation shared over M modes, with per-mode loss eta
def _w_fock(spec, cutoff):
    m = spec.modes
    amp = 1.0 / math.sqrt(m)
    pure = _table_state(m, [(occ, amp) for occ in _single_occupations(m, 1)], cutoff)
    if spec.eta == 0.0:
        return pure
    return MixedState(((1.0 - spec.eta, pure), (spec.eta, vacuum(m, pure.cutoff))))


def _w_slice(spec, p):
    m = spec.modes
    poly = (1.0 - spec.eta) * 4.0 * m * p.u + 2.0 * spec.eta - 1.0
    return (2.0 / math.pi) ** m * p.gauss(2.0 * m) * poly


def _w_envelope(spec):
    m = spec.modes
    return _radial_envelope(2.0 * m, (2.0 / math.pi) ** m,
                            (1.0, 0.0, (1.0 - spec.eta) * 4.0 * m))


def _w_c_entry(spec, xi):
    m = spec.modes
    u = np.abs(xi) ** 2
    return np.exp(-0.5 * m * u) * (1.0 - m * (1.0 - spec.eta) * u)


def _w_smoothed(spec, alpha, u):
    m = spec.modes
    return (
        (2.0 / (math.pi * (m - 1)))
        * np.exp(-m * u / (m - 1))
        * ((m * m / (m - 1)) * (1.0 - spec.eta) * u + m * spec.eta - 1.0)
    )


def _w_com_wigner(spec, beta):
    # the reduction is the matching mixture of a single photon with the vacuum;
    # |beta| is clipped at 30 so that u stays finite: exp(-2u) is already 0.0
    # in double precision beyond |beta| = 19.3
    u = np.minimum(np.abs(beta), 30.0) ** 2
    return (2.0 / math.pi) * np.exp(-2.0 * u) * (
        (1.0 - spec.eta) * (4.0 * u - 1.0) + spec.eta
    )


def _w_v2d(spec):
    if spec.eta != 0.0:
        raise ValueError(
            "no closed-form volume for %r; integrate the slice numerically"
            % spec.label()
        )
    return 4.0 / (spec.modes * math.sqrt(math.e)) - 1.0 / spec.modes


# cat: |gamma>^M + |-gamma>^M, with per-mode loss eta
def _cat_fock(spec, cutoff):
    m, gamma = spec.modes, spec.gamma
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


def _cat_slice(spec, p):
    m, gamma = spec.modes, spec.gamma
    g = math.sqrt(1.0 - spec.eta) * gamma
    c = math.exp(-2.0 * m * spec.eta * abs(gamma) ** 2)
    n_plus = 2.0 * (1.0 + math.exp(-2.0 * m * abs(gamma) ** 2))
    # cos(4M Im(alpha conj g)) with Im(alpha conj g) = y Re g - x Im g
    fringe = p.cos_diff(4.0 * m * g.real * p.y, 4.0 * m * g.imag * p.x)
    return ((2.0 / math.pi) ** m / n_plus) * (
        p.gauss(2.0 * m, g.real, g.imag)
        + p.gauss(2.0 * m, -g.real, -g.imag)
        + 2.0 * c * p.gauss(2.0 * m) * fringe
    )


def _cat_symmetries(spec) -> dict:
    # alpha -> -alpha swaps the two Gaussians; conjugation maps gamma to its conjugate
    return {"point_even": True, "conj_even": spec.gamma.imag == 0.0}


def _cat_envelope(spec):
    a = 2.0 * spec.modes
    g = abs(math.sqrt(1.0 - spec.eta) * spec.gamma)
    c = (2.0 / math.pi) ** spec.modes / (2.0 * (1.0 + math.exp(-a * abs(spec.gamma) ** 2)))
    return GaussianEnvelope(((c, 0, a, g), (c, 0, a, -g), (2.0 * c, 0, a, 0.0)))


def _cat_c_entry(spec, xi):
    m, gamma = spec.modes, spec.gamma
    u = np.abs(xi) ** 2
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
    return out


def _cat_energy(spec) -> float:
    x = spec.modes * abs(spec.gamma) ** 2
    return (1.0 - spec.eta) * x * math.tanh(x)


# dicke2: two excitations shared symmetrically over M modes
def _dicke2_fock(spec, cutoff):
    m = spec.modes
    amp = math.sqrt(2.0 / (m * (m - 1)))
    pairs = [tuple(1 if j in (a, b) else 0 for j in range(m))
             for a in range(m) for b in range(a + 1, m)]
    return _table_state(m, [(occ, amp) for occ in pairs], cutoff)


def _dicke2_slice(spec, p):
    m, u = spec.modes, p.u
    poly = 1.0 + 8.0 * (m - 1) * u * (m * u - 1.0)
    return (2.0 / math.pi) ** m * p.gauss(2.0 * m) * poly


def _dicke2_envelope(spec):
    m = spec.modes
    return _radial_envelope(2.0 * m, (2.0 / math.pi) ** m,
                            (1.0, 0.0, 8.0 * (m - 1), 0.0, 8.0 * m * (m - 1)))


def _dicke2_smoothed(denominator, poly, spec, alpha, u):
    if spec.modes != 3:
        raise _untabulated(spec, "at M = %d" % spec.modes)
    return np.exp(-1.5 * u) / (denominator * math.pi) * poly(u)


def _dicke2_v2d(spec) -> float:
    m = spec.modes
    arg = math.sqrt((m - 2.0) / (2.0 * (m - 1.0)))
    return (
        1.0 / m
        - (16.0 * (m - 1.0) / (math.e * m * m)) * math.sinh(arg)
        + (8.0 * math.sqrt(2.0 * (m - 2.0) * (m - 1.0)) / (math.e * m * m))
        * math.cosh(arg)
    )


# noon3: (|N00> + |0N0> + |00N>)/sqrt(3)
def _noon3_fock(spec, cutoff):
    return _table_state(
        3, [(occ, 1.0 / _SQ3) for occ in _single_occupations(3, spec.n_photons)], cutoff
    )


def _noon3_vacuum_at_origin(spec) -> float:
    n = spec.n_photons
    return (-1.0) ** n * (2.0 + (-1.0) ** n) / (2.0 ** (n - 1) * math.pi)


def _noon3_fock1_at_origin(spec) -> float:
    n = spec.n_photons
    return -(2.0 * (-1.0) ** n * (n - 1) - (n + 1)) / (2.0**n * math.pi)


# psi1, psi2: three-mode asymmetric superpositions (amplitude tables above)
def _amps_fock(table, spec, cutoff):
    return _table_state(spec.modes, table.items(), cutoff)


_PSI1_A = 16.0 + 3.0 * _SQ23


def _psi1_slice(spec, p):
    u = p.u
    return (
        p.gauss(6.0)
        / (16.0 * math.pi**3)
        * (
            _PSI1_A * (12.0 * u - 1.0) ** 2
            + 8.0 * _SQ6 * p.x * _PSI1_A * (6.0 * u - 1.0)
            + 48.0
            - 15.0 * _SQ23
        )
    )


def _psi1_symmetries(spec) -> dict:
    # odd in Re alpha
    return {"point_even": False, "conj_even": True}


def _psi1_envelope(spec):
    a, b = _PSI1_A, 8.0 * _SQ6 * _PSI1_A  # A(12u+1)^2 + b rho(6u+1) + |48-15 sqrt23|
    return _radial_envelope(6.0, 1.0 / (16.0 * math.pi**3),
                            (a + abs(48.0 - 15.0 * _SQ23), b, 24.0 * a, 6.0 * b, 144.0 * a))


def _psi1_smoothed(spec, alpha, u):
    return (
        np.exp(-1.5 * u)
        / (1024.0 * math.pi)
        * (
            896.0
            - 216.0 * _SQ23
            + 81.0 * u**2 * _PSI1_A
            + 12.0 * _SQ2 * alpha.real * _PSI1_A * (9.0 * u - 4.0)
        )
    )


def _psi1_energy(spec) -> float:
    w1 = _PSI1_A / 64.0
    return w1 + 2.0 * (1.0 - w1)


def _psi2_slice(spec, p):
    u = p.u
    return 4.0 / math.pi**3 * p.gauss(6.0) * (1.0 - 30.0 * u + 108.0 * u**2)


def _psi2_smoothed(spec, alpha, u):
    return np.exp(-1.5 * u) / (64.0 * math.pi) * (243.0 * u**2 - 144.0 * u + 8.0)


# psi4, psi5: two permutation orbits, weighed equally, each a uniform
# superposition of the distinct permutations of its occupations
def _orbits_fock(orbits, spec, cutoff):
    table = []
    for occ in orbits:
        perms = sorted(set(permutations(occ)))
        table += [(key, 1.0 / math.sqrt(2.0 * len(perms))) for key in perms]
    return _table_state(spec.modes, table, cutoff)


def _origin_smoothed(value, spec, alpha, u):
    # value(spec) is the form at the origin, the only point it is tabulated at
    if np.any(alpha != 0):
        raise ValueError(
            "smoothed form for %s is tabulated at the origin only" % spec.tag
        )
    return np.full_like(u, value(spec))


# the record table: one entry per family tag
FAMILIES = {record.tag: record for record in (
    FamilyRecord(
        "w", (_count("M", "modes", "mode count", 1), _ETA),
        fock=_w_fock, slice_xy=_w_slice, symmetries=_even, envelope=_w_envelope,
        c_entry=_w_c_entry, smoothed={_VACUUM: _w_smoothed}, com_wigner=_w_com_wigner,
        v2d=_w_v2d, energy=lambda spec: 1.0 - spec.eta),
    FamilyRecord(
        "cat", (_count("M", "modes", "mode count", 1), _GAMMA, _ETA),
        fock=_cat_fock, slice_xy=_cat_slice, symmetries=_cat_symmetries,
        envelope=_cat_envelope, c_entry=_cat_c_entry, energy=_cat_energy),
    FamilyRecord(
        "dicke2", (_count("M", "modes", "mode count", 2),),
        fock=_dicke2_fock, slice_xy=_dicke2_slice, symmetries=_even,
        envelope=_dicke2_envelope, v2d=_dicke2_v2d, energy=lambda spec: 2.0,
        smoothed={
            _FOCK1: partial(_dicke2_smoothed, 32.0,
                            lambda u: 81.0 * u**3 - 234.0 * u**2 + 216.0 * u - 16.0),
            _VACUUM: partial(_dicke2_smoothed, 24.0,
                             lambda u: 8.0 + (9.0 * u - 4.0) ** 2)}),
    FamilyRecord(
        "noon3", (_count("N", "n_photons", "photon number", 1),), modes=3,
        fock=_noon3_fock, energy=lambda spec: float(spec.n_photons),
        smoothed={_VACUUM: partial(_origin_smoothed, _noon3_vacuum_at_origin),
                  _FOCK1: partial(_origin_smoothed, _noon3_fock1_at_origin)}),
    FamilyRecord(
        "psi1", modes=3, fock=partial(_amps_fock, _PSI1_AMPS), slice_xy=_psi1_slice,
        symmetries=_psi1_symmetries, envelope=_psi1_envelope,
        smoothed={_VACUUM: _psi1_smoothed}, energy=_psi1_energy),
    FamilyRecord(
        "psi2", modes=3, fock=partial(_amps_fock, _PSI2_AMPS), slice_xy=_psi2_slice,
        symmetries=_even, smoothed={_VACUUM: _psi2_smoothed},
        envelope=lambda spec: _radial_envelope(6.0, 4.0 / math.pi**3, (1, 0, 30, 0, 108)),
        energy=lambda spec: 2.0 * 0.75 + 3.0 * 0.25),
    FamilyRecord(
        "psi4", modes=4, fock=partial(_orbits_fock, ((2, 1, 0, 0), (1, 1, 1, 0))),
        smoothed={_FOCK1: partial(_origin_smoothed, lambda spec: PSI4_SMOOTHED_AT_ORIGIN)},
        energy=lambda spec: 3.0),
    FamilyRecord(
        "psi5", modes=5, fock=partial(_orbits_fock, ((2, 1, 1, 0, 0), (1, 1, 1, 1, 0))),
        smoothed={_FOCK1: partial(_origin_smoothed, lambda spec: PSI5_SMOOTHED_AT_ORIGIN)},
        energy=lambda spec: 4.0),
)}


def _capability(spec: FamilySpec, name: str):
    fn = getattr(FAMILIES[spec.tag], name)
    if fn is None:
        raise ValueError("family %r has no %s capability" % (spec.tag, name))
    return fn


# public lookups: witnesses and cli call these through the module, where
# perfbench/tracing.py patches them
def family_fock_expansion(spec: FamilySpec, cutoff: int | None = None):
    """Exact truncated-Fock representation of the family member.

    Returns a PureState for lossless members and a MixedState otherwise.
    Photon-number eigenstates are exact; cat states carry a coherent tail
    below 1e-14 at the default cutoff; the other families default to their
    highest occupied level.
    """
    return _capability(spec, "fock")(spec, cutoff)


# not called in src, but perfbench/tracing.py patches this name
def family_wigner_slice(spec: FamilySpec, alpha):
    """Wigner function on the diagonal slice alpha*(1,...,1).

    Vectorized over `alpha` (complex scalar or ndarray).  Supported for the
    w, cat, dicke2, psi1 and psi2 families; others have no closed slice form.
    """
    alpha = np.asarray(alpha, dtype=complex)
    return _scalar(family_wigner_slice_xy(spec, alpha.real, alpha.imag))


def family_wigner_slice_xy(spec: FamilySpec, x, y) -> np.ndarray:
    """The slice Wigner function at alpha = x + iy, for real x, y that broadcast.

    When x and y differ in shape (a lattice: x a column, y a row), the
    closed form is evaluated from separate x and y factors (see `_Plane`).
    """
    return _capability(spec, "slice_xy")(spec, _Plane(x, y))


def slice_symmetries(spec: FamilySpec) -> dict:
    """The reflections that leave the closed slice form unchanged.

    ``point_even``: W(-alpha) = W(alpha); ``conj_even``: W(conj alpha) =
    W(alpha).  The radial w, dicke2 and psi2 slices have both; psi1 is odd
    in Re alpha; the cat swaps its two Gaussians under alpha -> -alpha and is
    even under conjugation only for real gamma.
    """
    return _capability(spec, "symmetries")(spec)


def slice_abs_envelope(spec: FamilySpec) -> GaussianEnvelope:
    """A radial upper bound rho -> max_{|alpha|=rho} |W(alpha)|.

    A `GaussianEnvelope`, whose exact tails pick radii with provably small tails.
    """
    return _capability(spec, "envelope")(spec)


def family_c_entry(spec: FamilySpec, xi):
    """Settings-matrix entry function (before the 1/N normalization).

    For the hybrid-readout witness this is the expectation of the negative
    multiport parity combined with an equal displacement of every mode; for
    the slice characteristic function used by the kernel witness the same
    closed form applies to these parity-symmetric families.  Vectorized in
    `xi`.
    """
    return _scalar(_capability(spec, "c_entry")(spec, np.asarray(xi, dtype=complex)))


def family_smoothed_wigner(spec: FamilySpec, kernel: KernelSpec, alpha):
    """Tabulated closed forms of the kernel-smoothed centre-of-mass Wigner.

    The family's `smoothed` table is looked up by the one ancilla that every
    ancilla of `kernel` is.  Raises ValueError for pairs without a closed
    form (a mixed kernel, an untabulated ancilla, dicke2 at M != 3); the
    brute-force witness evaluator covers those (at small sizes).
    """
    table = _capability(spec, "smoothed")
    kernel.check_modes(spec.modes)
    alike = set(kernel.ancillas) or {_VACUUM}  # no ancillas count as all vacuum
    smoothed = table.get(alike.pop()) if len(alike) == 1 else None
    if smoothed is None:
        raise _untabulated(spec, "with kernel %s" % kernel.label())
    alpha = np.asarray(alpha, dtype=complex)
    return _scalar(smoothed(spec, alpha, np.abs(alpha) ** 2))


def family_com_wigner(spec: FamilySpec, beta):
    """Single-mode Wigner of the centre-of-mass reduction (vectorized)."""
    com_wigner = _capability(spec, "com_wigner")
    return _scalar(com_wigner(spec, np.asarray(beta, dtype=complex)))


def v2d_closed_form(spec: FamilySpec) -> float:
    """Closed-form absolute slice volume (lossless w and dicke2 only)."""
    return _capability(spec, "v2d")(spec)


def family_energy(spec: FamilySpec) -> float:
    """Mean total photon number (an exact energy bound for grid error terms)."""
    return _capability(spec, "energy")(spec)
