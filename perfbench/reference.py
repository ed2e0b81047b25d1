"""Reference computations the benchmark checks cvgme's outputs against.

Nothing here imports cvgme.  Every formula is derived from the state
definitions by its own route:

* slice Wigner functions and characteristic functions of cat states come from
  the coherent-dyad formulas below, and loss from the pure-loss channel acting
  on each dyad;
* W-state values come from the Fock-dyad generating function
  exp(2 a* g + 2 a b* - b* g);
* slice volumes are summed on a disc lattice built row by row, or taken from
  closed forms and radial quadrature;
* collective parities come from closed forms or from permanents of the
  centre-of-mass reflection I - 2 u u^T.

``perfbench/tests/test_reference.py`` checks each of them by a second route.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
from scipy import integrate

GUARD = 1e-12


def volume_threshold(modes):
    """Scheme A bound on the absolute slice volume, 1/(2 sqrt(M-1))."""
    return 1.0 / (2.0 * math.sqrt(modes - 1.0))


def integral_threshold(modes):
    """The same bound on the displaced-parity integral, pi/(4 sqrt(M-1))."""
    return math.pi / (4.0 * math.sqrt(modes - 1.0))


def settings_threshold(modes):
    """Scheme B bound on the trace norm, M/(2 sqrt(M-1))."""
    return modes / (2.0 * math.sqrt(modes - 1.0))


# ---------------------------------------------------------------------------
# slice Wigner functions on the diagonal alpha*(1,...,1)


def _dyad_log_wigner(alpha, ket, bra):
    """log of (pi/2) W_{|ket><bra|}(alpha) for single-mode coherent states."""
    shift = 2.0 * alpha - ket
    return (np.conj(alpha) * ket - alpha * np.conj(ket) - 0.5 * abs(bra) ** 2
            - 0.5 * np.abs(shift) ** 2 + np.conj(bra) * shift)


def cat_dyads(modes, gamma, eta=0.0):
    """The lossy cat as weighted dyads (weight, ket amplitude, bra amplitude).

    The pure-loss channel of transmissivity T = 1 - eta sends |g><b| to
    <b|g>^eta-scaled |sqrt(T) g><sqrt(T) b|; on the cat's cross terms that
    factor is exp(-2 eta |gamma|^2) per mode.
    """
    gamma = complex(gamma)
    norm = 1.0 / (2.0 * (1.0 + math.exp(-2.0 * modes * abs(gamma) ** 2)))
    g = math.sqrt(1.0 - eta) * gamma
    cross = math.exp(-2.0 * modes * eta * abs(gamma) ** 2)
    return ((norm, g, g), (norm, -g, -g), (norm * cross, g, -g),
            (norm * cross, -g, g))


def cat_slice(modes, gamma, eta, alpha):
    """W of the lossy M-mode cat at alpha*(1,...,1), vectorized in alpha."""
    alpha = np.asarray(alpha, dtype=complex)
    total = np.zeros(alpha.shape, dtype=complex)
    for weight, ket, bra in cat_dyads(modes, gamma, eta):
        total += weight * np.exp(modes * _dyad_log_wigner(alpha, ket, bra))
    return (2.0 / math.pi) ** modes * total.real


def w_slice(modes, eta, alpha):
    """W of the lossy W state at alpha*(1,...,1), vectorized in alpha."""
    u = np.abs(np.asarray(alpha, dtype=complex)) ** 2
    return w_wigner_point(modes, eta, u * modes * modes, u * modes)


def w_wigner_point(modes, eta, s_abs2, u_sum):
    """W of the lossy W state at a point with |sum a_j|^2 = s_abs2, sum |a_j|^2 = u_sum.

    From the Fock dyads: |1><1| -> 4|a|^2 - 1, |1><0| -> 2 a*, |0><1| -> 2 a.
    """
    pure = 4.0 * s_abs2 / modes - 1.0
    return (2.0 / math.pi) ** modes * np.exp(-2.0 * u_sum) * (
        (1.0 - eta) * pure + eta)


def cat_wigner_point(modes, gamma, eta, alphas):
    """W of the lossy cat at a general point (one amplitude per mode)."""
    alphas = np.asarray(alphas, dtype=complex)
    total = 0j
    for weight, ket, bra in cat_dyads(modes, gamma, eta):
        total += weight * cmath.exp(np.sum(_dyad_log_wigner(alphas, ket, bra)))
    return (2.0 / math.pi) ** modes * total.real


# ---------------------------------------------------------------------------
# characteristic functions chi(xi) = <D(xi_1) x ... x D(xi_M)>


def _dyad_log_chi(xi, ket, bra):
    """log <bra|D(xi)|ket> for single-mode coherent states."""
    moved = ket + xi
    return (0.5 * (xi * np.conj(ket) - np.conj(xi) * ket) - 0.5 * abs(bra) ** 2
            - 0.5 * np.abs(moved) ** 2 + np.conj(bra) * moved)


def cat_chi(modes, gamma, eta, xis):
    """chi of the lossy cat; `xis` has one amplitude per mode (last axis)."""
    xis = np.asarray(xis, dtype=complex)
    total = np.zeros(xis.shape[:-1], dtype=complex)
    for weight, ket, bra in cat_dyads(modes, gamma, eta):
        total = total + weight * np.exp(np.sum(_dyad_log_chi(xis, ket, bra), axis=-1))
    return total


def w_chi(modes, eta, xis):
    """chi of the lossy W state: exp(-sum|xi|^2/2) (1 - (1-eta)|sum xi|^2 / M)."""
    xis = np.asarray(xis, dtype=complex)
    s = np.sum(xis, axis=-1)
    u = np.sum(np.abs(xis) ** 2, axis=-1)
    return np.exp(-0.5 * u) * (1.0 - (1.0 - eta) * np.abs(s) ** 2 / modes) + 0j


def family_chi(family, xis):
    """chi for a ("w", M, eta) or ("cat", M, gamma, eta) family tuple."""
    if family[0] == "w":
        return w_chi(family[1], family[2], xis)
    return cat_chi(family[1], family[2], family[3], xis)


def family_slice(family, alpha):
    if family[0] == "w":
        return w_slice(family[1], family[2], alpha)
    return cat_slice(family[1], family[2], family[3], alpha)


# ---------------------------------------------------------------------------
# slice volumes


def w_volume(modes, eta=0.0):
    """Closed-form absolute slice volume of the lossy W state (eta < 1/2).

    With y = 2 M |alpha|^2 the volume is (1/M) int e^-y |a y + b| dy,
    a = 2(1-eta), b = 2 eta - 1, whose sign changes once at y0 = -b/a.
    """
    if not 0.0 <= eta < 0.5:
        raise ValueError("closed form needs 0 <= eta < 1/2")
    y0 = (1.0 - 2.0 * eta) / (2.0 * (1.0 - eta))
    return (4.0 * (1.0 - eta) * math.exp(-y0) - 1.0) / modes


def dicke_volume(modes):
    """Closed-form absolute slice volume of the two-excitation Dicke state.

    The slice polynomial in y = 2 M |alpha|^2 is 1 + c (y^2 - 2y) with
    c = 2(M-1)/M; e^-y (c y^2 + 1) is its antiderivative up to sign.
    """
    c = 2.0 * (modes - 1.0) / modes
    s = math.sqrt(1.0 - 1.0 / c)
    lo, hi = 1.0 - s, 1.0 + s
    return (1.0 - 4.0 * c * (lo * math.exp(-lo) - hi * math.exp(-hi))) / modes


def dicke_slice(modes, alpha):
    u = np.abs(np.asarray(alpha, dtype=complex)) ** 2
    y = 2.0 * modes * u
    c = 2.0 * (modes - 1.0) / modes
    return (2.0 / math.pi) ** modes * np.exp(-y) * (1.0 + c * (y * y - 2.0 * y))


def radial_volume(slice_fn, modes, breaks=()):
    """Absolute slice volume of a radial slice by 1-D adaptive quadrature."""
    scale = (2.0 / math.pi) * (math.pi / 2.0) ** modes

    def integrand(rho):
        return 2.0 * math.pi * rho * abs(float(slice_fn(complex(rho))))

    cuts = sorted(b for b in breaks if b > 0.0)
    edges = [0.0] + cuts + [math.inf]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        part, _ = integrate.quad(integrand, lo, hi, limit=400, epsabs=1e-14,
                                 epsrel=1e-13)
        total += part
    return scale * total


def w_zero_radius(modes, eta):
    """Radius where the W slice changes sign (for quadrature breakpoints)."""
    y0 = (1.0 - 2.0 * eta) / (2.0 * (1.0 - eta))
    return math.sqrt(y0 / (2.0 * modes))


def lattice_rows(delta, radius):
    """Row half-widths of the disc lattice: cells (i + i j) delta, i^2 + j^2 <= (r/delta)^2."""
    limit = math.floor((radius / delta) ** 2 + 1e-9)
    nmax = math.isqrt(limit)
    rows = np.arange(-nmax, nmax + 1)
    half = np.array([math.isqrt(limit - int(i) * int(i)) for i in rows])
    return rows, half


def lattice_sum(slice_fn, modes, delta, radius, chunk_cells=1 << 18):
    """Absolute slice volume by the midpoint sum, evaluating `slice_fn` cell by cell.

    The tests check :func:`separable_sum` against it.  The lattice is walked
    in blocks of rows so that memory stays small.
    """
    rows, half = lattice_rows(delta, radius)
    scale = (2.0 / math.pi) * (math.pi / 2.0) ** modes
    width = 2 * int(half.max()) + 1
    per_block = max(1, chunk_cells // width)
    total = 0.0
    for start in range(0, rows.size, per_block):
        r = rows[start:start + per_block]
        h = half[start:start + per_block]
        j = np.arange(-int(h.max()), int(h.max()) + 1)
        keep = np.abs(j)[None, :] <= h[:, None]
        alpha = (r[:, None] + 1j * j[None, :])[keep] * delta
        total += float(np.sum(np.abs(slice_fn(alpha))))
    return scale * delta * delta * total


def lattice_cells(delta, radius):
    _, half = lattice_rows(delta, radius)
    return int(np.sum(2 * half + 1))


# ---------------------------------------------------------------------------
# automatic lattice radius: the tail of the slice envelope, integrated exactly


def _gauss_tail(modes, centre, r):
    """int_r^inf 2 pi rho exp(-2M (rho - centre)^2) d rho."""
    a = 2.0 * modes
    t = r - centre
    return 2.0 * math.pi * (math.exp(-a * t * t) / (2.0 * a)
                            + centre * 0.5 * math.sqrt(math.pi / a)
                            * math.erfc(math.sqrt(a) * t))


def envelope_tail(family, r):
    """Tail integral beyond r of the radial envelope cvgme bounds |W| with."""
    modes = family[1]
    scale = (2.0 / math.pi) ** modes
    if family[0] == "w":
        eta = family[2]
        a = (1.0 - eta) * 4.0 * modes
        k = 2.0 * modes
        return scale * math.pi * math.exp(-k * r * r) * (
            (a * r * r + 1.0) / k + a / (k * k))
    gamma, eta = family[2], family[3]
    g = abs(math.sqrt(1.0 - eta) * gamma)
    n_plus = 2.0 * (1.0 + math.exp(-2.0 * modes * abs(gamma) ** 2))
    return (scale / n_plus) * (_gauss_tail(modes, g, r) + _gauss_tail(modes, -g, r)
                               + 2.0 * _gauss_tail(modes, 0.0, r))


def auto_radius(family, tol=1e-6, r_start=1.0, r_step=0.25, r_max=40.0):
    """First radius on the 1.0, 1.25, ... ladder whose envelope tail is below tol."""
    r = r_start
    while r <= r_max:
        if envelope_tail(family, r) < tol:
            return r
        r += r_step
    raise ValueError("no radius meets the tail tolerance")


def separable_terms(family):
    """The slice as terms (coefficient, f(x), g(y)) with W(x + iy) = Re sum c f(x) g(y).

    Each coherent dyad's exponent is a sum of a function of x and one of y;
    the W slice is e^{-2M x^2} e^{-2M y^2} times a polynomial in x^2 + y^2.
    """
    modes = family[1]
    scale = (2.0 / math.pi) ** modes
    if family[0] == "w":
        a = 4.0 * modes * (1.0 - family[2])
        b = 2.0 * family[2] - 1.0
        gauss = lambda t: np.exp(-2.0 * modes * t * t) + 0j
        return [(scale, lambda x: gauss(x) * (a * x * x + b), gauss),
                (scale * a, gauss, lambda y: gauss(y) * y * y)]
    terms = []
    for weight, ket, bra in cat_dyads(modes, family[2], family[3]):
        kr, ki, conj_b = ket.real, ket.imag, np.conj(bra)
        const = modes * (-0.5 * abs(bra) ** 2 - conj_b * ket)
        fx = (lambda x, kr=kr, ki=ki, cb=conj_b: np.exp(
            modes * (2j * ki * x - 0.5 * (2.0 * x - kr) ** 2 + 2.0 * cb * x)))
        fy = (lambda y, kr=kr, ki=ki, cb=conj_b: np.exp(
            modes * (-2j * kr * y - 0.5 * (2.0 * y - ki) ** 2 + 2j * cb * y)))
        terms.append((scale * weight * np.exp(const), fx, fy))
    return terms


def separable_sum(terms, modes, delta, radius, chunk_rows=256):
    """The lattice sum of |W| from separable terms, one block of rows at a time."""
    rows, half = lattice_rows(delta, radius)
    j = np.arange(-int(half.max()), int(half.max()) + 1)
    y = j * delta
    coef = np.array([c for c, _, _ in terms])
    fy = np.array([g(y) for _, _, g in terms])
    total = 0.0
    for start in range(0, rows.size, chunk_rows):
        x = rows[start:start + chunk_rows] * delta
        fx = np.stack([f(x) for _, f, _ in terms], axis=1) * coef
        vals = np.abs((fx @ fy).real)
        keep = np.abs(j)[None, :] <= half[start:start + chunk_rows, None]
        total += float(np.sum(vals[keep]))
    return (2.0 / math.pi) * (math.pi / 2.0) ** modes * delta * delta * total


def family_volume(family, delta, radius=None):
    """Lattice-sum volume of a ("w", M, eta) or ("cat", M, gamma, eta) family."""
    if radius is None:
        radius = auto_radius(family)
    return separable_sum(separable_terms(family), family[1], delta, radius)


# ---------------------------------------------------------------------------
# settings-matrix witnesses


def trace_norm(mat):
    """Nuclear norm (sum of singular values) of a square matrix."""
    return float(np.sum(np.linalg.svd(np.asarray(mat), compute_uv=False)))


def settings_matrix(family, xi, kernel_ancillas=0):
    """C (or C o K with `kernel_ancillas` vacuum ancillas) at the points xi."""
    xi = np.asarray(xi, dtype=complex)
    n = xi.size
    diffs = xi[:, None] - xi[None, :]
    modes = family[1]
    mat = family_chi(family, np.repeat(diffs[..., None], modes, axis=-1)) / n
    if kernel_ancillas:
        mat = mat * np.exp(-0.5 * kernel_ancillas * np.abs(diffs) ** 2)
    return mat


def sign_folded_count(xi, tol=1e-6):
    """Distinct measured differences, a difference and its negative counting once."""
    xi = list(np.asarray(xi, dtype=complex))
    found = []
    for a, b in itertools.combinations_with_replacement(range(len(xi)), 2):
        d = xi[a] - xi[b]
        if d.real < -tol or (abs(d.real) <= tol and d.imag < -tol):
            d = -d
        if all(abs(d - f) > tol for f in found):
            found.append(d)
    return len(found)


# ---------------------------------------------------------------------------
# scheme C: parity of the centre-of-mass mode of system plus M-2 ancillas


def com_coordinates(modes, alpha):
    """Number of joint modes K, the system's share p = M/K and |beta|^2.

    The witness displaces the centre-of-mass mode by beta = alpha sqrt(M/K).
    """
    k = 2 * modes - 2
    p = modes / k
    return k, p, abs(alpha) ** 2 * p


def w_com_parity(modes, alpha):
    """W(M) with vacuum ancillas: the centre-of-mass mode holds the photon
    with probability p = M/K, so <Pi(beta)> = e^-2b (1 - 2p + 4 p b)."""
    _, p, b = com_coordinates(modes, alpha)
    return math.exp(-2.0 * b) * (1.0 - 2.0 * p + 4.0 * p * b)


def dicke_com_parity(modes):
    """Dicke-2(M) with vacuum ancillas, at the origin.

    With R = I - (2/K) J, pairs of excited modes overlap in 2, 1 or 0 modes:
    r^2 + s^2, s (r + s) and 2 s^2, r = 1 - 2/K, s = -2/K.
    """
    k = 2 * modes - 2
    r, s = 1.0 - 2.0 / k, -2.0 / k
    return (r * r + s * s + 2.0 * (modes - 2) * s * (r + s)
            + (modes - 2) * (modes - 3) * s * s)


def noon_com_parity(n, ancilla_photons):
    """N00N(N) over three modes with one ancilla in |0> or |1>, at the origin."""
    sign = (-1.0) ** n
    if ancilla_photons == 0:
        return (1.0 + 2.0 * sign) / 2.0 ** n
    if ancilla_photons == 1:
        return ((n + 1.0) + 2.0 * sign * (1.0 - n)) / 2.0 ** (n + 1)
    raise ValueError("closed form for 0 or 1 ancilla photons only")


PSI4_COM_PARITY = (math.pi / 2.0) * (-2.0 * (11.0 * math.sqrt(6.0) - 4.0)
                                     / (81.0 * math.pi))
PSI5_COM_PARITY = (math.pi / 2.0) * (-(139.0 * math.sqrt(3.0) - 144.0)
                                     / (512.0 * math.pi))

_SQ2, _SQ6, _SQ23 = math.sqrt(2.0), math.sqrt(6.0), math.sqrt(23.0)

#: psi1 by its amplitudes on occupation vectors.
PSI1 = {
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


def symmetric_superposition(groups):
    """Equal-weight superposition over the distinct permutations of each
    occupation in `groups`, every group carrying the same total weight."""
    amps = {}
    for occ in groups:
        perms = sorted(set(itertools.permutations(occ)))
        for key in perms:
            amps[key] = 1.0 / math.sqrt(len(groups) * len(perms))
    return amps


PSI4 = symmetric_superposition([(2, 1, 0, 0), (1, 1, 1, 0)])
PSI5 = symmetric_superposition([(2, 1, 1, 0, 0), (1, 1, 1, 1, 0)])


def permanent(mat):
    """Ryser's formula."""
    mat = np.asarray(mat)
    n = mat.shape[0]
    if n == 0:
        return 1.0
    total = 0.0
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            total += (-1) ** size * np.prod(mat[:, cols].sum(axis=1))
    return (-1) ** n * total


def com_parity_by_permanents(amps, ancillas):
    """<Pi> of the joint centre-of-mass mode at the origin, for Fock inputs.

    The parity of b = sum_j a_j / sqrt(K) is the passive transform
    R = I - 2 u u^T, whose Fock matrix elements are permanents.
    """
    joint = {key + tuple(ancillas): amp for key, amp in amps.items()}
    k = len(next(iter(joint)))
    refl = np.eye(k) - 2.0 / k * np.ones((k, k))
    keys = list(joint)
    expand = {key: [j for j, n in enumerate(key) for _ in range(n)] for key in keys}
    norm = {key: math.prod(math.factorial(n) for n in key) for key in keys}
    total = 0.0
    for out in keys:
        for inp in keys:
            if sum(out) != sum(inp):
                continue
            sub = refl[np.ix_(expand[out], expand[inp])]
            total += (np.conj(joint[out]) * joint[inp] * permanent(sub)
                      / math.sqrt(norm[out] * norm[inp]))
    return float(np.real(total))
