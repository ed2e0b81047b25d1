"""Second-route checks of perfbench/reference.py.

    python3 -m pytest -q perfbench/tests

Dense truncated-Fock matrices built with ``scipy.linalg.expm``, direct
quadrature and brute-force enumeration stand in for the closed forms.
"""

import itertools
import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference as ref  # noqa: E402

CUT = 40
_LOWER = np.diag(np.sqrt(np.arange(1.0, CUT)), 1)
_PARITY = np.diag((-1.0) ** np.arange(CUT))


def displacement(xi):
    return expm(xi * _LOWER.T - np.conj(xi) * _LOWER)


def displaced_parity(alpha):
    return displacement(alpha) @ _PARITY @ displacement(-alpha)


def coherent(gamma):
    n = np.arange(CUT)
    logs = -0.5 * abs(gamma) ** 2 - 0.5 * np.array([math.lgamma(k + 1) for k in n])
    return np.exp(logs) * complex(gamma) ** n


def fock(n):
    v = np.zeros(CUT, dtype=complex)
    v[n] = 1.0
    return v


def product_expectation(branches, ops):
    """sum_{a,b} conj(c_a) c_b prod_j <v_aj| op_j |v_bj> for product branches."""
    total = 0j
    for ca, va in branches:
        for cb, vb in branches:
            total += np.conj(ca) * cb * np.prod(
                [np.vdot(x, op @ y) for x, op, y in zip(va, ops, vb)])
    return total


def cat_branches(modes, gamma):
    norm = 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-2.0 * modes * abs(gamma) ** 2)))
    return [(norm, [coherent(gamma)] * modes), (norm, [coherent(-gamma)] * modes)]


def w_branches(modes):
    return [(1.0 / math.sqrt(modes),
             [fock(1) if j == a else fock(0) for j in range(modes)]) for a in range(modes)]


RNG = np.random.default_rng(20261018)


def points(count, modes, scale=0.5):
    return scale * (RNG.normal(size=(count, modes)) + 1j * RNG.normal(size=(count, modes)))


@pytest.mark.parametrize("modes,gamma", [(1, 0.8), (3, 0.9), (3, 1.0 + 0.3j), (4, 0.7)])
def test_cat_chi_and_wigner_match_dense_fock(modes, gamma):
    branches = cat_branches(modes, gamma)
    for xi in points(3, modes):
        dense = product_expectation(branches, [displacement(x) for x in xi])
        assert abs(ref.cat_chi(modes, gamma, 0.0, xi) - dense) < 1e-12
        dense_w = (2.0 / math.pi) ** modes * product_expectation(
            branches, [displaced_parity(a) for a in xi]).real
        assert abs(ref.cat_wigner_point(modes, gamma, 0.0, xi) - dense_w) < 1e-12
    alpha = 0.3 - 0.2j
    assert ref.cat_slice(modes, gamma, 0.0, alpha) == pytest.approx(
        ref.cat_wigner_point(modes, gamma, 0.0, [alpha] * modes), abs=1e-14)


@pytest.mark.parametrize("modes", [3, 4, 5])
@pytest.mark.parametrize("eta", [0.0, 0.2])
def test_w_chi_and_wigner_match_dense_fock(modes, eta):
    branches = w_branches(modes)
    vac = [(1.0, [fock(0)] * modes)]
    for xi in points(3, modes):
        ops = [displacement(x) for x in xi]
        dense = ((1 - eta) * product_expectation(branches, ops)
                 + eta * product_expectation(vac, ops))
        assert abs(ref.w_chi(modes, eta, xi) - dense) < 1e-12
        ops = [displaced_parity(a) for a in xi]
        dense_w = (2.0 / math.pi) ** modes * ((1 - eta) * product_expectation(branches, ops)
                                              + eta * product_expectation(vac, ops)).real
        got = ref.w_wigner_point(modes, eta, abs(np.sum(xi)) ** 2,
                                 float(np.sum(np.abs(xi) ** 2)))
        assert got == pytest.approx(dense_w, abs=1e-12)


def test_lossy_cat_matches_kraus_channel():
    gamma, eta = 0.9, 0.15
    psi = coherent(gamma) + coherent(-gamma)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    keep = 1.0 - eta
    out = np.zeros_like(rho)
    for k in range(CUT):
        kraus = np.zeros((CUT, CUT))
        for n in range(k, CUT):
            kraus[n - k, n] = math.sqrt(math.comb(n, k) * eta ** k * keep ** (n - k))
        out += kraus @ rho @ kraus.T
    for xi in points(4, 1)[:, 0]:
        assert abs(ref.cat_chi(1, gamma, eta, [xi]) - np.trace(out @ displacement(xi))) < 1e-12
        w = (2.0 / math.pi) * np.trace(out @ displaced_parity(xi)).real
        assert ref.cat_wigner_point(1, gamma, eta, [xi]) == pytest.approx(w, abs=1e-12)


def test_lossy_cat_chi_obeys_the_loss_channel_identity():
    modes, gamma, eta = 3, 1.0, 0.1
    for xi in points(4, modes):
        scaled = ref.cat_chi(modes, gamma, 0.0, math.sqrt(1.0 - eta) * xi)
        want = scaled * math.exp(-0.5 * eta * float(np.sum(np.abs(xi) ** 2)))
        assert abs(ref.cat_chi(modes, gamma, eta, xi) - want) < 1e-14


@pytest.mark.parametrize("modes", [3, 4, 5, 6])
@pytest.mark.parametrize("eta", [0.0, 0.1, 0.3])
def test_w_volume_matches_radial_quadrature(modes, eta):
    quad = ref.radial_volume(lambda a: ref.w_slice(modes, eta, a), modes,
                             [ref.w_zero_radius(modes, eta)])
    assert quad == pytest.approx(ref.w_volume(modes, eta), abs=1e-10)


@pytest.mark.parametrize("modes", [3, 4, 5, 6])
def test_dicke_volume_matches_radial_quadrature(modes):
    c = 2.0 * (modes - 1.0) / modes
    roots = [math.sqrt((1.0 + s * math.sqrt(1.0 - 1.0 / c)) / (2.0 * modes)) for s in (-1, 1)]
    quad = ref.radial_volume(lambda a: ref.dicke_slice(modes, a), modes, roots)
    assert quad == pytest.approx(ref.dicke_volume(modes), abs=1e-10)


def test_lattice_matches_brute_force_mask():
    for delta, radius in ((0.01, 0.9), (0.005, 1.25), (0.0025, 0.5), (0.1, 3.0)):
        nmax = int(math.floor(radius / delta + 1e-9))
        n = np.arange(-nmax, nmax + 1)
        mask = n[:, None] ** 2 + n[None, :] ** 2 <= (radius / delta) ** 2 + 1e-9
        assert ref.lattice_cells(delta, radius) == int(mask.sum())


@pytest.mark.parametrize("family", [("w", 3, 0.0), ("w", 4, 0.2), ("cat", 3, 0.8, 0.0),
                                    ("cat", 3, 1.0, 0.1)])
def test_lattice_sum_matches_dblquad(family):
    modes, radius = family[1], 1.5
    scale = (2.0 / math.pi) * (math.pi / 2.0) ** modes

    def integrand(rho, phi):
        return rho * abs(float(ref.family_slice(family, rho * complex(math.cos(phi),
                                                                     math.sin(phi)))))

    area, _ = integrate.dblquad(integrand, 0.0, 2.0 * math.pi, 0.0, radius,
                                epsabs=1e-5, epsrel=1e-5)
    assert ref.family_volume(family, 0.01, radius) == pytest.approx(scale * area, abs=2e-3)
    assert ref.family_volume(family, 0.005, radius) == pytest.approx(scale * area, abs=5e-4)


@pytest.mark.parametrize("family", [("w", 5, 0.1), ("cat", 3, 0.8, 0.0),
                                    ("cat", 4, 1.0 + 0.3j, 0.2)])
def test_separable_sum_matches_cell_by_cell_sum(family):
    direct = ref.lattice_sum(lambda a: ref.family_slice(family, a), family[1], 0.01, 2.0)
    assert ref.family_volume(family, 0.01, 2.0) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("family", [("w", 3, 0.0), ("w", 6, 0.3), ("cat", 3, 0.8, 0.0),
                                    ("cat", 6, 1.2, 0.2)])
def test_envelope_tail_matches_quadrature(family):
    modes = family[1]
    scale = (2.0 / math.pi) ** modes
    if family[0] == "w":
        env = lambda r: scale * math.exp(-2 * modes * r * r) * (
            (1 - family[2]) * 4 * modes * r * r + 1)
    else:
        g = abs(math.sqrt(1 - family[3]) * family[2])
        n_plus = 2 * (1 + math.exp(-2 * modes * abs(family[2]) ** 2))
        env = lambda r: scale / n_plus * (math.exp(-2 * modes * (r - g) ** 2)
                                          + math.exp(-2 * modes * (r + g) ** 2)
                                          + 2 * math.exp(-2 * modes * r * r))
    for r in (0.5, 1.0, 1.75, 2.5):
        quad, _ = integrate.quad(lambda rho: 2 * math.pi * rho * env(rho), r, np.inf,
                                 epsabs=1e-16, epsrel=1e-12, limit=200)
        assert ref.envelope_tail(family, r) == pytest.approx(quad, rel=1e-8, abs=1e-18)


def test_trace_norm_is_the_sum_of_absolute_eigenvalues():
    a = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
    herm = a + a.conj().T
    assert ref.trace_norm(herm) == pytest.approx(
        float(np.sum(np.abs(np.linalg.eigvalsh(herm)))), rel=1e-12)


def test_sign_folded_count():
    s, t = 0.4 + 0.1j, -0.2 + 0.7j
    assert ref.sign_folded_count([0, s, t, s + t]) == 5
    assert ref.sign_folded_count(points(1, 4)[0]) == 1 + 6
    assert ref.sign_folded_count([0.0, 1.0, 2.0, 3.0]) == 4


def test_permanent_matches_the_permutation_sum():
    mat = RNG.normal(size=(5, 5))
    brute = sum(np.prod([mat[i, p[i]] for i in range(5)])
                for p in itertools.permutations(range(5)))
    assert ref.permanent(mat) == pytest.approx(brute, rel=1e-12)


def _w_amps(modes):
    return {tuple(int(j == a) for j in range(modes)): 1 / math.sqrt(modes)
            for a in range(modes)}


def _dicke_amps(modes):
    pairs = list(itertools.combinations(range(modes), 2))
    return {tuple(int(j in p) for j in range(modes)): 1 / math.sqrt(len(pairs)) for p in pairs}


@pytest.mark.parametrize("modes", [3, 4, 5])
def test_w_and_dicke_parity_match_permanents(modes):
    vac = (0,) * (modes - 2)
    assert ref.w_com_parity(modes, 0.0) == pytest.approx(
        ref.com_parity_by_permanents(_w_amps(modes), vac), abs=1e-13)
    assert ref.dicke_com_parity(modes) == pytest.approx(
        ref.com_parity_by_permanents(_dicke_amps(modes), vac), abs=1e-13)


@pytest.mark.parametrize("modes", [3, 4, 5])
def test_w_parity_off_origin_matches_dense_displaced_parity(modes):
    _, p, _ = ref.com_coordinates(modes, 0.0)
    for alpha in (0.3, 0.2 - 0.25j):
        beta = alpha * math.sqrt(p)
        op = displaced_parity(beta)
        dense = (p * np.vdot(fock(1), op @ fock(1)) + (1 - p) * op[0, 0]).real
        assert ref.w_com_parity(modes, alpha) == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("photons", [0, 1])
def test_noon_parity_matches_permanents(n, photons):
    amps = {tuple(n if j == a else 0 for j in range(3)): 1 / math.sqrt(3) for a in range(3)}
    assert ref.noon_com_parity(n, photons) == pytest.approx(
        ref.com_parity_by_permanents(amps, (photons,)), abs=1e-13)


def test_psi_constants_match_permanents():
    assert ref.PSI4_COM_PARITY == pytest.approx(
        ref.com_parity_by_permanents(ref.PSI4, (1, 1)), abs=1e-12)
    assert ref.PSI5_COM_PARITY == pytest.approx(
        ref.com_parity_by_permanents(ref.PSI5, (1, 1, 1)), abs=1e-12)
    for amps in (ref.PSI1, ref.PSI4, ref.PSI5):
        assert sum(abs(a) ** 2 for a in amps.values()) == pytest.approx(1.0, abs=1e-14)
