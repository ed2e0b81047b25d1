"""Acceptance suite: end-to-end checks of the certification toolkit.

Every test name starts with ``test_cNN_`` where NN is the number of the
acceptance criterion it belongs to; conftest.py folds the clause outcomes
into one PASS/FAIL line per criterion at the end of the run.  Each
criterion pins published reference numbers, closed forms, or cross-oracle
agreements, so a regression anywhere in the stack shows up as a named
clause failure rather than a silent drift.
"""

import math
import zlib

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq, minimize

import cvgme.cli as cli
import cvgme.families as fam
import cvgme.numerics as num
import cvgme.phase_space as ps
import cvgme.witnesses as wit
from cvgme.fock_core import MixedState, coherent_state, fock_state, tensor

SQRT_E = math.sqrt(math.e)


def wstate_slice(m, eta=0.0):
    spec = fam.w_family(m, eta=eta)
    return lambda a: fam.family_wigner_slice(spec, a)


# ---------------------------------------------------------------------------
# criterion 1: W-state 2D volumes against the closed form


@pytest.mark.parametrize("m,violates", [(3, True), (4, True), (5, True),
                                        (6, True), (7, False)])
def test_c01_wstate_volume(m, violates):
    spec = fam.w_family(m)
    closed = fam.v2d_closed_form(spec)
    assert closed == pytest.approx(4.0 / (m * SQRT_E) - 1.0 / m, abs=1e-15)
    margin = closed - wit.volume_threshold(m)
    assert (margin > 0.0) == violates, f"M={m}: margin {margin:+.6f}"
    quad = cli.v2d_quadrature(spec, 0.005, 3.0)
    assert quad == pytest.approx(closed, abs=1e-4)


# ---------------------------------------------------------------------------
# criterion 2: bisected loss thresholds of the W family


@pytest.mark.parametrize("m,target", [(3, 0.3548), (4, 0.2446),
                                      (5, 0.1522), (6, 0.0710)])
def test_c02_loss_threshold(m, target):
    thr = wit.volume_threshold(m)

    def still_violates(eta):
        return cli.v2d_quadrature(fam.w_family(m, eta=eta), 0.005) > thr

    assert still_violates(0.0)
    eta_max = num.bisect_threshold(still_violates, 0.0, 0.5, 1e-4)
    assert eta_max == pytest.approx(target, abs=5e-4)


# ---------------------------------------------------------------------------
# criterion 3: cat-state detection window and best cat size per mode count

# a cat size with a comfortably positive lossless margin for each M
_CAT_DETECTABLE = {3: 0.83, 4: 0.76, 5: 0.72, 6: 0.71, 7: 0.73, 8: 0.77, 9: 0.87}


def _cat_radius(m, gamma):
    return num.tail_radius(fam.slice_abs_envelope(fam.cat_family(m, gamma)))


@pytest.mark.parametrize("m", sorted(_CAT_DETECTABLE))
def test_c03_cat_detected_up_to_nine_modes(m):
    gamma = _CAT_DETECTABLE[m]
    spec = fam.cat_family(m, gamma)
    value = cli.v2d_quadrature(spec, 0.005, _cat_radius(m, gamma))
    assert value > wit.volume_threshold(m), f"M={m} undetected at gamma={gamma}"


def test_c03_cat_ten_modes_undetected():
    thr = wit.volume_threshold(10)
    for gamma in np.arange(0.05, 2.0 + 1e-9, 0.05):
        spec = fam.cat_family(10, gamma)
        value = cli.v2d_quadrature(spec, 0.01, _cat_radius(10, gamma))
        assert value <= thr, f"unexpected detection at gamma={gamma:.2f}"


def _cat_loss_threshold(m, gamma, radius, delta, tol):
    """Largest loss at which the quadrature volume still violates the bound."""
    thr = wit.volume_threshold(m)

    def margin(eta):
        return cli.v2d_quadrature(fam.cat_family(m, gamma, eta=eta),
                                  delta, radius) - thr

    margin0 = margin(0.0)
    if not margin0 > 0:
        return -1.0
    return num.bisect_threshold(lambda eta: margin0 if eta == 0.0 else margin(eta),
                                0.0, 0.5, tol)


def _cat_best_gamma(m):
    """Two-stage grid argmax of the loss threshold over the cat size."""
    radius = _cat_radius(m, 1.3)  # fixed per M so grids are comparable
    coarse = np.arange(0.4, 1.3 + 1e-9, 0.05)
    scores = [_cat_loss_threshold(m, g, radius, 0.01, 1e-4) for g in coarse]
    center = coarse[int(np.argmax(scores))]
    fine = np.arange(center - 0.08, center + 0.08 + 1e-9, 0.01)
    scores = [_cat_loss_threshold(m, g, radius, 0.0025, 2e-6) for g in fine]
    j = min(max(int(np.argmax(scores)), 1), len(fine) - 2)
    y0, y1, y2 = scores[j - 1], scores[j], scores[j + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(fine[j])
    # vertex of the parabola through the three best samples
    return float(fine[j] + 0.005 * (y0 - y2) / denom)


@pytest.mark.parametrize("m,target", [(3, 0.828), (4, 0.745), (5, 0.716),
                                      (6, 0.721), (7, 0.709), (8, 0.760),
                                      (9, 0.863)])
def test_c03_cat_best_size(m, target):
    assert _cat_best_gamma(m) == pytest.approx(target, abs=0.02)


# ---------------------------------------------------------------------------
# criterion 4: two-excitation Dicke volumes


@pytest.mark.parametrize("m,violates", [(3, True), (4, True), (5, True),
                                        (6, True), (7, True), (8, False)])
def test_c04_dicke_violation_sign(m, violates):
    margin = fam.v2d_closed_form(fam.dicke2_family(m)) - wit.volume_threshold(m)
    assert (margin > 0.0) == violates, f"M={m}: margin {margin:+.6f}"


def test_c04_dicke_closed_vs_quadrature():
    # the slice is radial, so integrate in r and split at the sign changes
    # (plain adaptive quadrature misreports its error across the |.| kinks)
    spec = fam.dicke2_family(3)
    radius = 3.0
    w = lambda r: fam.family_wigner_slice(spec, r)
    rr = np.linspace(0.0, radius, 4001)
    sign = np.sign(np.asarray(w(rr), dtype=float))
    roots = [brentq(w, rr[i], rr[i + 1])
             for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]]
    val, _ = integrate.quad(lambda r: abs(w(r)) * r, 0.0, radius,
                            points=roots, limit=400)
    quad = (2.0 / math.pi) * (math.pi / 2.0) ** 3 * 2.0 * math.pi * val
    assert quad == pytest.approx(fam.v2d_closed_form(spec), abs=1e-6)


def test_c04_dicke_reference_value():
    assert fam.v2d_closed_form(fam.dicke2_family(3)) == pytest.approx(
        0.389205, abs=1e-5)


# ---------------------------------------------------------------------------
# criterion 5: asymmetric three-mode superpositions


def _psi_volume(name):
    return cli.v2d_quadrature(fam.psi_family(name), 0.005)


@pytest.mark.parametrize("name,lo,hi", [("psi1", 0.440, 0.450),
                                        ("psi2", 0.419, 0.429)])
def test_c05_asymmetric_volume_band(name, lo, hi):
    value = _psi_volume(name)
    assert lo <= value <= hi, f"{name}: volume {value:.7f} outside [{lo}, {hi}]"


@pytest.mark.parametrize("name", ["psi1", "psi2"])
def test_c05_asymmetric_certified(name):
    thr = wit.volume_threshold(3)
    assert thr == pytest.approx(0.5 / math.sqrt(2.0), abs=1e-15)
    assert _psi_volume(name) > thr


# ---------------------------------------------------------------------------
# criterion 6: rigorous grid integration for W(3) at unit energy


@pytest.mark.slow
def test_c06_rigorous_certifies_at_fine_grid():
    grid = num.disc_grid(0.005, 0.9, energy_bound=1.0)
    rep = wit.witness_a(wstate_slice(3), grid, 3)
    assert rep.params["error_kind"] == "rigorous"
    assert rep.rigorous_error == num.rigorous_error(grid, 3, 1.0)
    assert rep.certified


@pytest.mark.parametrize("delta", [0.0065, 0.01])
def test_c06_rigorous_fails_at_coarse_grid(delta):
    # together with the fine-grid clause this brackets the certification
    # boundary inside [0.0050, 0.0065]
    grid = num.disc_grid(delta, 0.9, energy_bound=1.0)
    rep = wit.witness_a(wstate_slice(3), grid, 3)
    assert not rep.certified


def test_c06_heuristic_error_small():
    grid = num.disc_grid(0.05, 1.0)
    rep = wit.witness_a(wstate_slice(3), grid, 3)
    assert rep.params["error_kind"] == "heuristic"
    assert rep.params["heuristic_error"] < 0.02


# ---------------------------------------------------------------------------
# criterion 7: optimized settings-matrix witness

_B_BUDGET = num.OptimizerBudget(restarts=64, max_evals=2000, seed=0)


def test_c07_lossy_w_four_points():
    rep = wit.optimize_witness_b(fam.w_family(3, eta=0.03), 4, _B_BUDGET)
    assert rep.certified
    assert rep.n_settings <= 5
    assert rep.value == pytest.approx(1.0683364156772102, abs=1e-6)


def test_c07_lossy_w_eight_points_quarter_loss():
    rep = wit.optimize_witness_b(fam.w_family(3, eta=0.25), 8, _B_BUDGET)
    assert rep.value > rep.threshold + wit.GUARD, (
        "W(3) at 25% loss not certified with 8 points: "
        f"reached {rep.value:.9f} vs threshold {rep.threshold:.9f}")
    assert rep.certified


def test_c07_cat_five_settings():
    # point sets {0, s, t, s+t} measure at most 5 distinct differences;
    # maximize the witness over that constrained family using the plateau
    # surrogate (the raw trace norm is flat across the PSD region)
    spec = fam.cat_family(3, 1.0, eta=0.1)
    entry = lambda xi: fam.family_c_entry(spec, xi)
    objective = wit.settings_objective(entry)
    threshold = wit.settings_threshold(3)

    def xi_of(x):
        return np.array([0.0, x[0] + 1j * x[2], x[1] + 1j * x[3],
                         (x[0] + x[1]) + 1j * (x[2] + x[3])])

    surrogate = lambda x: objective(xi_of(x))
    neg = lambda x: -surrogate(x)
    rng = np.random.default_rng(0)
    u = rng.random((48, 2, 2))
    inits = 1.2 * np.sqrt(u[..., 0]) * np.exp(2j * math.pi * u[..., 1])
    best_val, best_x = -np.inf, None
    options = {"maxfev": 1500, "xatol": 1e-8, "fatol": 1e-8}
    for z in inits:
        x0 = np.array([z[0].real, z[1].real, z[0].imag, z[1].imag])
        if surrogate(x0) > best_val:
            best_val, best_x = surrogate(x0), x0
        for _ in range(2):
            res = minimize(neg, x0, method="Nelder-Mead", options=options)
            x0 = res.x
            if -res.fun > best_val:
                best_val, best_x = -res.fun, res.x

    assert wit.distinct_settings(xi_of(best_x)) <= 5
    value = wit.trace_norm_hermitian(wit.build_settings_matrix(entry, xi_of(best_x)))
    assert value > threshold + wit.GUARD, (
        "no 5-setting certification found for cat(3, gamma=1, eta=0.1): "
        f"sup {value:.9f} vs threshold {threshold:.9f}")


@pytest.mark.parametrize("make_specs", [
    lambda: (fam.cat_family(3, 0.9, eta=0.12),
             fam.cat_family(1, math.sqrt(3.0) * 0.9, eta=0.12)),
    lambda: (fam.w_family(3, eta=0.15), fam.w_family(1, eta=0.15)),
], ids=["cat", "w"])
def test_c07_mode_count_invariance(make_specs):
    # the M-mode settings matrix equals the single-mode one at rescaled
    # points, so optimization cost is independent of M
    many, one = make_specs()
    rng = np.random.default_rng(31)
    xi = rng.normal(scale=0.6, size=6) + 1j * rng.normal(scale=0.6, size=6)
    c_many = wit.build_settings_matrix(lambda d: fam.family_c_entry(many, d), xi)
    c_one = wit.build_settings_matrix(lambda d: fam.family_c_entry(one, d),
                                      math.sqrt(3.0) * xi)
    assert np.abs(c_many - c_one).max() < 1e-12


# ---------------------------------------------------------------------------
# criterion 8: smoothed-parity point values against the brute-force oracle

_HALF_PI = math.pi / 2.0


def _oracle(spec, kernel, alpha, **kwargs):
    state = fam.family_fock_expansion(spec)
    return wit.witness_c(state, kernel, alpha, **kwargs).value / _HALF_PI


def test_c08_dicke_single_photon_kernel():
    rep = wit.witness_c(fam.family_fock_expansion(fam.dicke2_family(3)),
                        fam.fock_kernel(1, 1), 0.0)
    assert rep.value == pytest.approx(-0.25, abs=1e-12)
    assert rep.value / _HALF_PI == pytest.approx(
        fam.family_smoothed_wigner(fam.dicke2_family(3), fam.fock_kernel(1, 1), 0.0),
        abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_c08_noon_parity_matched_kernel(n):
    kernel = fam.fock_kernel(1, (1 + (-1) ** n) // 2)
    closed = -(2.0 ** -n / math.pi) * (2.0 if n % 2 else n - 3.0)
    value = _oracle(fam.noon3_family(n), kernel, 0.0)
    assert value == pytest.approx(closed, abs=1e-10)
    assert (value >= 0.0) == (n == 2)


def test_c08_psi1_off_origin():
    value = _oracle(fam.psi_family("psi1"), fam.vacuum_kernel(1), 0.3)
    assert value == pytest.approx(-0.17, abs=0.005)


def test_c08_psi4_reference_radical():
    reference = -(139.0 * math.sqrt(3.0) - 144.0) / (512.0 * math.pi)
    value = _oracle(fam.psi_family("psi4"), fam.fock_kernel(2, 1), 0.0)
    assert value == pytest.approx(reference, abs=1e-10), (
        f"oracle {value:.12f} vs tabulated radical {reference:.12f}")


def test_c08_psi5_oracle():
    value = _oracle(fam.psi_family("psi5"), fam.fock_kernel(3, 1), 0.0)
    assert value == pytest.approx(fam.PSI5_SMOOTHED_AT_ORIGIN, abs=1e-10)


# ---------------------------------------------------------------------------
# criterion 9: randomized collective-parity sampling

_SPREAD = ((1.0 / 36.0, 0.0), (0.0, 1.0 / 36.0))


def test_c09_monte_carlo_mean_and_certification():
    scheme = wit.RandomDisplacementScheme(0.0, _SPREAD, 3)
    rep = wit.witness_d(fam.w_family(3), scheme, 100_000, seed=7)
    assert rep.value == pytest.approx(-0.375, abs=3 * rep.stderr)
    assert rep.certified


def test_c09_quadrature_oracle():
    spec = fam.w_family(3)
    s2 = 1.0 / 36.0
    root_m = math.sqrt(3.0)

    def integrand(y, x):
        weight = math.exp(-(x * x + y * y) / (2.0 * s2)) / (2.0 * math.pi * s2)
        return weight * _HALF_PI * fam.family_com_wigner(spec, -root_m * (x + 1j * y))

    mean, _ = integrate.dblquad(integrand, -1.5, 1.5, -1.5, 1.5)
    assert mean == pytest.approx(-0.375, abs=1e-6)


def test_c09_rejects_narrow_covariance():
    # spreads tighter than (M-2)/(4 M^2) would fake negativity on separable
    # states, so the scheme constructor must turn them away
    bound = (3 - 2) / (4.0 * 9.0)
    with pytest.raises(ValueError, match="soundness"):
        wit.RandomDisplacementScheme(0.0, ((0.9 * bound, 0.0), (0.0, 0.9 * bound)), 3)


# ---------------------------------------------------------------------------
# criterion 10: kernel-matrix witness

_E_BUDGET = num.OptimizerBudget(restarts=24, max_evals=1500, seed=0)


def test_c10_lossless_w_needs_six_points():
    rep5 = wit.optimize_witness_e(fam.w_family(3), fam.vacuum_kernel(1), 5, _E_BUDGET)
    assert not rep5.certified
    assert rep5.value <= 1.0 + 1e-9
    rep6 = wit.optimize_witness_e(fam.w_family(3), fam.vacuum_kernel(1), 6, _E_BUDGET)
    assert rep6.certified
    assert rep6.value > 1.0015


@pytest.mark.parametrize("zeta,certifies", [(0.25, True), (0.30, False),
                                            (0.40, False), (0.50, False),
                                            (0.55, False)])
def test_c10_mixedness_boundary(zeta, certifies):
    # the witness needs the centre-of-mass purity above 1/2; in this scan the
    # last certified point sits at zeta = 0.25, well below that hard wall
    eta = cli.zeta_to_eta(zeta, 3)
    rep = wit.optimize_witness_e(fam.w_family(3, eta=eta), fam.vacuum_kernel(1),
                                 6, _E_BUDGET)
    assert rep.certified == certifies, (
        f"zeta={zeta}: value {rep.value:.9f} vs threshold {rep.threshold:.9f}")


def test_c10_cat_kernel_scan():
    s_values = np.arange(0.2, 1.2 + 1e-9, 0.005)
    values = cli.kernel_scan_values(fam.cat_family(3, 1.0), s_values)
    window = s_values[values > 1.0 + wit.GUARD]
    assert window.size > 0
    assert window[0] == pytest.approx(0.33, abs=0.02)
    assert window[-1] == pytest.approx(0.91, abs=0.02)
    k = int(np.argmax(values))
    assert values[k] == pytest.approx(1.059, abs=0.005)
    assert s_values[k] == pytest.approx(0.535, abs=0.01)


# ---------------------------------------------------------------------------
# criterion 11: closed forms against the truncated-Fock oracle


def _stable_rng(key):
    return np.random.default_rng(zlib.crc32(key.encode()))


_ORACLE_SPECS = {
    "w3": (fam.w_family(3), True),
    "w3-lossy": (fam.w_family(3, eta=0.2), True),
    "w4": (fam.w_family(4), True),
    "cat3": (fam.cat_family(3, 0.9), True),
    "cat3-lossy": (fam.cat_family(3, 1.0, eta=0.1), True),
    "dicke2-3": (fam.dicke2_family(3), False),
    "dicke2-4": (fam.dicke2_family(4), False),
    "psi1": (fam.psi_family("psi1"), False),
    "psi2": (fam.psi_family("psi2"), False),
}


@pytest.mark.parametrize("key", sorted(_ORACLE_SPECS))
def test_c11_slice_and_entry_match_oracle(key):
    spec, has_entry = _ORACLE_SPECS[key]
    state = fam.family_fock_expansion(spec)
    slice_spec = ps.diagonal_slice(spec.modes)
    rng = _stable_rng(key)
    points = rng.normal(scale=0.6, size=20) + 1j * rng.normal(scale=0.6, size=20)
    for a in points:
        assert fam.family_wigner_slice(spec, a) == pytest.approx(
            ps.wigner_slice_point(state, slice_spec, a), abs=1e-8)
    if has_entry:
        for x in points:
            assert fam.family_c_entry(spec, x) == pytest.approx(
                ps.characteristic_point(state, [x] * spec.modes), abs=1e-8)


_SMOOTHED_COMBOS = {
    "w3-vacuum": (fam.w_family(3), fam.vacuum_kernel(1), False),
    "w3-lossy-vacuum": (fam.w_family(3, eta=0.2), fam.vacuum_kernel(1), False),
    "dicke2-fock1": (fam.dicke2_family(3), fam.fock_kernel(1, 1), False),
    "dicke2-vacuum": (fam.dicke2_family(3), fam.vacuum_kernel(1), False),
    "psi1-vacuum": (fam.psi_family("psi1"), fam.vacuum_kernel(1), False),
    "psi2-vacuum": (fam.psi_family("psi2"), fam.vacuum_kernel(1), False),
    "psi4-fock1": (fam.psi_family("psi4"), fam.fock_kernel(2, 1), True),
    "noon2-fock1": (fam.noon3_family(2), fam.fock_kernel(1, 1), True),
    "noon3-vacuum": (fam.noon3_family(3), fam.vacuum_kernel(1), True),
    "noon4-fock1": (fam.noon3_family(4), fam.fock_kernel(1, 1), True),
}


@pytest.mark.parametrize("key", sorted(_SMOOTHED_COMBOS))
def test_c11_smoothed_matches_oracle(key):
    spec, kernel, origin_only = _SMOOTHED_COMBOS[key]
    state = fam.family_fock_expansion(spec)
    if origin_only:
        points = [0.0 + 0.0j]
    else:
        rng = _stable_rng(key)
        points = np.concatenate([
            [0.0 + 0.0j],
            rng.normal(scale=0.4, size=4) + 1j * rng.normal(scale=0.4, size=4)])
    for a in points:
        oracle = wit.witness_c(state, kernel, a, max_photons=12).value / _HALF_PI
        assert fam.family_smoothed_wigner(spec, kernel, a) == pytest.approx(
            oracle, abs=1e-8)


# ---------------------------------------------------------------------------
# criterion 12: no witness certifies separable benchmark states

_COH = 0.6  # per-mode coherent amplitude of the separable benchmarks


def _chi_coherent(xi):
    # three equal coherent modes at equal displacement
    return np.exp(-1.5 * np.abs(xi) ** 2) * np.exp(3.0 * _COH * (xi - np.conj(xi)))


def _chi_ones(xi):
    u = np.abs(xi) ** 2
    return (np.exp(-u / 2.0) * (1.0 - u)) ** 3


def _chi_mix(xi):
    return 0.5 * (_chi_coherent(xi) + _chi_ones(xi))


def test_c12_settings_witnesses_sound():
    kernel = fam.vacuum_kernel(1)
    rng = np.random.default_rng(2026)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        xi = rng.normal(scale=0.7, size=n) + 1j * rng.normal(scale=0.7, size=n)
        for entry in (_chi_coherent, _chi_ones, _chi_mix):
            assert not wit.witness_b(entry, xi, 3).certified
            assert not wit.witness_e(entry, xi, kernel, 3).certified


def test_c12_benchmark_entries_match_truncated_oracle():
    states = {
        _chi_coherent: tensor(tensor(coherent_state(_COH, 8),
                                     coherent_state(_COH, 8)),
                              coherent_state(_COH, 8)),
        _chi_ones: fock_state((1, 1, 1)),
    }
    rng = np.random.default_rng(5)
    xi = rng.normal(scale=0.7, size=5) + 1j * rng.normal(scale=0.7, size=5)
    for entry, state in states.items():
        for x in xi:
            assert entry(x) == pytest.approx(
                ps.characteristic_point(state, [x] * 3), abs=1e-6)


def test_c12_slice_witness_sound():
    scale = (2.0 / math.pi) ** 3
    coherent = lambda a: scale * np.exp(-6.0 * np.abs(a - 0.5) ** 2)

    def ones(a):
        u = np.abs(a) ** 2
        return scale * ((4.0 * u - 1.0) * np.exp(-2.0 * u)) ** 3

    mixture = lambda a: 0.5 * (coherent(a) + ones(a))
    grid = num.disc_grid(0.01, 3.0)
    for slice_fn in (coherent, ones, mixture):
        rep = wit.witness_a(slice_fn, grid, 3)
        assert not rep.certified


def test_c12_parity_witness_sound():
    coherent = tensor(tensor(coherent_state(0.5, 4), coherent_state(0.5, 4)),
                      coherent_state(0.5, 4))
    ones = fock_state((1, 1, 1), cutoff=4)
    states = (coherent, ones,
              MixedState(((0.5, coherent), (0.5, ones))))
    for state in states:
        for alpha in (0.0, 0.3, 0.2 - 0.4j):
            rep = wit.witness_c(state, fam.vacuum_kernel(1), alpha, max_photons=12)
            assert rep.value > 0.0
            assert not rep.certified


def test_c12_sampling_witness_sound():
    # positive centre-of-mass Wigner function: the estimator must stay positive
    gaussian = lambda y: (2.0 / math.pi) * np.exp(-2.0 * np.abs(y) ** 2)
    scheme = wit.RandomDisplacementScheme(0.0, _SPREAD, 3)
    rep = wit.witness_d(gaussian, scheme, 20_000, seed=11)
    assert rep.value > 0.0
    assert not rep.certified
