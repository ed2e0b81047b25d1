"""Checks for displacement / multiport / loss machinery.

The displacement matrix elements are compared against a dense matrix
exponential of beta*adag - conj(beta)*a, which is an independent route to
the same operator, and against 60-digit mpmath values of the Laguerre closed
form where double-precision closed forms break down.  Linear optics on Fock
inputs is compared against matrix permanents.  Property tests check the
dense characteristic and Wigner points of random few-photon states against
the same matrix exponential.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cvgme import fock_core as fc
from cvgme import gaussian_ops as go
from cvgme import phase_space as ps


def dense_displacement(beta, dim):
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    return expm(beta * a.conj().T - np.conj(beta) * a)


@pytest.mark.parametrize("beta", [0.3, -0.7 + 0.2j, 1.1j, 0.05 - 0.9j])
def test_matrix_element_against_expm(beta):
    dim = 24
    dense = dense_displacement(beta, dim)
    for m in range(8):
        for n in range(8):
            got = go.displacement_matrix_element(m, n, beta)
            assert got == pytest.approx(dense[m, n], abs=1e-10)


@pytest.mark.parametrize("beta", [0.3, -0.7 + 0.2j, 2.5j])
def test_displacement_matrix_against_expm(beta):
    # a 96-level exponential is exact to double precision on the low 12 levels
    np.testing.assert_allclose(go.displacement_matrix(beta, 12),
                               dense_displacement(beta, 96)[:12, :12], atol=1e-12)


def _mpmath_element(mp, m, n, beta):
    """<m|D(beta)|n> by the Laguerre closed form at the working precision."""
    beta = mp.mpc(beta)
    if m < n:
        return mp.conj(_mpmath_element(mp, n, m, -beta))
    x = abs(beta) ** 2
    return (mp.sqrt(mp.factorial(n) / mp.factorial(m)) * beta ** (m - n)
            * mp.exp(-x / 2) * mp.laguerre(n, m - n, x))


@pytest.mark.parametrize("beta", [10.0, 7.0 * np.exp(0.4j), 25j, 36.5,
                                  37.5 * np.exp(-2.2j), 2.0, 0.3 - 0.2j, 5e-3])
def test_displacement_matrix_large_indices_against_mpmath(beta):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 60
    mat = go.displacement_matrix(beta, 301)
    for m in (0, 1, 37, 120, 200, 300):
        for n in (0, 3, 10, 57, 150, 200, 300):
            want = complex(_mpmath_element(mp, m, n, beta))
            if abs(want) < 1e-300:  # below the normal double range
                assert abs(mat[m, n]) < 1e-300
                continue
            assert abs(mat[m, n] - want) <= 1e-10 * abs(want), (m, n)


def test_matrix_element_far_from_diagonal():
    # sqrt(n!/m!) alone underflows here; the value itself is ordinary
    got = go.displacement_matrix_element(200, 10, 10.0)
    assert got == pytest.approx(1.2832628947499391e-3, rel=1e-10)


@pytest.mark.parametrize("beta", [38.0, 30.0 + 25.0j, float("inf")])
def test_displacement_matrix_rejects_underflowing_amplitude(beta):
    with pytest.raises(ValueError, match="out of range"):
        go.displacement_matrix(beta, 4)


def _displacement_matrix_reference(beta, dim):
    """The displacement block as built before its per-dim tables were cached."""
    beta = complex(beta)
    x = beta.real * beta.real + beta.imag * beta.imag
    if x == 0.0:
        return np.eye(dim, dtype=complex)
    k = np.arange(dim, dtype=float)
    f = np.empty((dim, dim))
    log_factorial = np.fromiter(map(math.lgamma, range(1, dim + 1)), float, dim)
    f[0] = np.exp(0.5 * k * math.log(x) - 0.5 * log_factorial - 0.5 * x)
    if dim > 1:
        f[1] = f[0] * (1.0 + k - x) / np.sqrt(k + 1.0)
    for n in range(1, dim - 1):
        f[n + 1] = ((2 * n + 1 + k - x) * f[n] - np.sqrt(n * (n + k)) * f[n - 1]) / (
            np.sqrt((n + 1) * (n + k + 1))
        )
    n_idx, k_idx = np.nonzero(np.add.outer(k, k) < dim)
    vals = f[n_idx, k_idx]
    phase = np.exp(1j * math.atan2(beta.imag, beta.real) * k)[k_idx]
    out = np.empty((dim, dim), dtype=complex)
    out[n_idx + k_idx, n_idx] = phase * vals
    out[n_idx, n_idx + k_idx] = (-1.0) ** k_idx * phase.conj() * vals
    return out


_BETAS = [0.0, 5e-3, 0.3, -0.45 + 0.2j, 0.9j, 1.7 * np.exp(2.4j), -3.0, 6.5 - 4.0j,
          20.0j, 36.5, 37.5 * np.exp(-2.2j)]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_displacement_matrix_bits_match_the_uncached_build(warm):
    for dim in range(1, 41):
        for beta in _BETAS:
            if not warm:
                go._displacement_tables.cache_clear()
            got = go.displacement_matrix(beta, dim)
            want = _displacement_matrix_reference(beta, dim)
            assert np.array_equal(got, want), (beta, dim)
            assert np.array_equal(np.signbit(got.view(float)),
                                  np.signbit(want.view(float))), (beta, dim)


def test_displacement_tables_are_read_only():
    for table in go._displacement_tables(5):
        with pytest.raises(ValueError):
            table[0] = 1


@st.composite
def _mode_matrices_and_array(draw):
    modes = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 4), min_size=modes, max_size=modes))
    rows = draw(st.lists(st.integers(1, 4), min_size=modes, max_size=modes))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    mats = [rng.normal(size=(r, d)) + 1j * rng.normal(size=(r, d))
            for r, d in zip(rows, dims)]
    return arr, mats


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_mode_matrices_and_array())
def test_apply_mode_matrices_is_the_kronecker_product(case):
    arr, mats = case
    got = go.apply_mode_matrices(arr, mats)
    kron = np.ones((1, 1))
    for mat in mats:
        kron = np.kron(kron, mat)
    want = (kron @ arr.ravel()).reshape(tuple(mat.shape[0] for mat in mats))
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_apply_displacement_refuses_oversized_tensor():
    # 8 modes at working cutoff 14 would be 15^8 entries
    with pytest.raises(go.ResourceLimitError):
        go.apply_displacement(fc.vacuum(8, 4), 1.0)


def test_matrix_element_zero_displacement():
    assert go.displacement_matrix_element(4, 4, 0.0) == 1.0
    assert go.displacement_matrix_element(4, 2, 0.0) == 0.0


def test_apply_displacement_on_vacuum_gives_coherent():
    st = go.apply_displacement(fc.vacuum(1, 0), 0.8 - 0.3j)
    ref = fc.coherent_state(0.8 - 0.3j, cutoff=st.cutoff)
    assert st.amps == pytest.approx(ref.amps, abs=1e-10)


def test_displacement_composition_phase():
    # D(a) D(b) = exp((a conj(b) - conj(a) b)/2) D(a+b)
    a, b = 0.5 + 0.2j, -0.3 + 0.4j
    st = fc.fock_state((1,))
    two_step = go.apply_displacement(go.apply_displacement(st, b), a)
    one_step = go.apply_displacement(st, a + b)
    phase = np.exp((a * np.conj(b) - np.conj(a) * b) / 2)
    cut = max(one_step.cutoff, two_step.cutoff)
    ov = fc.inner_product(one_step.with_cutoff(cut), two_step.with_cutoff(cut))
    assert ov == pytest.approx(phase, abs=1e-7)


def test_displacement_mean_energy():
    # displacing |2> by beta adds |beta|^2 photons
    st = go.apply_displacement(fc.fock_state((2,)), 0.3)
    assert fc.mean_photon_number(st) == pytest.approx(2 + 0.09, abs=1e-8)


def test_displacement_per_mode_broadcast():
    st = go.apply_displacement(fc.vacuum(2, 0), 0.4)
    ref = go.apply_displacement(fc.vacuum(2, 0), [0.4, 0.4])
    np.testing.assert_array_equal(st.amps, ref.amps)


def test_cutoff_error_on_unrepresentable_displacement():
    # the automatic headroom targets low-lying states; a high Fock state
    # pushed far enough must fail loudly instead of silently truncating
    with pytest.raises(go.CutoffError):
        go.apply_displacement(fc.fock_state((12,)), 2.5)


def test_apply_linear_optical_two_mode_hong_ou_mandel():
    # 50:50 splitter on |1,1> kills the coincidence term
    u = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    out = go.apply_linear_optical(u, fc.fock_state((1, 1)))
    assert abs(out.amps[1, 1]) < 1e-12
    assert abs(out.amps[2, 0]) ** 2 == pytest.approx(0.5)
    assert abs(out.amps[0, 2]) ** 2 == pytest.approx(0.5)


def test_apply_linear_optical_preserves_norm_and_photons():
    u = 0.5 * np.ones((4, 4)) - np.eye(4)  # the balanced multiport -(I - (2/M)J)
    st = fc.fock_state((2, 1, 0, 1))
    out = go.apply_linear_optical(u, st)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    assert all(sum(k) == 4 for k in np.argwhere(out.amps).tolist())


def test_apply_linear_optical_rejects_nonunitary():
    with pytest.raises(ValueError):
        go.apply_linear_optical(np.ones((2, 2)), fc.fock_state((1, 0)))


def test_apply_linear_optical_budget():
    with pytest.raises(go.ResourceLimitError):
        go.apply_linear_optical(
            np.array([[0.0, -1.0], [-1.0, 0.0]]), fc.fock_state((5, 5)), max_photons=8
        )


def _permanent(mat):
    n = mat.shape[0]
    return sum(math.prod(mat[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def _occupied_modes(occupation):
    """Mode indices, each repeated by its photon count."""
    return [m for m, n in enumerate(occupation) for _ in range(n)]


@st.composite
def _unitary_and_fock_input(draw):
    """A random unitary (QR of a complex Gaussian) and a Fock input of <= 4 photons."""
    modes = draw(st.integers(1, 4))
    occupation = []
    for _ in range(modes):
        occupation.append(draw(st.integers(0, 4 - sum(occupation))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(modes, modes))
                        + 1j * rng.normal(size=(modes, modes)))
    return q, tuple(draw(st.permutations(occupation)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_unitary_and_fock_input())
def test_apply_linear_optical_matches_permanents(case):
    # <m|U|n> = perm(U[rows m, cols n]) / sqrt(PROD n_i! PROD m_j!)
    # (Scheel, arXiv:quant-ph/0406127)
    u, occupation = case
    photons = sum(occupation)
    got = go.apply_linear_optical(u, fc.fock_state(occupation)).with_cutoff(photons)
    cols = _occupied_modes(occupation)
    norm_in = math.prod(map(math.factorial, occupation))
    want = np.zeros(got.amps.shape, dtype=complex)
    for out in np.ndindex(want.shape):
        if sum(out) == photons:
            sub = u[np.ix_(_occupied_modes(out), cols)]
            want[out] = _permanent(sub) / math.sqrt(
                norm_in * math.prod(map(math.factorial, out)))
    np.testing.assert_allclose(got.amps, want, rtol=0, atol=1e-12)


def test_amplitude_damping_single_photon():
    out = go.apply_amplitude_damping(fc.fock_state((1,)), 0.3)
    occupied = [(w, k) for w, b in fc.as_ensemble(out) for k in np.argwhere(b.amps).tolist()]
    probs = {tuple(k): w for w, k in occupied}
    weights = {k[0]: w for w, k in occupied}
    assert weights[1] == pytest.approx(0.7)
    assert weights[0] == pytest.approx(0.3)
    assert probs  # branches are normalized pure states


def test_amplitude_damping_composition():
    # losing eta1 then eta2 equals a single loss of 1-(1-eta1)(1-eta2)
    st = fc.fock_state((2,))
    once = go.apply_amplitude_damping(st, 1 - 0.8 * 0.9)
    twice = go.apply_amplitude_damping(
        go.apply_amplitude_damping(st, 0.2), 0.1
    )

    def number_dist(mix):
        return sum(w * np.abs(b.amps) ** 2 for w, b in fc.as_ensemble(mix))

    assert number_dist(once) == pytest.approx(number_dist(twice), abs=1e-12)


def test_amplitude_damping_keeps_w_state_structure():
    # the single-photon W state decays to {1-eta: W, eta: vacuum} exactly
    amps = np.zeros((2, 2, 2))
    amps[1, 0, 0] = amps[0, 1, 0] = amps[0, 0, 1] = 1 / math.sqrt(3)
    w3 = fc.PureState(amps)
    out = go.apply_amplitude_damping(w3, 0.35)
    ens = fc.as_ensemble(out)
    assert len(ens) == 2
    by_photons = {round(fc.mean_photon_number(b)): w for w, b in ens}
    assert by_photons[1] == pytest.approx(0.65)
    assert by_photons[0] == pytest.approx(0.35)


def test_amplitude_damping_eta_zero_identity():
    st = fc.fock_state((1, 2))
    out = go.apply_amplitude_damping(st, 0.0)
    (w0, b0), = fc.as_ensemble(out)
    assert w0 == pytest.approx(1.0)
    np.testing.assert_array_equal(b0.amps, st.amps)


def test_parity_expectation():
    assert go.parity_expectation(fc.fock_state((1, 1))) == pytest.approx(1.0)
    assert go.parity_expectation(fc.fock_state((1, 0))) == pytest.approx(-1.0)
    st = fc.coherent_state(0.6, cutoff=20)
    # <Pi> for |gamma> is exp(-2|gamma|^2)
    assert go.parity_expectation(st) == pytest.approx(math.exp(-0.72), abs=1e-10)


# ---------------------------------------------------------------------------
# dense characteristic and Wigner points against the matrix exponential

_EXPM_DIM = 80  # exact to double precision on the low levels for |beta| <= 3


@st.composite
def few_photon_states(draw):
    """A random 1-3 mode pure state or mixture, at most 3 photons per mode."""
    modes = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 4 if modes < 3 else 3))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    branches = []
    for _ in range(draw(st.integers(1, 3))):
        vec = np.array(draw(st.lists(parts, min_size=2 * dim ** modes,
                                     max_size=2 * dim ** modes)))
        vec = vec[0::2] + 1j * vec[1::2]
        if np.linalg.norm(vec) < 0.1:
            vec[0] += 1.0
        vec /= np.linalg.norm(vec)
        weight = draw(st.floats(0.1, 1.0))
        branches.append((weight, fc.PureState(vec.reshape((dim,) * modes))))
    total = sum(w for w, _ in branches)
    if len(branches) == 1:
        return branches[0][1]
    return fc.MixedState(tuple((w / total, b) for w, b in branches))


def _phase_points(modes, radius):
    part = st.floats(-radius, radius, allow_nan=False)
    pair = st.tuples(part, part).map(lambda p: complex(*p))
    return st.lists(pair, min_size=modes, max_size=modes)


def _expm_expectation(state, blocks):
    """SUM_w weight_w <psi_w| kron(blocks) |psi_w> on flattened amplitudes."""
    op = np.ones((1, 1))
    for block in blocks:
        op = np.kron(op, block)
    total = 0.0
    for w, pure in fc.as_ensemble(state):
        vec = pure.amps.ravel()
        total += w * np.vdot(vec, op @ vec)
    return total


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_characteristic_point_matches_expm(data):
    state = data.draw(few_photon_states())
    xis = data.draw(_phase_points(state.modes, 2.0))
    dim = state.cutoff + 1
    want = _expm_expectation(
        state, [dense_displacement(x, _EXPM_DIM)[:dim, :dim] for x in xis])
    assert abs(ps.characteristic_point(state, xis) - want) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_wigner_point_matches_expm(data):
    state = data.draw(few_photon_states())
    alphas = data.draw(_phase_points(state.modes, 1.0))
    dim = state.cutoff + 1
    parity = np.diag(np.where(np.arange(_EXPM_DIM) % 2, -1.0, 1.0))
    blocks = []
    for a in alphas:
        disp = dense_displacement(a, _EXPM_DIM)
        # the displaced parity D(alpha) Pi D(alpha)^dagger, without the
        # Pi D(-2 alpha) identity the oracle relies on
        blocks.append((disp @ parity @ disp.conj().T)[:dim, :dim])
    want = (2.0 / math.pi) ** state.modes * _expm_expectation(state, blocks).real
    assert abs(ps.wigner_point(state, alphas) - want) < 1e-10
