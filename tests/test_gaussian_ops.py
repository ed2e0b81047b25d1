"""Checks for displacement / multiport / loss machinery.

The displacement matrix elements are compared against a dense matrix
exponential of beta*adag - conj(beta)*a, which is an independent route to
the same operator, and against 60-digit mpmath values of the Laguerre closed
form where double-precision closed forms break down.  Property tests check
the dense characteristic and Wigner points of random few-photon states
against the same matrix exponential.
"""

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
    for key in ref.amps:
        assert st.amps.get(key, 0.0) == pytest.approx(ref.amps[key], abs=1e-10)


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
    assert st.amps.keys() == ref.amps.keys()


def test_cutoff_error_on_unrepresentable_displacement():
    # the automatic headroom targets low-lying states; a high Fock state
    # pushed far enough must fail loudly instead of silently truncating
    with pytest.raises(go.CutoffError):
        go.apply_displacement(fc.fock_state((12,)), 2.5)


@pytest.mark.parametrize("m", [2, 3, 5, 8, 16])
def test_beamsplitter_matrix_unitary_involution(m):
    for sign in (+1, -1):
        u = go.beamsplitter_matrix(m, sign)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(m), atol=1e-12)
        # the multiport is its own inverse
        np.testing.assert_allclose(u @ u, np.eye(m), atol=1e-12)


def test_beamsplitter_matrix_sign_row():
    u = go.beamsplitter_matrix(3, "+")
    np.testing.assert_allclose(u, np.eye(3) - (2.0 / 3.0) * np.ones((3, 3)),
                               atol=1e-15)
    np.testing.assert_allclose(go.beamsplitter_matrix(3, "-"), -u, atol=1e-15)


def test_beamsplitter_needs_two_modes():
    with pytest.raises(fc.DimensionError):
        go.beamsplitter_matrix(1)


def test_apply_linear_optical_two_mode_hong_ou_mandel():
    # 50:50 splitter on |1,1> kills the coincidence term
    u = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    out = go.apply_linear_optical(u, fc.fock_state((1, 1)))
    assert abs(out.amps.get((1, 1), 0.0)) < 1e-12
    assert abs(out.amps[(2, 0)]) ** 2 == pytest.approx(0.5)
    assert abs(out.amps[(0, 2)]) ** 2 == pytest.approx(0.5)


def test_apply_linear_optical_preserves_norm_and_photons():
    u = go.beamsplitter_matrix(4, -1)
    st = fc.fock_state((2, 1, 0, 1))
    out = go.apply_linear_optical(u, st)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    assert all(sum(k) == 4 for k in out.amps)


def test_apply_linear_optical_rejects_nonunitary():
    with pytest.raises(ValueError):
        go.apply_linear_optical(np.ones((2, 2)), fc.fock_state((1, 0)))


def test_apply_linear_optical_budget():
    with pytest.raises(go.ResourceLimitError):
        go.apply_linear_optical(
            go.beamsplitter_matrix(2), fc.fock_state((5, 5)), max_photons=8
        )


def test_amplitude_damping_single_photon():
    out = go.apply_amplitude_damping(fc.fock_state((1,)), 0.3)
    probs = {tuple(k): w for w, b in fc.as_ensemble(out) for k in b.amps}
    weights = {k[0]: w for w, b in fc.as_ensemble(out) for k in b.amps}
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
        out = {}
        for w, b in fc.as_ensemble(mix):
            for k, amp in b.amps.items():
                out[k] = out.get(k, 0.0) + w * abs(amp) ** 2
        return out

    d1, d2 = number_dist(once), number_dist(twice)
    for k in set(d1) | set(d2):
        assert d1.get(k, 0.0) == pytest.approx(d2.get(k, 0.0), abs=1e-12)


def test_amplitude_damping_keeps_w_state_structure():
    # the single-photon W state decays to {1-eta: W, eta: vacuum} exactly
    amps = {(1, 0, 0): 1 / math.sqrt(3), (0, 1, 0): 1 / math.sqrt(3),
            (0, 0, 1): 1 / math.sqrt(3)}
    w3 = fc.PureState(3, 1, amps)
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
    assert b0.amps.keys() == st.amps.keys()


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
        amps = dict(zip(np.ndindex((dim,) * modes), vec))
        weight = draw(st.floats(0.1, 1.0))
        branches.append((weight, fc.PureState(modes, dim - 1, amps)))
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
        vec = np.zeros(op.shape[0], dtype=complex)
        dims = (pure.cutoff + 1,) * pure.modes
        for key, amp in pure.amps.items():
            vec[np.ravel_multi_index(key, dims)] = amp
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
