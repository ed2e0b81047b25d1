import math

import numpy as np
import pytest

from cvgme import fock_core as fc


def test_fock_state_basics():
    st = fc.fock_state((1, 0, 2))
    assert st.modes == 3
    assert st.cutoff == 2
    want = np.zeros((3, 3, 3), dtype=complex)
    want[1, 0, 2] = 1.0
    np.testing.assert_array_equal(st.amps, want)
    assert st.norm() == pytest.approx(1.0)
    assert fc.mean_photon_number(st) == pytest.approx(3.0)


def test_vacuum():
    v = fc.vacuum(2)
    np.testing.assert_array_equal(v.amps, [[1.0 + 0.0j]])
    assert fc.mean_photon_number(v) == 0.0


def test_shape_gives_modes_and_cutoff():
    st = fc.PureState(np.zeros((4, 4, 4)))
    assert st.modes == 3 and st.cutoff == 3
    assert st.amps.dtype == complex


@pytest.mark.parametrize("shape", [(2, 3), (3, 3, 2), (), (0,)])
def test_non_cubic_array_rejected(shape):
    with pytest.raises(fc.DimensionError):
        fc.PureState(np.zeros(shape))


def test_occupation_beyond_cutoff_rejected():
    with pytest.raises(fc.DimensionError):
        fc.fock_state((2,), cutoff=1)


def test_dense_budget_refused_before_allocating():
    # 22 modes at cutoff 1 is 2^22 entries, twice the budget
    with pytest.raises(fc.ResourceLimitError):
        fc.vacuum(22, 1)
    half = fc.vacuum(11, 1)  # 2^11 entries each, 2^22 together
    with pytest.raises(fc.ResourceLimitError):
        fc.tensor(half, half)
    with pytest.raises(fc.ResourceLimitError):
        fc.vacuum(11, 0).with_cutoff(3)


def test_normalize_null_state():
    st = fc.PureState(np.zeros((1,)))
    with pytest.raises(fc.NullStateError):
        fc.normalize(st)


def test_inner_product_conjugate_linearity():
    a = fc.PureState(np.array([1 / math.sqrt(2), 1j / math.sqrt(2)]))
    b = fc.PureState(np.array([0.6, 0.8]))
    lhs = fc.inner_product(a, b)
    # <a|b> = conj(a0) b0 + conj(a1) b1
    expect = (1 / math.sqrt(2)) * 0.6 + (-1j / math.sqrt(2)) * 0.8
    assert lhs == pytest.approx(expect)
    assert fc.inner_product(b, a) == pytest.approx(np.conj(expect))


def test_tensor_product_amplitudes():
    a = fc.PureState(np.array([0.6, 0.8]))
    b = fc.fock_state((1,))
    ab = fc.tensor(a.with_cutoff(1), b.with_cutoff(1))
    assert ab.modes == 2
    assert ab.amps[0, 1] == pytest.approx(0.6)
    assert ab.amps[1, 1] == pytest.approx(0.8)


def test_tensor_cutoff_mismatch():
    a = fc.vacuum(1, 2)
    b = fc.vacuum(1, 3)
    with pytest.raises(fc.DimensionError):
        fc.tensor(a, b)


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9 - 0.4j])
def test_coherent_state_moments(gamma):
    st = fc.coherent_state(gamma, cutoff=24)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    assert fc.mean_photon_number(st) == pytest.approx(abs(gamma) ** 2, abs=1e-10)
    # amplitude of |n> is e^{-|g|^2/2} g^n / sqrt(n!)
    if gamma:
        amp3 = st.amps[3]
        expect = math.exp(-abs(gamma) ** 2 / 2) * gamma**3 / math.sqrt(6.0)
        assert amp3 == pytest.approx(expect)


def test_coherent_overlap():
    a = fc.coherent_state(0.7, cutoff=28)
    b = fc.coherent_state(-0.2 + 0.5j, cutoff=28)
    got = fc.inner_product(a, b)
    g, h = 0.7, -0.2 + 0.5j
    expect = math.exp(-(abs(g) ** 2 + abs(h) ** 2) / 2) * np.exp(np.conj(g) * h)
    assert got == pytest.approx(expect, abs=1e-10)


def test_mixed_state_weights():
    w = fc.fock_state((1, 0))
    v = fc.vacuum(2, 1)
    mix = fc.MixedState(((0.25, w), (0.75, v)))
    assert mix.modes == 2
    ens = fc.as_ensemble(mix)
    assert sum(wt for wt, _ in ens) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fc.MixedState(((0.5, w), (0.1, v)))


def test_as_ensemble_of_pure():
    st = fc.fock_state((2,))
    (w0, s0), = fc.as_ensemble(st)
    assert w0 == 1.0 and s0 is st


def test_with_cutoff_raises_when_lossy():
    st = fc.fock_state((3,))
    with pytest.raises(fc.DimensionError):
        st.with_cutoff(2)
    up = st.with_cutoff(5)
    assert up.cutoff == 5
    np.testing.assert_array_equal(up.amps, [0, 0, 0, 1, 0, 0])


def test_with_cutoff_pads_and_shrinks_to_occupied_levels():
    st = fc.PureState(np.array([[0.6, 0.0, 0.0], [0.0, 0.8j, 0.0], [0.0, 0.0, 0.0]]))
    up = st.with_cutoff(3)
    assert up.amps.shape == (4, 4)
    np.testing.assert_array_equal(up.amps[:3, :3], st.amps)
    assert not up.amps[3].any() and not up.amps[:, 3].any()
    down = up.with_cutoff(1)
    np.testing.assert_array_equal(down.amps, [[0.6, 0.0], [0.0, 0.8j]])
    with pytest.raises(fc.DimensionError):
        down.with_cutoff(0)


def test_total_photon_max_ignores_exact_zeros():
    amps = np.zeros((3, 3))
    amps[1, 1] = 0.5
    amps[2, 2] = 0.0  # present in the array, but no weight
    assert fc.PureState(amps).total_photon_max() == 2
    assert fc.PureState(np.zeros((2, 2))).total_photon_max() == 0
    # the padded cutoff of an ancilla-aligned state does not raise the budget
    assert fc.fock_state((1, 0, 0)).with_cutoff(6).total_photon_max() == 1
