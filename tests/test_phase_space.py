import math

import numpy as np
import pytest

from cvgme import fock_core as fc
from cvgme import phase_space as ps


def test_slice_spec_hyperbolic_constraint():
    ok = ps.SliceSpec(y=(1.0, 1.0), z=(0.0, 0.0))
    assert ok.modes == 2
    with pytest.raises(ValueError):
        ps.SliceSpec(y=(1.0, 0.5), z=(0.0, 0.0))


def test_diagonal_slice_points():
    sl = ps.diagonal_slice(3)
    pt = sl.point(0.4 - 0.2j)
    np.testing.assert_allclose(pt, [0.4 - 0.2j] * 3)


def test_phase_point_coercion():
    np.testing.assert_allclose(ps.phase_point(0.5, modes=2), [0.5, 0.5])
    np.testing.assert_allclose(ps.phase_point([0.1, 0.2j]), [0.1, 0.2j])


@pytest.mark.parametrize(
    "alpha",
    [0.0, 0.35, 0.2 - 0.6j, -0.8 + 0.1j],
)
def test_wigner_point_fock1_closed_form(alpha):
    st = fc.fock_state((1,))
    u = abs(alpha) ** 2
    expect = (2 / math.pi) * (4 * u - 1) * math.exp(-2 * u)
    # the truncated displaced-parity oracle is good to ~1e-8
    assert ps.wigner_point(st, [alpha]) == pytest.approx(expect, abs=2e-8)


@pytest.mark.parametrize("alpha", [0.3, -0.4 + 0.25j])
def test_wigner_point_coherent_closed_form(alpha):
    g = 0.45 - 0.15j
    st = fc.coherent_state(g, cutoff=22)
    expect = (2 / math.pi) * math.exp(-2 * abs(alpha - g) ** 2)
    assert ps.wigner_point(st, [alpha]) == pytest.approx(expect, abs=1e-9)


def test_wigner_point_product_rule():
    a = fc.fock_state((1,))
    b = fc.coherent_state(0.3, cutoff=16)
    ab = fc.tensor(a.with_cutoff(16), b)
    x, y = 0.2 - 0.1j, -0.3 + 0.4j
    got = ps.wigner_point(ab, [x, y])
    expect = ps.wigner_point(a, [x]) * ps.wigner_point(b, [y]) * math.pi / 2
    # W factorizes; the pi/2 undoes the double-counted (2/pi) prefactor
    assert got * (math.pi / 2) ** 0 == pytest.approx(
        ps.wigner_point(a, [x]) * ps.wigner_point(b, [y]), abs=1e-9
    )


@pytest.mark.parametrize("xi", [0.4, 0.2 + 0.5j, -0.6j])
def test_characteristic_point_closed_forms(xi):
    # vacuum: exp(-|xi|^2/2); single photon: (1-|xi|^2) exp(-|xi|^2/2)
    u = abs(xi) ** 2
    assert ps.characteristic_point(fc.vacuum(1, 0), [xi]) == pytest.approx(
        math.exp(-u / 2), abs=1e-12
    )
    assert ps.characteristic_point(fc.fock_state((1,)), [xi]) == pytest.approx(
        (1 - u) * math.exp(-u / 2), abs=1e-12
    )


def test_characteristic_point_coherent_phase():
    g = 0.3 - 0.7j
    xi = 0.25 + 0.4j
    st = fc.coherent_state(g, cutoff=26)
    expect = np.exp(-abs(xi) ** 2 / 2 + xi * np.conj(g) - np.conj(xi) * g)
    assert ps.characteristic_point(st, [xi]) == pytest.approx(expect, abs=1e-9)


def test_characteristic_point_equal_displacement_w_state():
    amps = {(1, 0, 0): 1 / math.sqrt(3), (0, 1, 0): 1 / math.sqrt(3),
            (0, 0, 1): 1 / math.sqrt(3)}
    w3 = fc.PureState(3, 1, amps)
    xi = 0.2 - 0.3j
    u = abs(xi) ** 2
    expect = math.exp(-3 * u / 2) * (1 - 3 * u)
    assert ps.characteristic_point(w3, [xi] * 3) == pytest.approx(expect, abs=1e-9)


def test_displaced_parity_on_mixture():
    mix = fc.MixedState(
        ((0.5, fc.fock_state((1,)).with_cutoff(1)), (0.5, fc.vacuum(1, 1)))
    )
    got = ps.displaced_parity_expectation(mix, [0.0])
    assert got == pytest.approx(0.0, abs=1e-12)


def test_wigner_slice_point_all_equal():
    st = fc.fock_state((1, 1, 1))
    sl = ps.diagonal_slice(3)
    alpha = 0.2 + 0.1j
    direct = ps.wigner_point(st, [alpha] * 3)
    assert ps.wigner_slice_point(st, sl, alpha) == pytest.approx(direct, abs=1e-12)


def test_wigner_permutation_symmetry():
    st = fc.fock_state((2, 0))
    a, b = 0.3, -0.2 + 0.4j
    swapped = fc.fock_state((0, 2))
    assert ps.wigner_point(st, [a, b]) == pytest.approx(
        ps.wigner_point(swapped, [b, a]), abs=1e-12
    )


def test_characteristic_point_far_from_vacuum():
    # the dense oracle needs no headroom cutoff, so nothing overflows
    got = ps.characteristic_point(fc.vacuum(1, 0), [9.0])
    assert got == pytest.approx(math.exp(-40.5), rel=1e-12)


@pytest.mark.parametrize("alpha", [6.0, -4.5 + 7.0j])
def test_wigner_point_far_from_vacuum(alpha):
    expect = (2 / math.pi) * math.exp(-2 * abs(alpha) ** 2)
    assert ps.wigner_point(fc.vacuum(1, 0), [alpha]) == pytest.approx(expect, rel=1e-12)
