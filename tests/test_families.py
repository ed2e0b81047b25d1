"""State-family construction, closed forms, and oracle cross-checks."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvgme import families as fam
from cvgme import fock_core as fc
from cvgme import numerics, phase_space as ps, witnesses

RNG = np.random.default_rng(20250814)


def random_points(n, radius=1.0):
    r = radius * np.sqrt(RNG.random(n))
    th = 2 * math.pi * RNG.random(n)
    return r * np.exp(1j * th)


def slice_oracle(state, alpha):
    """Wigner function on the all-equal slice via the truncated-Fock route."""
    return ps.wigner_point(state, [alpha] * state.modes)


# ---------------------------------------------------------------------------
# construction and parsing
# ---------------------------------------------------------------------------


def test_parse_family_round_trips():
    spec = fam.parse_family("w:M=4,eta=0.1")
    assert spec.tag == "w" and spec.modes == 4 and spec.eta == 0.1
    spec = fam.parse_family("cat:M=3,gamma=0.9")
    assert spec.gamma == 0.9 + 0.0j
    spec = fam.parse_family("noon3:N=4")
    assert spec.n_photons == 4
    assert fam.parse_family("psi1").modes == 3


def test_parse_family_rejects_unknown():
    with pytest.raises(ValueError):
        fam.parse_family("ghz:M=3")
    with pytest.raises(ValueError):
        fam.parse_family("w:M=3,foo=1")


@pytest.mark.parametrize("spec,label", [
    (fam.w_family(3), "w:M=3"),
    (fam.w_family(4, eta=0.1), "w:M=4,eta=0.1"),
    (fam.cat_family(3, 0.9), "cat:M=3,gamma=0.9"),
    (fam.cat_family(2, 0.5 + 0.4j, eta=0.1), "cat:M=2,gamma=0.5+0.4j,eta=0.1"),
    (fam.cat_family(3, -0.6 - 0.7j), "cat:M=3,gamma=-0.6-0.7j"),
    (fam.cat_family(3, 0.5j), "cat:M=3,gamma=0.5j"),
    (fam.dicke2_family(5), "dicke2:M=5"),
    (fam.noon3_family(4), "noon3:N=4"),
    (fam.psi_family("psi2"), "psi2"),
])
def test_labels(spec, label):
    assert spec.label() == label
    assert fam.parse_family(label) == spec


def _hundredths(lo, hi):
    # multiples of 0.01 print exactly under %g and repr
    return st.integers(lo, hi).map(lambda k: k / 100)


_GAMMAS = st.one_of(
    _hundredths(-300, 300),
    st.builds(complex, _hundredths(-300, 300), _hundredths(-300, 300)),
    st.builds(lambda im: complex(0.0, im), _hundredths(-300, 300)),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), tag=st.sampled_from(sorted(fam.FAMILIES)))
def test_label_round_trips_through_parse(data, tag):
    record = fam.FAMILIES[tag]
    values = {"modes": record.modes}
    for p in record.params:
        if p.field == "gamma":
            values["gamma"] = complex(data.draw(_GAMMAS, label="gamma"))
        elif p.field == "eta":
            values["eta"] = data.draw(_hundredths(0, 100), label="eta")
        else:
            values[p.field] = data.draw(st.integers(2, 12), label=p.field)
    spec = fam.FamilySpec(tag, **values)
    assert fam.parse_family(spec.label()) == spec


@pytest.mark.parametrize("build", [
    lambda: fam.cat_family(3, math.nan),
    lambda: fam.cat_family(3, complex(0.5, math.inf)),
    lambda: fam.cat_family(3, complex(math.nan, 0.0), eta=0.1),
    lambda: fam.w_family(3.5),
    lambda: fam.w_family(3.0),
    lambda: fam.w_family(True),
    lambda: fam.cat_family(np.float64(3), 1.0),
    lambda: fam.dicke2_family(1),
    lambda: fam.noon3_family(2.5),
    lambda: fam.noon3_family(False),
    lambda: fam.FamilySpec("w", 3, n_photons=2),
    lambda: fam.FamilySpec("psi1", 4),
    lambda: fam.parse_family("cat:M=3,gamma=nan"),
    lambda: fam.parse_family("w:M=3.5"),
    lambda: fam.parse_family("noon3:N=0"),
])
def test_bad_family_inputs_rejected_at_construction(build):
    with pytest.raises(ValueError):
        build()


def test_numpy_integer_counts_accepted():
    assert fam.w_family(np.int64(4)) == fam.w_family(4)
    assert fam.noon3_family(np.int32(2)).label() == "noon3:N=2"
    assert fam.cat_family(np.int16(2), 0.5).label() == "cat:M=2,gamma=0.5"


def _ask(capability, spec):
    """Call the public function that looks `capability` up in the record."""
    kernel = fam.vacuum_kernel(spec.modes - 2)
    return {
        "fock": lambda: fam.family_fock_expansion(spec),
        "slice_xy": lambda: fam.family_wigner_slice_xy(spec, 0.1, 0.2),
        "symmetries": lambda: fam.slice_symmetries(spec),
        "envelope": lambda: fam.slice_abs_envelope(spec),
        "c_entry": lambda: fam.family_c_entry(spec, 0.1),
        "smoothed": lambda: fam.family_smoothed_wigner(spec, kernel, 0.0),
        "com_wigner": lambda: fam.family_com_wigner(spec, 0.1),
        "v2d": lambda: fam.v2d_closed_form(spec),
        "energy": lambda: fam.family_energy(spec),
    }[capability]()


_CAPABILITIES = [f.name for f in dataclasses.fields(fam.FamilyRecord)][3:]


@pytest.mark.parametrize("tag,capability", [
    (tag, cap) for tag in fam.FAMILIES for cap in _CAPABILITIES
    if getattr(fam.FAMILIES[tag], cap) is None
])
def test_missing_capability_raises_one_error(tag, capability):
    with pytest.raises(ValueError, match="family %r has no %s capability" % (tag, capability)):
        _ask(capability, fam.parse_family(tag))


def test_record_capabilities_are_the_public_lookups():
    assert _CAPABILITIES == ["fock", "slice_xy", "symmetries", "envelope", "c_entry",
                             "smoothed", "com_wigner", "v2d", "energy"]
    for tag in fam.FAMILIES:
        spec = fam.parse_family(tag)
        for cap in _CAPABILITIES:
            if getattr(fam.FAMILIES[tag], cap) is not None:
                try:
                    _ask(cap, spec)
                except ValueError as exc:  # present, but not for this member or kernel
                    assert "capability" not in str(exc)


def test_loss_only_for_w_and_cat():
    with pytest.raises(ValueError):
        fam.FamilySpec(tag="dicke2", modes=3, eta=0.1)
    fam.w_family(3, eta=0.1)
    fam.cat_family(3, 1.0, eta=0.1)


@pytest.mark.parametrize(
    "spec",
    [
        fam.w_family(3),
        fam.w_family(5),
        fam.dicke2_family(3),
        fam.dicke2_family(6),
        fam.noon3_family(3),
        fam.psi_family("psi1"),
        fam.psi_family("psi2"),
        fam.psi_family("psi4"),
        fam.cat_family(3, 0.8),
        fam.cat_family(1, 1.2),
    ],
    ids=lambda s: s.label(),
)
def test_expansions_normalized(spec):
    st = fam.family_fock_expansion(spec)
    for w, branch in fc.as_ensemble(st):
        assert branch.norm() == pytest.approx(1.0, abs=1e-10)


def test_lossy_expansions_are_exact_mixtures():
    st = fam.family_fock_expansion(fam.w_family(3, eta=0.2))
    ens = fc.as_ensemble(st)
    assert len(ens) == 2
    assert sum(w for w, _ in ens) == pytest.approx(1.0, abs=1e-12)

    cat = fam.family_fock_expansion(fam.cat_family(3, 1.0, eta=0.25))
    ens = fc.as_ensemble(cat)
    assert len(ens) == 2
    assert sum(w for w, _ in ens) == pytest.approx(1.0, abs=1e-12)


def test_lossy_cat_matches_kraus_channel():
    # rank-2 closed-form mixture against the generic amplitude-damping map
    from cvgme import gaussian_ops as go

    gamma, eta = 0.7, 0.3
    pure = fam.family_fock_expansion(fam.cat_family(2, gamma))
    damped = go.apply_amplitude_damping(pure, eta)
    closed = fam.family_fock_expansion(fam.cat_family(2, gamma, eta=eta))
    for alpha in (0.0, 0.31 - 0.12j, -0.4 + 0.22j):
        lhs = ps.wigner_point(damped, [alpha] * 2)
        rhs = ps.wigner_point(closed, [alpha] * 2)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_family_energy_against_oracle():
    cases = [
        fam.w_family(3),
        fam.w_family(4, eta=0.3),
        fam.dicke2_family(5),
        fam.noon3_family(4),
        fam.psi_family("psi1"),
        fam.psi_family("psi2"),
        fam.psi_family("psi4"),
        fam.cat_family(3, 0.9),
        fam.cat_family(3, 0.9, eta=0.2),
    ]
    for spec in cases:
        st = fam.family_fock_expansion(spec)
        got = sum(w * fc.mean_photon_number(b) for w, b in fc.as_ensemble(st))
        assert fam.family_energy(spec) == pytest.approx(got, abs=1e-9), spec.label()


def test_coherent_tail_cutoff():
    n = fam.coherent_tail_cutoff(0.9)
    st = fc.coherent_state(0.9, cutoff=n)
    assert 1.0 - st.norm_sq() < 1e-13


# ---------------------------------------------------------------------------
# closed-form slices against the truncated-Fock oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        fam.w_family(3),
        fam.w_family(4, eta=0.15),
        fam.dicke2_family(3),
        fam.dicke2_family(4),
        fam.cat_family(3, 0.9),
        fam.cat_family(3, 0.8, eta=0.2),
        fam.psi_family("psi1"),
        fam.psi_family("psi2"),
    ],
    ids=lambda s: s.label(),
)
def test_wigner_slice_against_oracle(spec):
    st = fam.family_fock_expansion(spec)
    pts = random_points(8, radius=1.1)
    closed = fam.family_wigner_slice(spec, pts)
    for alpha, val in zip(pts, closed):
        assert val == pytest.approx(slice_oracle(st, alpha), abs=1e-8)


@pytest.mark.parametrize(
    "spec",
    [
        fam.w_family(4, eta=0.15),
        fam.dicke2_family(3),
        fam.cat_family(3, 0.8, eta=0.2),
        fam.cat_family(2, 0.6 - 0.7j, eta=0.1),
        fam.psi_family("psi1"),
        fam.psi_family("psi2"),
    ],
    ids=lambda s: s.label(),
)
def test_wigner_slice_on_lattice_matches_pointwise(spec):
    # the split (column x row) evaluation equals the pointwise closed form
    axis = np.linspace(-1.5, 1.5, 31)
    lattice = fam.family_wigner_slice_xy(spec, axis[:, None], axis[None, :])
    points = fam.family_wigner_slice(spec, axis[:, None] + 1j * axis[None, :])
    assert lattice.shape == points.shape == (31, 31)
    assert np.abs(lattice - points).max() < 1e-14


@pytest.mark.parametrize(
    "spec",
    [
        fam.w_family(4, eta=0.15),
        fam.dicke2_family(3),
        fam.cat_family(3, 0.8, eta=0.2),
        fam.cat_family(2, 0.6 - 0.7j, eta=0.1),
        fam.psi_family("psi1"),
        fam.psi_family("psi2"),
    ],
    ids=lambda s: s.label(),
)
def test_slice_symmetries_hold(spec):
    # each claimed reflection holds, and each one not claimed is broken
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, 64) + 1j * rng.uniform(-1.0, 1.0, 64)
    w = fam.family_wigner_slice(spec, pts)
    reflected = {
        "point_even": fam.family_wigner_slice(spec, -pts),
        "conj_even": fam.family_wigner_slice(spec, np.conj(pts)),
    }
    for name, claimed in fam.slice_symmetries(spec).items():
        gap = np.abs(reflected[name] - w).max()
        assert (gap < 1e-14) if claimed else (gap > 1e-6), (name, gap)


def test_wigner_slice_vectorized_shape():
    grid = np.array([[0.1, 0.2j], [0.3, -0.1 + 0.1j]])
    out = fam.family_wigner_slice(fam.w_family(3), grid)
    assert out.shape == grid.shape


@pytest.mark.parametrize(
    "spec",
    [fam.w_family(3), fam.w_family(3, eta=0.2), fam.cat_family(3, 1.0)],
    ids=lambda s: s.label(),
)
def test_c_entry_against_oracle(spec):
    st = fam.family_fock_expansion(spec)
    pts = random_points(8, radius=0.9)
    closed = fam.family_c_entry(spec, pts)
    for xi, val in zip(pts, closed):
        oracle = ps.characteristic_point(st, [xi] * spec.modes)
        assert val == pytest.approx(oracle, abs=1e-8)


def test_cat_c_entry_far_out_is_finite(recwarn):
    # exp(-M|d|^2/2) underflows where cosh overflows; the entry is ~0 there
    spec = fam.cat_family(3, 1.0)
    for d in (130.0, 130.0 + 5j, -200j, 1e3):
        val = fam.family_c_entry(spec, d)
        assert math.isfinite(val) and val >= 0.0
    assert len(recwarn) == 0
    mat = witnesses.build_settings_matrix(
        lambda d: fam.family_c_entry(spec, d), [0.0, 0.3, 120.0])
    assert np.all(np.isfinite(mat))
    assert mat[0, 2] == 0.0


def test_cat_c_entry_log_form_against_mpmath():
    # at |d| ~ 2|gamma| the cosh term overflows alone but the entry is O(1)
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 40
    m, gamma = 3, 7.7
    spec = fam.cat_family(m, gamma)
    for d in (15.4, 15.0 + 0.1j, 14.9):
        dm = mp.mpc(d)
        e2 = mp.exp(-2 * m * gamma**2)
        want = mp.exp(-0.5 * m * abs(dm) ** 2) * (
            mp.cos(2 * m * (dm * gamma).imag)
            + e2 * mp.cosh(2 * m * (dm * gamma).real)) / (1 + e2)
        assert fam.family_c_entry(spec, d) == pytest.approx(float(want), rel=1e-12)


def test_kernel_entries():
    xi = 0.4 - 0.3j
    u = abs(xi) ** 2
    vac = fam.vacuum_kernel(2)
    assert fam.kernel_c_entry(vac, xi) == pytest.approx(math.exp(-u), abs=1e-12)
    f1 = fam.fock_kernel(1, 1)
    assert fam.kernel_c_entry(f1, xi) == pytest.approx(
        (1 - u) * math.exp(-u / 2), abs=1e-12
    )
    sq = fam.squeezed_kernel(1, 0.5)
    expect = math.exp(-0.25 * xi.real**2 / 2 - xi.imag**2 / (2 * 0.25))
    assert fam.kernel_c_entry(sq, xi) == pytest.approx(expect, abs=1e-12)


def test_fock0_kernel_is_vacuum():
    assert fam.fock_kernel(2, 0) == fam.vacuum_kernel(2)
    assert fam.fock_kernel(2, 0).label() == "vacuum+vacuum"
    xi = random_points(5, 1.2)
    np.testing.assert_allclose(
        fam.kernel_c_entry(fam.fock_kernel(2, 0), xi),
        fam.kernel_c_entry(fam.vacuum_kernel(2), xi),
        atol=1e-14,
    )


def test_squeezed_kernel_rejects_nonpositive():
    with pytest.raises(ValueError):
        fam.squeezed_kernel(1, 0.0)


@pytest.mark.parametrize("build,message", [
    (lambda: fam.fock_kernel(1, 1.5), "Fock index"),
    (lambda: fam.fock_kernel(1, True), "Fock index"),
    (lambda: fam.fock_kernel(1, -1), "Fock index"),
    (lambda: fam.squeezed_kernel(1, float("nan")), "squeezing"),
    (lambda: fam.squeezed_kernel(1, float("inf")), "squeezing"),
    (lambda: fam.squeezed_kernel(1, True), "squeezing"),
    (lambda: fam.KernelSpec((("fock",),)), "Fock index"),
    (lambda: fam.KernelSpec((("vacuum", 3),)), "no parameter"),
    (lambda: fam.KernelSpec((("thermal", 0.5),)), "known kind"),
    (lambda: fam.KernelSpec(((),)), "known kind"),
    (lambda: fam.KernelSpec(("vacuum",)), "known kind"),
    (lambda: fam.KernelSpec(((["fock"], 1),)), "known kind"),
])
def test_kernel_rejects_bad_ancillas(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_kernel_takes_numpy_parameters():
    assert fam.fock_kernel(np.int64(2), np.int32(3)) == fam.fock_kernel(2, 3)
    assert fam.squeezed_kernel(1, np.float32(0.5)) == fam.squeezed_kernel(1, 0.5)
    assert fam.squeezed_kernel(1, np.int64(2)).label() == "squeezed(2)"


@settings(max_examples=60, deadline=None)
@given(n=st.integers(-1, 6), cutoff=st.integers(0, 4),
       r=st.floats(0.0, 3.0), theta=st.floats(0.0, 2 * math.pi))
def test_kernel_entry_is_the_ancilla_characteristic_function(n, cutoff, r, theta):
    kernel = fam.vacuum_kernel(1) if n < 0 else fam.fock_kernel(1, n)
    (state,) = kernel.fock_states(cutoff)
    assert state.cutoff >= cutoff
    xi = r * complex(math.cos(theta), math.sin(theta))
    assert fam.kernel_c_entry(kernel, xi) == pytest.approx(
        ps.characteristic_point(state, [xi]), abs=1e-12)


# ---------------------------------------------------------------------------
# closed-form volumes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_w_volume_closed_form(m):
    expect = 4.0 / (m * math.sqrt(math.e)) - 1.0 / m
    assert fam.v2d_closed_form(fam.w_family(m)) == pytest.approx(expect, rel=1e-14)


def test_dicke_volume_closed_form_value():
    # frozen reference from an independent quadrature of the slice
    got = fam.v2d_closed_form(fam.dicke2_family(3))
    assert got == pytest.approx(0.3892087295401387, abs=1e-12)


def test_volume_prop3_cat_mode_reduction():
    # V2D of an M-mode cat equals 1/M times the single-mode absolute volume
    # of a cat with amplitude sqrt(M) gamma, at matching loss
    m, gamma, eta = 3, 0.8, 0.1
    delta = 0.01

    def v2d(spec):
        radius = numerics.tail_radius(fam.slice_abs_envelope(spec))
        grid = numerics.disc_grid(delta, radius)
        vals = np.abs(fam.family_wigner_slice(spec, grid.centers()))
        scale = (2 / math.pi) * (math.pi / 2) ** spec.modes
        return scale * numerics.midpoint_integral(vals, delta)

    lhs = v2d(fam.cat_family(m, gamma, eta=eta))
    rhs = v2d(fam.cat_family(1, math.sqrt(m) * gamma, eta=eta)) / m
    assert lhs == pytest.approx(rhs, abs=1e-4)


# ---------------------------------------------------------------------------
# smoothed collective-mode forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [3, 4, 5])
def test_smoothed_w_vacuum_loss_root(m):
    # at the origin the smoothed value crosses zero exactly at eta = 1/M
    kernel = fam.vacuum_kernel(m - 2)
    at_root = fam.family_smoothed_wigner(fam.w_family(m, eta=1.0 / m), kernel, 0.0)
    assert abs(at_root) < 1e-10
    below = fam.family_smoothed_wigner(fam.w_family(m, eta=1.0 / m - 0.05), kernel, 0.0)
    above = fam.family_smoothed_wigner(fam.w_family(m, eta=1.0 / m + 0.05), kernel, 0.0)
    assert below < 0 < above


def test_smoothed_dicke_forms_at_origin():
    d3 = fam.dicke2_family(3)
    assert fam.family_smoothed_wigner(d3, fam.fock_kernel(1, 1), 0.0) == pytest.approx(
        -1.0 / (2 * math.pi), abs=1e-12
    )
    assert fam.family_smoothed_wigner(d3, fam.vacuum_kernel(1), 0.0) > 0


def test_smoothed_dicke_vacuum_positive_everywhere():
    d3 = fam.dicke2_family(3)
    for alpha in np.linspace(0, 2.5, 30):
        assert fam.family_smoothed_wigner(d3, fam.vacuum_kernel(1), alpha) > 0


@pytest.mark.parametrize(
    "n,expect_sign",
    [(1, -1), (2, +1), (3, -1), (4, -1), (5, -1), (6, -1), (7, -1), (8, -1)],
)
def test_smoothed_noon_parity_matched_sign(n, expect_sign):
    # matched-parity Fock kernel: negative at the origin except N = 2
    kernel = fam.fock_kernel(1, (1 + (-1) ** n) // 2)
    val = fam.family_smoothed_wigner(fam.noon3_family(n), kernel, 0.0)
    closed = -(2.0 ** (-n) / math.pi) * (2.0 if n % 2 else n - 3.0)
    assert val == pytest.approx(closed, abs=1e-12)
    assert math.copysign(1, val) == expect_sign


def test_smoothed_noon_vacuum_closed_form():
    for n in range(1, 7):
        val = fam.family_smoothed_wigner(fam.noon3_family(n), fam.vacuum_kernel(1), 0.0)
        closed = (-1) ** n * (2 + (-1) ** n) / (2.0 ** (n - 1) * math.pi)
        assert val == pytest.approx(closed, abs=1e-12)


def test_smoothed_unsupported_combination():
    with pytest.raises(ValueError):
        fam.family_smoothed_wigner(fam.w_family(3), fam.fock_kernel(1, 2), 0.0)
    untabulated = "no tabulated smoothed form .* use the brute-force witness evaluator"
    mixed = fam.KernelSpec((("vacuum",), ("fock", 1)))
    with pytest.raises(ValueError, match=untabulated):
        fam.family_smoothed_wigner(fam.psi_family("psi4"), mixed, 0.0)
    for kernel in (fam.vacuum_kernel(2), fam.fock_kernel(2, 1)):
        with pytest.raises(ValueError, match=untabulated):
            fam.family_smoothed_wigner(fam.dicke2_family(4), kernel, 0.0)


def test_psi_constants_match_tables():
    assert fam.PSI4_SMOOTHED_AT_ORIGIN == pytest.approx(
        -2 * (11 * math.sqrt(6) - 4) / (81 * math.pi), abs=1e-15
    )
    assert fam.PSI5_SMOOTHED_AT_ORIGIN == pytest.approx(
        -(139 * math.sqrt(3) - 144) / (512 * math.pi), abs=1e-15
    )


def test_com_wigner_w_family():
    # centre-of-mass distribution of the lossy W state
    spec = fam.w_family(3, eta=0.2)
    y = 0.3 - 0.2j
    u = abs(y) ** 2
    expect = (2 / math.pi) * math.exp(-2 * u) * ((1 - 0.2) * (4 * u - 1) + 0.2)
    assert fam.family_com_wigner(spec, y) == pytest.approx(expect, abs=1e-12)


def test_com_wigner_w_family_far_out():
    # |beta| is clipped before squaring: no overflow for a huge finite point,
    # and the same double as the unclipped formula where that is finite
    spec = fam.w_family(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fam.family_com_wigner(spec, 1e300) == 0.0
        for r in (19.0, 25.0):
            u = np.abs(np.complex128(r)) ** 2
            expect = (2.0 / math.pi) * np.exp(-2.0 * u) * (4.0 * u - 1.0)  # eta = 0
            assert fam.family_com_wigner(spec, r) == expect


_POINTS = st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 2 * math.pi)),
                   min_size=1, max_size=20)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), tag=st.sampled_from(
    sorted(t for t, record in fam.FAMILIES.items() if record.envelope)))
def test_slice_envelope_bounds_every_family(data, tag):
    record = fam.FAMILIES[tag]
    values = {"modes": record.modes}
    for p in record.params:
        if p.field == "gamma":
            values["gamma"] = complex(data.draw(_GAMMAS, label="gamma"))
        elif p.field == "eta":
            values["eta"] = data.draw(_hundredths(0, 100), label="eta")
        else:
            values[p.field] = data.draw(st.integers(2, 9), label=p.field)
    spec = fam.FamilySpec(tag, **values)
    rho, theta = np.array(data.draw(_POINTS, label="points")).T
    vals = np.abs(fam.family_wigner_slice(spec, rho * np.exp(1j * theta)))
    assert np.all(vals <= fam.slice_abs_envelope(spec)(rho) * (1 + 1e-9) + 1e-12)


def test_slice_envelope_bounds_slice():
    for spec in (fam.w_family(3, eta=0.1), fam.cat_family(3, 1.1), fam.psi_family("psi2")):
        env = fam.slice_abs_envelope(spec)
        pts = random_points(40, radius=2.5)
        vals = np.abs(fam.family_wigner_slice(spec, pts))
        bound = env(np.abs(pts))
        assert np.all(vals <= bound * (1 + 1e-9) + 1e-12), spec.label()
