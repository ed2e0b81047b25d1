"""Tests for the five certification schemes.

Matrix-witness values are cross-checked against singular-value oracles and
against characteristic functions of explicitly truncated states; the
collective-parity scheme is pinned to hand-derived rational anchors.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvgme.families as fam
import cvgme.numerics as num
import cvgme.phase_space as ps
import cvgme.witnesses as wit
from cvgme.fock_core import (
    MixedState,
    PureState,
    as_ensemble,
    coherent_state,
    fock_state,
    tensor,
    vacuum,
)
from cvgme.gaussian_ops import ResourceLimitError, apply_linear_optical


# ---------------------------------------------------------------------------
# thresholds and report plumbing


def test_thresholds_scale_with_mode_count():
    assert wit.slice_integral_threshold(2) == pytest.approx(math.pi / 4.0)
    assert wit.slice_integral_threshold(5) == pytest.approx(math.pi / 8.0)
    assert wit.volume_threshold(5) == pytest.approx(0.25)
    assert wit.settings_threshold(3) == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)))


@pytest.mark.parametrize("threshold", [
    wit.slice_integral_threshold, wit.volume_threshold, wit.settings_threshold])
@pytest.mark.parametrize("modes", [1, 0, -2])
def test_thresholds_need_two_modes(threshold, modes):
    with pytest.raises(ValueError, match="at least 2 modes, got M = %d" % modes):
        threshold(modes)
    # the two integral forms differ by the fixed 2/pi volume conversion
    for m in range(2, 9):
        ratio = wit.volume_threshold(m) / wit.slice_integral_threshold(m)
        assert ratio == pytest.approx(2.0 / math.pi)


def test_report_json_schema():
    rep = wit.WitnessReport(
        witness="A", value=1.0, threshold=0.5, certified=True, family="w:M=3"
    )
    payload = rep.to_json_dict()
    assert set(payload) == {
        "witness", "family", "params", "value", "threshold",
        "rigorous_error", "stderr", "certified", "n_settings", "seed",
        "xi_points",
    }
    assert payload["certified"] is True


# ---------------------------------------------------------------------------
# Hermitian trace norm and settings matrices


def test_trace_norm_matches_svd_oracle():
    rng = np.random.default_rng(5)
    for n in (2, 3, 6, 9):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        herm = 0.5 * (raw + raw.conj().T)
        oracle = np.linalg.svd(herm, compute_uv=False).sum()
        assert wit.trace_norm_hermitian(herm) == pytest.approx(oracle, rel=1e-12)


def test_trace_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        wit.trace_norm_hermitian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        wit.trace_norm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_settings_matrix_layout():
    calls = []

    def entry(d):
        calls.append(np.shape(d))
        # Hermitian like every characteristic function: entry(-d) = conj(entry(d))
        return (2.0 + np.abs(d) ** 2) * np.exp(1j * d.real)

    xi = np.array([0.5, -0.25j, 1.0 + 1.0j])
    scaled = wit.build_settings_matrix(entry, xi)
    # one call, on the whole array of differences
    assert calls == [(3, 3)]
    mat = 3.0 * scaled  # the entries carry 1/N
    np.testing.assert_allclose(mat, mat.conj().T)
    assert mat[0, 1] == pytest.approx(entry(xi[0] - xi[1]))
    assert mat[1, 0] == pytest.approx(np.conj(mat[0, 1]))
    np.testing.assert_allclose(scaled, entry(xi[:, None] - xi[None, :]) / 3.0, atol=1e-15)


def test_settings_matrix_kernel_multiplies_entries():
    spec, kernel = fam.w_family(3, eta=0.2), fam.squeezed_kernel(1, 0.7)
    entry = lambda d: fam.family_c_entry(spec, d)
    kernel_entry = lambda d: fam.kernel_c_entry(kernel, d)
    xi = np.array([0.3 - 0.1j, -0.4j, 0.8 + 0.2j, -0.5])
    mat = wit.build_settings_matrix(entry, xi, kernel_fn=kernel_entry)
    c_mat = wit.build_settings_matrix(entry, xi)
    k_mat = 4.0 * wit.build_settings_matrix(kernel_entry, xi)  # no 1/N on the kernel
    np.testing.assert_allclose(mat, c_mat * k_mat, rtol=0, atol=1e-15)


def test_settings_matrix_rejections():
    with pytest.raises(ValueError):
        wit.build_settings_matrix(lambda d: 1.0, [0.1])
    with pytest.raises(ValueError):
        wit.build_settings_matrix(lambda d: 1.0, [0.1, np.inf])
    with pytest.raises(ValueError):
        wit.build_settings_matrix(lambda d: np.nan, [0.1, 0.2])


def test_distinct_settings_folds_signs():
    # differences of {0, t, -t} are {0, +-t, +-2t} -> 3 distinct after folding
    assert wit.distinct_settings([0.0, 0.7, -0.7]) == 3
    # generic 3 points: 0 plus three unrelated differences
    assert wit.distinct_settings([0.0, 0.31 + 0.1j, 1.0 - 0.4j]) == 4
    # duplicated points collapse
    assert wit.distinct_settings([0.2, 0.2, 0.9]) == 2


# ---------------------------------------------------------------------------
# absolute-integral witness (scheme A)


def wstate_slice(modes):
    spec = fam.w_family(modes)
    return lambda a: fam.family_wigner_slice(spec, a)


def test_witness_a_certifies_three_mode_w():
    # the rigorous ledger only leaves a certification margin on a fine grid
    grid = num.disc_grid(0.005, 0.9, energy_bound=fam.family_energy(fam.w_family(3)))
    rep = wit.witness_a(wstate_slice(3), grid, 3)
    assert rep.certified
    assert rep.params["error_kind"] == "rigorous"
    assert rep.rigorous_error == pytest.approx(
        num.rigorous_error(grid, 3, 1.0), rel=1e-12)
    # the disc integral lower-bounds the closed-form volume, within the
    # tail mass left outside radius 0.9
    v2d_exact = fam.v2d_closed_form(fam.w_family(3))
    assert rep.params["v2d"] < v2d_exact
    assert rep.params["v2d"] == pytest.approx(v2d_exact, abs=0.03)


def test_witness_a_grid_energy_fallback():
    grid = num.disc_grid(0.05, 0.9, energy_bound=1.0)
    rep = wit.witness_a(wstate_slice(3), grid, 3)
    assert rep.params["energy_bound"] == 1.0
    assert rep.params["error_kind"] == "rigorous"


def test_witness_a_heuristic_path_flagged():
    grid = num.disc_grid(0.05, 0.9)
    rep = wit.witness_a(wstate_slice(3), grid, 3)
    assert rep.params["error_kind"] == "heuristic"
    assert rep.rigorous_error is None
    assert rep.params["heuristic_error"] < 0.02


def test_witness_a_does_not_certify_vacuum():
    # product vacuum: positive Gaussian slice, integral under the bound
    scale = (2.0 / math.pi) ** 3
    slice_fn = lambda a: scale * np.exp(-2.0 * 3 * np.abs(a) ** 2)
    grid = num.disc_grid(0.02, 1.5, energy_bound=0.0)
    rep = wit.witness_a(slice_fn, grid, 3)
    assert not rep.certified
    assert rep.value < rep.threshold


def pointwise_witness_a(slice_fn, grid, modes, energy):
    """Value and error of witness A, summed cell by cell over grid.centers()."""

    def integral(g):
        vals = np.abs((math.pi / 2.0) ** modes * slice_fn(g.centers()))
        return num.midpoint_integral(vals, g.delta)

    value = integral(grid)
    if energy is not None:
        n_re, n_im = grid.indices()
        d = grid.delta
        err = sum(2 * d**3 * math.sqrt(2 * modes * energy)
                  + 2 * modes * d**4 * (1 + math.sqrt(2.0 * (a * a + b * b)))
                  for a, b in zip(n_re, n_im))
    else:
        err = abs(value - integral(num.disc_grid(grid.delta / 2.0, grid.radius)))
    return value, err


@pytest.mark.parametrize("energy", [None, 2.0], ids=["heuristic", "rigorous"])
@pytest.mark.parametrize("spec", [
    fam.w_family(3),
    fam.w_family(4, eta=0.1),
    fam.dicke2_family(3),
    fam.psi_family("psi2"),
    fam.psi_family("psi1"),  # odd in Re alpha: no point fold
    fam.cat_family(3, 0.8),
    fam.cat_family(3, 0.5 + 0.6j, eta=0.1),  # complex gamma: no conj fold
], ids=lambda s: s.label())
@pytest.mark.parametrize("delta,radius", [(0.05, 1.5), (0.013, 0.9)])
def test_witness_a_family_path_matches_pointwise_sum(spec, energy, delta, radius):
    # the blockwise, folded family sum, the blockwise callable sum and the
    # cell-by-cell sum visit the same cells; only the order of the sum differs
    grid = num.disc_grid(delta, radius, energy_bound=energy)
    slice_fn = lambda a: fam.family_wigner_slice(spec, a)
    want_value, want_err = pointwise_witness_a(slice_fn, grid, spec.modes, energy)
    for arg in (spec, slice_fn):
        rep = wit.witness_a(arg, grid, spec.modes)
        assert rep.family == (spec.label() if arg is spec else None)
        assert rep.value == pytest.approx(want_value, rel=1e-13)
        if energy is None:
            assert rep.params["heuristic_error"] == pytest.approx(want_err, abs=1e-12)
        else:
            assert rep.rigorous_error == pytest.approx(want_err, rel=1e-12)
        assert rep.certified == (want_value - want_err
                                 > wit.slice_integral_threshold(spec.modes) + wit.GUARD)


@pytest.mark.parametrize("slice_fn", [
    lambda a: np.sum(np.exp(-np.abs(a) ** 2), axis=0),
    lambda a: np.exp(-np.abs(a[:, :1]) ** 2),
    lambda a: 0.5,
], ids=["reduced", "column", "scalar"])
def test_witness_a_rejects_misshapen_slice_output(slice_fn):
    # a broadcast in the block sum would give a wrong value without an error
    with pytest.raises(ValueError, match="shape"):
        wit.witness_a(slice_fn, num.disc_grid(0.1, 1.0, energy_bound=1.0), 3)


def test_witness_a_memory_stays_blockwise():
    # the whole delta = 0.005 lattice (1.1 M cells) and its delta/2 halving
    # (4.5 M cells) are never held at once: the sum goes block by block
    tracemalloc.start()
    try:
        rep = wit.witness_a(fam.w_family(5), num.disc_grid(0.005, 3.0), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.params["error_kind"] == "heuristic"
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# settings-matrix witness (scheme B)


def equal_displacement_entry(state):
    """Characteristic function of displacing every mode of `state` equally."""

    def entry(xi):
        xi = np.asarray(xi, dtype=complex)
        if xi.ndim == 0:
            return ps.characteristic_point(state, [complex(xi)] * state.modes)
        flat = xi.ravel()
        vals = [ps.characteristic_point(state, [complex(x)] * state.modes)
                for x in flat]
        return np.array(vals).reshape(xi.shape)

    return entry


# a four-point settings set found by the optimizer for the lossless
# three-mode interference state; its matrix has a clear negative mode
W3_XI = np.array([0.51 - 0.534j, 1.064 + 0.212j, 0.182 + 0.507j,
                  -0.372 - 0.24j])


def test_witness_b_certifies_w_state():
    spec = fam.w_family(3)
    rep = wit.witness_b(lambda d: fam.family_c_entry(spec, d), W3_XI, 3,
                        family="w:M=3")
    assert rep.certified
    assert rep.value == pytest.approx(1.0958722204963656, rel=1e-10)
    assert rep.value > wit.settings_threshold(3)
    assert rep.n_settings == wit.distinct_settings(W3_XI)
    assert rep.params["n_points"] == 4


def test_witness_b_closed_form_matches_state_oracle():
    # the family entry function equals the characteristic function of the
    # explicitly built truncated state at equal displacements
    spec = fam.w_family(3)
    state = fam.family_fock_expansion(spec)
    entry = equal_displacement_entry(state)
    rng = np.random.default_rng(17)
    for _ in range(6):
        xi = complex(*rng.normal(scale=0.4, size=2))
        assert fam.family_c_entry(spec, xi) == pytest.approx(entry(xi), abs=1e-8)
    rep_closed = wit.witness_b(lambda d: fam.family_c_entry(spec, d), W3_XI, 3)
    rep_state = wit.witness_b(entry, W3_XI, 3)
    assert rep_state.value == pytest.approx(rep_closed.value, abs=1e-7)


@pytest.mark.parametrize("make_state", [
    lambda: tensor(tensor(coherent_state(0.6, 8), coherent_state(0.6, 8)),
                   coherent_state(0.6, 8)),
    lambda: fock_state((1, 1, 1)),
    lambda: MixedState((
        (0.5, vacuum(3, 1)),
        (0.5, fock_state((1, 1, 1))),
    )),
])
def test_witness_b_sound_on_separable_states(make_state):
    state = make_state()
    entry = equal_displacement_entry(state)
    rng = np.random.default_rng(23)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        xi = rng.normal(scale=0.8, size=n) + 1j * rng.normal(scale=0.8, size=n)
        rep = wit.witness_b(entry, xi, 3)
        assert not rep.certified, f"false certification at {xi}"


# ---------------------------------------------------------------------------
# collective-parity witness (scheme C)


def test_witness_c_w_state_anchor():
    state = fam.family_fock_expansion(fam.w_family(3))
    rep = wit.witness_c(state, fam.vacuum_kernel(1), alpha=0.0)
    assert rep.value == pytest.approx(-0.5, abs=1e-12)
    assert rep.certified
    assert rep.params["total_modes"] == 4


def test_witness_c_dicke_anchors():
    state = fam.family_fock_expansion(fam.dicke2_family(3))
    rep_fock = wit.witness_c(state, fam.fock_kernel(1, 1), alpha=0.0)
    assert rep_fock.value == pytest.approx(-0.25, abs=1e-12)
    assert rep_fock.certified
    rep_vac = wit.witness_c(state, fam.vacuum_kernel(1), alpha=0.0)
    assert rep_vac.value == pytest.approx(0.5, abs=1e-12)
    assert not rep_vac.certified


def test_witness_c_matches_smoothed_closed_form():
    cases = [
        (fam.w_family(3), fam.vacuum_kernel(1), 0.3 - 0.2j),
        (fam.dicke2_family(3), fam.vacuum_kernel(1), 0.25),
        (fam.dicke2_family(3), fam.fock_kernel(1, 1), 0.4j),
        (fam.psi_family("psi1"), fam.vacuum_kernel(1), 0.3),
    ]
    for spec, kernel, alpha in cases:
        state = fam.family_fock_expansion(spec)
        rep = wit.witness_c(state, kernel, alpha=alpha)
        closed = (math.pi / 2.0) * fam.family_smoothed_wigner(spec, kernel, alpha)
        assert rep.value == pytest.approx(closed, abs=1e-10), spec.label()


#: One member of each family for the smoothed-form table test; a family not
#: listed is taken at its default parameters.  The cat is small enough (a
#: cutoff of 4 per mode) for the oracle's 12-photon budget.
_SMOOTHED_MEMBERS = {"w": "w:M=4,eta=0.2", "cat": "cat:M=3,gamma=0.05",
                     "noon3": "noon3:N=3"}

#: The uniform kernels with a tabulated smoothed form, per family.
_TABULATED = {("w", "vacuum"), ("cat", "vacuum"), ("dicke2", "vacuum"), ("dicke2", "fock1"),
              ("noon3", "vacuum"), ("noon3", "fock1"), ("psi1", "vacuum"),
              ("psi2", "vacuum"), ("psi4", "fock1"), ("psi5", "fock1")}

_KERNELS = {
    "vacuum": fam.vacuum_kernel,
    "fock1": lambda count: fam.fock_kernel(count, 1),
    "squeezed": lambda count: fam.squeezed_kernel(count, 0.7),
    # a single ancilla is never mixed: for M = 3 this is fock1
    "mixed": lambda count: fam.KernelSpec((("fock", 1),) + (("vacuum",),) * (count - 1)),
}


@pytest.mark.parametrize("kind", list(_KERNELS))
@pytest.mark.parametrize("tag", list(fam.FAMILIES))
def test_smoothed_form_matches_the_oracle_or_raises(tag, kind):
    spec = fam.parse_family(_SMOOTHED_MEMBERS.get(tag, tag))
    kernel = _KERNELS[kind](spec.modes - 2)
    uniform_kind = "fock1" if kind == "mixed" and spec.modes == 3 else kind
    matched = []
    for alpha in (0.0, 0.3 - 0.2j, 0.5j):
        try:
            closed = fam.family_smoothed_wigner(spec, kernel, alpha)
        except ValueError as exc:
            assert re.search("has no smoothed capability|no tabulated smoothed form"
                             "|tabulated at the origin only", str(exc)), str(exc)
            continue
        state = fam.family_fock_expansion(spec)
        oracle = wit.witness_c(state, kernel, alpha, max_photons=12).value
        assert (math.pi / 2.0) * closed == pytest.approx(oracle, abs=1e-10)
        matched.append(alpha)
    assert (0.0 in matched) == ((tag, uniform_kind) in _TABULATED)


def test_witness_c_explicit_ancilla_states():
    state = fam.family_fock_expansion(fam.w_family(3))
    rep = wit.witness_c(state, fam.vacuum_kernel(1), alpha=0.0)
    assert rep.value == pytest.approx(-0.5, abs=1e-12)
    # ancillas with a higher cutoff than the system must not crash the joint
    rep2 = wit.witness_c(state, fam.fock_kernel(1, 3), alpha=0.0)
    assert np.isfinite(rep2.value)


def test_witness_c_input_validation():
    state = fam.family_fock_expansion(fam.w_family(3))
    with pytest.raises(ValueError):
        wit.witness_c(state, fam.vacuum_kernel(2))  # wrong ancilla count
    with pytest.raises(ValueError):
        wit.witness_c(fock_state((1, 1)), fam.vacuum_kernel(0))  # modes < 3
    with pytest.raises(ValueError):
        wit.witness_c(state, fam.squeezed_kernel(1, 0.5))


def test_witness_c_photon_budget_hint():
    state = fam.family_fock_expansion(fam.dicke2_family(3))
    with pytest.raises(ResourceLimitError, match="family_smoothed_wigner"):
        wit.witness_c(state, fam.fock_kernel(1, 9), max_photons=8)


def test_witness_c_refuses_more_photons_than_the_moment_sum_takes():
    # 30 photons in the truncated cat: the moment sum would lose digits, and
    # numpy's sqrt takes no n! past int64
    state = fam.family_fock_expansion(fam.cat_family(3, 0.5))
    with pytest.raises(ResourceLimitError, match="limit 20.*family_smoothed_wigner"):
        wit.witness_c(state, fam.vacuum_kernel(1), max_photons=40)


def test_witness_c_dense_entry_budget():
    # 3 photons in 6 modes is within the photon budget, and the joint state
    # with 4 ancillas has 4^10 entries, but the dense moments would need
    # 4 x 4^10
    state = fock_state((3,) + (0,) * 5)
    with pytest.raises(ResourceLimitError, match="family_smoothed_wigner"):
        wit.witness_c(state, fam.vacuum_kernel(4), max_photons=8)


def test_witness_c_reports_oracle_size():
    state = fam.family_fock_expansion(fam.w_family(3))
    rep = wit.witness_c(state, fam.vacuum_kernel(1), alpha=0.3)
    assert (rep.params["cutoff"], rep.params["entries"], rep.params["n_max"]) == (1, 16, 1)
    # a 3-photon ancilla lifts the joint cutoff to 3: 4^4 entries, 4 photons
    rep = wit.witness_c(state, fam.fock_kernel(1, 3), alpha=0.3)
    assert (rep.params["cutoff"], rep.params["entries"], rep.params["n_max"]) == (3, 256, 4)


def test_witness_c_out_of_range_alpha_names_alpha():
    state = fam.family_fock_expansion(fam.w_family(3))
    # at M = 3 the internal displacement is 2 alpha sqrt(3/4), which
    # underflows beyond |alpha| = 37.64 / sqrt(3) = 21.73
    assert np.isfinite(wit.witness_c(state, fam.vacuum_kernel(1), alpha=21.7).value)
    with pytest.raises(ValueError, match=r"\|alpha\| = 40 .*M = 3.* 21\.73"):
        wit.witness_c(state, fam.vacuum_kernel(1), alpha=40)
    with pytest.raises(ValueError, match="alpha"):
        wit.witness_c(state, fam.vacuum_kernel(1), alpha=complex("nan"))


def _lower_com_reference(psi):
    """a_c psi as computed before the slice-add rewrite, by moving each axis first."""
    out = np.zeros_like(psi)
    root = np.sqrt(np.arange(1, psi.shape[0])).reshape((-1,) + (1,) * (psi.ndim - 1))
    for axis in range(psi.ndim):
        np.moveaxis(out, axis, 0)[:-1] += root * np.moveaxis(psi, axis, 0)[1:]
    return out / math.sqrt(psi.ndim)


@pytest.mark.parametrize("shape", [(1,), (5,), (1, 1, 1), (2,) * 4, (3,) * 6, (2,) * 8,
                                   (4,) * 3])
def test_lower_com_bits_match_the_moveaxis_version(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[0])
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psi.real[psi.real < -1.0] = -0.0  # signed zeros must come out the same too
    got = wit._lower_com(psi)
    want = _lower_com_reference(psi)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def _reflection_com_density(state):
    """Centre-of-mass density matrix through a multiport reflection.

    A real reflection sends mode 0 onto the uniform centre-of-mass mode; the
    state is pushed through it by creation operators and mode 0 is kept.
    This route shares nothing with the moment construction of the witness.
    """
    modes = state.modes
    w = np.eye(modes)[0] - np.full(modes, 1.0 / math.sqrt(modes))
    rot = np.eye(modes) - 2.0 * np.outer(w, w) / np.dot(w, w)
    n_max = max(pure.total_photon_max() for _, pure in as_ensemble(state))
    rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for weight, pure in as_ensemble(state):
        groups = {}
        out = apply_linear_optical(rot, pure).amps
        for key in map(tuple, np.argwhere(out).tolist()):
            groups.setdefault(key[1:], {})[key[0]] = out[key]
        for sub in groups.values():
            for i, ci in sub.items():
                for j, cj in sub.items():
                    rho[i, j] += weight * ci * np.conj(cj)
    return rho


@st.composite
def _joint_states(draw):
    """Random 3-4 mode pure states or mixtures with up to 5 photons."""
    modes = draw(st.integers(3, 4))
    cutoff = draw(st.integers(1, 2))
    keys = [k for k in np.ndindex((cutoff + 1,) * modes) if sum(k) <= 5]
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    branches = []
    for _ in range(draw(st.integers(1, 2))):
        support = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6,
                                unique=True))
        amps = np.zeros((cutoff + 1,) * modes, dtype=complex)
        for k in support:
            amps[k] = complex(draw(parts), draw(parts)) + 0.05
        branches.append(PureState(amps))
    if len(branches) == 1:
        return branches[0]
    weight = draw(st.floats(0.1, 0.9))
    return MixedState(((weight, branches[0]), (1.0 - weight, branches[1])))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_joint_states())
def test_com_density_matrix_matches_reflection_route(state):
    got = wit._com_density_matrix(state, max_photons=8)
    np.testing.assert_allclose(got, _reflection_com_density(state), atol=1e-10)


# ---------------------------------------------------------------------------
# randomized collective-parity witness (scheme D)


def test_scheme_rejects_unsound_covariance():
    bound = (3 - 2) / (4.0 * 9)  # M = 3
    ok = wit.RandomDisplacementScheme(0.0, ((bound, 0.0), (0.0, bound)), 3)
    assert math.sqrt(np.linalg.det(ok.cov_matrix())) >= bound - 1e-12
    with pytest.raises(ValueError, match="soundness"):
        wit.RandomDisplacementScheme(0.0, ((bound / 2, 0.0), (0.0, bound / 2)), 3)
    with pytest.raises(ValueError):
        wit.RandomDisplacementScheme(0.0, ((0.1, 0.3), (0.2, 0.1)), 3)
    with pytest.raises(ValueError):
        wit.RandomDisplacementScheme(0.0, ((0.1, 0.2), (0.2, -0.1)), 3)
    with pytest.raises(ValueError):
        wit.RandomDisplacementScheme(0.0, ((1.0, 0.0), (0.0, 1.0)), 2)


def test_witness_d_w_state_mean():
    spec = fam.w_family(3)
    scheme = wit.RandomDisplacementScheme(
        0.0, ((1.0 / 36.0, 0.0), (0.0, 1.0 / 36.0)), 3)
    rep = wit.witness_d(spec, scheme, 100_000, seed=7)
    assert rep.certified
    assert rep.family == "w:M=3"
    # population mean of the smoothed parity at this spread is -3/8
    assert rep.value == pytest.approx(-0.375, abs=4 * rep.stderr)
    assert rep.value + 3 * rep.stderr < 0


def test_witness_d_reruns_bit_identical():
    spec = fam.w_family(3)
    scheme = wit.RandomDisplacementScheme(
        0.0, ((1.0 / 36.0, 0.0), (0.0, 1.0 / 36.0)), 3)
    rep1 = wit.witness_d(spec, scheme, 5_000, seed=42)
    rep2 = wit.witness_d(spec, scheme, 5_000, seed=42)
    assert rep1.value == rep2.value
    assert rep1.stderr == rep2.stderr
    rep3 = wit.witness_d(spec, scheme, 5_000, seed=43)
    assert rep3.value != rep1.value


def test_witness_d_requires_enough_samples():
    scheme = wit.RandomDisplacementScheme(
        0.0, ((1.0 / 36.0, 0.0), (0.0, 1.0 / 36.0)), 3)
    with pytest.raises(ValueError):
        wit.witness_d(fam.w_family(3), scheme, 999, seed=0)
    with pytest.raises(TypeError):
        wit.witness_d(object(), scheme, 2_000, seed=0)


def test_witness_d_sound_on_positive_target():
    # a positive centre-of-mass Wigner function can never certify
    gaussian = lambda y: np.exp(-2.0 * np.abs(y) ** 2) * (2.0 / math.pi)
    scheme = wit.RandomDisplacementScheme(
        0.0, ((1.0 / 36.0, 0.0), (0.0, 1.0 / 36.0)), 3)
    rep = wit.witness_d(gaussian, scheme, 20_000, seed=3)
    assert not rep.certified
    assert rep.family is None
    assert rep.value > 0


# ---------------------------------------------------------------------------
# kernel-matrix witness (scheme E)


def test_witness_e_requires_matching_kernel_length():
    spec = fam.w_family(4)
    entry = lambda d: fam.family_c_entry(spec, d)
    with pytest.raises(ValueError):
        wit.witness_e(entry, W3_XI, fam.vacuum_kernel(1), 4)


def test_witness_e_vacuum_kernel_bounded_without_negativity():
    # with five settings the lossless three-mode interference state reaches
    # the trace-norm bound but cannot exceed it
    spec = fam.w_family(3)
    entry = lambda d: fam.family_c_entry(spec, d)
    rng = np.random.default_rng(11)
    for _ in range(12):
        xi = rng.normal(scale=0.7, size=5) + 1j * rng.normal(scale=0.7, size=5)
        rep = wit.witness_e(entry, xi, fam.vacuum_kernel(1), 3)
        assert rep.value <= 1.0 + 1e-9
        assert not rep.certified


def test_witness_e_sound_on_separable_states():
    state = tensor(tensor(coherent_state(0.5, 8), coherent_state(-0.5, 8)),
                   vacuum(1, 8))
    entry = equal_displacement_entry(state)
    rng = np.random.default_rng(29)
    for _ in range(6):
        n = int(rng.integers(3, 7))
        xi = rng.normal(scale=0.6, size=n) + 1j * rng.normal(scale=0.6, size=n)
        rep = wit.witness_e(entry, xi, fam.vacuum_kernel(1), 3)
        assert rep.value <= 1.0 + 1e-9
        assert not rep.certified


def test_settings_objective_agrees_with_trace_norm():
    spec = fam.w_family(3)
    entry = lambda d: fam.family_c_entry(spec, d)
    obj = wit.settings_objective(entry)
    rep = wit.witness_b(entry, W3_XI, 3)
    # the matrix at this set has a negative mode, so the surrogate is exact
    assert obj(W3_XI) == pytest.approx(rep.value, rel=1e-12)


def test_settings_objective_funnels_psd_plateau():
    spec = fam.w_family(3)
    entry = lambda d: fam.family_c_entry(spec, d)
    obj = wit.settings_objective(entry)
    assert wit.ESCAPE_SLOPE == 30.0
    xi = np.array([0.0, 0.01, -0.01])  # tiny spread: PSD region
    mat = wit.build_settings_matrix(entry, xi)  # entries carry 1/N
    lam_min = float(np.linalg.eigvalsh(mat)[0])
    assert lam_min > -1e-14
    assert obj(xi) == pytest.approx(1.0 - 30.0 * lam_min, rel=1e-9)
    assert obj(xi) < 1.0  # strictly inside the funnel


# ---------------------------------------------------------------------------
# optimizer wrappers


def test_stacked_objective_is_the_one_set_objective_per_row():
    spec, kernel = fam.cat_family(3, 1.0, eta=0.1), fam.vacuum_kernel(1)
    entry = lambda d: fam.family_c_entry(spec, d)
    kernel_entry = lambda d: fam.kernel_c_entry(kernel, d)
    rng = np.random.default_rng(12)
    stack = rng.normal(scale=0.7, size=(9, 5)) + 1j * rng.normal(scale=0.7, size=(9, 5))
    stack[0] = 0.01 * stack[0]  # one set on the PSD plateau
    for k in (None, kernel_entry):
        values = wit.stacked_settings_objective(entry, k)(stack)
        one_set = wit.settings_objective(entry, k)
        assert values.shape == (9,)
        assert values.tolist() == [one_set(xi) for xi in stack]


def test_optimize_witness_b_w_family():
    budget = num.OptimizerBudget(restarts=16, max_evals=800, tol=1e-7, seed=0)
    rep = wit.optimize_witness_b(fam.w_family(3, eta=0.03), 4, budget)
    assert rep.certified
    assert rep.value > wit.settings_threshold(3)
    assert rep.n_settings <= 7
    assert rep.params["restarts"] == 16
    assert rep.seed == 0


def test_optimize_witness_e_needs_six_points_for_lossless_w():
    budget = num.OptimizerBudget(restarts=24, max_evals=1200, tol=1e-7, seed=0)
    kern = fam.vacuum_kernel(1)
    rep5 = wit.optimize_witness_e(fam.w_family(3), kern, 5, budget)
    assert not rep5.certified
    assert rep5.value <= 1.0 + 1e-9
    rep6 = wit.optimize_witness_e(fam.w_family(3), kern, 6, budget)
    assert rep6.certified
    assert rep6.value > 1.0 + 1e-4


def test_optimize_witness_reports_optimizer_work():
    budget = num.OptimizerBudget(restarts=4, max_evals=60, tol=1e-7, seed=0)
    rep = wit.optimize_witness_b(fam.w_family(3, eta=0.03), 4, budget)
    # 4 start points plus at most two budgets per restart
    assert 4 < rep.params["objective_evals"] <= 4 + 2 * 4 * 60
    assert 1 <= rep.params["improving_restarts"] <= 4
    rep = wit.optimize_witness_e(fam.w_family(3), fam.vacuum_kernel(1), 5, budget)
    assert 4 < rep.params["objective_evals"] <= 4 + 2 * 4 * 60
    assert 1 <= rep.params["improving_restarts"] <= 4


@pytest.mark.parametrize("optimize", [
    lambda n, b: wit.optimize_witness_b(fam.w_family(3), n, b),
    lambda n, b: wit.optimize_witness_e(fam.w_family(3), fam.vacuum_kernel(1), n, b),
    lambda n, b: wit.optimize_witness_e(fam.w_family(3), fam.vacuum_kernel(2), 4, b),
    lambda n, b: wit.optimize_witness_b(fam.w_family(1), 3, b),
], ids=["B-one-point", "E-one-point", "E-wrong-kernel", "B-one-mode"])
def test_optimize_witness_rejects_bad_input_before_optimizing(optimize, monkeypatch):
    def optimizer_ran(*args, **kwargs):
        raise AssertionError("the optimizer ran")

    monkeypatch.setattr(num, "optimize_settings", optimizer_ran)
    with pytest.raises(ValueError, match="at least 2 (points|modes)|ancillas"):
        optimize(1, num.OptimizerBudget(restarts=2, max_evals=10, seed=0))
