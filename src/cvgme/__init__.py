"""Phase-space certification of genuine multipartite entanglement.

Tools for multimode bosonic states: a dense truncated-Fock oracle, passive
linear optics and loss channels, Wigner/characteristic-function evaluation,
closed-form reference state families, five certification schemes built on
displaced-parity measurements, and the supporting numerics (rigorous
midpoint quadrature, seeded optimization and sampling).
"""

from .fock_core import (
    DimensionError,
    MixedState,
    NullStateError,
    PureState,
    as_ensemble,
    coherent_state,
    fock_state,
    inner_product,
    mean_photon_number,
    normalize,
    tensor,
    vacuum,
)
from .gaussian_ops import (
    CutoffError,
    ResourceLimitError,
    apply_amplitude_damping,
    apply_displacement,
    apply_linear_optical,
    beamsplitter_matrix,
    displacement_matrix_element,
    parity_expectation,
)
from .phase_space import (
    SliceSpec,
    characteristic_point,
    diagonal_slice,
    displaced_parity_expectation,
    phase_point,
    wigner_point,
    wigner_slice_point,
)
from .families import (
    FamilySpec,
    KernelSpec,
    cat_family,
    coherent_tail_cutoff,
    dicke2_family,
    family_c_entry,
    family_com_wigner,
    family_energy,
    family_fock_expansion,
    family_smoothed_wigner,
    family_wigner_slice,
    fock_kernel,
    kernel_c_entry,
    noon3_family,
    parse_family,
    psi_family,
    slice_abs_envelope,
    squeezed_kernel,
    v2d_closed_form,
    vacuum_kernel,
    w_family,
)
from .numerics import (
    GaussianEnvelope,
    GridSpec,
    OptimizerBudget,
    SettingsOptimum,
    bisect_threshold,
    disc_grid,
    gaussian_samples,
    midpoint_integral,
    monotone_boundary,
    optimize_settings,
    rigorous_error,
    tail_radius,
)
from .witnesses import (
    GUARD,
    RandomDisplacementScheme,
    WitnessReport,
    build_settings_matrix,
    distinct_settings,
    optimize_witness_b,
    optimize_witness_e,
    settings_objective,
    settings_threshold,
    stacked_settings_objective,
    slice_integral_threshold,
    trace_norm_hermitian,
    volume_threshold,
    witness_a,
    witness_b,
    witness_c,
    witness_d,
    witness_e,
)

__version__ = "0.1.0"
