"""OFDM-IM modulation, SLM PAPR reduction with per-group permutation, and
Monte-Carlo CCDF analysis."""

__version__ = "0.1.0"

from .analysis import (
    MuReport,
    PssSpectrum,
    mu_metric,
    mu_metric_set,
    punctured_spectrum,
    spectrum_bound,
    var_rho_closed_form,
    var_rho_empirical,
    var_rho_empirical_profile,
)
from .ccdf import (
    CcdfCurve,
    SchemeDescriptor,
    TrialPlan,
    default_gamma_grid,
    instantiate_scheme,
    papr_at_ccdf,
    run_ccdf,
)
from .core import (
    Constellation,
    GroupSap,
    Sap,
    SystemConfig,
    block_from_bits,
    draw_active_positions,
    idft,
    sample_random_sap,
    sap_from_json,
    subset_rank,
    subset_unrank,
)
from .slm import (
    MlsSpec,
    PermutationSet,
    PhaseSequenceSet,
    SlmResult,
    all_ones_pss,
    candidate_paprs_db,
    cyclic_hadamard_matrix,
    gen_hadamard_pss,
    gen_mls,
    gen_perm_set,
    gen_random_pss,
    perm_set_from_json,
    perm_set_to_json,
    pss_from_json,
    pss_to_json,
    slm_select,
)
