"""Negativity-based entanglement measures and 1D quantum-network chains."""

__version__ = "0.1.0"

from .tensor import (
    SubsystemLayout,
    kron,
    partial_trace,
    partial_transpose,
    trace_norm_hermitian,
    schmidt_decompose,
)
from .states import (
    DensityMatrix,
    PureState,
    TmsvsSpec,
    apply_kraus_branches,
    bell_state,
    cutoff_for_amplitude_tail,
    default_cutoff,
    pure_from_schmidt,
    random_density_matrix,
    random_haar_pure,
    substream,
    tmsvs_truncated,
)
from .measures import (
    MeasureResult,
    MeasureSpec,
    compose_ratio_tensor,
    evaluate_measure,
    f_negativity,
    log_negativity,
    negativity,
    pt_trace_norm,
    ratio_negativity,
    validate_f,
)
from .gaussian import (
    CovarianceMatrix,
    cm_partial_transpose,
    cm_ratio_negativity,
    symplectic_eigenvalues,
    symplectic_form,
    tmsvs_cm,
    validate_cm,
)
from .swapping import (
    ChainResult,
    LinkResource,
    chain_compose,
    chain_fock_crosscheck,
    chain_prefixes,
    characteristic_length,
    qubit_link,
    qudit_link,
    swap,
    tmsvs_link,
)
from .monogamy import (
    MonogamyReport,
    alpha_threshold,
    aux_g,
    check_ineq_xya_grid,
    ckw_residual,
    ckw_violation_state,
    sample_monogamy_scan,
)
from .groupop import (
    CompositionLaw,
    LAW_REGISTRY,
    check_group_operation,
    get_law,
    necessary_conditions_check,
    verify_multiplicative_f,
)
