"""Multipartite entanglement measures for qubit systems.

Computes k-ME concurrence, negativity, the tangle hierarchy, and
polynomial local-unitary invariants for systems of qubits, constructs
the standard named states (GHZ, W, W-class, GHZ + white noise, the
nine four-qubit SLOCC normal forms) with their closed-form measure
values, and ships a harness that verifies the quantitative relations
among all of these numerically.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    IncompatibleInput,
    IndexOutOfRange,
    InputError,
    NotHermitian,
    NotUnitary,
    OutOfDomain,
    OutOfRange,
    QentError,
    ZeroVector,
)
from .families import (
    FAMILY_LABELS,
    ClosedFormPrediction,
    FamilyParams,
    default_parameter_grid,
    family_closed_forms,
    ghz,
    ghz_noise,
    ghz_noise_negativity,
    ghz_noise_nme_exact,
    ghz_noise_threshold,
    slocc_family,
    w,
    w_class,
    w_kme_closed_form,
    w_two_tangle,
)
from .invariants import (
    Invariants3,
    Invariants4,
    invariants3,
    invariants4,
    kme_from_invariants3,
    kme_from_invariants4,
    tangles_from_invariants3,
)
from .measures import (
    MeasureReport,
    NegativityProfile,
    kme_concurrence_pure,
    kme_concurrence_stack,
    linear_entropy_pure,
    negativity,
    negativity_profile,
    nme_lower_bound,
    one_tangle,
    three_tangle,
    three_tangle_raw,
    two_tangle,
    wootters_concurrence,
)
from .partitions import Partition, k_partitions
from .qstate import (
    DensityMatrix,
    PureState,
    SchmidtSpectrum,
    apply_local_unitary,
    density_of,
    hermitian_eigenvalues,
    load_state,
    make_pure,
    partial_trace,
    partial_transpose,
    purity,
    reduced_density_pure,
    save_state,
    schmidt_spectrum,
    state_from_json,
    state_to_json,
)
from .verify import (
    Ensemble,
    RelationCheckResult,
    RelationId,
    SuiteConfig,
    SuiteReport,
    check,
    random_ensemble,
    random_local_unitary,
    random_mixed,
    random_pure,
    run_suite,
)

__version__ = "0.1.0"
