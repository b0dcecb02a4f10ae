"""Information content of correlations in N-qubit quantum states.

Total correlation (sum of single-qubit entropies minus total entropy), its
internal/external decomposition under bipartitions, classical/quantum region
classification, correlation bounds, and purification cost.
"""

from .correlation import (
    LN2,
    ArakiLiebResult,
    BoundsReport,
    Region,
    araki_lieb_check,
    classify_region,
    correlation_bounds,
    index_of_correlation,
    max_total_correlation,
    subsystem_entropies,
    total_correlation,
    von_neumann_entropy,
)
from .errors import (
    NotHermitianError,
    NotNormalizedError,
    NotPositiveError,
    PartitionError,
    PreconditionError,
    QcorrError,
    SizeCapError,
    SpecParseError,
    StateFileError,
    TraceError,
)
from .linalg import (
    kron,
    partial_trace,
    permute_qubits,
)
from .partitions import (
    Decomposition,
    DecompositionRows,
    Partition,
    decompose,
    decompose_rows,
    enumerate_bipartitions,
    is_product_across,
    pure_state_decomposition_identities,
    tradeoff_delta,
)
from .purification import (
    PurificationResult,
    is_maximally_correlated_purification,
    min_purifying_qubits,
    purify,
    spectral_rank,
)
from .report import (
    CorrelationReport,
    PartitionAnalysis,
    StateSpec,
    analyze,
    build_state,
    load_state_file,
    parse_partition,
    parse_partition_list,
    parse_state_spec,
    parse_subset,
    render_table,
    report_to_dict,
    save_state_file,
    subset_entropy,
    sweep,
)
from .states import (
    DEFAULT_MAX_QUBITS,
    DensityOperator,
    PureState,
    bell_product,
    ghz,
    ghz_block_product,
    reduced_operator,
    to_density,
    uniform_entangled,
    validate_density,
)

__version__ = "0.1.0"
