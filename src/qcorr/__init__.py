"""Information content of correlations in N-qubit quantum states.

Total correlation (sum of single-qubit entropies minus total entropy), its
internal/external decomposition under bipartitions, classical/quantum region
classification, correlation bounds, and purification cost.

Importing qcorr before numpy loads numpy's OpenBLAS with a short idle spin:
after the library loads and after each threaded call, its idle workers spin
about 0.5 ms, not about 0.1 s, before they sleep, so a short process no
longer burns that 0.1 s of CPU per worker. To keep OpenBLAS's default, set
OPENBLAS_THREAD_TIMEOUT yourself or import numpy first. The thread count is
left as it is.
"""

import os as _os
import sys as _sys

# OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, as numpy loads it: its idle
# workers spin 2^28 TSC ticks by default, 2^20 (about 0.5 ms) with 20. Shorter
# spins slowed threaded solves that wait on their workers between calls: at
# 16, a 256-dimensional complex eigh ran 7% slower. The variable is removed
# again, so os.environ and child processes see it as the caller left it.
if "numpy" not in _sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in _os.environ:
    _os.environ["OPENBLAS_THREAD_TIMEOUT"] = "20"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_THREAD_TIMEOUT"]

from .correlation import (  # noqa: E402
    LN2,
    ArakiLiebResult,
    BoundsReport,
    DecompositionRows,
    Region,
    araki_lieb_check,
    classify_region,
    correlation_bounds,
    decompose_rows,
    index_of_correlation,
    max_total_correlation,
    subsystem_entropies,
    total_correlation,
    von_neumann_entropy,
)
from .errors import (  # noqa: E402
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
from .linalg import (  # noqa: E402
    kron,
    partial_trace,
    permute_qubits,
)
from .partitions import (  # noqa: E402
    Decomposition,
    decompose,
    enumerate_bipartitions,
    is_product_across,
    pure_state_decomposition_identities,
    tradeoff_delta,
)
from .purification import (  # noqa: E402
    PurificationResult,
    is_maximally_correlated_purification,
    min_purifying_qubits,
    purify,
    spectral_rank,
)
from .report import (  # noqa: E402
    CorrelationReport,
    PartitionAnalysis,
    analyze,
    load_state_file,
    parse_partition,
    parse_partition_list,
    parse_state_spec,
    parse_subset,
    render_table,
    report_to_dict,
    save_state_file,
    sweep,
)
from .states import (  # noqa: E402
    DEFAULT_MAX_QUBITS,
    DensityOperator,
    Partition,
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
