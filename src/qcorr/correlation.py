"""Entropy and correlation functionals.

All entropies are in nats (natural log). The total correlation of an
N-qubit state is the sum of its single-qubit entropies minus the total
entropy; the index of correlation across a bipartition is
S(rho_alpha) + S(rho_beta) - S(rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .linalg import partial_trace
from .states import (
    DensityOperator,
    PureState,
    _amplitude_matrix,
    _check_subset,
    hermitian_spectrum,
)

if TYPE_CHECKING:
    from .partitions import Partition

LN2 = math.log(2.0)

#: Spectrum entries at or below this floor contribute nothing to entropy.
ENTROPY_EIG_FLOOR = 1e-15

#: Tolerance used when assigning region labels at the boundaries.
REGION_TOL = 1e-9


class Region(str, Enum):
    """Correlation-strength region relative to the subsystem entropy caps."""

    CLASSICAL = "Classical"
    QUANTUM = "Quantum"
    UNATTAINABLE = "Unattainable"


@dataclass(frozen=True)
class BoundsReport:
    """Upper bounds on correlation strength from the subsystem entropies.

    classical_upper: largest value reachable when the joint entropy cannot
        drop below the largest subsystem entropy (sum minus max).
    quantum_upper: largest value reachable when the joint state may be pure
        (plain sum).
    gap_bound: bound on the quantum-classical gap (the max entry).
    araki_lieb_ok: True when `araki_lieb_check` passed on every partition of
        the report this belongs to, False when it failed on any; None when
        no check was run, as from `correlation_bounds` alone.
    """

    classical_upper: float
    quantum_upper: float
    gap_bound: float
    araki_lieb_ok: bool | None = None


class ArakiLiebResult(NamedTuple):
    ok: bool
    lower_slack: float
    upper_slack: float


def clamp_nonneg(x: float) -> float:
    """max(x, 0) as +0.0 where x is 0, -0.0 or slightly negative.

    Adding +0.0 turns a -0.0 that max() passes through into +0.0, so a
    clamped value never prints as "-0.0"; NaN still propagates.
    """
    return max(x, 0.0) + 0.0


def entropy_from_probs(p: np.ndarray) -> float:
    """-sum p ln p over entries above the floor, clamped to >= 0."""
    p = np.asarray(p, dtype=np.float64)
    p = p[p > ENTROPY_EIG_FLOOR]
    if p.size == 0:
        return 0.0
    return clamp_nonneg(float(-np.sum(p * np.log(p))))


def _schmidt_probs(amps: np.ndarray, n: int, alpha: Sequence[int]) -> np.ndarray:
    """Squared singular values of the amplitude matrix for the given cut.

    These are the shared eigenvalues of both reduced operators of a pure
    state, so one SVD yields S(alpha) and S(beta) at once. They come in
    descending order.
    """
    sv = np.linalg.svd(_amplitude_matrix(amps, n, alpha), compute_uv=False)
    return sv * sv


def _schmidt_cut(state: PureState, subset: Sequence[int]) -> tuple[np.ndarray, float]:
    """(Schmidt probabilities, entropy) of the cut between `subset` and the rest.

    Memoised on the state under the qubit set of each side, as both sides of
    a pure state share their spectrum. A hit needs the set to be as long as
    `subset`, so (0, 0) misses; a miss validates `subset`.
    """
    subset = tuple(subset)
    key = frozenset(subset)
    cut = state._cuts.get(key)
    if cut is not None and len(key) == len(subset):
        return cut
    n, amps = state.n_qubits, state.amplitudes
    rows = _check_subset(subset, n)
    if 0 < len(rows) < n:
        probs = _schmidt_probs(amps, n, rows)
    else:  # the whole register or none of it: one probability, |psi|^2
        probs = np.array([float(np.vdot(amps, amps).real)])
    probs.setflags(write=False)
    cut = (probs, entropy_from_probs(probs))
    side = frozenset(rows)
    state._cuts[side] = state._cuts[frozenset(range(n)) - side] = cut
    return cut


def von_neumann_entropy(
    state: PureState | DensityOperator, subset: Sequence[int] | None = None
) -> float:
    """S of the state's reduction onto `subset` (the whole register if None).

    -Tr(rho ln rho) in nats, with 0 ln 0 = 0 and the result clamped to >= 0.
    A pure state is reduced through its Schmidt probabilities, memoised per
    cut, and never densified; its whole-register entropy comes from |psi|^2.
    An operator is reduced by partial trace; its whole-register entropy
    reads the cached `DensityOperator.spectrum`. Raises IndexError unless
    `subset` holds distinct qubits in range.
    """
    n = state.n_qubits
    if isinstance(state, PureState):
        return _schmidt_cut(state, range(n) if subset is None else subset)[1]
    if subset is not None:
        subset = _check_subset(subset, n)
        if len(subset) < n:
            return entropy_from_probs(
                hermitian_spectrum(partial_trace(state.matrix, n, subset))
            )
    return entropy_from_probs(state.spectrum)


def subsystem_entropies(state: PureState | DensityOperator) -> list[float]:
    """Entropy of each single-qubit reduction, in qubit order."""
    return [von_neumann_entropy(state, (k,)) for k in range(state.n_qubits)]


def total_correlation(state: PureState | DensityOperator) -> float:
    """Sum of single-qubit entropies minus the total entropy, clamped to >= 0."""
    return clamp_nonneg(sum(subsystem_entropies(state)) - von_neumann_entropy(state))


def index_of_correlation(state: PureState | DensityOperator, part: "Partition") -> float:
    """S(rho_alpha) + S(rho_beta) - S(rho) across the given bipartition."""
    part.check_size(state.n_qubits)
    s_a = von_neumann_entropy(state, part.alpha)
    s_b = von_neumann_entropy(state, part.beta)
    return clamp_nonneg(s_a + s_b - von_neumann_entropy(state))


def max_total_correlation(n_qubits: int) -> float:
    """Global maximum n*ln2: pure total state, every qubit maximally mixed."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    return n_qubits * LN2


def correlation_bounds(subsystem_entropies: Sequence[float]) -> BoundsReport:
    """Bounds on correlation strength from a list of subsystem entropies."""
    values = [float(v) for v in subsystem_entropies]
    if not values:
        raise ValueError("need at least one subsystem entropy")
    for v in values:
        if v < 0.0:
            raise ValueError(f"subsystem entropies must be >= 0, got {v}")
    top = max(values)
    total = sum(values)
    return BoundsReport(
        classical_upper=total - top,
        quantum_upper=total,
        gap_bound=top,
    )


def classify_region(value: float, max_entropies: Sequence[float]) -> Region:
    """Label a correlation strength against the subsystem entropy caps.

    Classical for value <= inf(caps), Quantum up to 2*inf(caps),
    Unattainable beyond, each boundary widened by `REGION_TOL`; the lower
    region is closed, so a value exactly at inf classifies as Classical.
    """
    caps = [float(v) for v in max_entropies]
    if not caps:
        raise ValueError("need at least one maximum entropy")
    if any(v <= 0.0 for v in caps):
        raise ValueError("maximum entropies must be > 0")
    if value < 0.0:
        raise ValueError(f"correlation value must be >= 0, got {value}")
    inf_cap = min(caps)
    if value <= inf_cap + REGION_TOL:
        return Region.CLASSICAL
    if value <= 2.0 * inf_cap + REGION_TOL:
        return Region.QUANTUM
    return Region.UNATTAINABLE


def araki_lieb_check(
    state: PureState | DensityOperator, part: "Partition"
) -> ArakiLiebResult:
    """Check |S_A - S_B| <= S <= S_A + S_B for the given bipartition.

    Returns the slack of each inequality; `ok` means both are >= -1e-9.
    """
    part.check_size(state.n_qubits)
    s_a = von_neumann_entropy(state, part.alpha)
    s_b = von_neumann_entropy(state, part.beta)
    s = von_neumann_entropy(state)
    lower = s - abs(s_a - s_b)
    upper = s_a + s_b - s
    return ArakiLiebResult(lower >= -1e-9 and upper >= -1e-9, lower, upper)
