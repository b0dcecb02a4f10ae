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
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .linalg import partial_trace
from .states import (
    DensityOperator,
    PureState,
    _amplitude_matrices,
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

#: The most amplitudes `_schmidt_cuts` stacks for one batched solve: 2^16
#: complex values, 1 MiB.
MAX_STACK_AMPLITUDES = 1 << 16

#: A Gram spectrum whose tail, all but its largest eigenvalue, sums below this
#: is solved again by SVD. Forming M M^dagger squares the condition number, so
#: the Gram tail of an exact product is rounding noise of either sign, about
#: 4e-16 (Golub & Van Loan, Matrix Computations), where the product flag
#: (`partitions._product_flag`) needs a tail below 5e-19.
GRAM_TAIL_FLOOR = 1e-12


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


def clamp_nonneg(x):
    """max(x, 0), elementwise for an array, as +0.0 where x is 0, -0.0 or
    slightly negative.

    Adding +0.0 turns a -0.0 that a plain maximum passes through into +0.0,
    so a clamped value never prints as "-0.0"; NaN still propagates.
    """
    return np.maximum(x, 0.0) + 0.0


def _entropies(probs: np.ndarray) -> np.ndarray:
    """-sum p ln p along the last axis over entries above the floor, >= 0."""
    p = np.asarray(probs, dtype=np.float64)
    p = np.where(p > ENTROPY_EIG_FLOOR, p, 1.0)  # 1 ln 1 = 0
    return clamp_nonneg(-np.sum(p * np.log(p), axis=-1))


def entropy_from_probs(p: np.ndarray) -> float:
    """-sum p ln p over entries above the floor, clamped to >= 0."""
    return float(_entropies(p))


def _level_probs(amps: np.ndarray, n: int, sides: list[tuple[int, ...]]) -> np.ndarray:
    """Schmidt probabilities, descending, of the cuts whose smaller sides,
    all of one size k, are `sides`; one row per side.

    The amplitude matrices are stacked at most `MAX_STACK_AMPLITUDES` at a
    time. Below the half cut (2k < n) each stack goes through its Gram
    matrices M M^dagger, of dimension 2^k, and one `eigvalsh`; a cut whose
    tail (all but the largest eigenvalue) sums below `GRAM_TAIL_FLOOR` is
    solved again by SVD. At the half cut a Gram matrix is no smaller than M,
    so each stack goes to one SVD.
    """
    k = len(sides[0])
    per_stack = max(1, MAX_STACK_AMPLITUDES >> n)
    out = []
    for start in range(0, len(sides), per_stack):
        mats = _amplitude_matrices(amps, n, sides[start : start + per_stack])
        if 2 * k == n:
            sv = np.linalg.svd(mats, compute_uv=False)
            out.append(sv * sv)
            continue
        gram = mats @ mats.conj().transpose(0, 2, 1)
        values = np.linalg.eigvalsh(gram)[:, ::-1]
        redo = np.sum(values[:, 1:], axis=1) < GRAM_TAIL_FLOOR
        probs = clamp_nonneg(values)
        if redo.any():
            sv = np.linalg.svd(mats[redo], compute_uv=False)
            probs[redo] = sv * sv
        out.append(probs)
    return np.concatenate(out)


def _schmidt_cuts(
    state: PureState, subsets: Iterable[Sequence[int]]
) -> list[tuple[np.ndarray, float]]:
    """(Schmidt probabilities, entropy) of the cut between each subset and the rest.

    Every subset is validated. Both sides of a pure state's cut share their
    spectrum, so the state memoises each cut once, keyed by the bit mask
    (bit q for qubit q) of its smaller side; at the half cut, of the side
    holding qubit 0. The whole register, or none of it, is key 0, with the
    one probability |psi|^2. The missing cuts are solved together, one size
    of the smaller side at a time (`_level_probs`), that side's qubits in
    ascending order indexing the matrix rows. Probabilities are read-only
    and descending; no memo entry holds a Gram tail below `GRAM_TAIL_FLOOR`.
    """
    n, amps, memo = state.n_qubits, state.amplitudes, state._cuts
    full = (1 << n) - 1
    keys = []
    for subset in subsets:
        subset = _check_subset(subset, n)
        mask = 0
        for q in subset:
            mask |= 1 << q
        if 2 * len(subset) > n or (2 * len(subset) == n and not mask & 1):
            mask ^= full
        keys.append(mask)
    levels: dict[int, list[int]] = {}
    for key in dict.fromkeys(keys):
        if key not in memo:
            levels.setdefault(key.bit_count(), []).append(key)
    for k, level in levels.items():
        if k == 0:
            probs = np.array([[float(np.vdot(amps, amps).real)]])
        else:
            sides = [tuple(q for q in range(n) if key >> q & 1) for key in level]
            probs = _level_probs(amps, n, sides)
        probs.setflags(write=False)
        memo.update(zip(level, zip(probs, _entropies(probs).tolist())))
    return [memo[key] for key in keys]


def _schmidt_cut(state: PureState, subset: Sequence[int]) -> tuple[np.ndarray, float]:
    """`_schmidt_cuts` of one subset."""
    return _schmidt_cuts(state, [subset])[0]


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


def _subset_entropies(
    state: PureState | DensityOperator, subsets: Sequence[Sequence[int]]
) -> np.ndarray:
    """`von_neumann_entropy` of each subset; a pure state's in one engine call."""
    if isinstance(state, PureState):
        return np.array([cut[1] for cut in _schmidt_cuts(state, subsets)])
    return np.array([von_neumann_entropy(state, subset) for subset in subsets])


def subsystem_entropies(state: PureState | DensityOperator) -> list[float]:
    """Entropy of each single-qubit reduction, in qubit order."""
    return _subset_entropies(state, [(k,) for k in range(state.n_qubits)]).tolist()


def total_correlation(state: PureState | DensityOperator) -> float:
    """Sum of single-qubit entropies minus the total entropy, clamped to >= 0."""
    return float(clamp_nonneg(sum(subsystem_entropies(state)) - von_neumann_entropy(state)))


def index_of_correlation(state: PureState | DensityOperator, part: "Partition") -> float:
    """S(rho_alpha) + S(rho_beta) - S(rho) across the given bipartition."""
    part.check_size(state.n_qubits)
    s_a = von_neumann_entropy(state, part.alpha)
    s_b = von_neumann_entropy(state, part.beta)
    return float(clamp_nonneg(s_a + s_b - von_neumann_entropy(state)))


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
    This is the one-row case of `partitions.decompose_rows`.
    """
    from .partitions import decompose_rows  # partitions imports this module

    rows = decompose_rows(state, [part])
    return ArakiLiebResult(
        bool(rows.araki_lieb_ok[0]), float(rows.lower_slack[0]), float(rows.upper_slack[0])
    )
