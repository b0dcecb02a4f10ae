"""Entropy and correlation functionals.

All entropies are in nats (natural log). The total correlation of an
N-qubit state is the sum of its single-qubit entropies minus the total
entropy; the index of correlation across a bipartition is
S(rho_alpha) + S(rho_beta) - S(rho). `decompose_rows` splits the total across
bipartitions; `index_of_correlation` and `araki_lieb_check` read one row.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .linalg import _SET_BLAS_THREADS, partial_trace
from .states import (
    DensityOperator,
    Partition,
    PureState,
    _amplitude_matrices,
    _check_subset,
    hermitian_spectrum,
)

LN2 = math.log(2.0)

#: Spectrum entries at or below this floor contribute nothing to entropy.
ENTROPY_EIG_FLOOR = 1e-15

#: Tolerance used when assigning region labels at the boundaries.
REGION_TOL = 1e-9

#: How far a row's parts may sum from its total before `decompose_rows` raises.
IDENTITY_TOL = 1e-8

#: How far below zero an Araki-Lieb slack may read and the check still pass.
ARAKI_LIEB_TOL = 1e-9

#: The most amplitudes `_cut_spectra` stacks for one batched solve: 2^16
#: complex values, 1 MiB.
MAX_STACK_AMPLITUDES = 1 << 16

#: A Gram spectrum whose tail, all but its largest eigenvalue, sums below this
#: is solved again by SVD. Forming M M^dagger squares the condition number, so
#: the Gram tail of an exact product is rounding noise of either sign, about
#: 4e-16 (Golub & Van Loan, Matrix Computations), where the product flag
#: (`partitions._product_flags`) needs a tail below 5e-19.
GRAM_TAIL_FLOOR = 1e-12


_BLAS_LOCK = threading.Lock()
_blas_pin = [0, 0]  # blocks now in `_one_blas_thread`, and the count the first found


@contextmanager
def _one_blas_thread():
    """The block on one OpenBLAS thread, if the setter exists. Overlapping
    blocks share it: the first sets 1; the last restores what the first found,
    or a count that other code set meanwhile."""
    if _SET_BLAS_THREADS is None:
        yield
        return
    with _BLAS_LOCK:
        _blas_pin[0] += 1
        if _blas_pin[0] == 1:
            _blas_pin[1] = _SET_BLAS_THREADS(1)
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_pin[0] -= 1
            if not _blas_pin[0] and (now := _SET_BLAS_THREADS(_blas_pin[1])) != 1:
                _SET_BLAS_THREADS(now)  # the other code's count stands


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


@dataclass(frozen=True)
class DecompositionRows:
    """`partitions.decompose` and the Araki-Lieb slacks of many partitions,
    one array entry per partition, in the order given."""

    internal_alpha: np.ndarray
    internal_beta: np.ndarray
    external: np.ndarray
    total: np.ndarray
    lower_slack: np.ndarray
    upper_slack: np.ndarray

    @property
    def araki_lieb_ok(self) -> np.ndarray:
        """Each row's Araki-Lieb check: both slacks >= -`ARAKI_LIEB_TOL`."""
        return (self.lower_slack >= -ARAKI_LIEB_TOL) & (self.upper_slack >= -ARAKI_LIEB_TOL)


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


def _level_probs(amps: np.ndarray, n: int, sides: list[tuple[int, ...]]) -> np.ndarray:
    """Schmidt probabilities, descending, of the cuts whose smaller sides,
    all of one size k, are `sides`; one row per side.

    The amplitude matrices are stacked at most `MAX_STACK_AMPLITUDES` at a
    time, in the dtype of `amps`. Each stack goes through its Gram matrices
    M M^dagger, of dimension 2^k, and one `eigvalsh`; a cut whose tail (all
    but the largest eigenvalue) sums below `GRAM_TAIL_FLOOR` is solved again
    by SVD. A half cut of more than one stack has its stacks solved by a
    thread per CPU in the affinity mask, in side order, on one OpenBLAS
    thread (`_one_blas_thread`; each worker sets it on start too, for
    builds where the count is per thread).
    """
    per_stack = max(1, MAX_STACK_AMPLITUDES >> n)
    if 2 * len(sides[0]) == n and len(sides) > per_stack:
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        if cpus > 1:
            from concurrent.futures import ThreadPoolExecutor

            stacks = [sides[start : start + per_stack] for start in range(0, len(sides), per_stack)]
            pool = ThreadPoolExecutor(cpus, initializer=_SET_BLAS_THREADS, initargs=(1,))
            with _one_blas_thread(), pool:
                return np.concatenate(list(pool.map(lambda s: _level_probs(amps, n, s), stacks)))
    out = []
    for start in range(0, len(sides), per_stack):
        stack = sides[start : start + per_stack]
        mats = _amplitude_matrices(amps, n, stack)
        gram = mats @ mats.conj().transpose(0, 2, 1)
        if per_stack == 1:
            # One cut's matrix, as large as the state: freed before the solve.
            # Smaller stacks keep theirs, as freeing each early made the
            # allocator return and fault in its pages on every stack.
            del mats
        values = np.linalg.eigvalsh(gram)[:, ::-1]
        redo = np.sum(values[:, 1:], axis=1) < GRAM_TAIL_FLOOR
        probs = clamp_nonneg(values)
        if redo.any():
            again = [side for side, bad in zip(stack, redo) if bad]
            sv = np.linalg.svd(_amplitude_matrices(amps, n, again), compute_uv=False)
            probs[redo] = sv * sv
        out.append(probs)
    return np.concatenate(out)


def _cut_spectra(
    state: PureState | DensityOperator, subsets: Iterable[Sequence[int]]
) -> list[tuple[np.ndarray, float]]:
    """(read-only spectrum, entropy) of the state's reduction onto each subset.

    Callers hand it checked subsets of distinct qubits in range. The state
    memoises each reduction once in `_cuts` under a bit mask (bit q for qubit
    q). An operator's key is the subset's own mask: the subset is traced in
    ascending order, and the whole register reads the cached `spectrum`
    (eigenvalues ascending). Both sides of a pure state's cut share their
    Schmidt probabilities (descending), so its key is the mask of the smaller
    side; at the half cut, of the side holding qubit 0; for the whole register,
    0, with the one probability |psi|^2. The missing cuts are solved one size
    of the smaller side at a time, largest first, by Gram spectra with an SVD
    redo (`_level_probs`), so no memo entry holds a Gram tail below
    `GRAM_TAIL_FLOOR`. Up to `MAX_STACK_AMPLITUDES` amplitudes (16 qubits) they
    run on one BLAS thread (`_one_blas_thread`), as OpenBLAS's workers only
    spin beside such small solves, while larger ones and an operator's keep its
    threads. A pure state with no nonzero imaginary part is solved in float64,
    every other one in complex128.
    """
    n, memo = state.n_qubits, state._cuts
    pure = isinstance(state, PureState)
    full = (1 << n) - 1
    keys = []
    for subset in subsets:
        mask = 0
        for q in subset:
            mask |= 1 << q
        if pure and (2 * len(subset) > n or (2 * len(subset) == n and not mask & 1)):
            mask ^= full
        keys.append(mask)
    missing = [key for key in dict.fromkeys(keys) if key not in memo]
    if pure:
        levels: dict[int, list[int]] = {}
        for key in missing:
            levels.setdefault(key.bit_count(), []).append(key)
        amps = state.amplitudes
        if levels and not amps.imag.any():
            amps = amps.real.copy()  # a real state is solved in float64
        with _one_blas_thread() if levels and 1 << n <= MAX_STACK_AMPLITUDES else nullcontext():
            for k, level in sorted(levels.items(), reverse=True):
                if k == 0:
                    probs = np.array([[float(np.vdot(state.amplitudes, state.amplitudes).real)]])
                else:
                    sides = [tuple(q for q in range(n) if key >> q & 1) for key in level]
                    probs = _level_probs(amps, n, sides)
                probs.setflags(write=False)
                memo.update(zip(level, zip(probs, _entropies(probs).tolist())))
    else:
        for key in missing:
            if key == full:
                values = state.spectrum
            else:
                kept = [q for q in range(n) if key >> q & 1]
                values = hermitian_spectrum(partial_trace(state.matrix, n, kept))
                values.setflags(write=False)
            memo[key] = (values, float(_entropies(values)))
    return [memo[key] for key in keys]


def von_neumann_entropy(
    state: PureState | DensityOperator, subset: Sequence[int] | None = None
) -> float:
    """S of the state's reduction onto `subset` (the whole register if None).

    -Tr(rho ln rho) in nats, with 0 ln 0 = 0 and the result clamped to >= 0,
    from the memoised engine (`_cut_spectra`). A pure state is reduced
    through its Schmidt probabilities and never densified, an operator by
    partial trace. Raises IndexError unless `subset` holds distinct qubits
    in range. Up to 16 qubits, and in a half cut's thread pool, a pure state is
    solved on one OpenBLAS thread, which numpy's OpenBLAS sets for every thread.
    """
    n = state.n_qubits
    return _cut_spectra(state, [range(n) if subset is None else _check_subset(subset, n)])[0][1]


def subsystem_entropies(state: PureState | DensityOperator) -> list[float]:
    """Entropy of each single-qubit reduction, in qubit order."""
    return [cut[1] for cut in _cut_spectra(state, [(k,) for k in range(state.n_qubits)])]


def total_correlation(state: PureState | DensityOperator) -> float:
    """Sum of single-qubit entropies minus the total entropy, clamped to >= 0."""
    n = state.n_qubits
    *s_k, s = (cut[1] for cut in _cut_spectra(state, [*((q,) for q in range(n)), range(n)]))
    return float(clamp_nonneg(sum(s_k) - s))


def _side_sums(values: np.ndarray, sides: list[tuple[int, ...]]) -> np.ndarray:
    """sum(values[q] for q in side) for each side, added in the side's order."""
    entry = values.tolist().__getitem__
    return np.array([sum(map(entry, side)) for side in sides])


def decompose_rows(
    state: PureState | DensityOperator, parts: Sequence[Partition]
) -> DecompositionRows:
    """`partitions.decompose` of each partition and its Araki-Lieb slacks, as arrays.

    Per row, internal = the side's single-qubit entropies minus its entropy,
    external = S(alpha) + S(beta) - S, and the slacks are S - |S(alpha) -
    S(beta)| and S(alpha) + S(beta) - S. Raises TypeError for an entry that
    is not a Partition (text goes through `report.parse_partition_list`
    first), PartitionError if a partition does not cover the state and
    ArithmeticError if a row's parts miss its total by more than
    `IDENTITY_TOL`.
    """
    return _decomposition(state, parts)[0]


def _decomposition(
    state: PureState | DensityOperator, parts: Sequence[Partition]
) -> tuple[DecompositionRows, list[tuple[np.ndarray, float]]]:
    """`decompose_rows` and the cut table it reads, from one engine call: the
    `_cut_spectra` entries of each qubit, each alpha, each beta and the whole
    register, in that order (a pure state's beta entry is its alpha entry)."""
    n, m = state.n_qubits, len(parts)
    for part in parts:
        if not isinstance(part, Partition):
            raise TypeError(
                f"expected Partition entries, got {part!r} in {parts!r}; "
                "parse text with report.parse_partition_list first"
            )
        part.check_size(n)
    alphas, betas = [part.alpha for part in parts], [part.beta for part in parts]
    cuts = _cut_spectra(state, [*((q,) for q in range(n)), *alphas, *betas, range(n)])
    s = np.array([cut[1] for cut in cuts])
    s_k, s_alpha, s_beta, s_total = s[:n], s[n : n + m], s[n + m : n + 2 * m], s[-1]
    s_k_alpha = _side_sums(s_k, alphas)
    s_k_beta = _side_sums(s_k, betas)
    internal_alpha = clamp_nonneg(s_k_alpha - s_alpha)
    internal_beta = clamp_nonneg(s_k_beta - s_beta)
    external = clamp_nonneg(s_alpha + s_beta - s_total)
    total = clamp_nonneg(s_k_alpha + s_k_beta - s_total)
    missed = np.abs(internal_alpha + internal_beta + external - total) > IDENTITY_TOL
    if missed.any():
        i = int(np.argmax(missed))
        raise ArithmeticError(
            "internal/external decomposition failed to reproduce the total "
            f"correlation across {parts[i].label()}: {internal_alpha[i]} + "
            f"{internal_beta[i]} + {external[i]} vs {total[i]}"
        )
    lower = s_total - np.abs(s_alpha - s_beta)
    upper = s_alpha + s_beta - s_total
    return DecompositionRows(internal_alpha, internal_beta, external, total, lower, upper), cuts


def index_of_correlation(state: PureState | DensityOperator, part: Partition) -> float:
    """S(rho_alpha) + S(rho_beta) - S(rho) across the given bipartition:
    the external correlation of the one-row case of `decompose_rows`."""
    return float(decompose_rows(state, [part]).external[0])


def max_total_correlation(n_qubits: int) -> float:
    """Global maximum n*ln2: pure total state, every qubit maximally mixed."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    try:
        return operator.index(n_qubits) * LN2
    except TypeError:  # also NaN, which passes the comparison above
        raise ValueError(f"n_qubits must be an integer, got {n_qubits}") from None


def _check_finite(what: str, values: Iterable[float]) -> None:
    """Raise ValueError naming the first of `values` that is NaN or infinite,
    which the sign checks before it let through."""
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{what} must be finite, got {v}")


def correlation_bounds(subsystem_entropies: Sequence[float]) -> BoundsReport:
    """Bounds on correlation strength from a list of subsystem entropies."""
    values = [float(v) for v in subsystem_entropies]
    if not values:
        raise ValueError("need at least one subsystem entropy")
    for v in values:
        if v < 0.0:
            raise ValueError(f"subsystem entropies must be >= 0, got {v}")
    _check_finite("subsystem entropies", values)
    top = max(values)
    total = sum(values)
    return BoundsReport(
        classical_upper=total - top,
        quantum_upper=total,
        gap_bound=top,
    )


def _regions(values, inf_caps) -> np.ndarray:
    """`classify_region` of each value against the inf of its caps,
    elementwise, as an array of `Region`s; nothing is validated."""
    caps = np.asarray(inf_caps)
    above = 2 - (values <= caps + REGION_TOL).astype(np.intp) - (values <= 2.0 * caps + REGION_TOL)
    return np.array(tuple(Region), dtype=object)[above]  # NaN: Unattainable


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
    _check_finite("maximum entropies", caps)
    _check_finite("correlation value", [value])
    return _regions(value, min(caps))


def araki_lieb_check(state: PureState | DensityOperator, part: Partition) -> ArakiLiebResult:
    """Check |S_A - S_B| <= S <= S_A + S_B for the given bipartition.

    Returns the slack of each inequality; `ok` means neither is below
    -`ARAKI_LIEB_TOL`. The one-row case of `decompose_rows`.
    """
    rows = decompose_rows(state, [part])
    return ArakiLiebResult(
        bool(rows.araki_lieb_ok[0]), float(rows.lower_slack[0]), float(rows.upper_slack[0])
    )
