"""N-qubit pure states, density operators, named constructors and `Partition`s.

Basis convention: in a ket label |q0 q1 ... q(N-1)> the leftmost symbol is
qubit 0 and the most significant bit of the amplitude index, so |0110> on
4 qubits sits at index 0b0110 = 6.
"""

from __future__ import annotations

import math
import operator
import string
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    NotHermitianError,
    NotNormalizedError,
    NotPositiveError,
    PartitionError,
    SizeCapError,
    TraceError,
)

#: Default dense-size cap; 12 qubits means 4096-dimensional matrices.
DEFAULT_MAX_QUBITS = 12

#: Tolerances for the state/operator invariants.
NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over the 2**n_qubits computational kets.

    `amplitudes` is a read-only copy, so the Schmidt cuts that
    `correlation._cut_spectra` memoises in `_cuts` cannot go stale. That
    memo holds one (probabilities, entropy) entry per cut, keyed by the bit
    mask of the cut's smaller side; a subset is checked where it enters the
    library, not in the engine. A squared norm off 1 by more than
    `NORM_TOL`, or NaN from overflow, raises NotNormalizedError.
    """

    n_qubits: int
    amplitudes: np.ndarray
    _cuts: dict[int, tuple[np.ndarray, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        amps = np.array(self.amplitudes, dtype=np.complex128, order="C")
        dim = 1 << self.n_qubits
        if amps.shape != (dim,):
            raise ValueError(
                f"amplitude vector must have length {dim}, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        nrm2 = float(np.vdot(amps, amps).real)
        if not abs(nrm2 - 1.0) <= NORM_TOL:  # also a NaN from overflow
            raise NotNormalizedError(
                f"squared norm is {nrm2!r}, outside 1 +/- {NORM_TOL}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace matrix on 2**n_qubits dimensions.

    Construction checks Hermiticity and trace (cheap, entrywise); positivity
    of the spectrum is only verified by `validate_density`, which is the
    entry point for untrusted matrices. The spectrum is cached on first use,
    and `correlation._cut_spectra` memoises each subset's reduced spectrum
    and entropy in `_cuts`, keyed by the bit mask of the subset. Both caches
    read the matrix once, so `matrix` is set read-only. A C-contiguous
    complex128 array is kept without a copy, so the caller's array becomes
    read-only too: a write to it raises instead of leaving the caches stale.
    """

    n_qubits: int
    matrix: np.ndarray
    _cuts: dict[int, tuple[np.ndarray, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        dim = 1 << self.n_qubits
        if m.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim}, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("matrix entries must be finite")
        defect = np.conjugate(m.T, order="C")
        herm_defect = float(np.max(np.abs(np.subtract(m, defect, out=defect))))
        if herm_defect > HERMITICITY_TOL:
            raise NotHermitianError(
                f"max |m - m^dagger| entry is {herm_defect:.3e}, "
                f"above {HERMITICITY_TOL}"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise TraceError(f"trace is {tr!r}, outside 1 +/- {TRACE_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues, ascending; computed on first use and kept read-only."""
        values = hermitian_spectrum(self.matrix)
        values.setflags(write=False)
        return values


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger)/2, absorbing the rounding that leaves a computed
    Hermitian matrix slightly off Hermitian."""
    out = np.conjugate(m.T, order="C")
    return np.divide(np.add(out, m, out=out), 2.0, out=out)


def hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of (m + m^dagger)/2, ascending."""
    return np.linalg.eigvalsh(_symmetrize(m))


def _check_cap(n_qubits: int, max_qubits: int | None) -> None:
    cap = DEFAULT_MAX_QUBITS if max_qubits is None else max_qubits
    if n_qubits > cap:
        raise SizeCapError(
            f"{n_qubits} qubits exceeds the size cap of {cap} "
            f"(dense dimension 2^{n_qubits})"
        )


def ghz(n: int, *, max_qubits: int | None = None) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n >= 2 qubits."""
    if n < 2:
        raise ValueError(f"ghz needs at least 2 qubits, got {n}")
    _check_cap(n, max_qubits)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = _SQRT_HALF
    amps[-1] = _SQRT_HALF
    return PureState(n, amps)


def uniform_entangled(n_per_side: int, *, max_qubits: int | None = None) -> PureState:
    """2**(-n/2) * sum_s |s,s> over all n-bit strings s, on 2n qubits.

    The left half of each label (qubits 0..n-1) always equals the right half.
    """
    if n_per_side < 1:
        raise ValueError(f"n_per_side must be >= 1, got {n_per_side}")
    _check_cap(2 * n_per_side, max_qubits)
    half = 1 << n_per_side
    amps = np.zeros(half * half, dtype=np.complex128)
    amp = math.sqrt(1.0 / half)
    for s in range(half):
        amps[s * half + s] = amp
    return PureState(2 * n_per_side, amps)


def bell_product(pairs: int, *, max_qubits: int | None = None) -> PureState:
    """Tensor product of `pairs` Bell pairs; pair i lives on qubits (2i, 2i+1)."""
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    _check_cap(2 * pairs, max_qubits)
    bell = ghz(2, max_qubits=2).amplitudes
    amps = bell
    for _ in range(pairs - 1):
        amps = np.kron(amps, bell)
    return PureState(2 * pairs, amps)


def ghz_block_product(n_per_block: int, *, max_qubits: int | None = None) -> PureState:
    """Two independent n-qubit GHZ blocks; block alpha is qubits 0..n-1."""
    if n_per_block < 2:
        raise ValueError(f"n_per_block must be >= 2, got {n_per_block}")
    _check_cap(2 * n_per_block, max_qubits)
    block = ghz(n_per_block, max_qubits=n_per_block).amplitudes
    return PureState(2 * n_per_block, np.kron(block, block))


def _check_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    """`subset` as a tuple, checked to hold distinct integer qubits in 0..n-1."""
    given = tuple(subset)
    try:
        kept = tuple(map(operator.index, given))
    except TypeError:
        raise IndexError(f"subset {given} must hold integer qubits") from None
    if len(set(kept)) != len(kept) or (kept and (min(kept) < 0 or max(kept) >= n)):
        raise IndexError(f"subset {kept} must hold distinct qubits in 0..{n - 1}")
    return kept


@dataclass(frozen=True)
class Partition:
    """Two disjoint, ordered qubit-index sets covering 0..N-1."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        a, b = tuple(self.alpha), tuple(self.beta)
        if not a or not b:
            raise PartitionError("both sides of a partition must be nonempty")
        n = len(a) + len(b)
        try:
            qubits = _check_subset(a + b, n)
        except IndexError:
            raise PartitionError(
                f"sides must be disjoint and cover 0..{n - 1}, got "
                f"alpha={a}, beta={b}"
            ) from None
        object.__setattr__(self, "alpha", qubits[: len(a)])
        object.__setattr__(self, "beta", qubits[len(a) :])

    @classmethod
    def _of_checked(cls, alpha: tuple[int, ...], beta: tuple[int, ...]) -> "Partition":
        """A partition of sides known to be valid, built without the checks."""
        part = object.__new__(cls)
        part.__dict__.update(alpha=alpha, beta=beta)
        return part

    @classmethod
    def complement(cls, alpha: Iterable[int], n_qubits: int) -> "Partition":
        """Build a partition from one side; beta is the sorted complement."""
        a = tuple(alpha)
        taken = set(a)
        return cls(a, tuple(q for q in range(n_qubits) if q not in taken))

    @property
    def n_qubits(self) -> int:
        return len(self.alpha) + len(self.beta)

    def check_size(self, n_qubits: int) -> None:
        """Raise PartitionError unless the partition covers `n_qubits` qubits."""
        if self.n_qubits != n_qubits:
            raise PartitionError(
                f"partition covers {self.n_qubits} qubits but the state has "
                f"{n_qubits}"
            )

    def label(self) -> str:
        """Letter syntax, e.g. 'ab|cd' (qubit 0 is 'a').

        Past 26 qubits there are no letters left, so the index syntax
        '0,1|2,...,29' is used instead; `report.parse_partition` reads both.
        """
        letters = string.ascii_lowercase
        sep, name = (",", str) if self.n_qubits > len(letters) else ("", letters.__getitem__)
        return f"{sep.join(map(name, self.alpha))}|{sep.join(map(name, self.beta))}"


def _amplitude_matrices(
    amps: np.ndarray, n: int, sides: Sequence[Sequence[int]]
) -> np.ndarray:
    """The amplitudes of an n-qubit state as one 2^k x 2^(n - k) matrix per side.

    Every side holds k distinct qubits, the same k for all. A side's qubits,
    in the order given, index its matrix's rows; the remaining qubits, in
    ascending order, index the columns. The matrices come stacked in a new
    array, in the order of `sides`.
    """
    k = len(sides[0])
    tensor = amps.reshape((2,) * n)
    out = np.empty((len(sides), 1 << k, 1 << (n - k)), dtype=amps.dtype)
    for mat, rows in zip(out, sides):
        kept = set(rows)
        rest = [q for q in range(n) if q not in kept]
        mat.reshape((2,) * n)[...] = tensor.transpose([*rows, *rest])
    return out


def reduced_operator(state: PureState, subset: Sequence[int]) -> DensityOperator:
    """Reduction of a pure state onto the given qubits (in subset order).

    With M the amplitude matrix whose rows are indexed by `subset`, the
    reduction is the Gram matrix M M^dagger of dimension 2^|subset|; the
    2^n x 2^n density operator of the state is never built.
    """
    n = state.n_qubits
    mat = _amplitude_matrices(state.amplitudes, n, [_check_subset(subset, n)])[0]
    return DensityOperator(len(subset), mat @ mat.conj().T)


def to_density(s: PureState) -> DensityOperator:
    """Rank-1 density operator |s><s|."""
    return DensityOperator(s.n_qubits, np.outer(s.amplitudes, s.amplitudes.conj()))


def validate_density(m: np.ndarray, n_qubits: int) -> DensityOperator:
    """Wrap an untrusted matrix, checking all density-operator invariants.

    Raises NotHermitianError, TraceError, or NotPositiveError naming the
    violated invariant. Eigenvalues in [-POSITIVITY_TOL, 0) are tolerated;
    entropy routines clamp them to zero downstream. The returned operator
    keeps the spectrum this check computed, so entropies reuse it.
    """
    op = DensityOperator(n_qubits, m)
    min_eig = float(op.spectrum[0])
    if min_eig < -POSITIVITY_TOL:
        raise NotPositiveError(
            f"minimum eigenvalue is {min_eig:.3e}, below -{POSITIVITY_TOL}"
        )
    return op
