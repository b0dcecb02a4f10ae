"""Bipartitions of a qubit register and the internal/external decomposition.

Any total correlation splits, relative to a chosen bipartition, into the
internal correlation of each side plus the external correlation between
them; the total is invariant under the choice of cut, the parts are not.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .correlation import (
    LN2,
    _cut_spectra,
    _subset_entropies,
    clamp_nonneg,
    subsystem_entropies,
    von_neumann_entropy,
)
from .errors import PartitionError, PreconditionError
from .linalg import partial_trace
from .states import DensityOperator, PureState, _check_subset

IDENTITY_TOL = 1e-8

#: `is_product_across`'s default bound on the Frobenius distance between rho
#: and rho_alpha (x) rho_beta; for a pure state, a Schmidt tail up to 5e-19.
PRODUCT_TOL = 1e-9

#: How far below zero an Araki-Lieb slack may read and the check still pass.
ARAKI_LIEB_TOL = 1e-9


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
        '0,1|2,...,29' is used instead; `parse_partition` reads both.
        """
        letters = string.ascii_lowercase
        if self.n_qubits > len(letters):
            sep, name = ",", str
        else:
            sep, name = "", letters.__getitem__
        return f"{sep.join(map(name, self.alpha))}|{sep.join(map(name, self.beta))}"


@dataclass(frozen=True)
class Decomposition:
    """Internal/external split of the total correlation for one partition."""

    internal_alpha: float
    internal_beta: float
    external: float
    total: float


@dataclass(frozen=True)
class DecompositionRows:
    """`decompose` and the Araki-Lieb slacks of many partitions, one array
    entry per partition, in the order given."""

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


def _side_sums(values: np.ndarray, sides: list[tuple[int, ...]]) -> np.ndarray:
    """sum(values[q] for q in side) for each side, added in the side's order."""
    entry = values.tolist().__getitem__
    return np.array([sum(map(entry, side)) for side in sides])


def decompose_rows(
    state: PureState | DensityOperator, parts: Sequence[Partition]
) -> DecompositionRows:
    """`decompose` of each partition, with its Araki-Lieb slacks, as arrays.

    The entropies come from one `_cut_spectra` call: the single-qubit
    entropies, S(alpha) and S(beta) of every partition and S of the whole
    state. (A pure state's S(beta) is the memo entry of S(alpha).) Per
    row, internal = the side's single-qubit entropies minus its entropy,
    external = S(alpha) + S(beta) - S, and the slacks are S - |S(alpha) -
    S(beta)| and S(alpha) + S(beta) - S. Raises PartitionError if a
    partition does not cover the state and ArithmeticError if a row's parts
    miss its total by more than `IDENTITY_TOL`.
    """
    n, m = state.n_qubits, len(parts)
    for part in parts:
        part.check_size(n)
    alphas = [part.alpha for part in parts]
    betas = [part.beta for part in parts]
    s = _subset_entropies(state, [*((q,) for q in range(n)), *alphas, *betas, range(n)])
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
    return DecompositionRows(internal_alpha, internal_beta, external, total, lower, upper)


def decompose(state: PureState | DensityOperator, part: Partition) -> Decomposition:
    """Internal correlation of each side plus the external correlation.

    internal = total correlation of the side's reduced operator;
    external = index of correlation across the cut. Their sum reproduces
    the total correlation within 1e-8. This is the one-row case of
    `decompose_rows`.
    """
    rows = decompose_rows(state, [part])
    return Decomposition(
        float(rows.internal_alpha[0]),
        float(rows.internal_beta[0]),
        float(rows.external[0]),
        float(rows.total[0]),
    )


def pure_state_decomposition_identities(s: PureState, part: Partition) -> Decomposition:
    """Decompose a maximally correlated pure state across an equal cut.

    Requires |alpha| = |beta| = n, every single-qubit entropy equal to ln 2
    and total correlation 2n ln 2 (all within 1e-8). Verifies that
    external = 2 S(alpha) and each internal = n ln 2 - S(alpha).
    """
    part.check_size(s.n_qubits)
    n_side = len(part.alpha)
    if n_side != len(part.beta):
        raise PreconditionError(
            f"sides must be the same size, got {len(part.alpha)} and "
            f"{len(part.beta)}"
        )
    for k, s_k in enumerate(subsystem_entropies(s)):
        if abs(s_k - LN2) > IDENTITY_TOL:
            raise PreconditionError(
                f"single-qubit entropy of qubit {k} is {s_k}, not ln 2"
            )
    result = decompose(s, part)
    expected_total = 2 * n_side * LN2
    if abs(result.total - expected_total) > IDENTITY_TOL:
        raise PreconditionError(
            f"total correlation is {result.total}, not the maximum "
            f"{expected_total}"
        )
    s_alpha = von_neumann_entropy(s, part.alpha)
    checks = [
        ("external = 2 S(alpha)", result.external, 2.0 * s_alpha),
        ("internal(alpha) = n ln2 - S(alpha)", result.internal_alpha, n_side * LN2 - s_alpha),
        ("internal(beta) = n ln2 - S(alpha)", result.internal_beta, n_side * LN2 - s_alpha),
    ]
    for name, got, want in checks:
        if abs(got - want) > IDENTITY_TOL:
            raise PreconditionError(f"identity {name} violated: {got} vs {want}")
    return result


def enumerate_bipartitions(n_qubits: int, size_alpha: int | None = None) -> list[Partition]:
    """Canonical bipartitions: alpha is the side containing qubit 0.

    Each unordered bipartition appears exactly once; all 2**(n-1) - 1 of them
    by default, ordered by |alpha| then lexicographically. With `size_alpha`
    given, cuts with a side of that size are returned (the qubit-0 side may
    be the complement, so |alpha| is size_alpha or n - size_alpha). The
    sides are valid by construction, so they are not checked again.
    """
    if n_qubits < 2:
        raise ValueError(f"need at least 2 qubits to bipartition, got {n_qubits}")
    if size_alpha is None:
        sizes = range(1, n_qubits)
    else:
        if not 1 <= size_alpha < n_qubits:
            raise ValueError(
                f"size_alpha must be in 1..{n_qubits - 1}, got {size_alpha}"
            )
        sizes = sorted({size_alpha, n_qubits - size_alpha})
    out = []
    others = range(1, n_qubits)
    for k in sizes:
        # Complementing reverses lexicographic order among subsets of one
        # size, so the betas are the (n - k)-subsets in reverse order.
        betas = reversed(list(combinations(others, n_qubits - k)))
        for rest, beta in zip(combinations(others, k - 1), betas):
            out.append(Partition._of_checked((0, *rest), beta))
    return out


def _product_flags(spectra: Sequence[np.ndarray], tol: float = PRODUCT_TOL) -> np.ndarray:
    """Product-across check for pure states from their Schmidt probabilities,
    one flag per spectrum; spectra of one length are stacked and checked at
    once.

    A pure state is a product across the cut iff its Schmidt rank is 1. With
    normalised probabilities p (descending) and tail = p[1] + p[2] + ...,
    the Frobenius distance between rho and rho_alpha (x) rho_beta is
    sqrt(2 tail) to first order in tail. The tail is summed directly rather
    than as 1 - p[0], which would cancel.
    """
    flags = np.empty(len(spectra), dtype=bool)
    lengths = np.array([len(probs) for probs in spectra])
    for length in set(lengths.tolist()):
        rows = np.flatnonzero(lengths == length)
        p = np.stack([spectra[i] for i in rows])
        p = p / p.sum(axis=1, keepdims=True)
        flags[rows] = np.sqrt(2.0 * p[:, 1:].sum(axis=1)) <= tol
    return flags


def _product_flag(probs: np.ndarray, tol: float = PRODUCT_TOL) -> bool:
    """`_product_flags` of one spectrum."""
    return bool(_product_flags([probs], tol)[0])


def is_product_across(
    state: PureState | DensityOperator, part: Partition, tol: float = PRODUCT_TOL
) -> bool:
    """True iff rho is within Frobenius distance tol of rho_alpha (x) rho_beta.

    A pure state is decided by its Schmidt tail (`_product_flag`), which
    gives that distance to first order, an operator by the distance itself,
    so both routes give one verdict. This detects exact product form across
    the cut only; it is not a general separability test.
    """
    part.check_size(state.n_qubits)
    if isinstance(state, PureState):
        return _product_flag(_cut_spectra(state, [part.alpha])[0][0], tol)
    m, n = state.matrix, state.n_qubits
    a, b = part.alpha, part.beta
    rho_a = partial_trace(m, n, a).reshape((2,) * (2 * len(a)))
    rho_b = partial_trace(m, n, b).reshape((2,) * (2 * len(b)))
    # The outer product's axes hold these axes of rho, whose qubit q has row
    # axis q and column axis n + q; it is written straight into rho's order.
    held = [*a, *(n + q for q in a), *b, *(n + q for q in b)]
    diff = np.empty_like(m)
    np.multiply.outer(rho_a, rho_b, out=diff.reshape((2,) * (2 * n)).transpose(held))
    diff -= m
    return float(np.linalg.norm(diff)) <= tol


def tradeoff_delta(d1: Decomposition, d2: Decomposition) -> float:
    """Internal/external trade-off between two states of equal total.

    Returns the common value of (internal sum of d1 - internal sum of d2)
    and (external of d2 - external of d1); the totals must agree.
    """
    if abs(d1.total - d2.total) > IDENTITY_TOL:
        raise PreconditionError(
            f"totals differ: {d1.total} vs {d2.total}; the trade-off identity "
            "only holds at fixed total correlation"
        )
    lhs = (d1.internal_alpha + d1.internal_beta) - (d2.internal_alpha + d2.internal_beta)
    rhs = d2.external - d1.external
    if abs(lhs - rhs) > IDENTITY_TOL:
        raise PreconditionError(
            f"trade-off identity violated: internal drop {lhs} vs external "
            f"gain {rhs}"
        )
    return rhs
