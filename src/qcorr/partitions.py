"""One bipartition's decomposition, the canonical bipartitions, product checks.

Any total correlation splits, relative to a chosen bipartition, into the
internal correlation of each side plus the external correlation between
them; the total is invariant under the choice of cut, the parts are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .correlation import (
    IDENTITY_TOL,
    LN2,
    DecompositionRows,
    _cut_spectra,
    _decomposition,
    decompose_rows,
)
from .errors import PreconditionError
from .linalg import partial_trace
from .states import DensityOperator, Partition, PureState

#: `is_product_across`'s default bound on the Frobenius distance between rho
#: and rho_alpha (x) rho_beta; for a pure state, a Schmidt tail up to 5e-19.
PRODUCT_TOL = 1e-9


@dataclass(frozen=True)
class Decomposition:
    """Internal/external split of the total correlation for one partition."""

    internal_alpha: float
    internal_beta: float
    external: float
    total: float


def decompose(state: PureState | DensityOperator, part: Partition) -> Decomposition:
    """Internal correlation of each side plus the external correlation.

    internal = total correlation of the side's reduced operator;
    external = index of correlation across the cut. Their sum reproduces
    the total correlation within 1e-8. This is the one-row case of
    `decompose_rows`.
    """
    return _first_row(decompose_rows(state, [part]))


def _first_row(rows: DecompositionRows) -> Decomposition:
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
            f"sides must be the same size, got {len(part.alpha)} and {len(part.beta)}"
        )
    # one engine call: the cut table lists each qubit, then alpha
    rows, cuts = _decomposition(s, [part])
    for k, (_, s_k) in enumerate(cuts[: s.n_qubits]):
        if abs(s_k - LN2) > IDENTITY_TOL:
            raise PreconditionError(f"single-qubit entropy of qubit {k} is {s_k}, not ln 2")
    result = _first_row(rows)
    expected_total = 2 * n_side * LN2
    if abs(result.total - expected_total) > IDENTITY_TOL:
        raise PreconditionError(
            f"total correlation is {result.total}, not the maximum {expected_total}"
        )
    s_alpha = cuts[s.n_qubits][1]
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
            raise ValueError(f"size_alpha must be in 1..{n_qubits - 1}, got {size_alpha}")
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


def is_product_across(
    state: PureState | DensityOperator, part: Partition, tol: float = PRODUCT_TOL
) -> bool:
    """True iff rho is within Frobenius distance tol of rho_alpha (x) rho_beta.

    A pure state is decided by its Schmidt tail (`_product_flags`), which
    gives that distance to first order, an operator by the distance itself,
    so both routes give one verdict. This detects exact product form across
    the cut only; it is not a general separability test. A `tol` that is
    NaN or negative raises ValueError naming it.
    """
    if not tol >= 0.0:  # also NaN
        raise ValueError(f"tol must be >= 0, got {tol}")
    part.check_size(state.n_qubits)
    if isinstance(state, PureState):
        return bool(_product_flags([_cut_spectra(state, [part.alpha])[0][0]], tol)[0])
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
            f"trade-off identity violated: internal drop {lhs} vs external gain {rhs}"
        )
    return rhs
