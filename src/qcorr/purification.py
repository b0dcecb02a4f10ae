"""Purification of mixed states and the minimum-ancilla cost.

A rank-r operator needs ceil(log2 r) ancilla qubits; the spectral
purification sum_i sqrt(l_i) |e_i> (x) |i> over the eigenpairs realizes
that minimum. The ancilla register is appended after the system qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import LN2, total_correlation
from .states import DensityOperator, PureState, _symmetrize, hermitian_spectrum

#: Eigenvalues at or below this threshold are treated as numerical noise.
RANK_THRESHOLD = 1e-10

MAXCORR_TOL = 1e-8


@dataclass(frozen=True)
class PurificationResult:
    """A pure state on system + ancilla whose system reduction is the input.

    residual: trace distance between the input and the purification's
    reduction back onto the system qubits.
    """

    ancilla_qubits: int
    purified: PureState
    residual: float


def spectral_rank(rho: DensityOperator) -> int:
    """Number of eigenvalues above `RANK_THRESHOLD`."""
    return int(np.count_nonzero(rho.spectrum > RANK_THRESHOLD))


def min_purifying_qubits(rho: DensityOperator) -> int:
    """ceil(log2 rank): ancilla qubits needed to purify; 0 for pure inputs."""
    return (spectral_rank(rho) - 1).bit_length()


def purify(rho: DensityOperator) -> PurificationResult:
    """Spectral purification with the minimum power-of-two ancilla dimension.

    Eigenvectors are taken in descending eigenvalue order; exact ties are
    broken by the index of the leading nonzero component, then
    lexicographically, after fixing each vector's phase so that component is
    real positive. The output is therefore reproducible run to run.

    The residual compares the input with T T^dagger, where T is the
    2^n x 2^k table of purified amplitudes (system index by ancilla index):
    that is the purification's reduction onto the system, computed without
    the 4^(n+k)-entry density operator of the purified state.

    The rank is `spectral_rank(rho)`, so `purify` and `min_purifying_qubits`
    always agree: an operator whose spectrum is not yet cached gets eigh's
    eigenvalues as its spectrum, at no extra solve.
    """
    n = rho.n_qubits
    values, vectors = np.linalg.eigh(_symmetrize(rho.matrix))
    if "spectrum" not in vars(rho):  # fill the cached property with eigh's values
        values.setflags(write=False)
        vars(rho)["spectrum"] = values
    first = len(values) - spectral_rank(rho)
    values, vectors = values[first:], vectors[:, first:]
    mags = np.abs(vectors)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    pivot = vectors[lead, np.arange(len(values))]
    # np.hypot is the scalar abs(); the SIMD np.abs of an array can differ in
    # the last bit, and the phase is part of the output, bit for bit.
    vectors = vectors / (pivot / np.hypot(pivot.real, pivot.imag))
    # The order is -value, then lead, then the rounded entries, which are
    # read only within runs of columns tied on both (np.lexsort is stable;
    # its last key is its primary one).
    order = np.lexsort([lead, -values])
    keys = np.stack([values[order], lead[order]])
    tied = np.concatenate([[0], np.all(keys[:, 1:] == keys[:, :-1], axis=0), [0]])
    edges = np.flatnonzero(np.diff(tied))  # the first and last column of each run
    for start, stop in zip(edges[0::2], edges[1::2] + 1):
        run = order[start:stop]
        tie = vectors[:, run]  # keys: rows re_0, im_0, re_1, im_1, ... reversed
        entries = np.stack([np.round(tie.real, 12), np.round(tie.imag, 12)], axis=1)
        order[start:stop] = run[np.lexsort(entries.reshape(-1, len(run))[::-1])]
    values, vectors = values[order], vectors[:, order]

    rank = len(values)
    k = (rank - 1).bit_length()  # ceil(log2 rank)
    table = np.zeros((1 << n, 1 << k), dtype=np.complex128)
    table[:, :rank] = vectors * np.sqrt(values)
    # Summed left to right: np.sum's pairwise order would move the last bits.
    table /= math.sqrt(sum(values.tolist()))
    purified = PureState(n + k, table.reshape(-1))

    diff = table @ table.conj().T - rho.matrix
    residual = 0.5 * float(np.sum(np.abs(hermitian_spectrum(diff))))
    return PurificationResult(ancilla_qubits=k, purified=purified, residual=residual)


def is_maximally_correlated_purification(r: PurificationResult) -> bool:
    """True iff the purified state carries the global maximum (n+k) ln 2.

    The total correlation is taken from the pure state's amplitudes, so no
    operator of the purified state is built.
    """
    n_total = r.purified.n_qubits
    return abs(total_correlation(r.purified) - n_total * LN2) <= MAXCORR_TOL
