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
from .linalg import tridiagonal_form
from .states import DensityOperator, PureState, _symmetrize, hermitian_spectrum

#: Eigenvalues at or below this threshold are treated as numerical noise.
RANK_THRESHOLD = 1e-10

#: An eigenvector's leading component, whose phase `purify` fixes real
#: positive, is its first above this fraction of its largest magnitude.
LEAD_CUTOFF = 1e-12

#: Eigenvectors tied on eigenvalue and leading index are ordered by their
#: (re, im) entries rounded to this many decimals.
TIE_DIGITS = 12

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


def top_eigenpairs(rho: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """The r = `spectral_rank(rho)` largest eigenpairs of rho, as the last r
    of `np.linalg.eigh`: values ascending, vectors as columns.

    One LAPACK zhetrd reduces rho to tridiagonal form
    (`linalg.tridiagonal_form`). Where rho's spectrum is not cached yet, it
    is read from that reduction, bit for bit `np.linalg.eigvalsh`'s, and
    cached read-only; r is then counted from it. When 2r <= 2^n the r pairs
    are read from the same reduction, by bisection and inverse iteration.
    Above that `np.linalg.eigh` solves for all of them: it is the faster
    there, and for r = 2^n zheevr, whose route the subset solve follows,
    would switch to MRRR, whose vectors were orthogonal to 1e-12 against
    eigh's 3e-15. A cached spectrum with 2r > 2^n needs no reduction, and
    where numpy's BLAS lacks a routine or rho's entries lie outside LAPACK's
    unscaled range, the spectrum's `eigvalsh` and `eigh` are the route.
    """
    dim = rho.dim
    cached = "spectrum" in vars(rho)
    form = None
    if not cached or 2 * spectral_rank(rho) <= dim:
        form = tridiagonal_form(_symmetrize(rho.matrix))
    if form is not None and not cached:  # fill the cached property from the reduction
        values = form.eigenvalues()
        values.setflags(write=False)
        vars(rho)["spectrum"] = values
    r = spectral_rank(rho)
    if form is not None and 2 * r <= dim:
        return form.top_eigenpairs(r)
    del form  # zhetrd overwrote its copy of the matrix; free it before eigh's copies
    values, vectors = np.linalg.eigh(_symmetrize(rho.matrix))
    return values[dim - r :], vectors[:, dim - r :]


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

    The rank r is `spectral_rank(rho)`, so `purify` and
    `min_purifying_qubits` always agree, and only the r largest eigenpairs
    are solved for (`top_eigenpairs`).
    """
    n = rho.n_qubits
    values, vectors = top_eigenpairs(rho)
    mags = np.abs(vectors)
    lead = np.argmax(mags > LEAD_CUTOFF * mags.max(axis=0), axis=0)
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
        re, im = np.round(tie.real, TIE_DIGITS), np.round(tie.imag, TIE_DIGITS)
        entries = np.stack([re, im], axis=1)
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
