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
from .states import DensityOperator, PureState, hermitian_spectrum

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


def spectral_rank(rho: DensityOperator, threshold: float = RANK_THRESHOLD) -> int:
    """Number of eigenvalues above `threshold`."""
    return int(np.count_nonzero(rho.spectrum > threshold))


def min_purifying_qubits(rho: DensityOperator) -> int:
    """ceil(log2 rank): ancilla qubits needed to purify; 0 for pure inputs."""
    rank = spectral_rank(rho)
    return max(int(math.ceil(math.log2(rank))), 0) if rank > 1 else 0


def _fix_phase(v: np.ndarray) -> tuple[int, np.ndarray]:
    """Rotate v so its leading nonzero component is real positive."""
    mags = np.abs(v)
    cutoff = 1e-12 * float(mags.max())
    lead = int(np.argmax(mags > cutoff))
    phase = v[lead] / abs(v[lead])
    return lead, v / phase


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
    """
    n = rho.n_qubits
    sym = (rho.matrix + rho.matrix.conj().T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    keep = [i for i in range(len(values)) if values[i] > RANK_THRESHOLD]
    fixed = []
    for i in keep:
        lead, v = _fix_phase(vectors[:, i])
        key = (lead, tuple(zip(np.round(v.real, 12), np.round(v.imag, 12))))
        fixed.append((float(values[i]), key, v))
    fixed.sort(key=lambda t: (-t[0], t[1]))

    rank = len(fixed)
    k = max(int(math.ceil(math.log2(rank))), 0) if rank > 1 else 0
    anc_dim = 1 << k
    table = np.zeros((1 << n, anc_dim), dtype=np.complex128)
    for i, (lam, _, v) in enumerate(fixed):
        table[:, i] = math.sqrt(lam) * v
    weight = sum(lam for lam, _, _ in fixed)
    table /= math.sqrt(weight)
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
