"""Dense complex linear algebra on qubit registers.

All matrices are plain numpy arrays with row-major entries; qubit 0 is the
most significant bit of the row/column index (see `qcorr.states`).
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeCapError
from .states import PureState, _check_subset

#: Kronecker products refuse to allocate beyond this many matrix entries.
MAX_KRON_ENTRIES = 1 << 24


def _as_square(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices.

    Entry ((i*db + k), (j*db + l)) of the result is a[i, j] * b[k, l].
    Raises SizeCapError beyond `MAX_KRON_ENTRIES` entries.
    """
    a = _as_square(a)
    b = _as_square(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim * out_dim > MAX_KRON_ENTRIES:
        raise SizeCapError(
            f"kron result would have {out_dim}^2 entries, above the cap of "
            f"{MAX_KRON_ENTRIES}"
        )
    return np.kron(a, b)


def partial_trace(m: np.ndarray, n_qubits: int, keep: Iterable[int]) -> np.ndarray:
    """Trace out every qubit not in `keep`.

    The result's qubit order follows `keep` as given. Tracing out everything
    (keep empty) yields the 1x1 matrix [[trace]].
    """
    a = _as_square(m)
    dim = 1 << n_qubits
    if a.shape != (dim, dim):
        raise ValueError(
            f"matrix shape {a.shape} does not match {n_qubits} qubits (dim {dim})"
        )
    kept = _check_subset(keep, n_qubits)
    # A traced qubit's row and column axes share one einsum label, so only
    # the entries diagonal in the traced qubits are read; nothing is copied.
    cols = [n_qubits + q if q in kept else q for q in range(n_qubits)]
    out = [*kept, *(n_qubits + q for q in kept)]
    t = np.einsum(a.reshape((2,) * (2 * n_qubits)), [*range(n_qubits), *cols], out)
    # With no qubit traced, einsum returns a view of the input; copy so the
    # result never aliases `m`.
    return t.reshape(1 << len(kept), 1 << len(kept)).copy()


def permute_qubits(state: PureState, perm: Sequence[int]) -> PureState:
    """Move the qubit at index i to index perm[i].

    The amplitude at label b therefore equals the input amplitude at the
    label whose bit i is b's bit perm[i]. Pure data movement; the norm is
    preserved exactly.
    """
    n = state.n_qubits
    try:
        p = [operator.index(x) for x in perm]
    except TypeError:
        raise ValueError(f"perm must hold integers, got {perm!r}") from None
    if sorted(p) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}, got {perm!r}")
    inverse = [0] * n
    for i, dest in enumerate(p):
        inverse[dest] = i
    amps = state.amplitudes.reshape((2,) * n).transpose(inverse).reshape(-1)
    return PureState(n, amps.copy())

