"""Dense complex linear algebra on qubit registers.

All matrices are plain numpy arrays with row-major entries; qubit 0 is the
most significant bit of the row/column index (see `qcorr.states`).
"""

from __future__ import annotations

import ctypes
import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeCapError
from .states import PureState, _check_subset

#: Kronecker products refuse to allocate beyond this many matrix entries.
MAX_KRON_ENTRIES = 1 << 24

try:  # the OpenBLAS, with its LAPACK, that numpy links
    _OPENBLAS = ctypes.CDLL(np.linalg._umath_linalg.__file__)
except (AttributeError, OSError):
    _OPENBLAS = None
# Each symbol below is None under another BLAS, or an OpenBLAS without it.
#: OpenBLAS's per-caller thread count setter: int count in, previous count out.
_SET_BLAS_THREADS = getattr(_OPENBLAS, "openblas_set_num_threads_local", None)
if _SET_BLAS_THREADS is not None:
    _SET_BLAS_THREADS.argtypes, _SET_BLAS_THREADS.restype = [ctypes.c_int], ctypes.c_int
#: LAPACK's subset Hermitian eigensolver, as numpy's ILP64 scipy-openblas
#: names it; every integer argument is 64-bit.
_ZHEEVR = getattr(_OPENBLAS, "scipy_zheevr_64_", None)
if _ZHEEVR is not None:
    _INT, _REAL = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    _ARRAY = ctypes.c_void_p
    _ZHEEVR.restype = None
    _ZHEEVR.argtypes = [
        *[ctypes.c_char_p] * 3,  # JOBZ, RANGE, UPLO
        _INT, _ARRAY, _INT,  # N, A, LDA
        _REAL, _REAL, _INT, _INT, _REAL,  # VL, VU, IL, IU, ABSTOL
        _INT, _ARRAY, _ARRAY, _INT, _ARRAY,  # M, W, Z, LDZ, ISUPPZ
        _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT,  # WORK, LWORK, RWORK, LRWORK, IWORK, LIWORK
        _INT,  # INFO
        *[ctypes.c_size_t] * 3,  # the lengths of JOBZ, RANGE and UPLO
    ]


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
    t = t.reshape(1 << len(kept), 1 << len(kept))
    # With no qubit traced, einsum returns a view of the input; copy so the
    # result never aliases `m`. Otherwise its output is already fresh.
    return t.copy() if len(kept) == n_qubits else t


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


def top_eigenpairs(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r largest eigenpairs of the Hermitian matrix `a`, as the last r
    of `np.linalg.eigh`: values ascending, vectors as columns. `a` may be
    overwritten.

    When 2r <= dim and numpy's OpenBLAS exports zheevr, only those r pairs
    are solved for, by bisection and inverse iteration (LAPACK Users'
    Guide, section 2.4.4). Otherwise `np.linalg.eigh` solves for all: above
    dim/2 it is the faster, and for r = dim zheevr would switch to MRRR,
    whose vectors were orthogonal to 1e-12 against eigh's 3e-15.
    """
    dim = len(a)
    if 2 * r > dim or _ZHEEVR is None:
        values, vectors = np.linalg.eigh(a)
        return values[dim - r :], vectors[:, dim - r :]
    return _zheevr_top(a, r)


def _zheevr_top(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """zheevr with RANGE='I' for eigenpairs dim-r+1..dim; overwrites `a`.

    Fortran reads the C-ordered `a` as its transpose, which for a Hermitian
    matrix is conj(a): same eigenvalues, conjugate eigenvectors. The vectors
    are conjugated back, so `a` needs no copy. Raises LinAlgError when LAPACK
    reports an error or finds other than r pairs.
    """
    a = np.require(_as_square(a), requirements=["C", "W"])  # no copy of a working matrix
    dim = len(a)
    if not 0 < r <= dim:
        raise ValueError(f"cannot solve for {r} eigenpairs of a {dim} x {dim} matrix")
    i64, byref = ctypes.c_int64, ctypes.byref
    values = np.empty(dim)
    z = np.empty((r, dim), dtype=np.complex128)  # Fortran's dim x r, column by row
    isuppz = np.empty(2 * r, dtype=np.int64)
    found, info = i64(), i64()

    # VL and VU go unread with RANGE='I'; ABSTOL 0 takes LAPACK's default,
    # the machine epsilon times the norm of the tridiagonal form.
    def call(work, lwork, rwork, lrwork, iwork, liwork):
        _ZHEEVR(
            b"V", b"I", b"L", byref(i64(dim)), a.ctypes, byref(i64(dim)),
            byref(ctypes.c_double()), byref(ctypes.c_double()),
            byref(i64(dim - r + 1)), byref(i64(dim)), byref(ctypes.c_double()),
            byref(found), values.ctypes, z.ctypes, byref(i64(dim)), isuppz.ctypes,
            work.ctypes, byref(i64(lwork)), rwork.ctypes, byref(i64(lrwork)),
            iwork.ctypes, byref(i64(liwork)), byref(info), 1, 1, 1,
        )

    # A first call with every workspace length -1 only writes the sizes it wants.
    work, rwork, iwork = np.empty(1, np.complex128), np.empty(1), np.empty(1, np.int64)
    call(work, -1, rwork, -1, iwork, -1)
    if info.value == 0:
        lwork, lrwork, liwork = int(work[0].real), int(rwork[0]), int(iwork[0])
        work, rwork = np.empty(lwork, np.complex128), np.empty(lrwork)
        call(work, lwork, rwork, lrwork, np.empty(liwork, np.int64), liwork)
    if info.value != 0 or found.value != r:
        raise np.linalg.LinAlgError(
            f"zheevr returned info {info.value} and {found.value} of {r} eigenpairs"
        )
    return values[:r], np.conjugate(z, out=z).T
