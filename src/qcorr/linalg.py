"""Dense complex linear algebra on qubit registers.

All matrices are plain numpy arrays with row-major entries; qubit 0 is the
most significant bit of the row/column index (see `qcorr.states`).
"""

from __future__ import annotations

import ctypes
import math
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
# numpy's ILP64 scipy-openblas LAPACK: every integer argument is 64-bit, and
# gfortran passes each character argument's length after all the others.
_INT, _REAL = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
_ARRAY, _CHAR, _LEN = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t


def _lapack(name: str, *argtypes):
    routine = getattr(_OPENBLAS, f"scipy_{name}_64_", None)
    if routine is not None:
        routine.restype, routine.argtypes = None, list(argtypes)
    return routine


#: Householder reduction of a Hermitian matrix to real tridiagonal form.
_ZHETRD = _lapack(
    "zhetrd",
    _CHAR, _INT, _ARRAY, _INT,  # UPLO, N, A, LDA
    _ARRAY, _ARRAY, _ARRAY, _ARRAY, _INT, _INT,  # D, E, TAU, WORK, LWORK, INFO
    _LEN,
)
#: Every eigenvalue of a real symmetric tridiagonal matrix (Pal-Walker-Kahan QL/QR).
_DSTERF = _lapack("dsterf", _INT, _ARRAY, _ARRAY, _INT)  # N, D, E, INFO
#: Chosen eigenvalues of a real symmetric tridiagonal matrix, by bisection.
_DSTEBZ = _lapack(
    "dstebz",
    _CHAR, _CHAR, _INT, _REAL, _REAL, _INT, _INT, _REAL,  # RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL
    _ARRAY, _ARRAY, _INT, _INT, _ARRAY,  # D, E, M, NSPLIT, W
    _ARRAY, _ARRAY, _ARRAY, _ARRAY, _INT,  # IBLOCK, ISPLIT, WORK, IWORK, INFO
    _LEN, _LEN,
)
#: The eigenvectors of given eigenvalues of that matrix, by inverse iteration.
_ZSTEIN = _lapack(
    "zstein",
    _INT, _ARRAY, _ARRAY, _INT, _ARRAY, _ARRAY, _ARRAY,  # N, D, E, M, W, IBLOCK, ISPLIT
    _ARRAY, _INT, _ARRAY, _ARRAY, _ARRAY, _INT,  # Z, LDZ, WORK, IWORK, IFAIL, INFO
)
#: Multiplies by the unitary matrix of zhetrd's reduction.
_ZUNMTR = _lapack(
    "zunmtr",
    _CHAR, _CHAR, _CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY,  # SIDE, UPLO, TRANS, M, N, A, LDA, TAU
    _ARRAY, _INT, _ARRAY, _INT, _INT,  # C, LDC, WORK, LWORK, INFO
    _LEN, _LEN, _LEN,
)

# zheevr scales a matrix whose largest entry magnitude lies outside
# [_SCALE_MIN, _SCALE_MAX] before zhetrd; zheevd, under np.linalg.eigvalsh,
# has the same lower bound and a wider upper one.
_SAFE_MIN, _EPS = float(np.finfo(float).tiny), float(np.finfo(float).eps)
_SCALE_MIN = math.sqrt(_SAFE_MIN / _EPS)
_SCALE_MAX = min(math.sqrt(_EPS / _SAFE_MIN), 1 / math.sqrt(math.sqrt(_SAFE_MIN)))


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


def _i64(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _check(routine: str, info: ctypes.c_int64) -> None:
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{routine} returned info {info.value}")


class TridiagonalForm:
    """A Hermitian matrix reduced once by LAPACK zhetrd, Q^H A Q = T, with T
    real symmetric tridiagonal; made by `tridiagonal_form`.

    Both the full spectrum and any number of the largest eigenpairs are read
    from this one reduction, the O(dim^3) part of every dense Hermitian solve
    (Golub & Van Loan, Matrix Computations, section 8.3). Fortran reads the
    C-ordered matrix as its transpose, which for a Hermitian matrix is its
    conjugate: same eigenvalues, conjugate eigenvectors.
    """

    def __init__(self, a: np.ndarray):
        a = np.require(_as_square(a), requirements=["C", "W"])  # no copy of a working matrix
        self._a = a  # zhetrd's Householder vectors, read by zunmtr
        dim = len(a)
        self._d, self._e = np.empty(dim), np.empty(dim - 1)
        self._tau = np.empty(dim - 1, np.complex128)
        info = ctypes.c_int64()

        def call(work: np.ndarray, lwork: int) -> None:
            _ZHETRD(
                b"L", _i64(dim), a.ctypes, _i64(dim), self._d.ctypes, self._e.ctypes,
                self._tau.ctypes, work.ctypes, _i64(lwork), ctypes.byref(info), 1,
            )
            _check("zhetrd", info)

        # A first call with LWORK -1 only writes the length it wants, NB * dim,
        # which zheevr also hands to zunmtr: a shorter workspace moves the
        # vectors' last bits.
        query = np.empty(1, np.complex128)
        call(query, -1)
        self._work = np.empty(int(query[0].real), np.complex128)
        call(self._work, len(self._work))

    def eigenvalues(self) -> np.ndarray:
        """Every eigenvalue, ascending, by dsterf on copies of T: the route
        and the bits of `np.linalg.eigvalsh` (zheevd), which reduces alike."""
        values, e = self._d.copy(), self._e.copy()
        info = ctypes.c_int64()
        _DSTERF(_i64(len(values)), values.ctypes, e.ctypes, ctypes.byref(info))
        _check("dsterf", info)
        return values

    def top_eigenpairs(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """The r largest eigenpairs, in no set order: values, and vectors as
        columns.

        This is zheevr's route for RANGE='I' below full range: dstebz
        bisects T for eigenvalues dim-r+1..dim (ABSTOL 0, LAPACK's default
        of the machine epsilon times T's norm), zstein finds their vectors by
        inverse iteration and zunmtr takes them back through Q. The pairs
        come in dstebz's block order, which zheevr's selection sort would
        make ascending (LAPACK Users' Guide, section 2.4.4); as a set they
        equal zheevr's bit for bit.
        Raises LinAlgError when LAPACK reports an error or finds other than r
        eigenvalues.
        """
        dim = len(self._d)
        if not 0 < r <= dim:
            raise ValueError(f"cannot solve for {r} eigenpairs of a {dim} x {dim} matrix")
        found, nsplit, info = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_int64()
        values = np.empty(dim)
        block, split = np.empty(dim, np.int64), np.empty(dim, np.int64)
        rwork, iwork = np.empty(5 * dim), np.empty(3 * dim, np.int64)
        # VL and VU go unread with RANGE='I'; ORDER='B' keeps the block
        # numbers zstein reads.
        _DSTEBZ(
            b"I", b"B", _i64(dim), ctypes.byref(ctypes.c_double()),
            ctypes.byref(ctypes.c_double()), _i64(dim - r + 1), _i64(dim),
            ctypes.byref(ctypes.c_double(0.0)), self._d.ctypes, self._e.ctypes,
            ctypes.byref(found), ctypes.byref(nsplit), values.ctypes, block.ctypes,
            split.ctypes, rwork.ctypes, iwork.ctypes, ctypes.byref(info), 1, 1,
        )
        _check("dstebz", info)
        if found.value != r:
            raise np.linalg.LinAlgError(f"dstebz found {found.value} of {r} eigenvalues")
        z = np.empty((r, dim), dtype=np.complex128)  # Fortran's dim x r, column by row
        failed = np.empty(r, np.int64)
        _ZSTEIN(
            _i64(dim), self._d.ctypes, self._e.ctypes, ctypes.byref(found), values.ctypes,
            block.ctypes, split.ctypes, z.ctypes, _i64(dim), rwork.ctypes, iwork.ctypes,
            failed.ctypes, ctypes.byref(info),
        )
        _check("zstein", info)
        _ZUNMTR(
            b"L", b"L", b"N", _i64(dim), _i64(r), self._a.ctypes, _i64(dim),
            self._tau.ctypes, z.ctypes, _i64(dim), self._work.ctypes,
            _i64(len(self._work)), ctypes.byref(info), 1, 1, 1,
        )
        _check("zunmtr", info)
        return values[:r], np.conjugate(z, out=z).T


def tridiagonal_form(a: np.ndarray) -> TridiagonalForm | None:
    """zhetrd's reduction of the Hermitian matrix `a`; a C-contiguous
    complex128 `a` is overwritten.

    None where numpy's OpenBLAS lacks one of the five LAPACK routines, or
    where LAPACK's zheevd and zheevr would scale `a` first: its largest
    entry lies outside their safe range, which no positive trace-one
    operator reaches. `np.linalg.eigvalsh` and `np.linalg.eigh` are then
    the route.
    """
    if None in (_ZHETRD, _DSTERF, _DSTEBZ, _ZSTEIN, _ZUNMTR):
        return None
    if not _SCALE_MIN <= float(np.max(np.abs(a))) <= _SCALE_MAX:
        return None
    return TridiagonalForm(a)

