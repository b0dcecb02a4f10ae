"""Shared test utilities: independent oracles and random-state generators.

The brute-force reduction here deliberately shares no code with the library's
partial trace: it walks every matrix entry and accumulates by explicit bit
arithmetic on basis indices (qubit 0 = most significant bit).
"""

import ctypes

import numpy as np


def bit_of(index: int, qubit: int, n: int) -> int:
    return (index >> (n - 1 - qubit)) & 1


def brute_reduced(m: np.ndarray, n: int, keep) -> np.ndarray:
    """Reduced matrix over `keep` by explicit basis-index summation."""
    keep = list(keep)
    traced = [q for q in range(n) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for i in range(2**n):
        for j in range(2**n):
            if any(bit_of(i, q, n) != bit_of(j, q, n) for q in traced):
                continue
            r = sum(bit_of(i, q, n) << (len(keep) - 1 - pos) for pos, q in enumerate(keep))
            c = sum(bit_of(j, q, n) << (len(keep) - 1 - pos) for pos, q in enumerate(keep))
            out[r, c] += m[i, j]
    return out


def bit_matrix(amps: np.ndarray, n: int, rows) -> np.ndarray:
    """A pure state's amplitudes as a matrix by explicit bit arithmetic.

    Entry [r, c] is the amplitude whose bits on `rows` (in the order given)
    spell r and whose bits on the other qubits (ascending) spell c.
    """
    rows = list(rows)
    rest = [q for q in range(n) if q not in rows]
    index = np.arange(2**n)

    def spell(qubits):
        return sum(
            ((index >> (n - 1 - q)) & 1) << (len(qubits) - 1 - pos)
            for pos, q in enumerate(qubits)
        )

    m = np.zeros((2 ** len(rows), 2 ** len(rest)), dtype=complex)
    m[spell(rows), spell(rest)] = amps
    return m


def brute_pure_reduced(amps: np.ndarray, n: int, keep) -> np.ndarray:
    """Reduced matrix of a pure state over `keep`, as M M^dagger of `bit_matrix`."""
    m = bit_matrix(amps, n, keep)
    return m @ m.conj().T


def svd_schmidt_probs(amps: np.ndarray, n: int, alpha) -> np.ndarray:
    """Squared singular values, descending, of the cut between alpha and the rest.

    The SVD route: unlike a Gram matrix's eigenvalues, these keep a product
    cut's tail near its true size (about 1e-32), not at rounding noise.
    """
    sv = np.linalg.svd(bit_matrix(amps, n, alpha), compute_uv=False)
    return sv * sv


def entropy_oracle(m: np.ndarray) -> float:
    """-sum l ln l over the eigenvalues of a Hermitian matrix."""
    vals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log(vals)))


def brute_total_correlation(m: np.ndarray, n: int) -> float:
    """Sum of single-qubit entropies minus total entropy, all brute-force."""
    s_k = sum(entropy_oracle(brute_reduced(m, n, [k])) for k in range(n))
    return s_k - entropy_oracle(m)


def brute_index_of_correlation(m: np.ndarray, n: int, alpha, beta) -> float:
    sa = entropy_oracle(brute_reduced(m, n, list(alpha)))
    sb = entropy_oracle(brute_reduced(m, n, list(beta)))
    return sa + sb - entropy_oracle(m)


def random_pure(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    z = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return z / np.linalg.norm(z)


def random_density(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Unit-trace PSD matrix from a Ginibre square."""
    d = 2**n_qubits
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def tilted_four_qubit(u: float) -> np.ndarray:
    """Pure 4-qubit family: cos(u)(|0000>+|1111>)/sqrt2 + sin(u)(|0011>+|1100>)/sqrt2.

    Every single-qubit reduction is maximally mixed for all u; u = 0 is the
    GHZ state and u = pi/4 the product of two Bell pairs.
    """
    amps = np.zeros(16, dtype=complex)
    c, s = np.cos(u) / np.sqrt(2), np.sin(u) / np.sqrt(2)
    amps[0b0000] = c
    amps[0b0011] = s
    amps[0b1100] = s
    amps[0b1111] = c
    return amps


#: LAPACK's subset Hermitian eigensolver in numpy's OpenBLAS (ILP64: every
#: integer argument is 64-bit), or None under another BLAS.
try:
    ZHEEVR = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_zheevr_64_
except (AttributeError, OSError):
    ZHEEVR = None
if ZHEEVR is not None:
    _INT, _REAL = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    _ARRAY = ctypes.c_void_p
    ZHEEVR.restype = None
    ZHEEVR.argtypes = [
        *[ctypes.c_char_p] * 3,  # JOBZ, RANGE, UPLO
        _INT, _ARRAY, _INT,  # N, A, LDA
        _REAL, _REAL, _INT, _INT, _REAL,  # VL, VU, IL, IU, ABSTOL
        _INT, _ARRAY, _ARRAY, _INT, _ARRAY,  # M, W, Z, LDZ, ISUPPZ
        _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT,  # WORK, LWORK, RWORK, LRWORK, IWORK, LIWORK
        _INT,  # INFO
        *[ctypes.c_size_t] * 3,  # the lengths of JOBZ, RANGE and UPLO
    ]


def zheevr_top(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r largest eigenpairs of the Hermitian matrix `a` by one LAPACK
    zheevr call with RANGE='I' (eigenpairs dim-r+1..dim), as the last r of
    `np.linalg.eigh`: values ascending, vectors as columns.

    Fortran reads the C-ordered copy of `a` as its transpose, which for a
    Hermitian matrix is conj(a): same eigenvalues, conjugate eigenvectors,
    which are conjugated back.
    """
    a = np.array(a, dtype=np.complex128, order="C")
    dim = len(a)
    assert a.shape == (dim, dim) and 0 < r <= dim
    i64, byref = ctypes.c_int64, ctypes.byref
    values = np.empty(dim)
    z = np.empty((r, dim), dtype=np.complex128)  # Fortran's dim x r, column by row
    isuppz = np.empty(2 * r, dtype=np.int64)
    found, info = i64(), i64()

    # VL and VU go unread with RANGE='I'; ABSTOL 0 takes LAPACK's default.
    def call(work, lwork, rwork, lrwork, iwork, liwork):
        ZHEEVR(
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
    assert info.value == 0
    lwork, lrwork, liwork = int(work[0].real), int(rwork[0]), int(iwork[0])
    work, rwork = np.empty(lwork, np.complex128), np.empty(lrwork)
    call(work, lwork, rwork, lrwork, np.empty(liwork, np.int64), liwork)
    assert info.value == 0 and found.value == r, (info.value, found.value, r)
    return values[:r], np.conjugate(z, out=z).T


def reference_purification_table(m: np.ndarray) -> np.ndarray:
    """Purified amplitudes of a density matrix, ordered by a per-vector sort.

    The eigenpairs kept are the r largest, r the count of eigenvalues above
    `RANK_THRESHOLD`, taken from `purification.top_eigenpairs` of a fresh
    operator as `purify` takes them, so the two meet the same vectors
    whichever solver runs. Each is phase-fixed so its leading component
    above `LEAD_CUTOFF` of the largest is real positive, then sorted by the
    key (-eigenvalue, leading index, (re, im) entries rounded to
    `TIE_DIGITS` decimals) and scaled by sqrt(eigenvalue). `purify` must
    reproduce these amplitudes bit for bit.
    """
    import math

    from qcorr import DensityOperator
    from qcorr.purification import LEAD_CUTOFF, RANK_THRESHOLD, TIE_DIGITS, top_eigenpairs

    sym = (m + m.conj().T) / 2.0
    rank = int(np.count_nonzero(np.linalg.eigvalsh(sym) > RANK_THRESHOLD))
    values, vectors = top_eigenpairs(DensityOperator(len(m).bit_length() - 1, m))
    assert len(values) == rank
    fixed = []
    for i in range(len(values)):
        v = vectors[:, i]
        mags = np.abs(v)
        lead = int(np.argmax(mags > LEAD_CUTOFF * float(mags.max())))
        v = v / (v[lead] / abs(v[lead]))
        key = (lead, tuple(zip(np.round(v.real, TIE_DIGITS), np.round(v.imag, TIE_DIGITS))))
        fixed.append((float(values[i]), key, v))
    fixed.sort(key=lambda t: (-t[0], t[1]))
    k = max(int(math.ceil(math.log2(rank))), 0) if rank > 1 else 0
    table = np.zeros((len(m), 1 << k), dtype=np.complex128)
    for i, (lam, _, v) in enumerate(fixed):
        table[:, i] = math.sqrt(lam) * v
    table /= math.sqrt(sum(lam for lam, _, _ in fixed))
    return table.reshape(-1)
