"""Shared test utilities: independent oracles and random-state generators.

The brute-force reduction here deliberately shares no code with the library's
partial trace: it walks every matrix entry and accumulates by explicit bit
arithmetic on basis indices (qubit 0 = most significant bit).
"""

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


def reference_purification_table(m: np.ndarray) -> np.ndarray:
    """Purified amplitudes of a density matrix, ordered by a per-vector sort.

    The eigenpairs kept are the r largest, r the count of eigenvalues above
    `RANK_THRESHOLD`, taken from `linalg.top_eigenpairs` as `purify` takes
    them, so the two meet the same vectors whichever solver runs. Each is
    phase-fixed so its leading component above `LEAD_CUTOFF` of the largest
    is real positive, then sorted by the key (-eigenvalue, leading index,
    (re, im) entries rounded to `TIE_DIGITS` decimals) and scaled by
    sqrt(eigenvalue). `purify` must reproduce these amplitudes bit for bit.
    """
    import math

    from qcorr.linalg import top_eigenpairs
    from qcorr.purification import LEAD_CUTOFF, RANK_THRESHOLD, TIE_DIGITS

    sym = (m + m.conj().T) / 2.0
    rank = int(np.count_nonzero(np.linalg.eigvalsh(sym) > RANK_THRESHOLD))
    values, vectors = top_eigenpairs(sym, rank)
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
