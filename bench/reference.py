"""Seeded inputs and independent reference values.

Nothing here imports qcorr. The benchmark makes every input itself and
computes every expected value from the amplitudes it made, so a fault in
qcorr cannot hide in the reference.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

LN2 = math.log(2.0)

#: Schmidt probabilities at or below this count as zero when taking a rank.
RANK_FLOOR = 1e-10


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Normalised complex Gaussian amplitudes: a Haar-random pure state."""
    dim = 1 << n_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def named_groups(kind: str, parameter: int) -> tuple[int, list[tuple[int, ...]]]:
    """Qubit count and GHZ groups of a named state spec.

    Every named state is a product of GHZ states (|0..0> + |1..1>)/sqrt(2)
    on disjoint qubit groups: `ghz:N` is one group, `bellpairs:K` the pairs
    (2i, 2i+1), `ue:N` the pairs (i, i + N/2) and `ghzblocks:K` two blocks
    of K qubits.
    """
    if kind == "ghz":
        return parameter, [tuple(range(parameter))]
    if kind == "ue":
        half = parameter // 2
        return parameter, [(i, i + half) for i in range(half)]
    if kind == "bellpairs":
        return 2 * parameter, [(2 * i, 2 * i + 1) for i in range(parameter)]
    if kind == "ghzblocks":
        k = parameter
        return 2 * k, [tuple(range(k)), tuple(range(k, 2 * k))]
    raise ValueError(f"unknown named state {kind!r}")


def group_state(n_qubits: int, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """Amplitudes of the product of GHZ states on `groups` (qubit 0 is the MSB)."""
    idx = np.arange(1 << n_qubits)
    bits = (idx[:, None] >> (n_qubits - 1 - np.arange(n_qubits))) & 1
    keep = np.ones(idx.size, dtype=bool)
    for g in groups:
        gb = bits[:, list(g)]
        keep &= (gb == gb[:, :1]).all(axis=1)
    return keep.astype(np.complex128) / math.sqrt(int(keep.sum()))


def product_purifier(
    rng: np.random.Generator, n: int, alpha: Sequence[int], m_alpha: int, m_beta: int
) -> np.ndarray:
    """Purifier of rho_alpha (x) rho_beta: independent random states on
    alpha + m_alpha ancillas and beta + m_beta ancillas, reordered so the
    n system qubits come first and the ancillas last."""
    beta = [q for q in range(n) if q not in set(alpha)]
    a = random_state(rng, len(alpha) + m_alpha)
    b = random_state(rng, len(beta) + m_beta)
    total = n + m_alpha + m_beta
    # Axis j of the Kronecker product holds final qubit place[j].
    place = [
        *alpha,
        *range(n, n + m_alpha),
        *beta,
        *range(n + m_alpha, total),
    ]
    t = np.kron(a, b).reshape((2,) * total).transpose(np.argsort(place))
    return np.ascontiguousarray(t).reshape(-1)


def density_of_system(purifier: np.ndarray, n: int) -> np.ndarray:
    """rho = M M^dagger, M the amplitudes as a 2^n x 2^m matrix."""
    mat = purifier.reshape(1 << n, -1)
    return mat @ mat.conj().T


def entropy(p: np.ndarray) -> float:
    """-sum p ln p over the positive entries, in nats."""
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def cut_matrix(amps: np.ndarray, n: int, subset: Sequence[int]) -> np.ndarray:
    """Amplitudes as a matrix with the subset's qubits (in order) as rows."""
    sub = [int(q) for q in subset]
    rest = [q for q in range(n) if q not in set(sub)]
    t = amps.reshape((2,) * n).transpose([*sub, *rest])
    return t.reshape(1 << len(sub), -1)


class StateReference:
    """Entropies, Schmidt ranks and reductions of one pure state.

    With `groups` given (a product of GHZ groups, see `named_groups`), the
    entropy of a subset is ln 2 for each group it splits and its Schmidt
    rank is 2 per split group: the closed forms. Otherwise both come from
    the eigenvalues of the Gram matrix of the amplitudes reshaped across
    the cut, taken on the smaller side.
    """

    def __init__(self, amps: np.ndarray, n: int, groups=None):
        self.amps = amps
        self.n = n
        self.groups = None if groups is None else [frozenset(g) for g in groups]
        self._probs: dict[frozenset, np.ndarray] = {}

    def _split(self, subset: Iterable[int]) -> int:
        s = set(subset)
        return sum(1 for g in self.groups if g & s and not g <= s)

    def probs(self, subset: Sequence[int]) -> np.ndarray:
        key = frozenset(subset)
        if key not in self._probs:
            mat = cut_matrix(self.amps, self.n, sorted(key))
            if mat.shape[0] <= mat.shape[1]:
                gram = mat @ mat.conj().T
            else:
                gram = mat.T @ mat.conj()
            self._probs[key] = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
        return self._probs[key]

    def entropy(self, subset: Sequence[int]) -> float:
        if self.groups is not None:
            return self._split(subset) * LN2
        return entropy(self.probs(subset))

    def rank(self, subset: Sequence[int]) -> int:
        if self.groups is not None:
            return 1 << self._split(subset)
        return int(np.count_nonzero(self.probs(subset) > RANK_FLOOR))

    def single(self) -> list[float]:
        return [self.entropy((q,)) for q in range(self.n)]

    def reduced(self, subset: Sequence[int]) -> np.ndarray:
        """Reduced density matrix on the subset, qubits in the given order."""
        mat = cut_matrix(self.amps, self.n, subset)
        return mat @ mat.conj().T


def ancillas_for_rank(rank: int) -> int:
    """ceil(log2 rank), 0 for a pure reduction."""
    return (rank - 1).bit_length()


def write_state_file(path: str, amps: np.ndarray) -> None:
    """Write the amplitude-file JSON that `qcorr ... --state file:PATH` reads.

    Floats are written with repr, which round-trips every double exactly.
    """
    n = int(amps.size).bit_length() - 1
    pairs = ", ".join(f"[{float(a.real)!r}, {float(a.imag)!r}]" for a in amps)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"n_qubits": {n}, "amplitudes": [{pairs}]}}\n')
