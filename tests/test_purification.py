"""Spectral rank, minimum ancilla count, and explicit purification."""

import math

import numpy as np
import pytest

from qcorr import (
    DensityOperator,
    Partition,
    bell_product,
    decompose,
    ghz,
    is_maximally_correlated_purification,
    min_purifying_qubits,
    partial_trace,
    purify,
    reduced_operator,
    spectral_rank,
    to_density,
    uniform_entangled,
    validate_density,
    von_neumann_entropy,
)
from helpers import (
    random_density,
    random_unitary,
    reference_purification_table,
    tilted_four_qubit,
)
from qcorr import PureState

LN2 = math.log(2)


def ghz_reduction():
    return reduced_operator(ghz(4), (0, 1))


def ue_reduction():
    return reduced_operator(uniform_entangled(2), (0, 1))


def test_spectral_rank_pure():
    assert spectral_rank(to_density(ghz(3))) == 1


def test_spectral_rank_ghz_reduction():
    assert spectral_rank(ghz_reduction()) == 2


def test_spectral_rank_maximally_mixed():
    assert spectral_rank(validate_density(np.eye(4) / 4, 2)) == 4


def test_min_purifying_qubits():
    assert min_purifying_qubits(ghz_reduction()) == 1
    assert min_purifying_qubits(ue_reduction()) == 2
    assert min_purifying_qubits(to_density(ghz(2))) == 0


def test_purify_ghz_reduction_gives_three_qubit_ghz():
    result = purify(ghz_reduction())
    assert result.ancilla_qubits == 1
    assert result.residual <= 1e-9
    # ancilla entropy equals the input entropy ln 2
    anc = partial_trace(to_density(result.purified).matrix, 3, (2,))
    assert abs(von_neumann_entropy(DensityOperator(1, anc)) - LN2) < 1e-9
    assert np.max(np.abs(result.purified.amplitudes - ghz(3).amplitudes)) < 1e-12


def test_purify_pure_input_returns_itself():
    bell = ghz(2)
    result = purify(to_density(bell))
    assert result.ancilla_qubits == 0
    assert np.max(np.abs(result.purified.amplitudes - bell.amplitudes)) < 1e-12
    assert result.residual <= 1e-9


def test_purify_maximally_mixed_two_qubits():
    result = purify(validate_density(np.eye(4) / 4, 2))
    assert result.ancilla_qubits == 2
    d = decompose(to_density(result.purified), Partition((0, 1), (2, 3)))
    assert abs(d.external - 4 * LN2) < 1e-8


def test_purify_round_trip_random():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        rho = validate_density(random_density(rng, n), n)
        result = purify(rho)
        back = partial_trace(
            to_density(result.purified).matrix, result.purified.n_qubits, range(n)
        )
        assert np.max(np.abs(back - rho.matrix)) < 1e-9
        assert result.residual <= 1e-9


def test_purify_ancilla_entropy_matches_input_entropy():
    rng = np.random.default_rng(79)
    for _ in range(5):
        rho = validate_density(random_density(rng, 2), 2)
        result = purify(rho)
        n, k = 2, result.ancilla_qubits
        anc = partial_trace(
            to_density(result.purified).matrix, n + k, range(n, n + k)
        )
        s_anc = von_neumann_entropy(DensityOperator(k, anc))
        assert abs(s_anc - von_neumann_entropy(rho)) < 1e-8


def test_purify_is_deterministic():
    rng = np.random.default_rng(83)
    rho = validate_density(random_density(rng, 2), 2)
    a = purify(rho).purified.amplitudes
    b = purify(rho).purified.amplitudes
    assert np.array_equal(a, b)


def test_ancilla_count_tracks_rank():
    rng = np.random.default_rng(89)
    seen = set()
    for _ in range(20):
        # mix a random pure projector with noise to hit assorted ranks
        n = int(rng.integers(1, 3))
        lam = float(rng.uniform(0, 1))
        m = lam * random_density(rng, n) + (1 - lam) * np.eye(2**n) / 2**n
        rho = validate_density(m, n)
        rank = spectral_rank(rho)
        seen.add(rank)
        expected = 0 if rank == 1 else math.ceil(math.log2(rank))
        assert min_purifying_qubits(rho) == expected
        assert (min_purifying_qubits(rho) == 1) == (rank == 2)
    psi = PureState(2, np.array([1, 0, 0, 0], dtype=complex))
    assert spectral_rank(to_density(psi)) == 1
    rank2 = validate_density(np.diag([0.3, 0.7, 0.0, 0.0]).astype(complex), 2)
    assert min_purifying_qubits(rank2) == 1
    rank3 = validate_density(np.diag([0.2, 0.3, 0.5, 0.0]).astype(complex), 2)
    assert min_purifying_qubits(rank3) == 2


def test_maximally_correlated_flags():
    assert is_maximally_correlated_purification(purify(ghz_reduction()))
    assert is_maximally_correlated_purification(purify(to_density(ghz(2))))
    # a non-boundary quantum-region reduction purifies to a non-maximal state
    tilted = PureState(4, tilted_four_qubit(math.pi / 8))
    red = reduced_operator(tilted, (0, 1))
    assert min_purifying_qubits(red) == 1
    assert not is_maximally_correlated_purification(purify(red))


def _random_of_rank(seed: int, n: int, rank: int) -> DensityOperator:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((1 << n, rank)) + 1j * rng.standard_normal((1 << n, rank))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real, n)


@pytest.mark.parametrize(
    "make",
    [
        lambda: validate_density(np.eye(8) / 8, 3),
        lambda: reduced_operator(ghz(6), (0, 3)),
        lambda: reduced_operator(bell_product(4), (0, 2, 4)),
        lambda: _random_of_rank(101, 2, 2),
        lambda: _random_of_rank(102, 3, 5),
        lambda: _random_of_rank(103, 5, 32),
        lambda: _random_of_rank(104, 7, 100),
        lambda: _random_of_rank(105, 8, 256),
        lambda: _random_of_rank(106, 9, 3),
        lambda: _random_of_rank(107, 10, 1024),
    ],
    ids=[
        "eye8", "ghz6-tie", "bellpairs4", "n2r2", "n3r5", "n5full", "n7r100",
        "n8full", "n9r3", "n10full",
    ],
)
def test_purify_matches_the_per_vector_sort_bit_for_bit(make):
    rho = make()
    got = purify(rho).purified.amplitudes
    assert got.tobytes() == reference_purification_table(rho.matrix).tobytes()


def test_purify_breaks_full_ties_by_the_entries_as_the_reference_does(monkeypatch):
    # Four equal eigenvalues of unit eigenvectors whose leading entries have
    # assorted phases. Three have leading magnitude 0.5, so only their other
    # (re, im) entries can order them; the fourth, 1e-6, must still count
    # as leading. eigh rarely returns such exact ties, so it is made to.
    top = np.array([0.5j, -0.5, 0.5 * np.exp(1j), 1e-6j])
    rng = np.random.default_rng(102)
    rest = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    rest *= np.sqrt(1 - np.abs(top) ** 2) / np.linalg.norm(rest, axis=0)
    vectors = np.vstack([top, rest])
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.full(4, 0.25), vectors))
    rho = validate_density(np.eye(4) / 4, 2)
    got = purify(rho).purified.amplitudes
    assert got.tobytes() == reference_purification_table(rho.matrix).tobytes()


def test_purify_fixes_any_leading_phase_as_the_reference_does(monkeypatch):
    # eigh's eigenvectors have a real first entry, so a general complex phase
    # is divided out only when that entry is 0 and the leading one lies below
    # it, here in rows 1 to 3. The phase must be computed as the reference's
    # scalar v[lead] / abs(v[lead]), bit for bit, at any such phase.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        for col, lead in enumerate(rng.integers(1, 4, size=8)):
            vectors[:lead, col] = 0
        vectors /= np.linalg.norm(vectors, axis=0)
        values = np.sort(rng.random(8))
        values /= values.sum()
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (values, vectors))
        rho = validate_density(np.eye(8) / 8, 3)
        got = purify(rho).purified.amplitudes
        assert got.tobytes() == reference_purification_table(rho.matrix).tobytes(), seed


def _fifth_eigenvalue_at_the_threshold(rng):
    """A 3-qubit operator of rank 5 whose smallest nonzero eigenvalue lies
    within 1e-15 of `RANK_THRESHOLD`, where eigh and eigvalsh may disagree."""
    values = np.zeros(8)
    values[4] = 1e-10 * (1 + rng.uniform(-1e-5, 1e-5))
    values[:4] = rng.random(4)
    values[:4] *= (1 - values[4]) / values[:4].sum()
    u = random_unitary(rng, 8)
    return (u * values) @ u.conj().T


@pytest.mark.parametrize("spectrum_first", [False, True])
def test_purify_and_min_purifying_qubits_share_one_rank(spectrum_first):
    # Four of these 600 seeds (169, 177, 487, 534) put eigh and eigvalsh on
    # opposite sides of the threshold, so a rank from each gives 2 ancillas
    # against 3.
    for seed in range(600):
        rho = DensityOperator(3, _fifth_eigenvalue_at_the_threshold(np.random.default_rng(seed)))
        if spectrum_first:
            want = min_purifying_qubits(rho)
            result = purify(rho)
        else:
            result = purify(rho)
            want = min_purifying_qubits(rho)
        assert result.ancilla_qubits == want, seed
        assert result.purified.n_qubits == 3 + want, seed


def test_purify_orders_separate_tie_groups_by_their_entries(monkeypatch):
    # Eight unit eigenvectors, shuffled: three tie on (value, lead) = (0.2, 0),
    # one shares only the value (0.2, 1), two tie on (0.1, 2), and two share
    # only the value (0.05, 2) and (0.05, 3). Only the two tie groups are
    # ordered by their entries, so a run that starts or stops one column
    # off moves a vector. Leading magnitudes fall with the column, so each
    # group's order is the reverse of eigh's. Each leading entry's phase is
    # a power of i, which the vectorised phase fix and the reference's
    # per-vector one both divide out exactly.
    rng = np.random.default_rng(103)
    keys = [(0.2, 0), (0.1, 2), (0.05, 3), (0.2, 1), (0.2, 0), (0.05, 2), (0.1, 2), (0.2, 0)]
    vectors = np.zeros((8, 8), dtype=np.complex128)
    for col, (_, lead) in enumerate(keys):
        top = 0.9 - 0.1 * col
        rest = rng.standard_normal(7 - lead) + 1j * rng.standard_normal(7 - lead)
        vectors[lead, col] = top * 1j**col
        vectors[lead + 1 :, col] = rest * math.sqrt(1 - top * top) / np.linalg.norm(rest)
    values = np.array([value for value, _ in keys])
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (values, vectors))
    rho = validate_density(np.eye(8) / 8, 3)
    got = purify(rho).purified.amplitudes
    assert got.tobytes() == reference_purification_table(rho.matrix).tobytes()
