"""The batched cut engine, `correlation._cut_spectra`, and the array form
of the decomposition, `partitions.decompose_rows`.

Below the half cut the engine takes Gram spectra, which are accurate for
entropies but leave an exact product's tail at rounding noise; those cuts
must be solved again by SVD before they reach the memo. These tests check
every cut's entropy against the brute-force oracle in `helpers`, every
product flag against the SVD route, and the rows against the one-row calls.
A half cut of more than one stack is solved on a thread per CPU; those tests
check its memo against one serial SVD, bit for bit, and which threads run it.
A pure state with real amplitudes is solved in float64; those tests check it
against the same oracle and flags, and which dtype reaches the solvers.
"""

import math
import os
import sys
import threading

import numpy as np
import pytest

import qcorr.partitions
from qcorr import (
    DensityOperator,
    Partition,
    PartitionError,
    PureState,
    araki_lieb_check,
    bell_product,
    decompose,
    enumerate_bipartitions,
    ghz,
    ghz_block_product,
    index_of_correlation,
    is_maximally_correlated_purification,
    is_product_across,
    permute_qubits,
    purify,
    sweep,
    to_density,
    uniform_entangled,
)
from qcorr.correlation import GRAM_TAIL_FLOOR, _cut_spectra
from qcorr.partitions import _product_flag, decompose_rows
from qcorr.states import _amplitude_matrices
from helpers import (
    brute_pure_reduced,
    entropy_oracle,
    random_density,
    random_pure,
    svd_schmidt_probs,
)
from test_report_paths import solved  # noqa: F401  (fixture)

ORACLE_TOL = 1e-12


def _real_pure(rng, n):
    """A random pure state with real amplitudes."""
    amps = rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


def _sparse_pure(rng, n, keep, make=random_pure):
    """A random pure state with all but about `keep` of its amplitudes zero."""
    amps = make(rng, n)
    amps[rng.random(1 << n) >= keep] = 0.0
    if not np.any(amps):
        amps[int(rng.integers(1 << n))] = 1.0
    return amps / np.linalg.norm(amps)


def _shuffled_product(rng, n, k, make=random_pure):
    """A random product of k and n - k qubits, qubits shuffled; and the factor."""
    amps = np.kron(make(rng, k), make(rng, n - k))
    perm = [int(q) for q in rng.permutation(n)]
    return permute_qubits(PureState(n, amps), perm), frozenset(perm[:k])


def _check_every_cut(state):
    """Engine entropies against the oracle and flags against the SVD route,
    on both sides of every cut, all solved in one engine call."""
    n, amps = state.n_qubits, state.amplitudes
    sides = [side for p in enumerate_bipartitions(n) for side in (p.alpha, p.beta[::-1])]
    cuts = _cut_spectra(state, sides)
    for side, (probs, entropy) in zip(sides, cuts):
        want = entropy_oracle(brute_pure_reduced(amps, n, side))
        assert abs(entropy - want) <= ORACLE_TOL, side
        reference = svd_schmidt_probs(amps, n, side)
        assert _product_flag(probs) == _product_flag(reference), side
        tail, reference_tail = float(np.sum(probs[1:])), float(np.sum(reference[1:]))
        assert tail >= 0.0, side
        if tail < GRAM_TAIL_FLOOR:
            # only an SVD tail may sit below the floor
            assert abs(tail - reference_tail) <= 1e-6 * reference_tail + 1e-28, side


@pytest.mark.parametrize("n", range(2, 10))
def test_every_cut_matches_the_oracle_on_random_states(n):
    rng = np.random.default_rng(300 + n)
    for amps in [random_pure(rng, n), _sparse_pure(rng, n, 0.5), _sparse_pure(rng, n, 0.1)]:
        _check_every_cut(PureState(n, amps))


@pytest.mark.parametrize("n", range(2, 10))
def test_shuffled_products_are_flagged_at_every_split(n):
    rng = np.random.default_rng(400 + n)
    for k in range(1, n):
        state, factor = _shuffled_product(rng, n, k)
        _check_every_cut(state)
        part = Partition.complement(sorted(factor), n)
        assert is_product_across(state, part), (n, k)


def test_near_product_is_not_flagged():
    # |01> + 1e-9 |10>: a Schmidt tail of 1e-18, under the Gram route's noise
    amps = np.array([0.0, 1.0, 1e-9, 0.0])
    state = PureState(2, amps / np.linalg.norm(amps))
    _check_every_cut(state)
    assert not is_product_across(state, Partition((0,), (1,)))
    three = PureState(3, np.kron(state.amplitudes, [1.0, 0.0]))
    _check_every_cut(three)
    assert not is_product_across(three, Partition((0,), (1, 2)))
    assert is_product_across(three, Partition((2,), (0, 1)))


@pytest.mark.parametrize("k", [4, 6])
def test_twelve_qubit_random_products_are_flagged_after_a_sweep(k):
    state, factor = _shuffled_product(np.random.default_rng(500 + k), 12, k)
    report = sweep(state)
    flagged = [
        frozenset(part.alpha)
        for part, entry in zip(enumerate_bipartitions(12), report.entries)
        if entry.product_across
    ]
    assert flagged in ([factor], [frozenset(range(12)) - factor])


@pytest.fixture
def solved_dtypes(monkeypatch):
    """The dtype of each array given to `svd` and to `eigvalsh`."""
    dtypes = []
    for name in ("svd", "eigvalsh"):

        def recording(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return dtypes


@pytest.mark.parametrize("n", range(2, 10))
def test_every_cut_of_a_real_state_matches_the_oracle(n, solved_dtypes):
    rng = np.random.default_rng(700 + n)
    product, factor = _shuffled_product(rng, n, (n + 1) // 2, _real_pure)
    states = [
        PureState(n, _real_pure(rng, n)),
        PureState(n, _sparse_pure(rng, n, 0.5, _real_pure)),
        product,
    ]
    for state in states:
        sweep(PureState(n, state.amplitudes))
    assert set(solved_dtypes) == {np.dtype(np.float64)}
    for state in states:
        _check_every_cut(state)
    assert is_product_across(product, Partition.complement(sorted(factor), n))


@pytest.mark.parametrize("k", [4, 6])
def test_twelve_qubit_real_products_are_flagged_after_a_sweep(k, solved_dtypes):
    state, factor = _shuffled_product(np.random.default_rng(510 + k), 12, k, _real_pure)
    report = sweep(state)
    flagged = [
        frozenset(part.alpha)
        for part, entry in zip(enumerate_bipartitions(12), report.entries)
        if entry.product_across
    ]
    assert flagged in ([factor], [frozenset(range(12)) - factor])
    assert set(solved_dtypes) == {np.dtype(np.float64)}


def test_a_real_half_cut_takes_gram_spectra(solved):
    sweep(PureState(6, _real_pure(np.random.default_rng(660), 6)))
    assert sorted(solved["eigvalsh"]) == [(2, 2)] * 6 + [(4, 4)] * 15 + [(8, 8)] * 10
    assert solved["svd"] == []


@pytest.mark.parametrize(
    "state",
    [ghz(6), uniform_entangled(3), bell_product(3), ghz_block_product(3)],
    ids=["ghz", "ue", "bellpairs", "ghzblocks"],
)
def test_real_named_states_are_solved_in_float64(state, solved_dtypes):
    sweep(state)
    assert set(solved_dtypes) == {np.dtype(np.float64)}


def test_a_tiny_imaginary_part_keeps_the_complex_route(solved_dtypes):
    amps = _real_pure(np.random.default_rng(670), 6).astype(np.complex128)
    amps[5] += 1e-300j
    sweep(PureState(6, amps))
    assert set(solved_dtypes) == {np.dtype(np.complex128)}


def test_a_real_operator_keeps_the_complex_route(solved_dtypes):
    rho = to_density(ghz(4))
    decompose(rho, Partition((0, 2), (1, 3)))
    assert set(solved_dtypes) == {np.dtype(np.complex128)}


def test_maximal_purification_flag_solves_two_by_two_grams_only(solved):
    rho = DensityOperator(4, random_density(np.random.default_rng(81), 4))
    result = purify(rho)
    solved["svd"].clear()
    solved["eigvalsh"].clear()
    assert is_maximally_correlated_purification(result) is False
    assert solved["svd"] == []
    assert solved["eigvalsh"] == [(2, 2)] * result.purified.n_qubits


def _random_parts(rng, n, count):
    parts = []
    for _ in range(count):
        order = [int(q) for q in rng.permutation(n)]
        k = int(rng.integers(1, n))
        parts.append(Partition(tuple(order[:k]), tuple(order[k:])))
    return parts


@pytest.mark.parametrize("dense", [False, True])
def test_rows_are_the_one_row_calls(dense):
    rng = np.random.default_rng(91)
    n = 5
    if dense:
        state = DensityOperator(n, random_density(rng, n))
    else:
        state = PureState(n, random_pure(rng, n))
    parts = _random_parts(rng, n, 12)
    rows = decompose_rows(state, parts)
    for i, part in enumerate(parts):
        d = decompose(state, part)
        al = araki_lieb_check(state, part)
        assert (d.internal_alpha, d.internal_beta, d.external, d.total) == (
            rows.internal_alpha[i],
            rows.internal_beta[i],
            rows.external[i],
            rows.total[i],
        )
        assert index_of_correlation(state, part) == d.external
        assert (al.ok, al.lower_slack, al.upper_slack) == (
            rows.araki_lieb_ok[i],
            rows.lower_slack[i],
            rows.upper_slack[i],
        )


def test_rows_check_every_partition_and_the_identity(monkeypatch):
    state = PureState(4, random_pure(np.random.default_rng(92), 4))
    good = Partition((0,), (1, 2, 3))
    with pytest.raises(PartitionError):
        decompose_rows(state, [good, Partition((0,), (1, 2))])
    real = qcorr.partitions._subset_entropies

    def corrupted(state, subsets):
        s = real(state, subsets)
        s[state.n_qubits + 1] += 1.0  # S(alpha) of the second row
        return s

    monkeypatch.setattr(qcorr.partitions, "_subset_entropies", corrupted)
    with pytest.raises(ArithmeticError, match=r"b\|acd"):
        decompose_rows(state, [good, Partition((1,), (0, 2, 3))])


@pytest.fixture
def svd_threads(monkeypatch):
    """The `threading.get_ident()` of each call to `np.linalg.svd`."""
    idents = []

    def recording(a, *args, _svd=np.linalg.svd, **kwargs):
        idents.append(threading.get_ident())
        return _svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return idents


def _half_cut_memo(state):
    """The sides of a state's memoised half cuts, in memo order, and their
    probabilities."""
    n = state.n_qubits
    keys = [key for key in state._cuts if 2 * key.bit_count() == n]
    sides = [tuple(q for q in range(n) if key >> q & 1) for key in keys]
    return sides, np.array([state._cuts[key][0] for key in keys])


def _check_half_cut_memo(n, seed):
    """Sweep a random state; its half-cut memo must be one serial SVD's."""
    amps = random_pure(np.random.default_rng(seed), n)
    state = PureState(n, amps)
    sweep(state)
    sides, probs = _half_cut_memo(state)
    assert len(sides) == math.comb(n, n // 2) // 2
    want = np.linalg.svd(_amplitude_matrices(amps, n, sides), compute_uv=False) ** 2
    assert probs.tobytes() == want.tobytes()


# 10 qubits: 126 half cuts in 2 stacks of 64; 12 qubits: 462 in 29 stacks of 16.
@pytest.mark.parametrize("n", [10, 12])
def test_half_cut_memo_is_one_serial_svd(n):
    _check_half_cut_memo(n, 600 + n)


def test_more_workers_than_cores_keep_the_memo_serial(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _check_half_cut_memo(12, 640)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
@pytest.mark.parametrize("n", [10, 12])
def test_half_cut_stacks_are_solved_on_several_threads(svd_threads, n):
    sweep(PureState(n, random_pure(np.random.default_rng(610 + n), n)))
    assert len(set(svd_threads)) > 1


def test_one_cpu_solves_on_the_calling_thread(svd_threads, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_start(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    sweep(PureState(12, random_pure(np.random.default_rng(620), 12)))
    assert set(svd_threads) == {threading.get_ident()}


def test_a_worker_error_leaves_the_pool_and_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller = threading.get_ident()

    def failing(a, *args, _svd=np.linalg.svd, **kwargs):
        if threading.get_ident() != caller:
            raise np.linalg.LinAlgError("SVD did not converge")
        return _svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    before = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        sweep(PureState(10, random_pure(np.random.default_rng(630), 10)))
    assert threading.active_count() == before


def test_levels_are_solved_largest_first(monkeypatch):
    # The half cut runs before any Gram product, whose BLAS threads would
    # otherwise still be spinning while the half cut's pool works.
    rows = []
    for name in ("svd", "eigvalsh"):

        def recording(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            rows.append(np.shape(a)[-2])
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    sweep(PureState(6, random_pure(np.random.default_rng(650), 6)))
    assert rows == [8, 4, 2]
