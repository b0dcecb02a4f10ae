"""The batched cut engine, `correlation._cut_spectra`, and the array form
of the decomposition, `correlation.decompose_rows`.

The engine takes Gram spectra at every cut, which are accurate for entropies
but leave an exact product's tail at rounding noise; those cuts must be
solved again by SVD before they reach the memo. These tests check every
cut's entropy and product flag against the oracle in `helpers`, the SVD of
the cut's amplitudes arranged by explicit bit arithmetic, both sides of
`GRAM_TAIL_FLOOR`, and the rows against the one-row calls. A half cut of
more than one stack is solved on a thread per CPU; those tests check its
memo against one serial pass, bit for bit, and which threads run it.
A pure state with real amplitudes is solved in float64; those tests check it
against the same oracle and flags, and which dtype reaches the solvers.
A pure state's solves run with OpenBLAS set to one thread; those tests check
that the engine sets 1 and restores the count, and that the memo is the same
without the setter. A stack of one cut's matrix, from 16 qubits up, is freed
before its solve; a fresh child checks the peak memory of one such cut.
"""

import itertools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from qcorr import (
    DensityOperator,
    Partition,
    PartitionError,
    PureState,
    analyze,
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
import qcorr.correlation
from qcorr.correlation import (
    _SET_BLAS_THREADS,
    GRAM_TAIL_FLOOR,
    IDENTITY_TOL,
    _cut_spectra,
    clamp_nonneg,
    decompose_rows,
)
from qcorr.partitions import _product_flags
from qcorr.states import _amplitude_matrices
from helpers import probs_entropy, random_density, random_pure, spy, svd_schmidt_probs

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
    """Engine entropies and flags against the oracle's SVD probabilities
    (`svd_schmidt_probs`), on both sides of every cut, all solved in one
    engine call."""
    n, amps = state.n_qubits, state.amplitudes
    sides = [side for p in enumerate_bipartitions(n) for side in (p.alpha, p.beta[::-1])]
    cuts = _cut_spectra(state, sides)
    references = [svd_schmidt_probs(amps, n, side) for side in sides]
    flags = _product_flags([probs for probs, _ in cuts])
    assert flags.tolist() == _product_flags(references).tolist()
    for side, (probs, entropy), reference in zip(sides, cuts, references):
        assert abs(entropy - probs_entropy(reference)) <= ORACLE_TOL, side
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
        spy(monkeypatch, np.linalg, name, lambda a, *_, **__: np.asarray(a).dtype, dtypes)
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


def test_a_complex_sweep_takes_one_gram_spectrum_per_cut(solved):
    n = 12
    sweep(PureState(n, random_pure(np.random.default_rng(680), n)))
    assert len(solved["eigvalsh"]) == 2 ** (n - 1) - 1
    assert sorted(solved["eigvalsh"]) == [
        (1 << k, 1 << k) for k in range(1, n // 2) for _ in range(math.comb(n, k))
    ] + [(1 << (n // 2), 1 << (n // 2))] * (math.comb(n, n // 2) // 2)
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
    real = qcorr.correlation._cut_spectra

    def corrupted(state, subsets):
        cuts = real(state, subsets)
        probs, entropy = cuts[state.n_qubits + 1]  # S(alpha) of the second row
        cuts[state.n_qubits + 1] = (probs, entropy + 1.0)
        return cuts

    monkeypatch.setattr(qcorr.correlation, "_cut_spectra", corrupted)
    with pytest.raises(ArithmeticError, match=r"b\|acd"):
        decompose_rows(state, [good, Partition((1,), (0, 2, 3))])


@pytest.mark.parametrize("raised, holds", [(0.5 * IDENTITY_TOL, True), (2 * IDENTITY_TOL, False)])
@pytest.mark.parametrize("call", ["decompose_rows", "decompose", "analyze"])
def test_the_identity_check_flips_at_its_tolerance(call, raised, holds, monkeypatch):
    # With alpha = qubit b alone, internal(alpha) = S_b - S(alpha) reads one
    # memo entry twice and is exactly 0, so raising S(alpha) by d leaves it
    # clamped at 0, adds d to external and leaves the parts d above the total.
    state = PureState(4, random_pure(np.random.default_rng(93), 4))
    part = Partition((1,), (0, 2, 3))
    real = qcorr.correlation._cut_spectra

    def raised_alpha(state, subsets):
        cuts = real(state, subsets)
        probs, entropy = cuts[state.n_qubits]  # S(alpha) of the one row
        cuts[state.n_qubits] = (probs, entropy + raised)
        return cuts

    monkeypatch.setattr(qcorr.correlation, "_cut_spectra", raised_alpha)
    internal_alpha = {
        "decompose_rows": lambda: decompose_rows(state, [part]).internal_alpha[0],
        "decompose": lambda: decompose(state, part).internal_alpha,
        "analyze": lambda: analyze(state, [part]).entries[0].internal_alpha,
    }[call]
    if holds:
        assert internal_alpha() == 0.0
    else:
        with pytest.raises(ArithmeticError, match=r"across b\|acd"):
            internal_alpha()


@pytest.fixture
def solve_threads(monkeypatch):
    """The `threading.get_ident()` of each call to `np.linalg.eigvalsh`."""
    return spy(monkeypatch, np.linalg, "eigvalsh", lambda *_, **__: threading.get_ident())


def _half_cut_memo(state):
    """The sides of a state's memoised half cuts, in memo order, and their
    probabilities."""
    n = state.n_qubits
    keys = [key for key in state._cuts if 2 * key.bit_count() == n]
    sides = [tuple(q for q in range(n) if key >> q & 1) for key in keys]
    return sides, np.array([state._cuts[key][0] for key in keys])


def _check_half_cut_memo(n, seed):
    """Sweep a random state; its half-cut memo must be one serial pass of
    Gram spectra, none of which falls below the SVD redo's floor."""
    amps = random_pure(np.random.default_rng(seed), n)
    state = PureState(n, amps)
    sweep(state)
    sides, probs = _half_cut_memo(state)
    assert len(sides) == math.comb(n, n // 2) // 2
    mats = _amplitude_matrices(amps, n, sides)
    want = clamp_nonneg(np.linalg.eigvalsh(mats @ mats.conj().transpose(0, 2, 1))[:, ::-1])
    assert np.sum(want[:, 1:], axis=1).min() >= GRAM_TAIL_FLOOR
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


def _orthonormal_pair(rng, k, make):
    """Two random orthonormal k-qubit states."""
    first, second = make(rng, k), make(rng, k)
    second = second - np.vdot(first, second) * first
    return first, second / np.linalg.norm(second)


def _solve_recording_svds(state, sides, monkeypatch):
    """`_cut_spectra(state, sides)`, and each stack it passed to `np.linalg.svd`."""
    redone = spy(monkeypatch, np.linalg, "svd", lambda a, *_, **__: np.array(a))
    cuts = _cut_spectra(state, sides)
    monkeypatch.undo()
    return cuts, redone


def _check_tail_edge(state, sides, cuts, redone, at, t, others):
    """Only the cut `sides[at]`, whose Schmidt tail is t, may be solved again
    by SVD, from its own matrix; it and the cuts `others` must match the SVD
    route, in their probabilities, entropies and flags."""
    n, amps = state.n_qubits, state.amplitudes
    if t < GRAM_TAIL_FLOOR:
        assert len(redone) == 1 and len(redone[0]) == 1
        assert np.array_equal(redone[0][0], _amplitude_matrices(amps, n, [sides[at]])[0])
    else:
        assert redone == []
    assert abs(float(np.sum(cuts[at][0][1:])) - t) <= 1e-14
    for i in [at, *others]:
        side, (probs, entropy) = sides[i], cuts[i]
        reference = svd_schmidt_probs(amps, n, side)
        assert np.abs(probs - reference).max() <= 1e-14, side
        assert abs(entropy - probs_entropy(reference)) <= ORACLE_TOL, side
        flag, want = _product_flags([probs, reference])
        assert flag == want, side


# At the floor and away from it, on the serial half cut (6 qubits, one stack)
# and the pooled one (10 and 12 qubits).
@pytest.mark.parametrize("t", [1e-14, 0.99e-12, 1.01e-12, 1e-10])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n", [6, 10, 12])
def test_half_cut_tails_on_both_sides_of_the_gram_floor(n, real, t, monkeypatch):
    # sqrt(1 - t)|a>|b> + sqrt(t)|a'>|b'> on two shuffled halves has a
    # Schmidt tail of t across them: only that cut may be solved again by SVD.
    rng = np.random.default_rng(690 + n)
    make = _real_pure if real else random_pure
    (a, a2), (b, b2) = _orthonormal_pair(rng, n // 2, make), _orthonormal_pair(rng, n // 2, make)
    perm = [int(q) for q in rng.permutation(n)]
    amps = math.sqrt(1.0 - t) * np.kron(a, b) + math.sqrt(t) * np.kron(a2, b2)
    state = permute_qubits(PureState(n, amps), perm)
    factor = sorted(perm[: n // 2])
    factor = factor if factor[0] == 0 else sorted(set(range(n)) - set(factor))
    halves = [side for side in itertools.combinations(range(n), n // 2) if side[0] == 0]
    cuts, redone = _solve_recording_svds(state, halves, monkeypatch)
    at = halves.index(tuple(factor))
    # the cut at the floor and 7 others against the oracle and the SVD route
    others = rng.choice(len(halves), 7, replace=False)
    _check_tail_edge(state, halves, cuts, redone, at, t, others)


# Below the half cut of 10 qubits: 120 sides of 3 qubits and 210 of 4, in
# stacks of 64. The product's cut sits mid-stack, so its redo must reach its
# own memo key and no neighbour's.
@pytest.mark.parametrize("t", [1e-14, 0.99e-12, 1.01e-12, 1e-10])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("k", [3, 4])
def test_tails_below_the_half_cut_on_both_sides_of_the_gram_floor(k, real, t, monkeypatch):
    n = 10
    rng = np.random.default_rng(710 + k)
    make = _real_pure if real else random_pure
    sides = list(itertools.combinations(range(n), k))
    per_stack = qcorr.correlation.MAX_STACK_AMPLITUDES >> n
    at = per_stack + per_stack // 2
    factor = sides[at]
    rest = [q for q in range(n) if q not in factor]
    (a, a2), (b, b2) = _orthonormal_pair(rng, k, make), _orthonormal_pair(rng, n - k, make)
    perm = [int(q) for q in (*rng.permutation(factor), *rng.permutation(rest))]
    amps = math.sqrt(1.0 - t) * np.kron(a, b) + math.sqrt(t) * np.kron(a2, b2)
    state = permute_qubits(PureState(n, amps), perm)
    cuts, redone = _solve_recording_svds(state, sides, monkeypatch)
    others = [at - 1, at + 1, *rng.choice(len(sides), 6, replace=False)]
    _check_tail_edge(state, sides, cuts, redone, at, t, others)


#: Prints the rise of a fresh child's peak RSS while it solves the half cut
#: of a random complex 20-qubit state, over the state's bytes. That cut is
#: one stack of one 1024 x 1024 matrix, solved serially.
HALF_CUT_RSS = """
import resource
import numpy as np
from helpers import random_pure
from qcorr import PureState, von_neumann_entropy
state = PureState(20, random_pure(np.random.default_rng(720), 20))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
von_neumann_entropy(state, range(10))
rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(rise * 1024 / state.amplitudes.nbytes)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_a_twenty_qubit_half_cut_frees_its_matrix_before_the_solve():
    # Holding the amplitude matrix through eigvalsh beside the Gram matrix
    # and eigvalsh's copy of it read 3.15 states; freed, 2.16.
    here = Path(__file__).resolve().parent
    src = Path(qcorr.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", HALF_CUT_RSS],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(here)])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 2.5


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
@pytest.mark.parametrize("n", [10, 12])
def test_half_cut_stacks_are_solved_on_several_threads(solve_threads, n):
    sweep(PureState(n, random_pure(np.random.default_rng(610 + n), n)))
    assert len(set(solve_threads)) > 1


def test_one_cpu_solves_on_the_calling_thread(solve_threads, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_start(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    sweep(PureState(12, random_pure(np.random.default_rng(620), 12)))
    assert set(solve_threads) == {threading.get_ident()}


def test_a_worker_error_leaves_the_pool_and_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller = threading.get_ident()

    def failing(a, *args, _solve=np.linalg.eigvalsh, **kwargs):
        if threading.get_ident() != caller:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return _solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    before = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        sweep(PureState(10, random_pure(np.random.default_rng(630), 10)))
    assert threading.active_count() == before


def test_levels_are_solved_largest_first(monkeypatch):
    # The half cut, the largest level and the only one a pool may solve,
    # runs first: ascending order measured slower on paired random-sweep
    # processes (ROADMAP).
    rows = []
    for name in ("svd", "eigvalsh"):
        spy(monkeypatch, np.linalg, name, lambda a, *_, **__: np.shape(a)[-2], rows)
    sweep(PureState(6, random_pure(np.random.default_rng(650), 6)))
    assert rows == [8, 4, 2]


class FakeSetter:
    """Stands in for OpenBLAS's thread-count setter: records the thread and
    the count of each call, and returns the count it held, 4 at first."""

    def __init__(self):
        self.count, self.calls = 4, []

    def __call__(self, count):
        self.calls.append((threading.get_ident(), count))
        previous, self.count = self.count, count
        return previous

    def counts(self):
        return [count for _, count in self.calls]


@pytest.fixture
def fake_setter(monkeypatch):
    setter = FakeSetter()
    monkeypatch.setattr(qcorr.correlation, "_SET_BLAS_THREADS", setter)
    return setter


def test_each_solving_call_sets_one_blas_thread_and_restores_the_count(fake_setter, monkeypatch):
    seen = spy(monkeypatch, np.linalg, "eigvalsh", lambda *_, **__: fake_setter.count)
    state = PureState(6, random_pure(np.random.default_rng(660), 6))
    _cut_spectra(state, [(0,), (0, 1)])
    _cut_spectra(state, [(2,), (0, 1, 2)])
    assert fake_setter.counts() == [1, 4, 1, 4]
    assert seen and set(seen) == {1}


def test_a_failing_solve_restores_the_count(fake_setter, monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        _cut_spectra(PureState(4, random_pure(np.random.default_rng(661), 4)), [(0,)])
    assert fake_setter.counts() == [1, 4]
    assert qcorr.correlation._blas_pin[0] == 0
    assert not qcorr.correlation._BLAS_LOCK.locked()


def test_overlapping_blocks_set_once_and_restore_after_the_last(fake_setter):
    first, second = qcorr.correlation._one_blas_thread(), qcorr.correlation._one_blas_thread()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert fake_setter.count == 1
    second.__exit__(None, None, None)
    assert fake_setter.counts() == [1, 4]


def test_a_count_set_by_other_code_meanwhile_stands(fake_setter):
    with qcorr.correlation._one_blas_thread():
        fake_setter(3)
    assert fake_setter.count == 3


def test_only_small_states_and_the_pool_solve_on_one_blas_thread(fake_setter, monkeypatch):
    # With the stack cap lowered to 2^6 amplitudes, an 8-qubit state stands
    # for one too large to pin: its single solves keep OpenBLAS's threads,
    # and only its pooled half cut runs on one.
    monkeypatch.setattr(qcorr.correlation, "MAX_STACK_AMPLITUDES", 1 << 6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    n, caller = 8, threading.get_ident()
    state = PureState(n, random_pure(np.random.default_rng(667), n))
    _cut_spectra(state, [(0,), (1, 2, 3), (0, 1, 2, 3)])
    assert fake_setter.calls == []
    halves = [side for side in itertools.combinations(range(n), n // 2) if side[0] == 0]
    _cut_spectra(state, halves)
    assert [count for ident, count in fake_setter.calls if ident == caller] == [1, 4]
    assert {count for ident, count in fake_setter.calls if ident != caller} == {1}


def test_the_pool_initializer_sets_one_blas_thread(fake_setter, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    n, caller = 10, threading.get_ident()
    halves = [side for side in itertools.combinations(range(n), n // 2) if side[0] == 0]
    _cut_spectra(PureState(n, random_pure(np.random.default_rng(662), n)), halves)
    workers = [count for ident, count in fake_setter.calls if ident != caller]
    assert workers and set(workers) == {1}
    assert [count for ident, count in fake_setter.calls if ident == caller] == [1, 4]


def test_memoised_calls_and_operators_leave_the_setter_alone(fake_setter):
    state = PureState(5, random_pure(np.random.default_rng(663), 5))
    sweep(state)
    fake_setter.calls.clear()
    sweep(state)
    rho = to_density(state)
    for subset in [(0,), (1, 3), (0, 1, 2, 3, 4)]:
        _cut_spectra(rho, [subset])
    assert fake_setter.calls == []


def _blas_threads():
    """OpenBLAS's thread count, read by setting it."""
    count = _SET_BLAS_THREADS(1)
    _SET_BLAS_THREADS(count)
    return count


@pytest.mark.skipif(_SET_BLAS_THREADS is None, reason="numpy's BLAS has no OpenBLAS setter")
def test_the_real_count_is_restored_after_sweeps(monkeypatch):
    seen = spy(monkeypatch, np.linalg, "eigvalsh", lambda *_, **__: _blas_threads())
    initial = _SET_BLAS_THREADS(2)
    try:
        sweep(PureState(12, random_pure(np.random.default_rng(664), 12)))
        assert _blas_threads() == 2
        errors = []

        def run(seed):
            try:
                sweep(PureState(12, random_pure(np.random.default_rng(seed), 12)))
            except BaseException as e:  # re-raised on the test's thread
                errors.append(e)

        threads = [threading.Thread(target=run, args=(seed,)) for seed in (665, 666)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert _blas_threads() == 2
    finally:
        _SET_BLAS_THREADS(initial)
    assert seen and set(seen) == {1}


def _memo_bytes(state):
    return b"".join(
        np.int64(key).tobytes() + probs.tobytes() + np.float64(entropy).tobytes()
        for key, (probs, entropy) in sorted(state._cuts.items())
    )


@pytest.mark.parametrize("n", [10, 12])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_the_memo_is_the_same_without_the_setter(n, real, monkeypatch):
    rng = np.random.default_rng(670 + n)
    amps = _real_pure(rng, n) if real else random_pure(rng, n)
    pinned = PureState(n, amps)
    sweep(pinned)
    monkeypatch.setattr(qcorr.correlation, "_SET_BLAS_THREADS", None)
    free = PureState(n, amps)
    sweep(free)
    assert _memo_bytes(pinned) == _memo_bytes(free)
