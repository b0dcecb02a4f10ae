"""The report is built from the library's decomposition path.

The rows of `analyze`/`sweep` come from `decompose_rows` of all the
partitions at once; the single-qubit entropies, each row's product flag and
the total from one more `_cut_spectra` call. A `PureState` memoises the
Schmidt probabilities of each cut once, under the bit mask of its smaller
side, and `_cut_spectra` fills that memo in one batched pass, so each cut
is solved once. The engine trusts its subsets: each is checked where it
enters the library, by `Partition` or `von_neumann_entropy`. These tests
count the matrices given to each solver, the engine's entries, its subset
checks and the memo's entries, check that the memo cannot go stale or hide
a bad subset, and check the rows against the dense library calls and the
paper's identities.
"""

import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.correlation
import qcorr.partitions
import qcorr.report
import qcorr.states
from qcorr import (
    DecompositionRows,
    Partition,
    PartitionError,
    PureState,
    Region,
    analyze,
    araki_lieb_check,
    bell_product,
    classify_region,
    decompose,
    enumerate_bipartitions,
    ghz,
    ghz_block_product,
    is_product_across,
    parse_partition,
    permute_qubits,
    sweep,
    to_density,
    total_correlation,
    uniform_entangled,
    von_neumann_entropy,
)
from qcorr.correlation import REGION_TOL
from qcorr.partitions import _product_flag
from helpers import random_pure
from test_entropy_engine import pure_states

LN2 = math.log(2)
TOL = 1e-10
IDENTITY_TOL = 1e-8


@pytest.fixture
def solved(monkeypatch):
    """The shape of each matrix given to `svd` and to `eigvalsh`, by solver.

    A stacked call counts once per matrix in its stack.
    """
    shapes = {"svd": [], "eigvalsh": []}
    for name, matrices in shapes.items():

        def counting(a, *args, _solve=getattr(np.linalg, name), _seen=matrices, **kwargs):
            shape = np.shape(a)
            _seen.extend([shape[-2:]] * math.prod(shape[:-2]))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return shapes


def test_sweep_solves_each_cut_once(solved):
    n = 6
    sweep(PureState(n, random_pure(np.random.default_rng(71), n)))
    # 6 one-qubit, 15 two-qubit and 10 half-cut sides go through Gram
    # spectra: 31 = 2 ** (n - 1) - 1 cuts, each solved once, none by SVD.
    assert sorted(solved["eigvalsh"]) == [(2, 2)] * 6 + [(4, 4)] * 15 + [(8, 8)] * 10
    assert solved["svd"] == []


def test_analyze_of_an_unsorted_cut_makes_seven_gram_spectra(solved):
    n = 6
    state = PureState(n, random_pure(np.random.default_rng(72), n))
    analyze(state, [Partition((2, 0), (5, 4, 3, 1))])
    # one per qubit and one for the cut; no SVD
    assert sorted(solved["eigvalsh"]) == [(2, 2)] * n + [(4, 4)]
    assert solved["svd"] == []


def test_writing_to_the_callers_array_leaves_every_entropy_unchanged():
    n = 4
    amps = random_pure(np.random.default_rng(73), n)
    reference = PureState(n, amps.copy())
    state = PureState(n, amps)
    von_neumann_entropy(state, (0,))
    von_neumann_entropy(state, (2, 1))
    amps[:] = 0.0
    amps[0] = 1.0
    subsets = [(0,), (1, 2), (3,), (0, 3), (3, 1, 0), (2, 0, 1, 3), None]
    for subset in subsets:
        assert von_neumann_entropy(state, subset) == von_neumann_entropy(
            reference, subset
        ), subset


def test_amplitudes_are_read_only():
    state = ghz(3)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0


@pytest.mark.parametrize(
    "bad", [(0, 0), (1, 1, 0), (0, 0, 1, 1), (4,), (1.0,), (0, 2.0)]
)
def test_bad_subsets_raise_after_their_set_is_memoised(bad):
    state = ghz(4)
    sweep(state)
    rho = to_density(state)
    for k in range(5):
        for subset in combinations(range(4), k):
            von_neumann_entropy(rho, subset)
    assert len(rho._cuts) == 16  # every subset of the operator
    for memoised in (state, rho):
        with pytest.raises(IndexError):
            von_neumann_entropy(memoised, bad)


def test_a_sweep_memoises_each_cut_once():
    state = PureState(6, random_pure(np.random.default_rng(74), 6))
    sweep(state)
    # 31 cuts and the whole register
    assert len(state._cuts) == 32


def test_a_sweep_enters_the_engine_twice(monkeypatch):
    n = 8
    state = PureState(n, random_pure(np.random.default_rng(75), n))
    calls = {"engine": 0, "engine checks": 0, "partition checks": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (qcorr.correlation, qcorr.partitions, qcorr.report):
        counting(module, "_cut_spectra", "engine")
    counting(qcorr.correlation, "_check_subset", "engine checks")
    counting(qcorr.states, "_check_subset", "partition checks")
    m = len(sweep(state).entries)
    assert m == 2 ** (n - 1) - 1
    assert calls["engine"] <= 2, calls
    # a sweep's cuts are valid as generated, and the engine trusts what it
    # is handed: no subset is checked
    assert calls["engine checks"] == 0
    assert calls["partition checks"] == 0


def test_report_rejects_a_partition_of_another_size():
    with pytest.raises(PartitionError):
        analyze(ghz(3), [Partition((0,), (1,))])


def test_report_flags_araki_lieb_from_real_checks(monkeypatch):
    assert sweep(ghz(4)).bounds.araki_lieb_ok is True
    checked = []
    real = qcorr.report.decompose_rows

    def failing(state, parts):
        rows = real(state, parts)
        assert rows.araki_lieb_ok.all()
        checked.extend(parts)
        lower = rows.lower_slack.copy()
        lower[1] = -1.0  # the second partition's check fails
        return dataclasses.replace(rows, lower_slack=lower)

    monkeypatch.setattr(qcorr.report, "decompose_rows", failing)
    report = sweep(ghz(4))
    assert len(checked) == len(report.entries) == 7
    assert report.bounds.araki_lieb_ok is False


@settings(deadline=None, max_examples=80)
@given(pure_states(min_qubits=2, max_qubits=5))
def test_report_rows_match_the_library_on_the_density(state):
    n = state.n_qubits
    cuts = enumerate_bipartitions(n)
    parts = cuts + [Partition(p.beta[::-1], p.alpha[::-1]) for p in cuts]
    report = analyze(state, parts)
    rho = to_density(state)
    assert abs(report.total_nats - total_correlation(rho)) <= TOL
    assert report.bounds.araki_lieb_ok is True
    for part, entry in zip(parts, report.entries):
        d = decompose(rho, part)
        assert entry.partition == part.label()
        assert abs(entry.internal_alpha - d.internal_alpha) <= TOL
        assert abs(entry.internal_beta - d.internal_beta) <= TOL
        assert abs(entry.external - d.external) <= TOL
        # Both routes test the Frobenius distance from rho_alpha (x) rho_beta,
        # the pure one through its Schmidt tail, so near the tolerance their
        # verdicts may differ only by rounding (at most 3.1e-16 in the
        # distance over 2000 near-product states of 2 to 5 qubits).
        band = 1e-14
        strict = is_product_across(rho, part, tol=1e-9 - band)
        assert strict <= entry.product_across <= is_product_across(rho, part, tol=1e-9 + band)
        assert araki_lieb_check(rho, part).ok


def test_product_verdict_is_the_same_on_the_pure_and_dense_routes():
    # |01> + 1e-9 |10>: Frobenius distance sqrt(2) 1e-9 from product form,
    # largest entry of rho - rho_alpha (x) rho_beta only 1e-9.
    amps = np.array([0.0, 1.0, 1e-9, 0.0])
    state = PureState(2, amps / np.linalg.norm(amps))
    part = Partition((0,), (1,))
    assert is_product_across(state, part) is False
    assert is_product_across(to_density(state), part) is False
    assert is_product_across(to_density(state), part, tol=1.5e-9) is True


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1), st.booleans())
def test_paper_identity_and_bounds_hold_through_sweep(n, seed, split):
    rng = np.random.default_rng(seed)
    if split:
        # A product of two random factors with its qubits shuffled, so that
        # one cut, not known to the code, is a product cut.
        k = int(rng.integers(1, n))
        perm = [int(q) for q in rng.permutation(n)]
        amps = np.kron(random_pure(rng, k), random_pure(rng, n - k))
        state = permute_qubits(PureState(n, amps), perm)
        factor = set(perm[:k])
    else:
        state = PureState(n, random_pure(rng, n))
    report = sweep(state)
    s_k = report.subsystem_entropies
    bounds = report.bounds
    total = report.total_nats
    assert bounds.araki_lieb_ok is True
    assert abs(bounds.quantum_upper - sum(s_k)) <= IDENTITY_TOL
    assert abs(bounds.classical_upper - (sum(s_k) - max(s_k))) <= IDENTITY_TOL
    # A pure state has S = 0, so its total reaches the quantum bound.
    assert abs(total - bounds.quantum_upper) <= IDENTITY_TOL
    assert total <= n * LN2 + IDENTITY_TOL
    found_factor_cut = False
    for part, e in zip(enumerate_bipartitions(n), report.entries):
        a, b = len(part.alpha), len(part.beta)
        assert abs(e.internal_alpha + e.internal_beta + e.external - total) <= IDENTITY_TOL
        assert min(e.internal_alpha, e.internal_beta, e.external) >= 0.0
        assert e.internal_alpha <= sum(s_k[q] for q in part.alpha) + IDENTITY_TOL
        assert e.internal_beta <= sum(s_k[q] for q in part.beta) + IDENTITY_TOL
        assert e.external <= 2 * min(a, b) * LN2 + IDENTITY_TOL
        assert e.region_external is not Region.UNATTAINABLE
        if e.product_across:
            assert e.external <= IDENTITY_TOL
        if split and factor in (set(part.alpha), set(part.beta)):
            assert e.product_across
            found_factor_cut = True
    assert found_factor_cut or not split


def _sweep_state(kind, n, rng):
    """A pure state of about n qubits (the named kinds round n to their
    own sizes) for the row-rule property."""
    if kind == "random":
        return PureState(n, random_pure(rng, n))
    if kind == "real":
        amps = rng.standard_normal(1 << n)
        return PureState(n, amps / np.linalg.norm(amps))
    if kind == "product":
        k = int(rng.integers(1, n))
        amps = np.kron(random_pure(rng, k), random_pure(rng, n - k))
        return permute_qubits(PureState(n, amps), [int(q) for q in rng.permutation(n)])
    if kind == "ghz":
        return ghz(n)
    if kind == "ue":
        return uniform_entangled(max(1, n // 2))
    if kind == "bellpairs":
        return bell_product(max(1, n // 2))
    return ghz_block_product(max(2, n // 2))


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["random", "real", "product", "ghz", "ue", "bellpairs", "ghzblocks"]),
    st.integers(2, 10),
    st.integers(0, 2**32 - 1),
)
def test_array_rows_are_the_scalar_rules(kind, n, seed):
    state = _sweep_state(kind, n, np.random.default_rng(seed))
    n = state.n_qubits
    report = sweep(state)
    for part, e in zip(enumerate_bipartitions(n), report.entries):
        a, b = len(part.alpha), len(part.beta)
        assert e.region_internal_alpha is classify_region(e.internal_alpha, [LN2] * a)
        assert e.region_internal_beta is classify_region(e.internal_beta, [LN2] * b)
        assert e.region_external is classify_region(e.external, [a * LN2, b * LN2])
        probs = qcorr.correlation._cut_spectra(state, [part.alpha])[0][0]
        assert e.product_across is _product_flag(probs)
        # the one-row rule as a scalar formula
        p = probs / float(probs.sum())
        assert e.product_across is (math.sqrt(2.0 * float(p[1:].sum())) <= 1e-9)


@pytest.mark.parametrize("n", range(2, 13))
def test_sweep_cuts_are_the_canonical_cuts_in_order(n):
    state = ghz(n)
    for size_alpha in [None, *range(1, n)]:
        sizes = range(1, n) if size_alpha is None else sorted({size_alpha, n - size_alpha})
        want = [
            Partition.complement((0, *rest), n)
            for k in sizes
            for rest in combinations(range(1, n), k - 1)
        ]
        assert enumerate_bipartitions(n, size_alpha) == want
        labels = [e.partition for e in sweep(state, size_alpha).entries]
        assert labels == [part.label() for part in want]


@pytest.mark.parametrize(
    "state, size_alpha, message",
    [
        (ghz(4), 0, "size_alpha must be in 1..3, got 0"),
        (ghz(4), 4, "size_alpha must be in 1..3, got 4"),
        (ghz(4), -1, "size_alpha must be in 1..3, got -1"),
        (PureState(1, [1.0, 0.0]), None, "need at least 2 qubits to bipartition, got 1"),
    ],
)
def test_sweep_size_errors_are_unchanged(state, size_alpha, message):
    with pytest.raises(ValueError) as raised:
        sweep(state, size_alpha)
    assert str(raised.value) == message


@settings(deadline=None, max_examples=200)
@given(
    st.integers(2, 30).flatmap(
        lambda n: st.tuples(st.just(n), st.permutations(range(n)), st.integers(1, n - 1))
    )
)
def test_partition_label_round_trips_through_parse(args):
    n, order, k = args
    part = Partition(tuple(order[:k]), tuple(order[k:]))
    label = part.label()
    assert ("," in label) == (n > 26)
    assert parse_partition(label, n) == part


#: Offsets from a region boundary in units of `REGION_TOL`, and whether each
#: lies past the boundary as widened by it.
EDGE_OFFSETS = [(-2.0, False), (-0.5, False), (0.5, False), (2.0, True)]


@pytest.mark.parametrize("alpha", ["a", "ab", "abc", "abcd"])
def test_region_labels_flip_past_region_tol_at_each_cap(alpha, monkeypatch):
    # Each row sits near the ln 2 or 2 ln 2 boundary of its internal parts and
    # near min(|alpha|, |beta|) ln 2 or twice that for its external part; the
    # report's array rule and `classify_region` give the same label.
    n = 6
    part = parse_partition(f"{alpha}|{'abcdef'[len(alpha):]}", n)
    a, b = len(part.alpha), len(part.beta)
    cases = [(edge, offset, past) for edge in (1, 2) for offset, past in EDGE_OFFSETS]

    def near(cap):
        return np.array([edge * cap + offset * REGION_TOL for edge, offset, _ in cases])

    zeros = np.zeros(len(cases))
    rows = DecompositionRows(near(LN2), near(LN2), near(min(a, b) * LN2), zeros, zeros, zeros)
    monkeypatch.setattr(qcorr.report, "decompose_rows", lambda state, parts: rows)
    report = analyze(ghz(n), [part] * len(cases))
    for (edge, _, past), e in zip(cases, report.entries):
        want = tuple(Region)[edge - 1 + past]
        assert e.region_internal_alpha is want
        assert e.region_internal_beta is want
        assert e.region_external is want
        assert classify_region(e.internal_alpha, [LN2] * a) is want
        assert classify_region(e.internal_beta, [LN2] * b) is want
        assert classify_region(e.external, [a * LN2, b * LN2]) is want


@pytest.mark.parametrize("slack, ok", [(-0.5e-9, True), (-2e-9, False)])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_araki_lieb_verdict_flips_at_its_tolerance(side, slack, ok, monkeypatch):
    zero = np.zeros(1)
    slacks = {"lower_slack": zero, "upper_slack": zero, f"{side}_slack": np.array([slack])}
    rows = DecompositionRows(zero, zero, zero, zero, **slacks)
    assert rows.araki_lieb_ok.tolist() == [ok]
    # the one-row check and the report's AND read the same rule
    monkeypatch.setattr(qcorr.correlation, "decompose_rows", lambda state, parts: rows)
    monkeypatch.setattr(qcorr.report, "decompose_rows", lambda state, parts: rows)
    part = parse_partition("ab|cd", 4)
    assert araki_lieb_check(ghz(4), part).ok is ok
    assert analyze(ghz(4), [part]).bounds.araki_lieb_ok is ok
